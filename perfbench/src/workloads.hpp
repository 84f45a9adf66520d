// The benchmark's workloads. One operation is one job from model source to
// a checked result: compile, backend build or cache hit, data loading and
// objective construction (set-up), then the fit or the simulation (run),
// then the correctness check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/status.hpp"
#include "trace.hpp"

namespace perfbench {

/// Threads one job may use. The compile pool and the estimator pool each
/// run this many (pool workers plus the calling thread), never both at once.
inline constexpr int kThreads = 4;

struct Paths {
  std::string data_dir;   ///< generated experiment files, cached by seed
  std::string cache_dir;  ///< native shared-object cache
  std::string model_dir;  ///< the repository's models_rdl directory
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct JobOptions {
  int threads = kThreads;
  /// Records spans around every library call (the traced run).
  Tracer* tracer = nullptr;
  /// Receives the per-layer metrics, including the timed probes that run
  /// after the job; null skips the timed probes.
  Metrics* layers = nullptr;
};

struct JobResult {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double run_s = 0.0;
  double total_s = 0.0;
  /// Deterministic work counters, gathered after the timed phases of every
  /// successful job; they must repeat exactly across runs and thread
  /// counts.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The backend the job must select ("native" or "vm").
  [[nodiscard]] virtual const char* expected_backend() const = 0;

  /// Untimed: generates (or finds cached) inputs, warms the native
  /// shared-object cache and computes the reference results the jobs are
  /// checked against.
  virtual rms::support::Status prepare() = 0;

  /// Runs one operation.
  virtual JobResult run_job(const JobOptions& options) = 0;
};

/// Median (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> values);

/// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Paths& paths);

}  // namespace perfbench
