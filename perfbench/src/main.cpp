// End-to-end benchmark runner: one workload, from model source to a checked
// result, in this process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR --cache-dir DIR --model-dir DIR [--trace-out P]
//
// Untraced (--trace 0): runs one untimed warm-up job, then repeats the job
// until S seconds have passed (at least kMinJobs times) and reports the
// median total_s, setup_s and run_s of the successful timed jobs plus the
// process's peak RSS. Traced (--trace 1): runs the job untraced
// twice, traced once and with one thread once, reports the per-layer
// metrics the workload exercises, the tracing overhead and any drift of the
// deterministic counters between the four, and writes Chrome trace-event
// JSON plus a summary to --trace-out. The last line of stdout is the result
// object.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "support/timer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::JobOptions;
using perfbench::JobResult;
using perfbench::Metrics;
using perfbench::median;

/// Set-up is a median over at least this many jobs.
constexpr std::size_t kMinJobs = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  perfbench::Paths paths;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.paths.data_dir = value;
    } else if (flag == "--cache-dir") {
      args.paths.cache_dir = value;
    } else if (flag == "--model-dir") {
      args.paths.model_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args.workload.empty() && !args.paths.data_dir.empty() &&
         !args.paths.cache_dir.empty() && !args.paths.model_dir.empty();
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void report_failure(const JobResult& job) {
  if (!job.ok) std::fprintf(stderr, "operation failed: %s\n", job.error.c_str());
}

/// Every counter must be present in both jobs and agree exactly. Jobs that
/// failed have no counters and are reported as failures instead.
std::size_t drift(const JobResult& a, const JobResult& b, const char* what) {
  if (!a.ok || !b.ok) return 0;
  std::size_t mismatches = 0;
  for (const auto& [name, value] : a.counts) {
    const auto it = b.counts.find(name);
    if (it != b.counts.end() && it->second == value) continue;
    ++mismatches;
    if (it == b.counts.end()) {
      std::fprintf(stderr, "counter drift (%s): %s missing\n", what,
                   name.c_str());
    } else {
      std::fprintf(stderr, "counter drift (%s): %s %.17g vs %.17g\n", what,
                   name.c_str(), value, it->second);
    }
  }
  for (const auto& [name, value] : b.counts) {
    if (a.counts.contains(name)) continue;
    ++mismatches;
    std::fprintf(stderr, "counter drift (%s): %s missing\n", what,
                 name.c_str());
  }
  return mismatches;
}

int run_untraced(perfbench::Workload& workload, const Args& args) {
  // The first job warms the process (page faults, thread start-up, the
  // dynamic loader): it is checked but not timed.
  const JobResult warm_up = workload.run_job(JobOptions{});
  report_failure(warm_up);
  std::size_t attempted = 1;
  std::size_t failed = warm_up.ok ? 0 : 1;

  std::vector<double> total;
  std::vector<double> setup;
  std::vector<double> run;
  const rms::support::WallTimer wall;
  while (attempted <= kMinJobs || wall.seconds() < args.seconds) {
    // Hands the free heap pages of every malloc arena back to the OS, so
    // the peak RSS is one job's peak and does not creep up with the number
    // of jobs (each creates and joins its own pool threads) a run fits in.
    malloc_trim(0);
    const JobResult job = workload.run_job(JobOptions{});
    ++attempted;
    report_failure(job);
    if (!job.ok) {
      // A job that stopped early would report too short a time.
      ++failed;
      continue;
    }
    std::fprintf(stderr, "job %zu: setup %.4f s, run %.4f s, total %.4f s\n",
                 attempted, job.setup_s, job.run_s, job.total_s);
    total.push_back(job.total_s);
    setup.push_back(job.setup_s);
    run.push_back(job.run_s);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Metrics metrics;
  metrics["total_s"] = {median(total), "s"};
  metrics["setup_s"] = {median(setup), "s"};
  metrics["run_s"] = {median(run), "s"};
  metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                            "MiB"};
  std::fprintf(stderr, "%zu timed jobs in %.1f s after one warm-up job\n",
               total.size(), wall.seconds());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

int run_traced(perfbench::Workload& workload, const Args& args) {
  const JobOptions untraced;
  // The first job also warms the process (page faults, thread start-up).
  const JobResult first = workload.run_job(untraced);

  perfbench::Tracer tracer;
  Metrics layers;
  JobOptions traced = untraced;
  traced.tracer = &tracer;
  traced.layers = &layers;
  const JobResult with_trace = workload.run_job(traced);
  const JobResult plain = workload.run_job(untraced);

  JobOptions serial = untraced;
  serial.threads = 1;
  const JobResult one_thread = workload.run_job(serial);

  std::size_t failed = 0;
  const JobResult* jobs[] = {&first, &with_trace, &plain, &one_thread};
  for (const JobResult* job : jobs) {
    report_failure(*job);
    if (!job->ok) ++failed;
  }
  const std::size_t drifted = drift(first, with_trace, "traced") +
                              drift(first, plain, "repeat") +
                              drift(first, one_thread, "1 thread vs 4");

  for (const auto& [name, value] : with_trace.counts) {
    const bool ratio = name.size() > 6 && name.ends_with("_ratio");
    layers[name] = {value, ratio ? "ratio" : "count"};
  }
  layers["trace.overhead_s"] = {with_trace.run_s - plain.run_s, "s"};
  layers["determinism.drift"] = {static_cast<double>(drifted), "count"};

  if (!args.trace_out.empty()) {
    std::ofstream(args.trace_out) << tracer.chrome_json();
    std::ofstream summary(args.trace_out + ".summary.json");
    summary << "{\"workload\": \"" << args.workload
            << "\", \"backend\": \"" << workload.expected_backend()
            << "\", \"threads\": " << perfbench::kThreads
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"untraced_run_s\": " << number(plain.run_s)
            << ", \"traced_run_s\": " << number(with_trace.run_s)
            << ",\n\"spans\": " << tracer.summary_json() << "}\n";
  }
  print_result(failed == 0 && drifted == 0, std::size(jobs), failed, layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR --cache-dir DIR --model-dir "
                 "DIR [--trace-out PATH]\n");
    return 2;
  }
  auto workload = perfbench::make_workload(args.workload, args.seed, args.paths);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const rms::support::Status prepared = workload->prepare();
  if (!prepared.is_ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "measured: workload %s, backend %s (checked per job), %d "
               "threads, nproc %u\n",
               args.workload.c_str(), workload->expected_backend(),
               perfbench::kThreads, std::thread::hardware_concurrency());
  return args.trace ? run_traced(*workload, args) : run_untraced(*workload, args);
}
