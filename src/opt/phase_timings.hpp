// Compile-time telemetry: wall time per pipeline phase.
//
// Every stage of the compile pipeline (parse, network generation, rate
// processing, ODE generation, DistOpt, CSE, emission, fuse/regalloc,
// Jacobian differentiation) reports its wall time into a PhaseTimings
// carried on the BuiltModel. perfbench reports them as its compile layers
// (opt.distopt_s, opt.cse_s, ...), and table1_optimizations prints them next
// to the Table 1 rows so every benchmark run doubles as compile-time
// regression data.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/timer.hpp"

namespace rms::opt {

struct PhaseTimings {
  struct Phase {
    std::string name;
    double seconds = 0.0;
  };

  /// Phases in first-report order (the pipeline's execution order).
  std::vector<Phase> phases;

  /// Accumulates `seconds` into the named phase, creating it on first use.
  void add(std::string_view name, double seconds);

  /// Seconds recorded for `name`, 0.0 if the phase never ran.
  [[nodiscard]] double seconds(std::string_view name) const;

  [[nodiscard]] double total_seconds() const;

  /// One line per phase, aligned, e.g. for table1_optimizations output.
  [[nodiscard]] std::string to_string() const;
};

/// Scope helper: adds the elapsed wall time to `timings[name]` on
/// destruction. A null timings pointer makes it a no-op, so instrumented
/// code paths need no branches.
class PhaseTimer {
 public:
  PhaseTimer(PhaseTimings* timings, std::string_view name)
      : timings_(timings), name_(name) {}
  ~PhaseTimer() { stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Ends the measurement early (before scope exit).
  void stop() {
    if (timings_ != nullptr) {
      timings_->add(name_, timer_.seconds());
      timings_ = nullptr;
    }
  }

 private:
  PhaseTimings* timings_;
  std::string_view name_;
  support::WallTimer timer_;
};

}  // namespace rms::opt
