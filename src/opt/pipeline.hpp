// Optimizer pipeline driver: equation table -> DistOpt -> CSE.
//
// Stage toggles support the ablations of Table 1: the "without algebraic/
// CSE optimizations" baselines disable everything; "algebraic only" enables
// DistOpt but not temporaries; the full pipeline enables both. (The §3.1
// simplification runs inside the equation generator — "on-the-fly as the
// equations are generated" — and is toggled there.)
#pragma once

#include "odegen/equation_table.hpp"
#include "opt/cse.hpp"
#include "opt/optimized_system.hpp"
#include "opt/phase_timings.hpp"
#include "support/thread_pool.hpp"

namespace rms::opt {

struct OptimizerOptions {
  /// Run the §3.2 distributive optimization per equation. It runs once per
  /// group of structurally identical equations and CSE copies the
  /// representative's result to the duplicates. Jacobian tables repeat
  /// entries heavily (rate laws differentiate to the same few shapes), so
  /// this skips most of the work; DistOpt is a pure function of the
  /// equation, so the output is the same as optimizing each one.
  bool distributive = true;
  CseOptions cse;

  /// Worker pool for the per-equation DistOpt fan-out; null runs serially.
  const support::ThreadPool* pool = nullptr;

  /// Optional phase telemetry sink ("distopt", "cse" phases).
  PhaseTimings* timings = nullptr;

  static OptimizerOptions none() {
    OptimizerOptions o;
    o.distributive = false;
    o.cse.enable_prefix_sharing = false;
    o.cse.enable_temporaries = false;
    return o;
  }
  static OptimizerOptions full() { return OptimizerOptions{}; }
};

struct OptimizationReport {
  OperationCount before;  ///< flat sum-of-products op counts
  OperationCount after;   ///< emitted optimized program op counts
  std::size_t temp_count = 0;
  /// Distinct equations actually run through DistOpt (== equation count when
  /// every equation is unique or `distributive` is off).
  std::size_t distinct_equations = 0;

  [[nodiscard]] double multiply_fraction() const {
    return before.multiplies == 0
               ? 1.0
               : static_cast<double>(after.multiplies) /
                     static_cast<double>(before.multiplies);
  }
  [[nodiscard]] double add_sub_fraction() const {
    return before.add_subs == 0 ? 1.0
                                : static_cast<double>(after.add_subs) /
                                      static_cast<double>(before.add_subs);
  }
  [[nodiscard]] double total_fraction() const {
    return before.total() == 0 ? 1.0
                               : static_cast<double>(after.total()) /
                                     static_cast<double>(before.total());
  }
};

/// Runs the configured pipeline over an equation table.
OptimizedSystem optimize(const odegen::EquationTable& table,
                         std::size_t species_count, std::size_t rate_count,
                         const OptimizerOptions& options = {},
                         OptimizationReport* report = nullptr);

}  // namespace rms::opt
