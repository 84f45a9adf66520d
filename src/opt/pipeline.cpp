#include "opt/pipeline.hpp"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "opt/distopt.hpp"
#include "support/small_vector.hpp"

namespace rms::opt {

namespace {

/// Groups structurally identical equations. rep_of[i] is the index of the
/// first equation identical to equation i (rep_of[rep] == rep); `reps` lists
/// the representatives in first-seen order. Deterministic: depends only on
/// equation contents and order, never on scheduling.
void group_equations(const std::vector<expr::SumOfProducts>& equations,
                     std::vector<std::uint32_t>& rep_of,
                     std::vector<std::uint32_t>& reps) {
  const std::size_t n = equations.size();
  rep_of.resize(n);
  std::unordered_map<std::uint64_t,
                     support::SmallVector<std::uint32_t, 2>>
      buckets;
  buckets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& bucket = buckets[equations[i].structural_hash()];
    std::uint32_t rep = static_cast<std::uint32_t>(i);
    for (std::uint32_t candidate : bucket) {
      if (equations[candidate].structural_equals(equations[i])) {
        rep = candidate;
        break;
      }
    }
    rep_of[i] = rep;
    if (rep == i) {
      bucket.push_back(rep);
      reps.push_back(rep);
    }
  }
}

}  // namespace

OptimizedSystem optimize(const odegen::EquationTable& table,
                         std::size_t species_count, std::size_t rate_count,
                         const OptimizerOptions& options,
                         OptimizationReport* report) {
  const std::vector<expr::SumOfProducts>& equations = table.equations();
  const std::size_t n = equations.size();
  std::vector<expr::FactoredSum> factored(n);
  std::size_t distinct = n;
  std::vector<std::uint32_t> rep_of;

  {
    PhaseTimer timer(options.timings, "distopt");
    if (!options.distributive) {
      support::parallel_for(options.pool, 0, n, 64, [&](std::size_t i) {
        factored[i] = expr::FactoredSum::from_sum_of_products(equations[i]);
      });
    } else {
      std::vector<std::uint32_t> reps;
      group_equations(equations, rep_of, reps);
      distinct = reps.size();

      // Optimize the representatives only; slot j belongs to reps[j], so
      // results land by index regardless of which worker ran them. The
      // duplicate slots stay empty: CSE receives the grouping and never
      // reads them (the Jacobian table is ~99% duplicates, so this skips
      // most tree copies and their destruction).
      std::vector<expr::FactoredSum> rep_result(reps.size());
      support::parallel_for(
          options.pool, 0, reps.size(), 1, [&](std::size_t j) {
            rep_result[j] = distributive_optimize(equations[reps[j]]);
          });
      for (std::size_t j = 0; j < reps.size(); ++j) {
        factored[reps[j]] = std::move(rep_result[j]);
      }
    }
  }

  // Hand the DistOpt grouping to CSE: duplicates copy their
  // representative's sum id instead of re-hashing every factored tree (and
  // a table with no duplicates skips the hash pass entirely).
  const std::vector<std::uint32_t>* groups =
      options.distributive ? &rep_of : nullptr;
  PhaseTimer cse_timer(options.timings, "cse");
  OptimizedSystem system =
      build_optimized_system(factored, species_count, rate_count, options.cse,
                             groups);
  cse_timer.stop();

  if (report != nullptr) {
    report->before.multiplies = table.multiply_count();
    report->before.add_subs = table.add_sub_count();
    report->after = system.count_operations();
    report->temp_count = system.temp_count();
    report->distinct_equations = distinct;
  }
  return system;
}

}  // namespace rms::opt
