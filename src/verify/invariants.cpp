#include "verify/invariants.hpp"

#include <cmath>

#include "codegen/bytecode_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "network/io.hpp"
#include "odegen/conservation.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "vm/fuse.hpp"
#include "vm/interpreter.hpp"

namespace rms::verify {

namespace {

/// "" when bit-identical, otherwise a description of the first difference.
std::string compare_programs(const vm::Program& a, const vm::Program& b) {
  if (a.code.size() != b.code.size()) {
    return support::str_format("code size %zu vs %zu", a.code.size(),
                               b.code.size());
  }
  for (std::size_t i = 0; i < a.code.size(); ++i) {
    const vm::Instr& x = a.code[i];
    const vm::Instr& y = b.code[i];
    if (x.op != y.op || x.dst != y.dst || x.a != y.a || x.b != y.b ||
        x.c != y.c) {
      return support::str_format("instruction %zu differs", i);
    }
  }
  if (a.consts != b.consts) return "constant pools differ";
  if (a.register_count != b.register_count) return "register counts differ";
  if (a.output_count != b.output_count) return "output counts differ";
  return "";
}

/// Recompiles the optimized program from the model's equation table.
vm::Program recompile(const models::BuiltModel& built,
                      opt::OptimizerOptions options,
                      const support::ThreadPool* pool) {
  options.pool = pool;
  options.timings = nullptr;
  const opt::OptimizedSystem system =
      opt::optimize(built.odes.table, built.odes.table.size(),
                    built.rates.size(), options);
  return vm::fuse_and_compact(codegen::emit_optimized(system, pool));
}

Divergence invariant_failure(const std::string& model_name,
                             const std::string& invariant,
                             const std::string& variant_a,
                             const std::string& variant_b,
                             std::uint64_t seed, std::string detail) {
  Divergence d;
  d.model_name = model_name;
  d.stage = "invariant:" + invariant;
  d.path_a = variant_a;
  d.path_b = variant_b;
  d.seed = seed;
  d.equation_label = std::move(detail);
  return d;
}

}  // namespace

std::vector<Divergence> check_invariants(const models::BuiltModel& built,
                                         const std::string& model_name,
                                         const InvariantOptions& options) {
  std::vector<Divergence> failures;
  const std::size_t species_count = built.odes.table.size();
  const std::size_t rate_count = built.rates.size();
  if (species_count == 0) return failures;

  // Random draws shared by the value-level invariants.
  std::vector<std::vector<double>> ys;
  std::vector<std::vector<double>> ks;
  std::vector<double> ts;
  {
    support::Xoshiro256 rng(options.seed);
    for (int trial = 0; trial < options.trials; ++trial) {
      ts.push_back(rng.uniform(0.0, 1.0));
      std::vector<double> y(species_count);
      for (double& v : y) v = rng.uniform(0.0, 2.0);
      ys.push_back(std::move(y));
      std::vector<double> k(rate_count);
      for (double& v : k) v = rng.uniform(0.05, 10.0);
      ks.push_back(std::move(k));
    }
  }

  vm::Scratch scratch;
  scratch.prepare(built.program_optimized);
  const vm::Interpreter interpreter(built.program_optimized);

  // ---------------------------------------------------------- conservation
  if (options.check_conservation && !built.network.reactions.empty()) {
    const std::vector<linalg::Vector> laws =
        odegen::conservation_laws(built.network);
    std::vector<double> ydot(species_count);
    for (int trial = 0; trial < options.trials; ++trial) {
      interpreter.run(ts[trial], ys[trial].data(), ks[trial].data(),
                      ydot.data(), scratch);
      for (std::size_t l = 0; l < laws.size(); ++l) {
        double residual = 0.0;
        double magnitude = 0.0;
        for (std::size_t i = 0; i < species_count; ++i) {
          residual += laws[l][i] * ydot[i];
          magnitude += std::fabs(laws[l][i] * ydot[i]);
        }
        if (std::fabs(residual) >
            options.conservation_tolerance * (magnitude + 1.0)) {
          Divergence d = invariant_failure(
              model_name, "conservation", "w . f(y)", "0", options.seed,
              support::str_format("law %zu residual %.3g (terms %.3g)", l,
                                  residual, magnitude));
          d.value_a = residual;
          d.trial = trial;
          failures.push_back(std::move(d));
          break;  // one report per law set is enough
        }
      }
      if (!failures.empty() && failures.back().stage == "invariant:conservation")
        break;
    }
  }

  // ------------------------------------------------------ thread counts
  if (options.check_thread_invariance) {
    const vm::Program serial =
        recompile(built, opt::OptimizerOptions::full(), nullptr);
    for (std::size_t threads : options.thread_counts) {
      // cap_to_hardware=false: real cross-thread schedules even on small CI
      // hosts — determinism must not depend on the host's core count.
      support::ThreadPool pool(threads, /*cap_to_hardware=*/false);
      const vm::Program parallel =
          recompile(built, opt::OptimizerOptions::full(), &pool);
      const std::string diff = compare_programs(serial, parallel);
      if (!diff.empty()) {
        failures.push_back(invariant_failure(
            model_name, "threads", "serial",
            support::str_format("%zu threads", threads), options.seed, diff));
      }
      // The graph-chemistry front half: network generation must also be
      // schedule-independent (species ids feed everything downstream).
      if (!built.model.rules.empty()) {
        network::GeneratorOptions gen = options.generator;
        gen.pool = &pool;
        auto net = network::generate_network(built.model, gen);
        if (!net.is_ok() ||
            network::serialize_network(*net) !=
                network::serialize_network(built.network)) {
          failures.push_back(invariant_failure(
              model_name, "threads", "serial network",
              support::str_format("%zu-thread network", threads),
              options.seed,
              net.is_ok() ? "generated network differs"
                          : net.status().to_string()));
        }
      }
    }
  }

  // ------------------------------------------------- opt-level equivalence
  if (options.check_opt_level_equivalence) {
    const vm::Program unoptimized =
        recompile(built, opt::OptimizerOptions::none(), nullptr);
    vm::Scratch none_scratch;
    none_scratch.prepare(unoptimized);
    const vm::Interpreter none_interp(unoptimized);
    std::vector<double> a(species_count);
    std::vector<double> b(species_count);
    for (int trial = 0; trial < options.trials; ++trial) {
      interpreter.run(ts[trial], ys[trial].data(), ks[trial].data(), a.data(),
                      scratch);
      none_interp.run(ts[trial], ys[trial].data(), ks[trial].data(), b.data(),
                      none_scratch);
      double scale = 0.0;
      for (std::size_t i = 0; i < species_count; ++i) {
        scale = std::max({scale, std::fabs(a[i]), std::fabs(b[i])});
      }
      bool diverged = false;
      for (std::size_t i = 0; i < species_count && !diverged; ++i) {
        if (!values_match(a[i], b[i], Tolerance::kReassociated, scale)) {
          Divergence d = invariant_failure(
              model_name, "opt-level", "optimized", "no-optimization",
              options.seed,
              support::str_format("equation %zu: %.17g vs %.17g", i, a[i],
                                  b[i]));
          d.equation = i;
          d.value_a = a[i];
          d.value_b = b[i];
          d.ulp = ulp_distance(a[i], b[i]);
          d.trial = trial;
          failures.push_back(std::move(d));
          diverged = true;
        }
      }
      if (diverged) break;
    }
  }

  return failures;
}

}  // namespace rms::verify
