// Native-backend benchmark: AOT-compiled machine code vs the optimized
// bytecode VM on the paper's synthetic test cases.
//
// Three measurements per test case, all on the same model and the same
// random states:
//   - RHS throughput (ns/eval): VM scalar, VM batched, native scalar,
//     native batched. The VM numbers run the fused + register-compacted
//     program; the native numbers run the emitted C compiled by the system
//     compiler (-O2 -ffp-contract=off).
//   - Backend construction: cold compile (fresh cache directory) vs a
//     cache hit on the same key — the cost the content-addressed .so cache
//     removes from every run after the first — and the hit's emit time
//     (source generation plus hashing, NativeCompileInfo::emit_seconds),
//     the part of a hit that is neither dlopen nor compile.
//   - End-to-end estimator objective (sparse-Newton integration over
//     synthetic experiments): VM + compiled Jacobian vs the native module.
//
// Results go to stdout and BENCH_native.json (override with --json=PATH).
//
// Flags:
//   --scale=F     fraction of the paper's equation count (default 0.04 —
//                 eval cost scales linearly, compile cost superlinearly)
//   --lanes=N     batch width for the batched entry points (default 16,
//                 the solver's finite-difference chunk size)
//   --repeats=N   timing repeats; the fastest is reported (default 3)
//   --json=PATH   output path (default BENCH_native.json)
//   --skip-estimator  RHS + construction measurements only
//
// Exits non-zero when the rerun on the warm cache does not hit it.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "codegen/native_backend.hpp"
#include "data/synthetic.hpp"
#include "estimator/objective.hpp"
#include "models/test_cases.hpp"
#include "rms/execution.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace rms;

/// Fresh private cache directory (the bench must pay a real cold compile).
std::string make_cache_dir() {
  char name[] = "/tmp/rms-bench-native-XXXXXX";
  char* made = mkdtemp(name);
  if (made == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return made;
}

void remove_dir(const std::string& path) {
  std::system(("rm -rf " + path).c_str());
}

/// Times `body` (called with an iteration count) until it has run for at
/// least ~0.1s, returns seconds per call of the innermost unit.
template <typename Body>
double time_per_unit(std::size_t units_per_call, int repeats, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    std::size_t calls = 1;
    double seconds = 0.0;
    for (;;) {
      support::WallTimer timer;
      for (std::size_t i = 0; i < calls; ++i) body();
      seconds = timer.seconds();
      if (seconds >= 0.1 || calls >= (1u << 22)) break;
      calls *= 4;
    }
    const double per_unit =
        seconds / (static_cast<double>(calls) *
                   static_cast<double>(units_per_call));
    if (r == 0 || per_unit < best) best = per_unit;
  }
  return best;
}

struct CaseResult {
  std::string name;
  std::size_t equations = 0;
  double vm_scalar_ns = 0.0;
  double vm_batch_ns = 0.0;
  double native_scalar_ns = 0.0;
  double native_batch_ns = 0.0;
  double cold_seconds = 0.0;
  double cold_emit_seconds = 0.0;
  double warm_seconds = 0.0;
  double warm_emit_seconds = 0.0;
};

CaseResult bench_case(int tc, double scale, std::size_t lanes, int repeats) {
  CaseResult result;
  result.name = support::str_format("TC%d", tc);
  auto built = models::build_test_case(models::scaled_config(tc, scale));
  if (!built.is_ok()) {
    std::fprintf(stderr, "TC%d build failed: %s\n", tc,
                 built.status().to_string().c_str());
    std::exit(1);
  }
  const std::size_t n = built->equation_count();
  const std::size_t rate_count = built->rates.size();
  result.equations = n;

  // Cold compile, then a cache hit on the identical key.
  const std::string cache_dir = make_cache_dir();
  codegen::NativeBackendOptions options;
  options.cache_dir = cache_dir;
  auto native = codegen::NativeBackend::create(
      built->optimized, &built->odes.table, n, rate_count, options);
  if (!native.is_ok()) {
    std::fprintf(stderr, "TC%d native compile failed: %s\n", tc,
                 native.status().to_string().c_str());
    std::exit(1);
  }
  result.cold_seconds = (*native)->info().total_seconds;
  result.cold_emit_seconds = (*native)->info().emit_seconds;
  {
    auto warm = codegen::NativeBackend::create(
        built->optimized, &built->odes.table, n, rate_count, options);
    if (!warm.is_ok() || !(*warm)->info().cache_hit) {
      std::fprintf(stderr, "TC%d expected a cache hit on rerun\n", tc);
      std::exit(1);
    }
    result.warm_seconds = (*warm)->info().total_seconds;
    result.warm_emit_seconds = (*warm)->info().emit_seconds;
  }

  // Shared random inputs for every eval mode.
  support::Xoshiro256 rng(7u * static_cast<unsigned>(tc));
  std::vector<double> k(rate_count);
  for (double& v : k) v = rng.uniform(0.05, 10.0);
  std::vector<double> ys(n * lanes);
  for (double& v : ys) v = rng.uniform(0.0, 2.0);
  std::vector<double> ydots(n * lanes, 0.0);

  const vm::Interpreter interpreter(built->program_optimized);
  vm::Scratch scratch;

  result.vm_scalar_ns =
      1e9 * time_per_unit(1, repeats, [&] {
        interpreter.run(0.5, ys.data(), k.data(), ydots.data());
      });
  result.vm_batch_ns =
      1e9 * time_per_unit(lanes, repeats, [&] {
        interpreter.run_batch_shared_k(0.5, ys.data(), k.data(), ydots.data(),
                                       lanes, scratch);
      });
  const codegen::NativeBackend& module = **native;
  result.native_scalar_ns =
      1e9 * time_per_unit(1, repeats, [&] {
        module.rhs(0.5, ys.data(), k.data(), ydots.data());
      });
  result.native_batch_ns =
      1e9 * time_per_unit(lanes, repeats, [&] {
        module.rhs_batch(0.5, ys.data(), k.data(), ydots.data(), lanes);
      });

  remove_dir(cache_dir);
  return result;
}

struct EstimatorResult {
  double vm_seconds = 0.0;
  double native_seconds = 0.0;
};

/// End-to-end objective evaluation on TC1: both configurations integrate
/// with the analytic sparse Jacobian; only the execution engine differs.
EstimatorResult bench_estimator(double scale, int repeats) {
  EstimatorResult result;
  auto built = models::build_test_case(models::scaled_config(1, scale));
  if (!built.is_ok()) {
    std::fprintf(stderr, "estimator model build failed\n");
    std::exit(1);
  }
  const std::size_t rate_count = built->rates.size();

  const std::string cache_dir = make_cache_dir();
  ExecutionOptions native_execution;
  native_execution.backend = Backend::kNative;
  native_execution.native.cache_dir = cache_dir;
  const Execution native = Execution::create(*built, native_execution);
  if (native.backend() != Backend::kNative) {
    std::fprintf(stderr, "estimator native compile failed: %s\n",
                 native.fallback_reason().c_str());
    std::exit(1);
  }
  ExecutionOptions vm_execution;
  vm_execution.backend = Backend::kVm;
  const Execution vm = Execution::create(*built, vm_execution);

  data::Observable observable;
  observable.weighted_species = {{0, 1.0}};
  const std::vector<double> base_rates = built->rates.values();
  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < rate_count; ++s) slots.push_back(s);

  // The data come from the VM, so they do not depend on the host's cc.
  const solver::OdeSystem truth = vm.make_system(&base_rates);
  data::SyntheticOptions synth;
  synth.integration.newton_linear_solver =
      solver::NewtonLinearSolver::kSparseLu;
  synth.t_end = 2.0;
  synth.record_count = 24;
  std::vector<estimator::Experiment> experiments;
  for (int file = 0; file < 4; ++file) {
    estimator::Experiment e;
    e.initial_state = built->odes.init_concentrations;
    auto data = data::synthesize_experiment(truth, e.initial_state,
                                            observable, synth);
    if (!data.is_ok()) {
      std::fprintf(stderr, "synthesize failed\n");
      std::exit(1);
    }
    e.data = std::move(data).value();
    experiments.push_back(std::move(e));
  }

  // Slightly perturbed parameters: a realistic mid-fit evaluation.
  linalg::Vector x(base_rates.begin(), base_rates.end());
  for (double& v : x) v *= 1.1;

  auto time_objective = [&](const estimator::ObjectiveOptions& objective_options) {
    estimator::ObjectiveFunction objective(
        built->program_optimized, observable, experiments, slots, base_rates,
        objective_options);
    linalg::Vector residuals;
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      support::WallTimer timer;
      auto status = objective.evaluate(x, residuals);
      const double seconds = timer.seconds();
      if (!status.is_ok()) {
        std::fprintf(stderr, "objective failed: %s\n",
                     status.to_string().c_str());
        std::exit(1);
      }
      if (r == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  estimator::ObjectiveOptions vm_options;
  vm_options.compiled_jacobian = vm.compiled_jacobian();
  result.vm_seconds = time_objective(vm_options);
  estimator::ObjectiveOptions native_options;
  native_options.native_backend = native.native();
  result.native_seconds = time_objective(native_options);

  remove_dir(cache_dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.04);
  const std::size_t lanes =
      static_cast<std::size_t>(flags.get_int("lanes", 16));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const std::string json_path = flags.get_string("json", "BENCH_native.json");

  std::printf("native backend benchmark: scale=%.3g lanes=%zu repeats=%d\n\n",
              scale, lanes, repeats);
  std::printf("%-5s %9s | %12s %12s %12s %12s | %8s %11s %10s %8s\n",
              "case", "equations", "vm ns", "vm-batch ns", "nat ns",
              "nat-batch ns", "cold s", "cache-hit s", "hit-emit s",
              "speedup");

  std::vector<std::string> case_json;
  double worst_batch_speedup = 1e30;
  double worst_cache_ratio = 1e30;
  for (int tc = 1; tc <= 3; ++tc) {
    const CaseResult r = bench_case(tc, scale, lanes, repeats);
    const double batch_speedup = r.vm_batch_ns / r.native_batch_ns;
    const double cache_ratio = r.cold_seconds / r.warm_seconds;
    worst_batch_speedup = std::min(worst_batch_speedup, batch_speedup);
    worst_cache_ratio = std::min(worst_cache_ratio, cache_ratio);
    std::printf(
        "%-5s %9zu | %12.1f %12.1f %12.1f %12.1f | %8.3f %11.6f %10.6f "
        "%7.1fx\n",
        r.name.c_str(), r.equations, r.vm_scalar_ns, r.vm_batch_ns,
        r.native_scalar_ns, r.native_batch_ns, r.cold_seconds, r.warm_seconds,
        r.warm_emit_seconds, batch_speedup);
    case_json.push_back(
        bench::JsonObject()
            .add("name", r.name)
            .add("equations", r.equations)
            .add("vm_scalar_ns_per_eval", r.vm_scalar_ns)
            .add("vm_batch_ns_per_eval", r.vm_batch_ns)
            .add("native_scalar_ns_per_eval", r.native_scalar_ns)
            .add("native_batch_ns_per_eval", r.native_batch_ns)
            .add("native_batch_speedup_vs_vm_batch", batch_speedup)
            .add("native_scalar_speedup_vs_vm_scalar",
                 r.vm_scalar_ns / r.native_scalar_ns)
            .add("cold_compile_seconds", r.cold_seconds)
            .add("cold_emit_seconds", r.cold_emit_seconds)
            .add("cache_hit_seconds", r.warm_seconds)
            .add("cache_hit_emit_seconds", r.warm_emit_seconds)
            .add("cache_hit_speedup", cache_ratio)
            .str());
  }

  bench::JsonObject root;
  root.add("benchmark", std::string("native_backend"));
  root.add("scale", scale);
  root.add("batch_lanes", lanes);
  root.add_raw("test_cases", bench::json_array(case_json));

  if (!flags.has("skip-estimator")) {
    const EstimatorResult est = bench_estimator(scale, repeats);
    std::printf("\nestimator objective (TC1, 4 files, sparse Newton): "
                "vm %.4fs  native %.4fs  (%.2fx)\n",
                est.vm_seconds, est.native_seconds,
                est.vm_seconds / est.native_seconds);
    root.add_raw("estimator",
                 bench::JsonObject()
                     .add("vm_seconds", est.vm_seconds)
                     .add("native_seconds", est.native_seconds)
                     .add("speedup", est.vm_seconds / est.native_seconds)
                     .str());
  }

  std::printf("\nworst-case native-batch speedup vs fused VM: %.2fx "
              "(target >= 2x)\n", worst_batch_speedup);
  std::printf("worst-case cache-hit speedup vs cold compile: %.0fx "
              "(target >= 100x)\n", worst_cache_ratio);

  if (!bench::write_file(json_path, root.str() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
