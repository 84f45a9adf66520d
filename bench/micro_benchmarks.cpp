// Google-benchmark micro benchmarks for the hot components: the
// distributive optimization, CSE construction, bytecode interpretation,
// SMILES canonicalization, BDF stepping, one observed record read, parsing
// an experiment file, LPT scheduling and the sparse LU of a stiff Newton
// iteration matrix (analysis, refactor, solve) — plus the
// vm_dispatch suite comparing the seed switch interpreter against the
// threaded/fused/compacted/batched execution engine. main() writes the
// vm_dispatch results to BENCH_vm.json (override with --vm-json=PATH).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "bench_util.hpp"
#include "chem/canonical.hpp"
#include "chem/smiles.hpp"
#include "codegen/bytecode_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "data/experiment.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse.hpp"
#include "models/test_cases.hpp"
#include "opt/cse.hpp"
#include "opt/distopt.hpp"
#include "opt/pipeline.hpp"
#include "parallel/schedule.hpp"
#include "solver/adams_gear.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "vm/fuse.hpp"
#include "vm/interpreter.hpp"
#include "vm/regalloc.hpp"

namespace {

using namespace rms;

expr::SumOfProducts random_equation(support::Xoshiro256& rng, int terms,
                                    int species, int rates) {
  expr::SumOfProducts equation;
  for (int i = 0; i < terms; ++i) {
    expr::Product p;
    p.coeff = 1.0 + static_cast<double>(rng.below(3));
    p.factors.push_back(expr::VarId::rate_const(
        static_cast<std::uint32_t>(rng.below(rates))));
    const int nf = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < nf; ++f) {
      p.factors.push_back(expr::VarId::species(
          static_cast<std::uint32_t>(rng.below(species))));
    }
    p.normalize();
    equation.add_combining(std::move(p));
  }
  equation.sort_canonical();
  return equation;
}

void BM_DistOpt(benchmark::State& state) {
  support::Xoshiro256 rng(1);
  expr::SumOfProducts equation =
      random_equation(rng, static_cast<int>(state.range(0)), 40, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::distributive_optimize(equation));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistOpt)->Range(8, 512)->Complexity();

void BM_CseBuild(benchmark::State& state) {
  // m equations of ~n terms: the paper's CSE bookkeeping is O(mn) space and
  // our hash-lookup variant runs in ~O(mn) time.
  support::Xoshiro256 rng(2);
  const int m = static_cast<int>(state.range(0));
  std::vector<expr::FactoredSum> equations;
  for (int e = 0; e < m; ++e) {
    equations.push_back(
        opt::distributive_optimize(random_equation(rng, 12, 40, 10)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::build_optimized_system(equations, 40, 10));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_CseBuild)->Range(16, 1024)->Complexity();

void BM_VmRhsEvaluation(benchmark::State& state) {
  auto built = models::build_test_case(
      models::scaled_config(2, 0.01 * static_cast<double>(state.range(0))));
  if (!built.is_ok()) {
    state.SkipWithError("model build failed");
    return;
  }
  vm::Interpreter interp(built->program_optimized);
  std::vector<double> y(built->equation_count(), 0.01);
  std::vector<double> k = built->rates.values();
  std::vector<double> dydt(y.size());
  for (auto _ : state) {
    interp.run(0.0, y.data(), k.data(), dydt.data());
    benchmark::DoNotOptimize(dydt.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          built->program_optimized.code.size());
}
BENCHMARK(BM_VmRhsEvaluation)->Arg(1)->Arg(4)->Arg(16);

void BM_CanonicalSmiles(benchmark::State& state) {
  auto mol = chem::parse_smiles("C1=CC=C2C(=C1)N=C(S2)SSSSSS[R]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(chem::canonical_smiles(*mol));
  }
}
BENCHMARK(BM_CanonicalSmiles);

void BM_GearIntegrationStep(benchmark::State& state) {
  auto built = models::build_test_case(models::scaled_config(1, 0.02));
  if (!built.is_ok()) {
    state.SkipWithError("model build failed");
    return;
  }
  const std::size_t n = built->equation_count();
  vm::Interpreter interp(built->program_optimized);
  const std::vector<double> rates = built->rates.values();
  solver::OdeSystem system{n, [&](double t, const double* y, double* ydot) {
                             interp.run(t, y, rates.data(), ydot);
                           }};
  for (auto _ : state) {
    solver::AdamsGear solver(system);
    (void)solver.initialize(0.0, built->odes.init_concentrations);
    std::vector<double> y;
    (void)solver.advance_to(0.5, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GearIntegrationStep);

// One record read inside the newest step (advance_to_observed) at BDF
// order 1-5: the per-record cost of the objective, which reads thousands of
// records per file per evaluation.
void BM_ObservedRecord(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  solver::IntegrationOptions options;
  options.max_order = order;
  solver::AdamsGear solver(
      solver::OdeSystem{1, [](double, const double* y, double* ydot) {
                          ydot[0] = -y[0];
                        }},
      options);
  solver::Observable output;
  output.weighted_species = {{0, 1.0}};
  solver.set_output(&output);
  (void)solver.initialize(0.0, {1.0});
  constexpr double kRecord = 3.0;
  double value = 0.0;
  if (!solver.advance_to_observed(kRecord, value).is_ok() ||
      solver.current_order() != order || !(solver.current_time() > kRecord)) {
    state.SkipWithError("solve did not reach the order past the record");
    return;
  }
  for (auto _ : state) {
    (void)solver.advance_to_observed(kRecord, value);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_ObservedRecord)->DenseRange(1, 5);

// Parsing a 3200-record experiment file (the record count of the paper's
// data files and of perfbench fit_arrhenius).
void BM_ParseExperiment(benchmark::State& state) {
  data::ExperimentData data;
  data.name = "formulation-01";
  data.property = "crosslink-concentration";
  constexpr std::size_t kRecords = 3200;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const double t = 0.05 * static_cast<double>(i + 1);
    data.times.push_back(t);
    data.values.push_back(1.0 - std::exp(-0.3 * t));
  }
  const std::string text = data::format_experiment(data);
  for (auto _ : state) {
    auto parsed = data::parse_experiment(text);
    if (!parsed.is_ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize(parsed->times.data());
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseExperiment)->Unit(benchmark::kMicrosecond);

// One Levenberg-Marquardt Jacobian's linear algebra: factor the m x n J,
// form Q^T r, and solve one damped trial on the n x n factor. (19200, 4)
// is fit_arrhenius (6 files x 3200 records, 4 constants), (2400, 6) is
// fit_tc3; each further trial costs only the O(n^3) solve.
void BM_LevMarFactor(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  support::Xoshiro256 rng(42);
  linalg::Matrix jacobian(m, n);
  linalg::Vector r(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) jacobian(i, j) = rng.uniform(-1, 1);
    r[i] = rng.uniform(-1, 1);
  }
  const linalg::Vector damping(n, 1.0);
  linalg::DampedLeastSquares damped;
  linalg::Vector dx;
  for (auto _ : state) {
    damped.factor(jacobian, r);
    if (!damped.solve(1e-3, damping, dx)) {
      state.SkipWithError("damped system rank deficient");
      return;
    }
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LevMarFactor)
    ->Args({19200, 4})
    ->Args({19200, 8})
    ->Args({2400, 6})
    ->Unit(benchmark::kMicrosecond);

/// Newton iteration matrix M = d0*I - J of TC3 at 5% scale (n = 1229) at its
/// initial state, d0 = 100: the system the estimator factors hundreds of
/// times per fit. Empty rows on a failed model build.
const linalg::CsrMatrix& tc3_iteration_matrix() {
  static const linalg::CsrMatrix m = [] {
    linalg::CsrMatrix out;
    auto built = models::build_test_case(models::scaled_config(3, 0.05));
    if (!built.is_ok()) return out;
    const std::size_t n = built->equation_count();
    const std::vector<double> rates = built->rates.values();
    const codegen::CompiledJacobian jac =
        codegen::compile_jacobian(built->odes.table, n, rates.size());
    linalg::CsrMatrix j;
    codegen::SparseJacobianEvaluator(&jac, &rates)(
        0.0, built->odes.init_concentrations.data(), j);
    constexpr double kD0 = 100.0;
    out.rows = out.cols = n;
    out.row_offsets.push_back(0);
    for (std::uint32_t r = 0; r < n; ++r) {
      bool diagonal = false;
      for (std::uint32_t e = j.row_offsets[r]; e < j.row_offsets[r + 1]; ++e) {
        const std::uint32_t c = j.col_indices[e];
        if (!diagonal && c >= r) {
          out.col_indices.push_back(r);
          out.values.push_back(kD0 - (c == r ? j.values[e] : 0.0));
          diagonal = true;
          if (c == r) continue;
        }
        out.col_indices.push_back(c);
        out.values.push_back(-j.values[e]);
      }
      if (!diagonal) {
        out.col_indices.push_back(r);
        out.values.push_back(kD0);
      }
      out.row_offsets.push_back(static_cast<std::uint32_t>(out.values.size()));
    }
    return out;
  }();
  return m;
}

// Analysis + first numeric factor: what a new pattern costs once.
void BM_SparseLuAnalyse(benchmark::State& state) {
  const linalg::CsrMatrix& m = tc3_iteration_matrix();
  for (auto _ : state) {
    linalg::SparseLu lu;
    benchmark::DoNotOptimize(lu.factor(m));
  }
  linalg::SparseLu lu;
  (void)lu.factor(m);
  state.counters["fill_ratio"] = static_cast<double>(lu.factor_nonzeros()) /
                                 static_cast<double>(m.nonzero_count());
}
BENCHMARK(BM_SparseLuAnalyse)->Unit(benchmark::kMicrosecond);

// Numeric refactor on the cached analysis: the per-step cost.
void BM_SparseLuRefactor(benchmark::State& state) {
  const linalg::CsrMatrix& m = tc3_iteration_matrix();
  linalg::SparseLu lu;
  (void)lu.factor(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(m));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseLuRefactor)->Unit(benchmark::kMicrosecond);

// Triangular solve: the per-Newton-iteration cost.
void BM_SparseLuSolve(benchmark::State& state) {
  const linalg::CsrMatrix& m = tc3_iteration_matrix();
  linalg::SparseLu lu;
  (void)lu.factor(m);
  const linalg::Vector b(m.rows, 1.0);
  linalg::Vector x(m.rows);
  for (auto _ : state) {
    lu.solve(b, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseLuSolve)->Unit(benchmark::kMicrosecond);

void BM_LptSchedule(benchmark::State& state) {
  support::Xoshiro256 rng(3);
  std::vector<double> costs(state.range(0));
  for (double& c : costs) c = rng.uniform(0.5, 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::lpt_schedule(costs, 16));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LptSchedule)->Range(16, 4096)->Complexity();

// ---------------------------------------------------------------------------
// vm_dispatch suite: raw vs fused vs batched execution of TC1-TC3 RHS tapes.
// ---------------------------------------------------------------------------

/// Replica of the seed interpreter's per-instruction switch loop (base ops
/// only, registers in a caller-owned vector): the "before" baseline that the
/// threaded/fused/compacted engine is measured against.
void seed_interpreter_run(const vm::Program& program, double t,
                          const double* y, const double* k, double* ydot,
                          std::vector<double>& regs) {
  regs.resize(program.register_count);
  double* r = regs.data();
  for (const vm::Instr& instr : program.code) {
    switch (instr.op) {
      case vm::Op::kLoadY: r[instr.dst] = y[instr.a]; break;
      case vm::Op::kLoadK: r[instr.dst] = k[instr.a]; break;
      case vm::Op::kLoadT: r[instr.dst] = t; break;
      case vm::Op::kLoadConst: r[instr.dst] = program.consts[instr.a]; break;
      case vm::Op::kAdd: r[instr.dst] = r[instr.a] + r[instr.b]; break;
      case vm::Op::kSub: r[instr.dst] = r[instr.a] - r[instr.b]; break;
      case vm::Op::kMul: r[instr.dst] = r[instr.a] * r[instr.b]; break;
      case vm::Op::kNeg: r[instr.dst] = -r[instr.a]; break;
      case vm::Op::kStoreOut:
        ydot[instr.a] = instr.b == vm::kNoReg ? 0.0 : r[instr.b];
        break;
      default: break;  // fused ops never appear in raw emitter output
    }
  }
}

/// One test case's tapes and inputs, built once and shared by the registered
/// benchmarks and the JSON report.
struct VmDispatchCase {
  vm::Program raw;             ///< raw SSA emitter output
  vm::Program fused;           ///< superinstructions, uncompacted registers
  vm::Program fused_compact;   ///< full pipeline: fuse + compact
  std::vector<double> y;
  std::vector<double> k;
};

const VmDispatchCase* vm_dispatch_case(int tc) {
  static std::unique_ptr<VmDispatchCase> cases[4];
  if (tc < 1 || tc > 3) return nullptr;
  if (!cases[tc]) {
    auto built = models::build_test_case(models::scaled_config(tc, 0.02));
    if (!built.is_ok()) return nullptr;
    auto c = std::make_unique<VmDispatchCase>();
    c->raw = codegen::emit_optimized(built->optimized);
    c->fused = vm::fuse_superinstructions(c->raw);
    c->fused_compact = vm::fuse_and_compact(c->raw);
    c->y.assign(built->equation_count(), 0.01);
    c->k = built->rates.values();
    cases[tc] = std::move(c);
  }
  return cases[tc].get();
}

void BM_VmDispatchSeed(benchmark::State& state) {
  const VmDispatchCase* c = vm_dispatch_case(static_cast<int>(state.range(0)));
  if (c == nullptr) { state.SkipWithError("model build failed"); return; }
  std::vector<double> regs;
  std::vector<double> ydot(c->raw.output_count);
  for (auto _ : state) {
    seed_interpreter_run(c->raw, 0.0, c->y.data(), c->k.data(), ydot.data(),
                         regs);
    benchmark::DoNotOptimize(ydot.data());
  }
}
BENCHMARK(BM_VmDispatchSeed)->Arg(1)->Arg(2)->Arg(3);

void BM_VmDispatchRaw(benchmark::State& state) {
  const VmDispatchCase* c = vm_dispatch_case(static_cast<int>(state.range(0)));
  if (c == nullptr) { state.SkipWithError("model build failed"); return; }
  vm::Interpreter interp(c->raw);
  vm::Scratch scratch;
  std::vector<double> ydot(c->raw.output_count);
  for (auto _ : state) {
    interp.run(0.0, c->y.data(), c->k.data(), ydot.data(), scratch);
    benchmark::DoNotOptimize(ydot.data());
  }
}
BENCHMARK(BM_VmDispatchRaw)->Arg(1)->Arg(2)->Arg(3);

void BM_VmDispatchFused(benchmark::State& state) {
  const VmDispatchCase* c = vm_dispatch_case(static_cast<int>(state.range(0)));
  if (c == nullptr) { state.SkipWithError("model build failed"); return; }
  vm::Interpreter interp(c->fused_compact);
  vm::Scratch scratch;
  std::vector<double> ydot(c->fused_compact.output_count);
  for (auto _ : state) {
    interp.run(0.0, c->y.data(), c->k.data(), ydot.data(), scratch);
    benchmark::DoNotOptimize(ydot.data());
  }
}
BENCHMARK(BM_VmDispatchFused)->Arg(1)->Arg(2)->Arg(3);

void BM_VmDispatchBatched(benchmark::State& state) {
  const VmDispatchCase* c = vm_dispatch_case(static_cast<int>(state.range(0)));
  if (c == nullptr) { state.SkipWithError("model build failed"); return; }
  vm::Interpreter interp(c->fused_compact);
  vm::Scratch scratch;
  const std::size_t lanes = vm::Interpreter::kBatchLanes;
  const std::size_t n = c->y.size();
  std::vector<double> ys(lanes * n);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::copy(c->y.begin(), c->y.end(), ys.begin() + l * n);
  }
  std::vector<double> ydots(lanes * c->fused_compact.output_count);
  for (auto _ : state) {
    interp.run_batch_shared_k(0.0, ys.data(), c->k.data(), ydots.data(),
                              lanes, scratch);
    benchmark::DoNotOptimize(ydots.data());
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_VmDispatchBatched)->Arg(1)->Arg(2)->Arg(3);

/// Wall-clock ns per RHS evaluation: repeats `eval` (which performs `evals`
/// evaluations per call) until enough time has accumulated.
template <typename Fn>
double measure_ns_per_eval(Fn&& eval, std::size_t evals_per_call) {
  eval();  // warm-up: touch the tape and scratch once
  std::size_t calls = 0;
  support::WallTimer timer;
  do {
    for (int i = 0; i < 16; ++i) eval();
    calls += 16;
  } while (timer.seconds() < 0.2);
  return timer.seconds() * 1e9 /
         (static_cast<double>(calls) * static_cast<double>(evals_per_call));
}

/// Builds the machine-readable vm_dispatch report and writes it to `path`.
bool write_vm_dispatch_report(const std::string& path) {
  std::vector<std::string> case_objects;
  for (int tc = 1; tc <= 3; ++tc) {
    const VmDispatchCase* c = vm_dispatch_case(tc);
    if (c == nullptr) {
      std::fprintf(stderr, "vm_dispatch: TC%d model build failed\n", tc);
      return false;
    }
    vm::Interpreter raw_interp(c->raw);
    vm::Interpreter fused_interp(c->fused);
    vm::Interpreter fc_interp(c->fused_compact);
    vm::Scratch scratch;
    std::vector<double> regs;
    std::vector<double> ydot(c->raw.output_count);

    const double seed_ns = measure_ns_per_eval(
        [&] {
          seed_interpreter_run(c->raw, 0.0, c->y.data(), c->k.data(),
                               ydot.data(), regs);
        },
        1);
    const double raw_ns = measure_ns_per_eval(
        [&] { raw_interp.run(0.0, c->y.data(), c->k.data(), ydot.data(),
                             scratch); },
        1);
    const double fused_ns = measure_ns_per_eval(
        [&] { fused_interp.run(0.0, c->y.data(), c->k.data(), ydot.data(),
                               scratch); },
        1);
    const double fc_ns = measure_ns_per_eval(
        [&] { fc_interp.run(0.0, c->y.data(), c->k.data(), ydot.data(),
                            scratch); },
        1);

    const std::size_t lanes = vm::Interpreter::kBatchLanes;
    const std::size_t n = c->y.size();
    std::vector<double> ys(lanes * n);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::copy(c->y.begin(), c->y.end(), ys.begin() + l * n);
    }
    std::vector<double> ydots(lanes * c->fused_compact.output_count);
    const double batched_ns = measure_ns_per_eval(
        [&] {
          fc_interp.run_batch_shared_k(0.0, ys.data(), c->k.data(),
                                       ydots.data(), lanes, scratch);
        },
        lanes);

    case_objects.push_back(
        bench::JsonObject()
            .add("test_case", std::string(support::str_format("TC%d", tc)))
            .add("equations", c->y.size())
            .add("instructions_raw", c->raw.code.size())
            .add("instructions_fused", c->fused_compact.code.size())
            .add("registers_raw", c->raw.register_count)
            .add("registers_compacted", c->fused_compact.register_count)
            .add("register_reduction",
                 static_cast<double>(c->raw.register_count) /
                     static_cast<double>(c->fused_compact.register_count))
            .add("ns_per_eval_seed_switch", seed_ns)
            .add("ns_per_eval_threaded_raw", raw_ns)
            .add("ns_per_eval_fused", fused_ns)
            .add("ns_per_eval_fused_compacted", fc_ns)
            .add("ns_per_eval_batched16", batched_ns)
            .add("speedup_fused_compacted_vs_seed", seed_ns / fc_ns)
            .add("speedup_batched_vs_seed", seed_ns / batched_ns)
            .str());
    std::printf(
        "vm_dispatch TC%d: %zu eqs, %zu->%zu instrs, %zu->%zu regs, "
        "seed %.0f ns, fused+compact %.0f ns (%.2fx), batched %.0f ns/eval "
        "(%.2fx)\n",
        tc, c->y.size(), c->raw.code.size(), c->fused_compact.code.size(),
        c->raw.register_count, c->fused_compact.register_count, seed_ns,
        fc_ns, seed_ns / fc_ns, batched_ns, seed_ns / batched_ns);
  }
  const std::string report =
      bench::JsonObject()
          .add("suite", std::string("vm_dispatch"))
          .add("scale", 0.02)
          .add("batch_lanes",
               static_cast<std::size_t>(vm::Interpreter::kBatchLanes))
          .add_raw("cases", bench::json_array(case_objects))
          .str() +
      "\n";
  if (!bench::write_file(path, report)) {
    std::fprintf(stderr, "vm_dispatch: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("vm_dispatch: wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract our own --vm-json flag before google-benchmark sees argv.
  std::string vm_json = "BENCH_vm.json";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--vm-json=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      vm_json = argv[i] + std::strlen(prefix);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  const bool report_ok = write_vm_dispatch_report(vm_json);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report_ok ? 0 : 1;
}
