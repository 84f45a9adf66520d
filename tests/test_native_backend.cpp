// Tests for the AOT native execution backend: differential agreement with
// the bytecode VM (scalar RHS, batched RHS, analytic Jacobian), the
// content-addressed shared-object cache (hit/miss accounting, corruption
// recovery, temp-file hygiene) and the VM fallback when no compiler exists.
//
// Every test passes an explicit compiler ("cc") and a private mkdtemp cache
// directory: the CI cache-warm job counts invocations of the $RMS_CC
// wrapper across a full ctest rerun, and these intentional cold compiles
// must not show up in that count.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/bytecode_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "codegen/native_backend.hpp"
#include "data/synthetic.hpp"
#include "estimator/objective.hpp"
#include "models/test_cases.hpp"
#include "models/vulcanization.hpp"
#include "rms/execution.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"
#include "vm/interpreter.hpp"

namespace rms::codegen {
namespace {

bool have_cc() {
  static const bool available =
      std::system("cc --version > /dev/null 2>&1") == 0;
  return available;
}

/// Private cache directory per test, removed (with contents) on scope exit.
struct TempCacheDir {
  std::string path;

  TempCacheDir() {
    char name[] = "/tmp/rms-native-test-XXXXXX";
    char* made = mkdtemp(name);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }

  ~TempCacheDir() {
    for (const std::string& f : entries()) std::remove(f.c_str());
    rmdir(path.c_str());
  }

  [[nodiscard]] std::vector<std::string> entries() const {
    std::vector<std::string> out;
    DIR* dir = opendir(path.c_str());
    if (dir == nullptr) return out;
    while (dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") out.push_back(path + "/" + name);
    }
    closedir(dir);
    return out;
  }
};

NativeBackendOptions test_options(const TempCacheDir& cache) {
  NativeBackendOptions options;
  options.compiler = "cc";  // explicit: invisible to the CI $RMS_CC counter
  options.cache_dir = cache.path;
  return options;
}

/// kTight agreement (verify::values_match): <= 64 ULP or 1e-12 * scale.
void expect_tight(const std::vector<double>& a, const std::vector<double>& b,
                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  double scale = 0.0;
  for (double v : a) scale = std::max(scale, std::fabs(v));
  for (double v : b) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(
        verify::values_match(a[i], b[i], verify::Tolerance::kTight, scale))
        << what << " slot " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Cross-checks every native entry point against the VM on random draws.
void check_against_vm(const models::BuiltModel& built,
                      const NativeBackend& native, std::uint64_t seed,
                      int trials) {
  const std::size_t n = built.equation_count();
  const std::size_t rate_count = built.rates.size();
  ASSERT_EQ(native.dimension(), n);

  const vm::Interpreter interpreter(built.program_optimized);
  const CompiledJacobian jac_vm =
      compile_jacobian(built.odes.table, n, rate_count);
  if (native.has_jacobian()) {
    ASSERT_EQ(native.jacobian_row_offsets(), jac_vm.row_offsets);
    ASSERT_EQ(native.jacobian_col_indices(), jac_vm.col_indices);
  }

  support::Xoshiro256 rng(seed);
  constexpr std::size_t kLanes = 5;
  for (int trial = 0; trial < trials; ++trial) {
    const double t = rng.uniform(0.0, 1.0);
    std::vector<double> y(n);
    for (double& v : y) v = rng.uniform(0.0, 2.0);
    std::vector<double> k(rate_count);
    for (double& v : k) v = rng.uniform(0.05, 10.0);

    std::vector<double> vm_out(n);
    interpreter.run(t, y.data(), k.data(), vm_out.data());
    std::vector<double> native_out(n, 0.0);
    native.rhs(t, y.data(), k.data(), native_out.data());
    expect_tight(vm_out, native_out, "rhs");

    if (native.has_batch()) {
      // Distinct state per lane, every lane checked against the scalar
      // entry point — a broken lane stride cannot hide.
      std::vector<double> ys(n * kLanes);
      for (double& v : ys) v = rng.uniform(0.0, 2.0);
      std::vector<double> ydots(n * kLanes, 0.0);
      native.rhs_batch(t, ys.data(), k.data(), ydots.data(), kLanes);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        std::vector<double> lane_ref(n, 0.0);
        native.rhs(t, ys.data() + lane * n, k.data(), lane_ref.data());
        const std::vector<double> lane_out(
            ydots.begin() + lane * n, ydots.begin() + (lane + 1) * n);
        expect_tight(lane_ref, lane_out, "rhs_batch lane");
      }
    }

    if (native.has_jacobian() && !jac_vm.program.code.empty()) {
      vm::Scratch scratch;
      scratch.prepare(jac_vm.program);
      std::vector<double> jac_ref(jac_vm.col_indices.size());
      vm::Interpreter(jac_vm.program)
          .run(t, y.data(), k.data(), jac_ref.data(), scratch);
      std::vector<double> jac_native(jac_vm.col_indices.size(), 0.0);
      native.jacobian_values(t, y.data(), k.data(), jac_native.data());
      expect_tight(jac_ref, jac_native, "jacobian");
    }
  }
}

TEST(NativeBackend, MatchesVmOnSyntheticTestCases) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  const models::SyntheticNetworkConfig kConfigs[] = {{2, 3}, {3, 5}, {4, 7}};
  for (const auto& config : kConfigs) {
    auto built = models::build_test_case(config);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    TempCacheDir cache;
    auto native = NativeBackend::create(built->optimized, &built->odes.table,
                                        built->equation_count(),
                                        built->rates.size(),
                                        test_options(cache));
    ASSERT_TRUE(native.is_ok()) << native.status().to_string();
    EXPECT_TRUE((*native)->has_batch());
    EXPECT_TRUE((*native)->has_jacobian());
    check_against_vm(*built, **native, 17 + config.chain_lengths, 6);
  }
}

TEST(NativeBackend, MatchesVmOnAllRdlModels) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  std::vector<std::string> models;
  DIR* dir = opendir(RMS_MODELS_DIR);
  ASSERT_NE(dir, nullptr);
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".rdl") {
      models.push_back(std::string(RMS_MODELS_DIR) + "/" + name);
    }
  }
  closedir(dir);
  ASSERT_FALSE(models.empty());

  for (const std::string& path : models) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream source;
    source << in.rdbuf();
    auto built = verify::build_model_from_rdl(source.str());
    ASSERT_TRUE(built.is_ok()) << path << ": " << built.status().to_string();
    TempCacheDir cache;
    auto native = NativeBackend::create(built->optimized, &built->odes.table,
                                        built->equation_count(),
                                        built->rates.size(),
                                        test_options(cache));
    ASSERT_TRUE(native.is_ok()) << path << ": " << native.status().to_string();
    check_against_vm(*built, **native, 99, 4);
  }
}

TEST(NativeBackend, SecondConstructionHitsCache) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;

  const std::uint64_t before = NativeBackend::compiler_invocations();
  auto cold = NativeBackend::create(built->optimized, &built->odes.table,
                                    built->equation_count(),
                                    built->rates.size(), test_options(cache));
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  EXPECT_FALSE((*cold)->info().cache_hit);
  EXPECT_EQ(NativeBackend::compiler_invocations(), before + 1);

  auto warm = NativeBackend::create(built->optimized, &built->odes.table,
                                    built->equation_count(),
                                    built->rates.size(), test_options(cache));
  ASSERT_TRUE(warm.is_ok()) << warm.status().to_string();
  EXPECT_TRUE((*warm)->info().cache_hit);
  EXPECT_EQ(NativeBackend::compiler_invocations(), before + 1);
  EXPECT_EQ((*warm)->info().key, (*cold)->info().key);
  EXPECT_EQ((*warm)->info().object_path, (*cold)->info().object_path);
  check_against_vm(*built, **warm, 23, 3);
}

// Threads of one process building the same key at once: each compiles into
// its own temporaries, so every one publishes a loadable object and they
// agree. With temporaries named by the pid alone, most runs fail here.
TEST(NativeBackend, ConcurrentSameKeyBuildsInOneProcessAllSucceed) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;
  NativeBackendOptions options = test_options(cache);
  options.use_cache = false;

  constexpr std::size_t kThreads = 4;
  const std::uint64_t before = NativeBackend::compiler_invocations();
  std::vector<support::Expected<std::unique_ptr<NativeBackend>>> results;
  for (std::size_t i = 0; i < kThreads; ++i) {
    results.emplace_back(support::internal_error("not built"));
  }
  std::vector<std::thread> threads;
  for (auto& result : results) {
    threads.emplace_back([&] {
      result = NativeBackend::create(built->optimized, &built->odes.table,
                                     built->equation_count(),
                                     built->rates.size(), options);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(NativeBackend::compiler_invocations(), before + kThreads);

  const std::size_t n = built->equation_count();
  const std::vector<double> k = built->rates.values();
  const std::vector<double> y(n, 0.75);
  std::vector<std::vector<double>> outputs;
  for (auto& result : results) {
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_FALSE((*result)->info().cache_hit);
    std::vector<double> ydot(n, 0.0);
    (*result)->rhs(0.5, y.data(), k.data(), ydot.data());
    outputs.push_back(std::move(ydot));
    check_against_vm(*built, **result, 41, 2);
  }
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(outputs[i], outputs[0]);
    EXPECT_EQ((*results[i])->info().object_path,
              (*results[0])->info().object_path);
  }
  // Only the published object is left: no thread's temporaries remain.
  EXPECT_EQ(cache.entries().size(), 1u);
}

TEST(NativeBackend, DifferentFlagsMissTheCache) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;

  auto o2 = NativeBackend::create(built->optimized, nullptr,
                                  built->equation_count(),
                                  built->rates.size(), test_options(cache));
  ASSERT_TRUE(o2.is_ok());
  NativeBackendOptions options = test_options(cache);
  options.flags = "-O1 -ffp-contract=off";
  const std::uint64_t before = NativeBackend::compiler_invocations();
  auto o1 = NativeBackend::create(built->optimized, nullptr,
                                  built->equation_count(),
                                  built->rates.size(), options);
  ASSERT_TRUE(o1.is_ok());
  EXPECT_FALSE((*o1)->info().cache_hit);
  EXPECT_EQ(NativeBackend::compiler_invocations(), before + 1);
  EXPECT_NE((*o1)->info().key, (*o2)->info().key);
}

TEST(NativeBackend, CorruptedCacheEntryIsEvictedAndRecompiled) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  auto built = models::build_test_case({3, 5});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;

  auto first = NativeBackend::create(built->optimized, &built->odes.table,
                                     built->equation_count(),
                                     built->rates.size(), test_options(cache));
  ASSERT_TRUE(first.is_ok());
  const std::string object_path = (*first)->info().object_path;
  (*first).reset();  // release the dlopen handle before corrupting the file
  {
    std::ofstream garbage(object_path, std::ios::trunc);
    garbage << "this is not a shared object\n";
  }

  const std::uint64_t before = NativeBackend::compiler_invocations();
  auto second = NativeBackend::create(built->optimized, &built->odes.table,
                                      built->equation_count(),
                                      built->rates.size(),
                                      test_options(cache));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_FALSE((*second)->info().cache_hit);
  EXPECT_EQ(NativeBackend::compiler_invocations(), before + 1);
  check_against_vm(*built, **second, 31, 3);
}

TEST(NativeBackend, MissingCompilerFailsCleanlyWithoutOrphans) {
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;
  NativeBackendOptions options = test_options(cache);
  options.compiler = "/nonexistent/rms-no-such-cc";
  auto native = NativeBackend::create(built->optimized, &built->odes.table,
                                      built->equation_count(),
                                      built->rates.size(), options);
  EXPECT_FALSE(native.is_ok());
  // The failed attempt must not leave temp .c/.so files behind.
  EXPECT_TRUE(cache.entries().empty());
}

TEST(NativeBackend, ExecutionFallsBackToVmWhenCompilerMissing) {
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;
  ExecutionOptions options;
  options.backend = Backend::kNative;
  options.native = test_options(cache);
  options.native.compiler = "/nonexistent/rms-no-such-cc";
  const Execution exec = Execution::create(*built, options);
  EXPECT_EQ(exec.backend(), Backend::kVm);
  EXPECT_FALSE(exec.fallback_reason().empty());
  ASSERT_NE(exec.compiled_jacobian(), nullptr);

  const std::vector<double> rates = built->rates.values();
  solver::OdeSystem system = exec.make_system(&rates);
  ASSERT_TRUE(static_cast<bool>(system.rhs));
  std::vector<double> y(built->equation_count(), 0.5);
  std::vector<double> vm_out(y.size());
  vm::Interpreter(built->program_optimized)
      .run(0.0, y.data(), rates.data(), vm_out.data());
  std::vector<double> exec_out(y.size(), 0.0);
  system.rhs(0.0, y.data(), exec_out.data());
  expect_tight(vm_out, exec_out, "fallback rhs");
}

TEST(NativeBackend, ExecutionSelectsNativeWhenAvailable) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  auto built = models::build_test_case({3, 5});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;
  ExecutionOptions options;
  options.backend = Backend::kNative;
  options.native = test_options(cache);
  const Execution exec = Execution::create(*built, options);
  ASSERT_EQ(exec.backend(), Backend::kNative) << exec.fallback_reason();
  ASSERT_NE(exec.native(), nullptr);

  const std::vector<double> rates = built->rates.values();
  solver::OdeSystem system = exec.make_system(&rates);
  ASSERT_TRUE(static_cast<bool>(system.sparse_jacobian));
  std::vector<double> y(built->equation_count(), 0.7);
  std::vector<double> vm_out(y.size());
  vm::Interpreter(built->program_optimized)
      .run(0.3, y.data(), rates.data(), vm_out.data());
  std::vector<double> exec_out(y.size(), 0.0);
  system.rhs(0.3, y.data(), exec_out.data());
  expect_tight(vm_out, exec_out, "native rhs via Execution");
}

// A - k0 -> B - k1 -> C, observable [C] — the estimator test model, here
// used to prove the batched-residual objective path gives the same answer
// on both backends.
TEST(NativeBackend, EstimatorObjectiveParity) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  using expr::Product;
  using expr::VarId;
  odegen::EquationTable table(3);
  table.equation(0).add_combining(
      Product(-1.0, {VarId::rate_const(0), VarId::species(0)}));
  table.equation(1).add_combining(
      Product(1.0, {VarId::rate_const(0), VarId::species(0)}));
  table.equation(1).add_combining(
      Product(-1.0, {VarId::rate_const(1), VarId::species(1)}));
  table.equation(2).add_combining(
      Product(1.0, {VarId::rate_const(1), VarId::species(1)}));
  const opt::OptimizedSystem system = opt::optimize(table, 3, 2);
  const vm::Program program = emit_optimized(system);
  const std::vector<double> true_rates = {1.2, 0.6};

  TempCacheDir cache;
  auto native = NativeBackend::create(system, &table, 3, 2,
                                      test_options(cache));
  ASSERT_TRUE(native.is_ok()) << native.status().to_string();
  const CompiledJacobian jac_vm = compile_jacobian(table, 3, 2);

  data::Observable observable;
  observable.weighted_species = {{2, 1.0}};
  const vm::Interpreter interp(program);
  solver::OdeSystem truth{3, [&](double t, const double* y, double* ydot) {
                            interp.run(t, y, true_rates.data(), ydot);
                          }};
  data::SyntheticOptions synth;
  synth.t_end = 5.0;
  synth.record_count = 40;
  std::vector<estimator::Experiment> experiments;
  for (double a0 : {1.0, 0.5}) {
    estimator::Experiment e;
    e.initial_state = {a0, 0.0, 0.0};
    auto data = data::synthesize_experiment(truth, e.initial_state,
                                            observable, synth);
    ASSERT_TRUE(data.is_ok());
    e.data = std::move(data).value();
    experiments.push_back(std::move(e));
  }

  estimator::ObjectiveOptions vm_options;
  vm_options.compiled_jacobian = &jac_vm;
  estimator::ObjectiveFunction vm_objective(program, observable, experiments,
                                            {0, 1}, true_rates, vm_options);
  estimator::ObjectiveOptions native_options;
  native_options.native_backend = native->get();
  estimator::ObjectiveFunction native_objective(program, observable,
                                                experiments, {0, 1},
                                                true_rates, native_options);

  const linalg::Vector x = {2.0, 0.3};  // off-truth: nonzero residuals
  linalg::Vector r_vm;
  linalg::Vector r_native;
  ASSERT_TRUE(vm_objective.evaluate(x, r_vm).is_ok());
  ASSERT_TRUE(native_objective.evaluate(x, r_native).is_ok());
  ASSERT_EQ(r_vm.size(), r_native.size());
  double scale = 0.0;
  for (double v : r_vm) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < r_vm.size(); ++i) {
    // Both backends feed the same sparse-Newton integrator with
    // bit-comparable RHS/Jacobian values; trajectories agree far inside
    // the solver tolerance.
    EXPECT_NEAR(r_vm[i], r_native[i], 1e-7 * std::max(1.0, scale)) << i;
  }
}

/// Solves one experiment by hand on `system` with the sparse-LU Adams-Gear,
/// reading the observable at each record through the solver's projected
/// output, and returns its residuals — what the objective must reproduce.
std::vector<double> solve_by_hand(const solver::OdeSystem& system,
                                  const estimator::Experiment& experiment,
                                  const data::Observable& observable) {
  solver::IntegrationOptions integration;
  integration.newton_linear_solver = solver::NewtonLinearSolver::kSparseLu;
  solver::AdamsGear integrator(system, integration);
  integrator.set_output(&observable);
  std::vector<double> residuals;
  EXPECT_TRUE(integrator
                  .initialize(std::min(0.0, experiment.data.times.front()),
                              experiment.initial_state)
                  .is_ok());
  for (std::size_t j = 0; j < experiment.data.record_count(); ++j) {
    double simulated = 0.0;
    EXPECT_TRUE(integrator
                    .advance_to_observed(experiment.data.times[j], simulated)
                    .is_ok());
    residuals.push_back(simulated - experiment.data.values[j]);
  }
  return residuals;
}

/// The one-path contract: an objective built from an Execution's native()
/// and compiled_jacobian() solves every file exactly as exec.make_system
/// plus the sparse-LU Adams-Gear does by hand, bit for bit — for a
/// single-species observable and for one spread over every species.
void expect_objective_matches_execution(const models::BuiltModel& built,
                                        const Execution& exec,
                                        const data::Observable& observable) {
  ASSERT_TRUE(exec.native() != nullptr || exec.compiled_jacobian() != nullptr);
  const std::vector<double> truth = built.rates.values();

  std::vector<estimator::Experiment> experiments;
  for (double loading : {1.0, 0.6}) {
    estimator::Experiment e;
    e.initial_state = built.odes.init_concentrations;
    for (double& c : e.initial_state) c *= loading;
    data::SyntheticOptions synth;
    synth.t_end = 1.0;
    synth.record_count = 30;
    synth.integration.newton_linear_solver =
        solver::NewtonLinearSolver::kSparseLu;
    auto data = data::synthesize_experiment(exec.make_system(&truth),
                                            e.initial_state, observable,
                                            synth);
    ASSERT_TRUE(data.is_ok()) << data.status().to_string();
    e.data = std::move(data).value();
    experiments.push_back(std::move(e));
  }

  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < truth.size(); ++s) slots.push_back(s);
  estimator::ObjectiveOptions options;
  options.native_backend = exec.native();
  options.compiled_jacobian = exec.compiled_jacobian();
  estimator::ObjectiveFunction objective(built.program_optimized, observable,
                                         experiments, slots, truth, options);
  linalg::Vector x(truth.begin(), truth.end());
  for (double& v : x) v *= 1.2;  // off-truth: nonzero residuals
  linalg::Vector residuals;
  ASSERT_TRUE(objective.evaluate(x, residuals).is_ok());

  const std::vector<double> rates(x.begin(), x.end());
  std::size_t offset = 0;
  for (const estimator::Experiment& e : experiments) {
    const std::vector<double> expected =
        solve_by_hand(exec.make_system(&rates), e, observable);
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(residuals[offset + j], expected[j]) << offset + j;
    }
    offset += expected.size();
  }
  EXPECT_EQ(offset, residuals.size());
}

void expect_objective_matches_execution(const models::BuiltModel& built,
                                        const Execution& exec) {
  data::Observable first_species;
  first_species.weighted_species = {{0, 1.0}};
  data::Observable every_species;
  for (std::size_t i = 0; i < built.odes.species_names.size(); ++i) {
    every_species.weighted_species.emplace_back(
        i, 0.5 + static_cast<double>(i % 7) / 7.0);
  }
  for (const data::Observable* observable : {&first_species, &every_species}) {
    SCOPED_TRACE(observable == &first_species ? "first species"
                                              : "every species");
    expect_objective_matches_execution(built, exec, *observable);
  }
}

TEST(NativeBackend, ObjectiveSolvesLikeExecutionOnVm) {
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  ExecutionOptions options;
  options.backend = Backend::kVm;
  const Execution exec = Execution::create(*built, options);
  ASSERT_EQ(exec.backend(), Backend::kVm);
  expect_objective_matches_execution(*built, exec);
}

TEST(NativeBackend, ObjectiveSolvesLikeExecutionOnNative) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  auto built = models::build_test_case({2, 3});
  ASSERT_TRUE(built.is_ok());
  TempCacheDir cache;
  ExecutionOptions options;
  options.backend = Backend::kNative;
  options.native = test_options(cache);
  const Execution exec = Execution::create(*built, options);
  ASSERT_EQ(exec.backend(), Backend::kNative) << exec.fallback_reason();
  expect_objective_matches_execution(*built, exec);
}

}  // namespace
}  // namespace rms::codegen
