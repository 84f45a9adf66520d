// Tests for the differential oracle, the metamorphic invariants and the
// structure-aware fuzzer — including the mutation check: a deliberately
// mis-fused superinstruction must be detected AND attributed to the fuse
// stage, proving the oracle can localize a real optimizer bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "models/test_cases.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/oracle.hpp"
#include "vm/fuse.hpp"

namespace rms::verify {
namespace {

constexpr const char* kMethanethiol = R"(
species MeSH = "CS";
init MeSH = 1.0;
const k_split = 0.8;
const k_join  = 5 * k_split;
rule split {
  site c: C;
  site s: S;
  bond c s 1;
  disconnect c s;
  rate k_split;
}
rule join {
  site c: C where radical;
  site s: S where radical;
  connect c s;
  rate k_join;
}
)";

// A model whose methyl radical is PRODUCED by two different scission rules:
// its RHS is k_s*[CS] + k_o*[CO] + ..., which emits as mul-then-add and
// therefore fuses into a kMulAdd — the instruction the test fault targets.
// (Methanethiol alone only yields kMulSub forms, which the fault ignores.)
constexpr const char* kTwoSplit = R"(
species MeSH = "CS";
species MeOH = "CO";
init MeSH = 1.0;
init MeOH = 0.8;
const k_s = 0.8;
const k_o = 1.7;
const k_join = 2.0;
rule split_s {
  site c: C;
  site s: S;
  bond c s 1;
  disconnect c s;
  rate k_s;
}
rule split_o {
  site c: C;
  site o: O;
  bond c o 1;
  disconnect c o;
  rate k_o;
}
rule join {
  site c: C where radical;
  site x: * where radical;
  connect c x;
  rate k_join;
}
)";

models::BuiltModel small_synthetic_model() {
  auto built = models::build_test_case({/*chain_lengths=*/3, /*variants=*/5});
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  return std::move(*built);
}

/// Restores the fuse pipeline even when an assertion bails out of the test.
struct FuseFaultGuard {
  explicit FuseFaultGuard(bool enabled) {
    vm::set_fuse_fault_for_testing(enabled);
  }
  ~FuseFaultGuard() { vm::set_fuse_fault_for_testing(false); }
};

// ----------------------------------------------------------------- compare

TEST(UlpDistance, BasicProperties) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0.0);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0.0);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(ulp_distance(1.0, next), 1.0);
  EXPECT_EQ(ulp_distance(next, 1.0), 1.0);
  // Distance is measured through zero, so tiny opposite-sign values are
  // close, not infinitely far.
  EXPECT_LT(ulp_distance(5e-324, -5e-324), 3.0);
  EXPECT_TRUE(std::isinf(
      ulp_distance(1.0, std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(
      std::isinf(ulp_distance(1.0, std::numeric_limits<double>::infinity())));
}

TEST(ValuesMatch, ToleranceClasses) {
  EXPECT_TRUE(values_match(1.0, 1.0, Tolerance::kTight, 1.0));
  EXPECT_TRUE(values_match(1.0, std::nextafter(1.0, 2.0), Tolerance::kTight,
                           1.0));
  EXPECT_FALSE(values_match(1.0, 1.0 + 1e-9, Tolerance::kTight, 1.0));
  EXPECT_TRUE(values_match(1.0, 1.0 + 1e-10, Tolerance::kReassociated, 1.0));
  EXPECT_FALSE(values_match(1.0, 1.0 + 1e-6, Tolerance::kReassociated, 1.0));
  // The vector scale provides the noise floor for cancelled components:
  // |1e-15| vs |-1e-15| is a real disagreement at scale 1e-15 but noise at
  // vector scale 1e3.
  EXPECT_TRUE(
      values_match(1e-15, -1e-15, Tolerance::kReassociated, 1e3));
}

// ------------------------------------------------------------------ oracle

TEST(DifferentialOracle, CleanOnSyntheticModel) {
  const models::BuiltModel built = small_synthetic_model();
  OracleOptions options;
  options.trials = 4;
  const DifferentialOracle oracle(options);
  const OracleReport report = oracle.check_model(built, "tc-small");
  EXPECT_TRUE(report.ok()) << report.to_string();
  // reference/unopt/opt/opt-sym/batch/backend are always available; the C
  // path may be skipped on hosts without a compiler, never silently absent.
  EXPECT_GE(report.paths_checked.size() + report.skipped.size(), 7u);
}

TEST(DifferentialOracle, CleanOnRdlModel) {
  const DifferentialOracle oracle;
  auto report = oracle.check_rdl(kMethanethiol, "methanethiol");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->ok()) << report->to_string();
}

TEST(DifferentialOracle, RejectsBrokenRdlWithStatusNotCrash) {
  const DifferentialOracle oracle;
  auto report = oracle.check_rdl("species X = \"not smiles((\";", "broken");
  EXPECT_FALSE(report.is_ok());
}

TEST(BisectStage, EmptyOnCleanModel) {
  const models::BuiltModel built = small_synthetic_model();
  const std::size_t n = built.odes.table.size();
  std::vector<double> y(n, 0.7);
  std::vector<double> k(built.rates.size(), 1.3);
  EXPECT_EQ(bisect_stage(built, 0.25, y, k, /*batch_lanes=*/4), "");
}

// The mutation check (satellite): inject a known miscompile into the fuse
// pass, rebuild, and require the oracle to (a) notice and (b) blame "fuse".
TEST(DifferentialOracle, MutationCheckCatchesAndBlamesFuseFault) {
  const FuseFaultGuard guard(true);
  auto built = models::build_test_case({3, 5});
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();

  OracleOptions options;
  options.trials = 4;
  options.check_c_backend = false;  // C is emitted pre-fuse; not under test
  const DifferentialOracle oracle(options);
  const OracleReport report = oracle.check_model(*built, "fuse-fault");

  ASSERT_FALSE(report.ok())
      << "injected fuse miscompile was not detected:\n"
      << report.to_string();
  const bool blamed_fuse = std::any_of(
      report.divergences.begin(), report.divergences.end(),
      [](const Divergence& d) { return d.stage == "fuse"; });
  EXPECT_TRUE(blamed_fuse) << "divergence found but not attributed to the "
                              "fuse stage:\n"
                           << report.to_string();
}

TEST(DifferentialOracle, FaultGuardRestoresCleanPipeline) {
  { const FuseFaultGuard guard(true); }
  const models::BuiltModel built = small_synthetic_model();
  const DifferentialOracle oracle;
  EXPECT_TRUE(oracle.check_model(built, "post-fault").ok());
}

// -------------------------------------------------------------- invariants

TEST(Invariants, HoldOnSyntheticModel) {
  const models::BuiltModel built = small_synthetic_model();
  InvariantOptions options;
  // Synthetic test cases have no RDL rules; thread invariance of network
  // generation is exercised by the RDL test below.
  const auto failures = check_invariants(built, "tc-small", options);
  for (const Divergence& d : failures) ADD_FAILURE() << d.to_string();
}

TEST(Invariants, HoldOnRdlModel) {
  auto built = build_model_from_rdl(kMethanethiol);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const auto failures = check_invariants(*built, "methanethiol", {});
  for (const Divergence& d : failures) ADD_FAILURE() << d.to_string();
}

TEST(Invariants, ViolationsAreReportedWithInvariantStage) {
  // Plumbing check: build the model CLEAN, then enable the fuse fault so
  // only the invariant checker's internal recompiles are poisoned. The
  // opt-level comparison (clean optimized program vs freshly recompiled
  // no-optimization program) must then diverge and be reported with the
  // invariant name in the stage field.
  const models::BuiltModel built = small_synthetic_model();
  const FuseFaultGuard guard(true);
  InvariantOptions options;
  options.check_conservation = false;     // runs on the clean program
  options.check_thread_invariance = false;  // both sides equally faulty
  const auto failures = check_invariants(built, "tc-small", options);
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures.front().stage, "invariant:opt-level");
}

// ------------------------------------------------------------------ fuzzer

TEST(Fuzzer, GeneratedModelsAreOftenWellFormed) {
  support::Xoshiro256 rng(7);
  int compiled = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string source = random_rdl_model(rng);
    network::GeneratorOptions caps;
    caps.max_species = 40;
    caps.max_reactions = 400;
    caps.max_rounds = 4;
    caps.max_atoms_per_species = 16;
    if (build_model_from_rdl(source, caps).is_ok()) ++compiled;
  }
  // Structure-aware generation is the point: a meaningful fraction must
  // survive the whole pipeline, not just the parser.
  EXPECT_GE(compiled, 8) << "only " << compiled << "/40 models compiled";
}

TEST(Fuzzer, IterationSeedsAreStableAndDistinct) {
  EXPECT_EQ(fuzz_iteration_seed(1, 0), fuzz_iteration_seed(1, 0));
  EXPECT_NE(fuzz_iteration_seed(1, 0), fuzz_iteration_seed(1, 1));
  EXPECT_NE(fuzz_iteration_seed(1, 0), fuzz_iteration_seed(2, 0));
}

TEST(Fuzzer, UnmixInvertsIterationSeedDerivation) {
  // `rms_verify --seed-raw` relies on this round-trip to replay a single
  // reported finding as iteration 0 of a fresh run.
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFCAFEull}) {
    EXPECT_EQ(unmix_iteration_seed(fuzz_iteration_seed(seed, 0)), seed);
  }
}

TEST(Fuzzer, RunIsDeterministic) {
  FuzzOptions options;
  options.seed = 11;
  options.iterations = 12;
  options.thread_invariance_every = 0;
  const FuzzResult a = run_fuzz(options);
  const FuzzResult b = run_fuzz(options);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.compiled, b.compiled);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_GT(a.compiled, 0);
}

TEST(Fuzzer, CleanCompilerProducesNoFindings) {
  FuzzOptions options;
  options.seed = 3;
  options.iterations = 25;
  const FuzzResult result = run_fuzz(options);
  for (const FuzzCase& finding : result.findings) {
    for (const Divergence& d : finding.divergences) {
      ADD_FAILURE() << "iteration " << finding.iteration << " (seed "
                    << finding.iteration_seed << "): " << d.to_string()
                    << "\n--- source ---\n"
                    << finding.source;
    }
  }
}

TEST(Fuzzer, MutationKeepsInputsTextual) {
  support::Xoshiro256 rng(5);
  const std::string base = kMethanethiol;
  for (int i = 0; i < 20; ++i) {
    const std::string mutated = mutate_rdl(base, rng);
    EXPECT_FALSE(mutated.empty());
    // Mutated sources may or may not compile; they must never crash the
    // pipeline.
    (void)build_model_from_rdl(mutated);
  }
}

// ----------------------------------------------------------------- reducer

TEST(Reducer, ShrinksToPredicateCore) {
  // Predicate: "still contains the split rule". The reducer should strip
  // everything else (comments, init, the join rule) while keeping the file
  // failing, i.e. containing the rule.
  const auto still_fails = [](const std::string& candidate) {
    return candidate.find("rule split") != std::string::npos;
  };
  const std::string reduced = reduce_rdl(kMethanethiol, still_fails);
  EXPECT_NE(reduced.find("rule split"), std::string::npos);
  EXPECT_EQ(reduced.find("rule join"), std::string::npos);
  EXPECT_EQ(reduced.find("init MeSH"), std::string::npos);
  EXPECT_LT(reduced.size(), std::string(kMethanethiol).size() / 2);
}

TEST(Reducer, ReturnsSourceUnchangedWhenNothingFails) {
  const std::string source = kMethanethiol;
  EXPECT_EQ(reduce_divergence(source, {}, {}), source);
}

TEST(Reducer, ShrinksInjectedFuseDivergence) {
  // End-to-end: with the fuse fault on, the full model diverges; the
  // reducer must return a smaller model that STILL diverges.
  const FuseFaultGuard guard(true);
  OracleOptions options;
  options.trials = 2;
  options.check_c_backend = false;
  options.check_jacobian = false;
  options.bisect = false;  // reduction only needs the yes/no signal
  auto built = build_model_from_rdl(kTwoSplit);
  ASSERT_TRUE(built.is_ok());
  const DifferentialOracle oracle(options);
  ASSERT_FALSE(oracle.check_model(*built, "pre").ok())
      << "model produced no kMulAdd; the fault had nothing to corrupt";
  const std::string reduced = reduce_divergence(kTwoSplit, options, {});
  EXPECT_LT(reduced.size(), std::string(kTwoSplit).size());
  auto reduced_built = build_model_from_rdl(reduced);
  ASSERT_TRUE(reduced_built.is_ok());
  EXPECT_FALSE(oracle.check_model(*reduced_built, "post").ok());
}

}  // namespace
}  // namespace rms::verify
