// Tests for the algebraic optimizer: the §3.2 distributive optimization, the
// §3.3 CSE, and the full pipeline. Property tests check semantic
// preservation (optimized programs compute the same right-hand sides) and
// that optimization never increases operation counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "expr/factored.hpp"
#include "expr/product.hpp"
#include "odegen/equation_table.hpp"
#include "opt/cse.hpp"
#include "opt/distopt.hpp"
#include "opt/pipeline.hpp"
#include "support/rng.hpp"

namespace rms::opt {
namespace {

using expr::EvalEnv;
using expr::FactoredSum;
using expr::Product;
using expr::SumOfProducts;
using expr::VarId;

const VarId A = VarId::species(0);
const VarId B = VarId::species(1);
const VarId C = VarId::species(2);
const VarId D = VarId::species(3);
const VarId E = VarId::species(4);
const VarId F = VarId::species(5);
const VarId G = VarId::species(6);
const VarId K1 = VarId::rate_const(0);
const VarId K2 = VarId::rate_const(1);
const VarId K3 = VarId::rate_const(2);

// Paper §3.2: k1*B*C + k1*B*D + k1*E*F -> k1*(B*(C+D) + E*F).
// Before: 6 multiplies, 2 adds. After: 3 multiplies, 2 adds.
TEST(DistOpt, PaperExampleEquation1To3) {
  SumOfProducts equation;
  equation.add_combining(Product(1.0, {K1, B, C}));
  equation.add_combining(Product(1.0, {K1, B, D}));
  equation.add_combining(Product(1.0, {K1, E, F}));
  EXPECT_EQ(equation.multiply_count(), 6u);
  EXPECT_EQ(equation.add_sub_count(), 2u);

  FactoredSum factored = distributive_optimize(equation);
  EXPECT_EQ(factored.multiply_count(), 3u);
  EXPECT_EQ(factored.add_sub_count(), 2u);
  EXPECT_EQ(factored.to_string(), "k0*(y1*(y2 + y3) + y4*y5)");

  // Value is preserved.
  std::vector<double> species = {0.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> ks = {0.5};
  EvalEnv env{&species, &ks, nullptr, 0.0};
  EXPECT_DOUBLE_EQ(factored.evaluate(env),
                   equation.evaluate(species, ks, 0.0));
}

TEST(DistOpt, NoSharingLeavesFlat) {
  SumOfProducts equation;
  equation.add_combining(Product(1.0, {K1, A}));
  equation.add_combining(Product(1.0, {K2, B}));
  FactoredSum factored = distributive_optimize(equation);
  EXPECT_EQ(factored.size(), 2u);
  EXPECT_EQ(factored.multiply_count(), 2u);
}

TEST(DistOpt, EmptyEquation) {
  SumOfProducts empty;
  FactoredSum factored = distributive_optimize(empty);
  EXPECT_TRUE(factored.empty());
}

TEST(DistOpt, SingleTerm) {
  SumOfProducts equation;
  equation.add_combining(Product(-2.0, {K1, A, B}));
  FactoredSum factored = distributive_optimize(equation);
  ASSERT_EQ(factored.size(), 1u);
  EXPECT_DOUBLE_EQ(factored.terms()[0].coeff, -2.0);
}

TEST(DistOpt, RepeatedFactorHandled) {
  // k*A*A + k*A*B -> k*A*(A+B): the squared variable counts once per
  // product for frequency, and dividing removes one occurrence.
  SumOfProducts equation;
  equation.add_combining(Product(1.0, {K1, A, A}));
  equation.add_combining(Product(1.0, {K1, A, B}));
  FactoredSum factored = distributive_optimize(equation);
  std::vector<double> species = {3.0, 5.0};
  std::vector<double> ks = {2.0};
  EvalEnv env{&species, &ks, nullptr, 0.0};
  // 2*(9) + 2*(15) = 48
  EXPECT_DOUBLE_EQ(factored.evaluate(env), 48.0);
  EXPECT_LE(factored.multiply_count(), equation.multiply_count());
}

TEST(DistOpt, ConstantCoefficientsSurvive) {
  SumOfProducts equation;
  equation.add_combining(Product(2.0, {K1, A}));
  equation.add_combining(Product(-3.0, {K1, B}));
  FactoredSum factored = distributive_optimize(equation);
  std::vector<double> species = {1.0, 1.0};
  std::vector<double> ks = {1.0};
  EvalEnv env{&species, &ks, nullptr, 0.0};
  EXPECT_DOUBLE_EQ(factored.evaluate(env), -1.0);
}

TEST(DistOpt, DeterministicOutput) {
  SumOfProducts equation;
  equation.add_combining(Product(1.0, {K1, B, C}));
  equation.add_combining(Product(1.0, {K1, B, D}));
  equation.add_combining(Product(1.0, {K2, B, C}));
  const std::string first = distributive_optimize(equation).to_string();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(distributive_optimize(equation).to_string(), first);
  }
}

// Property: DistOpt preserves values and never increases op counts.
class DistOptProperty : public ::testing::TestWithParam<std::uint64_t> {};

SumOfProducts random_equation(support::Xoshiro256& rng, int max_terms = 30) {
  SumOfProducts equation;
  const int terms = 1 + static_cast<int>(rng.below(max_terms));
  for (int i = 0; i < terms; ++i) {
    Product p;
    p.coeff = std::floor(rng.uniform(-3.0, 4.0));
    if (p.coeff == 0.0) p.coeff = 1.0;
    p.factors.push_back(VarId::rate_const(static_cast<std::uint32_t>(rng.below(3))));
    const int nf = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < nf; ++f) {
      p.factors.push_back(VarId::species(static_cast<std::uint32_t>(rng.below(7))));
    }
    p.normalize();
    equation.add_combining(std::move(p));
  }
  equation.sort_canonical();
  return equation;
}

TEST_P(DistOptProperty, PreservesValueAndReducesOps) {
  support::Xoshiro256 rng(GetParam());
  std::vector<double> species = {1.1, 0.3, 2.7, 0.9, 1.7, 0.2, 3.1};
  std::vector<double> ks = {0.5, 2.0, 1.25};
  for (int trial = 0; trial < 20; ++trial) {
    SumOfProducts equation = random_equation(rng);
    FactoredSum factored = distributive_optimize(equation);
    EvalEnv env{&species, &ks, nullptr, 0.0};
    const double expected = equation.evaluate(species, ks, 0.0);
    EXPECT_NEAR(factored.evaluate(env), expected,
                1e-10 * std::max(1.0, std::fabs(expected)));
    EXPECT_LE(factored.multiply_count(), equation.multiply_count());
    EXPECT_LE(factored.add_sub_count(), equation.add_sub_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistOptProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---- CSE --------------------------------------------------------------------

odegen::EquationTable table_from(std::vector<SumOfProducts> eqs) {
  odegen::EquationTable table(eqs.size());
  for (std::size_t i = 0; i < eqs.size(); ++i) table.equation(i) = eqs[i];
  return table;
}

// Paper §3.3 example: sums (A+B+C+D) shared across equations, with (A+B+C)
// as a shared prefix. The optimizer must produce two temporaries, the
// shorter assigned first and reused inside the longer.
TEST(Cse, PaperExamplePrefixSharing) {
  SumOfProducts eq_a;
  eq_a.add_combining(Product(1.0, {A, K1, E}));  // placeholder head term
  SumOfProducts eq1;  // uses (A+B+C+D)*k1*E
  SumOfProducts eq2;  // uses (A+B+C+D)*k2*F
  SumOfProducts eq3;  // uses (A+B+C)*k3*G
  // Build directly in factored form to isolate the CSE behaviour.
  FactoredSum sum_abcd;
  for (VarId v : {A, B, C, D}) {
    expr::FactoredTerm t;
    t.factors.push_back(v);
    sum_abcd.terms().push_back(std::move(t));
  }
  FactoredSum sum_abc;
  for (VarId v : {A, B, C}) {
    expr::FactoredTerm t;
    t.factors.push_back(v);
    sum_abc.terms().push_back(std::move(t));
  }
  auto wrap = [](const FactoredSum& sum, VarId k, VarId x) {
    FactoredSum out;
    expr::FactoredTerm t;
    t.factors.push_back(k);
    t.factors.push_back(x);
    t.sub = std::make_unique<FactoredSum>(sum);
    out.terms().push_back(std::move(t));
    return out;
  };
  std::vector<FactoredSum> equations;
  equations.push_back(wrap(sum_abcd, K1, E));
  equations.push_back(wrap(sum_abcd, K2, F));
  equations.push_back(wrap(sum_abc, K3, G));

  OptimizedSystem system =
      build_optimized_system(equations, /*species=*/7, /*rates=*/3);

  // (A+B+C) gets a temp (prefix donor), (A+B+C+D) gets a temp (used twice),
  // and the longer is defined via the shorter.
  ASSERT_GE(system.temp_count(), 2u);
  const std::string text = system.to_string();
  EXPECT_NE(text.find("temp0 = y0 + y1 + y2;"), std::string::npos) << text;
  EXPECT_NE(text.find("temp1 = temp0 + y3;"), std::string::npos) << text;

  // Semantics preserved.
  std::vector<double> species = {1, 2, 3, 4, 5, 6, 7};
  std::vector<double> ks = {0.5, 2.0, 3.0};
  std::vector<double> dydt;
  system.evaluate(species, ks, 0.0, dydt);
  EXPECT_DOUBLE_EQ(dydt[0], 0.5 * 5 * 10);  // k1*E*(A+B+C+D)
  EXPECT_DOUBLE_EQ(dydt[1], 2.0 * 6 * 10);
  EXPECT_DOUBLE_EQ(dydt[2], 3.0 * 7 * 6);   // k3*G*(A+B+C)
}

TEST(Cse, IdenticalEquationsShareOneSum) {
  // dC/dt = dD/dt = -k*C*D (paper Fig. 5): one shared RHS temp.
  SumOfProducts eq;
  eq.add_combining(Product(-1.0, {K1, C, D}));
  odegen::EquationTable table = table_from({eq, eq});
  OptimizationReport report;
  OptimizedSystem system = optimize(table, 7, 3, OptimizerOptions::full(),
                                    &report);
  EXPECT_EQ(system.equations[0], system.equations[1]);
  // The shared product k*C*D is computed once.
  EXPECT_LE(report.after.multiplies, 2u);
  std::vector<double> species = {0, 0, 2.0, 3.0, 0, 0, 0};
  std::vector<double> ks = {0.5, 0, 0};
  std::vector<double> dydt;
  system.evaluate(species, ks, 0.0, dydt);
  EXPECT_DOUBLE_EQ(dydt[0], -3.0);
  EXPECT_DOUBLE_EQ(dydt[1], -3.0);
}

TEST(Cse, SharedRateProductAcrossEquations) {
  // Reaction r = k*A*B feeding three equations: the product is hash-consed
  // and computed once (Fig. 7 equal-length match at the product level).
  SumOfProducts eq1;
  eq1.add_combining(Product(-1.0, {K1, A, B}));
  SumOfProducts eq2;
  eq2.add_combining(Product(-1.0, {K1, A, B}));
  SumOfProducts eq3;
  eq3.add_combining(Product(2.0, {K1, A, B}));
  odegen::EquationTable table = table_from({eq1, eq2, eq3});
  OptimizationReport report;
  OptimizedSystem system =
      optimize(table, 7, 3, OptimizerOptions::full(), &report);
  // Unoptimized: 3 eqs x 2 muls + coeff mul = 7. Optimized: k*A*B once (2
  // muls) + 2*temp (1 mul) = 3.
  EXPECT_EQ(report.before.multiplies, 7u);
  EXPECT_EQ(report.after.multiplies, 3u);
  std::vector<double> species = {2.0, 3.0, 0, 0, 0, 0, 0};
  std::vector<double> ks = {0.5, 0, 0};
  std::vector<double> dydt;
  system.evaluate(species, ks, 0.0, dydt);
  EXPECT_DOUBLE_EQ(dydt[0], -3.0);
  EXPECT_DOUBLE_EQ(dydt[2], 6.0);
}

TEST(Cse, TempsDisabledRecomputesEverything) {
  SumOfProducts eq;
  eq.add_combining(Product(-1.0, {K1, A, B}));
  odegen::EquationTable table = table_from({eq, eq, eq});
  OptimizerOptions no_cse;
  no_cse.distributive = true;
  no_cse.cse.enable_temporaries = false;
  no_cse.cse.enable_prefix_sharing = false;
  OptimizationReport report;
  OptimizedSystem system = optimize(table, 7, 3, no_cse, &report);
  EXPECT_EQ(system.temp_count(), 0u);
  EXPECT_EQ(report.after.multiplies, report.before.multiplies);
  std::vector<double> species = {2.0, 3.0, 0, 0, 0, 0, 0};
  std::vector<double> ks = {0.5, 0, 0};
  std::vector<double> dydt;
  system.evaluate(species, ks, 0.0, dydt);
  EXPECT_DOUBLE_EQ(dydt[0], -3.0);
}

TEST(Cse, ZeroEquationsHandled) {
  odegen::EquationTable table(3);  // all RHS identically zero
  OptimizedSystem system = optimize(table, 3, 0);
  EXPECT_EQ(system.equations[0], kNoExpr);
  std::vector<double> dydt;
  system.evaluate({1, 2, 3}, {}, 0.0, dydt);
  EXPECT_DOUBLE_EQ(dydt[0], 0.0);
  EXPECT_DOUBLE_EQ(dydt[2], 0.0);
}

TEST(Cse, DefBeforeUseInTempOrder) {
  // Build a system with nested shared sums and verify every temp's
  // dependencies appear earlier in temp_order.
  support::Xoshiro256 rng(7);
  std::vector<SumOfProducts> eqs;
  for (int i = 0; i < 20; ++i) eqs.push_back(random_equation(rng, 20));
  std::vector<FactoredSum> factored;
  for (const auto& eq : eqs) factored.push_back(distributive_optimize(eq));
  OptimizedSystem system = build_optimized_system(factored, 7, 3);

  std::vector<int> product_pos(system.products.size(), -1);
  std::vector<int> sum_pos(system.sums.size(), -1);
  for (std::size_t i = 0; i < system.temp_order.size(); ++i) {
    const TempDef& def = system.temp_order[i];
    if (def.kind == TempDef::Kind::kProduct) {
      product_pos[def.entry] = static_cast<int>(i);
    } else {
      sum_pos[def.entry] = static_cast<int>(i);
    }
  }
  for (std::size_t i = 0; i < system.temp_order.size(); ++i) {
    const TempDef& def = system.temp_order[i];
    if (def.kind == TempDef::Kind::kProduct) {
      const ProductEntry& p = system.products[def.entry];
      if (p.prefix_len > 0) {
        EXPECT_LT(product_pos[p.prefix_product], static_cast<int>(i));
      }
      for (std::size_t a = p.prefix_len; a < p.atoms.size(); ++a) {
        if (p.atoms[a].kind == ProductAtom::Kind::kSum) {
          const SumEntry& s = system.sums[p.atoms[a].sum];
          if (s.temp_index >= 0) {
            EXPECT_LT(sum_pos[p.atoms[a].sum], static_cast<int>(i));
          }
        }
      }
    } else {
      const SumEntry& s = system.sums[def.entry];
      if (s.prefix_len > 0) {
        EXPECT_LT(sum_pos[s.prefix_sum], static_cast<int>(i));
      }
      for (std::size_t o = s.prefix_len; o < s.operands.size(); ++o) {
        const ProductEntry& p = system.products[s.operands[o].product];
        if (p.temp_index >= 0) {
          EXPECT_LT(product_pos[s.operands[o].product], static_cast<int>(i));
        }
      }
    }
  }
}

// Property: the full pipeline preserves semantics on random systems and
// never increases total op count.
class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, SemanticPreservationAndReduction) {
  support::Xoshiro256 rng(GetParam());
  std::vector<SumOfProducts> eqs;
  const int n = 7;
  for (int i = 0; i < n; ++i) eqs.push_back(random_equation(rng, 25));
  odegen::EquationTable table = table_from(eqs);

  for (const OptimizerOptions& options :
       {OptimizerOptions::full(), OptimizerOptions::none(), [] {
          OptimizerOptions o;
          o.distributive = false;  // CSE only
          return o;
        }()}) {
    OptimizationReport report;
    OptimizedSystem system = optimize(table, n, 3, options, &report);
    std::vector<double> species(n);
    for (double& v : species) v = rng.uniform(0.1, 2.0);
    std::vector<double> ks = {0.5, 2.0, 1.25};
    std::vector<double> dydt;
    system.evaluate(species, ks, 0.0, dydt);
    for (int i = 0; i < n; ++i) {
      const double expected = table.equation(i).evaluate(species, ks, 0.0);
      EXPECT_NEAR(dydt[i], expected, 1e-9 * std::max(1.0, std::fabs(expected)))
          << "equation " << i;
    }
    EXPECT_LE(report.after.total(), report.before.total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

TEST(Pipeline, ReportFractions) {
  SumOfProducts eq1;
  eq1.add_combining(Product(-1.0, {K1, A, B}));
  SumOfProducts eq2;
  eq2.add_combining(Product(1.0, {K1, A, B}));
  odegen::EquationTable table = table_from({eq1, eq2});
  OptimizationReport report;
  optimize(table, 7, 3, OptimizerOptions::full(), &report);
  EXPECT_GT(report.before.multiplies, 0u);
  EXPECT_LE(report.multiply_fraction(), 1.0);
  EXPECT_LE(report.total_fraction(), 1.0);
}

TEST(Pipeline, MemoizedMatchesPerEquationOptimization) {
  // optimize() runs DistOpt once per group of structurally identical
  // equations and hands the grouping to CSE. Optimizing every equation on
  // its own and letting CSE hash-dedup them must emit the same program. The
  // table repeats each distinct equation three times in shuffled order; one
  // of them is empty, so its duplicates copy an empty representative.
  support::Xoshiro256 rng(2024);
  std::vector<SumOfProducts> distinct;
  for (int i = 0; i < 6; ++i) distinct.push_back(random_equation(rng, 12));
  distinct.emplace_back();
  const std::size_t m = distinct.size();  // 7, prime: each round permutes
  std::vector<SumOfProducts> eqs;
  for (std::size_t round = 1; round <= 3; ++round) {
    for (std::size_t i = 0; i < m; ++i) {
      eqs.push_back(distinct[(i * round + round) % m]);
    }
  }
  const std::size_t n = eqs.size();
  odegen::EquationTable table = table_from(eqs);

  OptimizationReport report;
  const OptimizedSystem memoized =
      optimize(table, n, 3, OptimizerOptions::full(), &report);
  EXPECT_EQ(report.distinct_equations, m);
  EXPECT_LT(report.distinct_equations, n);

  std::vector<FactoredSum> factored;
  for (const SumOfProducts& eq : eqs) {
    factored.push_back(distributive_optimize(eq));
  }
  const OptimizedSystem reference = build_optimized_system(factored, n, 3);

  EXPECT_EQ(memoized.to_string(), reference.to_string());
  EXPECT_EQ(memoized.equations, reference.equations);
  EXPECT_EQ(memoized.temp_count(), reference.temp_count());
  EXPECT_EQ(std::count(memoized.equations.begin(), memoized.equations.end(),
                       kNoExpr),
            3);
}

}  // namespace
}  // namespace rms::opt
