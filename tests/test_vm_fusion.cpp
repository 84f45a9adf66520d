// Tests for the VM execution pipeline: superinstruction fusion, linear-scan
// register compaction, batched evaluation, and interpreter reentrancy.
//
// The core property is differential: a random expression system run through
// the raw tape and through every combination of fuse/compact must agree to
// within 1 ulp (fusion preserves each arithmetic operation's operands;
// only compiler-level FMA contraction of a fused multiply-add may perturb
// the last bit).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "codegen/bytecode_emitter.hpp"
#include "expr/product.hpp"
#include "odegen/equation_table.hpp"
#include "opt/pipeline.hpp"
#include "support/rng.hpp"
#include "vm/fuse.hpp"
#include "vm/interpreter.hpp"
#include "vm/regalloc.hpp"

namespace rms::vm {
namespace {

using expr::Product;
using expr::VarId;

bool within_one_ulp(double a, double b) {
  if (a == b) return true;
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::nextafter(a, b) == b;
}

odegen::EquationTable random_table(std::uint64_t seed, std::size_t n_eq,
                                   std::size_t n_species, std::size_t n_rates) {
  support::Xoshiro256 rng(seed);
  odegen::EquationTable table(n_eq);
  for (std::size_t e = 0; e < n_eq; ++e) {
    const int terms = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < terms; ++i) {
      Product p;
      p.coeff = std::floor(rng.uniform(-3.0, 4.0));
      if (p.coeff == 0.0) p.coeff = 1.0;
      p.factors.push_back(
          VarId::rate_const(static_cast<std::uint32_t>(rng.below(n_rates))));
      const int nf = 1 + static_cast<int>(rng.below(3));
      for (int f = 0; f < nf; ++f) {
        p.factors.push_back(
            VarId::species(static_cast<std::uint32_t>(rng.below(n_species))));
      }
      p.normalize();
      table.equation(e).add_combining(std::move(p));
    }
    table.equation(e).sort_canonical();
  }
  return table;
}

Program make_program(std::vector<Instr> code, std::vector<double> consts,
                     std::size_t regs, std::size_t species, std::size_t rates,
                     std::size_t outputs) {
  Program p;
  p.code = std::move(code);
  p.consts = std::move(consts);
  p.register_count = regs;
  p.species_count = species;
  p.rate_count = rates;
  p.output_count = outputs;
  return p;
}

// ---------------------------------------------------------------- fused ops

TEST(FusedOps, Semantics) {
  // out[0] = y0*k0 + 2;  out[1] = 2 - y0*k0;  out[2] = y1 * (y0*k0);
  // out[3] = k1 * (y0*k0);  out[4] = -(y0*k0).
  Program p = make_program(
      {
          {Op::kLoadY, 0, 0, 0},
          {Op::kLoadK, 1, 0, 0},
          {Op::kMul, 2, 0, 1},
          {Op::kLoadConst, 3, 0, 0},
          {Op::kMulAdd, 4, 0, 1, 3},   // y0*k0 + 2
          {Op::kStoreOut, 0, 0, 4},
          {Op::kMulSub, 5, 0, 1, 3},   // 2 - y0*k0
          {Op::kStoreOut, 0, 1, 5},
          {Op::kLoadYMul, 6, 1, 2},    // y1 * r2
          {Op::kStoreOut, 0, 2, 6},
          {Op::kLoadKMul, 7, 1, 2},    // k1 * r2
          {Op::kStoreOut, 0, 3, 7},
          {Op::kStoreNeg, 0, 4, 2},    // -r2
      },
      {2.0}, 8, 2, 2, 5);
  Interpreter interp(p);
  std::vector<double> y = {3.0, 5.0};
  std::vector<double> k = {7.0, 11.0};
  std::vector<double> out;
  interp.run(0.0, y, k, out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[0], 3.0 * 7.0 + 2.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0 - 3.0 * 7.0);
  EXPECT_DOUBLE_EQ(out[2], 5.0 * (3.0 * 7.0));
  EXPECT_DOUBLE_EQ(out[3], 11.0 * (3.0 * 7.0));
  EXPECT_DOUBLE_EQ(out[4], -(3.0 * 7.0));
}

TEST(FusedOps, CountArithEveryFusedOp) {
  // One of each fused op: 4 multiplies (kMulAdd, kMulSub, kLoadYMul,
  // kLoadKMul), 2 add/subs (from kMulAdd + kMulSub), 0 from kStoreNeg.
  Program p = make_program(
      {
          {Op::kLoadY, 0, 0, 0},
          {Op::kMulAdd, 1, 0, 0, 0},
          {Op::kMulSub, 2, 0, 0, 1},
          {Op::kLoadYMul, 3, 0, 2},
          {Op::kLoadKMul, 4, 0, 3},
          {Op::kStoreNeg, 0, 0, 4},
      },
      {}, 5, 1, 1, 1);
  const ArithCount count = p.count_arith();
  EXPECT_EQ(count.multiplies, 4u);
  EXPECT_EQ(count.add_subs, 2u);
}

TEST(FusedOps, DisassembleEveryFusedOp) {
  Program p = make_program(
      {
          {Op::kMulAdd, 3, 0, 1, 2},
          {Op::kMulSub, 4, 0, 1, 2},
          {Op::kLoadYMul, 5, 7, 1},
          {Op::kLoadKMul, 6, 8, 2},
          {Op::kStoreNeg, 0, 9, 6},
      },
      {}, 7, 1, 9, 10);
  EXPECT_EQ(p.disassemble(),
            "r3 = r0 * r1 + r2\n"
            "r4 = r2 - r0 * r1\n"
            "r5 = y[7] * r1\n"
            "r6 = k[8] * r2\n"
            "ydot[9] = -r6\n");
}

// ------------------------------------------------------------------ fusion

TEST(Fusion, FusesAccumulatorChains) {
  // Mass-action shape: ydot0 = k0*y0*y1 - k1*y2 (typical emitter output).
  odegen::EquationTable table(1);
  table.equation(0).add_combining(
      Product(1.0, {VarId::rate_const(0), VarId::species(0),
                    VarId::species(1)}));
  table.equation(0).add_combining(
      Product(-1.0, {VarId::rate_const(1), VarId::species(2)}));
  Program raw = codegen::emit_unoptimized(table, 3, 2);
  FusionStats stats;
  Program fused = fuse_superinstructions(raw, &stats);
  EXPECT_GT(stats.fused(), 0u);
  EXPECT_LT(fused.code.size(), raw.code.size());
  // Arithmetic counts are invariant under fusion.
  EXPECT_EQ(fused.count_arith().multiplies, raw.count_arith().multiplies);
  EXPECT_EQ(fused.count_arith().add_subs, raw.count_arith().add_subs);
}

TEST(Fusion, NonSsaInputReturnedUnchanged) {
  // r0 defined twice: not SSA, fusion must refuse.
  Program p = make_program(
      {
          {Op::kLoadY, 0, 0, 0},
          {Op::kLoadY, 0, 1, 0},
          {Op::kStoreOut, 0, 0, 0},
      },
      {}, 1, 2, 0, 1);
  EXPECT_FALSE(is_ssa(p));
  FusionStats stats;
  Program out = fuse_superinstructions(p, &stats);
  EXPECT_EQ(stats.fused(), 0u);
  EXPECT_EQ(out.code.size(), p.code.size());
}

TEST(Fusion, EmitterOutputIsSsa) {
  odegen::EquationTable table = random_table(5, 8, 6, 3);
  EXPECT_TRUE(is_ssa(codegen::emit_unoptimized(table, 6, 3)));
  opt::OptimizedSystem system = opt::optimize(table, 6, 3);
  EXPECT_TRUE(is_ssa(codegen::emit_optimized(system)));
}

TEST(Fusion, SharedProductIsNotDuplicated) {
  // The same product feeds two equations: its register has two uses, so it
  // must NOT be folded into either consumer (that would recompute it).
  odegen::EquationTable table = random_table(21, 12, 5, 2);
  opt::OptimizedSystem system = opt::optimize(table, 5, 2);
  Program raw = codegen::emit_optimized(system);
  Program fused = fuse_superinstructions(raw);
  EXPECT_EQ(fused.count_arith().multiplies, raw.count_arith().multiplies);
  EXPECT_EQ(fused.count_arith().add_subs, raw.count_arith().add_subs);
}

// ------------------------------------------------------------- compaction

TEST(RegAlloc, ReducesRegistersAndPreservesOutputsExactly) {
  odegen::EquationTable table = random_table(7, 40, 8, 4);
  Program raw = codegen::emit_unoptimized(table, 8, 4);
  RegAllocStats stats;
  Program compact = compact_registers(raw, &stats);
  EXPECT_EQ(stats.registers_before, raw.register_count);
  EXPECT_EQ(stats.registers_after, compact.register_count);
  // A 40-equation tape has hundreds of one-shot registers; live width is
  // far smaller.
  EXPECT_LT(compact.register_count * 4, raw.register_count);
  // Compaction is a pure renaming: bit-identical outputs.
  support::Xoshiro256 rng(8);
  std::vector<double> y(8);
  for (double& v : y) v = rng.uniform(0.1, 2.0);
  std::vector<double> k = {0.5, 2.0, 1.25, 0.75};
  Interpreter raw_interp(raw);
  Interpreter compact_interp(compact);
  std::vector<double> expected;
  std::vector<double> actual;
  raw_interp.run(0.5, y, k, expected);
  compact_interp.run(0.5, y, k, actual);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << i;
  }
}

TEST(RegAlloc, DeadDefGetsASlotAndIsReleased) {
  // r1 is written but never read; the program must still run and the dead
  // slot must be recycled for r2.
  Program p = make_program(
      {
          {Op::kLoadY, 0, 0, 0},
          {Op::kLoadConst, 1, 0, 0},  // dead
          {Op::kNeg, 2, 0, 0},
          {Op::kStoreOut, 0, 0, 2},
      },
      {4.0}, 3, 1, 0, 1);
  Program c = compact_registers(p);
  EXPECT_LE(c.register_count, 2u);
  Interpreter interp(c);
  double y = 3.0;
  double out = 0.0;
  interp.run(0.0, &y, nullptr, &out);
  EXPECT_DOUBLE_EQ(out, -3.0);
}

// ------------------------------------------------- differential property

class PipelineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineDifferential, AllPipelineStagesAgreeWithin1Ulp) {
  const std::size_t n_species = 7;
  const std::size_t n_rates = 4;
  odegen::EquationTable table =
      random_table(GetParam(), 2 * n_species, n_species, n_rates);
  opt::OptimizedSystem system = opt::optimize(table, n_species, n_rates);

  const Program raw_unopt = codegen::emit_unoptimized(table, n_species, n_rates);
  const Program raw_opt = codegen::emit_optimized(system);
  std::vector<Program> variants;
  variants.push_back(fuse_superinstructions(raw_opt));
  variants.push_back(compact_registers(raw_opt));
  variants.push_back(fuse_and_compact(raw_opt));
  variants.push_back(fuse_and_compact(raw_unopt));

  support::Xoshiro256 rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> y(n_species);
    for (double& v : y) v = rng.uniform(0.05, 3.0);
    std::vector<double> k(n_rates);
    for (double& v : k) v = rng.uniform(0.1, 4.0);
    std::vector<double> reference;
    Interpreter(raw_opt).run(0.25, y, k, reference);

    // The raw optimized and raw unoptimized tapes may differ by general
    // floating-point reassociation (different evaluation strategy), so the
    // unoptimized chain is compared against its own raw tape.
    std::vector<double> unopt_reference;
    Interpreter(raw_unopt).run(0.25, y, k, unopt_reference);

    for (std::size_t v = 0; v < variants.size(); ++v) {
      const std::vector<double>& expected =
          v == 3 ? unopt_reference : reference;
      std::vector<double> actual;
      Interpreter(variants[v]).run(0.25, y, k, actual);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_TRUE(within_one_ulp(actual[i], expected[i]))
            << "variant " << v << " output " << i << ": " << actual[i]
            << " vs " << expected[i];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferential,
                         ::testing::Values(1, 2, 3, 17, 42, 64, 91, 123));

// ------------------------------------------------------------------ batch

TEST(Batch, MatchesScalarRuns) {
  // Square system: output_count == species_count == 6.
  odegen::EquationTable table = random_table(33, 6, 6, 3);
  opt::OptimizedSystem system = opt::optimize(table, 6, 3);
  Program program = fuse_and_compact(codegen::emit_optimized(system));
  Interpreter interp(program);

  // 37 lanes forces a full 16-lane chunk, a second full chunk and a
  // 5-lane remainder.
  const std::size_t n = 37;
  const std::size_t dim = 6;
  support::Xoshiro256 rng(34);
  std::vector<double> ys(n * dim);
  for (double& v : ys) v = rng.uniform(0.05, 2.0);
  std::vector<double> k = {0.5, 2.0, 1.25};

  std::vector<double> batched(n * dim);
  Scratch scratch;
  interp.run_batch_shared_k(0.75, ys.data(), k.data(), batched.data(), n,
                            scratch);

  std::vector<double> ks(n * 3);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < 3; ++j) ks[l * 3 + j] = k[j];
  }
  std::vector<double> batched_per_lane_k(n * dim);
  interp.run_batch(0.75, ys.data(), ks.data(), batched_per_lane_k.data(), n,
                   scratch);

  for (std::size_t l = 0; l < n; ++l) {
    std::vector<double> expected(dim);
    interp.run(0.75, ys.data() + l * dim, k.data(), expected.data());
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_TRUE(within_one_ulp(batched[l * dim + i], expected[i]))
          << "lane " << l << " output " << i;
      EXPECT_EQ(batched[l * dim + i], batched_per_lane_k[l * dim + i]);
    }
  }
}

// ------------------------------------------------------------ reentrancy

TEST(Reentrancy, OneInterpreterSharedAcrossRanks) {
  // The seed interpreter owned a mutable register file, so sharing one
  // instance across ranks (threads) was a data race. run() is now const
  // with per-thread scratch: many ranks hammering one Interpreter must
  // produce exactly the sequential results.
  // Square system: 6 outputs per evaluation.
  odegen::EquationTable table = random_table(55, 6, 6, 3);
  Program program =
      fuse_and_compact(codegen::emit_unoptimized(table, 6, 3));
  Interpreter shared(program);

  const int ranks = 8;
  const int evals_per_rank = 200;
  std::vector<double> k = {0.5, 2.0, 1.25};

  // Per-rank inputs and expected outputs, computed sequentially first.
  std::vector<std::vector<double>> inputs(ranks);
  std::vector<std::vector<double>> expected(ranks);
  for (int r = 0; r < ranks; ++r) {
    support::Xoshiro256 rng(100 + r);
    inputs[r].resize(6);
    for (double& v : inputs[r]) v = rng.uniform(0.1, 2.0);
    expected[r].resize(6);
    shared.run(0.0, inputs[r].data(), k.data(), expected[r].data());
  }

  std::vector<int> mismatches(ranks, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<double> out(6);
      for (int e = 0; e < evals_per_rank; ++e) {
        shared.run(0.0, inputs[r].data(), k.data(), out.data());
        for (std::size_t i = 0; i < 6; ++i) {
          if (out[i] != expected[r][i]) ++mismatches[r];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < ranks; ++r) EXPECT_EQ(mismatches[r], 0) << r;
}

}  // namespace
}  // namespace rms::vm
