// Determinism of the parallel compile pipeline.
//
// The pipeline's contract is that worker count NEVER changes the output:
// network generation, DistOpt, CSE, emission and the Jacobian compile all
// commit results by index, so a serial run and runs with 1, 2 and 8 workers
// must produce bit-identical bytecode. The pools are built with
// cap_to_hardware=false so the schedules really cross threads even on a
// single-core CI machine.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "codegen/jacobian.hpp"
#include "models/test_cases.hpp"
#include "support/thread_pool.hpp"
#include "vm/program.hpp"

namespace rms::models {
namespace {

struct Compiled {
  vm::Program rhs;
  vm::Program jacobian;
};

::testing::AssertionResult same_program(const vm::Program& a,
                                        const vm::Program& b) {
  if (a.code.size() != b.code.size()) {
    return ::testing::AssertionFailure()
           << "code size " << a.code.size() << " vs " << b.code.size();
  }
  for (std::size_t i = 0; i < a.code.size(); ++i) {
    const vm::Instr& x = a.code[i];
    const vm::Instr& y = b.code[i];
    if (x.op != y.op || x.dst != y.dst || x.a != y.a || x.b != y.b ||
        x.c != y.c) {
      return ::testing::AssertionFailure() << "instr " << i << " differs";
    }
  }
  if (a.consts != b.consts) {
    return ::testing::AssertionFailure() << "constant pools differ";
  }
  if (a.register_count != b.register_count ||
      a.output_count != b.output_count) {
    return ::testing::AssertionFailure() << "register/output counts differ";
  }
  return ::testing::AssertionSuccess();
}

Compiled compile(const SyntheticNetworkConfig& config,
                 const PipelineOptions& pipeline) {
  auto built = build_test_case(config, pipeline);
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  Compiled out;
  out.rhs = std::move(built->program_optimized);
  opt::OptimizerOptions jac_options = pipeline.optimizer;
  jac_options.pool = pipeline.pool;
  codegen::CompiledJacobian jacobian =
      codegen::compile_jacobian(built->odes.table, built->network.species.size(),
                                built->rates.size(), jac_options);
  out.jacobian = std::move(jacobian.program);
  return out;
}

TEST(ParallelPipeline, ThreadCountNeverChangesOutput) {
  for (int tc = 1; tc <= 3; ++tc) {
    const SyntheticNetworkConfig config = scaled_config(tc, 0.25);
    PipelineOptions serial;
    serial.build_reference_baseline = false;
    const Compiled reference = compile(config, serial);
    EXPECT_FALSE(reference.rhs.code.empty());
    EXPECT_FALSE(reference.jacobian.code.empty());

    for (std::size_t threads : {1u, 2u, 8u}) {
      support::ThreadPool pool(threads, /*cap_to_hardware=*/false);
      ASSERT_EQ(pool.thread_count(), threads);
      PipelineOptions parallel;
      parallel.pool = &pool;
      parallel.build_reference_baseline = false;
      const Compiled run = compile(config, parallel);
      EXPECT_TRUE(same_program(reference.rhs, run.rhs))
          << "TC" << tc << " rhs, " << threads << " threads";
      EXPECT_TRUE(same_program(reference.jacobian, run.jacobian))
          << "TC" << tc << " jacobian, " << threads << " threads";
    }
  }
}

TEST(ParallelPipeline, PhaseTimingsArePopulated) {
  support::ThreadPool pool(2, /*cap_to_hardware=*/false);
  PipelineOptions pipeline;
  pipeline.pool = &pool;
  auto built = build_test_case(scaled_config(1, 0.25), pipeline);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  for (const char* phase : {"network", "odegen", "distopt", "cse", "emit",
                            "fuse"}) {
    EXPECT_GT(built->timings.seconds(phase), 0.0) << phase;
  }
  EXPECT_GT(built->timings.total_seconds(), 0.0);
}

}  // namespace
}  // namespace rms::models
