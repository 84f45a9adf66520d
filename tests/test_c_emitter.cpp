// The emitted C text is a compiler output and a cache key: the native
// backend hashes it to name its shared objects. These tests pin the scalar
// RHS, Jacobian and unoptimized text byte for byte (FNV-1a hashes of the
// text, recorded when the emitter was rewritten to stream its output), pin
// the coefficient literals to the printf forms they are specified to
// reproduce, and check that the batched unit is a loop over the scalar
// entry point that the system compiler accepts on its own.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <unistd.h>

#include "codegen/c_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "models/test_cases.hpp"
#include "verify/oracle.hpp"

namespace rms::codegen {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// What the emitter printed through snprintf before it streamed its output.
std::string printf_number(double v) {
  char buffer[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.1f", v);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
  }
  return buffer;
}

TEST(CEmitterText, NumbersMatchPrintfForms) {
  const double cases[] = {0.0,
                          -0.0,
                          2.5,
                          1e15 - 1,
                          -(1e15 - 1),
                          1e15,
                          0.1,
                          1.0 / 3,
                          5e-324,
                          DBL_MAX,
                          -DBL_MAX,
                          1.0,
                          -3.0,
                          0.5,
                          1e-300,
                          123456789.125,
                          std::numeric_limits<double>::infinity()};
  for (double v : cases) {
    std::string out = "x";
    append_c_number(out, v);
    EXPECT_EQ(out, "x" + printf_number(v)) << v;
  }
}

struct EmittedTexts {
  std::string optimized;
  std::string jacobian;
  std::string unoptimized;
};

EmittedTexts emit_all(const models::BuiltModel& built) {
  const SymbolicJacobian jacobian =
      differentiate(built.odes.table, built.equation_count());
  const opt::OptimizedSystem jac_system = opt::optimize(
      jacobian.entries, built.equation_count(), built.rates.size());
  return {emit_c_optimized(built.optimized),
          emit_c_jacobian(jac_system, {"rms_ode_jac"}),
          emit_c_unoptimized(built.odes_raw.table)};
}

void expect_hashes(const EmittedTexts& texts, std::uint64_t optimized,
                   std::uint64_t jacobian, std::uint64_t unoptimized) {
  EXPECT_EQ(fnv1a(texts.optimized), optimized)
      << "optimized RHS text changed (" << texts.optimized.size()
      << " bytes)";
  EXPECT_EQ(fnv1a(texts.jacobian), jacobian)
      << "Jacobian text changed (" << texts.jacobian.size() << " bytes)";
  EXPECT_EQ(fnv1a(texts.unoptimized), unoptimized)
      << "unoptimized RHS text changed (" << texts.unoptimized.size()
      << " bytes)";
}

TEST(CEmitterText, Tc3SmallScaleIsByteIdentical) {
  auto built = models::build_test_case(models::scaled_config(3, 0.004));
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  expect_hashes(emit_all(*built), 0xfc9ec8e1be579c1cull,
                0x01e024ebbc1529fcull, 0x4e54b079076cd561ull);
}

TEST(CEmitterText, MethanethiolIsByteIdentical) {
  std::ifstream in(std::string(RMS_MODELS_DIR) + "/methanethiol.rdl");
  ASSERT_TRUE(in.good());
  std::ostringstream source;
  source << in.rdbuf();
  auto built = verify::build_model_from_rdl(source.str());
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  expect_hashes(emit_all(*built), 0xdeface54654bf409ull,
                0xabddb10bd24ece2full, 0x42d03c7d130204e1ull);
}

TEST(CEmitterText, BatchIsALaneLoopOverTheScalarFunction) {
  auto built = models::build_test_case({3, 5});
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const opt::OptimizedSystem& system = built->optimized;
  const std::string scalar = emit_c_optimized(system, {"f"});
  const std::string batch = emit_c_batch(system, {"f"});
  ASSERT_EQ(batch.compare(0, scalar.size(), scalar), 0)
      << "the batched unit must start with the scalar function";
  const std::string loop = batch.substr(scalar.size());
  EXPECT_NE(loop.find("void f_batch(double t, const double* ys"),
            std::string::npos)
      << loop;
  const std::string call =
      "f(t, ys + lane * " + std::to_string(system.species_count) +
      ", k, ydots + lane * " + std::to_string(system.equations.size()) +
      ");";
  EXPECT_NE(loop.find(call), std::string::npos) << loop;
  EXPECT_EQ(loop.find("temp"), std::string::npos)
      << "the RHS body must be emitted once";

  // The unit stands alone: the system compiler accepts it without warnings.
  if (std::system("cc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no system C compiler";
  }
  char dir_template[] = "/tmp/rms-c-emitter-XXXXXX";
  const char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  const std::string c_path = std::string(dir) + "/batch.c";
  const std::string o_path = std::string(dir) + "/batch.o";
  std::ofstream(c_path) << batch;
  const std::string command = "cc -std=c11 -Wall -Wextra -Werror -c " +
                              c_path + " -o " + o_path;
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::remove(c_path.c_str());
  std::remove(o_path.c_str());
  rmdir(dir);
}

}  // namespace
}  // namespace rms::codegen
