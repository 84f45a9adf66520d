// rms_verify — differential verification driver for the compiler/VM stack.
//
// Usage:
//   rms_verify [options] [MODEL.rdl ...]
//
// Modes (pick one; default is one-shot verification):
//   (default)        run the differential oracle + metamorphic invariants on
//                    the built-in synthetic test cases and any MODEL.rdl
//                    arguments
//   --fuzz N         structure-aware fuzz campaign: N random/mutated RDL
//                    models through the full pipeline, each cross-checked;
//                    divergent cases are shrunk to minimal reproducers
//   --reduce FILE    shrink a known-divergent model to a minimal reproducer
//                    (prints the reduced RDL on stdout)
//
// Options:
//   --seed S         RNG seed for states, rate vectors and fuzz inputs
//                    (default 1; every run is reproducible from its seed)
//   --trials N       random (t, y, k) draws per model (default 8)
//   --max-findings N stop a fuzz run after N divergent cases (default 5)
//   --no-jacobian    skip the compiled-Jacobian cross-check
//   --no-c-backend   skip the native paths (AOT backend: cc + dlopen)
//   --native         force the native paths ON in fuzz mode (they default
//                    off there; the backend's .so cache keeps the per-case
//                    compile cost bounded)
//   --no-invariants  skip conservation/thread/opt-level checks
//   --no-bisect      report divergences without stage attribution
//   -v               verbose (per-model path lists, fuzz progress)
//
// Exit status: 0 everything agreed, 1 usage error, 2 divergence found,
//              3 input did not compile.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "models/test_cases.hpp"
#include "support/strings.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace rms;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--fuzz N | --reduce FILE] [--seed S] [--trials N]\n"
               "          [--max-findings N] [--no-jacobian] [--no-c-backend]"
               " [--native]\n"
               "          [--no-invariants] [--no-bisect] [-v]"
               " [MODEL.rdl ...]\n",
               argv0);
  return 1;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

struct Flags {
  std::uint64_t seed = 1;
  int trials = 8;
  int fuzz_iterations = -1;  ///< -1 = not a fuzz run
  int max_findings = 5;
  std::string reduce_path;
  bool jacobian = true;
  bool c_backend = true;
  bool native_lane = false;  ///< force native paths on in fuzz mode
  bool invariants = true;
  bool bisect = true;
  bool verbose = false;
  std::vector<std::string> model_paths;
};

verify::OracleOptions oracle_options(const Flags& flags) {
  verify::OracleOptions options;
  options.seed = flags.seed;
  options.trials = flags.trials;
  options.check_jacobian = flags.jacobian;
  options.check_c_backend = flags.c_backend;
  options.bisect = flags.bisect;
  return options;
}

/// One-shot oracle + invariants over a built model; prints and counts.
int verify_one(const models::BuiltModel& built, const std::string& name,
               const Flags& flags, int& divergences) {
  const verify::DifferentialOracle oracle(oracle_options(flags));
  verify::OracleReport report = oracle.check_model(built, name);
  if (flags.invariants) {
    verify::InvariantOptions invariant_options;
    invariant_options.seed = flags.seed;
    std::vector<verify::Divergence> violations =
        verify::check_invariants(built, name, invariant_options);
    report.divergences.insert(report.divergences.end(), violations.begin(),
                              violations.end());
  }
  divergences += static_cast<int>(report.divergences.size());
  if (flags.verbose || !report.ok()) {
    std::fputs(report.to_string().c_str(), stdout);
  } else {
    std::printf("%-24s ok (%d trials, %zu paths)\n", name.c_str(),
                report.trials, report.paths_checked.size());
  }
  return report.ok() ? 0 : 2;
}

int run_one_shot(const Flags& flags) {
  int divergences = 0;
  // Built-in synthetic test cases: fixed shapes covering the paper's
  // reaction families at three sizes.
  const struct {
    const char* name;
    models::SyntheticNetworkConfig config;
  } kBuiltins[] = {
      {"builtin:tc-n2-v3", {2, 3}},
      {"builtin:tc-n3-v5", {3, 5}},
      {"builtin:tc-n4-v7", {4, 7}},
  };
  if (flags.model_paths.empty()) {
    for (const auto& spec : kBuiltins) {
      auto built = models::build_test_case(spec.config);
      if (!built.is_ok()) {
        std::fprintf(stderr, "rms_verify: %s: %s\n", spec.name,
                     built.status().to_string().c_str());
        return 3;
      }
      verify_one(*built, spec.name, flags, divergences);
    }
  }
  for (const std::string& path : flags.model_paths) {
    std::string source;
    if (!read_file(path, source)) {
      std::fprintf(stderr, "rms_verify: cannot open %s\n", path.c_str());
      return 3;
    }
    auto built = verify::build_model_from_rdl(source);
    if (!built.is_ok()) {
      std::fprintf(stderr, "rms_verify: %s: %s\n", path.c_str(),
                   built.status().to_string().c_str());
      return 3;
    }
    verify_one(*built, path, flags, divergences);
  }
  if (divergences > 0) {
    std::printf("FAIL: %d divergence%s\n", divergences,
                divergences == 1 ? "" : "s");
    return 2;
  }
  std::printf("all paths agree\n");
  return 0;
}

int run_fuzz_mode(const Flags& flags) {
  verify::FuzzOptions options;
  options.seed = flags.seed;
  options.iterations = flags.fuzz_iterations;
  options.max_findings = flags.max_findings;
  options.oracle.seed = flags.seed;
  options.oracle.trials = std::min(flags.trials, 4);
  options.oracle.bisect = flags.bisect;
  options.oracle.check_jacobian = flags.jacobian;
  // Fuzz defaults keep the native paths off (each distinct case costs one
  // compiler run); --native turns them on, --no-c-backend wins.
  if (flags.native_lane && flags.c_backend) {
    options.oracle.check_c_backend = true;
  }
  options.run_invariants = flags.invariants;
  if (flags.verbose) {
    options.on_progress = [](int iteration, int compiled, int divergent) {
      if ((iteration + 1) % 50 == 0) {
        std::printf("  ... %d iterations, %d compiled, %d divergent\n",
                    iteration + 1, compiled, divergent);
      }
    };
  }

  std::printf("fuzzing: %d iterations, seed %llu\n", options.iterations,
              static_cast<unsigned long long>(options.seed));
  const verify::FuzzResult result = verify::run_fuzz(options);
  std::printf("fuzz: %d iterations, %d compiled, %d rejected cleanly, "
              "%zu divergent\n",
              result.iterations, result.compiled, result.rejected,
              result.findings.size());
  if (result.ok()) return 0;

  for (const verify::FuzzCase& finding : result.findings) {
    std::printf(
        "\n== finding: iteration %d (reproduce with --fuzz 1 --seed-raw "
        "%llu) ==\n",
        finding.iteration,
        static_cast<unsigned long long>(finding.iteration_seed));
    for (const verify::Divergence& d : finding.divergences) {
      std::printf("  %s\n", d.to_string().c_str());
    }
    verify::OracleOptions reduce_options = options.oracle;
    const std::string reduced = verify::reduce_divergence(
        finding.source, reduce_options, options.generator);
    std::printf("--- minimal reproducer (%zu -> %zu bytes) ---\n%s",
                finding.source.size(), reduced.size(), reduced.c_str());
  }
  return 2;
}

int run_reduce(const Flags& flags) {
  std::string source;
  if (!read_file(flags.reduce_path, source)) {
    std::fprintf(stderr, "rms_verify: cannot open %s\n",
                 flags.reduce_path.c_str());
    return 3;
  }
  verify::OracleOptions options = oracle_options(flags);
  auto built = verify::build_model_from_rdl(source);
  if (!built.is_ok()) {
    std::fprintf(stderr, "rms_verify: %s: %s\n", flags.reduce_path.c_str(),
                 built.status().to_string().c_str());
    return 3;
  }
  const verify::DifferentialOracle oracle(options);
  if (oracle.check_model(*built, flags.reduce_path).ok()) {
    std::printf("input does not diverge; nothing to reduce\n");
    return 0;
  }
  const std::string reduced = verify::reduce_divergence(source, options, {});
  std::fprintf(stderr, "reduced %zu -> %zu bytes\n", source.size(),
               reduced.size());
  std::fputs(reduced.c_str(), stdout);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      if (arg == prefix && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    unsigned long v = 0;
    if (const char* s = value("--fuzz")) {
      if (!support::parse_uint(s, v)) return usage(argv[0]);
      flags.fuzz_iterations = static_cast<int>(v);
    } else if (const char* s2 = value("--seed")) {
      if (!support::parse_uint(s2, v)) return usage(argv[0]);
      flags.seed = v;
    } else if (const char* s3 = value("--seed-raw")) {
      // Reproduces a single fuzz finding: the printed iteration seed is the
      // derived per-iteration value, so undo the derivation for i = 0.
      if (!support::parse_uint(s3, v)) return usage(argv[0]);
      flags.seed = verify::unmix_iteration_seed(v);
    } else if (const char* s4 = value("--trials")) {
      if (!support::parse_uint(s4, v)) return usage(argv[0]);
      flags.trials = static_cast<int>(v);
    } else if (const char* s5 = value("--max-findings")) {
      if (!support::parse_uint(s5, v)) return usage(argv[0]);
      flags.max_findings = static_cast<int>(v);
    } else if (const char* s6 = value("--reduce")) {
      flags.reduce_path = s6;
    } else if (arg == "--no-jacobian") {
      flags.jacobian = false;
    } else if (arg == "--no-c-backend") {
      flags.c_backend = false;
    } else if (arg == "--native") {
      flags.native_lane = true;
    } else if (arg == "--no-invariants") {
      flags.invariants = false;
    } else if (arg == "--no-bisect") {
      flags.bisect = false;
    } else if (arg == "-v" || arg == "--verbose") {
      flags.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      flags.model_paths.push_back(arg);
    }
  }

  if (!flags.reduce_path.empty()) return run_reduce(flags);
  if (flags.fuzz_iterations >= 0) return run_fuzz_mode(flags);
  return run_one_shot(flags);
}
