// rmsc — the Reaction Modeling Suite compiler driver.
//
// Usage:
//   rmsc MODEL.rdl [options]
//
// Options:
//   --emit=c          write the optimized C function (default)
//   --emit=c-raw      write the unoptimized C function
//   --emit=c-batch    write the optimized C function plus a batched
//                     multi-state function that calls it once per lane
//   --emit=c-jac      write the analytic-Jacobian CSR-fill C function
//   --emit=network    print the reaction network (Fig. 3 form)
//   --emit=odes       print the generated ODEs (Fig. 5 form)
//   --emit=optimized  print the optimized equations + temporaries
//   --emit=asm        print the bytecode disassembly
//   --emit=stats      print pipeline statistics only
//   --run[=T]         integrate to time T (default 10) and print the final
//                     concentrations instead of emitting code
//   --backend=B       execution backend for --run: vm | native | auto
//                     (default auto: $RMS_BACKEND, else native with VM
//                     fallback; see docs/native_backend.md)
//   -o FILE           output file (default: stdout)
//   --no-distopt      disable the distributive optimization
//   --no-cse          disable CSE temporaries
//   --max-species=N   reaction network safety cap (default 20000)
//   --function=NAME   emitted C function name (default rms_ode_rhs)
//   --save-network=F  write the generated reaction network to F (cache)
//   --load-network=F  skip network generation: reuse a cached network
//                     (constants and rules still come from MODEL.rdl)
//
// Exit status: 0 ok, 1 usage error, 2 compilation error, 3 solver error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "codegen/c_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "network/io.hpp"
#include "odegen/equation_table.hpp"
#include "rms/execution.hpp"
#include "rms/suite.hpp"
#include "solver/adams_gear.hpp"
#include "support/strings.hpp"

namespace {

using namespace rms;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s MODEL.rdl [--emit=c|c-raw|c-batch|c-jac|network|"
               "odes|optimized|asm|stats] [-o FILE]\n"
               "          [--run[=T]] [--backend=vm|native|auto]\n"
               "          [--no-distopt] [--no-cse] [--max-species=N] "
               "[--function=NAME]\n",
               argv0);
  return 1;
}

/// --run: integrate the model on the selected backend and print the final
/// state (one "name concentration" line per species).
int run_model(const models::BuiltModel& built, Backend backend,
              double t_end, std::FILE* out) {
  ExecutionOptions exec_options;
  exec_options.backend = backend;
  const Execution exec = Execution::create(built, exec_options);
  std::fprintf(stderr, "rmsc: backend=%s%s%s\n", backend_name(exec.backend()),
               exec.fallback_reason().empty() ? "" : " (fallback: ",
               exec.fallback_reason().empty()
                   ? ""
                   : (exec.fallback_reason() + ")").c_str());

  const std::vector<double> rates = built.rates.values();
  solver::OdeSystem system = exec.make_system(&rates);
  solver::IntegrationOptions integration;
  if (system.sparse_jacobian) {
    integration.newton_linear_solver = solver::NewtonLinearSolver::kSparseLu;
  }
  solver::AdamsGear integrator(system, integration);
  auto status = integrator.initialize(0.0, built.odes.init_concentrations);
  std::vector<double> y;
  if (status.is_ok()) status = integrator.advance_to(t_end, y);
  if (!status.is_ok()) {
    std::fprintf(stderr, "rmsc: solve failed: %s\n",
                 status.to_string().c_str());
    return 3;
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    const std::string& name = i < built.odes.species_names.size()
                                  ? built.odes.species_names[i]
                                  : support::str_format("y[%zu]", i);
    std::fprintf(out, "%-24s %.12g\n", name.c_str(), y[i]);
  }
  const solver::IntegrationStats& stats = integrator.stats();
  std::fprintf(stderr,
               "rmsc: t=%g steps=%zu rhs=%zu jacobians=%zu newton=%zu\n",
               t_end, stats.steps, stats.rhs_evaluations,
               stats.jacobian_evaluations, stats.newton_iterations);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string output_path;
  std::string emit = "c";
  std::string function_name = "rms_ode_rhs";
  std::string save_network_path;
  std::string load_network_path;
  bool distopt = true;
  bool cse = true;
  bool run = false;
  double run_t_end = 10.0;
  Backend backend = Backend::kAuto;
  std::size_t max_species = 20000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (++i >= argc) return usage(argv[0]);
      output_path = argv[i];
    } else if (arg.rfind("--emit=", 0) == 0) {
      emit = arg.substr(7);
    } else if (arg == "--run") {
      run = true;
    } else if (arg.rfind("--run=", 0) == 0) {
      run = true;
      if (!support::parse_double(arg.substr(6), run_t_end)) {
        return usage(argv[0]);
      }
    } else if (arg.rfind("--backend=", 0) == 0) {
      if (!parse_backend(arg.substr(10), backend)) return usage(argv[0]);
    } else if (arg.rfind("--function=", 0) == 0) {
      function_name = arg.substr(11);
    } else if (arg.rfind("--save-network=", 0) == 0) {
      save_network_path = arg.substr(15);
    } else if (arg.rfind("--load-network=", 0) == 0) {
      load_network_path = arg.substr(15);
    } else if (arg == "--no-distopt") {
      distopt = false;
    } else if (arg == "--no-cse") {
      cse = false;
    } else if (arg.rfind("--max-species=", 0) == 0) {
      unsigned long v = 0;
      if (!support::parse_uint(arg.substr(14), v)) return usage(argv[0]);
      max_species = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input_path.empty()) return usage(argv[0]);

  std::ifstream in(input_path);
  if (!in) {
    std::fprintf(stderr, "rmsc: cannot open %s\n", input_path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  network::GeneratorOptions generator_options;
  generator_options.max_species = max_species;
  support::Expected<models::BuiltModel> built = [&]() ->
      support::Expected<models::BuiltModel> {
    if (load_network_path.empty()) {
      return Suite::compile(buffer.str(), generator_options);
    }
    // Cached-network path: the RDL still provides constants (and is
    // validated), but generation is skipped.
    models::BuiltModel out;
    auto model = rdl::compile_rdl(buffer.str());
    if (!model.is_ok()) return model.status();
    out.model = std::move(model).value();
    auto net = network::read_network_file(load_network_path);
    if (!net.is_ok()) return net.status();
    out.network = std::move(net).value();
    auto rates = rcip::process_rate_constants(out.model, out.network);
    if (!rates.is_ok()) return rates.status();
    out.rates = std::move(rates).value();
    auto odes = odegen::generate_odes(out.network, out.rates,
                                      odegen::OdeGenOptions{true});
    if (!odes.is_ok()) return odes.status();
    out.odes = std::move(odes).value();
    auto raw = odegen::generate_odes(out.network, out.rates,
                                     odegen::OdeGenOptions{false});
    if (!raw.is_ok()) return raw.status();
    out.odes_raw = std::move(raw).value();
    auto status = models::finish_pipeline(out);
    if (!status.is_ok()) return status;
    return out;
  }();
  if (!built.is_ok()) {
    std::fprintf(stderr, "rmsc: %s: %s\n", input_path.c_str(),
                 built.status().to_string().c_str());
    return 2;
  }
  if (!save_network_path.empty()) {
    auto status = network::write_network_file(save_network_path,
                                              built->network);
    if (!status.is_ok()) {
      std::fprintf(stderr, "rmsc: %s\n", status.to_string().c_str());
      return 2;
    }
  }

  // Re-run the optimizer when stages are disabled (the facade runs the full
  // pipeline by default).
  if (!distopt || !cse) {
    opt::OptimizerOptions options;
    options.distributive = distopt;
    options.cse.enable_temporaries = cse;
    options.cse.enable_prefix_sharing = cse;
    built->optimized =
        opt::optimize(built->odes.table, built->equation_count(),
                      built->rates.size(), options, &built->report);
    built->report.before.multiplies = built->odes_raw.table.multiply_count();
    built->report.before.add_subs = built->odes_raw.table.add_sub_count();
    built->program_optimized = codegen::emit_optimized(built->optimized);
  }

  if (run) {
    std::FILE* out = stdout;
    if (!output_path.empty()) {
      out = std::fopen(output_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "rmsc: cannot write %s\n", output_path.c_str());
        return 2;
      }
    }
    const int rc = run_model(*built, backend, run_t_end, out);
    if (out != stdout) std::fclose(out);
    return rc;
  }

  std::string output;
  if (emit == "c") {
    output = codegen::emit_c_optimized(built->optimized, {function_name});
  } else if (emit == "c-raw") {
    output = codegen::emit_c_unoptimized(built->odes_raw.table,
                                         {function_name});
  } else if (emit == "c-batch") {
    output = codegen::emit_c_batch(built->optimized, {function_name});
  } else if (emit == "c-jac") {
    codegen::SymbolicJacobian jacobian =
        codegen::differentiate(built->odes.table, built->equation_count());
    const opt::OptimizedSystem jac_system = opt::optimize(
        jacobian.entries, built->equation_count(), built->rates.size());
    output = codegen::emit_c_jacobian(jac_system, {function_name + "_jac"});
  } else if (emit == "network") {
    output = built->network.to_string();
  } else if (emit == "odes") {
    output = built->odes.to_string();
  } else if (emit == "optimized") {
    output = built->optimized.to_string(&built->odes.species_names);
  } else if (emit == "asm") {
    output = built->program_optimized.disassemble();
  } else if (emit == "stats") {
    output = support::str_format(
        "species:            %zu\n"
        "reactions:          %zu\n"
        "rate constants:     %zu (canonical)\n"
        "equations:          %zu\n"
        "ops (unoptimized):  %zu mul, %zu add/sub\n"
        "ops (optimized):    %zu mul (%.2f%%), %zu add/sub (%.1f%%)\n"
        "temporaries:        %zu\n"
        "bytecode:           %zu instructions\n",
        built->network.species.size(), built->network.reactions.size(),
        built->rates.size(), built->equation_count(),
        built->report.before.multiplies, built->report.before.add_subs,
        built->report.after.multiplies, 100.0 * built->report.multiply_fraction(),
        built->report.after.add_subs, 100.0 * built->report.add_sub_fraction(),
        built->optimized.temp_count(), built->program_optimized.code.size());
  } else {
    std::fprintf(stderr, "rmsc: unknown --emit mode '%s'\n", emit.c_str());
    return 1;
  }

  if (output_path.empty()) {
    std::fputs(output.c_str(), stdout);
  } else {
    std::ofstream out(output_path);
    if (!out) {
      std::fprintf(stderr, "rmsc: cannot write %s\n", output_path.c_str());
      return 2;
    }
    out << output;
  }
  return 0;
}
