#include "models/vulcanization.hpp"

#include "support/strings.hpp"
#include "vm/fuse.hpp"

namespace rms::models {

std::string vulcanization_rdl_source(const VulcanizationConfig& config) {
  const int n = config.max_chain_length;
  std::string src = support::str_format(
      "# Benzothiazolesulfenamide-accelerated sulfur vulcanization\n"
      "# (abstracted): Ac caps are amine stubs (N), rubber sites are the\n"
      "# pseudo-element R. Chain-length variant families 1..%d.\n"
      "\n"
      "species AcSAc(n = 1..%d) = \"NS{n}N\";      # accelerator polysulfide\n"
      "species AcSR(n = 1..%d)  = \"NS{n}[RH3]\";  # crosslink precursor\n"
      "species RSR(n = 1..%d)   = \"[RH3]S{n}[RH3]\"; # crosslink\n"
      "species AcH = \"N\";                        # released amine\n"
      "species RH  = \"[RH4]\";                    # rubber site\n"
      "\n"
      "init AcSAc_%d = %.9g;\n"
      "init RH = %.9g;\n",
      n, n, n, n, n, config.accelerator_init, config.rubber_init);

  src += support::str_format(
      "\n"
      "const k_attack   = %.9g;\n"
      "const k_scission = %.9g;\n"
      "const k_abstract = %.9g;\n"
      "const k_combine  = %.9g;\n",
      config.k_attack, config.k_scission, config.k_abstract, config.k_combine);

  src +=
      "\n"
      "# Accelerator chemistry: an amine cap leaves the chain and the freed\n"
      "# sulfur end bonds to a rubber site (works on AcSAc -> AcSR and on\n"
      "# AcSR -> RSR: the pattern is local to the N-S end). The h >= 4\n"
      "# context condition restricts the attack to pristine rubber sites —\n"
      "# already-crosslinked sites (<= 3 hydrogens) are spared, which is\n"
      "# both the dominant chemistry and what keeps the reaction network\n"
      "# finite (no unbounded branching).\n"
      "rule attach_rubber {\n"
      "  site nc: N;\n"
      "  site s: S;\n"
      "  bond nc s 1;\n"
      "  site r: R where h >= 4;\n"
      "  disconnect nc s;\n"
      "  remove_h r;\n"
      "  connect s r;\n"
      "  add_h nc;\n"
      "  rate k_attack;\n"
      "}\n"
      "\n"
      "# Interior S-S homolysis (context-sensitive: one endpoint must sit at\n"
      "# least one sulfur away from the chain end — the paper's chain-depth\n"
      "# condition — so monosulfidic and disulfidic links are spared).\n"
      "rule chain_scission {\n"
      "  site a: S where depth >= 1;\n"
      "  site b: S;\n"
      "  bond a b 1;\n"
      "  disconnect a b;\n"
      "  rate k_scission;\n"
      "}\n"
      "\n"
      "# Thiyl radical abstracts a hydrogen from a pristine rubber site.\n"
      "rule h_abstraction {\n"
      "  site s: S where radical;\n"
      "  site r: R where h >= 4;\n"
      "  remove_h r;\n"
      "  add_h s;\n"
      "  rate k_abstract;\n"
      "}\n"
      "\n"
      "# Sulfur radical + rubber radical recombination (crosslinking step;\n"
      "# sulfur-sulfur recombination is excluded to keep chain lengths\n"
      "# bounded by the declared variants, matching the declared families).\n"
      "rule recombination {\n"
      "  site s: S where radical;\n"
      "  site r: R where radical;\n"
      "  connect s r;\n"
      "  rate k_combine;\n"
      "}\n";
  return src;
}

support::Status finish_pipeline(BuiltModel& built,
                                const PipelineOptions& pipeline) {
  opt::OptimizerOptions optimizer = pipeline.optimizer;
  optimizer.pool = pipeline.pool;
  optimizer.timings = &built.timings;
  built.optimized =
      opt::optimize(built.odes.table, built.odes.table.size(),
                    built.rates.size(), optimizer, &built.report);
  // The unoptimized baseline comes from the raw (uncombined) equations —
  // matching the paper's "without algebraic/CSE optimizations" rows.
  if (pipeline.build_reference_baseline) {
    opt::PhaseTimer timer(&built.timings, "emit_unopt");
    built.program_unoptimized = codegen::emit_unoptimized(
        built.odes_raw.table, built.odes_raw.table.size(), built.rates.size());
    timer.stop();
    built.report.before.multiplies = built.odes_raw.table.multiply_count();
    built.report.before.add_subs = built.odes_raw.table.add_sub_count();
  }
  // The optimized program additionally goes through the VM execution
  // pipeline (fuse superinstructions, compact registers): same arithmetic
  // and outputs, far fewer dispatches and a cache-resident register file.
  // The unoptimized baseline is left in raw SSA form on purpose — it is the
  // input the reference "commercial compiler" backend model consumes.
  opt::PhaseTimer emit_timer(&built.timings, "emit");
  vm::Program raw_program =
      codegen::emit_optimized(built.optimized, pipeline.pool);
  emit_timer.stop();
  opt::PhaseTimer fuse_timer(&built.timings, "fuse");
  built.program_optimized = vm::fuse_and_compact(raw_program);
  fuse_timer.stop();
  return support::Status::ok();
}

support::Expected<BuiltModel> build_vulcanization_model(
    const VulcanizationConfig& config,
    const network::GeneratorOptions& generator_options,
    const PipelineOptions& pipeline) {
  BuiltModel built;
  opt::PhaseTimer parse_timer(&built.timings, "parse");
  auto model = rdl::compile_rdl(vulcanization_rdl_source(config));
  if (!model.is_ok()) return model.status();
  built.model = std::move(model).value();
  parse_timer.stop();

  // The generator honours its own pool field; default it to the pipeline's.
  network::GeneratorOptions gen_options = generator_options;
  if (gen_options.pool == nullptr) gen_options.pool = pipeline.pool;
  opt::PhaseTimer network_timer(&built.timings, "network");
  auto network = network::generate_network(built.model, gen_options);
  if (!network.is_ok()) return network.status();
  built.network = std::move(network).value();
  network_timer.stop();

  opt::PhaseTimer rates_timer(&built.timings, "rates");
  auto rates = rcip::process_rate_constants(built.model, built.network);
  if (!rates.is_ok()) return rates.status();
  built.rates = std::move(rates).value();
  rates_timer.stop();

  opt::PhaseTimer odegen_timer(&built.timings, "odegen");
  auto odes = odegen::generate_odes(built.network, built.rates,
                                    odegen::OdeGenOptions{true});
  if (!odes.is_ok()) return odes.status();
  built.odes = std::move(odes).value();
  odegen_timer.stop();

  if (pipeline.build_reference_baseline) {
    opt::PhaseTimer raw_timer(&built.timings, "odegen_raw");
    auto raw = odegen::generate_odes(built.network, built.rates,
                                     odegen::OdeGenOptions{false});
    if (!raw.is_ok()) return raw.status();
    built.odes_raw = std::move(raw).value();
  }

  RMS_RETURN_IF_ERROR(finish_pipeline(built, pipeline));
  return built;
}

}  // namespace rms::models
