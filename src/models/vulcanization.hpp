// The vulcanization kinetic model (graph-chemistry path).
//
// An abstracted benzothiazolesulfenamide-accelerated sulfur vulcanization
// scheme, expressed in RDL and run through the full chemical compiler:
// accelerator polysulfides Ac-S_n-Ac attack rubber sites to form crosslink
// precursors Ac-S_n-R, which crosslink to R-S_n-R; polysulfide chains
// undergo radical scission (context-restricted to interior S-S bonds), and
// sulfur/rubber radicals abstract hydrogens and recombine. The accelerator
// residue is abstracted to an amine cap (N) and the rubber backbone site to
// the pseudo-element R, keeping molecules small while preserving the
// variant-family structure the paper's compiler exploits.
//
// build_vulcanization_model() runs the whole pipeline (RDL -> network ->
// RCIP -> ODEs -> optimizer -> bytecode) and returns every intermediate.
#pragma once

#include <string>

#include "codegen/bytecode_emitter.hpp"
#include "network/generator.hpp"
#include "odegen/equation_table.hpp"
#include "opt/pipeline.hpp"
#include "rcip/rate_table.hpp"
#include "rdl/sema.hpp"
#include "support/status.hpp"
#include "vm/program.hpp"

namespace rms::models {

struct VulcanizationConfig {
  /// Maximum polysulfide chain length (the variant range of every family).
  int max_chain_length = 4;
  /// Initial concentrations.
  double accelerator_init = 0.05;
  double sulfur_init = 0.3;
  double rubber_init = 1.0;
  /// Base kinetic constants (scaled presets for a realistic cure curve).
  double k_attack = 2.0;     ///< accelerator attacks a rubber site
  double k_scission = 0.5;   ///< interior S-S homolysis
  double k_abstract = 4.0;   ///< thiyl radical abstracts rubber H
  double k_combine = 8.0;    ///< S radical + R radical recombination
};

/// Emits the RDL source for the configuration.
std::string vulcanization_rdl_source(const VulcanizationConfig& config);

/// Cross-cutting pipeline configuration: one worker pool threaded through
/// every parallel stage (network generation, DistOpt, emission) and the
/// optimizer's own knobs. Defaults reproduce the serial full pipeline.
struct PipelineOptions {
  /// Worker pool; null runs every stage serially. Results are identical
  /// either way — parallel stages commit in deterministic order.
  const support::ThreadPool* pool = nullptr;
  /// Optimizer configuration. Its `pool` and `timings` fields are
  /// overwritten from this struct / the BuiltModel being filled.
  opt::OptimizerOptions optimizer = opt::OptimizerOptions::full();
  /// Also build the Table 1 reference artifacts: the raw (uncombined)
  /// equation table, the unoptimized bytecode program, and the "before"
  /// operation counts. Executing a model needs none of them, so callers
  /// that only want the optimized program (rmsc --run, the estimator,
  /// perfbench) can skip roughly a third of the compile by turning this
  /// off. BuiltModel::odes_raw and program_unoptimized are left empty, and
  /// report.before holds the simplified-table counts instead of the
  /// raw-table ones.
  bool build_reference_baseline = true;
};

/// Everything the pipeline produces for one model.
struct BuiltModel {
  rdl::CompiledModel model;
  network::ReactionNetwork network;
  rcip::RateTable rates;
  odegen::GeneratedOdes odes;            ///< with §3.1 simplification
  odegen::GeneratedOdes odes_raw;        ///< without (baseline)
  opt::OptimizedSystem optimized;
  opt::OptimizationReport report;
  opt::PhaseTimings timings;             ///< wall time per compile phase
  vm::Program program_unoptimized;
  vm::Program program_optimized;

  [[nodiscard]] std::size_t equation_count() const { return odes.table.size(); }
};

/// Runs RDL -> network -> RCIP -> equations -> optimizer -> bytecode.
support::Expected<BuiltModel> build_vulcanization_model(
    const VulcanizationConfig& config,
    const network::GeneratorOptions& generator_options = {},
    const PipelineOptions& pipeline = {});

/// Pipeline helper shared with the synthetic test cases: equations through
/// optimizer and both code paths.
support::Status finish_pipeline(BuiltModel& built,
                                const PipelineOptions& pipeline = {});

}  // namespace rms::models
