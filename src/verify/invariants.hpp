// Metamorphic invariant checks: properties that must hold for *any* model,
// independent of what the correct RHS values are.
//
//   conservation   every left-null-space vector w of the stoichiometric
//                  matrix satisfies w . f(t, y, k) = 0 at every state — the
//                  compiled RHS must not leak conserved mass (rule sets
//                  that do leak atoms change S itself, which this detects
//                  downstream as a nonzero residual on the optimized code).
//   threads        recompiling with worker pools of 1, 2 and 8 threads must
//                  produce bit-identical bytecode (the parallel pipeline's
//                  determinism contract).
//   opt-level      the fully optimized build and the optimization-free
//                  build evaluate to the same RHS (reassociation-tolerant).
//
// Failures are reported as verify::Divergence values with the stage field
// naming the violated invariant.
#pragma once

#include <cstdint>
#include <vector>

#include "verify/oracle.hpp"

namespace rms::verify {

struct InvariantOptions {
  std::uint64_t seed = 1;
  int trials = 4;  ///< random draws for the value-level invariants
  /// Worker counts whose compiles must be bit-identical to serial.
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  bool check_conservation = true;
  bool check_thread_invariance = true;
  bool check_opt_level_equivalence = true;
  /// |w . f| <= tolerance * (|w| . |f| + 1): conservation residual bound.
  double conservation_tolerance = 1e-9;
  /// Caps for the thread-invariance network regeneration; must match the
  /// options the model was originally generated with (a tighter
  /// max_atoms_per_species changes which reactions exist).
  network::GeneratorOptions generator;
};

/// Runs the configured invariants on a built model; returns one Divergence
/// per violated invariant (empty = all hold). Thread invariance and
/// opt-level equivalence recompile the model from its equation tables, so
/// the cost is a few extra compiles of the same size.
std::vector<Divergence> check_invariants(const models::BuiltModel& built,
                                         const std::string& model_name,
                                         const InvariantOptions& options = {});

}  // namespace rms::verify
