// Common subexpression elimination (paper §3.3, Fig. 7).
//
// Consumes the per-equation factored trees produced by the distributive
// optimization and builds the hash-consed OptimizedSystem:
//   1. interning — every structurally identical product/sum becomes one
//      entry (Fig. 7's equal-length full match, lines 4-6);
//   2. prefix sharing — each entry searches, longest first, for an existing
//      shorter entry equal to its leading terms and reuses its temporary
//      (lines 7-11); canonical term order makes this a plain sequence
//      prefix test, and hash-consing guarantees at most one candidate per
//      prefix, so the search is a hash lookup per length (an O(m n)
//      tightening of the paper's O(m^2 n) scan with identical results);
//   3. temporary assignment — every entry used >= 2 times (including prefix
//      donations) gets a temp (genTemp), emitted in dependency order before
//      first use (lines 12-14).
#pragma once

#include <vector>

#include "expr/factored.hpp"
#include "opt/optimized_system.hpp"

namespace rms::opt {

struct CseOptions {
  /// Share prefixes of longer expressions with existing shorter ones.
  bool enable_prefix_sharing = true;
  /// Assign temporaries to multi-use entries. With this off the builder
  /// only structures the IR (ablation: DistOpt without CSE); every use is
  /// inlined and recomputed.
  bool enable_temporaries = true;
};

/// Builds the optimized program from one factored tree per species equation.
///
/// Equations structurally identical to an earlier one reuse its interned
/// sum id instead of walking the tree again. `rep_of`, when non-null, maps
/// each equation index to the index of the first equation it is
/// structurally identical to (rep_of[i] == i for representatives), the
/// grouping the distributive pass already computed; the builder then copies
/// the representatives' ids and skips its own hash-based dedup. Output is
/// bit-identical either way: interning a duplicate tree would return the
/// same id with no side effects.
OptimizedSystem build_optimized_system(
    const std::vector<expr::FactoredSum>& equations, std::size_t species_count,
    std::size_t rate_count, const CseOptions& options = {},
    const std::vector<std::uint32_t>* rep_of = nullptr);

}  // namespace rms::opt
