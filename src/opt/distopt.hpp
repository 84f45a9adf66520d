// The distributive optimization (paper §3.2, Fig. 6).
//
// Rewrites a flat sum-of-products into nested factored form by repeatedly
// factoring out the term that appears in the most products:
//   k1*B*C + k1*B*D + k1*E*F  ->  k1*(B*(C+D) + E*F)
// The §3.2 example drops from six multiplications and two additions to three
// multiplications and two additions.
#pragma once

#include "expr/factored.hpp"
#include "expr/product.hpp"

namespace rms::opt {

/// Applies Fig. 6's DistOpt to one equation right-hand side. Deterministic:
/// frequency ties break toward the canonically smallest variable.
///
/// T = terms(P) is maintained incrementally across factoring rounds: the
/// moved products' counts are decremented out of the table (O(moved) per
/// round) instead of rescanning every remaining product as Fig. 6 line 12
/// literally restarts. The factorization is the same.
expr::FactoredSum distributive_optimize(const expr::SumOfProducts& equation);

}  // namespace rms::opt
