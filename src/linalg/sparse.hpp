// Sparse matrices (CSR) and sparse LU factorization.
//
// Chemistry Jacobians are very sparse — each species couples only to its
// reaction partners — and a stiff solve factors the iteration matrix
// M = d0*I - J hundreds of times with the same pattern and new values.
// SparseLu therefore works in two phases, as KPP does for atmospheric
// chemistry (Damian, Sandu et al., Comput. Chem. Eng. 2002):
//
//  - Symbolic (once per sparsity pattern): a greedy minimum-degree symmetric
//    ordering of pattern(A + A^T) and the exact L/U patterns for diagonal
//    pivots in that order. The analysis is immutable and shared by every
//    copy of the factorization (the solver's FactorCache entries included),
//    so a copy carries only flat value arrays.
//  - Numeric (every factor() call): a left-looking refactor into the fixed
//    patterns with no search and no allocation. A pivot that is zero,
//    non-finite or below a tenth of its column's largest candidate sends
//    the call to a threshold-partial-pivoting Gilbert-Peierls factor of the
//    same column-permuted matrix, which picks its own rows and patterns.
//
// Each factor() is a pure function of the matrix it is given: the analysis
// depends only on the pattern and no pivot choice outlives the call.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"

namespace rms::linalg {

/// Compressed sparse row matrix.
struct CsrMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_offsets;  ///< size rows + 1
  std::vector<std::uint32_t> col_indices;  ///< size nnz
  std::vector<double> values;              ///< size nnz

  [[nodiscard]] std::size_t nonzero_count() const { return values.size(); }

  /// y = A * x.
  void multiply(const Vector& x, Vector& y) const;

  /// Builds from a dense matrix, dropping exact zeros.
  static CsrMatrix from_dense(const Matrix& dense, double threshold = 0.0);

  [[nodiscard]] Matrix to_dense() const;
};

/// Sparse LU with a cached fill-reducing analysis (see the file comment).
/// factor() may be called repeatedly with matrices of the same or different
/// patterns; a new pattern is re-analysed. Copies share the analysis and are
/// independent otherwise: refactoring one never changes another's factors.
class SparseLu {
 public:
  /// Factors A (CSR, square). Returns false when numerically singular.
  bool factor(const CsrMatrix& a);

  /// Solves A x = b using the factors. factor() must have succeeded, and b
  /// and x must be distinct vectors. x is resized to the dimension (no
  /// allocation when it already has that size).
  void solve(const Vector& b, Vector& x) const;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t dimension() const { return n_; }
  /// Fill-in diagnostic: stored entries of L + U, diagonal included.
  [[nodiscard]] std::size_t factor_nonzeros() const;

 private:
  /// Immutable per-pattern analysis (defined in sparse.cpp).
  struct Symbolic;
  /// Immutable L/U structure a solve walks (defined in sparse.cpp).
  struct Structure;

  /// Threshold-partial-pivoting factor of the column-permuted matrix; used
  /// when the fixed diagonal pivot sequence meets a small pivot.
  bool factor_with_pivoting(const CsrMatrix& a);

  std::size_t n_ = 0;
  std::shared_ptr<const Symbolic> symbolic_;    ///< analysis of the pattern
  std::shared_ptr<const Structure> structure_;  ///< structure of the factors
  std::vector<double> lower_;  ///< L below the diagonal, by column
  std::vector<double> upper_;  ///< D^-1 U above the diagonal, by column
  std::vector<double> inverse_pivot_;  ///< 1 / U diagonal, by slot
  bool ok_ = false;
};

}  // namespace rms::linalg
