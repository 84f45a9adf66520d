#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "support/assert.hpp"

namespace rms::linalg {

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  RMS_CHECK(x.size() == cols);
  y.assign(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::uint32_t e = row_offsets[r]; e < row_offsets[r + 1]; ++e) {
      sum += values[e] * x[col_indices[e]];
    }
    y[r] = sum;
  }
}

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, double threshold) {
  CsrMatrix out;
  out.rows = dense.rows();
  out.cols = dense.cols();
  out.row_offsets.reserve(out.rows + 1);
  out.row_offsets.push_back(0);
  for (std::size_t r = 0; r < out.rows; ++r) {
    for (std::size_t c = 0; c < out.cols; ++c) {
      const double v = dense(r, c);
      if (std::fabs(v) > threshold) {
        out.col_indices.push_back(static_cast<std::uint32_t>(c));
        out.values.push_back(v);
      }
    }
    out.row_offsets.push_back(static_cast<std::uint32_t>(out.values.size()));
  }
  return out;
}

Matrix CsrMatrix::to_dense() const {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::uint32_t e = row_offsets[r]; e < row_offsets[r + 1]; ++e) {
      out(r, col_indices[e]) = values[e];
    }
  }
  return out;
}

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};
/// A pivot smaller than this share of its column's largest candidate is
/// rejected: the fixed diagonal sequence falls back to row pivoting, and the
/// pivoting factor prefers the diagonal only above this share.
constexpr double kPivotThreshold = 0.1;

/// Column-compressed index of a CSR matrix's pattern: for each column, the
/// rows of its entries and their positions in the CSR arrays.
struct CscIndex {
  std::vector<std::uint32_t> col_offsets;
  std::vector<std::uint32_t> row_indices;
  std::vector<std::uint32_t> sources;  ///< CSR entry of each CSC entry

  explicit CscIndex(const CsrMatrix& a) {
    col_offsets.assign(a.cols + 1, 0);
    for (std::uint32_t c : a.col_indices) ++col_offsets[c + 1];
    for (std::size_t c = 0; c < a.cols; ++c) {
      col_offsets[c + 1] += col_offsets[c];
    }
    row_indices.resize(a.nonzero_count());
    sources.resize(a.nonzero_count());
    std::vector<std::uint32_t> cursor(col_offsets.begin(),
                                      col_offsets.end() - 1);
    for (std::size_t r = 0; r < a.rows; ++r) {
      for (std::uint32_t e = a.row_offsets[r]; e < a.row_offsets[r + 1]; ++e) {
        const std::uint32_t c = a.col_indices[e];
        row_indices[cursor[c]] = static_cast<std::uint32_t>(r);
        sources[cursor[c]] = e;
        ++cursor[c];
      }
    }
  }
};

/// Greedy minimum-degree elimination order of the symmetrized pattern
/// (A + A^T, diagonal ignored) on the explicit elimination graph: each step
/// eliminates the vertex of least current degree (ties: lowest index) and
/// joins its neighbours into a clique. Dense vertices (degree above
/// 10 sqrt(n), as in AMD) are left out of the graph and ordered last: a
/// species that reacts with nearly everything would otherwise be merged
/// into on every elimination, making the ordering quadratic.
std::vector<std::uint32_t> minimum_degree_order(const CsrMatrix& a) {
  const std::size_t n = a.rows;
  std::vector<std::vector<std::uint32_t>> adjacent(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint32_t e = a.row_offsets[r]; e < a.row_offsets[r + 1]; ++e) {
      const std::uint32_t c = a.col_indices[e];
      if (c == r) continue;
      adjacent[r].push_back(c);
      adjacent[c].push_back(r);
    }
  }
  const std::size_t dense_degree = std::max<std::size_t>(
      16, static_cast<std::size_t>(10.0 * std::sqrt(static_cast<double>(n))));
  std::vector<bool> dense(n);
  std::vector<std::uint32_t> deferred;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::vector<std::uint32_t>& list = adjacent[v];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    if (list.size() > dense_degree) {
      dense[v] = true;
      deferred.push_back(v);
    }
  }
  std::set<std::pair<std::size_t, std::uint32_t>> by_degree;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::vector<std::uint32_t>& list = adjacent[v];
    if (dense[v]) {
      list.clear();
      continue;
    }
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](std::uint32_t w) { return dense[w]; }),
               list.end());
    by_degree.emplace(list.size(), v);
  }

  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<std::uint32_t> merged;
  while (!by_degree.empty()) {
    const std::uint32_t v = by_degree.begin()->second;
    by_degree.erase(by_degree.begin());
    order.push_back(v);
    const std::vector<std::uint32_t> clique = std::move(adjacent[v]);
    adjacent[v] = {};
    for (const std::uint32_t u : clique) {
      std::vector<std::uint32_t>& list = adjacent[u];
      by_degree.erase({list.size(), u});
      merged.clear();
      std::set_union(list.begin(), list.end(), clique.begin(), clique.end(),
                     std::back_inserter(merged));
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [&](std::uint32_t w) {
                                    return w == u || w == v;
                                  }),
                   merged.end());
      list.swap(merged);
      by_degree.emplace(list.size(), u);
    }
  }
  order.insert(order.end(), deferred.begin(), deferred.end());
  return order;
}

/// Dense accumulator of the numeric refactor, one per thread. Every
/// factor() leaves it all-zero, so it is never cleared wholesale.
double* zeroed_workspace(std::size_t n) {
  thread_local std::vector<double> work;
  if (work.size() < n) work.assign(n, 0.0);
  return work.data();
}

}  // namespace

/// Index arrays of one factorization's solve. Solves run in place in x
/// indexed by original column: the unknown of pivot position j lives at
/// x[column_order[j]] (its "slot"), so every index below is a slot and the
/// only permutation left is one gather of b. Entries are stored in column
/// order, so each triangular solve is a single branch-free pass over them:
/// an entry is applied after every update of its source slot.
struct SparseLu::Structure {
  std::vector<std::uint32_t> gather;      ///< x[s] starts as b[gather[s]]
  std::vector<std::uint32_t> lower_from;  ///< x[to] -= L * x[from], forward
  std::vector<std::uint32_t> lower_to;
  std::vector<std::uint32_t> upper_from;  ///< same with unit-diagonal U,
  std::vector<std::uint32_t> upper_to;    ///< applied last entry first
};

/// Analysis of one sparsity pattern: the ordering, the L/U structure for
/// diagonal pivots in that order, and where A's entries land.
struct SparseLu::Symbolic {
  std::vector<std::uint32_t> row_offsets;  ///< the pattern analysed
  std::vector<std::uint32_t> col_indices;
  std::vector<std::uint32_t> column_order;  ///< pivot position -> column
  /// Diagonal pivots: rows follow the column order, so the gather is the
  /// identity and a row's slot is its original index.
  Structure structure;
  /// Column j of L is entries [lower_start[j], lower_start[j + 1]) of the
  /// structure, and likewise for U.
  std::vector<std::uint32_t> lower_start;
  std::vector<std::uint32_t> upper_start;
  /// Pivot position of each U entry, ascending within a column (a
  /// topological order for the left-looking updates).
  std::vector<std::uint32_t> upper_position;
  /// A's entries by pivot column: CSR index and slot (original row).
  std::vector<std::uint32_t> entry_start;
  std::vector<std::uint32_t> entry_source;
  std::vector<std::uint32_t> entry_slot;

  [[nodiscard]] bool matches(const CsrMatrix& a) const {
    return a.row_offsets == row_offsets && a.col_indices == col_indices;
  }

  explicit Symbolic(const CsrMatrix& a)
      : row_offsets(a.row_offsets),
        col_indices(a.col_indices),
        column_order(minimum_degree_order(a)) {
    const std::size_t n = a.rows;
    std::vector<std::uint32_t> position(n);
    for (std::uint32_t j = 0; j < n; ++j) position[column_order[j]] = j;
    Structure& s = structure;
    s.gather.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) s.gather[i] = i;

    const CscIndex csc(a);
    entry_start.reserve(n + 1);
    entry_start.push_back(0);
    entry_source.reserve(a.nonzero_count());
    entry_slot.reserve(a.nonzero_count());
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t c = column_order[j];
      for (std::uint32_t k = csc.col_offsets[c]; k < csc.col_offsets[c + 1];
           ++k) {
        entry_source.push_back(csc.sources[k]);
        entry_slot.push_back(csc.row_indices[k]);
      }
      entry_start.push_back(static_cast<std::uint32_t>(entry_source.size()));
    }

    // Symbolic left-looking factorization: column j's pattern is the reach
    // of A's column (plus the diagonal) through the columns of L before j.
    std::vector<std::uint32_t> lower_position;
    std::vector<std::uint32_t> mark(n, kNone);
    std::vector<std::uint32_t> reach;
    std::vector<std::uint32_t> stack;
    lower_start.assign(1, 0);
    upper_start.assign(1, 0);
    for (std::uint32_t j = 0; j < n; ++j) {
      reach.clear();
      auto visit = [&](std::uint32_t i) {
        if (mark[i] == j) return;
        mark[i] = j;
        reach.push_back(i);
        if (i < j) stack.push_back(i);
      };
      visit(j);
      for (std::uint32_t k = entry_start[j]; k < entry_start[j + 1]; ++k) {
        visit(position[entry_slot[k]]);
      }
      while (!stack.empty()) {
        const std::uint32_t i = stack.back();
        stack.pop_back();
        for (std::uint32_t f = lower_start[i]; f < lower_start[i + 1]; ++f) {
          visit(lower_position[f]);
        }
      }
      std::sort(reach.begin(), reach.end());
      for (const std::uint32_t i : reach) {
        if (i < j) {
          upper_position.push_back(i);
          s.upper_from.push_back(column_order[j]);
          s.upper_to.push_back(column_order[i]);
        } else if (i > j) {
          lower_position.push_back(i);
          s.lower_from.push_back(column_order[j]);
          s.lower_to.push_back(column_order[i]);
        }
      }
      lower_start.push_back(static_cast<std::uint32_t>(lower_position.size()));
      upper_start.push_back(static_cast<std::uint32_t>(upper_position.size()));
    }
  }
};

bool SparseLu::factor(const CsrMatrix& a) {
  RMS_CHECK(a.rows == a.cols);
  n_ = a.rows;
  ok_ = false;
  if (symbolic_ == nullptr || !symbolic_->matches(a)) {
    symbolic_ = std::make_shared<const Symbolic>(a);
  }
  const Symbolic& sym = *symbolic_;
  const Structure& s = sym.structure;
  structure_ = std::shared_ptr<const Structure>(symbolic_, &s);
  lower_.resize(s.lower_to.size());
  upper_.resize(s.upper_to.size());
  inverse_pivot_.resize(n_);

  // Left-looking refactor into the fixed patterns, accumulating column j in
  // slot space (see Structure).
  double* work = zeroed_workspace(n_);
  for (std::uint32_t j = 0; j < n_; ++j) {
    for (std::uint32_t k = sym.entry_start[j]; k < sym.entry_start[j + 1];
         ++k) {
      work[sym.entry_slot[k]] += a.values[sym.entry_source[k]];
    }
    for (std::uint32_t e = sym.upper_start[j]; e < sym.upper_start[j + 1];
         ++e) {
      double& slot = work[s.upper_to[e]];
      const double u = slot;
      slot = 0.0;
      upper_[e] = u * inverse_pivot_[s.upper_to[e]];
      if (u == 0.0) continue;
      const std::uint32_t i = sym.upper_position[e];
      for (std::uint32_t f = sym.lower_start[i]; f < sym.lower_start[i + 1];
           ++f) {
        work[s.lower_to[f]] -= lower_[f] * u;
      }
    }
    const std::uint32_t first = sym.lower_start[j];
    const std::uint32_t last = sym.lower_start[j + 1];
    double& diagonal = work[sym.column_order[j]];
    const double pivot = diagonal;
    diagonal = 0.0;
    double largest = 0.0;
    for (std::uint32_t f = first; f < last; ++f) {
      largest = std::max(largest, std::fabs(work[s.lower_to[f]]));
    }
    if (pivot == 0.0 || !std::isfinite(pivot) ||
        std::fabs(pivot) < kPivotThreshold * largest) {
      for (std::uint32_t f = first; f < last; ++f) work[s.lower_to[f]] = 0.0;
      return factor_with_pivoting(a);
    }
    inverse_pivot_[sym.column_order[j]] = 1.0 / pivot;
    for (std::uint32_t f = first; f < last; ++f) {
      double& slot = work[s.lower_to[f]];
      lower_[f] = slot / pivot;
      slot = 0.0;
    }
  }
  ok_ = true;
  return true;
}

bool SparseLu::factor_with_pivoting(const CsrMatrix& a) {
  // Gilbert-Peierls on A's columns in the analysed order: each column is
  // solved against the factored columns by a sparse triangular solve whose
  // reach is found by depth-first search, then pivots on its diagonal entry
  // when that is within kPivotThreshold of the column's largest candidate,
  // else on the largest.
  const std::vector<std::uint32_t>& order = symbolic_->column_order;
  const CscIndex csc(a);
  auto s = std::make_shared<Structure>();
  lower_.clear();
  upper_.clear();
  std::vector<std::uint32_t> lower_start(1, 0);  // L column j's entries
  std::vector<std::uint32_t> lower_row;  // original rows until all pivot
  std::vector<std::uint32_t> position(n_, kNone);  // row -> pivot position
  std::vector<std::uint32_t> pivot_rows;
  pivot_rows.reserve(n_);

  // Dense accumulator, DFS visit stamps (per column j) and scatter stamps.
  std::vector<double> work(n_, 0.0);
  std::vector<std::uint32_t> visit_stamp(n_, kNone);    // per column
  std::vector<std::uint32_t> scatter_stamp(n_, kNone);  // per row
  std::vector<std::uint32_t> topo;  // reverse topological column order
  std::vector<std::uint32_t> dfs_stack;
  std::vector<std::uint32_t> dfs_pos;
  std::vector<std::uint32_t> touched;  // rows scattered into `work`

  auto touch = [&](std::uint32_t row, std::uint32_t j) {
    if (scatter_stamp[row] != j) {
      scatter_stamp[row] = j;
      work[row] = 0.0;
      touched.push_back(row);
    }
  };

  for (std::uint32_t j = 0; j < n_; ++j) {
    topo.clear();
    touched.clear();

    // Reach of A(:,c) through the graph of L: every factored column feeding
    // column j's sparse triangular solve, in reverse topological (DFS
    // finish) order.
    auto dfs_from = [&](std::uint32_t start_column) {
      if (visit_stamp[start_column] == j) return;
      visit_stamp[start_column] = j;
      dfs_stack.assign(1, start_column);
      dfs_pos.assign(1, lower_start[start_column]);
      while (!dfs_stack.empty()) {
        const std::uint32_t column = dfs_stack.back();
        const std::uint32_t end = lower_start[column + 1];
        bool descended = false;
        for (std::uint32_t& f = dfs_pos.back(); f < end;) {
          const std::uint32_t child = position[lower_row[f]];
          ++f;
          if (child != kNone && visit_stamp[child] != j) {
            visit_stamp[child] = j;
            dfs_stack.push_back(child);
            dfs_pos.push_back(lower_start[child]);
            descended = true;
            break;
          }
        }
        if (!descended) {
          topo.push_back(column);
          dfs_stack.pop_back();
          dfs_pos.pop_back();
        }
      }
    };

    // Scatter A(:,c); seed the DFS from its already-pivotal rows.
    const std::uint32_t c = order[j];
    for (std::uint32_t k = csc.col_offsets[c]; k < csc.col_offsets[c + 1];
         ++k) {
      const std::uint32_t row = csc.row_indices[k];
      touch(row, j);
      work[row] += a.values[csc.sources[k]];
      if (position[row] != kNone) dfs_from(position[row]);
    }

    // Sparse triangular solve in topological order (topo holds reverse
    // topological order, so process back-to-front).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const std::uint32_t column = *it;
      const double xc = work[pivot_rows[column]];
      if (xc == 0.0) continue;
      for (std::uint32_t f = lower_start[column]; f < lower_start[column + 1];
           ++f) {
        const std::uint32_t row = lower_row[f];
        touch(row, j);
        work[row] -= xc * lower_[f];
      }
    }

    // Threshold partial pivoting among the not-yet-pivotal rows.
    std::uint32_t pivot_row = kNone;
    double pivot_magnitude = 0.0;
    for (std::uint32_t row : touched) {
      if (position[row] != kNone) continue;
      const double magnitude = std::fabs(work[row]);
      if (magnitude > pivot_magnitude) {
        pivot_magnitude = magnitude;
        pivot_row = row;
      }
    }
    if (pivot_row == kNone || pivot_magnitude == 0.0 ||
        !std::isfinite(pivot_magnitude)) {
      return false;  // numerically or structurally singular
    }
    if (scatter_stamp[c] == j && position[c] == kNone &&
        std::fabs(work[c]) >= kPivotThreshold * pivot_magnitude) {
      pivot_row = c;
    }

    const double pivot = work[pivot_row];
    inverse_pivot_[c] = 1.0 / pivot;
    position[pivot_row] = j;
    pivot_rows.push_back(pivot_row);
    for (std::uint32_t row : touched) {
      const double value = work[row];
      if (value == 0.0 || row == pivot_row) continue;
      if (position[row] != kNone) {
        const std::uint32_t to = order[position[row]];
        upper_.push_back(value * inverse_pivot_[to]);
        s->upper_from.push_back(c);
        s->upper_to.push_back(to);
      } else {
        lower_.push_back(value / pivot);
        lower_row.push_back(row);
        s->lower_from.push_back(c);
      }
    }
    lower_start.push_back(static_cast<std::uint32_t>(lower_.size()));
  }

  s->lower_to.resize(lower_row.size());
  for (std::size_t f = 0; f < lower_row.size(); ++f) {
    s->lower_to[f] = order[position[lower_row[f]]];
  }
  s->gather.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) s->gather[order[i]] = pivot_rows[i];
  structure_ = std::move(s);
  ok_ = true;
  return true;
}

void SparseLu::solve(const Vector& b, Vector& x) const {
  RMS_CHECK(ok_);
  RMS_CHECK(b.size() == n_);
  RMS_CHECK(&b != &x);
  const Structure& s = *structure_;
  x.resize(n_);
  for (std::size_t slot = 0; slot < n_; ++slot) x[slot] = b[s.gather[slot]];
  // L y = P b (unit diagonal), then D U' z = y with U' = D^-1 U unit upper.
  for (std::size_t f = 0; f < lower_.size(); ++f) {
    x[s.lower_to[f]] -= lower_[f] * x[s.lower_from[f]];
  }
  for (std::size_t slot = 0; slot < n_; ++slot) x[slot] *= inverse_pivot_[slot];
  for (std::size_t e = upper_.size(); e-- > 0;) {
    x[s.upper_to[e]] -= upper_[e] * x[s.upper_from[e]];
  }
}

std::size_t SparseLu::factor_nonzeros() const {
  return n_ + lower_.size() + upper_.size();
}

}  // namespace rms::linalg
