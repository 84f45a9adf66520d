#include "opt/distopt.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "support/assert.hpp"
#include "support/small_vector.hpp"

namespace rms::opt {

namespace {

using expr::FactoredSum;
using expr::FactoredTerm;
using expr::Product;
using expr::VarId;

/// Per-variable product counts as a flat array with linear probing. For the
/// typical generated equation (a handful of products over a handful of
/// variables) this never allocates and beats a node-based hash table by a
/// wide margin; dist_opt switches to MapCounter for the rare huge rows
/// (hub species touched by thousands of reactions) where linear probing
/// would go quadratic.
class FlatCounter {
 public:
  void add(const Product& p) {
    for_distinct(p, [this](VarId v) {
      for (auto& [var, count] : entries_) {
        if (var == v) {
          ++count;
          return;
        }
      }
      entries_.push_back({v, 1});
    });
  }

  void remove(const Product& p) {
    for_distinct(p, [this](VarId v) {
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].first == v) {
          RMS_DCHECK(entries_[i].second > 0);
          if (--entries_[i].second == 0) {
            entries_[i] = entries_[entries_.size() - 1];
            entries_.pop_back();
          }
          return;
        }
      }
      RMS_DCHECK(false);
    });
  }

  /// (k, c) = mostFrequent(T); ties break toward the canonically smallest
  /// variable, so the result is independent of entry order.
  void most_frequent(VarId& best, std::uint32_t& best_count) const {
    best = VarId{};
    best_count = 0;
    for (const auto& [var, count] : entries_) {
      if (count > best_count || (count == best_count && var < best)) {
        best = var;
        best_count = count;
      }
    }
  }

  [[nodiscard]] std::size_t distinct() const { return entries_.size(); }

  [[nodiscard]] bool counts(VarId v, std::uint32_t& out) const {
    for (const auto& [var, count] : entries_) {
      if (var == v) {
        out = count;
        return true;
      }
    }
    return false;
  }

  /// Visits each distinct variable of `p` once. Factors are sorted, so a
  /// variable appearing squared (k*A*A) is skipped on its repeat — it still
  /// only offers one product for factoring.
  template <typename Fn>
  static void for_distinct(const Product& p, const Fn& fn) {
    VarId last{};
    bool have_last = false;
    for (VarId v : p.factors) {
      if (have_last && v == last) continue;
      fn(v);
      last = v;
      have_last = true;
    }
  }

 private:
  support::SmallVector<std::pair<VarId, std::uint32_t>, 24> entries_;
};

/// Hash-table flavour of the same counter, for rows with too many distinct
/// variables for linear probing.
class MapCounter {
 public:
  void add(const Product& p) {
    FlatCounter::for_distinct(p, [this](VarId v) { counts_[v] += 1; });
  }

  void remove(const Product& p) {
    FlatCounter::for_distinct(p, [this](VarId v) {
      auto it = counts_.find(v);
      RMS_DCHECK(it != counts_.end() && it->second > 0);
      if (--it->second == 0) counts_.erase(it);
    });
  }

  void most_frequent(VarId& best, std::uint32_t& best_count) const {
    best = VarId{};
    best_count = 0;
    for (const auto& [var, count] : counts_) {
      if (count > best_count || (count == best_count && var < best)) {
        best = var;
        best_count = count;
      }
    }
  }

  [[nodiscard]] std::size_t distinct() const { return counts_.size(); }

  [[nodiscard]] bool counts(VarId v, std::uint32_t& out) const {
    auto it = counts_.find(v);
    if (it == counts_.end()) return false;
    out = it->second;
    return true;
  }

 private:
  std::unordered_map<VarId, std::uint32_t> counts_;
};

/// Debug cross-check: does the incrementally maintained counter equal a
/// fresh recount over `products`? Only invoked under RMS_DCHECK.
template <typename Counter>
[[maybe_unused]] bool counts_match(const Counter& counter,
                                   const std::vector<Product>& products) {
  MapCounter fresh;
  for (const Product& p : products) fresh.add(p);
  if (fresh.distinct() != counter.distinct()) return false;
  bool ok = true;
  for (const Product& p : products) {
    FlatCounter::for_distinct(p, [&](VarId v) {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      ok = ok && fresh.counts(v, a) && counter.counts(v, b) && a == b;
    });
  }
  return ok;
}

/// Rows with at most this many products use the allocation-free FlatCounter.
constexpr std::size_t kFlatProductLimit = 64;

FactoredSum dist_opt(std::vector<Product> products);

/// Fig. 6 lines 4-16 on a working set of products. Recursing on the divided
/// product sets yields the fully nested factorization.
///
/// T = terms(P) is maintained across rounds: instead of rescanning every
/// remaining product after each factoring round (the Fig. 6 line 12 "P and
/// T both shrank" step, quadratic over rounds), the counts of products
/// moved into the factored subset are decremented out. Debug builds verify
/// the counter against a fresh recount each round.
template <typename Counter>
FactoredSum dist_opt_impl(std::vector<Product> products) {
  FactoredSum result;

  Counter counts;
  for (const Product& p : products) counts.add(p);

  while (!products.empty()) {
    VarId best{};
    std::uint32_t best_count = 0;
    counts.most_frequent(best, best_count);

    if (best_count <= 1) {
      // No sharing left: emit every remaining product as a flat term.
      for (const Product& p : products) {
        result.terms().emplace_back(p);
      }
      products.clear();
      break;
    }

    // P_k = products containing k; divide each by one occurrence of k and
    // recurse on the quotient sum (Fig. 6 line 11). Their counts leave the
    // table with them — what remains is exactly the recount of the
    // survivors, which are compacted in place (order preserved) so no
    // per-round `remaining` vector is allocated.
    std::vector<Product> factored;
    factored.reserve(best_count);
    std::size_t w = 0;
    for (std::size_t r = 0; r < products.size(); ++r) {
      Product& p = products[r];
      if (p.contains(best)) {
        counts.remove(p);
        Product quotient = std::move(p);
        quotient.divide_by(best);
        factored.push_back(std::move(quotient));
      } else {
        if (w != r) products[w] = std::move(p);
        ++w;
      }
    }
    products.resize(w);
    RMS_DCHECK(factored.size() >= 2);

    FactoredTerm term;
    term.factors.push_back(best);
    term.sub =
        std::make_unique<FactoredSum>(dist_opt(std::move(factored)));
    // Flatten k * (single-term sum) into one product-like term, restoring
    // the sorted-factors invariant.
    if (term.sub->size() == 1) {
      FactoredTerm& only = term.sub->terms()[0];
      term.coeff = only.coeff;
      for (VarId v : only.factors) term.factors.push_back(v);
      term.sub = std::move(only.sub);
      std::sort(term.factors.begin(), term.factors.end());
    }
    result.terms().push_back(std::move(term));

    RMS_DCHECK(counts_match(counts, products));
  }

  result.sort_canonical();
  return result;
}

/// Counter selection. Both counters produce the same most-frequent answer
/// (the tie-break is order-independent), so the choice affects only speed:
/// small rows use the allocation-free flat counter, huge hub-species rows
/// fall back to the hash table where linear probing would go quadratic.
FactoredSum dist_opt(std::vector<Product> products) {
  if (products.size() <= kFlatProductLimit) {
    return dist_opt_impl<FlatCounter>(std::move(products));
  }
  return dist_opt_impl<MapCounter>(std::move(products));
}

}  // namespace

FactoredSum distributive_optimize(const expr::SumOfProducts& equation) {
  std::vector<Product> products;
  products.reserve(equation.size());
  for (const Product& p : equation.terms()) {
    if (p.coeff != 0.0) products.push_back(p);
  }
  return dist_opt(std::move(products));
}

}  // namespace rms::opt
