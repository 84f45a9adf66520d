#include "opt/cse.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/small_vector.hpp"

namespace rms::opt {

namespace {

using expr::FactoredSum;
using expr::FactoredTerm;
using expr::VarId;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 27);
}

std::uint64_t atom_key(const ProductAtom& atom) {
  return atom.kind == ProductAtom::Kind::kVar
             ? mix(1, atom.var.packed())
             : mix(2, static_cast<std::uint64_t>(atom.sum));
}

/// Interning maps allocate one node per *distinct* entry and die with the
/// builder — exactly the arena lifetime pattern, so their nodes (and bucket
/// arrays) come from a builder-owned arena: pointer bumps instead of
/// per-node malloc/free.
template <typename Key, typename Value>
using ArenaMap =
    std::unordered_map<Key, Value, std::hash<Key>, std::equal_to<Key>,
                       support::ArenaAllocator<std::pair<const Key, Value>>>;

class Builder {
 public:
  Builder(std::size_t species_count, std::size_t rate_count,
          const CseOptions& options)
      : options_(options),
        product_index_(
            0, std::hash<std::uint64_t>(), std::equal_to<std::uint64_t>(),
            support::ArenaAllocator<
                std::pair<const std::uint64_t, std::uint32_t>>(&arena_)),
        sum_index_(
            0, std::hash<std::uint64_t>(), std::equal_to<std::uint64_t>(),
            support::ArenaAllocator<
                std::pair<const std::uint64_t, std::int32_t>>(&arena_)) {
    system_.species_count = species_count;
    system_.rate_count = rate_count;
  }

  OptimizedSystem run(const std::vector<FactoredSum>& equations,
                      const std::vector<std::uint32_t>* rep_of) {
    // Every equation interns at least one sum and typically a few products;
    // reserving up front spares the index maps several full rehashes (each
    // of which bump-allocates a fresh bucket array from the arena).
    system_.equations.reserve(equations.size());
    product_index_.reserve(equations.size() * 2);
    sum_index_.reserve(equations.size());
    // Top-level dedup: a structurally identical earlier equation already
    // interned to some sum id; reuse it without re-walking the tree.
    // Identical output to always walking — interning a duplicate tree
    // returns the existing id with no creation-time side effects, so only
    // the per-occurrence use_count bump below remains. Jacobian equation
    // tables are almost entirely duplicates, so this skips most of the walk.
    // When the caller supplies the memo grouping (`rep_of`), even the hash
    // probe is skipped: duplicates copy their representative's sum id.
    std::unordered_map<std::uint64_t, support::SmallVector<std::uint32_t, 2>>
        first_occurrence;
    const bool hash_dedup = rep_of == nullptr;
    if (hash_dedup) first_occurrence.reserve(equations.size());
    for (std::size_t i = 0; i < equations.size(); ++i) {
      const FactoredSum& eq = equations[i];
      std::int32_t id = kNoExpr;
      if (rep_of != nullptr && (*rep_of)[i] != i) {
        // Representatives precede their duplicates, so the slot is filled.
        // The duplicate's own tree is never read — the caller may leave it
        // empty instead of materializing a copy.
        id = system_.equations[(*rep_of)[i]];
        if (id == kNoExpr) {  // the representative was empty; so are we
          system_.equations.push_back(kNoExpr);
          continue;
        }
      } else if (eq.empty()) {
        system_.equations.push_back(kNoExpr);
        continue;
      } else if (hash_dedup) {
        auto& bucket = first_occurrence[eq.hash()];
        for (std::uint32_t j : bucket) {
          if (equations[j].equals(eq)) {
            id = system_.equations[j];
            break;
          }
        }
        if (id == kNoExpr) {
          id = intern_sum(eq);
          bucket.push_back(static_cast<std::uint32_t>(i));
        }
      } else {
        id = intern_sum(eq);
      }
      system_.sums[id].use_count += 1;
      system_.equations.push_back(id);
    }
    // Prefix replacement reads the donor's temporary, so it requires the
    // temporary-assignment pass.
    if (options_.enable_prefix_sharing && options_.enable_temporaries) {
      share_prefixes();
    }
    if (options_.enable_temporaries) assign_temporaries();
    return std::move(system_);
  }

 private:
  // ---- Interning (hash-consing) --------------------------------------------

  /// Canonical atom order: variables first (VarId order) then sum refs (by
  /// entry id — deterministic because interning order is deterministic).
  static bool atom_less(const ProductAtom& a, const ProductAtom& b) {
    if (a.kind != b.kind) return a.kind == ProductAtom::Kind::kVar;
    if (a.kind == ProductAtom::Kind::kVar) return a.var < b.var;
    return a.sum < b.sum;
  }

  /// Interns the product currently staged in scratch_atoms_. The scratch
  /// buffer is probed against the index first, so re-interning an existing
  /// product (the common case on duplicate-heavy inputs) allocates nothing;
  /// an entry is materialized only for a genuinely new product.
  std::uint32_t intern_scratch_product() {
    std::sort(scratch_atoms_.begin(), scratch_atoms_.end(), atom_less);
    std::uint64_t h = 0xA5A5A5A55A5A5A5Aull;
    for (const ProductAtom& atom : scratch_atoms_) h = mix(h, atom_key(atom));
    auto [it, inserted] = product_index_.try_emplace(h, 0u);
    if (!inserted) {
      // Verify (hash collisions are possible in principle).
      const ProductEntry& existing = system_.products[it->second];
      if (std::equal(existing.atoms.begin(), existing.atoms.end(),
                     scratch_atoms_.begin(), scratch_atoms_.end())) {
        return it->second;
      }
      // Extremely unlikely collision: fall through to linear disambiguation.
      for (std::uint32_t id = 0; id < system_.products.size(); ++id) {
        const ProductEntry& candidate = system_.products[id];
        if (std::equal(candidate.atoms.begin(), candidate.atoms.end(),
                       scratch_atoms_.begin(), scratch_atoms_.end())) {
          return id;
        }
      }
    }
    const std::uint32_t id = static_cast<std::uint32_t>(system_.products.size());
    ProductEntry entry;
    entry.atoms.reserve(scratch_atoms_.size());
    for (const ProductAtom& atom : scratch_atoms_) {
      entry.atoms.push_back(atom);
      // Register syntactic uses of nested sums exactly once, at creation.
      if (atom.kind == ProductAtom::Kind::kSum) {
        system_.sums[atom.sum].use_count += 1;
      }
    }
    it->second = id;
    system_.products.push_back(std::move(entry));
    return id;
  }

  std::int32_t intern_sum(const FactoredSum& sum) {
    // Operand staging buffers are pooled per recursion depth (a reference
    // would dangle across the recursive intern_sum below, so always index).
    const std::size_t depth = sum_depth_++;
    if (operand_scratch_.size() <= depth) operand_scratch_.emplace_back();
    operand_scratch_[depth].clear();
    operand_scratch_[depth].reserve(sum.size());
    for (const FactoredTerm& term : sum.terms()) {
      std::int32_t sub_id = kNoExpr;
      if (term.sub) sub_id = intern_sum(*term.sub);
      scratch_atoms_.clear();
      for (VarId v : term.factors) {
        scratch_atoms_.push_back(ProductAtom::variable(v));
      }
      if (sub_id != kNoExpr) {
        scratch_atoms_.push_back(ProductAtom::sum_ref(sub_id));
      }
      operand_scratch_[depth].push_back(
          SumOperand{term.coeff, intern_scratch_product()});
    }
    --sum_depth_;
    std::vector<SumOperand>& operands = operand_scratch_[depth];
    // Canonical operand order: by product id then coefficient. Product ids
    // are assigned in deterministic interning order, and equal trees intern
    // to equal ids, so equal sums produce identical operand sequences.
    std::sort(operands.begin(), operands.end(),
              [](const SumOperand& a, const SumOperand& b) {
                if (a.product != b.product) return a.product < b.product;
                return a.coeff < b.coeff;
              });

    std::uint64_t h = 0x123456789ABCDEFull;
    for (const SumOperand& op : operands) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &op.coeff, sizeof(bits));
      h = mix(mix(h, bits), op.product);
    }
    auto [it, inserted] = sum_index_.try_emplace(h, 0);
    if (!inserted) {
      const SumEntry& existing = system_.sums[it->second];
      if (existing.operands == operands) return it->second;
      for (std::uint32_t id = 0; id < system_.sums.size(); ++id) {
        if (system_.sums[id].operands == operands) {
          return static_cast<std::int32_t>(id);
        }
      }
    }
    const std::int32_t id = static_cast<std::int32_t>(system_.sums.size());
    for (const SumOperand& op : operands) {
      system_.products[op.product].use_count += 1;
    }
    it->second = id;
    SumEntry entry;
    entry.operands = operands;  // copy: only new entries pay an allocation
    system_.sums.push_back(std::move(entry));
    return id;
  }

  // ---- Prefix sharing (Fig. 7 lines 7-11) ----------------------------------

  void share_prefixes() {
    // Index the full sequences of all entries, keyed by (length, hash).
    // Hash-consing guarantees at most one entry per exact sequence, so the
    // paper's "first matching shorter expression" is unique when it exists.
    std::unordered_map<std::uint64_t, std::uint32_t> product_by_seq;
    for (std::uint32_t id = 0; id < system_.products.size(); ++id) {
      product_by_seq.emplace(product_seq_hash(id, system_.products[id].atoms.size()),
                             id);
    }
    std::unordered_map<std::uint64_t, std::uint32_t> sum_by_seq;
    for (std::uint32_t id = 0; id < system_.sums.size(); ++id) {
      sum_by_seq.emplace(sum_seq_hash(id, system_.sums[id].operands.size()), id);
    }

    // Longest prefixes first (Fig. 7: "from longest to shortest strings").
    for (std::uint32_t id = 0; id < system_.products.size(); ++id) {
      ProductEntry& p = system_.products[id];
      if (p.atoms.size() < 3) continue;  // needs a proper prefix of length >= 2
      for (std::size_t len = p.atoms.size() - 1; len >= 2; --len) {
        auto it = product_by_seq.find(product_seq_hash(id, len));
        if (it == product_by_seq.end() || it->second == id) continue;
        const ProductEntry& donor = system_.products[it->second];
        if (donor.atoms.size() != len ||
            !std::equal(donor.atoms.begin(), donor.atoms.end(),
                        p.atoms.begin())) {
          continue;  // hash collision
        }
        p.prefix_product = static_cast<std::int32_t>(it->second);
        p.prefix_len = static_cast<std::uint32_t>(len);
        system_.products[it->second].use_count += 1;
        break;
      }
    }
    for (std::uint32_t id = 0; id < system_.sums.size(); ++id) {
      SumEntry& s = system_.sums[id];
      if (s.operands.size() < 3) continue;
      for (std::size_t len = s.operands.size() - 1; len >= 2; --len) {
        auto it = sum_by_seq.find(sum_seq_hash(id, len));
        if (it == sum_by_seq.end() || it->second == id) continue;
        const SumEntry& donor = system_.sums[it->second];
        if (donor.operands.size() != len ||
            !std::equal(donor.operands.begin(), donor.operands.end(),
                        s.operands.begin())) {
          continue;
        }
        s.prefix_sum = static_cast<std::int32_t>(it->second);
        s.prefix_len = static_cast<std::uint32_t>(len);
        system_.sums[it->second].use_count += 1;
        break;
      }
    }
  }

  std::uint64_t product_seq_hash(std::uint32_t id, std::size_t len) const {
    const ProductEntry& p = system_.products[id];
    std::uint64_t h = mix(0xC0FFEEull, len);
    for (std::size_t i = 0; i < len; ++i) h = mix(h, atom_key(p.atoms[i]));
    return h;
  }

  std::uint64_t sum_seq_hash(std::uint32_t id, std::size_t len) const {
    const SumEntry& s = system_.sums[id];
    std::uint64_t h = mix(0xFACADEull, len);
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &s.operands[i].coeff, sizeof(bits));
      h = mix(mix(h, bits), s.operands[i].product);
    }
    return h;
  }

  // ---- Temporary assignment & emission order (Fig. 7 lines 12-14) ----------

  /// An entity is "trivial" when a temporary for it would save nothing:
  /// a bare variable / constant product, or a +/-1-scaled single-operand sum
  /// (whose work lives in the operand). Effective-use propagation pushes the
  /// demand through trivial wrappers into the entity that does the work.
  bool product_trivial(const ProductEntry& p) const {
    if (p.prefix_len > 0) return false;
    if (p.atoms.size() >= 2) return false;
    return p.atoms.empty() || p.atoms[0].kind == ProductAtom::Kind::kVar;
  }

  bool sum_trivial(const SumEntry& s) const {
    if (s.prefix_len > 0) return false;
    if (s.operands.size() >= 2) return false;
    if (s.operands.empty()) return true;
    const SumOperand& op = s.operands[0];
    return op.coeff == 1.0 || op.coeff == -1.0;
  }

  void assign_temporaries() {
    // Pass 1: DFS from every equation collecting a children-first
    // topological order of all reachable entities.
    product_state_.assign(system_.products.size(), 0);
    sum_state_.assign(system_.sums.size(), 0);
    topo_.clear();
    for (std::int32_t eq : system_.equations) {
      if (eq != kNoExpr) visit_sum(static_cast<std::uint32_t>(eq));
    }

    // Pass 2 (parents first): effective use counts. An entity that will be
    // temp'd evaluates its children once; an inlined entity evaluates them
    // once per own evaluation. Prefix donors must be temp'd regardless.
    std::vector<std::uint32_t> product_eff(system_.products.size(), 0);
    std::vector<std::uint32_t> sum_eff(system_.sums.size(), 0);
    std::vector<char> product_tempable(system_.products.size(), 0);
    std::vector<char> sum_tempable(system_.sums.size(), 0);
    std::vector<char> product_donor(system_.products.size(), 0);
    std::vector<char> sum_donor(system_.sums.size(), 0);
    for (const ProductEntry& p : system_.products) {
      if (p.prefix_len > 0) product_donor[p.prefix_product] = 1;
    }
    for (const SumEntry& s : system_.sums) {
      if (s.prefix_len > 0) sum_donor[s.prefix_sum] = 1;
    }
    for (std::int32_t eq : system_.equations) {
      if (eq != kNoExpr) sum_eff[eq] += 1;
    }
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const TempDef& node = *it;
      if (node.kind == TempDef::Kind::kProduct) {
        const ProductEntry& p = system_.products[node.entry];
        const bool temp = (product_eff[node.entry] >= 2 &&
                           !product_trivial(p)) ||
                          product_donor[node.entry] != 0;
        product_tempable[node.entry] = temp ? 1 : 0;
        const std::uint32_t weight = temp ? 1 : product_eff[node.entry];
        if (weight == 0) continue;
        if (p.prefix_len > 0) product_eff[p.prefix_product] += weight;
        for (std::size_t i = p.prefix_len; i < p.atoms.size(); ++i) {
          if (p.atoms[i].kind == ProductAtom::Kind::kSum) {
            sum_eff[p.atoms[i].sum] += weight;
          }
        }
      } else {
        const SumEntry& s = system_.sums[node.entry];
        const bool temp =
            (sum_eff[node.entry] >= 2 && !sum_trivial(s)) ||
            sum_donor[node.entry] != 0;
        sum_tempable[node.entry] = temp ? 1 : 0;
        const std::uint32_t weight = temp ? 1 : sum_eff[node.entry];
        if (weight == 0) continue;
        if (s.prefix_len > 0) sum_eff[s.prefix_sum] += weight;
        for (std::size_t i = s.prefix_len; i < s.operands.size(); ++i) {
          product_eff[s.operands[i].product] += weight;
        }
      }
    }

    // Pass 3 (children first): emit temp definitions in dependency order.
    for (const TempDef& node : topo_) {
      if (node.kind == TempDef::Kind::kProduct) {
        if (product_tempable[node.entry] != 0) {
          system_.products[node.entry].temp_index = next_temp_++;
          system_.temp_order.push_back(node);
        }
      } else {
        if (sum_tempable[node.entry] != 0) {
          system_.sums[node.entry].temp_index = next_temp_++;
          system_.temp_order.push_back(node);
        }
      }
    }
  }

  void visit_product(std::uint32_t id) {
    if (product_state_[id] != 0) return;
    product_state_[id] = 1;
    const ProductEntry& p = system_.products[id];
    if (p.prefix_len > 0) {
      visit_product(static_cast<std::uint32_t>(p.prefix_product));
    }
    for (std::size_t i = p.prefix_len; i < p.atoms.size(); ++i) {
      if (p.atoms[i].kind == ProductAtom::Kind::kSum) {
        visit_sum(static_cast<std::uint32_t>(p.atoms[i].sum));
      }
    }
    topo_.push_back(TempDef{TempDef::Kind::kProduct, id});
  }

  void visit_sum(std::uint32_t id) {
    if (sum_state_[id] != 0) return;
    sum_state_[id] = 1;
    const SumEntry& s = system_.sums[id];
    if (s.prefix_len > 0) {
      visit_sum(static_cast<std::uint32_t>(s.prefix_sum));
    }
    for (std::size_t i = s.prefix_len; i < s.operands.size(); ++i) {
      visit_product(s.operands[i].product);
    }
    topo_.push_back(TempDef{TempDef::Kind::kSum, id});
  }

  CseOptions options_;
  OptimizedSystem system_;
  // The arena outlives the index maps below (members destroy in reverse
  // declaration order), which is all ArenaAllocator requires.
  support::Arena arena_;
  ArenaMap<std::uint64_t, std::uint32_t> product_index_;
  ArenaMap<std::uint64_t, std::int32_t> sum_index_;
  // Reusable staging buffers: duplicate interning touches only these.
  std::vector<ProductAtom> scratch_atoms_;
  std::vector<std::vector<SumOperand>> operand_scratch_;
  std::size_t sum_depth_ = 0;
  std::vector<char> product_state_;
  std::vector<char> sum_state_;
  std::vector<TempDef> topo_;
  std::int32_t next_temp_ = 0;
};

}  // namespace

OptimizedSystem build_optimized_system(
    const std::vector<FactoredSum>& equations, std::size_t species_count,
    std::size_t rate_count, const CseOptions& options,
    const std::vector<std::uint32_t>* rep_of) {
  return Builder(species_count, rate_count, options).run(equations, rep_of);
}

}  // namespace rms::opt
