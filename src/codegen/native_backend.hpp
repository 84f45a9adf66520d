// Native code execution backend: AOT-compiled RHS + Jacobian.
//
// The paper's compiler ultimately emits *C code* ("The output from the
// Equation Generator is a C code function that evaluates the ODEs"). This
// backend promotes that path to a first-class execution engine: it emits
// the optimized scalar RHS, a batched RHS that loops over it, and the
// analytic Jacobian as one C translation unit, compiles it with the system
// C compiler into a shared object, and dlopen()s the result. Every RHS and
// Jacobian evaluation then runs as host-compiler-optimized machine code
// instead of through the bytecode interpreter.
//
// Compilation cost is paid exactly once per distinct model: shared objects
// live in a content-addressed on-disk cache keyed by an FNV-1a hash of the
// emitted source plus the full compiler command line, so every
// construction, a cache hit included, differentiates and optimizes the
// Jacobian, emits the unit and hashes it before it can dlopen. Entries are
// published with a write-to-temporary + atomic rename() protocol, so
// concurrent processes and threads (a ctest -j sweep, parallel estimator
// runs) racing on the same model each end up with a valid entry and at
// most one wasted compile each; a corrupted entry (truncated write, bad
// file) is detected at dlopen/dlsym time, evicted, and recompiled once.
//
// Environment:
//   RMS_CC         compiler executable (default "cc"); construction fails
//                  cleanly — callers fall back to the VM — when it is
//                  missing or broken
//   RMS_CACHE_DIR  cache directory (default ~/.cache/rms, then /tmp/rms-cache)
//
// The backend is deliberately independent of models::BuiltModel (codegen
// sits below models in the layering); rms::Execution provides the
// BuiltModel-level plumbing and VM fallback policy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "odegen/equation_table.hpp"
#include "opt/optimized_system.hpp"
#include "support/status.hpp"

namespace rms::codegen {

/// Signature of the emitted scalar entry points (RHS and Jacobian fill).
using NativeRhsFn = void (*)(double t, const double* y, const double* k,
                             double* out);
/// Signature of the emitted batched RHS: a loop calling the scalar RHS once
/// per lane over lane-major contiguous states (the layout of
/// vm::Interpreter::run_batch_shared_k).
using NativeBatchFn = void (*)(double t, const double* ys, const double* k,
                               double* ydots, long n);

struct NativeBackendOptions {
  /// Compiler executable; empty resolves $RMS_CC, then "cc".
  std::string compiler;
  /// Optimization/code-gen flags. -ffp-contract=off keeps the native code
  /// bit-comparable to the VM (no FMA contraction on targets that have it);
  /// -shared -fPIC are appended unconditionally.
  std::string flags = "-O2 -ffp-contract=off";
  /// Cache directory; empty resolves $RMS_CACHE_DIR, then ~/.cache/rms,
  /// then /tmp/rms-cache.
  std::string cache_dir;
  /// Reuse an existing cache entry when present. Off forces a recompile
  /// (the fresh object still replaces the cached one) — benchmark cold
  /// paths use this.
  bool use_cache = true;
  /// Emit + resolve the batched RHS entry point (a lane loop over the
  /// scalar one).
  bool emit_batch = true;
  /// Emit + resolve the analytic Jacobian (requires the pre-CSE equation
  /// table at create()).
  bool emit_jacobian = true;
};

/// How one backend construction was satisfied.
struct NativeCompileInfo {
  bool cache_hit = false;
  /// Source generation (the Jacobian's differentiate + optimize included)
  /// plus hashing it into the key: the part of a cache hit that is neither
  /// dlopen nor compile.
  double emit_seconds = 0.0;
  double compile_seconds = 0.0;  ///< compiler wall time (0 on a cache hit)
  double total_seconds = 0.0;    ///< emit + compile + dlopen
  std::string object_path;       ///< the published shared object
  std::uint64_t key = 0;         ///< content hash (cache key)
};

/// An AOT-compiled model: scalar RHS, batched RHS, and the analytic
/// Jacobian as native function pointers, plus the Jacobian's CSR structure
/// (identical layout to codegen::CompiledJacobian). Move-only; owns the
/// dlopen handle. All entry points are const and touch only caller-owned
/// buffers, so one backend serves every thread and rank concurrently.
class NativeBackend {
 public:
  /// Emits, compiles (or cache-loads) and binds the native module for an
  /// optimized system. `equations` is the pre-CSE equation table the
  /// analytic Jacobian is differentiated from; pass nullptr to skip the
  /// Jacobian regardless of options. Fails with a Status — never crashes —
  /// when the compiler is missing or rejects the unit; callers fall back
  /// to the VM interpreter.
  static support::Expected<std::unique_ptr<NativeBackend>> create(
      const opt::OptimizedSystem& system,
      const odegen::EquationTable* equations, std::size_t species_count,
      std::size_t rate_count, const NativeBackendOptions& options = {});

  ~NativeBackend();
  NativeBackend(NativeBackend&& other) = delete;
  NativeBackend& operator=(NativeBackend&&) = delete;
  NativeBackend(const NativeBackend&) = delete;
  NativeBackend& operator=(const NativeBackend&) = delete;

  /// ydot = f(t, y, k).
  void rhs(double t, const double* y, const double* k, double* ydot) const {
    rhs_(t, y, k, ydot);
  }

  /// Batched RHS over n lane-major contiguous states.
  void rhs_batch(double t, const double* ys, const double* k, double* ydots,
                 std::size_t n) const {
    batch_(t, ys, k, ydots, static_cast<long>(n));
  }

  [[nodiscard]] bool has_batch() const { return batch_ != nullptr; }
  [[nodiscard]] bool has_jacobian() const { return jac_ != nullptr; }

  /// Fills the Jacobian's nonzero values in CSR order (row_offsets /
  /// col_indices layout below).
  void jacobian_values(double t, const double* y, const double* k,
                       double* values) const {
    jac_(t, y, k, values);
  }

  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  [[nodiscard]] std::size_t rate_count() const { return rate_count_; }
  [[nodiscard]] const std::vector<std::uint32_t>& jacobian_row_offsets()
      const {
    return row_offsets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& jacobian_col_indices()
      const {
    return col_indices_;
  }

  [[nodiscard]] const NativeCompileInfo& info() const { return info_; }

  /// Process-wide count of compiler invocations (cache misses). Tests use
  /// the delta across constructions to prove hit/miss behavior.
  static std::uint64_t compiler_invocations();

 private:
  NativeBackend() = default;

  void* handle_ = nullptr;
  NativeRhsFn rhs_ = nullptr;
  NativeBatchFn batch_ = nullptr;
  NativeRhsFn jac_ = nullptr;
  std::size_t dimension_ = 0;
  std::size_t rate_count_ = 0;
  std::vector<std::uint32_t> row_offsets_;
  std::vector<std::uint32_t> col_indices_;
  NativeCompileInfo info_;
};

}  // namespace rms::codegen
