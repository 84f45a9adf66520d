// Backend selection: how a compiled model's RHS and Jacobian execute.
//
// The pipeline produces two executable forms of every model: bytecode for
// the in-process VM interpreter (always available) and C source for the
// native AOT backend (codegen::NativeBackend — system cc + dlopen, with a
// content-addressed shared-object cache). Execution wraps the choice:
//
//   auto built = rms::Suite::compile(source);
//   rms::Execution exec = rms::Execution::create(*built);   // auto-selects
//   std::vector<double> k = built->rates.values();
//   solver::OdeSystem system = exec.make_system(&k);   // exec outlives it
//   solver::AdamsGear integrator(system);
//
// make_system and the estimator's per-file solves build their systems
// through one function, codegen::make_ode_system; to fit a model on the
// selected backend, hand native() and compiled_jacobian() to
// estimator::ObjectiveOptions.
//
// Selection policy: Backend::kAuto honors $RMS_BACKEND ("vm" / "native" /
// "auto"), then tries the native backend and falls back to the VM when the
// system compiler is unavailable or the compile fails — every
// configuration keeps working on a compiler-less box, it just runs on the
// interpreter. Backend::kNative is "native if at all possible" with the
// same graceful fallback; fallback_reason() says why when it happens.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/jacobian.hpp"
#include "codegen/native_backend.hpp"
#include "models/vulcanization.hpp"
#include "solver/ode.hpp"

namespace rms {

enum class Backend {
  kVm,      ///< bytecode interpreter (fused + register-compacted program)
  kNative,  ///< AOT-compiled shared object (VM fallback when unavailable)
  kAuto,    ///< $RMS_BACKEND override, else native-with-VM-fallback
};

[[nodiscard]] const char* backend_name(Backend backend);

/// Parses "vm" / "native" / "auto". False on anything else.
[[nodiscard]] bool parse_backend(std::string_view name, Backend& out);

struct ExecutionOptions {
  Backend backend = Backend::kAuto;
  /// Build an analytic Jacobian (native CSR fill or VM CompiledJacobian)
  /// and expose it through OdeSystem::sparse_jacobian.
  bool with_jacobian = true;
  /// Native backend knobs (cache dir, compiler, flags).
  codegen::NativeBackendOptions native;
};

/// An executable form of one BuiltModel. The BuiltModel must outlive the
/// Execution (programs and equation tables are referenced, not copied).
class Execution {
 public:
  /// Never fails: when the requested backend cannot be constructed the VM
  /// is selected and fallback_reason() records why.
  static Execution create(const models::BuiltModel& built,
                          const ExecutionOptions& options = {});

  /// The backend actually selected (kVm or kNative, never kAuto).
  [[nodiscard]] Backend backend() const { return backend_; }

  /// Why a native request ended up on the VM ("" when it did not).
  [[nodiscard]] const std::string& fallback_reason() const {
    return fallback_reason_;
  }

  /// The native module (null when the VM is selected).
  [[nodiscard]] const codegen::NativeBackend* native() const {
    return native_.get();
  }

  /// The VM's compiled Jacobian (null on the native backend or when
  /// with_jacobian was off).
  [[nodiscard]] const codegen::CompiledJacobian* compiled_jacobian() const {
    return vm_jacobian_ != nullptr && !vm_jacobian_->program.code.empty()
               ? vm_jacobian_.get()
               : nullptr;
  }

  [[nodiscard]] std::size_t dimension() const { return dimension_; }

  /// Builds a solver::OdeSystem whose rhs / rhs_batch / sparse_jacobian run
  /// on the selected backend, bound to `rates` (caller-owned; may change
  /// between calls). This is codegen::make_ode_system over native() and
  /// compiled_jacobian(), the same builder the estimator's objective uses.
  /// The system holds non-owning pointers into this Execution and its
  /// BuiltModel: both must outlive every system made from them. Each
  /// returned system owns its own scratch state: use one system per
  /// concurrent solve.
  [[nodiscard]] solver::OdeSystem make_system(
      const std::vector<double>* rates) const;

 private:
  Backend backend_ = Backend::kVm;
  std::string fallback_reason_;
  const models::BuiltModel* built_ = nullptr;
  std::size_t dimension_ = 0;
  std::shared_ptr<const codegen::NativeBackend> native_;
  std::shared_ptr<const codegen::CompiledJacobian> vm_jacobian_;
};

}  // namespace rms
