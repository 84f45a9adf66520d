// The one place a compiled model becomes a solver::OdeSystem.
//
// A model executes either on the bytecode VM (the optimized RHS program,
// optionally with the VM-compiled analytic Jacobian) or on an AOT-compiled
// native module. rms::Execution (backend selection) and the estimator's
// per-file solves (paper §4.3, Fig. 9) both wire their systems through
// make_ode_system, so the same inputs always integrate the same way.
#pragma once

#include <vector>

#include "codegen/jacobian.hpp"
#include "codegen/native_backend.hpp"
#include "solver/ode.hpp"
#include "vm/program.hpp"

namespace rms::codegen {

/// Builds an OdeSystem of dimension program.species_count whose closures
/// read the rate constants through `rates` (caller-owned; may change
/// between calls, so one system serves every parameter vector).
///
///   - `native` non-null: rhs / rhs_batch / sparse_jacobian run on the
///     native module (the Jacobian falls back to `jacobian` when the module
///     carries none);
///   - otherwise rhs and rhs_batch run `program` on the VM, and
///     sparse_jacobian runs `jacobian` when non-null.
///
/// sparse_jacobian is set exactly when an analytic Jacobian is available;
/// pair it with NewtonLinearSolver::kSparseLu. Every pointer is
/// non-owning and must outlive the returned system. Each system owns its
/// VM batch registers: use one system per concurrent solve.
[[nodiscard]] solver::OdeSystem make_ode_system(
    const vm::Program& program, const NativeBackend* native,
    const CompiledJacobian* jacobian, const std::vector<double>* rates);

}  // namespace rms::codegen
