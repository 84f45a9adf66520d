// C source emission: the paper's actual compiler output format ("The output
// from the Equation Generator is a C code function that evaluates the
// ODEs"). The emitted translation units are self-contained:
//
//   void rms_ode_rhs(double t, const double* y, const double* k,
//                    double* ydot);
//   void rms_ode_rhs_batch(double t, const double* ys, const double* k,
//                          double* ydots, long n);
//   void rms_ode_jac(double t, const double* y, const double* k,
//                    double* jac);
//
// emit_c_unoptimized produces the naive form (one giant expression per
// equation — the machine-generated code that "stresses commercial compilers
// to the point of failure"); emit_c_optimized produces the temp-structured
// form after DistOpt + CSE. emit_c_batch emits the optimized scalar function
// followed by a loop that calls it once per lane over `n` lane-major
// contiguous states (lane l's state at ys + l * dim, the layout of
// vm::Interpreter::run_batch_shared_k), so the body is compiled once and
// every lane is bit-identical to a scalar call. emit_c_jacobian takes the
// *Jacobian's* optimized system (one equation per nonzero entry,
// codegen::differentiate order) and emits a CSR-fill function writing the
// nonzero values in the exact layout of codegen::CompiledJacobian.
//
// All four emitters stream into one output string (std::to_chars for every
// number): the native backend re-emits and hashes the whole unit on every
// construction, cache hits included.
#pragma once

#include <string>

#include "odegen/equation_table.hpp"
#include "opt/optimized_system.hpp"

namespace rms::codegen {

struct CEmitOptions {
  std::string function_name = "rms_ode_rhs";
};

std::string emit_c_unoptimized(const odegen::EquationTable& table,
                               const CEmitOptions& options = {});

std::string emit_c_optimized(const opt::OptimizedSystem& system,
                             const CEmitOptions& options = {});

/// Self-contained batched unit: the scalar function `options.function_name`
/// (byte-identical to emit_c_optimized's) followed by
/// `<function_name>_batch(t, ys, k, ydots, n)`, which calls it for each of
/// the n lanes. The system's species_count must be set (opt::optimize fills
/// it); it is the input stride, the equation count the output stride.
std::string emit_c_batch(const opt::OptimizedSystem& system,
                         const CEmitOptions& options = {});

/// CSR value fill for an optimized *Jacobian* system (entries in
/// codegen::differentiate CSR order): jac[e] = entry e.
std::string emit_c_jacobian(const opt::OptimizedSystem& jacobian_system,
                            const CEmitOptions& options = {});

/// Appends a coefficient literal exactly as printf would: "%.1f" for
/// integral values below 1e15 in magnitude, otherwise "%.17g" (which
/// round-trips every double).
void append_c_number(std::string& out, double value);

}  // namespace rms::codegen
