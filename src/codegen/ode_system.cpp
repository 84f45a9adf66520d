#include "codegen/ode_system.hpp"

#include <memory>

#include "support/assert.hpp"
#include "vm/interpreter.hpp"

namespace rms::codegen {

solver::OdeSystem make_ode_system(const vm::Program& program,
                                  const NativeBackend* native,
                                  const CompiledJacobian* jacobian,
                                  const std::vector<double>* rates) {
  RMS_CHECK(rates != nullptr);
  solver::OdeSystem system;
  system.dimension = program.species_count;

  if (native != nullptr) {
    // Native: straight function-pointer calls, no scratch state at all.
    system.rhs = [native, rates](double t, const double* y, double* ydot) {
      native->rhs(t, y, rates->data(), ydot);
    };
    if (native->has_batch()) {
      system.rhs_batch = [native, rates](double t, const double* ys,
                                         double* ydots, std::size_t n) {
        native->rhs_batch(t, ys, rates->data(), ydots, n);
      };
    }
    if (native->has_jacobian()) {
      system.sparse_jacobian = [native, rates](double t, const double* y,
                                               linalg::CsrMatrix& out) {
        out.rows = out.cols = native->dimension();
        out.row_offsets = native->jacobian_row_offsets();
        out.col_indices = native->jacobian_col_indices();
        out.values.resize(out.col_indices.size());
        native->jacobian_values(t, y, rates->data(), out.values.data());
      };
    }
  } else {
    // VM: the interpreter is immutable and shareable; the batch entry point
    // needs a register file per concurrent caller, owned by the system.
    const vm::Interpreter interpreter(program);
    system.rhs = [interpreter, rates](double t, const double* y,
                                      double* ydot) {
      interpreter.run(t, y, rates->data(), ydot);
    };
    auto batch_scratch = std::make_shared<vm::Scratch>();
    system.rhs_batch = [interpreter, rates, batch_scratch](
                           double t, const double* ys, double* ydots,
                           std::size_t n) {
      interpreter.run_batch_shared_k(t, ys, rates->data(), ydots, n,
                                     *batch_scratch);
    };
  }
  if (!system.sparse_jacobian && jacobian != nullptr) {
    system.sparse_jacobian = SparseJacobianEvaluator(jacobian, rates);
  }
  return system;
}

}  // namespace rms::codegen
