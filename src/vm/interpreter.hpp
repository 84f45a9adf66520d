// Bytecode interpreter for ODE right-hand-side programs.
//
// The interpreter itself is immutable after construction: run() is const
// and writes only to a Scratch register buffer, so one Interpreter (and the
// Program it points to) can be shared freely across estimator threads.
// Callers that care about the last nanosecond pass their own Scratch; the
// convenience overloads fall back to a thread_local one, which keeps the
// historical call sites both valid and data-race free.
//
// Dispatch is threaded (computed goto) on GCC/Clang with a portable switch
// fallback, and run_batch() evaluates n independent inputs in one pass over
// the tape — the register file becomes a lane-blocked SoA buffer so the
// per-instruction dispatch cost is amortized over every lane and the tape
// is streamed through cache exactly once per chunk.
#pragma once

#include <cstddef>
#include <vector>

#include "vm/program.hpp"

namespace rms::vm {

/// Caller-owned mutable state for Interpreter::run / run_batch. Reusable
/// across calls and across programs (buffers only ever grow). Not
/// thread-safe: one Scratch per thread.
class Scratch {
 public:
  /// Ensures capacity for `lanes` parallel evaluations of `program`.
  void prepare(const Program& program, std::size_t lanes = 1) {
    const std::size_t need = program.register_count * lanes;
    if (regs_.size() < need) regs_.resize(need);
  }

  [[nodiscard]] double* regs() { return regs_.data(); }

 private:
  std::vector<double> regs_;
};

class Interpreter {
 public:
  /// Number of batch lanes processed per pass over the tape: large enough
  /// to amortize dispatch, small enough that lane-blocked registers of a
  /// compacted program stay cache-resident.
  static constexpr std::size_t kBatchLanes = 16;

  explicit Interpreter(const Program& program) : program_(&program) {}

  /// Evaluates ydot = f(t, y, k) using caller-owned scratch registers.
  void run(double t, const double* y, const double* k, double* ydot,
           Scratch& scratch) const;

  /// Convenience overload using a thread_local Scratch.
  void run(double t, const double* y, const double* k, double* ydot) const;

  /// Vector-friendly overload (thread_local Scratch); resizes ydot.
  void run(double t, const std::vector<double>& y, const std::vector<double>& k,
           std::vector<double>& ydot) const;

  /// Batched evaluation: n independent inputs in one pass over the tape.
  /// Row-major lanes: ys[lane * species_count + i], ks[lane * rate_count
  /// + j], ydots[lane * output_count + i] (output_count falls back to
  /// species_count when zero, as in run()).
  void run_batch(double t, const double* ys, const double* ks, double* ydots,
                 std::size_t n, Scratch& scratch) const;

  /// Batched evaluation with one shared rate vector across all lanes — the
  /// finite-difference-Jacobian case, which perturbs y only.
  void run_batch_shared_k(double t, const double* ys, const double* k,
                          double* ydots, std::size_t n,
                          Scratch& scratch) const;

  [[nodiscard]] const Program& program() const { return *program_; }

 private:
  void run_lanes(double t, const double* ys, std::size_t y_stride,
                 const double* ks, std::size_t k_stride, double* ydots,
                 std::size_t out_stride, std::size_t lanes,
                 double* regs) const;

  const Program* program_;
};

}  // namespace rms::vm
