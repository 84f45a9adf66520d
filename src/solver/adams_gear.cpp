#include "solver/adams_gear.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/gmres.hpp"
#include "solver/fornberg.hpp"
#include "support/strings.hpp"

namespace rms::solver {

namespace {

constexpr double kSafety = 0.9;
constexpr double kMinShrink = 0.25;
constexpr double kMaxGrow = 4.0;
// d0 drift band before refactoring (the role of CVODE's dgmax, widened).
// At the band edge (d0 ratio 1.5x either way) the stale-d0 correction below
// bounds the extra per-iteration Newton error factor at ~1/3, costing a
// couple of extra iterations. A sparse refactorization costs about three
// (TC3 at 5% scale, n = 1229, on a 4-core Xeon: ~55 us to fill and refactor
// M against ~20 us for an RHS evaluation and a triangular solve), so the
// wide band pays.
constexpr double kDriftBand = 0.5;
constexpr int kMaxNewtonIterations = 7;

/// Stale-d0 correction (CVODE's 2/(1+gamrat) scaling): the
/// factored matrix is d0_old I - J but the residual uses the current d0,
/// so each eigenmode of the update is off by (d0_old - l)/(d0 - l), a
/// factor between 1 and d0_old/d0. Scaling the update by the harmonic
/// midpoint keeps the modified Newton contraction healthy across the
/// drift band without touching the fixed point.
double stale_d0_relax(double d0, double factored_d0) {
  return 2.0 / (1.0 + d0 / factored_d0);
}
constexpr int kMaxStepAttempts = 64;

}  // namespace

AdamsGear::AdamsGear(OdeSystem system, IntegrationOptions options)
    : system_(std::move(system)), options_(options) {
  options_.max_order = std::clamp(options_.max_order, 1, 5);
  const std::size_t n = system_.dimension;
  // The dense n x n Jacobian is allocated lazily in compute_jacobian(): the
  // matrix-free Krylov path must not pay n^2 memory.
  f_work_.resize(n);
  g_work_.resize(n);
  delta_.resize(n);
}

support::Status AdamsGear::initialize(double t0, const std::vector<double>& y0) {
  if (y0.size() != system_.dimension) {
    return support::invalid_argument("initial state dimension mismatch");
  }
  // Recycle history buffers: clear() would free the per-point state
  // vectors, and a re-initialized solver (the estimator re-solves each data
  // file hundreds of times) should reach steady state without reallocating.
  while (history_.size() > 1) history_.pop_back();
  if (history_.empty()) {
    history_.push_front(HistoryPoint{});
  }
  if (replay_ != nullptr &&
      (replay_->t0 != t0 || replay_->dimension != system_.dimension)) {
    return support::invalid_argument(
        "step recording does not start at this initial point");
  }
  history_.front().t = t0;
  history_.front().y = y0;
  if (output_ != nullptr) history_.front().output = output_->measure(y0);
  ++history_serial_;
  stats_ = IntegrationStats{};
  order_ = 1;
  accepts_at_order_ = 0;
  consecutive_rejects_ = 0;
  have_jacobian_ = false;
  jacobian_fresh_ = false;
  has_factorization_ = false;
  active_sparse_lu_ = nullptr;
  active_lu_record_.reset();
  if (step_recorder_ != nullptr) {
    step_recorder_->clear();
    step_recorder_->t0 = t0;
    step_recorder_->dimension = system_.dimension;
  }
  replay_cursor_ = 0;

  if (replay_ != nullptr) {
    // The recording fixes every step; h is never read.
  } else if (options_.initial_step > 0.0) {
    h_ = options_.initial_step;
  } else {
    system_.rhs(t0, y0.data(), f_work_.data());
    ++stats_.rhs_evaluations;
    const double ynorm = error_norm(y0, y0, options_.relative_tolerance,
                                    options_.absolute_tolerance);
    const double fnorm = error_norm(f_work_, y0, options_.relative_tolerance,
                                    options_.absolute_tolerance);
    h_ = fnorm > 1e-12 ? 0.001 * ynorm / fnorm : 1e-6;
    if (!(h_ > options_.min_step)) h_ = 1e-6;
  }
  initialized_ = true;
  return support::Status::ok();
}

void AdamsGear::compute_jacobian(double t, const std::vector<double>& y) {
  const std::size_t n = system_.dimension;
  if (jacobian_.rows() != n) jacobian_ = linalg::Matrix(n, n);
  if (system_.jacobian) {
    system_.jacobian(t, y.data(), jacobian_.data());
    ++stats_.jacobian_evaluations;
    jacobian_fresh_ = true;
    have_jacobian_ = true;
    return;
  }
  jac_f0_.resize(n);
  system_.rhs(t, y.data(), jac_f0_.data());
  ++stats_.rhs_evaluations;
  const std::vector<double>& f0 = jac_f0_;
  if (system_.rhs_batch) {
    // Batched forward differences: evaluate a chunk of perturbed states in
    // one pass over the RHS (one tape traversal in the bytecode case)
    // instead of one full sweep per column.
    constexpr std::size_t kChunk = 16;
    jac_ys_.resize(kChunk * n);
    jac_fs_.resize(kChunk * n);
    jac_deltas_.resize(kChunk);
    for (std::size_t j0 = 0; j0 < n; j0 += kChunk) {
      const std::size_t m = std::min(kChunk, n - j0);
      for (std::size_t c = 0; c < m; ++c) {
        const std::size_t j = j0 + c;
        jac_deltas_[c] = std::sqrt(1e-16) * std::max(std::fabs(y[j]), 1e-5);
        double* row = jac_ys_.data() + c * n;
        std::copy(y.begin(), y.end(), row);
        row[j] += jac_deltas_[c];
      }
      system_.rhs_batch(t, jac_ys_.data(), jac_fs_.data(), m);
      stats_.rhs_evaluations += m;
      for (std::size_t c = 0; c < m; ++c) {
        const double inv_delta = 1.0 / jac_deltas_[c];
        const double* f = jac_fs_.data() + c * n;
        for (std::size_t i = 0; i < n; ++i) {
          jacobian_(i, j0 + c) = (f[i] - f0[i]) * inv_delta;
        }
      }
    }
  } else {
    jac_y_pert_ = y;
    for (std::size_t j = 0; j < n; ++j) {
      const double delta =
          std::sqrt(1e-16) * std::max(std::fabs(y[j]), 1e-5);
      jac_y_pert_[j] = y[j] + delta;
      system_.rhs(t, jac_y_pert_.data(), f_work_.data());
      ++stats_.rhs_evaluations;
      jac_y_pert_[j] = y[j];
      const double inv_delta = 1.0 / delta;
      for (std::size_t i = 0; i < n; ++i) {
        jacobian_(i, j) = (f_work_[i] - f0[i]) * inv_delta;
      }
    }
  }
  ++stats_.jacobian_evaluations;
  jacobian_fresh_ = true;
  have_jacobian_ = true;
}

void AdamsGear::compute_sparse_jacobian(double t,
                                        const std::vector<double>& y) {
  RMS_CHECK_MSG(static_cast<bool>(system_.sparse_jacobian),
                "kSparseLu requires OdeSystem::sparse_jacobian");
  system_.sparse_jacobian(t, y.data(), sparse_jacobian_);
  ++stats_.jacobian_evaluations;
  jacobian_fresh_ = true;
  have_jacobian_ = true;
}

bool AdamsGear::iteration_structure_matches() const {
  const linalg::CsrMatrix& jac = sparse_jacobian_;
  return iteration_matrix_.rows == jac.rows &&
         iteration_source_.size() == iteration_matrix_.values.size() &&
         iteration_diagonal_.size() == jac.rows &&
         // The symbolic merge depends only on J's pattern; compare it
         // entry-for-entry against the pattern the cache was built from.
         iteration_matrix_.row_offsets.size() == jac.row_offsets.size() &&
         [&] {
           std::size_t e_jac = 0;
           for (std::size_t e = 0; e < iteration_source_.size(); ++e) {
             if (iteration_source_[e] == kNoSource) continue;
             if (iteration_source_[e] != e_jac ||
                 e_jac >= jac.col_indices.size() ||
                 iteration_matrix_.col_indices[e] != jac.col_indices[e_jac]) {
               return false;
             }
             ++e_jac;
           }
           return e_jac == jac.col_indices.size();
         }();
}

void AdamsGear::build_iteration_structure() {
  // Symbolic merge of J's pattern with the full diagonal; J's per-row
  // columns are assumed sorted (true for compiled Jacobians and from_dense
  // conversions). Each M entry records which J entry feeds it (kNoSource
  // for a diagonal inserted where J has none), so refactorizations rewrite
  // values without touching the structure.
  const std::size_t n = system_.dimension;
  const linalg::CsrMatrix& jac = sparse_jacobian_;
  RMS_CHECK(jac.rows == n && jac.cols == n);
  linalg::CsrMatrix& m = iteration_matrix_;
  m.rows = m.cols = n;
  m.row_offsets.clear();
  m.row_offsets.reserve(n + 1);
  m.row_offsets.push_back(0);
  m.col_indices.clear();
  m.col_indices.reserve(jac.nonzero_count() + n);
  iteration_source_.clear();
  iteration_source_.reserve(jac.nonzero_count() + n);
  iteration_diagonal_.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    bool wrote_diagonal = false;
    for (std::uint32_t e = jac.row_offsets[r]; e < jac.row_offsets[r + 1];
         ++e) {
      const std::uint32_t c = jac.col_indices[e];
      if (!wrote_diagonal && c >= r) {
        if (c == r) {
          iteration_diagonal_[r] =
              static_cast<std::uint32_t>(m.col_indices.size());
          m.col_indices.push_back(c);
          iteration_source_.push_back(e);
          wrote_diagonal = true;
          continue;
        }
        iteration_diagonal_[r] =
            static_cast<std::uint32_t>(m.col_indices.size());
        m.col_indices.push_back(static_cast<std::uint32_t>(r));
        iteration_source_.push_back(kNoSource);
        wrote_diagonal = true;
      }
      m.col_indices.push_back(c);
      iteration_source_.push_back(e);
    }
    if (!wrote_diagonal) {
      iteration_diagonal_[r] =
          static_cast<std::uint32_t>(m.col_indices.size());
      m.col_indices.push_back(static_cast<std::uint32_t>(r));
      iteration_source_.push_back(kNoSource);
    }
    m.row_offsets.push_back(static_cast<std::uint32_t>(m.col_indices.size()));
  }
  m.values.resize(m.col_indices.size());
}

bool AdamsGear::factor_sparse_iteration_matrix(double d0) {
  // M = d0*I - J into the cached structure: values only, unless the
  // Jacobian pattern changed since the structure was built.
  if (!iteration_structure_matches()) build_iteration_structure();
  const linalg::CsrMatrix& jac = sparse_jacobian_;
  linalg::CsrMatrix& m = iteration_matrix_;
  for (std::size_t e = 0; e < m.values.size(); ++e) {
    m.values[e] =
        iteration_source_[e] == kNoSource ? 0.0 : -jac.values[iteration_source_[e]];
  }
  for (std::size_t r = 0; r < m.rows; ++r) {
    m.values[iteration_diagonal_[r]] += d0;
  }
  ++stats_.factorizations;
  if (!sparse_lu_.factor(m)) return false;
  factored_d0_ = d0;
  has_factorization_ = true;
  active_sparse_lu_ = &sparse_lu_;
  if (step_recorder_ != nullptr) {
    // Recorded factorizations outlive this solver's next refactor.
    active_lu_record_ = std::make_shared<const linalg::SparseLu>(sparse_lu_);
  }
  return true;
}

bool AdamsGear::factor_iteration_matrix(double d0) {
  // M = d0 * I - J.
  const std::size_t n = system_.dimension;
  linalg::Matrix m = jacobian_;
  for (std::size_t i = 0; i < n; ++i) {
    double* row = m.row(i);
    for (std::size_t j = 0; j < n; ++j) row[j] = -row[j];
    row[i] += d0;
  }
  ++stats_.factorizations;
  if (!lu_.factor(m)) return false;
  factored_d0_ = d0;
  has_factorization_ = true;
  return true;
}

support::Status AdamsGear::newton_solve(double t_new,
                                        const std::vector<double>& d,
                                        std::vector<double>& y,
                                        double relax, bool& converged) {
  const std::size_t n = system_.dimension;
  const int q_points = static_cast<int>(d.size());  // unknown + history
  converged = false;

  // Constant part of the corrector: sum_{i>=1} d_i y_{n-i}.
  history_term_.assign(n, 0.0);
  for (int i = 1; i < q_points; ++i) {
    const std::vector<double>& yh = history_[i - 1].y;
    for (std::size_t j = 0; j < n; ++j) history_term_[j] += d[i] * yh[j];
  }
  const std::vector<double>& history_term = history_term_;

  const bool matrix_free = options_.newton_linear_solver ==
                           NewtonLinearSolver::kMatrixFreeGmres;
  std::vector<double> y_pert;
  std::vector<double> f_pert;
  double previous_norm = 0.0;
  for (int iteration = 0; iteration < kMaxNewtonIterations; ++iteration) {
    system_.rhs(t_new, y.data(), f_work_.data());
    ++stats_.rhs_evaluations;
    ++stats_.newton_iterations;
    for (std::size_t j = 0; j < n; ++j) {
      g_work_[j] = -(d[0] * y[j] + history_term[j] - f_work_[j]);
    }
    if (matrix_free) {
      // JFNK: M v = d0 v - J v with J v by a directional difference around
      // the current Newton iterate.
      const double y_norm = linalg::norm2(y);
      auto apply = [&](const linalg::Vector& v, linalg::Vector& out) {
        const double v_norm = linalg::norm2(v);
        out.resize(n);
        if (v_norm == 0.0) {
          for (double& o : out) o = 0.0;
          return;
        }
        const double sigma = 1.0e-8 * (1.0 + y_norm) / v_norm;
        y_pert.resize(n);
        for (std::size_t j = 0; j < n; ++j) y_pert[j] = y[j] + sigma * v[j];
        f_pert.resize(n);
        system_.rhs(t_new, y_pert.data(), f_pert.data());
        ++stats_.rhs_evaluations;
        const double inv_sigma = 1.0 / sigma;
        for (std::size_t j = 0; j < n; ++j) {
          out[j] = d[0] * v[j] - (f_pert[j] - f_work_[j]) * inv_sigma;
        }
      };
      linalg::GmresOptions gmres_options;
      gmres_options.tolerance = options_.krylov_tolerance;
      delta_.assign(n, 0.0);
      const auto gm = linalg::gmres(apply, g_work_, delta_, gmres_options);
      if (!gm.converged && gm.relative_residual > 0.1) {
        return support::Status::ok();  // treat as Newton failure -> retry
      }
    } else if (options_.newton_linear_solver ==
               NewtonLinearSolver::kSparseLu) {
      active_sparse_lu_->solve(g_work_, delta_);
    } else {
      lu_.solve(g_work_, delta_);
    }
    if (relax != 1.0) {
      for (std::size_t j = 0; j < n; ++j) delta_[j] *= relax;
    }
    for (std::size_t j = 0; j < n; ++j) y[j] += delta_[j];

    const double norm = error_norm(delta_, y, options_.relative_tolerance,
                                   options_.absolute_tolerance);
    if (!std::isfinite(norm)) return support::Status::ok();  // diverged
    if (norm < 0.03) {
      converged = true;
      return support::Status::ok();
    }
    // Divergence check: the modified Newton contraction should shrink.
    if (iteration > 0 && norm > 2.0 * previous_norm) return support::Status::ok();
    previous_norm = norm;
  }
  return support::Status::ok();
}

support::Status AdamsGear::step() {
  const std::size_t n = system_.dimension;
  const double t = history_.front().t;
  bool refreshed_jacobian_this_step = false;

  for (int attempt = 0; attempt < kMaxStepAttempts; ++attempt) {
    const int q = static_cast<int>(
        std::min<std::size_t>(history_.size(), static_cast<std::size_t>(order_)));
    const double t_new = t + h_;
    if (!(t_new > t)) {
      // h below the resolution of t: the BDF nodes would coincide.
      return support::numeric_error("step size underflow");
    }

    // BDF weights on [t_new, history...] for the first derivative at t_new.
    step_nodes_.resize(q + 1);
    step_nodes_[0] = t_new;
    for (int i = 0; i < q; ++i) step_nodes_[i + 1] = history_[i].t;
    fornberg_weights(t_new, step_nodes_.data(), q + 1, 1, weights_);
    step_d_.resize(q + 1);
    for (int i = 0; i <= q; ++i) {
      step_d_[i] = weights_[(q + 1) + i];  // derivative row
    }
    const std::vector<double>& d = step_d_;

    // (Re)factor the iteration matrix when d0 drifted or J was refreshed.
    // The matrix-free path has no Jacobian or factorization at all.
    if (options_.newton_linear_solver != NewtonLinearSolver::kMatrixFreeGmres) {
      const bool sparse =
          options_.newton_linear_solver == NewtonLinearSolver::kSparseLu;
      if (!have_jacobian_) {
        if (sparse) {
          compute_sparse_jacobian(t, history_.front().y);
        } else {
          compute_jacobian(t, history_.front().y);
        }
      }
      const bool d0_drifted =
          !has_factorization_ ||
          std::fabs(d[0] - factored_d0_) > kDriftBand * std::fabs(factored_d0_);
      if (d0_drifted || jacobian_fresh_) {
        jacobian_fresh_ = false;
        const bool factored = sparse ? factor_sparse_iteration_matrix(d[0])
                                     : factor_iteration_matrix(d[0]);
        if (!factored) {
          h_ *= 0.5;
          ++stats_.rejected_steps;
          continue;
        }
      }
    }

    // Predict, then correct by Newton. The predictor extrapolates through
    // order + 1 points when available: it then has the corrector's order,
    // so corrector - predictor estimates the local truncation term.
    const int predictor_points = interpolation_points();
    predict(t_new, predictor_points, y_pred_);
    y_new_ = y_pred_;
    // Relax each Newton update against a stale factored d0 (the
    // matrix-free path factors nothing).
    const double relax = has_factorization_ && factored_d0_ != d[0]
                             ? stale_d0_relax(d[0], factored_d0_)
                             : 1.0;
    bool converged = false;
    RMS_RETURN_IF_ERROR(newton_solve(t_new, d, y_new_, relax, converged));
    if (!converged) {
      // Retry once with a fresh Jacobian at the current state; afterwards
      // only a smaller step can help. (The matrix-free path has no Jacobian
      // to refresh, so it goes straight to the smaller step.)
      if (!refreshed_jacobian_this_step &&
          options_.newton_linear_solver !=
              NewtonLinearSolver::kMatrixFreeGmres) {
        refreshed_jacobian_this_step = true;
        const bool sparse =
            options_.newton_linear_solver == NewtonLinearSolver::kSparseLu;
        if (sparse) {
          compute_sparse_jacobian(t, history_.front().y);
        } else {
          compute_jacobian(t, history_.front().y);
        }
        const bool factored = sparse ? factor_sparse_iteration_matrix(d[0])
                                     : factor_iteration_matrix(d[0]);
        if (!factored) h_ *= 0.5;
        jacobian_fresh_ = false;
        ++stats_.rejected_steps;
        continue;
      }
      h_ *= 0.5;
      ++stats_.rejected_steps;
      ++consecutive_rejects_;
      if (h_ < options_.min_step) {
        return support::numeric_error("Newton failed at minimum step size");
      }
      continue;
    }

    // Local error estimate: corrector minus predictor, scaled by order.
    err_vec_.resize(n);
    const double scale = 1.0 / static_cast<double>(q + 1);
    for (std::size_t j = 0; j < n; ++j) {
      err_vec_[j] = (y_new_[j] - y_pred_[j]) * scale;
    }
    const double err = error_norm(err_vec_, y_new_, options_.relative_tolerance,
                                  options_.absolute_tolerance);

    if (err <= 1.0 || h_ <= options_.min_step) {
      // Accept the step. Recycle the oldest history point's storage so the
      // steady-state loop performs no allocation.
      push_history(t_new);
      ++stats_.steps;
      consecutive_rejects_ = 0;
      ++accepts_at_order_;

      // Order raise heuristic: after a stretch of clean accepts at this
      // order, try the next one (history permitting).
      if (order_ < options_.max_order && accepts_at_order_ >= order_ + 2 &&
          history_.size() > static_cast<std::size_t>(order_)) {
        ++order_;
        accepts_at_order_ = 0;
      }
      if (step_recorder_ != nullptr &&
          options_.newton_linear_solver == NewtonLinearSolver::kSparseLu) {
        record_step(t_new, predictor_points, relax);
      }
      const double grow =
          err > 1e-10
              ? kSafety * std::pow(1.0 / err, 1.0 / static_cast<double>(q + 1))
              : kMaxGrow;
      h_ *= std::clamp(grow, kMinShrink, kMaxGrow);
      return support::Status::ok();
    }

    // Reject: shrink, possibly drop the order.
    ++stats_.rejected_steps;
    ++consecutive_rejects_;
    if (consecutive_rejects_ >= 2 && order_ > 1) {
      --order_;
      accepts_at_order_ = 0;
    }
    const double shrink =
        kSafety * std::pow(1.0 / err, 1.0 / static_cast<double>(q + 1));
    h_ *= std::clamp(shrink, kMinShrink, 0.9);
    if (!(h_ > 0.0) || !std::isfinite(h_)) {
      return support::numeric_error("step size underflow");
    }
  }
  return support::numeric_error("step repeatedly rejected");
}

void AdamsGear::push_history(double t_new) {
  // Recycle the oldest history point's storage so the steady-state loop
  // performs no allocation.
  HistoryPoint recycled;
  if (history_.size() >= static_cast<std::size_t>(options_.max_order) + 2) {
    recycled = std::move(history_.back());
    history_.pop_back();
  }
  recycled.t = t_new;
  recycled.y.swap(y_new_);
  if (output_ != nullptr) recycled.output = output_->measure(recycled.y);
  history_.push_front(std::move(recycled));
  ++history_serial_;
}

void AdamsGear::record_step(double t_new, int predictor_points,
                            double relax) {
  StepRecording& out = *step_recorder_;
  StepRecording::Step step;
  step.t = t_new;
  step.weights = out.weights.size();
  step.weight_count = static_cast<int>(step_d_.size());
  step.predictor_points = predictor_points;
  step.output_points = interpolation_points();
  step.lu = active_lu_record_;
  step.factored_d0 = factored_d0_;
  step.relaxed = relax != 1.0;
  out.steps.push_back(std::move(step));
  out.weights.insert(out.weights.end(), step_d_.begin(), step_d_.end());
  // The accepted state is already the newest history point.
  const std::vector<double>& y = history_.front().y;
  const std::size_t n = system_.dimension;
  const std::size_t offset = out.updates.size();
  out.updates.resize(offset + n);
  for (std::size_t j = 0; j < n; ++j) {
    out.updates[offset + j] = static_cast<float>(y[j] - y_pred_[j]);
  }
}

support::Status AdamsGear::replay_step() {
  if (replay_cursor_ >= replay_->steps.size()) {
    return support::numeric_error("step recording ends before the target");
  }
  const StepRecording::Step& step = replay_->steps[replay_cursor_];
  const std::size_t n = system_.dimension;
  const int history_points = static_cast<int>(history_.size());
  // The recording indexes history points and flat buffers; check it
  // against this integration before trusting it.
  if (step.weight_count < 2 || step.weight_count - 1 > history_points ||
      step.predictor_points < 1 || step.predictor_points > history_points ||
      step.output_points < 1 ||
      step.output_points > std::min(history_points + 1,
                                    options_.max_order + 2) ||
      step.weights + static_cast<std::size_t>(step.weight_count) >
          replay_->weights.size() ||
      (replay_cursor_ + 1) * n > replay_->updates.size() ||
      step.lu == nullptr || !(step.t > history_.front().t)) {
    return support::internal_error("step recording does not match the solve");
  }
  const double* weights = replay_->weights.data() + step.weights;
  step_d_.assign(weights, weights + step.weight_count);

  predict(step.t, step.predictor_points, y_pred_);
  const float* update = replay_->updates.data() + replay_cursor_ * n;
  y_new_.resize(n);
  for (std::size_t j = 0; j < n; ++j) y_new_[j] = y_pred_[j] + update[j];

  active_sparse_lu_ = step.lu.get();
  factored_d0_ = step.factored_d0;
  has_factorization_ = true;
  const double relax =
      step.relaxed ? stale_d0_relax(step_d_[0], factored_d0_) : 1.0;
  bool converged = false;
  RMS_RETURN_IF_ERROR(newton_solve(step.t, step_d_, y_new_, relax, converged));
  if (!converged) {
    return support::numeric_error(support::str_format(
        "replayed step %zu did not converge at t = %g", replay_cursor_,
        step.t));
  }
  push_history(step.t);
  ++stats_.steps;
  ++replay_cursor_;
  // Records up to the next step interpolate through output_points history
  // points, as in the recorded solve.
  order_ = step.output_points - 1;
  return support::Status::ok();
}

int AdamsGear::interpolation_points() const {
  return static_cast<int>(std::min<std::size_t>(
      history_.size(), static_cast<std::size_t>(order_) + 1));
}

void AdamsGear::predict(double t, int points, std::vector<double>& y_out) {
  interp_nodes_.resize(points);
  for (int i = 0; i < points; ++i) interp_nodes_[i] = history_[i].t;
  fornberg_weights(t, interp_nodes_.data(), points, 0, interp_w_);
  combine_history(interp_w_.data(), points, y_out);
}

const double* AdamsGear::record_weights(double t, int points) {
  if (record_basis_serial_ != history_serial_ ||
      record_basis_.size() != points) {
    RMS_CHECK(points <= LagrangeBasis::kMaxNodes);
    std::array<double, LagrangeBasis::kMaxNodes> nodes;
    for (int i = 0; i < points; ++i) {
      nodes[i] = history_[i].t;
      record_outputs_[i] = history_[i].output;
    }
    record_basis_.reset(nodes.data(), points);
    record_basis_serial_ = history_serial_;
  }
  record_basis_.weights(t, record_w_.data());
  return record_w_.data();
}

void AdamsGear::combine_history(const double* w, int points,
                                std::vector<double>& y_out) const {
  const std::size_t n = system_.dimension;
  y_out.assign(n, 0.0);
  for (int i = 0; i < points; ++i) {
    const std::vector<double>& y = history_[i].y;
    const double wi = w[i];
    for (std::size_t j = 0; j < n; ++j) y_out[j] += wi * y[j];
  }
}

support::Status AdamsGear::advance(double t_target) {
  if (!initialized_) {
    return support::Status(support::StatusCode::kFailedPrecondition,
                           "initialize() must be called first");
  }
  // Only the newest step's interval can be interpolated; an earlier target
  // would extrapolate the history polynomial backwards.
  const double earliest =
      history_.size() > 1 ? history_[1].t : history_.front().t;
  if (t_target < earliest) {
    return support::invalid_argument(
        support::str_format("cannot integrate backwards: target %g < %g",
                            t_target, earliest));
  }
  std::size_t steps = 0;
  // h is the error controller's, never clamped to the target: the loop
  // stops as soon as the newest accepted step passes t_target, so the
  // target lies inside the newest history interval and is interpolated.
  // Clamping h to every record gap would make h track the record grid
  // instead of the solution, which churns d0 and forces constant
  // refactorization on densely-sampled files.
  while (history_.front().t < t_target) {
    RMS_RETURN_IF_ERROR(replay_ != nullptr ? replay_step() : step());
    if (++steps > options_.max_steps_per_call) {
      return support::numeric_error("max_steps_per_call exceeded");
    }
  }
  return support::Status::ok();
}

support::Status AdamsGear::advance_to(double t_target,
                                      std::vector<double>& y_out) {
  RMS_RETURN_IF_ERROR(advance(t_target));
  if (history_.front().t == t_target) {
    y_out = history_.front().y;
  } else {
    const int points = interpolation_points();
    combine_history(record_weights(t_target, points), points, y_out);
  }
  return support::Status::ok();
}

support::Status AdamsGear::advance_to_observed(double t_target,
                                               double& value) {
  if (output_ == nullptr) {
    return support::Status(support::StatusCode::kFailedPrecondition,
                           "set_output() must be called before initialize()");
  }
  RMS_RETURN_IF_ERROR(advance(t_target));
  if (history_.front().t == t_target) {
    value = history_.front().output;
    return support::Status::ok();
  }
  const int points = interpolation_points();
  const double* w = record_weights(t_target, points);
  value = 0.0;
  for (int i = 0; i < points; ++i) value += w[i] * record_outputs_[i];
  return support::Status::ok();
}

}  // namespace rms::solver
