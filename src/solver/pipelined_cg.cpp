#include "src/solver/pipelined_cg.hpp"

#include <cmath>

#include "src/solver/field_ops.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {
/// Recompute r/u/w from their definitions every this many iterations.
constexpr int kReplacementFrequency = 25;
}  // namespace

SolveStats PipelinedCgSolver::solve(comm::Communicator& comm,
                                    const comm::HaloExchanger& halo,
                                    const DistOperator& a, Preconditioner& m,
                                    const comm::DistField& b,
                                    comm::DistField& x,
                                    comm::HaloFreshness x_fresh) {
  const auto snapshot = comm.costs().counters();
  SolveStats stats;

  const auto& d = a.decomposition();
  const int rank = a.rank();
  const int h = x.halo();
  comm::DistField r(d, rank, h), u(d, rank, h), w(d, rank, h);
  comm::DistField mm(d, rank, h), nn(d, rank, h);
  comm::DistField z(d, rank, h), q(d, rank, h), s(d, rank, h),
      p(d, rank, h);

  // One-member FieldSet views of the scalar fields drive every sweep.
  const SpanPlan& plan = a.span_plan();
  double b_norm2 = 0.0;
  a.local_dot_batch(comm, b, b, &b_norm2);
  b_norm2 = comm.allreduce_sum(b_norm2);
  if (b_norm2 == 0.0) {
    fill_interior(x, 0.0);
    stats.converged = true;
    stats.costs = comm.costs().since(snapshot);
    return stats;
  }
  const double threshold2 =
      opt_.rel_tolerance * opt_.rel_tolerance * b_norm2;

  a.residual_batch(comm, halo, b, x, r, x_fresh);  // r0 = b - A x0
  m.apply(comm, r, u);                             // u0 = M^-1 r0
  a.apply_batch(comm, halo, u, w);                 // w0 = A u0

  double gamma_old = 0.0;
  double alpha_old = 0.0;
  ConvergenceGuard guard(opt_);

  for (int k = 1; k <= opt_.max_iterations; ++k) {
    stats.iterations = k;

    // The single fused reduction of the iteration (local dots in one
    // sweep), completed before the precond+matvec that follows it. The
    // pipelined formulation would let it fly behind that work — m_k and
    // n_k depend only on w_k, never on the reduction result — while
    // completing it first lets the converging check skip that pair.
    const bool check = (k % opt_.check_frequency == 0);
    double local[3];
    a.local_dot3_batch(comm, r, u, w, check, local);
    comm.allreduce(std::span<double>(local, check ? 3 : 2),
                   comm::ReduceOp::kSum);
    const double gamma = local[0];
    const double delta = local[1];
    if (check) {
      const double rel = std::sqrt(local[2] / b_norm2);
      if (opt_.record_residuals) stats.residual_history.emplace_back(k, rel);
      if (local[2] <= threshold2) {
        stats.converged = true;
        stats.relative_residual = rel;
        break;
      }
      stats.failure = guard.check(rel);
      if (stats.failure != FailureKind::kNone) break;
    }

    // The work the pipelined formulation hides the reduction behind.
    m.apply(comm, w, mm);               // m_k = M^-1 w_k
    a.apply_batch(comm, halo, mm, nn);  // n_k = A m_k

    if (!ConvergenceGuard::finite(gamma) ||
        !ConvergenceGuard::finite(delta)) {
      stats.failure = FailureKind::kNanDetected;
      break;
    }
    double beta, alpha;
    if (k == 1) {
      beta = 0.0;
      if (delta == 0.0) {
        stats.failure = FailureKind::kBreakdown;
        break;
      }
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_old;
      const double denom = delta - beta * gamma / alpha_old;
      if (denom == 0.0 || !ConvergenceGuard::finite(denom)) {
        stats.failure = FailureKind::kBreakdown;
        break;
      }
      alpha = gamma / denom;
    }

    if (k == 1) {
      copy_interior<double>(nn, z);
      copy_interior<double>(mm, q);
      copy_interior<double>(w, s);
      copy_interior<double>(u, p);
    } else {
      const double one = 1.0;
      lincomb(comm, plan, &one, nn, &beta, z);  // z = n + beta z
      lincomb(comm, plan, &one, mm, &beta, q);  // q = m + beta q
      lincomb(comm, plan, &one, w, &beta, s);   // s = w + beta s
      lincomb(comm, plan, &one, u, &beta, p);   // p = u + beta p
    }
    const double neg_alpha = -alpha;
    axpy(comm, plan, &alpha, p, x);
    axpy(comm, plan, &neg_alpha, s, r);
    axpy(comm, plan, &neg_alpha, q, u);
    axpy(comm, plan, &neg_alpha, z, w);

    // Residual replacement (Cools & Vanroose): the auxiliary
    // recurrences accumulate rounding error much faster than plain CG —
    // badly so with a strong preconditioner — and the attainable
    // accuracy stagnates. Periodically recompute r, u, w from their
    // definitions; the search-direction recurrences continue unchanged.
    if (k % kReplacementFrequency == 0) {
      a.residual_batch(comm, halo, b, x, r);
      m.apply(comm, r, u);
      a.apply_batch(comm, halo, u, w);
    }

    gamma_old = gamma;
    alpha_old = alpha;
  }

  if (!stats.converged) {
    if (stats.failure == FailureKind::kNone)
      stats.failure = FailureKind::kMaxIters;
    double r_norm2 = 0.0;
    a.local_dot_batch(comm, r, r, &r_norm2);
    stats.relative_residual =
        std::sqrt(comm.allreduce_sum(r_norm2) / b_norm2);
  }
  stats.costs = comm.costs().since(snapshot);
  return stats;
}

}  // namespace minipop::solver
