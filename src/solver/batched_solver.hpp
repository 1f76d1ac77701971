// The solver cores: one lockstep Krylov/Chebyshev iteration advancing B
// independent right-hand sides over the SAME operator and decomposition.
// A scalar solve is the B = 1 case: its fields enter as zero-copy
// one-member FieldSet views (BarotropicSolver::solve, OneMemberSolver),
// so P-CSI and ChronGear each have exactly one iteration core.
//
// Why batching wins (paper §6 ensemble workload, Fig. 13): every
// iteration's stencil sweep reloads the same nine coefficient planes
// regardless of how many members ride along, the halo exchange sends one
// message per neighbor regardless of payload, and the convergence
// reduction is one allreduce whether it carries 1 or B partial sums.
// Batching B members amortizes all three: ~B× fewer messages and
// reductions per solve, coefficients loaded once per cell instead of
// once per cell per member.
//
// Bit-for-bit contract: member m of a batched solve produces EXACTLY the
// iterates, iteration count, residuals and solution bits of the same
// solve run alone (B = 1): batched kernels keep the per-point expression
// and accumulation order at every width (kernels.hpp), and vector
// allreduces combine element-wise in the same fixed rank order as
// one-element ones. The fp32 path holds the same contract; coefficients
// are rounded from the identical double recurrence once per member, and
// the fp32 kernels accumulate reductions in double. The golden-pin test
// (tests/test_golden.cpp) anchors B = 1 to recorded bits.
//
// Lockstep + masking: members share one iteration loop. A member that
// converges (or trips a guard) at a convergence check FREEZES — its x
// plane stops updating, exactly as if it had been solved alone — but its
// lanes keep riding in the batch until retirement
// (SolverOptions::batch_retire_fraction) compacts the survivors into a
// narrower batch. Retirement never changes any member's arithmetic,
// only the lane count. See DESIGN.md §10 for the policy discussion.
//
// Communication is blocking: each stencil sweep refreshes the
// aggregated halo before it runs, and each convergence check is one
// blocking vector allreduce.
#pragma once

#include <vector>

#include <memory>
#include <string>
#include <utility>

#include "src/comm/field_set.hpp"
#include "src/solver/iterative_solver.hpp"
#include "src/solver/lanczos.hpp"

namespace minipop::solver {

class CommAvoidEngine;

/// Outcome of one member of a batched solve: the SolveStats fields that
/// are per-member meaningful.
struct BatchMemberStats {
  /// Lockstep iteration at which this member froze (converged or
  /// failed), or the final iteration count if it ran to the end.
  int iterations = 0;
  bool converged = false;
  double relative_residual = 0.0;
  FailureKind failure = FailureKind::kNone;
  /// (iteration, relative residual) at each of this member's
  /// convergence checks, when SolverOptions::record_residuals is set.
  std::vector<std::pair<int, double>> residual_history;
};

/// Outcome of a batched solve.
struct BatchSolveStats {
  /// Per-member outcomes, indexed by the member's position in the batch
  /// handed to solve() (stable across retirement compactions).
  std::vector<BatchMemberStats> members;
  /// Total lockstep iterations the batch ran (max over members).
  int iterations = 0;
  /// Number of retirement compactions performed.
  int retirements = 0;
  /// Mixed-precision refinement sweeps (batched fp32 inner solves);
  /// 0 for plain fp64/fp32 batched solves.
  int refine_sweeps = 0;
  /// Per-rank communication/computation deltas during the whole batch
  /// solve (shared across members — halos and reductions are joint).
  comm::CostCounters costs;
};

/// Interface of the solver cores and their decorators. A guard failure
/// (divergence/stagnation/NaN) freezes THAT member and the batch keeps
/// iterating the others; at B = 1 that is the whole solve stopping.
/// Fault-injection halo and solver-vector hooks arm on one-member fp64
/// sets (DESIGN.md §8); hook_eigen_bounds applies at every width.
class BatchedSolver {
 public:
  virtual ~BatchedSolver() = default;

  /// Solve A x_m = b_m for every member, in place, starting from the
  /// x planes passed in. Collective across the communicator; all ranks
  /// must pass sets over the same decomposition with the same nb. A
  /// scalar DistField passes as a one-member view.
  virtual BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet& b,
      const comm::FieldSet& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) = 0;

  /// fp32 storage mirror of solve(): same lockstep loop on fp32 sets
  /// and the fp32 coefficient mirror (half the bytes per point and per
  /// aggregated halo message; reductions still accumulate in double).
  /// This is the inner engine of the mixed-precision decorator. The
  /// default errors so a solver without an fp32 path fails loudly rather
  /// than silently up-converting.
  virtual BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet32& b,
      const comm::FieldSet32& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale);

  virtual std::string name() const = 0;
};

/// Scalar outcome of a one-member solve: member 0's fields plus the
/// solve-wide refinement sweeps and cost deltas.
SolveStats single_member_stats(BatchSolveStats&& stats);

/// The IterativeSolver interface over a solver core or decorator stack:
/// every solve is a one-member batch on zero-copy views of b and x.
class OneMemberSolver final : public IterativeSolver {
 public:
  explicit OneMemberSolver(std::unique_ptr<BatchedSolver> batched);

  SolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::DistField& b,
      comm::DistField& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override {
    return single_member_stats(
        batched_->solve(comm, halo, a, m, b, x, x_fresh));
  }

  std::string name() const override { return batched_->name(); }
  BatchedSolver& batched() { return *batched_; }

 private:
  std::unique_ptr<BatchedSolver> batched_;
};

/// P-CSI: Preconditioned Classical Stiefel Iteration (paper Algorithm 2,
/// §3; the unpreconditioned CSI is from Hu et al., Euro-Par 2013 [20]).
/// A Chebyshev-type iteration over the eigenvalue interval [nu, mu] of
/// M^-1 A whose iteration body needs NO global reduction — only the
/// periodic convergence check does — which flattens the solver's
/// scaling curve at large core counts (paper Eq. 3, Figs. 8/10/11). The
/// recurrence scalars (omega, gamma, alpha) depend only on the bounds,
/// so all members share one iteration schedule; per-member state is just
/// the field planes and the convergence mask.
class BatchedPcsiSolver final : public BatchedSolver {
 public:
  BatchedPcsiSolver(EigenBounds bounds, const SolverOptions& options = {});
  ~BatchedPcsiSolver() override;

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet& b,
      const comm::FieldSet& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet32& b,
      const comm::FieldSet32& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return "pcsi"; }

  const EigenBounds& bounds() const { return bounds_; }
  /// Replace the Chebyshev interval (BatchedResilientSolver's Lanczos
  /// re-estimation reaches through this).
  void set_bounds(EigenBounds bounds);

 private:
  template <typename T>
  BatchSolveStats solve_t(comm::Communicator& comm,
                          const comm::HaloExchanger& halo,
                          const DistOperator& a, Preconditioner& m,
                          const comm::FieldSetT<T>& b,
                          const comm::FieldSetT<T>& x,
                          comm::HaloFreshness x_fresh);

  /// Communication-avoiding batched loop (SolverOptions::halo_depth > 1
  /// with a pointwise preconditioner): ONE grouped deep exchange of
  /// {x, dx, r} per group of up to k lockstep iterations, on deep-halo
  /// working copies of the whole batch. Per-member iterates, freeze
  /// decisions and retirement compactions are bitwise identical to the
  /// depth-1 lockstep loop.
  template <typename T>
  BatchSolveStats solve_comm_avoid_t(comm::Communicator& comm,
                                     const comm::HaloExchanger& halo,
                                     const DistOperator& a, Preconditioner& m,
                                     const comm::FieldSetT<T>& b,
                                     const comm::FieldSetT<T>& x);

  EigenBounds bounds_;
  SolverOptions opt_;
  /// Cached ghost-zone engine, rebuilt when the operator or resolved
  /// depth changes (shared by the fp64 and fp32 batched paths; the fp32
  /// coefficient mirrors live inside the engine).
  std::unique_ptr<CommAvoidEngine> ca_engine_;
  const DistOperator* ca_engine_op_ = nullptr;
};

/// Chronopoulos-Gear (paper Algorithm 1; refs [7, 9]) — POP's production
/// barotropic solver: a rearranged preconditioned CG whose two inner
/// products are taken against the same preconditioned residual, so they
/// fuse with the periodic convergence norm into ONE allreduce per
/// iteration (paper Eq. 2). Per-member scalar state {rho, sigma}; all
/// members' partial sums ride one grouped vector allreduce.
class BatchedChronGearSolver final : public BatchedSolver {
 public:
  explicit BatchedChronGearSolver(const SolverOptions& options = {});

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet& b,
      const comm::FieldSet& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet32& b,
      const comm::FieldSet32& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return "chrongear"; }

 private:
  template <typename T>
  BatchSolveStats solve_t(comm::Communicator& comm,
                          const comm::HaloExchanger& halo,
                          const DistOperator& a, Preconditioner& m,
                          const comm::FieldSetT<T>& b,
                          const comm::FieldSetT<T>& x,
                          comm::HaloFreshness x_fresh);

  SolverOptions opt_;
};

}  // namespace minipop::solver
