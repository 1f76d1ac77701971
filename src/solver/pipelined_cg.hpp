// Pipelined preconditioned CG (Ghysels & Vanroose, Parallel Computing
// 2014 — the paper's ref [16] and the main alternative approach its §7
// discusses): instead of removing global reductions like P-CSI, fuse
// both inner products into ONE reduction per iteration and restructure
// the recurrences so that reduction can fly behind the matvec and
// preconditioner application that follow it.
//
// Implemented here as the "other road" baseline the paper chose not to
// take, in blocking form: each iteration completes its one fused
// reduction before the precond+matvec that the pipelined formulation
// would hide it behind. The virtual-MPI backend has no asynchronous
// progress, so hiding cannot pay on this substrate (DESIGN.md §7). The
// algorithmic properties — one fused reduction per iteration, extra
// vector updates, identical Krylov convergence — are all real and
// measured, and the perf model (bench_ablation_pipelined) credits the
// latency hiding the method would get at scale.
//
// Known limitations (inherent to the method, discussed by Ghysels &
// Vanroose and Cools et al.):
//  * the auxiliary recurrences amplify rounding error, so the attainable
//    residual stagnates above plain CG's even with the periodic residual
//    replacement implemented here; use rel_tolerance >= ~1e-10;
//  * any asymmetry of the preconditioner is amplified too — with
//    block-EVP the factory tightens the tile accuracy to 1e-8
//    automatically, and warm-started solves already near convergence can
//    still stagnate.
// Both are reasons the paper's Chebyshev route is the better fit for
// POP's tight-tolerance, warm-started production solves.
#pragma once

#include "src/solver/iterative_solver.hpp"

namespace minipop::solver {

class PipelinedCgSolver final : public IterativeSolver {
 public:
  explicit PipelinedCgSolver(const SolverOptions& options = {})
      : opt_(options) {}

  SolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::DistField& b,
      comm::DistField& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return "pipecg"; }

 private:
  SolverOptions opt_;
};

}  // namespace minipop::solver
