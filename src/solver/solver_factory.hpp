// High-level facade mirroring POP's solvers module: pick a solver
// (pcg / chrongear / pcsi) and a preconditioner (identity / diagonal /
// block-evp), and get a ready-to-call barotropic solver. P-CSI's
// eigenvalue interval is estimated with Lanczos at construction
// (collective), exactly as POP does at initialization.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/evp/block_evp_preconditioner.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/batched_solver.hpp"
#include "src/solver/lanczos.hpp"
#include "src/solver/pcg.hpp"
#include "src/solver/pipelined_cg.hpp"

namespace minipop::solver {

enum class SolverKind { kPcg, kChronGear, kPcsi, kPipelinedCg };
enum class PreconditionerKind { kIdentity, kDiagonal, kBlockEvp };

SolverKind solver_kind_from_string(const std::string& s);
PreconditionerKind preconditioner_kind_from_string(const std::string& s);
Precision precision_from_string(const std::string& s);
std::string to_string(SolverKind k);
std::string to_string(PreconditionerKind k);

struct SolverConfig {
  SolverKind solver = SolverKind::kChronGear;
  PreconditionerKind preconditioner = PreconditionerKind::kDiagonal;
  SolverOptions options;
  evp::BlockEvpOptions evp;
  LanczosOptions lanczos;
  /// Route solves through the BatchedResilientSolver decorator
  /// (checkpoint restarts, P-CSI bounds re-estimation, fallback chain
  /// down to diagonal-preconditioned PCG). Fault-free iterates are
  /// bitwise identical with or without it; the decorator adds one
  /// agreement reduction per solve.
  bool resilient = true;
  RecoveryPolicy recovery;
};

/// One rank's fully-assembled barotropic solver. Construction is
/// collective across the communicator when the solver is P-CSI (Lanczos
/// runs inside).
class BarotropicSolver {
 public:
  BarotropicSolver(comm::Communicator& comm, const comm::HaloExchanger& halo,
                   const grid::CurvilinearGrid& grid,
                   const util::Field& depth,
                   const grid::NinePointStencil& stencil,
                   const grid::Decomposition& decomp,
                   const SolverConfig& config);

  /// Solve A x = b (x is both initial guess and result). Collective.
  /// `x_fresh` attests that x's halo was refreshed since its interior
  /// was last written (the model's barotropic step guarantees this).
  /// Runs the solver stack on zero-copy one-member views of b and x.
  SolveStats solve(comm::Communicator& comm, const comm::DistField& b,
                   comm::DistField& x,
                   comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale);

  /// Solve the B independent systems A x_i = b_i as one batch through
  /// the same stack — the mixed-precision and resilience settings of
  /// SolverConfig both compose with batching. P-CSI and
  /// ChronGear (at any precision) interleave the members into a
  /// DistFieldBatch and advance them in lockstep: ~B× fewer halo
  /// messages and allreduces, per-member results bit-identical to B
  /// separate solve() calls. PCG and pipelined CG have no lockstep core;
  /// their stack solves the members one at a time — same results, no
  /// batching win (see has_batched_path()).
  BatchSolveStats solve_batch(
      comm::Communicator& comm,
      std::span<const comm::DistField* const> bs,
      std::span<comm::DistField* const> xs,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale);

  /// True when this configuration runs a fused lockstep core (P-CSI or
  /// ChronGear at any precision). False means solve_batch() still works
  /// but solves member-by-member.
  bool has_batched_path() const { return batched_lockstep_; }

  const DistOperator& op() const { return op_; }
  Preconditioner& preconditioner() { return *precond_; }
  /// The mixed-precision decorator, or nullptr when options.precision
  /// is kFp64 (only P-CSI and ChronGear have an fp32 path).
  BatchedMixedPrecisionSolver* mixed() { return mixed_; }
  const SolverConfig& config() const { return config_; }
  /// Lanczos estimation details; only set for P-CSI.
  const std::optional<LanczosResult>& lanczos() const { return lanczos_; }
  /// The resilience decorator, or nullptr when config.resilient is off.
  BatchedResilientSolver* resilient() { return resilient_; }
  /// The assembled solver stack (never null).
  BatchedSolver& batched() { return *batched_; }
  /// e.g. "pcsi+block-evp".
  std::string description() const;

 private:
  SolverConfig config_;
  const comm::HaloExchanger* halo_;
  DistOperator op_;
  std::unique_ptr<Preconditioner> precond_;
  /// The solver stack: a lockstep core (pcsi/chrongear) or the
  /// member-by-member adapter over PCG / pipelined CG, under the
  /// optional mixed-precision and resilience decorators.
  std::unique_ptr<BatchedSolver> batched_;
  bool batched_lockstep_ = false;
  BatchedMixedPrecisionSolver* mixed_ = nullptr;  ///< view into batched_
  BatchedResilientSolver* resilient_ = nullptr;   ///< view into batched_
  std::optional<LanczosResult> lanczos_;
};

}  // namespace minipop::solver
