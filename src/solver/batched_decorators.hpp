// Decorators over the solver cores, composing SolverConfig's precision
// and resilience settings at any batch width (a scalar solve is the
// one-member case):
//
//   BatchedMixedPrecisionSolver — fp32/mixed arithmetic over lockstep
//     sweeps. kFp32 demotes the whole set and runs the core's fp32
//     storage path; kMixed runs an fp64 outer refinement loop whose
//     per-sweep correction is ONE fp32 inner solve (members that have
//     reached the fp64 tolerance get their residual plane zeroed, so the
//     inner solve's zero-RHS early-out freezes them instantly and the
//     batch stops paying for them after the next retirement compaction).
//
//   BatchedResilientSolver — detect → recover → fall back with
//     per-member recovery: each attempt ends with one B-element kMax
//     agreement allreduce of the members' failure codes; members that
//     converged are final, and ONLY the failed members are gathered
//     into a narrow recovery sub-batch that walks the chain (repair a
//     corrupted operator → escalate precision → Lanczos re-estimation →
//     checkpoint restart → fallback solvers). One diverging member
//     therefore never freezes or restarts the healthy rest of the batch.
//
//   SequentialBatchedSolver — adapts a scalar IterativeSolver (PCG,
//     pipelined CG: no lockstep core) to the BatchedSolver interface by
//     solving members one at a time, so every SolverConfig keeps a
//     working solve_batch and the same resilience decorator.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/solver/batched_solver.hpp"
#include "src/solver/lanczos.hpp"

namespace minipop::solver {

struct RecoveryPolicy {
  /// Checkpoint restarts of the primary solver before falling back.
  int max_restarts = 2;
  /// Re-run Lanczos (once per solve) when a P-CSI primary diverges or
  /// stagnates — the classic stale-interval failure.
  bool reestimate_bounds = true;
  LanczosOptions lanczos;
  /// Walk the fallback chain after the primary is out of options.
  bool fallback = true;
};

/// One recorded recovery transition.
struct RecoveryEvent {
  FailureKind failure;  ///< worst agreed failure of the attempt
  std::string solver;   ///< solver that failed
  /// repair_operator | escalate_precision | reestimate_bounds | restart |
  /// fallback | give_up
  std::string action;
  int attempt;          ///< 0-based attempt ordinal within the solve
  int iterations;       ///< iterations spent in the failed attempt
  /// How many members of the batch failed together and entered the
  /// transition (1 for a scalar solve).
  int members = 1;
};

/// Reduced-precision decorator. `fp64_twin` must be a BatchedPcsiSolver
/// or BatchedChronGearSolver; it defines the lockstep iteration run at
/// every precision and is the escalation target.
class BatchedMixedPrecisionSolver final : public BatchedSolver {
 public:
  BatchedMixedPrecisionSolver(std::unique_ptr<BatchedSolver> fp64_twin,
                              const SolverOptions& options);

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet& b,
      const comm::FieldSet& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  /// fp32 storage entry point: delegate straight to the twin's fp32
  /// core (the decorator's own job — choosing the arithmetic — is
  /// already decided by the caller here).
  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet32& b,
      const comm::FieldSet32& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  /// e.g. "mixed(pcsi)"; the precision prefix names the
  /// configured mode even while escalation forces fp64.
  std::string name() const override;

  Precision precision() const { return opt_.precision; }
  /// Escalation switch (BatchedResilientSolver): true routes solves
  /// through the fp64 twin until reset.
  void set_forced_fp64(bool forced) { forced_fp64_ = forced; }
  bool forced_fp64() const { return forced_fp64_; }

  BatchedSolver& fp64_twin() { return *twin_; }
  /// The wrapped batched P-CSI, or nullptr for a ChronGear twin (bounds
  /// re-estimation reaches through this; the fp32/mixed paths read the
  /// twin's bounds at solve time, so set_bounds needs no mirroring).
  BatchedPcsiSolver* pcsi() { return pcsi_; }

 private:
  BatchSolveStats solve_fp32(comm::Communicator& comm,
                             const comm::HaloExchanger& halo,
                             const DistOperator& a, Preconditioner& m,
                             const comm::FieldSet& b,
                             const comm::FieldSet& x);
  BatchSolveStats solve_mixed(comm::Communicator& comm,
                              const comm::HaloExchanger& halo,
                              const DistOperator& a, Preconditioner& m,
                              const comm::FieldSet& b,
                              const comm::FieldSet& x,
                              comm::HaloFreshness x_fresh);
  /// Fresh inner core for one refinement solve, configured with the
  /// refine_* knobs and the twin's CURRENT eigenvalue bounds.
  std::unique_ptr<BatchedSolver> make_inner() const;

  std::unique_ptr<BatchedSolver> twin_;
  BatchedPcsiSolver* pcsi_ = nullptr;     ///< view into twin_, if P-CSI
  BatchedChronGearSolver* cg_ = nullptr;  ///< view into twin_, if ChronGear
  SolverOptions opt_;
  bool forced_fp64_ = false;
};

/// Resilience decorator with per-member recovery (see the file
/// comment). A CommTimeoutError or CorruptPayloadError from an attempt
/// is absorbed: the team is fenced with Communicator::resync() and the
/// attempt counts as a typed comm failure, so a dropped or mangled
/// message costs one restart instead of a hang. Every transition is
/// recorded as a RecoveryEvent.
class BatchedResilientSolver final : public BatchedSolver {
 public:
  explicit BatchedResilientSolver(std::unique_ptr<BatchedSolver> primary,
                                  RecoveryPolicy policy = {});

  /// Append a batched fallback stage (tried in order).
  void add_fallback(std::unique_ptr<BatchedSolver> solver,
                    bool use_diagonal_precond = false);

  /// Append a SCALAR fallback stage: the failed members are solved one
  /// at a time through `solver` — the last-resort configuration that
  /// shares no code with the lockstep cores. With `use_diagonal_precond`
  /// a stage runs with a diagonal preconditioner built from the operator
  /// instead of the caller's, which cannot itself be the failure source.
  void add_scalar_fallback(std::unique_ptr<IterativeSolver> solver,
                           bool use_diagonal_precond = false);

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet& b,
      const comm::FieldSet& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override;

  /// Recovery transitions recorded over this solver's lifetime.
  const std::vector<RecoveryEvent>& events() const { return events_; }
  void clear_events() { events_.clear(); }

  BatchedSolver& primary() { return *chain_.front().batched; }

 private:
  /// One stage of the recovery chain: a batched solver, or a scalar
  /// solver run member-by-member (exactly one of the two is set).
  struct Stage {
    std::unique_ptr<BatchedSolver> batched;
    std::unique_ptr<IterativeSolver> scalar;
    bool use_diagonal_precond = false;
  };

  /// Push a snapshot of the full-width x onto the checkpoint ring
  /// (keeps the two most recent solve-entry snapshots).
  void checkpoint(const comm::FieldSet& x);
  /// Run `stage` on the working batch (member demux for scalar stages).
  BatchSolveStats run_stage(Stage& st, comm::Communicator& comm,
                            const comm::HaloExchanger& halo,
                            const DistOperator& a, Preconditioner& m,
                            const comm::FieldSet& bw,
                            const comm::FieldSet& xw,
                            comm::HaloFreshness fresh);

  std::vector<Stage> chain_;
  RecoveryPolicy policy_;
  std::vector<RecoveryEvent> events_;
  std::deque<comm::DistFieldBatch> ring_;  ///< [0] = newest entry snapshot
};

/// Adapter: a scalar IterativeSolver as a BatchedSolver, one member at
/// a time through per-member scratch fields (halo freshness carries
/// over: whole padded planes are copied).
class SequentialBatchedSolver final : public BatchedSolver {
 public:
  explicit SequentialBatchedSolver(std::unique_ptr<IterativeSolver> scalar);

  BatchSolveStats solve(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const DistOperator& a, Preconditioner& m, const comm::FieldSet& b,
      const comm::FieldSet& x,
      comm::HaloFreshness x_fresh = comm::HaloFreshness::kStale) override;

  std::string name() const override { return scalar_->name(); }

 private:
  std::unique_ptr<IterativeSolver> scalar_;
};

}  // namespace minipop::solver
