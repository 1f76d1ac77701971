// Rank-local (distributed) view of the nine-point barotropic operator.
//
// Holds per-block copies of the stencil coefficients and land mask for
// the blocks this rank owns, and applies the operator matrix-free. The
// halo of the input vector is refreshed immediately before the stencil
// sweep, so each matvec costs exactly one boundary update — the same
// per-iteration communication the paper's Algorithms 1 and 2 have. (The
// paper places the update after the matvec on the *result*; placing it on
// the *input* is communication-equivalent and stays correct for block
// preconditioners, whose output cannot be extended into the halo
// locally.)
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/field_set.hpp"
#include "src/comm/halo.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/span_plan.hpp"

namespace minipop::solver {

class DistOperator {
 public:
  DistOperator(const grid::NinePointStencil& stencil,
               const grid::Decomposition& decomp, int rank);

  const grid::Decomposition& decomposition() const { return *decomp_; }
  /// Construction-time stencil (global coefficient planes). The deep-halo
  /// engine gathers its EXTENDED per-block planes from these — the same
  /// source the per-block copies came from, so ghost-zone coefficients are
  /// bitwise equal to the owning block's interior coefficients.
  const grid::NinePointStencil& stencil() const { return *stencil_; }
  int rank() const { return rank_; }
  int num_local_blocks() const {
    return static_cast<int>(block_coeff_.size());
  }
  long local_ocean_cells() const { return local_ocean_cells_; }
  double phi() const { return phi_; }

  /// Land-span plan over the whole block interiors, indexed by local
  /// block (DESIGN.md §14): every sweep below runs the mask-free span
  /// kernels it drives, and the preconditioners and field ops share it.
  /// A MINIPOP_BOUNDS_CHECK build cross-runs the masked reference
  /// kernels after each operator sweep and requires bitwise agreement at
  /// every ocean cell and in every reduced sum.
  const SpanPlan& span_plan() const { return span_full_; }

  // -------------------------------------------------------------------
  // ABFT operator checksums (DESIGN.md §12). The column-sum field
  // c = A·1 (per block, one pointwise sum of the nine coefficient
  // planes — equal to the column sums because the barotropic operator
  // is symmetric, and local == global because coefficients are
  // identically zero across coastlines and rank boundaries carry the
  // same values both ways) is built once at construction and after
  // every repair. A solve can then audit the identity
  //   sum(A x) == dot(c, x)   i.e.   sum(b) - sum(r) == dot(c, x)
  // over all ocean cells for ~one masked dot, catching silent
  // corruption of the coefficient planes: the sweeps use the (possibly
  // corrupted) coefficients while c keeps the construction-time truth.

  /// Local (this rank's) terms of the ABFT identity per member, grouped
  /// for one vector allreduce: out[0..nb) = masked sum(b_m),
  /// out[nb..2nb) = masked sum(r_m), out[2nb..3nb) = masked dot(c, x_m);
  /// out[0..3nb) OVERWRITTEN. The identity only holds after BOTH sides
  /// are reduced across ranks — boundary-crossing stencil legs are
  /// counted on the row side by the owner of the row and on the column
  /// side by the owner of the column.
  void abft_local_sums_batch(comm::Communicator& comm,
                             const comm::FieldSet& b,
                             const comm::FieldSet& r,
                             const comm::FieldSet& x,
                             double* out) const;

  /// Column-sum (checksum) field of local block lb, for tests.
  const util::Field& block_column_sum(int lb) const {
    return column_sum_[lb];
  }

  /// Restore the coefficient planes from the construction-time stencil
  /// (which recovery trusts: it lives in the model's read-only setup,
  /// not in solver working state), rebuild the column sums, and drop
  /// the fp32 mirror so it rebuilds from the repaired values. Recovery
  /// calls this on a kCorruptOperator verdict before restarting from a
  /// checkpoint; a no-op on healthy coefficients (same values copied).
  void repair_coefficients() const;

  // -------------------------------------------------------------------
  // Sweeps over FieldSet views, one overload per storage scalar:
  // FieldSet (double) carries the fp64 solves, FieldSet32 (float) the
  // fp32 inner sweeps of the mixed-precision path — half the halo bytes
  // in the same aggregated messages, over a lazily-built float copy of
  // the coefficients. A DistField enters as a one-member view, a
  // DistFieldBatch as an nb-member one: ONE aggregated halo exchange and
  // one coefficient pass serve all members, flop counts scale by nb, and
  // member m of every result is bit-identical whatever the width
  // (kernels.hpp contract). Reductions fill per-member fp64 arrays (also
  // on fp32 sets — the kernels accumulate in double) that the caller
  // combines in ONE vector allreduce. Stencil sweeps refresh x's halo
  // first (one boundary update) unless the caller attests kFresh, so
  // callers never manage halos themselves. The solver-vector fault hook
  // arms on one-member fp64 outputs (DESIGN.md §8); coefficient fault
  // sites arm on every fp64 stencil sweep (shared planes).

  /// y = A x, all members. 9*nb flops/point.
  void apply_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::FieldSet& x, const comm::FieldSet& y,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;
  void apply_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::FieldSet32& x, const comm::FieldSet32& y,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;

  /// r = b - A x, all members, fused into one sweep.
  void residual_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::FieldSet& b, const comm::FieldSet& x,
      const comm::FieldSet& r,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;
  void residual_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::FieldSet32& b, const comm::FieldSet32& x,
      const comm::FieldSet32& r,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;

  /// Fused r = b - A x AND local masked ||r_m||² in the same sweep — the
  /// solvers' convergence check at zero extra field passes. sums[0..nb)
  /// is OVERWRITTEN with the LOCAL sums; bit-identical to residual_batch
  /// followed by local_dot_batch(r, r).
  void residual_local_norm2_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::FieldSet& b, const comm::FieldSet& x,
      const comm::FieldSet& r, double* sums,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;
  void residual_local_norm2_batch(
      comm::Communicator& comm, const comm::HaloExchanger& halo,
      const comm::FieldSet32& b, const comm::FieldSet32& x,
      const comm::FieldSet32& r, double* sums,
      comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const;

  /// Local masked per-member dots over block interiors: sums[0..nb) is
  /// OVERWRITTEN. Combine across ranks with an allreduce.
  void local_dot_batch(comm::Communicator& comm, const comm::FieldSet& a,
                       const comm::FieldSet& b, double* sums) const;
  void local_dot_batch(comm::Communicator& comm, const comm::FieldSet32& a,
                       const comm::FieldSet32& b, double* sums) const;

  /// Fused local dots of the CG-type iterations in one sweep, grouped
  /// for one vector allreduce: out[0..nb) = <r, rp>, out[nb..2nb) =
  /// <z, rp>, out[2nb..3nb) = <r, r> (zeros unless with_norm).
  /// out[0..3nb) is OVERWRITTEN; bit-identical to separate dots.
  void local_dot3_batch(comm::Communicator& comm, const comm::FieldSet& r,
                        const comm::FieldSet& rp, const comm::FieldSet& z,
                        bool with_norm, double* out) const;
  void local_dot3_batch(comm::Communicator& comm, const comm::FieldSet32& r,
                        const comm::FieldSet32& rp,
                        const comm::FieldSet32& z, bool with_norm,
                        double* out) const;

  /// Zero out land cells of all members' interiors (keeps iterates
  /// masked).
  void mask_interior_batch(const comm::FieldSet& x) const;
  void mask_interior_batch(const comm::FieldSet32& x) const;

  // Single-field spellings of apply_batch, residual_batch and
  // local_dot_batch, kept only because the end-to-end benchmark
  // (perfbench/bench.cpp) calls them.
  void apply(comm::Communicator& comm, const comm::HaloExchanger& halo,
             comm::DistField& x, comm::DistField& y,
             comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const {
    apply_batch(comm, halo, x, y, fresh);
  }
  void residual(comm::Communicator& comm, const comm::HaloExchanger& halo,
                const comm::DistField& b, comm::DistField& x,
                comm::DistField& r,
                comm::HaloFreshness fresh = comm::HaloFreshness::kStale) const {
    residual_batch(comm, halo, b, x, r, fresh);
  }
  double local_dot(comm::Communicator& comm, const comm::DistField& a,
                   const comm::DistField& b) const {
    double sum = 0.0;
    local_dot_batch(comm, a, b, &sum);
    return sum;
  }

  /// fp32 coefficient field of direction d for local block lb (builds
  /// the mirror on first use; preconditioners read it for their own
  /// fp32 setups).
  const util::Array2D<float>& block_coeff32(int lb, grid::Dir d) const;

  /// Operator diagonal of local block lb (interior coordinates).
  const util::Field& block_diagonal(int lb) const {
    return block_coeff_[lb][static_cast<int>(grid::Dir::kCenter)];
  }
  /// Coefficient field of direction d for local block lb.
  const util::Field& block_coeff(int lb, grid::Dir d) const {
    return block_coeff_[lb][static_cast<int>(d)];
  }
  const util::MaskArray& block_mask(int lb) const { return block_mask_[lb]; }

 private:
  /// Fault-injection point: offer each block interior of `v` (a sweep's
  /// freshly written output) to the installed FaultInjector when `v` is
  /// a one-member set. Compiles to nothing when MINIPOP_FAULTS is off
  /// (and to nothing for fp32 sets; fault sites live on the fp64 state).
  void offer_fault_sites(const comm::FieldSet& v) const;
  void offer_fault_sites(const comm::FieldSet32&) const {}

  /// Fault-injection point: offer the fp64 coefficient planes to the
  /// installed FaultInjector (kCoeffBitFlip) at the entry of every fp64
  /// stencil sweep. The corrupted sweep output rides into the iterates;
  /// the ABFT audit must catch it. Compiles to nothing when
  /// MINIPOP_FAULTS is off.
  void offer_coeff_fault_sites() const;

  /// Rebuild column_sum_ from the current block_coeff_ (construction
  /// and repair).
  void build_column_sums() const;

  /// Cost accounting of one sweep over every local block and nb
  /// members: per_point flops per cell, and the swept/ocean census.
  void count(comm::Communicator& comm, std::uint64_t per_point,
             int nb) const;

  /// Shared driver of the stencil sweeps: refresh x's halo (unless
  /// kFresh) and run `sweep(lb, ny, spans)` over every block interior.
  template <typename T, typename BlockSweep>
  void sweep_blocks(comm::Communicator& comm,
                    const comm::HaloExchanger& halo,
                    const comm::FieldSetT<T>& x, comm::HaloFreshness fresh,
                    BlockSweep&& sweep) const;

  // Sweep bodies behind the FieldSet / FieldSet32 overloads.
  template <typename T>
  void apply_t(comm::Communicator& comm, const comm::HaloExchanger& halo,
               const comm::FieldSetT<T>& x, const comm::FieldSetT<T>& y,
               comm::HaloFreshness fresh) const;
  template <typename T>
  void residual_t(comm::Communicator& comm, const comm::HaloExchanger& halo,
                  const comm::FieldSetT<T>& b, const comm::FieldSetT<T>& x,
                  const comm::FieldSetT<T>& r,
                  comm::HaloFreshness fresh) const;
  template <typename T>
  void residual_local_norm2_t(comm::Communicator& comm,
                              const comm::HaloExchanger& halo,
                              const comm::FieldSetT<T>& b,
                              const comm::FieldSetT<T>& x,
                              const comm::FieldSetT<T>& r, double* sums,
                              comm::HaloFreshness fresh) const;
  template <typename T>
  void local_dot_t(comm::Communicator& comm, const comm::FieldSetT<T>& a,
                   const comm::FieldSetT<T>& b, double* sums) const;
  template <typename T>
  void local_dot3_t(comm::Communicator& comm, const comm::FieldSetT<T>& r,
                    const comm::FieldSetT<T>& rp,
                    const comm::FieldSetT<T>& z, bool with_norm,
                    double* out) const;
  template <typename T>
  void mask_interior_t(const comm::FieldSetT<T>& x) const;

  /// Coefficient storage for scalar T: the double original or the
  /// lazily-built float mirror.
  template <typename T>
  const std::vector<std::array<util::Array2D<T>, grid::kNumDirs>>& coeffs()
      const;
  void ensure_coeff32() const;

  /// Span plan over the full block interiors.
  SpanPlan span_full_;

  const grid::Decomposition* decomp_;
  /// Kept for repair_coefficients(): the model's stencil outlives the
  /// operator (same ownership as decomp_).
  const grid::NinePointStencil* stencil_;
  int rank_;
  double phi_;
  long local_ocean_cells_ = 0;
  /// Interior cells of all local blocks (the swept-point census).
  std::uint64_t local_points_ = 0;
  /// mutable: repair_coefficients() restores the planes through the
  /// const reference the solvers hold; each rank owns its DistOperator,
  /// so no two threads share one.
  mutable std::vector<std::array<util::Field, grid::kNumDirs>> block_coeff_;
  std::vector<util::MaskArray> block_mask_;
  /// ABFT column sums c = A·1 per block (see abft_local_sums); rebuilt
  /// by repair_coefficients().
  mutable std::vector<util::Field> column_sum_;
  /// fp32 mirror of block_coeff_, built on first fp32 sweep. mutable +
  /// lazily built is safe: each rank owns its DistOperator, so no two
  /// threads share one.
  mutable std::vector<std::array<util::Array2D<float>, grid::kNumDirs>>
      block_coeff32_;
};


}  // namespace minipop::solver
