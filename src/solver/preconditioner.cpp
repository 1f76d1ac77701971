#include "src/solver/preconditioner.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

void Preconditioner::apply(comm::Communicator& /*comm*/,
                           const comm::FieldSet32& /*in*/,
                           const comm::FieldSet32& /*out*/) {
  MINIPOP_REQUIRE(false, "preconditioner '" << name()
                                            << "' has no fp32 path");
}

template <typename T>
void IdentityPreconditioner::apply_t(const comm::FieldSetT<T>& in,
                                     const comm::FieldSetT<T>& out) const {
  MINIPOP_REQUIRE(in.compatible_with(out), "identity precond field mismatch");
  const SpanPlan& plan = op_->span_plan();
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    // Gap-zero kernel: writes in at ocean and 0 at land exactly like the
    // masked copy, so the two are unconditionally bit-identical.
    kernels::masked_copy_span_batch(plan[lb].row_offset(), plan[lb].spans(),
                                    in.nb(), info.nx, info.ny,
                                    in.interior(lb), in.stride(lb),
                                    out.interior(lb), out.stride(lb));
  }
}

void IdentityPreconditioner::apply(comm::Communicator& /*comm*/,
                                   const comm::FieldSet& in,
                                   const comm::FieldSet& out) {
  apply_t(in, out);
}

void IdentityPreconditioner::apply(comm::Communicator& /*comm*/,
                                   const comm::FieldSet32& in,
                                   const comm::FieldSet32& out) {
  apply_t(in, out);
}

DiagonalPreconditioner::DiagonalPreconditioner(const DistOperator& op)
    : op_(&op) {
  inv_diag_.reserve(op.num_local_blocks());
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& diag = op.block_diagonal(lb);
    const auto& mask = op.block_mask(lb);
    util::Field inv(diag.nx(), diag.ny(), 0.0);
    for (int j = 0; j < diag.ny(); ++j)
      for (int i = 0; i < diag.nx(); ++i) {
        if (!mask(i, j)) continue;
        MINIPOP_REQUIRE(diag(i, j) > 0.0, "non-positive diagonal at block "
                                              << lb << " (" << i << "," << j
                                              << ")");
        inv(i, j) = 1.0 / diag(i, j);
      }
    inv_diag_.push_back(std::move(inv));
  }
}

template <typename T>
void DiagonalPreconditioner::apply_t(
    comm::Communicator& comm, const std::vector<util::Array2D<T>>& inv_diag,
    const comm::FieldSetT<T>& in, const comm::FieldSetT<T>& out) const {
  MINIPOP_REQUIRE(in.compatible_with(out), "diagonal precond field mismatch");
  const SpanPlan& plan = op_->span_plan();
  const int nb = in.nb();
  std::uint64_t points = 0, active = 0;
  for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
    const auto& info = in.info(lb);
    const auto& inv = inv_diag[lb];
    // inv*in over ocean, literal 0 in the gaps — the masked loop
    // multiplies by the stored inv = 0.0 there, which is the same +0.0
    // because solver iterates are +0.0 on land.
    kernels::diag_apply_span_batch(
        inv.data(), inv.nx(), plan[lb].row_offset(), plan[lb].spans(), nb,
        info.nx, info.ny, in.interior(lb), in.stride(lb), out.interior(lb),
        out.stride(lb));
    points += static_cast<std::uint64_t>(info.nx) * info.ny;
    active += static_cast<std::uint64_t>(plan[lb].active_points());
  }
  // Paper convention: diagonal preconditioning is 1 op/point (T_p).
  comm.costs().add_flops(points * nb);
  comm.costs().add_points(active * nb, points * nb);
}

void DiagonalPreconditioner::apply(comm::Communicator& comm,
                                   const comm::FieldSet& in,
                                   const comm::FieldSet& out) {
  apply_t(comm, inv_diag_, in, out);
}

void DiagonalPreconditioner::apply(comm::Communicator& comm,
                                   const comm::FieldSet32& in,
                                   const comm::FieldSet32& out) {
  if (inv_diag32_.empty()) {
    // Each inverse is rounded from the double one, not recomputed.
    inv_diag32_.reserve(inv_diag_.size());
    for (const auto& inv : inv_diag_) {
      util::Array2D<float> inv32(inv.nx(), inv.ny());
      for (int j = 0; j < inv.ny(); ++j)
        for (int i = 0; i < inv.nx(); ++i)
          inv32(i, j) = static_cast<float>(inv(i, j));
      inv_diag32_.push_back(std::move(inv32));
    }
  }
  apply_t(comm, inv_diag32_, in, out);
}

}  // namespace minipop::solver
