// FieldSet: one non-owning view over the two distributed containers —
// a scalar DistFieldT<T> (one member plane) or a DistFieldBatchT<T>
// (nb member-interleaved planes) — so the halo exchanger, the distri-
// buted operator, the preconditioners and the solver cores speak ONE
// surface instead of triplicating scalar/fp32/batch overloads.
//
// The view erases the container difference behind the batch layout
// contract: element (i, j, m) lives at
//   data(lb)((i + halo) * nb() + m, j + halo)
// with nb() == 1 for a scalar backing, where the formula degenerates to
// the classic padded-plane addressing. Width-aware consumers (packers,
// kernels) written against nb() therefore reproduce the scalar path
// byte-for-byte at nb() == 1, and a scalar field enters a batched solve
// as a zero-copy one-member batch.
//
// The view holds a pointer to the backing container; the container must
// outlive every FieldSet over it. Copying the view is copying the
// pointer. Like std::span over a const source, the view does not carry
// the source's constness: a FieldSet built from a const field is only
// ever passed where the callee reads it (the `b` operands).
#pragma once

#include <cstddef>

#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

template <typename T>
class FieldSetT {
 public:
  FieldSetT() = default;
  /// View of a scalar field: one member, nb() == 1.
  FieldSetT(const DistFieldT<T>& f)  // NOLINT(runtime/explicit)
      : scalar_(const_cast<DistFieldT<T>*>(&f)) {}
  /// View of a batch: nb() members per cell, member-fastest.
  FieldSetT(const DistFieldBatchT<T>& f)  // NOLINT(runtime/explicit)
      : batch_(const_cast<DistFieldBatchT<T>*>(&f)) {}

  bool valid() const { return scalar_ != nullptr || batch_ != nullptr; }
  /// Same backing container.
  friend bool operator==(const FieldSetT&, const FieldSetT&) = default;

  const grid::Decomposition& decomposition() const {
    return scalar_ ? scalar_->decomposition() : batch_->decomposition();
  }
  int rank() const { return scalar_ ? scalar_->rank() : batch_->rank(); }
  int halo() const { return scalar_ ? scalar_->halo() : batch_->halo(); }
  /// Members per cell: 1 for a scalar backing, the batch width else.
  int nb() const { return scalar_ ? 1 : batch_->nb(); }
  int num_local_blocks() const {
    return scalar_ ? scalar_->num_local_blocks()
                   : batch_->num_local_blocks();
  }
  const grid::BlockInfo& info(int lb) const {
    return scalar_ ? scalar_->info(lb) : batch_->info(lb);
  }
  util::Array2D<T>& data(int lb) const {
    return scalar_ ? scalar_->data(lb) : batch_->data(lb);
  }

  /// Raw pointer to member 0 of interior cell (0, 0) of local block lb
  /// — the kernel entry point. Rows are stride(lb) elements apart, cell
  /// columns nb() elements apart.
  T* interior(int lb) const {
    return scalar_ ? scalar_->interior(lb) : batch_->interior(lb);
  }
  /// Padded row pitch in elements (includes the nb-fold widening).
  std::ptrdiff_t stride(int lb) const {
    return scalar_ ? scalar_->stride(lb) : batch_->stride(lb);
  }

  /// Interior element (i, j) of member m in local block lb.
  T& at(int lb, int i, int j, int m) const {
    const int h = halo();
    return data(lb)((i + h) * nb() + m, j + h);
  }

  /// Shape compatibility: same decomposition object, rank, halo, and
  /// batch width. Templated across element types so the mixed-precision
  /// boundary (fp64 set vs its fp32 mirror) can be validated too.
  template <typename U>
  bool compatible_with(const FieldSetT<U>& other) const {
    return &decomposition() == &other.decomposition() &&
           rank() == other.rank() && halo() == other.halo() &&
           nb() == other.nb();
  }

  /// Copy the FULL padded plane (interior + halos, so halo freshness
  /// carries over) of `src`'s member `src_m` into member m of this set.
  /// The widths may differ; decomposition, rank and halo must match.
  void copy_member_from(int m, const FieldSetT& src, int src_m) const {
    check_members(m, src, src_m);
    MINIPOP_REQUIRE(src.halo() == halo(), "member copy across halo widths");
    const int w = nb(), sw = src.nb();
    for (int lb = 0; lb < num_local_blocks(); ++lb) {
      util::Array2D<T>& dst = data(lb);
      const util::Array2D<T>& sp = src.data(lb);
      const int ncols = dst.nx() / w;  // padded cells per row
      for (int j = 0; j < dst.ny(); ++j)
        for (int i = 0; i < ncols; ++i)
          dst(i * w + m, j) = sp(i * sw + src_m, j);
    }
  }

  /// Interior-only variant of copy_member_from that tolerates a
  /// different halo width (the comm-avoiding solvers migrate members
  /// between caller sets and deep-halo working batches). Halo cells of
  /// member m are left untouched.
  void copy_member_interior_from(int m, const FieldSetT& src,
                                 int src_m) const {
    check_members(m, src, src_m);
    for (int lb = 0; lb < num_local_blocks(); ++lb) {
      const auto& b = info(lb);
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          at(lb, i, j, m) = src.at(lb, i, j, src_m);
    }
  }

  /// Interior of member m := v.
  void fill_member_interior(int m, T v) const {
    for (int lb = 0; lb < num_local_blocks(); ++lb) {
      const auto& b = info(lb);
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i) at(lb, i, j, m) = v;
    }
  }

 private:
  void check_members(int m, const FieldSetT& src, int src_m) const {
    MINIPOP_REQUIRE(m >= 0 && m < nb(), "member " << m << " of " << nb());
    MINIPOP_REQUIRE(src_m >= 0 && src_m < src.nb(),
                    "member " << src_m << " of " << src.nb());
    MINIPOP_REQUIRE(&decomposition() == &src.decomposition() &&
                        rank() == src.rank(),
                    "incompatible source set");
  }

  DistFieldT<T>* scalar_ = nullptr;
  DistFieldBatchT<T>* batch_ = nullptr;
};

using FieldSet = FieldSetT<double>;
using FieldSet32 = FieldSetT<float>;

}  // namespace minipop::comm
