#include "src/solver/field_ops.hpp"

#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

/// Members an update writes: the set bytes of `active`, or all nb.
int active_members(int nb, const unsigned char* active) {
  if (!active) return nb;
  int n = 0;
  for (int m = 0; m < nb; ++m) n += active[m] != 0;
  return n;
}

template <typename T>
std::uint64_t interior_points(const comm::FieldSetT<T>& f) {
  std::uint64_t n = 0;
  for (int lb = 0; lb < f.num_local_blocks(); ++lb) {
    const auto& b = f.info(lb);
    n += static_cast<std::uint64_t>(b.nx) * b.ny;
  }
  return n;
}

/// Cost accounting of a span update over the active lanes of `x`:
/// flops per point, and the ocean census of the sweep (a frozen
/// member's solve has ended; its lanes only ride along).
template <typename T>
void count_update(comm::Communicator& comm, std::uint64_t flops_per_point,
                  const SpanPlan& plan, const comm::FieldSetT<T>& x,
                  const unsigned char* active) {
  const std::uint64_t n_act = active_members(x.nb(), active);
  std::uint64_t ocean = 0;
  for (const auto& bs : plan)
    ocean += static_cast<std::uint64_t>(bs.active_points());
  const std::uint64_t points = interior_points(x);
  comm.costs().add_flops(flops_per_point * points * n_act);
  comm.costs().add_points(ocean * n_act, points * n_act);
}

}  // namespace

template <typename T>
void lincomb(comm::Communicator& comm, const SpanPlan& plan, const T* a,
             const SetOf<T>& x, const T* b, const SetOf<T>& y,
             const unsigned char* active) {
  MINIPOP_REQUIRE(x.compatible_with(y), "lincomb field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb_span_batch(plan[lb].row_offset(), plan[lb].spans(),
                                x.nb(), x.info(lb).ny, a, x.interior(lb),
                                x.stride(lb), b, y.interior(lb), y.stride(lb),
                                active);
  count_update(comm, 2, plan, x, active);
}

template <typename T>
void axpy(comm::Communicator& comm, const SpanPlan& plan, const T* a,
          const SetOf<T>& x, const SetOf<T>& y,
          const unsigned char* active) {
  MINIPOP_REQUIRE(x.compatible_with(y), "axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::axpy_span_batch(plan[lb].row_offset(), plan[lb].spans(), x.nb(),
                             x.info(lb).ny, a, x.interior(lb), x.stride(lb),
                             y.interior(lb), y.stride(lb), active);
  count_update(comm, 2, plan, x, active);
}

template <typename T>
void lincomb_axpy(comm::Communicator& comm, const SpanPlan& plan,
                  const T* a, const SetOf<T>& x, const T* b,
                  const SetOf<T>& y, const T* c, const SetOf<T>& z,
                  const unsigned char* active) {
  MINIPOP_REQUIRE(x.compatible_with(y) && x.compatible_with(z),
                  "lincomb_axpy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::lincomb_axpy_span_batch(
        plan[lb].row_offset(), plan[lb].spans(), x.nb(), x.info(lb).ny, a,
        x.interior(lb), x.stride(lb), b, y.interior(lb), y.stride(lb), c,
        z.interior(lb), z.stride(lb), active);
  // Same count as the lincomb + axpy it fuses: 2 + 2 ops/point.
  count_update(comm, 4, plan, x, active);
}

template <typename T>
void scale(comm::Communicator& comm, const SpanPlan& plan, const T* a,
           const SetOf<T>& x, const unsigned char* active) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb)
    kernels::scale_span_batch(plan[lb].row_offset(), plan[lb].spans(),
                              x.nb(), x.info(lb).ny, a, x.interior(lb),
                              x.stride(lb), active);
  count_update(comm, 1, plan, x, active);
}

template <typename T>
void copy_interior(const SetOf<T>& x, const SetOf<T>& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "copy field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::copy_batch(x.nb(), info.nx, info.ny, x.interior(lb),
                        x.stride(lb), y.interior(lb), y.stride(lb));
  }
}

template <typename T>
void fill_interior(const SetOf<T>& x, T v) {
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::fill_batch(x.nb(), info.nx, info.ny, v, x.interior(lb),
                        x.stride(lb));
  }
}

#define MINIPOP_FIELD_OPS_INSTANTIATE(T)                                     \
  template void lincomb<T>(comm::Communicator&, const SpanPlan&, const T*,  \
                           const SetOf<T>&, const T*, const SetOf<T>&,      \
                           const unsigned char*);                           \
  template void axpy<T>(comm::Communicator&, const SpanPlan&, const T*,     \
                        const SetOf<T>&, const SetOf<T>&,                   \
                        const unsigned char*);                              \
  template void lincomb_axpy<T>(comm::Communicator&, const SpanPlan&,       \
                                const T*, const SetOf<T>&, const T*,        \
                                const SetOf<T>&, const T*, const SetOf<T>&, \
                                const unsigned char*);                      \
  template void scale<T>(comm::Communicator&, const SpanPlan&, const T*,    \
                         const SetOf<T>&, const unsigned char*);            \
  template void copy_interior<T>(const SetOf<T>&, const SetOf<T>&);         \
  template void fill_interior<T>(const SetOf<T>&, T);
MINIPOP_FIELD_OPS_INSTANTIATE(double)
MINIPOP_FIELD_OPS_INSTANTIATE(float)
#undef MINIPOP_FIELD_OPS_INSTANTIATE

// ---------------------------------------------------------------------------
// Precision boundary

void demote(const comm::FieldSet& x, const comm::FieldSet32& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "demote field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    // Interior rows are nb-widened contiguous spans; convert() takes the
    // widened row length directly (see kernels.hpp).
    kernels::convert(info.nx * x.nb(), info.ny, x.interior(lb), x.stride(lb),
                     y.interior(lb), y.stride(lb));
  }
}

void promote(const comm::FieldSet32& x, const comm::FieldSet& y) {
  MINIPOP_REQUIRE(x.compatible_with(y), "promote field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::convert(info.nx * x.nb(), info.ny, x.interior(lb), x.stride(lb),
                     y.interior(lb), y.stride(lb));
  }
}

void axpy_promoted(comm::Communicator& comm, const double* a,
                   const comm::FieldSet32& x, const comm::FieldSet& y,
                   const unsigned char* active) {
  MINIPOP_REQUIRE(x.compatible_with(y), "axpy_promoted field mismatch");
  for (int lb = 0; lb < x.num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
    kernels::axpy_promoted_batch(x.nb(), info.nx, info.ny, a, x.interior(lb),
                                 x.stride(lb), y.interior(lb), y.stride(lb),
                                 active);
  }
  comm.costs().add_flops(2 * interior_points(x) *
                         active_members(x.nb(), active));
}

}  // namespace minipop::solver
