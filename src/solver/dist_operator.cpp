#include "src/solver/dist_operator.hpp"

#include <cstring>
#include <type_traits>
#include <vector>

#include "src/fault/fault_injector.hpp"
#include "src/solver/kernels.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

namespace {

/// Raw-pointer view of one block's nine coefficient arrays.
template <typename T>
kernels::Stencil9T<T> stencil_view(
    const std::array<util::Array2D<T>, grid::kNumDirs>& c) {
  return kernels::Stencil9T<T>{
      c[static_cast<int>(grid::Dir::kCenter)].data(),
      c[static_cast<int>(grid::Dir::kEast)].data(),
      c[static_cast<int>(grid::Dir::kWest)].data(),
      c[static_cast<int>(grid::Dir::kNorth)].data(),
      c[static_cast<int>(grid::Dir::kSouth)].data(),
      c[static_cast<int>(grid::Dir::kNorthEast)].data(),
      c[static_cast<int>(grid::Dir::kNorthWest)].data(),
      c[static_cast<int>(grid::Dir::kSouthEast)].data(),
      c[static_cast<int>(grid::Dir::kSouthWest)].data(),
      c[static_cast<int>(grid::Dir::kCenter)].nx()};
}

#if MINIPOP_BOUNDS_CHECK
/// Debug cross-run audit (DESIGN.md §14): after a span sweep, the
/// masked reference kernel is re-run into scratch and the results must
/// agree bitwise at every ocean cell (land cells are exactly the points
/// the span path is entitled to skip) — at every cell with land_too,
/// for the gap-zeroing kernels.
template <typename T>
void audit_span_field(const util::MaskArray& mask, int nb, int nx, int ny,
                      const T* span_out, std::ptrdiff_t stride,
                      const T* ref, std::ptrdiff_t ref_stride,
                      bool land_too = false) {
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      if (!land_too && !mask(i, j)) continue;
      for (int m = 0; m < nb; ++m) {
        const T a =
            span_out[j * stride + static_cast<std::ptrdiff_t>(i) * nb + m];
        const T b =
            ref[j * ref_stride + static_cast<std::ptrdiff_t>(i) * nb + m];
        MINIPOP_REQUIRE(std::memcmp(&a, &b, sizeof(T)) == 0,
                        "span/masked sweep mismatch at (" << i << "," << j
                                                          << ") member "
                                                          << m);
      }
    }
}

/// audit_span_field over every local block of a stencil sweep's output:
/// ref(lb, scratch, scratch_stride) writes the masked reference sweep.
/// Runs after the sweep, when x's halo is fresh.
template <typename T, typename Ref>
void audit_span_sweep(const DistOperator& op, const comm::FieldSetT<T>& out,
                      Ref&& ref) {
  const int nb = out.nb();
  for (int lb = 0; lb < op.num_local_blocks(); ++lb) {
    const auto& info = out.info(lb);
    const std::ptrdiff_t rs = static_cast<std::ptrdiff_t>(info.nx) * nb;
    std::vector<T> scratch(static_cast<std::size_t>(rs) * info.ny);
    ref(lb, scratch.data(), rs);
    audit_span_field(op.block_mask(lb), nb, info.nx, info.ny,
                     out.interior(lb), out.stride(lb), scratch.data(), rs);
  }
}

/// Reduction sums must agree bitwise (not just to tolerance): the span
/// loop only drops +0.0 terms from a +0.0-seeded accumulator.
inline void audit_span_sums(const double* span_sums, const double* ref,
                            int n) {
  for (int m = 0; m < n; ++m)
    MINIPOP_REQUIRE(std::memcmp(&span_sums[m], &ref[m], sizeof(double)) == 0,
                    "span/masked reduction mismatch, member " << m);
}
#endif

}  // namespace

DistOperator::DistOperator(const grid::NinePointStencil& stencil,
                           const grid::Decomposition& decomp, int rank)
    : decomp_(&decomp), stencil_(&stencil), rank_(rank),
      phi_(stencil.phi()) {
  MINIPOP_REQUIRE(stencil.nx() == decomp.nx_global() &&
                      stencil.ny() == decomp.ny_global(),
                  "stencil " << stencil.nx() << "x" << stencil.ny()
                             << " vs decomposition " << decomp.nx_global()
                             << "x" << decomp.ny_global());
  MINIPOP_REQUIRE(stencil.periodic_x() == decomp.periodic_x(),
                  "periodicity mismatch");

  const auto& ids = decomp.blocks_of_rank(rank);
  block_coeff_.reserve(ids.size());
  block_mask_.reserve(ids.size());
  for (int id : ids) {
    const auto& b = decomp.block(id);
    std::array<util::Field, grid::kNumDirs> coeffs;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      coeffs[d] = util::Field(b.nx, b.ny);
      const auto& global = stencil.coeff(static_cast<grid::Dir>(d));
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeffs[d](i, j) = global(b.i0 + i, b.j0 + j);
    }
    local_points_ += static_cast<std::uint64_t>(b.nx) * b.ny;
    util::MaskArray mask(b.nx, b.ny);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) {
        mask(i, j) = stencil.mask()(b.i0 + i, b.j0 + j);
        if (mask(i, j)) ++local_ocean_cells_;
      }
    // Span plan (DESIGN.md §14): compress the block mask once.
    BlockSpans full(mask.data(), mask.nx(), b.nx, b.ny);
#if MINIPOP_BOUNDS_CHECK
    full.validate(mask.data(), mask.nx());
#endif
    span_full_.push_back(std::move(full));

    block_coeff_.push_back(std::move(coeffs));
    block_mask_.push_back(std::move(mask));
  }
  build_column_sums();
}

void DistOperator::build_column_sums() const {
  column_sum_.clear();
  column_sum_.reserve(block_coeff_.size());
  for (std::size_t lb = 0; lb < block_coeff_.size(); ++lb) {
    const auto& c = block_coeff_[lb];
    const auto& mask = block_mask_[lb];
    const int nx = c[0].nx(), ny = c[0].ny();
    util::Field cs(nx, ny);
    // c = A·1: with every x value 1 (halo included), the sweep output
    // at a cell is just the sum of its nine coefficients — no scratch
    // field or halo exchange needed. Land cells are zeroed to match the
    // masked dots that consume the field.
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        double s = 0.0;
        for (int d = 0; d < grid::kNumDirs; ++d) s += c[d](i, j);
        cs(i, j) = mask(i, j) ? s : 0.0;
      }
    column_sum_.push_back(std::move(cs));
  }
}

void DistOperator::repair_coefficients() const {
  const auto& ids = decomp_->blocks_of_rank(rank_);
  for (std::size_t lb = 0; lb < ids.size(); ++lb) {
    const auto& b = decomp_->block(ids[lb]);
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const auto& global = stencil_->coeff(static_cast<grid::Dir>(d));
      util::Field& coeff = block_coeff_[lb][d];
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeff(i, j) = global(b.i0 + i, b.j0 + j);
    }
  }
  build_column_sums();
  // The fp32 mirror may have been built from corrupted values; drop it
  // so the next fp32 sweep rebuilds from the repaired planes.
  block_coeff32_.clear();
}

void DistOperator::offer_coeff_fault_sites() const {
#if MINIPOP_FAULTS
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    double* planes[grid::kNumDirs];
    for (int d = 0; d < grid::kNumDirs; ++d)
      planes[d] = block_coeff_[lb][d].data();
    fault::hook_coeff_bitflip(rank_, planes, block_coeff_[lb][0].size());
  }
#endif
}

void DistOperator::ensure_coeff32() const {
  if (!block_coeff32_.empty() || block_coeff_.empty()) return;
  block_coeff32_.reserve(block_coeff_.size());
  for (const auto& c : block_coeff_) {
    std::array<util::Array2D<float>, grid::kNumDirs> mirror;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const util::Field& src = c[d];
      mirror[d] = util::Array2D<float>(src.nx(), src.ny());
      float* dst = mirror[d].data();
      const double* s = src.data();
      for (std::size_t k = 0; k < src.size(); ++k)
        dst[k] = static_cast<float>(s[k]);
    }
    block_coeff32_.push_back(std::move(mirror));
  }
}

template <>
const std::vector<std::array<util::Array2D<double>, grid::kNumDirs>>&
DistOperator::coeffs<double>() const {
  return block_coeff_;
}

template <>
const std::vector<std::array<util::Array2D<float>, grid::kNumDirs>>&
DistOperator::coeffs<float>() const {
  ensure_coeff32();
  return block_coeff32_;
}

const util::Array2D<float>& DistOperator::block_coeff32(int lb,
                                                        grid::Dir d) const {
  ensure_coeff32();
  return block_coeff32_[lb][static_cast<int>(d)];
}

void DistOperator::offer_fault_sites(const comm::FieldSet& v) const {
#if MINIPOP_FAULTS
  if (v.nb() != 1) return;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = v.info(lb);
    const auto& mask = block_mask_[lb];
    fault::hook_solver_vector(rank_, v.interior(lb), v.stride(lb), info.nx,
                              info.ny, mask.data(), mask.nx());
  }
#else
  (void)v;
#endif
}

void DistOperator::count(comm::Communicator& comm, std::uint64_t per_point,
                         int nb) const {
  const std::uint64_t w = static_cast<std::uint64_t>(nb);
  comm.costs().add_flops(per_point * local_points_ * w);
  comm.costs().add_points(static_cast<std::uint64_t>(local_ocean_cells_) * w,
                          local_points_ * w);
}

template <typename T, typename BlockSweep>
void DistOperator::sweep_blocks(comm::Communicator& comm,
                                const comm::HaloExchanger& halo,
                                const comm::FieldSetT<T>& x,
                                comm::HaloFreshness fresh,
                                BlockSweep&& sweep) const {
  if (fresh == comm::HaloFreshness::kStale) halo.exchange_set<T>(comm, x);
  for (int lb = 0; lb < num_local_blocks(); ++lb)
    sweep(lb, x.info(lb).ny, span_full_[lb]);
}

template <typename T>
void DistOperator::apply_t(comm::Communicator& comm,
                           const comm::HaloExchanger& halo,
                           const comm::FieldSetT<T>& x,
                           const comm::FieldSetT<T>& y,
                           comm::HaloFreshness fresh) const {
  MINIPOP_REQUIRE(x.compatible_with(y), "x/y field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(x != y, "apply requires distinct x and y");
  if constexpr (std::is_same_v<T, double>) offer_coeff_fault_sites();

  const auto& coeff = coeffs<T>();
  const int nb = x.nb();
  sweep_blocks<T>(
      comm, halo, x, fresh, [&](int lb, int ny, const BlockSpans& sp) {
        kernels::apply9_span_batch(stencil_view(coeff[lb]), sp.row_offset(),
                                   sp.spans(), nb, ny, x.interior(lb),
                                   x.stride(lb), y.interior(lb),
                                   y.stride(lb));
      });
#if MINIPOP_BOUNDS_CHECK
  audit_span_sweep(*this, y, [&](int lb, T* ref, std::ptrdiff_t rs) {
    const auto& b = x.info(lb);
    kernels::apply9_batch(stencil_view(coeff[lb]), nb, b.nx, b.ny,
                          x.interior(lb), x.stride(lb), ref, rs);
  });
#endif
  // Paper convention (§2): a nine-point matvec is 9 operations per point.
  count(comm, 9, nb);
  offer_fault_sites(y);
}

template <typename T>
void DistOperator::residual_t(comm::Communicator& comm,
                              const comm::HaloExchanger& halo,
                              const comm::FieldSetT<T>& b,
                              const comm::FieldSetT<T>& x,
                              const comm::FieldSetT<T>& r,
                              comm::HaloFreshness fresh) const {
  MINIPOP_REQUIRE(b.compatible_with(x) && b.compatible_with(r),
                  "b/x/r field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(b != r && x != r, "residual requires distinct r");
  if constexpr (std::is_same_v<T, double>) offer_coeff_fault_sites();

  const auto& coeff = coeffs<T>();
  const int nb = x.nb();
  sweep_blocks<T>(
      comm, halo, x, fresh, [&](int lb, int ny, const BlockSpans& sp) {
        kernels::residual9_span_batch(
            stencil_view(coeff[lb]), sp.row_offset(), sp.spans(), nb, ny,
            b.interior(lb), b.stride(lb), x.interior(lb), x.stride(lb),
            r.interior(lb), r.stride(lb));
      });
#if MINIPOP_BOUNDS_CHECK
  audit_span_sweep(*this, r, [&](int lb, T* ref, std::ptrdiff_t rs) {
    const auto& info = x.info(lb);
    kernels::residual9_batch(stencil_view(coeff[lb]), nb, info.nx, info.ny,
                             b.interior(lb), b.stride(lb), x.interior(lb),
                             x.stride(lb), ref, rs);
  });
#endif
  // Matvec (9 ops/point) + subtraction (1 op/point), as before fusion.
  count(comm, 10, nb);
  offer_fault_sites(r);
}

template <typename T>
void DistOperator::residual_local_norm2_t(comm::Communicator& comm,
                                          const comm::HaloExchanger& halo,
                                          const comm::FieldSetT<T>& b,
                                          const comm::FieldSetT<T>& x,
                                          const comm::FieldSetT<T>& r,
                                          double* sums,
                                          comm::HaloFreshness fresh) const {
  MINIPOP_REQUIRE(b.compatible_with(x) && b.compatible_with(r),
                  "b/x/r field mismatch");
  MINIPOP_REQUIRE(&x.decomposition() == decomp_ && x.rank() == rank_,
                  "field does not match operator decomposition");
  MINIPOP_REQUIRE(b != r && x != r, "residual requires distinct r");
  if constexpr (std::is_same_v<T, double>) offer_coeff_fault_sites();

  const auto& coeff = coeffs<T>();
  const int nb = x.nb();
  for (int m = 0; m < nb; ++m) sums[m] = 0.0;
  sweep_blocks<T>(
      comm, halo, x, fresh, [&](int lb, int ny, const BlockSpans& sp) {
#if MINIPOP_BOUNDS_CHECK
        std::vector<double> ref_sums(sums, sums + nb);
#endif
        kernels::residual_norm2_9_span_batch(
            stencil_view(coeff[lb]), sp.row_offset(), sp.spans(), nb, ny,
            b.interior(lb), b.stride(lb), x.interior(lb), x.stride(lb),
            r.interior(lb), r.stride(lb), sums);
#if MINIPOP_BOUNDS_CHECK
        const int nx = r.info(lb).nx;
        const std::ptrdiff_t rs = static_cast<std::ptrdiff_t>(nx) * nb;
        std::vector<T> ref(static_cast<std::size_t>(rs) * ny);
        kernels::residual_norm2_9_batch(
            stencil_view(coeff[lb]), block_mask_[lb].data(),
            block_mask_[lb].nx(), nb, nx, ny, b.interior(lb), b.stride(lb),
            x.interior(lb), x.stride(lb), ref.data(), rs, ref_sums.data());
        audit_span_field(block_mask_[lb], nb, nx, ny, r.interior(lb),
                         r.stride(lb), ref.data(), rs);
        audit_span_sums(sums, ref_sums.data(), nb);
#endif
      });
  // Residual (10 ops/point) + masked norm (2 ops/point), as when the
  // sweeps were separate.
  count(comm, 12, nb);
  // Corruption lands after the fused norm was taken, exactly like a bit
  // flip striking between two sweeps: it rides r into the next iterates
  // and the *next* check window must catch it.
  offer_fault_sites(r);
}

template <typename T>
void DistOperator::local_dot_t(comm::Communicator& comm,
                               const comm::FieldSetT<T>& a,
                               const comm::FieldSetT<T>& b,
                               double* sums) const {
  MINIPOP_REQUIRE(a.compatible_with(b), "a/b field mismatch");
  const int nb = a.nb();
  for (int m = 0; m < nb; ++m) sums[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
#if MINIPOP_BOUNDS_CHECK
    std::vector<double> ref(sums, sums + nb);
    kernels::dot_batch(block_mask_[lb].data(), block_mask_[lb].nx(), nb,
                       info.nx, info.ny, a.interior(lb), a.stride(lb),
                       b.interior(lb), b.stride(lb), ref.data());
#endif
    kernels::dot_span_batch(span_full_[lb].row_offset(),
                            span_full_[lb].spans(), nb, info.ny,
                            a.interior(lb), a.stride(lb), b.interior(lb),
                            b.stride(lb), sums);
#if MINIPOP_BOUNDS_CHECK
    audit_span_sums(sums, ref.data(), nb);
#endif
  }
  // Paper convention: inner product is 2 ops/point (multiply + masked add).
  count(comm, 2, nb);
}

template <typename T>
void DistOperator::local_dot3_t(comm::Communicator& comm,
                                const comm::FieldSetT<T>& r,
                                const comm::FieldSetT<T>& rp,
                                const comm::FieldSetT<T>& z, bool with_norm,
                                double* out) const {
  MINIPOP_REQUIRE(r.compatible_with(rp) && r.compatible_with(z),
                  "r/rp/z field mismatch");
  const int nb = r.nb();
  for (int m = 0; m < 3 * nb; ++m) out[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = r.info(lb);
#if MINIPOP_BOUNDS_CHECK
    std::vector<double> ref(out, out + 3 * nb);
    kernels::dot3_batch(block_mask_[lb].data(), block_mask_[lb].nx(), nb,
                        info.nx, info.ny, r.interior(lb), r.stride(lb),
                        rp.interior(lb), rp.stride(lb), z.interior(lb),
                        z.stride(lb), with_norm, ref.data());
#endif
    kernels::dot3_span_batch(span_full_[lb].row_offset(),
                             span_full_[lb].spans(), nb, info.ny,
                             r.interior(lb), r.stride(lb), rp.interior(lb),
                             rp.stride(lb), z.interior(lb), z.stride(lb),
                             with_norm, out);
#if MINIPOP_BOUNDS_CHECK
    audit_span_sums(out, ref.data(), 3 * nb);
#endif
  }
  count(comm, with_norm ? 6 : 4, nb);
}

template <typename T>
void DistOperator::mask_interior_t(const comm::FieldSetT<T>& x) const {
  const int nb = x.nb();
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = x.info(lb);
#if MINIPOP_BOUNDS_CHECK
    const std::ptrdiff_t rs = static_cast<std::ptrdiff_t>(info.nx) * nb;
    std::vector<T> ref(static_cast<std::size_t>(rs) * info.ny);
    kernels::copy_batch(nb, info.nx, info.ny, x.interior(lb), x.stride(lb),
                        ref.data(), rs);
    kernels::mask_zero_batch(block_mask_[lb].data(), block_mask_[lb].nx(),
                             nb, info.nx, info.ny, ref.data(), rs);
#endif
    // Gap-zero kernel: writes exactly the land zeros the masked version
    // writes, so the two are unconditionally bitwise identical.
    kernels::mask_zero_span_batch(span_full_[lb].row_offset(),
                                  span_full_[lb].spans(), nb, info.nx,
                                  info.ny, x.interior(lb), x.stride(lb));
#if MINIPOP_BOUNDS_CHECK
    audit_span_field(block_mask_[lb], nb, info.nx, info.ny, x.interior(lb),
                     x.stride(lb), ref.data(), rs, /*land_too=*/true);
#endif
  }
}

void DistOperator::abft_local_sums_batch(comm::Communicator& comm,
                                         const comm::FieldSet& b,
                                         const comm::FieldSet& r,
                                         const comm::FieldSet& x,
                                         double* out) const {
  MINIPOP_REQUIRE(b.compatible_with(r) && b.compatible_with(x),
                  "b/r/x field mismatch");
  const int nb = b.nb();
  for (int m = 0; m < 3 * nb; ++m) out[m] = 0.0;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& info = b.info(lb);
    const util::Field& cs = column_sum_[lb];
    const int* ro = span_full_[lb].row_offset();
    const kernels::Span* sp = span_full_[lb].spans();
#if MINIPOP_BOUNDS_CHECK
    const auto& mask = block_mask_[lb];
    std::vector<double> ref(out, out + 3 * nb);
    kernels::masked_sum_batch(mask.data(), mask.nx(), nb, info.nx, info.ny,
                              b.interior(lb), b.stride(lb), ref.data());
    kernels::masked_sum_batch(mask.data(), mask.nx(), nb, info.nx, info.ny,
                              r.interior(lb), r.stride(lb), ref.data() + nb);
    kernels::dot_shared_batch(mask.data(), mask.nx(), nb, info.nx, info.ny,
                              cs.data(), cs.nx(), x.interior(lb),
                              x.stride(lb), ref.data() + 2 * nb);
#endif
    kernels::sum_span_batch(ro, sp, nb, info.ny, b.interior(lb),
                            b.stride(lb), out);
    kernels::sum_span_batch(ro, sp, nb, info.ny, r.interior(lb),
                            r.stride(lb), out + nb);
    kernels::dot_shared_span_batch(ro, sp, nb, info.ny, cs.data(), cs.nx(),
                                   x.interior(lb), x.stride(lb),
                                   out + 2 * nb);
#if MINIPOP_BOUNDS_CHECK
    audit_span_sums(out, ref.data(), 3 * nb);
#endif
  }
  count(comm, 4, nb);
}

// Public overloads: one per storage scalar, forwarding to the bodies.
#define MINIPOP_DIST_OPERATOR_OVERLOADS(FS)                                   \
  void DistOperator::apply_batch(comm::Communicator& comm,                   \
                                 const comm::HaloExchanger& halo,            \
                                 const FS& x, const FS& y,                   \
                                 comm::HaloFreshness fresh) const {          \
    apply_t(comm, halo, x, y, fresh);                                        \
  }                                                                          \
  void DistOperator::residual_batch(                                         \
      comm::Communicator& comm, const comm::HaloExchanger& halo,             \
      const FS& b, const FS& x, const FS& r, comm::HaloFreshness fresh)      \
      const {                                                                \
    residual_t(comm, halo, b, x, r, fresh);                                  \
  }                                                                          \
  void DistOperator::residual_local_norm2_batch(                             \
      comm::Communicator& comm, const comm::HaloExchanger& halo,             \
      const FS& b, const FS& x, const FS& r, double* sums,                   \
      comm::HaloFreshness fresh) const {                                     \
    residual_local_norm2_t(comm, halo, b, x, r, sums, fresh);                \
  }                                                                          \
  void DistOperator::local_dot_batch(comm::Communicator& comm, const FS& a,  \
                                     const FS& b, double* sums) const {      \
    local_dot_t(comm, a, b, sums);                                           \
  }                                                                          \
  void DistOperator::local_dot3_batch(comm::Communicator& comm, const FS& r, \
                                      const FS& rp, const FS& z,             \
                                      bool with_norm, double* out) const {   \
    local_dot3_t(comm, r, rp, z, with_norm, out);                            \
  }                                                                          \
  void DistOperator::mask_interior_batch(const FS& x) const {                \
    mask_interior_t(x);                                                      \
  }
MINIPOP_DIST_OPERATOR_OVERLOADS(comm::FieldSet)
MINIPOP_DIST_OPERATOR_OVERLOADS(comm::FieldSet32)
#undef MINIPOP_DIST_OPERATOR_OVERLOADS

}  // namespace minipop::solver
