// Land-span execution plans (DESIGN.md §14): structural properties of
// BlockSpans on adversarial randomized masks, and the bitwise-identity
// contract of the span kernels against the masked reference kernels —
// one-member and B=4 sets, fp64 and fp32, halo depths 1 and 2, on raw
// planes and through the actual DistOperator / preconditioner /
// field-ops plumbing. Full solver runs on these masks are pinned in
// test_golden.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/kernels.hpp"
#include "src/solver/preconditioner.hpp"
#include "src/solver/span_plan.hpp"
#include "src/util/rng.hpp"
#include "tests/span_problem.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;
namespace mk = minipop::solver::kernels;

namespace {

using minipop::testing::feature_mask;
using Problem = minipop::testing::SpanProblem;
using minipop::testing::make_span_problem;

long count_mask(const mu::MaskArray& m) {
  long n = 0;
  for (unsigned char v : m) n += v;
  return n;
}

}  // namespace

// -------------------------------------------------------------------
// Structure: the run-length encoding reconstructs the mask exactly and
// validate() accepts it.
// -------------------------------------------------------------------

TEST(SpanPlan, StructureReconstructsRandomFeatureMasks) {
  const std::pair<int, int> shapes[] = {{19, 13}, {1, 7}, {8, 1}, {23, 17}};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto [nx, ny] : shapes) {
      const double p = 0.15 * static_cast<double>(seed);
      const mu::MaskArray m = feature_mask(nx, ny, seed, p);
      ms::BlockSpans bs(m.data(), m.nx(), nx, ny);
      bs.validate(m.data(), m.nx());
      EXPECT_EQ(bs.active_points(), count_mask(m));
      EXPECT_EQ(bs.full(), count_mask(m) == static_cast<long>(nx) * ny);
      // Reconstruct the mask from the spans.
      mu::MaskArray rec(nx, ny, 0);
      const int* ro = bs.row_offset();
      for (int j = 0; j < ny; ++j)
        for (int s = ro[j]; s < ro[j + 1]; ++s)
          for (int i = 0; i < bs.spans()[s].len; ++i)
            rec(bs.spans()[s].i0 + i, j) = 1;
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i)
          ASSERT_EQ(rec(i, j), m(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

// -------------------------------------------------------------------
// Kernel-level bitwise identity on raw planes: span kernels vs their
// masked twins, fp64/fp32 x scalar/B=4, on the adversarial masks.
// Reductions and gap-zero kernels must agree everywhere; pure-skip
// updates must agree at ocean cells and leave land untouched.
// -------------------------------------------------------------------

namespace {

template <typename T>
void kernel_identity_case(std::uint64_t seed, double p_ocean) {
  const int nx = 19, ny = 11, nb = 4;
  const mu::MaskArray m = feature_mask(nx, ny, seed, p_ocean);
  const ms::BlockSpans bs(m.data(), m.nx(), nx, ny);
  const int* ro = bs.row_offset();
  const mk::Span* sp = bs.spans();

  mu::Xoshiro256 rng(seed * 31 + 7);
  const std::ptrdiff_t st = nx * nb;  // batched plane stride
  auto rand_plane = [&](bool land_zero) {
    std::vector<T> v(static_cast<std::size_t>(nx) * ny * nb);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        for (int mm = 0; mm < nb; ++mm)
          v[j * st + i * nb + mm] =
              (land_zero && !m(i, j)) ? T(0)
                                      : static_cast<T>(rng.uniform(-1, 1));
    return v;
  };

  // --- reductions: dot, sum, dot_shared, dot3 -----------------------
  const std::vector<T> a = rand_plane(false), b = rand_plane(false),
                       z = rand_plane(false);
  std::vector<double> cshared(static_cast<std::size_t>(nx) * ny);
  for (double& v : cshared) v = rng.uniform(-1, 1);

  {  // one-member forms on densely packed member-0 planes
    std::vector<T> a1(static_cast<std::size_t>(nx) * ny), b1(a1.size()),
        z1(a1.size());
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        a1[j * nx + i] = a[j * st + i * nb];
        b1[j * nx + i] = b[j * st + i * nb];
        z1[j * nx + i] = z[j * st + i * nb];
      }
    // Run f on one accumulator seeded with 0.3125 (exercises the
    // continuation of the caller's running sum).
    auto sum1 = [](auto&& f) {
      double s = 0.3125;
      f(&s);
      return s;
    };
    EXPECT_EQ(sum1([&](double* s) {
                mk::dot_batch(m.data(), m.nx(), 1, nx, ny, a1.data(), nx,
                              b1.data(), nx, s);
              }),
              sum1([&](double* s) {
                mk::dot_span_batch(ro, sp, 1, ny, a1.data(), nx, b1.data(),
                                   nx, s);
              }));
    EXPECT_EQ(sum1([&](double* s) {
                mk::masked_sum_batch(m.data(), m.nx(), 1, nx, ny, a1.data(),
                                     nx, s);
              }),
              sum1([&](double* s) {
                mk::sum_span_batch(ro, sp, 1, ny, a1.data(), nx, s);
              }));
    EXPECT_EQ(sum1([&](double* s) {
                mk::dot_shared_batch(m.data(), m.nx(), 1, nx, ny,
                                     cshared.data(), nx, a1.data(), nx, s);
              }),
              sum1([&](double* s) {
                mk::dot_shared_span_batch(ro, sp, 1, ny, cshared.data(), nx,
                                          a1.data(), nx, s);
              }));
    double ref3[3] = {0.5, -0.25, 0.125}, got3[3] = {0.5, -0.25, 0.125};
    mk::dot3_batch(m.data(), m.nx(), 1, nx, ny, a1.data(), nx, b1.data(),
                   nx, z1.data(), nx, true, ref3);
    mk::dot3_span_batch(ro, sp, 1, ny, a1.data(), nx, b1.data(), nx,
                        z1.data(), nx, true, got3);
    for (int k = 0; k < 3; ++k) EXPECT_EQ(ref3[k], got3[k]);
  }
  {  // batched reductions
    std::vector<double> ref(nb, 0.75), got(nb, 0.75);
    mk::dot_batch(m.data(), m.nx(), nb, nx, ny, a.data(), st,
                           b.data(), st, ref.data());
    mk::dot_span_batch(ro, sp, nb, ny, a.data(), st, b.data(), st,
                                got.data());
    for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(ref[mm], got[mm]);
    std::vector<double> ref3(3 * nb, 0.5), got3(3 * nb, 0.5);
    mk::dot3_batch(m.data(), m.nx(), nb, nx, ny, a.data(), st,
                            b.data(), st, z.data(), st, true, ref3.data());
    mk::dot3_span_batch(ro, sp, nb, ny, a.data(), st, b.data(),
                                 st, z.data(), st, true, got3.data());
    for (int k = 0; k < 3 * nb; ++k) EXPECT_EQ(ref3[k], got3[k]);
    std::vector<double> refs(nb, -0.5), gots(nb, -0.5);
    mk::masked_sum_batch(m.data(), m.nx(), nb, nx, ny, a.data(),
                                  st, refs.data());
    mk::sum_span_batch(ro, sp, nb, ny, a.data(), st, gots.data());
    for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(refs[mm], gots[mm]);
  }

  // --- gap-zero kernels: identical planes everywhere ----------------
  {
    std::vector<T> inv(static_cast<std::size_t>(nx) * ny, T(0));
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        if (m(i, j)) inv[j * nx + i] = static_cast<T>(rng.uniform(1, 2));
    const std::vector<T> in = rand_plane(false);
    std::vector<T> ref(in.size(), T(7)), got(in.size(), T(7));
    mk::diag_apply_batch(inv.data(), nx, nb, nx, ny, in.data(),
                                  st, ref.data(), st);
    mk::diag_apply_span_batch(inv.data(), nx, ro, sp, nb, nx, ny,
                                       in.data(), st, got.data(), st);
    EXPECT_EQ(ref, got);

    std::fill(ref.begin(), ref.end(), T(7));
    std::fill(got.begin(), got.end(), T(7));
    mk::masked_copy_batch(m.data(), m.nx(), nb, nx, ny, in.data(),
                                   st, ref.data(), st);
    mk::masked_copy_span_batch(ro, sp, nb, nx, ny, in.data(), st,
                                        got.data(), st);
    EXPECT_EQ(ref, got);

    std::vector<T> x_ref = rand_plane(false);
    std::vector<T> x_got = x_ref;
    mk::mask_zero_batch(m.data(), m.nx(), nb, nx, ny,
                                 x_ref.data(), st);
    mk::mask_zero_span_batch(ro, sp, nb, nx, ny, x_got.data(), st);
    EXPECT_EQ(x_ref, x_got);
  }

  // --- pure-skip updates: ocean cells bit-equal, land untouched -----
  {
    const std::vector<unsigned char> active(nb, 1);
    std::vector<T> ca(nb), cb(nb), cc(nb);
    for (int mm = 0; mm < nb; ++mm) {
      ca[mm] = static_cast<T>(rng.uniform(-2, 2));
      cb[mm] = static_cast<T>(rng.uniform(-2, 2));
      cc[mm] = static_cast<T>(rng.uniform(-2, 2));
    }
    const std::vector<T> x = rand_plane(false);
    std::vector<T> y_ref = rand_plane(false);
    std::vector<T> y_got = y_ref, z_ref = rand_plane(false);
    std::vector<T> z_got = z_ref;
    const std::vector<T> y0 = y_ref, z0 = z_ref;
    mk::lincomb_axpy_batch(nb, nx, ny, ca.data(), x.data(), st,
                                    cb.data(), y_ref.data(), st, cc.data(),
                                    z_ref.data(), st, active.data());
    mk::lincomb_axpy_span_batch(ro, sp, nb, ny, ca.data(),
                                         x.data(), st, cb.data(),
                                         y_got.data(), st, cc.data(),
                                         z_got.data(), st, active.data());
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        for (int mm = 0; mm < nb; ++mm) {
          const std::size_t k = j * st + i * nb + mm;
          if (m(i, j)) {
            ASSERT_EQ(y_ref[k], y_got[k]);
            ASSERT_EQ(z_ref[k], z_got[k]);
          } else {  // span path must not have touched land
            ASSERT_EQ(y_got[k], y0[k]);
            ASSERT_EQ(z_got[k], z0[k]);
          }
        }
  }
}

}  // namespace

TEST(SpanPlan, KernelsBitwiseIdenticalFp64) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed)
    kernel_identity_case<double>(seed,
                                 0.2 * static_cast<double>(seed - 10));
}

TEST(SpanPlan, KernelsBitwiseIdenticalFp32) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed)
    kernel_identity_case<float>(seed,
                                0.25 * static_cast<double>(seed - 20));
}

// -------------------------------------------------------------------
// Operator-level identity: the DistOperator / preconditioner / field-op
// span sweeps against the masked reference kernels run block by block
// on the operator's own coefficient planes, fp64 and fp32, one-member
// and B=4 sets, field halos 1 and 2. Pure-skip outputs compare bitwise
// at ocean cells; gap-zero outputs and reduced scalars compare bitwise
// outright.
// -------------------------------------------------------------------

namespace {

template <typename T>
void expect_ocean_bitwise(const mu::MaskArray& m, const mc::FieldSetT<T>& a,
                          const mc::FieldSetT<T>& b) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        if (m(info.i0 + i, info.j0 + j)) {
          for (int mm = 0; mm < a.nb(); ++mm)
            ASSERT_EQ(a.at(lb, i, j, mm), b.at(lb, i, j, mm))
                << "block " << lb << " (" << i << "," << j << ") member "
                << mm;
        }
  }
}

template <typename T>
void expect_full_bitwise(const mc::FieldSetT<T>& a,
                         const mc::FieldSetT<T>& b) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const auto& info = a.info(lb);
    for (int j = 0; j < info.ny; ++j)
      for (int i = 0; i < info.nx; ++i)
        for (int mm = 0; mm < a.nb(); ++mm)
          ASSERT_EQ(a.at(lb, i, j, mm), b.at(lb, i, j, mm))
              << "block " << lb << " (" << i << "," << j << ") member "
              << mm;
  }
}

/// The masked/dense reference kernels over FieldSet views, on the
/// operator's coefficient planes and land mask (fp32: its float mirror,
/// and the diagonal preconditioner's rounding rule).
template <typename T>
struct MaskedReference {
  const ms::DistOperator& op;

  mk::Stencil9T<T> stencil(int lb) const {
    auto c = [&](mg::Dir d) -> const T* {
      if constexpr (std::is_same_v<T, float>)
        return op.block_coeff32(lb, d).data();
      else
        return op.block_coeff(lb, d).data();
    };
    return {c(mg::Dir::kCenter),    c(mg::Dir::kEast),
            c(mg::Dir::kWest),      c(mg::Dir::kNorth),
            c(mg::Dir::kSouth),     c(mg::Dir::kNorthEast),
            c(mg::Dir::kNorthWest), c(mg::Dir::kSouthEast),
            c(mg::Dir::kSouthWest), op.block_diagonal(lb).nx()};
  }
  const mu::MaskArray& mask(int lb) const { return op.block_mask(lb); }

  void apply(const mc::FieldSetT<T>& x, const mc::FieldSetT<T>& y) const {
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::apply9_batch(stencil(lb), x.nb(), x.info(lb).nx, x.info(lb).ny,
                       x.interior(lb), x.stride(lb), y.interior(lb),
                       y.stride(lb));
  }
  void residual_norm2(const mc::FieldSetT<T>& b, const mc::FieldSetT<T>& x,
                      const mc::FieldSetT<T>& r, double* sums) const {
    std::fill(sums, sums + x.nb(), 0.0);
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::residual_norm2_9_batch(
          stencil(lb), mask(lb).data(), mask(lb).nx(), x.nb(),
          x.info(lb).nx, x.info(lb).ny, b.interior(lb), b.stride(lb),
          x.interior(lb), x.stride(lb), r.interior(lb), r.stride(lb), sums);
  }
  void dot(const mc::FieldSetT<T>& a, const mc::FieldSetT<T>& b,
           double* sums) const {
    std::fill(sums, sums + a.nb(), 0.0);
    for (int lb = 0; lb < a.num_local_blocks(); ++lb)
      mk::dot_batch(mask(lb).data(), mask(lb).nx(), a.nb(), a.info(lb).nx,
                    a.info(lb).ny, a.interior(lb), a.stride(lb),
                    b.interior(lb), b.stride(lb), sums);
  }
  void dot3(const mc::FieldSetT<T>& r, const mc::FieldSetT<T>& rp,
            const mc::FieldSetT<T>& z, double* out) const {
    std::fill(out, out + 3 * r.nb(), 0.0);
    for (int lb = 0; lb < r.num_local_blocks(); ++lb)
      mk::dot3_batch(mask(lb).data(), mask(lb).nx(), r.nb(), r.info(lb).nx,
                     r.info(lb).ny, r.interior(lb), r.stride(lb),
                     rp.interior(lb), rp.stride(lb), z.interior(lb),
                     z.stride(lb), true, out);
  }
  void diagonal(const mc::FieldSetT<T>& in,
                const mc::FieldSetT<T>& out) const {
    for (int lb = 0; lb < in.num_local_blocks(); ++lb) {
      const mu::Field& d = op.block_diagonal(lb);
      std::vector<T> inv(d.size(), T(0));
      for (int j = 0; j < d.ny(); ++j)
        for (int i = 0; i < d.nx(); ++i)
          if (mask(lb)(i, j)) inv[j * d.nx() + i] = T(1.0 / d(i, j));
      mk::diag_apply_batch(inv.data(), d.nx(), in.nb(), in.info(lb).nx,
                           in.info(lb).ny, in.interior(lb), in.stride(lb),
                           out.interior(lb), out.stride(lb));
    }
  }
  void identity(const mc::FieldSetT<T>& in,
                const mc::FieldSetT<T>& out) const {
    for (int lb = 0; lb < in.num_local_blocks(); ++lb)
      mk::masked_copy_batch(mask(lb).data(), mask(lb).nx(), in.nb(),
                            in.info(lb).nx, in.info(lb).ny, in.interior(lb),
                            in.stride(lb), out.interior(lb), out.stride(lb));
  }
  void lincomb(const T* a, const mc::FieldSetT<T>& x, const T* b,
               const mc::FieldSetT<T>& y) const {
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::lincomb_batch(x.nb(), x.info(lb).nx, x.info(lb).ny, a,
                        x.interior(lb), x.stride(lb), b, y.interior(lb),
                        y.stride(lb), nullptr);
  }
  void axpy(const T* a, const mc::FieldSetT<T>& x,
            const mc::FieldSetT<T>& y) const {
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::axpy_batch(x.nb(), x.info(lb).nx, x.info(lb).ny, a, x.interior(lb),
                     x.stride(lb), y.interior(lb), y.stride(lb), nullptr);
  }
  void lincomb_axpy(const T* a, const mc::FieldSetT<T>& x, const T* b,
                    const mc::FieldSetT<T>& y, const T* c,
                    const mc::FieldSetT<T>& z) const {
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::lincomb_axpy_batch(x.nb(), x.info(lb).nx, x.info(lb).ny, a,
                             x.interior(lb), x.stride(lb), b, y.interior(lb),
                             y.stride(lb), c, z.interior(lb), z.stride(lb),
                             nullptr);
  }
  void scale(const T* a, const mc::FieldSetT<T>& x) const {
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::scale_batch(x.nb(), x.info(lb).nx, x.info(lb).ny, a,
                      x.interior(lb), x.stride(lb), nullptr);
  }
  void mask_zero(const mc::FieldSetT<T>& x) const {
    for (int lb = 0; lb < x.num_local_blocks(); ++lb)
      mk::mask_zero_batch(mask(lb).data(), mask(lb).nx(), x.nb(),
                          x.info(lb).nx, x.info(lb).ny, x.interior(lb),
                          x.stride(lb));
  }
};

/// Every span sweep on the sets `x`, `b` (a DistFieldT<T> or a
/// DistFieldBatchT<T>) against the masked reference. The `_s` fields
/// hold the span results, the `_m` fields the reference ones.
template <typename T, typename Field>
void sweep_identity(const mu::MaskArray& m, const ms::DistOperator& op,
                    const mc::HaloExchanger& halo, mc::Communicator& comm,
                    const Field& x, const Field& b) {
  using Set = mc::FieldSetT<T>;
  const MaskedReference<T> ref{op};
  const int nb = Set(x).nb();

  auto zeros = [&] {
    Field f = x;
    for (int mm = 0; mm < nb; ++mm) Set(f).fill_member_interior(mm, T(0));
    return f;
  };

  // apply (pure skip: ocean cells bit-equal). The span sweep refreshes
  // x's halo, which the reference then reads.
  Field x_s = x, y_s = zeros(), y_m = zeros();
  op.apply_batch(comm, halo, x_s, y_s);
  ref.apply(x_s, y_m);
  expect_ocean_bitwise<T>(m, y_s, y_m);

  // fused residual + norm² — residual leaves land at +0.0 on both
  // paths (land r = 0 - (+0.0) masked, untouched zero span), so the
  // planes compare bitwise at EVERY cell, and the reduced norms too.
  Field r_s = zeros(), r_m = zeros();
  std::vector<double> sums_s(nb), sums_m(nb);
  op.residual_local_norm2_batch(comm, halo, b, x_s, r_s, sums_s.data());
  ref.residual_norm2(b, x_s, r_m, sums_m.data());
  for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(sums_s[mm], sums_m[mm]);
  expect_full_bitwise<T>(r_s, r_m);

  // reductions
  op.local_dot_batch(comm, r_s, y_s, sums_s.data());
  ref.dot(r_m, y_m, sums_m.data());
  for (int mm = 0; mm < nb; ++mm) EXPECT_EQ(sums_s[mm], sums_m[mm]);
  std::vector<double> d3_s(3 * nb), d3_m(3 * nb);
  op.local_dot3_batch(comm, r_s, y_s, b, true, d3_s.data());
  ref.dot3(r_m, y_m, b, d3_m.data());
  for (int k = 0; k < 3 * nb; ++k) EXPECT_EQ(d3_s[k], d3_m[k]);

  // preconditioners (gap-zero: full bitwise equality at every cell)
  ms::DiagonalPreconditioner md(op);
  ms::IdentityPreconditioner mi(op);
  Field z_s = zeros(), z_m = zeros();
  md.apply(comm, Set(r_s), Set(z_s));
  ref.diagonal(r_m, z_m);
  expect_full_bitwise<T>(z_s, z_m);
  mi.apply(comm, Set(r_s), Set(z_s));
  ref.identity(r_m, z_m);
  expect_full_bitwise<T>(z_s, z_m);

  // field ops: span vs dense
  const ms::SpanPlan& plan = op.span_plan();
  const std::vector<T> c125(nb, T(1.25)), cm05(nb, T(-0.5)),
      cm075(nb, T(-0.75)), c05(nb, T(0.5)), c15(nb, T(1.5)), c2(nb, T(2)),
      cm1125(nb, T(-1.125));
  Field u_s = r_s, u_m = r_m;
  ms::lincomb(comm, plan, c125.data(), y_s, cm05.data(), u_s);
  ref.lincomb(c125.data(), y_m, cm05.data(), u_m);
  expect_ocean_bitwise<T>(m, u_s, u_m);
  ms::axpy(comm, plan, cm075.data(), y_s, u_s);
  ref.axpy(cm075.data(), y_m, u_m);
  expect_ocean_bitwise<T>(m, u_s, u_m);
  ms::lincomb_axpy(comm, plan, c05.data(), y_s, c15.data(), u_s, c2.data(),
                   z_s);
  ref.lincomb_axpy(c05.data(), y_m, c15.data(), u_m, c2.data(), z_m);
  expect_ocean_bitwise<T>(m, u_s, u_m);
  expect_ocean_bitwise<T>(m, z_s, z_m);
  ms::scale(comm, plan, cm1125.data(), u_s);
  ref.scale(cm1125.data(), u_m);
  expect_ocean_bitwise<T>(m, u_s, u_m);

  // mask_interior re-establishes the land-zero invariant on both
  // paths, after which the planes must agree everywhere.
  op.mask_interior_batch(u_s);
  ref.mask_zero(u_m);
  expect_full_bitwise<T>(u_s, u_m);
}

template <typename T>
void operator_identity_case(int halo_width, std::uint64_t seed) {
  const int nx = 26, ny = 18;
  Problem p = make_span_problem(nx, ny, 7, 1, seed);
  const mu::MaskArray& m = p.stencil->mask();
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator op(*p.stencil, *p.decomp, 0);

  using Field = mc::DistFieldT<T>;
  Field x(*p.decomp, 0, halo_width), b(*p.decomp, 0, halo_width);
  mu::Field xg(nx, ny, 0.0);
  mu::Xoshiro256 rng(seed + 99);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (m(i, j)) xg(i, j) = rng.uniform(-1, 1);
  x.load_global(xg);
  b.load_global(p.b_global);
  sweep_identity<T>(m, op, halo, comm, x, b);

  // --- B = 4 sets ---------------------------------------------------
  const int nb = 4;
  using Batch = mc::DistFieldBatchT<T>;
  Batch xb(*p.decomp, 0, nb, halo_width), bb(*p.decomp, 0, nb, halo_width);
  for (int mm = 0; mm < nb; ++mm) {
    mu::Field gx(nx, ny, 0.0), gb(nx, ny, 0.0);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        if (m(i, j)) {
          gx(i, j) = rng.uniform(-1, 1);
          gb(i, j) = rng.uniform(-1, 1);
        }
    Field tmp(*p.decomp, 0, halo_width);
    tmp.load_global(gx);
    xb.load_member(mm, tmp);
    tmp.load_global(gb);
    bb.load_member(mm, tmp);
  }
  sweep_identity<T>(m, op, halo, comm, xb, bb);
}

}  // namespace

TEST(SpanPlan, OperatorBitwiseIdenticalFp64Halo1) {
  operator_identity_case<double>(1, 41);
}
TEST(SpanPlan, OperatorBitwiseIdenticalFp64Halo2) {
  operator_identity_case<double>(2, 42);
}
TEST(SpanPlan, OperatorBitwiseIdenticalFp32Halo1) {
  operator_identity_case<float>(1, 43);
}
TEST(SpanPlan, OperatorBitwiseIdenticalFp32Halo2) {
  operator_identity_case<float>(2, 44);
}
