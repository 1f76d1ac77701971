// Hot-path kernels of the barotropic solvers.
//
// Both ChronGear (Alg. 1) and P-CSI (Alg. 2) spend their rank-local time
// in the same few sweeps: the nine-point matvec, the residual update, the
// masked inner products and the vector updates. These are memory-bound
// stencil/streaming loops, so the kernels here are written to (a) touch
// each field exactly once per logical operation — fused residual, fused
// residual+norm², fused triple dot, fused lincomb+axpy — and (b) present
// the compiler with raw, restrict-qualified row pointers so the inner
// loops vectorize without runtime alias checks or per-element index
// arithmetic.
//
// ONE ENTRY POINT PER KERNEL. Each kernel is one templated body
// `X<T, B>` in kernels.cpp behind one public entry point that takes the
// member count nb at run time:
//   * T is the storage scalar (float or double; nothing else links).
//     Element arithmetic runs at storage precision — fp32 storage exists
//     to halve bytes per point, and widening every operand would forfeit
//     half the vector lanes — but every REDUCTION accumulates in double
//     regardless of T: a float accumulator over a 0.1-degree block
//     (~10^5 points) loses ~5 digits to cancellation, which is exactly
//     the failure mode the mixed-precision refinement loop must be able
//     to measure, not suffer.
//   * B is the compile-time member width: the entry points run nb == 1
//     at B = 1, whose member loop collapses to the plain row-major loop
//     (register accumulators, vectorized), and every other nb at the
//     dynamic width B = 0. A one-member set therefore runs the single-
//     field code, and member m of a wider set gets the same bits.
//
// Two families:
//   * `*_span_batch` — the production sweeps (DESIGN.md §14). They walk
//     a per-row list of ocean spans instead of the land mask.
//   * `*_batch` — the masked (reductions, mask-enforcing kernels) and
//     dense (stencil sweeps, vector updates, copy/fill) forms. The dense
//     copy/fill/convert and the precision-boundary update are production
//     code; the masked forms are the reference the span sweeps are
//     checked against (MINIPOP_BOUNDS_CHECK cross-run, test_span_plan,
//     bench_spans).
//
// Fields are member-fastest interleaved SoA planes: member m of interior
// cell (i, j) lives at base[j*stride + i*nb + m]; nb = 1 is the plain
// row-major layout. Stencil coefficients and the land mask are shared
// across members and loaded ONCE per cell, then reused across the member
// loop — coefficient bytes are read once per point instead of once per
// point per member, which is the batching bandwidth win.
//
// Contracts shared by every kernel:
//   * All pointers address the FIRST INTERIOR element of a block-local
//     row-major array; `*_stride` is the padded row pitch in elements
//     (already widened by nb). A padded field's interior pointer is
//     `base + h*pitch + h*nb`.
//   * Distinct array arguments must not alias (they are restrict-
//     qualified); rows of one padded array never overlap because the
//     pitch exceeds the interior width.
//   * For T = double, floating-point evaluation order is IDENTICAL to
//     the naive scalar loops these kernels replace (same per-element
//     expression order, same row-major reduction order), so results are
//     bit-for-bit equal to the pre-kernel implementation and
//     deterministic across runs. The float instantiation keeps the same
//     order at float precision (and double reduction accumulators), so
//     it too is deterministic and matches a naive fp32 loop. For every
//     member m the expression and reduction order are IDENTICAL to the
//     nb = 1 kernel on member m's plane, so results are bit-identical
//     whatever the width.
//   * Reductions CONTINUE per-member accumulators in a caller array
//     (sums[m] += ...), so callers thread one running accumulator
//     through all local blocks (FP association matters; starting each
//     block at zero and adding partials would perturb the last bits).
//     Operands are widened to double BEFORE the multiply. Update kernels
//     take per-member coefficients and an optional `active` mask of nb
//     bytes — members with active[m] == 0 are not written (their planes
//     stay frozen), which implements per-member convergence masking in
//     the batched solvers. A null `active` means all members are active.
//   * No bounds checks: callers guarantee shapes. (Bounds checking in the
//     object wrappers is governed by MINIPOP_BOUNDS_CHECK; the kernels
//     never had any.)
#pragma once

#include <cstddef>

#if defined(_MSC_VER)
#define MINIPOP_RESTRICT __restrict
#else
#define MINIPOP_RESTRICT __restrict__
#endif

namespace minipop::solver::kernels {

/// Base pointers of one block's nine coefficient arrays (unpadded,
/// bnx-pitch, row-major — the layout DistOperator stores). Order follows
/// grid::Dir. `stride` is the coefficient row pitch (= block nx).
template <typename T>
struct Stencil9T {
  const T* c0;   ///< center
  const T* ce;   ///< east
  const T* cw;   ///< west
  const T* cn;   ///< north
  const T* cs;   ///< south
  const T* cne;  ///< north-east
  const T* cnw;  ///< north-west
  const T* cse;  ///< south-east
  const T* csw;  ///< south-west
  std::ptrdiff_t stride;
};

using Stencil9 = Stencil9T<double>;
using Stencil9f = Stencil9T<float>;

/// One run of contiguous ocean cells inside a block row: interior cells
/// [i0, i0 + len). Span lists are precomputed from the land mask once
/// per operator (solver::BlockSpans in span_plan.hpp) and drive the
/// *_span_batch kernels below, whose inner loops are mask-free and unit-stride.
struct Span {
  int i0 = 0;
  int len = 0;
};

// ---------------------------------------------------------------------
// Masked and dense forms.
// ---------------------------------------------------------------------

/// y = A x over an nx*ny interior, all nb members. x must have valid
/// halo rows/columns around the interior (pitch xs); y is written
/// interior-only. 9 flops/point by the paper's counting convention.
template <typename T>
void apply9_batch(const Stencil9T<T>& c, int nb, int nx, int ny, const T* x,
                  std::ptrdiff_t xs, T* y, std::ptrdiff_t ys);

/// Fused residual r = b - A x in ONE sweep (the seed code swept twice:
/// apply, then subtract). 10 flops/point.
template <typename T>
void residual9_batch(const Stencil9T<T>& c, int nb, int nx, int ny,
                     const T* b, std::ptrdiff_t bs, const T* x,
                     std::ptrdiff_t xs, T* r, std::ptrdiff_t rs);

/// Fused residual + per-member masked norm²: r = b - A x and
/// sums[m] += sum_{mask} r_m², all in ONE sweep — the solvers'
/// convergence check at zero extra field passes. Bit-identical to
/// residual9_batch followed by dot_batch(r, r). 12 flops/point.
template <typename T>
void residual_norm2_9_batch(const Stencil9T<T>& c, const unsigned char* mask,
                            std::ptrdiff_t ms, int nb, int nx, int ny,
                            const T* b, std::ptrdiff_t bs, const T* x,
                            std::ptrdiff_t xs, T* r, std::ptrdiff_t rs,
                            double* sums);

/// Per-member masked dots: sums[m] += sum_{mask} a_m * b_m.
template <typename T>
void dot_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
               int ny, const T* a, std::ptrdiff_t as, const T* b,
               std::ptrdiff_t bs, double* sums);

/// Per-member fused ChronGear dots in ONE sweep, grouped for ONE vector
/// allreduce:
///   out[m]        += <r_m, rp_m>        (rho)
///   out[nb + m]   += <z_m, rp_m>        (delta)
///   out[2nb + m]  += <r_m, r_m>         (norm, only if with_norm)
/// Each accumulator's add order matches the equivalent dot_batch call.
template <typename T>
void dot3_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const T* r, std::ptrdiff_t rs, const T* rp,
                std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs,
                bool with_norm, double* out);

/// Per-member masked sums: sums[m] += sum_{mask} a_m (the integrity
/// layer's ABFT checksum sweep). 1 flop/point.
template <typename T>
void masked_sum_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                      int nx, int ny, const T* a, std::ptrdiff_t as,
                      double* sums);

/// Per-member dots against ONE shared double plane with its own pitch
/// (the ABFT audit pairs the operator's unpadded column-sum field with a
/// padded solver field): sums[m] += sum_{mask} c * a_m. 2 flops/point.
template <typename T>
void dot_shared_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                      int nx, int ny, const double* c, std::ptrdiff_t cs,
                      const T* a, std::ptrdiff_t as, double* sums);

/// y_m = a[m]*x_m + b[m]*y_m for each active m.
template <typename T>
void lincomb_batch(int nb, int nx, int ny, const T* a, const T* x,
                   std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
                   const unsigned char* active);

/// y_m += a[m]*x_m for each active m.
template <typename T>
void axpy_batch(int nb, int nx, int ny, const T* a, const T* x,
                std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
                const unsigned char* active);

/// Fused vector update pair (P-CSI steps 7-8; ChronGear steps 13-16 as
/// two calls), in ONE sweep: for each active m, y_m = a[m]*x_m +
/// b[m]*y_m followed by z_m += c[m]*y_m.
template <typename T>
void lincomb_axpy_batch(int nb, int nx, int ny, const T* a, const T* x,
                        std::ptrdiff_t xs, const T* b, T* y,
                        std::ptrdiff_t ys, const T* c, T* z,
                        std::ptrdiff_t zs, const unsigned char* active);

/// x_m *= a[m] for each active m.
template <typename T>
void scale_batch(int nb, int nx, int ny, const T* a, T* x,
                 std::ptrdiff_t xs, const unsigned char* active);

/// y = x, all members (row-wise memcpy over the widened rows).
template <typename T>
void copy_batch(int nb, int nx, int ny, const T* x, std::ptrdiff_t xs, T* y,
                std::ptrdiff_t ys);

/// x = v, all members.
template <typename T>
void fill_batch(int nb, int nx, int ny, T v, T* x, std::ptrdiff_t xs);

/// x = 0 on land (mask == 0) cells, all members.
template <typename T>
void mask_zero_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                     int nx, int ny, T* x, std::ptrdiff_t xs);

/// out_m = inv * in_m (diagonal preconditioner, shared inverse-diagonal
/// plane at storage precision). 1 flop/point.
template <typename T>
void diag_apply_batch(const T* inv, std::ptrdiff_t is, int nb, int nx,
                      int ny, const T* in, std::ptrdiff_t ins, T* out,
                      std::ptrdiff_t outs);

/// out_m = mask ? in_m : 0 (identity preconditioner).
template <typename T>
void masked_copy_batch(const unsigned char* mask, std::ptrdiff_t ms,
                       int nb, int nx, int ny, const T* in,
                       std::ptrdiff_t ins, T* out, std::ptrdiff_t outs);

/// Mixed-width refinement update: y64_m += a[m] * (double) x32_m for
/// each active m — the precision boundary of the refinement loop without
/// materializing a promoted copy. 2 flops/point.
void axpy_promoted_batch(int nb, int nx, int ny, const double* a,
                         const float* x, std::ptrdiff_t xs, double* y,
                         std::ptrdiff_t ys, const unsigned char* active);

/// Precision converters: y (dst scalar) = x (src scalar), value-converted
/// per element. Used to demote fp64 residuals into the fp32 inner solve
/// and promote fp32 corrections back. Rows are contiguous spans of nx
/// elements — interleaved planes convert by passing the widened row
/// length nx*nb.
template <typename D, typename S>
void convert(int nx, int ny, const S* x, std::ptrdiff_t xs, D* y,
             std::ptrdiff_t ys);

// ---------------------------------------------------------------------
// Span forms: land-skipping variants of the sweeps above, driven by a
// per-row ocean-span list instead of the mask (DESIGN.md §14). Spans for
// row j are spans[row_offset[j] .. row_offset[j+1]); every listed cell
// is ocean, every gap is land. Semantics per kernel class:
//   * Stencil sweeps (apply9/residual9/residual+norm²) and vector
//     updates (lincomb/axpy/lincomb_axpy/scale) SKIP land cells: land
//     values of the output are left untouched instead of rewritten.
//     Under the solver invariant that land cells of every iterate hold
//     +0.0 (established by mask_interior / the masked preconditioners,
//     preserved because every coupling toward land is exactly +0.0),
//     the skipped writes would have deposited the value already there —
//     except that an update with a negative coefficient can write -0.0
//     at land where the skip keeps +0.0. That sign never propagates:
//     coastline couplings multiply it by +0.0 and every reduction is
//     masked, so ocean cells and all reduced scalars stay bit-identical
//     (see DESIGN.md §14 for the full argument).
//   * Reductions (dot/dot3/sum/dot_shared, and the norm² part of
//     residual_norm2_9_span_batch) iterate ocean cells only. Bit-
//     identical to the masked forms: the masked loops add a selected 0.0
//     per land cell, and an IEEE accumulator is invariant under adding
//     +0.0 (a round-to-nearest sum can only produce -0.0 from two -0.0
//     operands, which a +0.0-seeded accumulator never presents).
//   * Pointwise mask-enforcing kernels (mask_zero/diag_apply/
//     masked_copy) write 0 in the gaps exactly like the masked forms,
//     so they stay UNCONDITIONALLY bit-identical and keep establishing
//     the land-zero invariant the skip kernels rely on. They need the
//     row width `nx` to zero the trailing gap.
// Same member layout and `active` contract as the *_batch forms.
// ---------------------------------------------------------------------

template <typename T>
void apply9_span_batch(const Stencil9T<T>& c, const int* row_offset,
                       const Span* spans, int nb, int ny, const T* x,
                       std::ptrdiff_t xs, T* y, std::ptrdiff_t ys);

template <typename T>
void residual9_span_batch(const Stencil9T<T>& c, const int* row_offset,
                          const Span* spans, int nb, int ny, const T* b,
                          std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                          T* r, std::ptrdiff_t rs);

template <typename T>
void residual_norm2_9_span_batch(const Stencil9T<T>& c,
                                 const int* row_offset, const Span* spans,
                                 int nb, int ny, const T* b,
                                 std::ptrdiff_t bs, const T* x,
                                 std::ptrdiff_t xs, T* r, std::ptrdiff_t rs,
                                 double* sums);

template <typename T>
void dot_span_batch(const int* row_offset, const Span* spans, int nb,
                    int ny, const T* a, std::ptrdiff_t as, const T* b,
                    std::ptrdiff_t bs, double* sums);

template <typename T>
void dot3_span_batch(const int* row_offset, const Span* spans, int nb,
                     int ny, const T* r, std::ptrdiff_t rs, const T* rp,
                     std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs,
                     bool with_norm, double* out);

template <typename T>
void sum_span_batch(const int* row_offset, const Span* spans, int nb,
                    int ny, const T* a, std::ptrdiff_t as, double* sums);

template <typename T>
void dot_shared_span_batch(const int* row_offset, const Span* spans,
                           int nb, int ny, const double* c,
                           std::ptrdiff_t cs, const T* a, std::ptrdiff_t as,
                           double* sums);

template <typename T>
void lincomb_span_batch(const int* row_offset, const Span* spans, int nb,
                        int ny, const T* a, const T* x, std::ptrdiff_t xs,
                        const T* b, T* y, std::ptrdiff_t ys,
                        const unsigned char* active);

template <typename T>
void axpy_span_batch(const int* row_offset, const Span* spans, int nb,
                     int ny, const T* a, const T* x, std::ptrdiff_t xs,
                     T* y, std::ptrdiff_t ys, const unsigned char* active);

template <typename T>
void lincomb_axpy_span_batch(const int* row_offset, const Span* spans,
                             int nb, int ny, const T* a, const T* x,
                             std::ptrdiff_t xs, const T* b, T* y,
                             std::ptrdiff_t ys, const T* c, T* z,
                             std::ptrdiff_t zs,
                             const unsigned char* active);

template <typename T>
void scale_span_batch(const int* row_offset, const Span* spans, int nb,
                      int ny, const T* a, T* x, std::ptrdiff_t xs,
                      const unsigned char* active);

template <typename T>
void mask_zero_span_batch(const int* row_offset, const Span* spans, int nb,
                          int nx, int ny, T* x, std::ptrdiff_t xs);

template <typename T>
void diag_apply_span_batch(const T* inv, std::ptrdiff_t is,
                           const int* row_offset, const Span* spans,
                           int nb, int nx, int ny, const T* in,
                           std::ptrdiff_t ins, T* out, std::ptrdiff_t outs);

template <typename T>
void masked_copy_span_batch(const int* row_offset, const Span* spans,
                            int nb, int nx, int ny, const T* in,
                            std::ptrdiff_t ins, T* out,
                            std::ptrdiff_t outs);

// The definitions and the float/double instantiations live in
// kernels.cpp.

}  // namespace minipop::solver::kernels
