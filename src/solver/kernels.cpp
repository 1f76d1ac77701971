// Implementation notes
//
// Every core function hoists its row pointers once per j and hands the
// dense inner loop to a per-row helper whose pointers are restrict-
// qualified PARAMETERS: GCC honors restrict reliably on parameters (and
// keeps the no-alias guarantee when the helper inlines back into the j
// loop), but largely ignores it on local pointer variables — with locals
// the stencil loops stay scalar.
//
// There is ONE body per kernel, templated `<typename T, int B>` (see
// kernels.hpp for the width semantics): core:: for the masked/dense
// forms, spancore:: for the span forms, both file-local behind the
// nb-dispatching entry points at the end of this file. The nine-point
// expression keeps the exact term order of the original scalar code
// (center, E, W, N, S, NE, NW, SE, SW); the nine coefficients of a cell
// are hoisted into scalars once and reused across the member loop. At
// B = 1 the member loop collapses (w = 1, m = 0) and the expression is
// term-for-term MINIPOP_POINT9 — hoisting a coefficient load into a
// named scalar does not change its value, so every width computes the
// same bits per member.
//
// Reductions accumulate scalar, row-major, per member, continuing from
// the caller's running sums — so the fused kernels are bit-identical to
// the loops they replace; only the number of passes over memory changes.
// Masked reductions use a select (`mask ? term : 0.0`) instead of a
// branch: adding +0.0 cannot change the accumulator, so the select is
// bitwise equivalent to the branchy form while staying if-convertible.
//
// Reduction accumulators are double for both storage scalars; reduction
// operands are widened BEFORE multiplying so fp32 products enter the
// accumulator exactly. For T = double the widening casts are no-ops and
// the double instantiations generate EXACTLY the code of the
// pre-template kernels, preserving the bit-for-bit contract.
#include "src/solver/kernels.hpp"

#include <cstring>

namespace minipop::solver::kernels {

namespace {

/// The scalar nine-point row expression over the south/center/north
/// interior rows xm/x0/xp — the exact term order of the original scalar
/// code; it defines the result bit pattern. A macro, not a helper
/// function: GCC's restrict tracking does not survive passing the
/// pointers through another call (even a fully inlined one), and the
/// row loops then refuse to vectorize.
#define MINIPOP_POINT9(i)                                              \
  (c0[i] * x0[i] + ce[i] * x0[(i) + 1] + cw[i] * x0[(i)-1] +           \
   cn[i] * xp[i] + cs[i] * xm[i] + cne[i] * xp[(i) + 1] +              \
   cnw[i] * xp[(i)-1] + cse[i] * xm[(i) + 1] + csw[i] * xm[(i)-1])

/// The same expression for member m of cell i in an interleaved row
/// (ib = i*w): east/west neighbors sit a full member group (w) away.
/// Identical term order to MINIPOP_POINT9, with the nine coefficients
/// pre-hoisted into the scalars of MINIPOP_LOAD9 (hoisting a load into
/// a named scalar does not change its value, so the two expressions are
/// bit-identical for any member).
#define MINIPOP_POINT9B(ib, m, w)                                        \
  (w0 * x0[(ib) + (m)] + we * x0[(ib) + (w) + (m)] +                     \
   ww * x0[(ib) - (w) + (m)] + wn * xp[(ib) + (m)] +                     \
   ws * xm[(ib) + (m)] + wne * xp[(ib) + (w) + (m)] +                    \
   wnw * xp[(ib) - (w) + (m)] + wse * xm[(ib) + (w) + (m)] +             \
   wsw * xm[(ib) - (w) + (m)])

/// Hoists the nine coefficients of cell i into scalars; the member loop
/// then re-reads only field lanes.
#define MINIPOP_LOAD9(i)                                                 \
  const T w0 = c0[i], we = ce[i], ww = cw[i], wn = cn[i], ws = cs[i],    \
          wne = cne[i], wnw = cnw[i], wse = cse[i], wsw = csw[i]

/// Effective member width of a row: compile-time B when fixed, runtime
/// nb when B == 0 (the dynamic instantiation).
template <int B>
inline int eff_width(int nb) {
  return B > 0 ? B : nb;
}

// Each row helper below carries a `if constexpr (B == 1)` width-1 fast
// path that is the VERBATIM loop of the original single-field kernels:
// the generic member-loop body computes the same bits at w = 1, but its
// memory-resident accumulators and runtime `active`/coefficient-array
// indirections defeat GCC's reduction vectorizer, costing 1.2-2.5x on
// the one-member hot paths. The fast path keeps accumulators and
// coefficients in locals (registers) exactly as before; `active` is
// resolved once per row (it cannot change mid-row).

template <typename T, int B>
inline void row_apply9(const T* MINIPOP_RESTRICT c0,
                       const T* MINIPOP_RESTRICT ce,
                       const T* MINIPOP_RESTRICT cw,
                       const T* MINIPOP_RESTRICT cn,
                       const T* MINIPOP_RESTRICT cs,
                       const T* MINIPOP_RESTRICT cne,
                       const T* MINIPOP_RESTRICT cnw,
                       const T* MINIPOP_RESTRICT cse,
                       const T* MINIPOP_RESTRICT csw,
                       const T* MINIPOP_RESTRICT xm,
                       const T* MINIPOP_RESTRICT x0,
                       const T* MINIPOP_RESTRICT xp,
                       T* MINIPOP_RESTRICT y, int nx, int nb) {
  if constexpr (B == 1) {
    for (int i = 0; i < nx; ++i) y[i] = MINIPOP_POINT9(i);
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int m = 0; m < w; ++m) y[ib + m] = MINIPOP_POINT9B(ib, m, w);
    }
  }
}

template <typename T, int B>
inline void row_residual9(const T* MINIPOP_RESTRICT c0,
                          const T* MINIPOP_RESTRICT ce,
                          const T* MINIPOP_RESTRICT cw,
                          const T* MINIPOP_RESTRICT cn,
                          const T* MINIPOP_RESTRICT cs,
                          const T* MINIPOP_RESTRICT cne,
                          const T* MINIPOP_RESTRICT cnw,
                          const T* MINIPOP_RESTRICT cse,
                          const T* MINIPOP_RESTRICT csw,
                          const T* MINIPOP_RESTRICT b,
                          const T* MINIPOP_RESTRICT xm,
                          const T* MINIPOP_RESTRICT x0,
                          const T* MINIPOP_RESTRICT xp,
                          T* MINIPOP_RESTRICT r, int nx, int nb) {
  if constexpr (B == 1) {
    for (int i = 0; i < nx; ++i) r[i] = b[i] - MINIPOP_POINT9(i);
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int m = 0; m < w; ++m)
        r[ib + m] = b[ib + m] - MINIPOP_POINT9B(ib, m, w);
    }
  }
}

template <typename T, int B>
inline void row_residual_norm2(const T* MINIPOP_RESTRICT c0,
                               const T* MINIPOP_RESTRICT ce,
                               const T* MINIPOP_RESTRICT cw,
                               const T* MINIPOP_RESTRICT cn,
                               const T* MINIPOP_RESTRICT cs,
                               const T* MINIPOP_RESTRICT cne,
                               const T* MINIPOP_RESTRICT cnw,
                               const T* MINIPOP_RESTRICT cse,
                               const T* MINIPOP_RESTRICT csw,
                               const unsigned char* MINIPOP_RESTRICT m,
                               const T* MINIPOP_RESTRICT b,
                               const T* MINIPOP_RESTRICT xm,
                               const T* MINIPOP_RESTRICT x0,
                               const T* MINIPOP_RESTRICT xp,
                               T* MINIPOP_RESTRICT r,
                               double* MINIPOP_RESTRICT sums, int nx,
                               int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) {
      const T rv = b[i] - MINIPOP_POINT9(i);
      r[i] = rv;
      sum += m[i] ? static_cast<double>(rv) * static_cast<double>(rv) : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      const unsigned char sel = m[i];
      for (int mm = 0; mm < w; ++mm) {
        const T rv = b[ib + mm] - MINIPOP_POINT9B(ib, mm, w);
        r[ib + mm] = rv;
        sums[mm] +=
            sel ? static_cast<double>(rv) * static_cast<double>(rv) : 0.0;
      }
    }
  }
}

template <typename T, int B>
inline void row_dot(const unsigned char* MINIPOP_RESTRICT m,
                    const T* MINIPOP_RESTRICT a,
                    const T* MINIPOP_RESTRICT b,
                    double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i)
      sum += m[i] ? static_cast<double>(a[i]) * static_cast<double>(b[i])
                  : 0.0;
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      const unsigned char sel = m[i];
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += sel ? static_cast<double>(a[ib + mm]) *
                              static_cast<double>(b[ib + mm])
                        : 0.0;
    }
  }
}

template <typename T, int B>
inline void row_dot3(const unsigned char* MINIPOP_RESTRICT mr,
                     const T* MINIPOP_RESTRICT rr,
                     const T* MINIPOP_RESTRICT pr,
                     const T* MINIPOP_RESTRICT zr, bool with_norm,
                     double* MINIPOP_RESTRICT s0,
                     double* MINIPOP_RESTRICT s1,
                     double* MINIPOP_RESTRICT s2, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) {
      s0[m] += sel ? static_cast<double>(rr[ib + m]) *
                         static_cast<double>(pr[ib + m])
                   : 0.0;
      s1[m] += sel ? static_cast<double>(zr[ib + m]) *
                         static_cast<double>(pr[ib + m])
                   : 0.0;
      if (with_norm)
        s2[m] += sel ? static_cast<double>(rr[ib + m]) *
                           static_cast<double>(rr[ib + m])
                     : 0.0;
    }
  }
}

template <typename T, int B>
inline void row_lincomb(const T* MINIPOP_RESTRICT a,
                        const T* MINIPOP_RESTRICT x,
                        const T* MINIPOP_RESTRICT b, T* MINIPOP_RESTRICT y,
                        const unsigned char* MINIPOP_RESTRICT active,
                        int nx, int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0], bv = b[0];
    for (int i = 0; i < nx; ++i) y[i] = av * x[i] + bv * y[i];
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        y[ib + m] = a[m] * x[ib + m] + b[m] * y[ib + m];
      }
    }
  }
}

template <typename T, int B>
inline void row_axpy(const T* MINIPOP_RESTRICT a,
                     const T* MINIPOP_RESTRICT x, T* MINIPOP_RESTRICT y,
                     const unsigned char* MINIPOP_RESTRICT active, int nx,
                     int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0];
    for (int i = 0; i < nx; ++i) y[i] += av * x[i];
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        y[ib + m] += a[m] * x[ib + m];
      }
    }
  }
}

template <typename T, int B>
inline void row_lincomb_axpy(const T* MINIPOP_RESTRICT a,
                             const T* MINIPOP_RESTRICT x,
                             const T* MINIPOP_RESTRICT b,
                             T* MINIPOP_RESTRICT y,
                             const T* MINIPOP_RESTRICT c,
                             T* MINIPOP_RESTRICT z,
                             const unsigned char* MINIPOP_RESTRICT active,
                             int nx, int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0], bv = b[0], cv = c[0];
    for (int i = 0; i < nx; ++i) {
      const T v = av * x[i] + bv * y[i];
      y[i] = v;
      z[i] += cv * v;
    }
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        const T v = a[m] * x[ib + m] + b[m] * y[ib + m];
        y[ib + m] = v;
        z[ib + m] += c[m] * v;
      }
    }
  }
}

template <typename T, int B>
inline void row_scale(const T* MINIPOP_RESTRICT a, T* MINIPOP_RESTRICT x,
                      const unsigned char* MINIPOP_RESTRICT active, int nx,
                      int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const T av = a[0];
    for (int i = 0; i < nx; ++i) x[i] *= av;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        x[ib + m] *= a[m];
      }
    }
  }
}

template <typename T, int B>
inline void row_fill(T v, T* MINIPOP_RESTRICT x, int nx, int nb) {
  const std::ptrdiff_t row =
      static_cast<std::ptrdiff_t>(nx) * eff_width<B>(nb);
  for (std::ptrdiff_t i = 0; i < row; ++i) x[i] = v;
}

template <typename T, int B>
inline void row_mask_zero(const unsigned char* MINIPOP_RESTRICT mr,
                          T* MINIPOP_RESTRICT x, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) x[ib + m] = sel ? x[ib + m] : T(0);
  }
}

template <typename T, int B>
inline void row_diag_apply(const T* MINIPOP_RESTRICT vr,
                           const T* MINIPOP_RESTRICT ir,
                           T* MINIPOP_RESTRICT orr, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const T v = vr[i];
    for (int m = 0; m < w; ++m) orr[ib + m] = v * ir[ib + m];
  }
}

template <typename T, int B>
inline void row_masked_copy(const unsigned char* MINIPOP_RESTRICT mr,
                            const T* MINIPOP_RESTRICT ir,
                            T* MINIPOP_RESTRICT orr, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    const unsigned char sel = mr[i];
    for (int m = 0; m < w; ++m) orr[ib + m] = sel ? ir[ib + m] : T(0);
  }
}

template <int B>
inline void row_axpy_promoted(const double* MINIPOP_RESTRICT a,
                              const float* MINIPOP_RESTRICT x,
                              double* MINIPOP_RESTRICT y,
                              const unsigned char* MINIPOP_RESTRICT active,
                              int nx, int nb) {
  if constexpr (B == 1) {
    if (active && !active[0]) return;
    const double av = a[0];
    for (int i = 0; i < nx; ++i) y[i] += av * static_cast<double>(x[i]);
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int m = 0; m < w; ++m) {
        if (active && !active[m]) continue;
        y[ib + m] += a[m] * static_cast<double>(x[ib + m]);
      }
    }
  }
}

template <typename D, typename S>
inline void row_convert(const S* MINIPOP_RESTRICT x, D* MINIPOP_RESTRICT y,
                        int nx) {
  for (int i = 0; i < nx; ++i) y[i] = static_cast<D>(x[i]);
}

// Mask-free reduction row helpers for the span kernels: every cell they
// see is ocean, so the select collapses to an unconditional accumulate.
// Bit-identical to the masked helpers over the same cells because the
// masked forms add a literal 0.0 at land, and adding +0.0 never changes
// an IEEE accumulator (nor can it flip a +0.0-seeded sum to -0.0).

template <typename T, int B>
inline void row_residual_norm2_span(const T* MINIPOP_RESTRICT c0,
                                    const T* MINIPOP_RESTRICT ce,
                                    const T* MINIPOP_RESTRICT cw,
                                    const T* MINIPOP_RESTRICT cn,
                                    const T* MINIPOP_RESTRICT cs,
                                    const T* MINIPOP_RESTRICT cne,
                                    const T* MINIPOP_RESTRICT cnw,
                                    const T* MINIPOP_RESTRICT cse,
                                    const T* MINIPOP_RESTRICT csw,
                                    const T* MINIPOP_RESTRICT b,
                                    const T* MINIPOP_RESTRICT xm,
                                    const T* MINIPOP_RESTRICT x0,
                                    const T* MINIPOP_RESTRICT xp,
                                    T* MINIPOP_RESTRICT r,
                                    double* MINIPOP_RESTRICT sums, int nx,
                                    int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) {
      const T rv = b[i] - MINIPOP_POINT9(i);
      r[i] = rv;
      sum += static_cast<double>(rv) * static_cast<double>(rv);
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      MINIPOP_LOAD9(i);
      for (int mm = 0; mm < w; ++mm) {
        const T rv = b[ib + mm] - MINIPOP_POINT9B(ib, mm, w);
        r[ib + mm] = rv;
        sums[mm] += static_cast<double>(rv) * static_cast<double>(rv);
      }
    }
  }
}

template <typename T, int B>
inline void row_dot_span(const T* MINIPOP_RESTRICT a,
                         const T* MINIPOP_RESTRICT b,
                         double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i)
      sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += static_cast<double>(a[ib + mm]) *
                    static_cast<double>(b[ib + mm]);
    }
  }
}

template <typename T, int B>
inline void row_dot3_span(const T* MINIPOP_RESTRICT rr,
                          const T* MINIPOP_RESTRICT pr,
                          const T* MINIPOP_RESTRICT zr, bool with_norm,
                          double* MINIPOP_RESTRICT s0,
                          double* MINIPOP_RESTRICT s1,
                          double* MINIPOP_RESTRICT s2, int nx, int nb) {
  const int w = eff_width<B>(nb);
  for (int i = 0; i < nx; ++i) {
    const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
    for (int m = 0; m < w; ++m) {
      s0[m] += static_cast<double>(rr[ib + m]) *
               static_cast<double>(pr[ib + m]);
      s1[m] += static_cast<double>(zr[ib + m]) *
               static_cast<double>(pr[ib + m]);
      if (with_norm)
        s2[m] += static_cast<double>(rr[ib + m]) *
                 static_cast<double>(rr[ib + m]);
    }
  }
}

template <typename T, int B>
inline void row_sum_span(const T* MINIPOP_RESTRICT a,
                         double* MINIPOP_RESTRICT sums, int nx, int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i) sum += static_cast<double>(a[i]);
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += static_cast<double>(a[ib + mm]);
    }
  }
}

template <typename T, int B>
inline void row_dot_shared_span(const double* MINIPOP_RESTRICT cr,
                                const T* MINIPOP_RESTRICT ar,
                                double* MINIPOP_RESTRICT sums, int nx,
                                int nb) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int i = 0; i < nx; ++i)
      sum += cr[i] * static_cast<double>(ar[i]);
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int i = 0; i < nx; ++i) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
      const double cv = cr[i];
      for (int mm = 0; mm < w; ++mm)
        sums[mm] += cv * static_cast<double>(ar[ib + mm]);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Core definitions (block drivers: hoist row pointers, delegate to the
// restrict-parameter row helpers above).
// ---------------------------------------------------------------------

namespace {
namespace core {

template <typename T, int B>
void apply9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* x,
            std::ptrdiff_t xs, T* y, std::ptrdiff_t ys) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    row_apply9<T, B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj, c.cs + cj,
                     c.cne + cj, c.cnw + cj, c.cse + cj, c.csw + cj,
                     x0 - xs, x0, x0 + xs, y + j * ys, nx, nb);
  }
}

template <typename T, int B>
void residual9(const Stencil9T<T>& c, int nb, int nx, int ny, const T* b,
               std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs, T* r,
               std::ptrdiff_t rs) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    row_residual9<T, B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj,
                        c.cs + cj, c.cne + cj, c.cnw + cj, c.cse + cj,
                        c.csw + cj, b + j * bs, x0 - xs, x0, x0 + xs,
                        r + j * rs, nx, nb);
  }
}

template <typename T, int B>
void residual_norm2_9(const Stencil9T<T>& c, const unsigned char* mask,
                      std::ptrdiff_t ms, int nb, int nx, int ny, const T* b,
                      std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                      T* r, std::ptrdiff_t rs, double* sums) {
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    row_residual_norm2<T, B>(c.c0 + cj, c.ce + cj, c.cw + cj, c.cn + cj,
                             c.cs + cj, c.cne + cj, c.cnw + cj, c.cse + cj,
                             c.csw + cj, mask + j * ms, b + j * bs, x0 - xs,
                             x0, x0 + xs, r + j * rs, sums, nx, nb);
  }
}

template <typename T, int B>
void dot(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
         int ny, const T* a, std::ptrdiff_t as, const T* b,
         std::ptrdiff_t bs, double* sums) {
  for (int j = 0; j < ny; ++j)
    row_dot<T, B>(mask + j * ms, a + j * as, b + j * bs, sums, nx, nb);
}

template <typename T, int B>
void dot3(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
          int ny, const T* r, std::ptrdiff_t rs, const T* rp,
          std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs, bool with_norm,
          double* out) {
  // Grouped accumulators [rho x w][delta x w][norm x w]; per-member add
  // order equals separate dot calls, so the fusion is bitwise-neutral.
  if constexpr (B == 1) {
    // Width-1 fast path: all three accumulators live in registers
    // across the whole block and the with_norm branch is hoisted out of
    // the sweep (adds to s2 happen only when with_norm, so both forms
    // produce the same bits).
    double s0 = out[0], s1 = out[1], s2 = out[2];
    if (with_norm) {
      for (int j = 0; j < ny; ++j) {
        const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
        const T* MINIPOP_RESTRICT rr = r + j * rs;
        const T* MINIPOP_RESTRICT pr = rp + j * ps;
        const T* MINIPOP_RESTRICT zr = z + j * zs;
        for (int i = 0; i < nx; ++i) {
          s0 += mr[i]
                    ? static_cast<double>(rr[i]) * static_cast<double>(pr[i])
                    : 0.0;
          s1 += mr[i]
                    ? static_cast<double>(zr[i]) * static_cast<double>(pr[i])
                    : 0.0;
          s2 += mr[i]
                    ? static_cast<double>(rr[i]) * static_cast<double>(rr[i])
                    : 0.0;
        }
      }
    } else {
      for (int j = 0; j < ny; ++j) {
        const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
        const T* MINIPOP_RESTRICT rr = r + j * rs;
        const T* MINIPOP_RESTRICT pr = rp + j * ps;
        const T* MINIPOP_RESTRICT zr = z + j * zs;
        for (int i = 0; i < nx; ++i) {
          s0 += mr[i]
                    ? static_cast<double>(rr[i]) * static_cast<double>(pr[i])
                    : 0.0;
          s1 += mr[i]
                    ? static_cast<double>(zr[i]) * static_cast<double>(pr[i])
                    : 0.0;
        }
      }
    }
    out[0] = s0;
    out[1] = s1;
    out[2] = s2;
  } else {
    const int w = eff_width<B>(nb);
    double* s0 = out;
    double* s1 = out + w;
    double* s2 = out + 2 * w;
    for (int j = 0; j < ny; ++j)
      row_dot3<T, B>(mask + j * ms, r + j * rs, rp + j * ps, z + j * zs,
                     with_norm, s0, s1, s2, nx, nb);
  }
}

template <typename T, int B>
void masked_sum(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const T* a, std::ptrdiff_t as,
                double* sums) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i)
        sum += mr[i] ? static_cast<double>(ar[i]) : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
        const unsigned char sel = mr[i];
        for (int mm = 0; mm < w; ++mm)
          sums[mm] += sel ? static_cast<double>(ar[ib + mm]) : 0.0;
      }
    }
  }
}

template <typename T, int B>
void dot_shared(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const double* c, std::ptrdiff_t cs,
                const T* a, std::ptrdiff_t as, double* sums) {
  if constexpr (B == 1) {
    double sum = sums[0];
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT cr = c + j * cs;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i)
        sum += mr[i] ? cr[i] * static_cast<double>(ar[i]) : 0.0;
    }
    sums[0] = sum;
  } else {
    const int w = eff_width<B>(nb);
    for (int j = 0; j < ny; ++j) {
      const unsigned char* MINIPOP_RESTRICT mr = mask + j * ms;
      const double* MINIPOP_RESTRICT cr = c + j * cs;
      const T* MINIPOP_RESTRICT ar = a + j * as;
      for (int i = 0; i < nx; ++i) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(i) * w;
        const unsigned char sel = mr[i];
        const double cv = cr[i];
        for (int mm = 0; mm < w; ++mm)
          sums[mm] += sel ? cv * static_cast<double>(ar[ib + mm]) : 0.0;
      }
    }
  }
}

template <typename T, int B>
void lincomb(int nb, int nx, int ny, const T* a, const T* x,
             std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
             const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_lincomb<T, B>(a, x + j * xs, b, y + j * ys, active, nx, nb);
}

template <typename T, int B>
void axpy(int nb, int nx, int ny, const T* a, const T* x,
          std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_axpy<T, B>(a, x + j * xs, y + j * ys, active, nx, nb);
}

template <typename T, int B>
void lincomb_axpy(int nb, int nx, int ny, const T* a, const T* x,
                  std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
                  const T* c, T* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_lincomb_axpy<T, B>(a, x + j * xs, b, y + j * ys, c, z + j * zs,
                           active, nx, nb);
}

template <typename T, int B>
void scale(int nb, int nx, int ny, const T* a, T* x, std::ptrdiff_t xs,
           const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_scale<T, B>(a, x + j * xs, active, nx, nb);
}

template <typename T, int B>
void copy(int nb, int nx, int ny, const T* x, std::ptrdiff_t xs, T* y,
          std::ptrdiff_t ys) {
  const std::size_t row =
      static_cast<std::size_t>(nx) * eff_width<B>(nb) * sizeof(T);
  for (int j = 0; j < ny; ++j) std::memcpy(y + j * ys, x + j * xs, row);
}

template <typename T, int B>
void fill(int nb, int nx, int ny, T v, T* x, std::ptrdiff_t xs) {
  for (int j = 0; j < ny; ++j) row_fill<T, B>(v, x + j * xs, nx, nb);
}

template <typename T, int B>
void mask_zero(const unsigned char* mask, std::ptrdiff_t ms, int nb,
               int nx, int ny, T* x, std::ptrdiff_t xs) {
  for (int j = 0; j < ny; ++j)
    row_mask_zero<T, B>(mask + j * ms, x + j * xs, nx, nb);
}

template <typename T, int B>
void diag_apply(const T* inv, std::ptrdiff_t is, int nb, int nx, int ny,
                const T* in, std::ptrdiff_t ins, T* out,
                std::ptrdiff_t outs) {
  for (int j = 0; j < ny; ++j)
    row_diag_apply<T, B>(inv + j * is, in + j * ins, out + j * outs, nx,
                         nb);
}

template <typename T, int B>
void masked_copy(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                 int nx, int ny, const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs) {
  for (int j = 0; j < ny; ++j)
    row_masked_copy<T, B>(mask + j * ms, in + j * ins, out + j * outs, nx,
                          nb);
}

template <int B>
void axpy_promoted(int nb, int nx, int ny, const double* a, const float* x,
                   std::ptrdiff_t xs, double* y, std::ptrdiff_t ys,
                   const unsigned char* active) {
  for (int j = 0; j < ny; ++j)
    row_axpy_promoted<B>(a, x + j * xs, y + j * ys, active, nx, nb);
}

}  // namespace core
}  // namespace

// ---------------------------------------------------------------------
// Span core (file-local): block drivers over per-row ocean-span lists.
// Each driver hoists row pointers per j exactly like the core drivers,
// then delegates each span to the SAME restrict-parameter row helpers
// (or their mask-free reduction twins) with the pointers advanced to the
// span start and nx = span length — the per-cell expression and the
// row-major accumulation order over ocean cells are therefore identical
// to the masked core, which is the whole bitwise-identity story.
// ---------------------------------------------------------------------

namespace {
namespace spancore {

template <typename T, int B>
void apply9(const Stencil9T<T>& c, const int* ro, const Span* sp, int nb,
            int ny, const T* x, std::ptrdiff_t xs, T* y,
            std::ptrdiff_t ys) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    T* yr = y + j * ys;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_apply9<T, B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci,
                       c.cs + ci, c.cne + ci, c.cnw + ci, c.cse + ci,
                       c.csw + ci, x0 - xs + ib, x0 + ib, x0 + xs + ib,
                       yr + ib, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void residual9(const Stencil9T<T>& c, const int* ro, const Span* sp,
               int nb, int ny, const T* b, std::ptrdiff_t bs, const T* x,
               std::ptrdiff_t xs, T* r, std::ptrdiff_t rs) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    const T* br = b + j * bs;
    T* rr = r + j * rs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_residual9<T, B>(c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci,
                          c.cs + ci, c.cne + ci, c.cnw + ci, c.cse + ci,
                          c.csw + ci, br + ib, x0 - xs + ib, x0 + ib,
                          x0 + xs + ib, rr + ib, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void residual_norm2_9(const Stencil9T<T>& c, const int* ro, const Span* sp,
                      int nb, int ny, const T* b, std::ptrdiff_t bs,
                      const T* x, std::ptrdiff_t xs, T* r,
                      std::ptrdiff_t rs, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const std::ptrdiff_t cj = j * c.stride;
    const T* x0 = x + j * xs;
    const T* br = b + j * bs;
    T* rr = r + j * rs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ci = cj + sp[s].i0;
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_residual_norm2_span<T, B>(
          c.c0 + ci, c.ce + ci, c.cw + ci, c.cn + ci, c.cs + ci, c.cne + ci,
          c.cnw + ci, c.cse + ci, c.csw + ci, br + ib, x0 - xs + ib,
          x0 + ib, x0 + xs + ib, rr + ib, sums, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void dot(const int* ro, const Span* sp, int nb, int ny, const T* a,
         std::ptrdiff_t as, const T* b, std::ptrdiff_t bs, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const T* ar = a + j * as;
    const T* br = b + j * bs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_dot_span<T, B>(ar + ib, br + ib, sums, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void dot3(const int* ro, const Span* sp, int nb, int ny, const T* r,
          std::ptrdiff_t rs, const T* rp, std::ptrdiff_t ps, const T* z,
          std::ptrdiff_t zs, bool with_norm, double* out) {
  if constexpr (B == 1) {
    // Width-1 fast path mirrors core::dot3: register accumulators and
    // the with_norm branch hoisted out of the sweep.
    double s0 = out[0], s1 = out[1], s2 = out[2];
    if (with_norm) {
      for (int j = 0; j < ny; ++j) {
        for (int s = ro[j]; s < ro[j + 1]; ++s) {
          const T* MINIPOP_RESTRICT rr = r + j * rs + sp[s].i0;
          const T* MINIPOP_RESTRICT pr = rp + j * ps + sp[s].i0;
          const T* MINIPOP_RESTRICT zr = z + j * zs + sp[s].i0;
          const int len = sp[s].len;
          for (int i = 0; i < len; ++i) {
            s0 += static_cast<double>(rr[i]) * static_cast<double>(pr[i]);
            s1 += static_cast<double>(zr[i]) * static_cast<double>(pr[i]);
            s2 += static_cast<double>(rr[i]) * static_cast<double>(rr[i]);
          }
        }
      }
    } else {
      for (int j = 0; j < ny; ++j) {
        for (int s = ro[j]; s < ro[j + 1]; ++s) {
          const T* MINIPOP_RESTRICT rr = r + j * rs + sp[s].i0;
          const T* MINIPOP_RESTRICT pr = rp + j * ps + sp[s].i0;
          const T* MINIPOP_RESTRICT zr = z + j * zs + sp[s].i0;
          const int len = sp[s].len;
          for (int i = 0; i < len; ++i) {
            s0 += static_cast<double>(rr[i]) * static_cast<double>(pr[i]);
            s1 += static_cast<double>(zr[i]) * static_cast<double>(pr[i]);
          }
        }
      }
    }
    out[0] = s0;
    out[1] = s1;
    out[2] = s2;
  } else {
    const int w = eff_width<B>(nb);
    double* s0 = out;
    double* s1 = out + w;
    double* s2 = out + 2 * w;
    for (int j = 0; j < ny; ++j)
      for (int s = ro[j]; s < ro[j + 1]; ++s) {
        const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
        row_dot3_span<T, B>(r + j * rs + ib, rp + j * ps + ib,
                            z + j * zs + ib, with_norm, s0, s1, s2,
                            sp[s].len, nb);
      }
  }
}

template <typename T, int B>
void sum(const int* ro, const Span* sp, int nb, int ny, const T* a,
         std::ptrdiff_t as, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const T* ar = a + j * as;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_sum_span<T, B>(ar + ib, sums, sp[s].len, nb);
    }
  }
}

template <typename T, int B>
void dot_shared(const int* ro, const Span* sp, int nb, int ny,
                const double* c, std::ptrdiff_t cs, const T* a,
                std::ptrdiff_t as, double* sums) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const double* cr = c + j * cs;
    const T* ar = a + j * as;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_dot_shared_span<T, B>(cr + sp[s].i0, ar + ib, sums, sp[s].len,
                                nb);
    }
  }
}

template <typename T, int B>
void lincomb(const int* ro, const Span* sp, int nb, int ny, const T* a,
             const T* x, std::ptrdiff_t xs, const T* b, T* y,
             std::ptrdiff_t ys, const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_lincomb<T, B>(a, x + j * xs + ib, b, y + j * ys + ib, active,
                        sp[s].len, nb);
    }
}

template <typename T, int B>
void axpy(const int* ro, const Span* sp, int nb, int ny, const T* a,
          const T* x, std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
          const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_axpy<T, B>(a, x + j * xs + ib, y + j * ys + ib, active,
                     sp[s].len, nb);
    }
}

template <typename T, int B>
void lincomb_axpy(const int* ro, const Span* sp, int nb, int ny, const T* a,
                  const T* x, std::ptrdiff_t xs, const T* b, T* y,
                  std::ptrdiff_t ys, const T* c, T* z, std::ptrdiff_t zs,
                  const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_lincomb_axpy<T, B>(a, x + j * xs + ib, b, y + j * ys + ib, c,
                             z + j * zs + ib, active, sp[s].len, nb);
    }
}

template <typename T, int B>
void scale(const int* ro, const Span* sp, int nb, int ny, const T* a, T* x,
           std::ptrdiff_t xs, const unsigned char* active) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j)
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_scale<T, B>(a, x + j * xs + ib, active, sp[s].len, nb);
    }
}

/// Zero every gap (land run) of row j of `x`; the spans themselves are
/// left untouched. Shared by the three gap-zeroing span kernels.
template <typename T, int B>
inline void zero_gaps(const int* ro, const Span* sp, int nb, int nx, int j,
                      T* xr) {
  const int w = eff_width<B>(nb);
  int prev = 0;
  for (int s = ro[j]; s < ro[j + 1]; ++s) {
    if (sp[s].i0 > prev)
      row_fill<T, B>(T(0), xr + static_cast<std::ptrdiff_t>(prev) * w,
                     sp[s].i0 - prev, nb);
    prev = sp[s].i0 + sp[s].len;
  }
  if (nx > prev)
    row_fill<T, B>(T(0), xr + static_cast<std::ptrdiff_t>(prev) * w,
                   nx - prev, nb);
}

template <typename T, int B>
void mask_zero(const int* ro, const Span* sp, int nb, int nx, int ny, T* x,
               std::ptrdiff_t xs) {
  // Strictly cheaper than the masked kernel: ocean cells keep their
  // value by NOT being rewritten (bit-identical to the masked rewrite).
  for (int j = 0; j < ny; ++j)
    zero_gaps<T, B>(ro, sp, nb, nx, j, x + j * xs);
}

template <typename T, int B>
void diag_apply(const T* inv, std::ptrdiff_t is, const int* ro,
                const Span* sp, int nb, int nx, int ny, const T* in,
                std::ptrdiff_t ins, T* out, std::ptrdiff_t outs) {
  // inv is 0 on land, so the masked kernel writes exact zeros in the
  // gaps — zero_gaps reproduces them without loading inv or in there.
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    T* orow = out + j * outs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      row_diag_apply<T, B>(inv + j * is + sp[s].i0, in + j * ins + ib,
                           orow + ib, sp[s].len, nb);
    }
    zero_gaps<T, B>(ro, sp, nb, nx, j, orow);
  }
}

template <typename T, int B>
void masked_copy(const int* ro, const Span* sp, int nb, int nx, int ny,
                 const T* in, std::ptrdiff_t ins, T* out,
                 std::ptrdiff_t outs) {
  const int w = eff_width<B>(nb);
  for (int j = 0; j < ny; ++j) {
    const T* irow = in + j * ins;
    T* orow = out + j * outs;
    for (int s = ro[j]; s < ro[j + 1]; ++s) {
      const std::ptrdiff_t ib = static_cast<std::ptrdiff_t>(sp[s].i0) * w;
      std::memcpy(orow + ib, irow + ib,
                  static_cast<std::size_t>(sp[s].len) * w * sizeof(T));
    }
    zero_gaps<T, B>(ro, sp, nb, nx, j, orow);
  }
}

}  // namespace spancore
}  // namespace

// ---------------------------------------------------------------------
// Entry points: nb == 1 runs the B = 1 instantiation (the collapsed
// member loop), every other width the dynamic B = 0 one. The core
// bodies ignore their nb argument at B = 1.
// ---------------------------------------------------------------------

#define MINIPOP_BY_WIDTH(kernel, nb, ...)                            \
  ((nb) == 1 ? kernel<T, 1>(__VA_ARGS__) : kernel<T, 0>(__VA_ARGS__))

template <typename T>
void apply9_batch(const Stencil9T<T>& c, int nb, int nx, int ny, const T* x,
                  std::ptrdiff_t xs, T* y, std::ptrdiff_t ys) {
  MINIPOP_BY_WIDTH(core::apply9, nb, c, nb, nx, ny, x, xs, y, ys);
}

template <typename T>
void residual9_batch(const Stencil9T<T>& c, int nb, int nx, int ny,
                     const T* b, std::ptrdiff_t bs, const T* x,
                     std::ptrdiff_t xs, T* r, std::ptrdiff_t rs) {
  MINIPOP_BY_WIDTH(core::residual9, nb, c, nb, nx, ny, b, bs, x, xs, r, rs);
}

template <typename T>
void residual_norm2_9_batch(const Stencil9T<T>& c, const unsigned char* mask,
                            std::ptrdiff_t ms, int nb, int nx, int ny,
                            const T* b, std::ptrdiff_t bs, const T* x,
                            std::ptrdiff_t xs, T* r, std::ptrdiff_t rs,
                            double* sums) {
  MINIPOP_BY_WIDTH(core::residual_norm2_9, nb, c, mask, ms, nb, nx, ny, b,
                   bs, x, xs, r, rs, sums);
}

template <typename T>
void dot_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb, int nx,
               int ny, const T* a, std::ptrdiff_t as, const T* b,
               std::ptrdiff_t bs, double* sums) {
  MINIPOP_BY_WIDTH(core::dot, nb, mask, ms, nb, nx, ny, a, as, b, bs, sums);
}

template <typename T>
void dot3_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                int nx, int ny, const T* r, std::ptrdiff_t rs, const T* rp,
                std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs,
                bool with_norm, double* out) {
  MINIPOP_BY_WIDTH(core::dot3, nb, mask, ms, nb, nx, ny, r, rs, rp, ps, z,
                   zs, with_norm, out);
}

template <typename T>
void masked_sum_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                      int nx, int ny, const T* a, std::ptrdiff_t as,
                      double* sums) {
  MINIPOP_BY_WIDTH(core::masked_sum, nb, mask, ms, nb, nx, ny, a, as, sums);
}

template <typename T>
void dot_shared_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                      int nx, int ny, const double* c, std::ptrdiff_t cs,
                      const T* a, std::ptrdiff_t as, double* sums) {
  MINIPOP_BY_WIDTH(core::dot_shared, nb, mask, ms, nb, nx, ny, c, cs, a, as,
                   sums);
}

template <typename T>
void lincomb_batch(int nb, int nx, int ny, const T* a, const T* x,
                   std::ptrdiff_t xs, const T* b, T* y, std::ptrdiff_t ys,
                   const unsigned char* active) {
  MINIPOP_BY_WIDTH(core::lincomb, nb, nb, nx, ny, a, x, xs, b, y, ys,
                   active);
}

template <typename T>
void axpy_batch(int nb, int nx, int ny, const T* a, const T* x,
                std::ptrdiff_t xs, T* y, std::ptrdiff_t ys,
                const unsigned char* active) {
  MINIPOP_BY_WIDTH(core::axpy, nb, nb, nx, ny, a, x, xs, y, ys, active);
}

template <typename T>
void lincomb_axpy_batch(int nb, int nx, int ny, const T* a, const T* x,
                        std::ptrdiff_t xs, const T* b, T* y,
                        std::ptrdiff_t ys, const T* c, T* z,
                        std::ptrdiff_t zs, const unsigned char* active) {
  MINIPOP_BY_WIDTH(core::lincomb_axpy, nb, nb, nx, ny, a, x, xs, b, y, ys,
                   c, z, zs, active);
}

template <typename T>
void scale_batch(int nb, int nx, int ny, const T* a, T* x,
                 std::ptrdiff_t xs, const unsigned char* active) {
  MINIPOP_BY_WIDTH(core::scale, nb, nb, nx, ny, a, x, xs, active);
}

template <typename T>
void copy_batch(int nb, int nx, int ny, const T* x, std::ptrdiff_t xs, T* y,
                std::ptrdiff_t ys) {
  MINIPOP_BY_WIDTH(core::copy, nb, nb, nx, ny, x, xs, y, ys);
}

template <typename T>
void fill_batch(int nb, int nx, int ny, T v, T* x, std::ptrdiff_t xs) {
  MINIPOP_BY_WIDTH(core::fill, nb, nb, nx, ny, v, x, xs);
}

template <typename T>
void mask_zero_batch(const unsigned char* mask, std::ptrdiff_t ms, int nb,
                     int nx, int ny, T* x, std::ptrdiff_t xs) {
  MINIPOP_BY_WIDTH(core::mask_zero, nb, mask, ms, nb, nx, ny, x, xs);
}

template <typename T>
void diag_apply_batch(const T* inv, std::ptrdiff_t is, int nb, int nx,
                      int ny, const T* in, std::ptrdiff_t ins, T* out,
                      std::ptrdiff_t outs) {
  MINIPOP_BY_WIDTH(core::diag_apply, nb, inv, is, nb, nx, ny, in, ins, out,
                   outs);
}

template <typename T>
void masked_copy_batch(const unsigned char* mask, std::ptrdiff_t ms,
                       int nb, int nx, int ny, const T* in,
                       std::ptrdiff_t ins, T* out, std::ptrdiff_t outs) {
  MINIPOP_BY_WIDTH(core::masked_copy, nb, mask, ms, nb, nx, ny, in, ins, out,
                   outs);
}

void axpy_promoted_batch(int nb, int nx, int ny, const double* a,
                         const float* x, std::ptrdiff_t xs, double* y,
                         std::ptrdiff_t ys, const unsigned char* active) {
  if (nb == 1)
    return core::axpy_promoted<1>(1, nx, ny, a, x, xs, y, ys, active);
  core::axpy_promoted<0>(nb, nx, ny, a, x, xs, y, ys, active);
}

template <typename D, typename S>
void convert(int nx, int ny, const S* x, std::ptrdiff_t xs, D* y,
             std::ptrdiff_t ys) {
  for (int j = 0; j < ny; ++j) row_convert(x + j * xs, y + j * ys, nx);
}

template <typename T>
void apply9_span_batch(const Stencil9T<T>& c, const int* row_offset,
                       const Span* spans, int nb, int ny, const T* x,
                       std::ptrdiff_t xs, T* y, std::ptrdiff_t ys) {
  MINIPOP_BY_WIDTH(spancore::apply9, nb, c, row_offset, spans, nb, ny, x,
                   xs, y, ys);
}

template <typename T>
void residual9_span_batch(const Stencil9T<T>& c, const int* row_offset,
                          const Span* spans, int nb, int ny, const T* b,
                          std::ptrdiff_t bs, const T* x, std::ptrdiff_t xs,
                          T* r, std::ptrdiff_t rs) {
  MINIPOP_BY_WIDTH(spancore::residual9, nb, c, row_offset, spans, nb, ny, b,
                   bs, x, xs, r, rs);
}

template <typename T>
void residual_norm2_9_span_batch(const Stencil9T<T>& c,
                                 const int* row_offset, const Span* spans,
                                 int nb, int ny, const T* b,
                                 std::ptrdiff_t bs, const T* x,
                                 std::ptrdiff_t xs, T* r, std::ptrdiff_t rs,
                                 double* sums) {
  MINIPOP_BY_WIDTH(spancore::residual_norm2_9, nb, c, row_offset, spans, nb,
                   ny, b, bs, x, xs, r, rs, sums);
}

template <typename T>
void dot_span_batch(const int* row_offset, const Span* spans, int nb,
                    int ny, const T* a, std::ptrdiff_t as, const T* b,
                    std::ptrdiff_t bs, double* sums) {
  MINIPOP_BY_WIDTH(spancore::dot, nb, row_offset, spans, nb, ny, a, as, b,
                   bs, sums);
}

template <typename T>
void dot3_span_batch(const int* row_offset, const Span* spans, int nb,
                     int ny, const T* r, std::ptrdiff_t rs, const T* rp,
                     std::ptrdiff_t ps, const T* z, std::ptrdiff_t zs,
                     bool with_norm, double* out) {
  MINIPOP_BY_WIDTH(spancore::dot3, nb, row_offset, spans, nb, ny, r, rs, rp,
                   ps, z, zs, with_norm, out);
}

template <typename T>
void sum_span_batch(const int* row_offset, const Span* spans, int nb,
                    int ny, const T* a, std::ptrdiff_t as, double* sums) {
  MINIPOP_BY_WIDTH(spancore::sum, nb, row_offset, spans, nb, ny, a, as,
                   sums);
}

template <typename T>
void dot_shared_span_batch(const int* row_offset, const Span* spans,
                           int nb, int ny, const double* c,
                           std::ptrdiff_t cs, const T* a, std::ptrdiff_t as,
                           double* sums) {
  MINIPOP_BY_WIDTH(spancore::dot_shared, nb, row_offset, spans, nb, ny, c,
                   cs, a, as, sums);
}

template <typename T>
void lincomb_span_batch(const int* row_offset, const Span* spans, int nb,
                        int ny, const T* a, const T* x, std::ptrdiff_t xs,
                        const T* b, T* y, std::ptrdiff_t ys,
                        const unsigned char* active) {
  MINIPOP_BY_WIDTH(spancore::lincomb, nb, row_offset, spans, nb, ny, a, x,
                   xs, b, y, ys, active);
}

template <typename T>
void axpy_span_batch(const int* row_offset, const Span* spans, int nb,
                     int ny, const T* a, const T* x, std::ptrdiff_t xs,
                     T* y, std::ptrdiff_t ys, const unsigned char* active) {
  MINIPOP_BY_WIDTH(spancore::axpy, nb, row_offset, spans, nb, ny, a, x, xs,
                   y, ys, active);
}

template <typename T>
void lincomb_axpy_span_batch(const int* row_offset, const Span* spans,
                             int nb, int ny, const T* a, const T* x,
                             std::ptrdiff_t xs, const T* b, T* y,
                             std::ptrdiff_t ys, const T* c, T* z,
                             std::ptrdiff_t zs,
                             const unsigned char* active) {
  MINIPOP_BY_WIDTH(spancore::lincomb_axpy, nb, row_offset, spans, nb, ny, a,
                   x, xs, b, y, ys, c, z, zs, active);
}

template <typename T>
void scale_span_batch(const int* row_offset, const Span* spans, int nb,
                      int ny, const T* a, T* x, std::ptrdiff_t xs,
                      const unsigned char* active) {
  MINIPOP_BY_WIDTH(spancore::scale, nb, row_offset, spans, nb, ny, a, x, xs,
                   active);
}

template <typename T>
void mask_zero_span_batch(const int* row_offset, const Span* spans, int nb,
                          int nx, int ny, T* x, std::ptrdiff_t xs) {
  MINIPOP_BY_WIDTH(spancore::mask_zero, nb, row_offset, spans, nb, nx, ny,
                   x, xs);
}

template <typename T>
void diag_apply_span_batch(const T* inv, std::ptrdiff_t is,
                           const int* row_offset, const Span* spans,
                           int nb, int nx, int ny, const T* in,
                           std::ptrdiff_t ins, T* out,
                           std::ptrdiff_t outs) {
  MINIPOP_BY_WIDTH(spancore::diag_apply, nb, inv, is, row_offset, spans, nb,
                   nx, ny, in, ins, out, outs);
}

template <typename T>
void masked_copy_span_batch(const int* row_offset, const Span* spans,
                            int nb, int nx, int ny, const T* in,
                            std::ptrdiff_t ins, T* out,
                            std::ptrdiff_t outs) {
  MINIPOP_BY_WIDTH(spancore::masked_copy, nb, row_offset, spans, nb, nx, ny,
                   in, ins, out, outs);
}

#undef MINIPOP_BY_WIDTH

#define MINIPOP_KERNELS_INSTANTIATE(T)                                     \
  template void apply9_batch<T>(const Stencil9T<T>&, int, int, int,        \
                                const T*, std::ptrdiff_t, T*,              \
                                std::ptrdiff_t);                           \
  template void residual9_batch<T>(const Stencil9T<T>&, int, int, int,     \
                                   const T*, std::ptrdiff_t, const T*,     \
                                   std::ptrdiff_t, T*, std::ptrdiff_t);    \
  template void residual_norm2_9_batch<T>(                                 \
      const Stencil9T<T>&, const unsigned char*, std::ptrdiff_t, int, int, \
      int, const T*, std::ptrdiff_t, const T*, std::ptrdiff_t, T*,         \
      std::ptrdiff_t, double*);                                            \
  template void dot_batch<T>(const unsigned char*, std::ptrdiff_t, int,    \
                             int, int, const T*, std::ptrdiff_t, const T*, \
                             std::ptrdiff_t, double*);                     \
  template void dot3_batch<T>(const unsigned char*, std::ptrdiff_t, int,   \
                              int, int, const T*, std::ptrdiff_t,          \
                              const T*, std::ptrdiff_t, const T*,          \
                              std::ptrdiff_t, bool, double*);              \
  template void masked_sum_batch<T>(const unsigned char*, std::ptrdiff_t,  \
                                    int, int, int, const T*,               \
                                    std::ptrdiff_t, double*);              \
  template void dot_shared_batch<T>(const unsigned char*, std::ptrdiff_t,  \
                                    int, int, int, const double*,          \
                                    std::ptrdiff_t, const T*,              \
                                    std::ptrdiff_t, double*);              \
  template void lincomb_batch<T>(int, int, int, const T*, const T*,        \
                                 std::ptrdiff_t, const T*, T*,             \
                                 std::ptrdiff_t, const unsigned char*);    \
  template void axpy_batch<T>(int, int, int, const T*, const T*,           \
                              std::ptrdiff_t, T*, std::ptrdiff_t,          \
                              const unsigned char*);                       \
  template void lincomb_axpy_batch<T>(int, int, int, const T*, const T*,   \
                                      std::ptrdiff_t, const T*, T*,        \
                                      std::ptrdiff_t, const T*, T*,        \
                                      std::ptrdiff_t,                      \
                                      const unsigned char*);               \
  template void scale_batch<T>(int, int, int, const T*, T*,                \
                               std::ptrdiff_t, const unsigned char*);      \
  template void copy_batch<T>(int, int, int, const T*, std::ptrdiff_t,     \
                              T*, std::ptrdiff_t);                         \
  template void fill_batch<T>(int, int, int, T, T*, std::ptrdiff_t);       \
  template void mask_zero_batch<T>(const unsigned char*, std::ptrdiff_t,   \
                                   int, int, int, T*, std::ptrdiff_t);     \
  template void diag_apply_batch<T>(const T*, std::ptrdiff_t, int, int,    \
                                    int, const T*, std::ptrdiff_t, T*,     \
                                    std::ptrdiff_t);                       \
  template void masked_copy_batch<T>(const unsigned char*, std::ptrdiff_t, \
                                     int, int, int, const T*,              \
                                     std::ptrdiff_t, T*, std::ptrdiff_t);  \
  template void apply9_span_batch<T>(const Stencil9T<T>&, const int*,      \
                                     const Span*, int, int, const T*,      \
                                     std::ptrdiff_t, T*, std::ptrdiff_t);  \
  template void residual9_span_batch<T>(                                   \
      const Stencil9T<T>&, const int*, const Span*, int, int, const T*,    \
      std::ptrdiff_t, const T*, std::ptrdiff_t, T*, std::ptrdiff_t);       \
  template void residual_norm2_9_span_batch<T>(                            \
      const Stencil9T<T>&, const int*, const Span*, int, int, const T*,    \
      std::ptrdiff_t, const T*, std::ptrdiff_t, T*, std::ptrdiff_t,        \
      double*);                                                            \
  template void dot_span_batch<T>(const int*, const Span*, int, int,       \
                                  const T*, std::ptrdiff_t, const T*,      \
                                  std::ptrdiff_t, double*);                \
  template void dot3_span_batch<T>(const int*, const Span*, int, int,      \
                                   const T*, std::ptrdiff_t, const T*,     \
                                   std::ptrdiff_t, const T*,               \
                                   std::ptrdiff_t, bool, double*);         \
  template void sum_span_batch<T>(const int*, const Span*, int, int,       \
                                  const T*, std::ptrdiff_t, double*);      \
  template void dot_shared_span_batch<T>(const int*, const Span*, int,     \
                                         int, const double*,               \
                                         std::ptrdiff_t, const T*,         \
                                         std::ptrdiff_t, double*);         \
  template void lincomb_span_batch<T>(const int*, const Span*, int, int,   \
                                      const T*, const T*, std::ptrdiff_t,  \
                                      const T*, T*, std::ptrdiff_t,        \
                                      const unsigned char*);               \
  template void axpy_span_batch<T>(const int*, const Span*, int, int,      \
                                   const T*, const T*, std::ptrdiff_t, T*, \
                                   std::ptrdiff_t, const unsigned char*);  \
  template void lincomb_axpy_span_batch<T>(                                \
      const int*, const Span*, int, int, const T*, const T*,               \
      std::ptrdiff_t, const T*, T*, std::ptrdiff_t, const T*, T*,          \
      std::ptrdiff_t, const unsigned char*);                               \
  template void scale_span_batch<T>(const int*, const Span*, int, int,     \
                                    const T*, T*, std::ptrdiff_t,          \
                                    const unsigned char*);                 \
  template void mask_zero_span_batch<T>(const int*, const Span*, int,      \
                                        int, int, T*, std::ptrdiff_t);     \
  template void diag_apply_span_batch<T>(                                  \
      const T*, std::ptrdiff_t, const int*, const Span*, int, int, int,    \
      const T*, std::ptrdiff_t, T*, std::ptrdiff_t);                       \
  template void masked_copy_span_batch<T>(const int*, const Span*, int,    \
                                          int, int, const T*,              \
                                          std::ptrdiff_t, T*,              \
                                          std::ptrdiff_t);

MINIPOP_KERNELS_INSTANTIATE(double)
MINIPOP_KERNELS_INSTANTIATE(float)
#undef MINIPOP_KERNELS_INSTANTIATE

template void convert<float, double>(int, int, const double*,
                                     std::ptrdiff_t, float*, std::ptrdiff_t);
template void convert<double, float>(int, int, const float*, std::ptrdiff_t,
                                     double*, std::ptrdiff_t);

}  // namespace minipop::solver::kernels
