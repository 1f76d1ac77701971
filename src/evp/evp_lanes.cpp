#include "src/evp/evp_lanes.hpp"

#include <algorithm>
#include <type_traits>

#include "src/linalg/dense.hpp"
#include "src/util/error.hpp"

namespace minipop::evp {

namespace {

using grid::Dir;
constexpr int D(Dir d) { return static_cast<int>(d); }

// Bitwise contract: per lane, each body below performs exactly the
// operations of a one-tile solve in the same order — the fp64 march's
// 8-term left-to-right sum and true division by the NE pivot, the
// residual's kDirOffset order, the LU's `acc -= lu(r,c) * x[c]` order.
// A neighbour outside the tile reads 0.0 from the zero ring, which is
// the value the zero-Dirichlet boundary defines, so even boundary cells
// need no branch. Lanes never mix, so a lane's result is independent of
// the group it is packed into and of L.

template <typename T, int L>
void march_body(const EvpLaneView<T>& v, const T* y, T* xp) {
  const int nx = v.nx;
  const int ny = v.ny;
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * L;
  const T* cc = v.coeff[D(Dir::kCenter)];
  const T* ce = v.coeff[D(Dir::kEast)];
  const T* cw = v.coeff[D(Dir::kWest)];
  const T* cn = v.coeff[D(Dir::kNorth)];
  const T* cs = v.coeff[D(Dir::kSouth)];
  const T* cne = v.coeff[D(Dir::kNorthEast)];
  const T* cnw = v.coeff[D(Dir::kNorthWest)];
  const T* cse = v.coeff[D(Dir::kSouthEast)];
  const T* csw = v.coeff[D(Dir::kSouthWest)];
  const T* rne = v.recip_ne;
  // The equation at tile cell (a-1, b-1) is solved for its NE neighbour
  // (a, b). Its padded index (a, b) addresses both its coefficients and
  // its own x value, so one offset serves every array.
  for (int b = 1; b < ny; ++b) {
    const T* yb = y + static_cast<std::ptrdiff_t>(b - 1) * nx * L;
    for (int a = 1; a < nx; ++a) {
      const std::ptrdiff_t o =
          (b * static_cast<std::ptrdiff_t>(nx + 2) + a) * L;
      const T* xs = xp + o - row;  // tile row b - 2
      const T* xm = xp + o;        // tile row b - 1 (the equation's row)
      const T* xn = xp + o + row;  // tile row b (being marched)
      const T* ye = yb + static_cast<std::ptrdiff_t>(a - 1) * L;
      T r[L];
      for (int l = 0; l < L; ++l) {
        if constexpr (std::is_same_v<T, double>) {
          const T sum = cc[o + l] * xm[l] + ce[o + l] * xm[L + l] +
                        cw[o + l] * xm[l - L] + cn[o + l] * xn[l] +
                        cs[o + l] * xs[l] + cnw[o + l] * xn[l - L] +
                        cse[o + l] * xs[L + l] + csw[o + l] * xs[l - L];
          r[l] = (ye[l] - sum) / cne[o + l];
        } else {
          // fp32 has no bit-reproducibility contract with fp64 (its
          // accuracy is gated by the enable_fp32 self-check), so it
          // re-associates: the two terms reading the row being marched
          // go last, which shortens the serial chain to mul + add + sub
          // + mul, and the divide becomes a reciprocal multiply.
          const T sum = cc[o + l] * xm[l] + ce[o + l] * xm[L + l] +
                        cw[o + l] * xm[l - L] + cs[o + l] * xs[l] +
                        cse[o + l] * xs[L + l] + csw[o + l] * xs[l - L] +
                        cnw[o + l] * xn[l - L] + cn[o + l] * xn[l];
          r[l] = (ye[l] - sum) * rne[o + l];
        }
      }
      T* out = xp + o + row + L;  // tile cell (a, b)
      for (int l = 0; l < L; ++l) out[l] = r[l];
    }
  }
}

template <typename T, int L>
void residual_body(const EvpLaneView<T>& v, const T* y, const T* xp,
                   double* f) {
  const int nx = v.nx;
  const int ny = v.ny;
  std::array<std::ptrdiff_t, grid::kNumDirs> nbr{};
  for (int d = 0; d < grid::kNumDirs; ++d) {
    const auto [di, dj] = grid::kDirOffset[d];
    nbr[d] = (static_cast<std::ptrdiff_t>(dj) * (nx + 2) + di) * L;
  }
  auto equation = [&](int a, int b, double* fr) {
    const std::ptrdiff_t o =
        (static_cast<std::ptrdiff_t>(b + 1) * (nx + 2) + a + 1) * L;
    const T* ye = y + (static_cast<std::ptrdiff_t>(b) * nx + a) * L;
    double acc[L];
    for (int l = 0; l < L; ++l) acc[l] = -static_cast<double>(ye[l]);
    for (int d = 0; d < grid::kNumDirs; ++d) {
      const T* c = v.coeff[d] + o;
      const T* x = xp + o + nbr[d];
      for (int l = 0; l < L; ++l)
        acc[l] += static_cast<double>(c[l]) * static_cast<double>(x[l]);
    }
    for (int l = 0; l < L; ++l) fr[l] = acc[l];
  };
  for (int a = 0; a < nx; ++a) equation(a, ny - 1, f + a * L);
  for (int b = 0; b + 1 < ny; ++b) equation(nx - 1, b, f + (nx + b) * L);
}

template <typename T, int L>
void solve_body(const EvpLaneView<T>& v, const T* y, T* xp, double* f,
                double* g) {
  const int nx = v.nx;
  const int ny = v.ny;
  const int k = v.guess_size();
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(nx + 2) * L;
  // Guess cell m: south row (m, 0) for m < nx, else west column
  // (0, m - nx + 1).
  auto guess = [&](int m) {
    return m < nx ? xp + row + static_cast<std::ptrdiff_t>(m + 1) * L
                  : xp + (m - nx + 2) * row + L;
  };
  // Zero the ring (the buffer may last have held another shape) and
  // the guess; the march overwrites every other cell.
  std::fill(xp, xp + row, T(0));
  std::fill(xp + (ny + 1) * row, xp + (ny + 2) * row, T(0));
  for (int j = 1; j <= ny; ++j) {
    std::fill(xp + j * row, xp + j * row + L, T(0));
    std::fill(xp + (j + 1) * row - L, xp + (j + 1) * row, T(0));
  }
  for (int m = 0; m < k; ++m) std::fill(guess(m), guess(m) + L, T(0));

  march_body<T, L>(v, y, xp);
  residual_body<T, L>(v, y, xp, f);
  linalg::lu_solve_lanes<L>(k, v.lu, v.perm, f, g);
  for (int m = 0; m < k; ++m) {
    T* c = guess(m);
    for (int l = 0; l < L; ++l) c[l] = static_cast<T>(-g[m * L + l]);
  }
  march_body<T, L>(v, y, xp);
}

/// Call body<1..kEvpLanes>() for the view's lane count.
template <typename Body>
void dispatch_lanes(int lanes, Body&& body) {
  static_assert(kEvpLanes == 4, "extend dispatch_lanes with kEvpLanes");
  switch (lanes) {
    case 1: body(std::integral_constant<int, 1>{}); return;
    case 2: body(std::integral_constant<int, 2>{}); return;
    case 3: body(std::integral_constant<int, 3>{}); return;
    case 4: body(std::integral_constant<int, 4>{}); return;
  }
  MINIPOP_REQUIRE(false, "lane group of " << lanes << " tiles (max "
                                          << kEvpLanes << ")");
}

}  // namespace

template <typename T>
void evp_lanes_march(const EvpLaneView<T>& v, const T* y, T* xp) {
  dispatch_lanes(v.lanes, [&](auto L) {
    march_body<T, decltype(L)::value>(v, y, xp);
  });
}

template <typename T>
void evp_lanes_residual(const EvpLaneView<T>& v, const T* y, const T* xp,
                        double* f) {
  dispatch_lanes(v.lanes, [&](auto L) {
    residual_body<T, decltype(L)::value>(v, y, xp, f);
  });
}

template <typename T>
void evp_lanes_solve(const EvpLaneView<T>& v, const T* y, T* xp, double* f,
                     double* g) {
  dispatch_lanes(v.lanes, [&](auto L) {
    solve_body<T, decltype(L)::value>(v, y, xp, f, g);
  });
}

template <typename T>
EvpTileGroup<T>::EvpTileGroup(const std::vector<EvpLaneView<T>>& tiles)
    : nx_(tiles.empty() ? 0 : tiles[0].nx),
      ny_(tiles.empty() ? 0 : tiles[0].ny),
      lanes_(static_cast<int>(tiles.size())) {
  MINIPOP_REQUIRE(lanes_ >= 1 && lanes_ <= kEvpLanes,
                  "lane group of " << lanes_ << " tiles");
  const bool fp32 = tiles[0].recip_ne != nullptr;
  for (const auto& t : tiles)
    MINIPOP_REQUIRE(t.lanes == 1 && t.nx == nx_ && t.ny == ny_ &&
                        (t.recip_ne != nullptr) == fp32,
                    "lane group members must be one-lane " << nx_ << "x"
                        << ny_ << " tiles");
  const std::size_t cells = static_cast<std::size_t>(nx_ + 2) * (ny_ + 2);
  auto interleave = [&](std::vector<T>& dst, auto src_of) {
    dst.resize(cells * lanes_);
    for (int l = 0; l < lanes_; ++l) {
      const T* src = src_of(tiles[l]);
      for (std::size_t c = 0; c < cells; ++c) dst[c * lanes_ + l] = src[c];
    }
  };
  for (int d = 0; d < grid::kNumDirs; ++d)
    interleave(coeff_[d], [d](const EvpLaneView<T>& t) { return t.coeff[d]; });
  if (fp32)
    interleave(recip_ne_, [](const EvpLaneView<T>& t) { return t.recip_ne; });

  const std::size_t k = static_cast<std::size_t>(nx_) + ny_ - 1;
  lu_.resize(k * k * lanes_);
  perm_.resize(k * lanes_);
  for (int l = 0; l < lanes_; ++l) {
    for (std::size_t e = 0; e < k * k; ++e)
      lu_[e * lanes_ + l] = tiles[l].lu[e];
    for (std::size_t r = 0; r < k; ++r)
      perm_[r * lanes_ + l] = tiles[l].perm[r];
  }
}

template <typename T>
EvpLaneView<T> EvpTileGroup<T>::view() const {
  EvpLaneView<T> v;
  v.nx = nx_;
  v.ny = ny_;
  v.lanes = lanes_;
  for (int d = 0; d < grid::kNumDirs; ++d) v.coeff[d] = coeff_[d].data();
  v.recip_ne = recip_ne_.empty() ? nullptr : recip_ne_.data();
  v.lu = lu_.data();
  v.perm = perm_.data();
  return v;
}

template void evp_lanes_march(const EvpLaneView<double>&, const double*,
                              double*);
template void evp_lanes_march(const EvpLaneView<float>&, const float*,
                              float*);
template void evp_lanes_residual(const EvpLaneView<double>&, const double*,
                                 const double*, double*);
template void evp_lanes_residual(const EvpLaneView<float>&, const float*,
                                 const float*, double*);
template void evp_lanes_solve(const EvpLaneView<double>&, const double*,
                              double*, double*, double*);
template void evp_lanes_solve(const EvpLaneView<float>&, const float*,
                              float*, double*, double*);
template class EvpTileGroup<double>;
template class EvpTileGroup<float>;

}  // namespace minipop::evp
