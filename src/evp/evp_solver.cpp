#include "src/evp/evp_solver.hpp"

#include <cmath>

#include "src/util/error.hpp"

namespace minipop::evp {

namespace {
using grid::Dir;
constexpr int D(Dir d) { return static_cast<int>(d); }
}  // namespace

EvpTileSolver::EvpTileSolver(
    const std::array<util::Field, grid::kNumDirs>& block_coeff, int i0,
    int j0, int nx, int ny, const EvpOptions& options)
    : i0_(i0),
      j0_(j0),
      nx_(nx),
      ny_(ny),
      k_(nx + ny - 1),
      simplified_(options.simplified) {
  MINIPOP_REQUIRE(nx >= 1 && ny >= 1, "tile " << nx << "x" << ny);
  const auto& c0 = block_coeff[D(Dir::kCenter)];
  MINIPOP_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + nx <= c0.nx() &&
                      j0 + ny <= c0.ny(),
                  "tile [" << i0 << "," << i0 + nx << ")x[" << j0 << ","
                           << j0 + ny << ") outside block " << c0.nx() << "x"
                           << c0.ny());

  // The simplified variant is only valid where the edge coefficients are
  // genuinely an order smaller than the corner ones (paper §4.3 — true
  // for POP's production grids, not for arbitrarily anisotropic tiles).
  if (simplified_) {
    double max_edge = 0.0, max_corner = 0.0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        for (Dir d : {Dir::kEast, Dir::kWest, Dir::kNorth, Dir::kSouth})
          max_edge = std::max(max_edge,
                              std::abs(block_coeff[D(d)](i0 + i, j0 + j)));
        for (Dir d : {Dir::kNorthEast, Dir::kNorthWest, Dir::kSouthEast,
                      Dir::kSouthWest})
          max_corner = std::max(
              max_corner, std::abs(block_coeff[D(d)](i0 + i, j0 + j)));
      }
    if (max_edge > options.simplified_threshold * max_corner)
      simplified_ = false;
  }

  // Copy coefficients, zero-padded by one ring.
  for (int d = 0; d < grid::kNumDirs; ++d) {
    coeff_[d] = util::Field(nx + 2, ny + 2, 0.0);
    const bool is_edge = (d == D(Dir::kEast) || d == D(Dir::kWest) ||
                          d == D(Dir::kNorth) || d == D(Dir::kSouth));
    if (simplified_ && is_edge) continue;  // paper §4.3 variant
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        coeff_[d](i + 1, j + 1) = block_coeff[d](i0 + i, j0 + j);
  }

  // Marching pivot must be nonzero wherever an equation is consumed.
  for (int j = 0; j + 1 < ny; ++j)
    for (int i = 0; i + 1 < nx; ++i)
      MINIPOP_REQUIRE(coeff_[D(Dir::kNorthEast)](i + 1, j + 1) != 0.0,
                      "zero NE pivot at tile cell (" << i << "," << j
                      << ") — EVP needs a regularized (land-free) operator");

  // Preprocessing: influence matrix W by marching unit guesses with zero
  // right-hand side, then its LU factorization (Algorithm 3, steps 1-8).
  xp_ = util::Field(nx + 2, ny + 2, 0.0);
  const util::Field zero_y(nx, ny, 0.0);
  const EvpLaneView<double> v = lanes();
  linalg::DenseMatrix w(k_, k_);
  std::vector<double> f(k_);
  for (int m = 0; m < k_; ++m) {
    xp_.fill(0.0);
    if (m < nx)
      xp_(m + 1, 1) = 1.0;
    else
      xp_(1, m - nx + 2) = 1.0;
    evp_lanes_march(v, zero_y.data(), xp_.data());
    evp_lanes_residual(v, zero_y.data(), xp_.data(), f.data());
    for (int r = 0; r < k_; ++r) w(r, m) = f[r];
  }
  w_lu_ = std::make_unique<linalg::LuFactorization>(std::move(w));
  f_.resize(k_);
  g_.resize(k_);

  const std::uint64_t pts = static_cast<std::uint64_t>(nx) * ny;
  const std::uint64_t march_ops = (simplified_ ? 5u : 9u) * pts;
  setup_flops_ = static_cast<std::uint64_t>(k_) * march_ops +
                 static_cast<std::uint64_t>(k_) * k_ * k_;

  // Self-check: EVP marching amplifies round-off with tile size; verify
  // the tile is within its stability range (paper: ~1e-8 at 12x12).
  {
    util::Field x_ref(nx, ny), y(nx, ny), x_got;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        x_ref(i, j) = ((i * 7 + j * 13) % 11 - 5) / 5.0;
    apply_operator(x_ref, y);
    solve(y, x_got);
    double err = 0.0, scale = 0.0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        err = std::max(err, std::abs(x_got(i, j) - x_ref(i, j)));
        scale = std::max(scale, std::abs(x_ref(i, j)));
      }
    measured_accuracy_ = scale > 0 ? err / scale : 0.0;
    if (options.validate_accuracy > 0) {
      MINIPOP_REQUIRE(measured_accuracy_ <= options.validate_accuracy,
                      "EVP tile " << nx << "x" << ny
                                  << " is numerically unstable (error "
                                  << measured_accuracy_
                                  << "); use smaller tiles (max_tile <= 12)");
    }
  }
}

EvpLaneView<double> EvpTileSolver::lanes() const {
  EvpLaneView<double> v;
  v.nx = nx_;
  v.ny = ny_;
  for (int d = 0; d < grid::kNumDirs; ++d) v.coeff[d] = coeff_[d].data();
  if (w_lu_) {
    v.lu = w_lu_->factors().data();
    v.perm = w_lu_->permutation().data();
  }
  return v;
}

EvpLaneView<float> EvpTileSolver::lanes32() const {
  MINIPOP_REQUIRE(fp32_, "fp32 tile data before enable_fp32");
  EvpLaneView<float> v;
  v.nx = nx_;
  v.ny = ny_;
  for (int d = 0; d < grid::kNumDirs; ++d) v.coeff[d] = coeff32_[d].data();
  v.recip_ne = recip_ne32_.data();
  v.lu = w_lu_->factors().data();
  v.perm = w_lu_->permutation().data();
  return v;
}

void EvpTileSolver::apply_operator(const util::Field& in,
                                   util::Field& out) const {
  MINIPOP_REQUIRE(in.nx() == nx_ && in.ny() == ny_, "tile shape mismatch");
  if (out.nx() != nx_ || out.ny() != ny_) out = util::Field(nx_, ny_);
  util::Field inp(nx_ + 2, ny_ + 2, 0.0);  // zero Dirichlet ring
  for (int b = 0; b < ny_; ++b)
    for (int a = 0; a < nx_; ++a) inp(a + 1, b + 1) = in(a, b);
  for (int b = 0; b < ny_; ++b)
    for (int a = 0; a < nx_; ++a) {
      double acc = 0.0;
      for (int d = 0; d < grid::kNumDirs; ++d) {
        const auto [di, dj] = grid::kDirOffset[d];
        acc += coeff_[d](a + 1, b + 1) * inp(a + 1 + di, b + 1 + dj);
      }
      out(a, b) = acc;
    }
}

template <typename T>
void EvpTileSolver::solve_lane(const EvpLaneView<T>& v,
                               const util::Array2D<T>& y,
                               util::Array2D<T>& xp,
                               util::Array2D<T>& x) const {
  MINIPOP_REQUIRE(y.nx() == nx_ && y.ny() == ny_, "tile rhs shape mismatch");
  if (x.nx() != nx_ || x.ny() != ny_) x = util::Array2D<T>(nx_, ny_);
  if (xp.nx() != nx_ + 2) xp = util::Array2D<T>(nx_ + 2, ny_ + 2, T(0));
  evp_lanes_solve(v, y.data(), xp.data(), f_.data(), g_.data());
  for (int j = 0; j < ny_; ++j)
    for (int i = 0; i < nx_; ++i) x(i, j) = xp(i + 1, j + 1);
}

void EvpTileSolver::solve(const util::Field& y, util::Field& x) const {
  // Algorithm 3, solving phase: march with zero guess, correct the guess
  // by -W^{-1} F, march again.
  solve_lane(lanes(), y, xp_, x);
}

void EvpTileSolver::march_sweep(const util::Field& y, util::Field& xp) const {
  MINIPOP_REQUIRE(y.nx() == nx_ && y.ny() == ny_ && xp.nx() == nx_ + 2 &&
                      xp.ny() == ny_ + 2,
                  "march_sweep shape mismatch");
  evp_lanes_march(lanes(), y.data(), xp.data());
}

void EvpTileSolver::march_sweep32(const util::Array2D<float>& y,
                                  util::Array2D<float>& xp) const {
  MINIPOP_REQUIRE(y.nx() == nx_ && y.ny() == ny_ && xp.nx() == nx_ + 2 &&
                      xp.ny() == ny_ + 2,
                  "march_sweep32 shape mismatch");
  evp_lanes_march(lanes32(), y.data(), xp.data());
}

void EvpTileSolver::enable_fp32(double validate_accuracy) {
  if (fp32_) return;
  for (int d = 0; d < grid::kNumDirs; ++d) {
    const auto& c = coeff_[d];
    coeff32_[d] = util::Array2D<float>(c.nx(), c.ny(), 0.0f);
    for (int j = 0; j < c.ny(); ++j)
      for (int i = 0; i < c.nx(); ++i)
        coeff32_[d](i, j) = static_cast<float>(c(i, j));
  }
  // Reciprocal pivots, computed in double and rounded once. Cells whose
  // equation the march never consumes keep 0 (never read).
  const auto& cne = coeff_[D(Dir::kNorthEast)];
  recip_ne32_ = util::Array2D<float>(cne.nx(), cne.ny(), 0.0f);
  for (int j = 0; j + 1 < ny_; ++j)
    for (int i = 0; i + 1 < nx_; ++i)
      recip_ne32_(i + 1, j + 1) =
          static_cast<float>(1.0 / cne(i + 1, j + 1));
  fp32_ = true;

  // Self-check against the *double* tile operator, so the measured error
  // includes coefficient rounding, not just marching round-off.
  util::Field x_ref(nx_, ny_), y(nx_, ny_);
  for (int j = 0; j < ny_; ++j)
    for (int i = 0; i < nx_; ++i)
      x_ref(i, j) = ((i * 7 + j * 13) % 11 - 5) / 5.0;
  apply_operator(x_ref, y);
  util::Array2D<float> y32(nx_, ny_), x32(nx_, ny_);
  for (int j = 0; j < ny_; ++j)
    for (int i = 0; i < nx_; ++i) y32(i, j) = static_cast<float>(y(i, j));
  solve32(y32, x32);
  double err = 0.0, scale = 0.0;
  for (int j = 0; j < ny_; ++j)
    for (int i = 0; i < nx_; ++i) {
      err = std::max(err,
                     std::abs(static_cast<double>(x32(i, j)) - x_ref(i, j)));
      scale = std::max(scale, std::abs(x_ref(i, j)));
    }
  measured_accuracy32_ = scale > 0 ? err / scale : 0.0;
  if (validate_accuracy > 0) {
    MINIPOP_REQUIRE(measured_accuracy32_ <= validate_accuracy,
                    "EVP tile " << nx_ << "x" << ny_
                                << " is numerically unstable in fp32 (error "
                                << measured_accuracy32_
                                << "); use smaller fp32 tiles");
  }
}

void EvpTileSolver::solve32(const util::Array2D<float>& y,
                            util::Array2D<float>& x) const {
  solve_lane(lanes32(), y, xp32_, x);
}

std::uint64_t EvpTileSolver::solve_flops() const {
  const std::uint64_t pts = static_cast<std::uint64_t>(nx_) * ny_;
  // Paper counting: two marches + the k x k correction solve, i.e.
  // ~22 n^2 full, ~14 n^2 simplified (§4.2-4.3).
  return 2 * (simplified_ ? 5u : 9u) * pts +
         static_cast<std::uint64_t>(k_) * k_;
}

}  // namespace minipop::evp
