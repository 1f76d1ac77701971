// Error Vector Propagation (EVP) direct solver on a small rectangular
// tile (paper §4.2, Algorithm 3, Eq. 4; Roache [31]).
//
// Solves B x = y where B is the nine-point operator restricted to an
// nx x ny tile with zero Dirichlet values outside. The method:
//
//   1. Guess x on the "initial guess" cells e (the south row and west
//      column of the tile).
//   2. March northeastward: the equation at cell (i-1, j-1) is solved for
//      its northeast neighbor (i, j), so all remaining cells follow
//      directly (Eq. 4) — no linear algebra.
//   3. The equations at the north row and east column (set f, as many as
//      |e|) are not consumed by the march; their residuals F depend
//      affinely on the guess: F = F0 + W g. The k x k influence matrix W
//      (k = nx + ny - 1) is formed once by marching unit vectors, and its
//      LU inverse turns the solve into: march, correct the guess by
//      -W^-1 F0, march again.
//
// Marching amplifies round-off exponentially with tile size; the paper
// reports ~1e-8 error at 12 x 12 in double precision, which is why EVP is
// used as a *block* preconditioner on small tiles rather than a global
// solver. bench_ablation_evp_blocksize reproduces the stability curve.
//
// The simplified variant drops the E/W/N/S coefficients, which for POP's
// B-grid operator are an order of magnitude below the corner ones
// (§4.3). Here it changes only the operator, not the cost: the march
// still multiplies the zeroed edge terms (one kernel serves both
// variants), and the anisotropy guard below keeps it on few tiles of
// the production grid (1 of 19 at 38x46, 12x12 blocks). solve_flops()
// reports the paper's counting.
//
// The march, residual and LU correction run through the lane kernels of
// evp_lanes.hpp with one lane; the block-EVP preconditioner runs the
// same kernels over groups of equal-shape tiles.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/evp/evp_lanes.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/util/array2d.hpp"

namespace minipop::evp {

struct EvpOptions {
  /// Drop E/W/N/S coefficients inside the tile solve (paper §4.3). The
  /// drop only actually happens when the tile's edge coefficients are
  /// genuinely small (max|edge| < simplified_threshold * max|corner|) —
  /// on strongly anisotropic cells the edge couplings are NOT negligible
  /// and dropping them would wreck the preconditioner.
  bool simplified = false;
  double simplified_threshold = 0.3;
  /// Verify at construction that the tile solves to this relative
  /// accuracy on a test problem (catches marching round-off blow-up on
  /// oversized tiles with a clear error). <= 0 disables — used by the
  /// stability-study benches that intentionally build unstable tiles.
  double validate_accuracy = 1e-4;
};

class EvpTileSolver {
 public:
  /// Build from the nine coefficient fields of a block, restricted to the
  /// tile [i0, i0+nx) x [j0, j0+ny) (block-interior coordinates). The
  /// marching pivot is the NE coefficient, which must be nonzero at every
  /// cell except the tile's north row and east column; use a regularized
  /// (land-free) operator to guarantee that.
  EvpTileSolver(const std::array<util::Field, grid::kNumDirs>& block_coeff,
                int i0, int j0, int nx, int ny,
                const EvpOptions& options = {});

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int i0() const { return i0_; }
  int j0() const { return j0_; }
  /// Size of the initial-guess set e (= nx + ny - 1).
  int guess_size() const { return k_; }

  /// Solve B x = y for the tile. y and x are indexed tile-locally
  /// (nx x ny); x is overwritten.
  void solve(const util::Field& y, util::Field& x) const;

  /// Apply the (possibly simplified) tile operator: out = B in, with zero
  /// Dirichlet outside the tile. For tests and residual studies.
  void apply_operator(const util::Field& in, util::Field& out) const;

  /// One marching sweep (the Eq. 4 recurrence) with the current guess
  /// cells of xp as input — the hot kernel inside solve(), exposed for
  /// kernel benchmarks (bench_precision). xp is the padded solve buffer:
  /// (nx + 2) x (ny + 2) with the tile at (1, 1), a zero ring, and the
  /// guess in the tile's south row / west column.
  void march_sweep(const util::Field& y, util::Field& xp) const;
  /// fp32 marching sweep (requires enable_fp32).
  void march_sweep32(const util::Array2D<float>& y,
                     util::Array2D<float>& xp) const;

  /// Flops of one solve in the paper's counting (22 per point full,
  /// 14 per point simplified).
  std::uint64_t solve_flops() const;

  /// This tile's data as a one-lane view (for lane-group packing): the
  /// fp64 coefficients, or with fp32 the float coefficients and
  /// reciprocal pivots (requires enable_fp32); both with the double LU.
  EvpLaneView<double> lanes() const;
  EvpLaneView<float> lanes32() const;

  /// Flops spent in set-up (preprocessing; paper: O(26 n^3)).
  std::uint64_t setup_flops() const { return setup_flops_; }

  /// Whether the simplified (edge-dropping) operator was actually used
  /// (the request downgrades itself on anisotropic tiles).
  bool simplified() const { return simplified_; }

  /// Relative error of the construction-time self-check solve (the
  /// paper's 1e-8-at-12x12 round-off figure is observable here).
  double measured_accuracy() const { return measured_accuracy_; }

  // -------------------------------------------------------------------
  // fp32 mirror. Marching amplifies round-off from eps of the working
  // type, so fp32 tiles must be markedly smaller than fp64 ones (the
  // 1e-8-at-12x12 figure becomes O(1) garbage in fp32); callers pick a
  // smaller max tile and validate. The fp32 march replaces the NE-pivot
  // division — the latency-bound op on the march's dependent chain —
  // with a multiply by a precomputed reciprocal.

  /// Build the float coefficient copy + reciprocal NE pivots and
  /// self-check the fp32 solve against the double operator. Throws if
  /// the measured relative error exceeds validate_accuracy (> 0).
  void enable_fp32(double validate_accuracy);
  bool fp32_enabled() const { return fp32_; }
  /// Relative error of the fp32 self-check solve (vs. the exact double
  /// tile operator, so it includes coefficient rounding).
  double measured_accuracy32() const { return measured_accuracy32_; }

  /// fp32 solve B x = y (requires enable_fp32). The guess correction
  /// still runs through the double influence-matrix LU — it is O(k)
  /// work, and the slightly mismatched W (built from unrounded
  /// coefficients) is absorbed by the self-checked second march.
  void solve32(const util::Array2D<float>& y, util::Array2D<float>& x) const;

 private:
  /// Check a one-lane solve's input shape and run it into the padded
  /// scratch, then copy the tile interior to x.
  template <typename T>
  void solve_lane(const EvpLaneView<T>& v, const util::Array2D<T>& y,
                  util::Array2D<T>& xp, util::Array2D<T>& x) const;

  int i0_, j0_, nx_, ny_, k_;
  bool simplified_;
  /// Tile-local coefficients, zero-padded by one ring: coeff_[d] has
  /// shape (nx+2) x (ny+2) with the tile at offset (1, 1).
  std::array<util::Field, grid::kNumDirs> coeff_;
  std::unique_ptr<linalg::LuFactorization> w_lu_;
  /// Scratch: the padded x buffer and the guess correction (residuals F
  /// and correction g) — solve() must not allocate.
  mutable util::Field xp_;
  mutable std::vector<double> f_, g_;
  std::uint64_t setup_flops_ = 0;
  double measured_accuracy_ = 0.0;
  bool fp32_ = false;
  /// Float mirror of coeff_ (same padding), plus the reciprocal of the
  /// NE pivot the march multiplies by instead of dividing.
  std::array<util::Array2D<float>, grid::kNumDirs> coeff32_;
  util::Array2D<float> recip_ne32_;
  mutable util::Array2D<float> xp32_;
  double measured_accuracy32_ = 0.0;
};

}  // namespace minipop::evp
