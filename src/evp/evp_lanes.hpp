// Lane groups: the EVP tile solve (march → far-boundary residual → LU
// guess correction → march, paper Alg. 3) run for up to kEvpLanes
// equal-shape tiles in lockstep.
//
// Each EVP march is one serial dependent chain: every cell waits on its
// west neighbour through a divide (DESIGN.md §15). A single tile leaves
// the core idle on that latency; L independent tiles of the same shape,
// stored lane-interleaved ([cell][lane]) and stepped with the lane loop
// innermost, keep L chains in flight (and in SIMD registers) at once.
//
// This file holds the only implementation of the recurrence. A lone
// EvpTileSolver runs it with one lane; the block-EVP preconditioner
// packs its tiles into EvpTileGroups and runs it with 1..kEvpLanes.
// Per lane every kernel keeps the one-tile operation order exactly, so
// a lane's bits do not depend on which group it sits in (DESIGN.md §15).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "src/grid/stencil.hpp"

namespace minipop::evp {

/// Tiles per lane group: four chains in flight hide most of the march's
/// divide latency (measurements in DESIGN.md §15).
inline constexpr int kEvpLanes = 4;

/// Read-only view of `lanes` equal-shape nx x ny tiles stored
/// lane-interleaved: element (cell, lane) of an array at [cell * lanes +
/// lane]. The coefficient planes (and the fp32 reciprocal NE pivots) are
/// padded by one zero ring, (nx + 2) x (ny + 2) cells with the tile at
/// (1, 1). The LU factors and permutation of each lane's influence
/// matrix W (k = nx + ny - 1) follow linalg::lu_solve_lanes' layout.
template <typename T>
struct EvpLaneView {
  int nx = 0;
  int ny = 0;
  int lanes = 1;
  std::array<const T*, grid::kNumDirs> coeff{};
  /// fp32 only: 1 / NE pivot, computed in double and rounded once (the
  /// fp32 march multiplies where the fp64 march divides).
  const T* recip_ne = nullptr;
  const double* lu = nullptr;
  const int* perm = nullptr;

  int guess_size() const { return nx + ny - 1; }
  /// Elements of a padded lane-interleaved x buffer.
  std::size_t padded_size() const {
    return static_cast<std::size_t>(nx + 2) * (ny + 2) * lanes;
  }
};

// The solve kernels. y is nx x ny lane-interleaved; xp is the padded x
// buffer of padded_size() elements, whose ring reads as the zero
// Dirichlet values outside each tile; f and g hold guess_size() * lanes
// doubles. Tile cell (i, j) of lane l sits at
// xp[((j + 1) * (nx + 2) + i + 1) * lanes + l].

/// One march (Eq. 4): the guess cells of xp (south row, west column)
/// are inputs, every other tile cell is overwritten. The ring must be
/// zero.
template <typename T>
void evp_lanes_march(const EvpLaneView<T>& v, const T* y, T* xp);

/// Residuals of the equations the march does not consume (north row,
/// then east column) into f, accumulated in double. The ring must be
/// zero.
template <typename T>
void evp_lanes_residual(const EvpLaneView<T>& v, const T* y, const T* xp,
                        double* f);

/// Full tile solve B x = y for every lane into the interior of xp: zero
/// the ring and the guess, march, correct the guess by -W^-1 F, march.
template <typename T>
void evp_lanes_solve(const EvpLaneView<T>& v, const T* y, T* xp, double* f,
                     double* g);

/// Owner of the lane-interleaved data of 1..kEvpLanes equal-shape tiles.
template <typename T>
class EvpTileGroup {
 public:
  /// Interleave `tiles`, one-lane views of tiles of one shape, in order
  /// (lane l = tiles[l]). The data is copied; the sources may go.
  explicit EvpTileGroup(const std::vector<EvpLaneView<T>>& tiles);

  int lanes() const { return lanes_; }
  EvpLaneView<T> view() const;

 private:
  int nx_, ny_, lanes_;
  std::array<std::vector<T>, grid::kNumDirs> coeff_;
  std::vector<T> recip_ne_;
  std::vector<double> lu_;
  std::vector<int> perm_;
};

}  // namespace minipop::evp
