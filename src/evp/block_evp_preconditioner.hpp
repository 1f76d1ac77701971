// Block-EVP preconditioner (paper §4): M = blockdiag(B~_i), where each
// B~_i is the nine-point operator restricted to a tile and solved
// *exactly* by the EVP marching method. Applying M^-1 is embarrassingly
// parallel (each rank solves only its own tiles) and costs O(n^2) per
// tile — versus O(n^4) for LU — which is what makes it viable per
// iteration.
//
// Land handling: marching cannot cross land (identity rows have no NE
// pivot), so the preconditioner tiles are assembled from a *regularized*
// operator in which land depth is replaced by a small positive epsilon.
// The regularized matrix is SPD, agrees with the true operator on the
// open ocean (the spurious coastal coupling is O(epsilon)), and every
// tile of it is exactly EVP-solvable. The outer Krylov/Chebyshev solver
// still uses the exact masked operator; only M changes, and a
// preconditioner only needs to be a good SPD approximation. Preconditioner
// output is re-masked to keep iterates zero on land.
//
// Tiling: the paper applies EVP to one process block. Marching round-off
// grows with tile size (stable to ~1e-8 at 12x12), so large process
// blocks are subdivided into tiles of at most `max_tile` cells per side —
// a strictly finer block-diagonal preconditioner with the same parallel
// structure. Set max_tile = 0 to force whole-block tiles (the paper's
// configuration at high core counts).
//
// Lane groups: after construction the tiles are packed into groups of up
// to kEvpLanes tiles of one shape, stored lane-interleaved, and each
// apply marches a group's tiles in lockstep (evp_lanes.hpp; DESIGN.md
// §15). The groups are the only copy of the tile coefficients and LU
// factors; per tile the arithmetic is exactly a lone EvpTileSolver's.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/evp/evp_lanes.hpp"
#include "src/evp/evp_solver.hpp"
#include "src/solver/preconditioner.hpp"

namespace minipop::evp {

struct BlockEvpOptions {
  /// Maximum tile side; process blocks larger than this are subdivided.
  /// 0 means "never subdivide" (whole-block EVP, as in the paper).
  int max_tile = 12;
  /// Use the simplified (corner-only) marching operator (paper §4.3).
  bool simplified = true;
  /// Land depth replacement as a fraction of the deepest ocean cell.
  double land_epsilon = 0.02;
  /// Required relative accuracy of each tile's marching solve; tiles
  /// failing the self-check subdivide until they meet it. Marching
  /// round-off is also an asymmetry of the effective preconditioner:
  /// Krylov methods that are sensitive to non-SPD preconditioners
  /// (e.g. pipelined CG) need this tightened to ~1e-8.
  double tile_accuracy = 1e-4;
  /// Maximum tile side of the fp32 mirror tiles. Marching amplifies
  /// round-off from eps of the working type, so fp32 tiles must be much
  /// smaller than fp64 ones: 12x12 turns eps32 into O(1) error, 6x6
  /// stays preconditioner-grade. 0 inherits max_tile (NOT recommended).
  int max_tile32 = 6;
  /// Required relative accuracy of the fp32 tile self-check; fp32 tiles
  /// failing it subdivide, like the fp64 path. Looser than
  /// tile_accuracy: the fp32 tiles only precondition fp32 inner sweeps
  /// whose own accuracy floor is ~1e-7.
  double tile_accuracy32 = 5e-3;
};

/// Depth field with land (<= 0) replaced by epsilon_fraction * max depth.
util::Field regularize_land_depth(const util::Field& depth,
                                  double epsilon_fraction);

class BlockEvpPreconditioner final : public solver::Preconditioner {
 public:
  /// `op` is the true (masked) distributed operator; `grid` and `depth`
  /// are the inputs its stencil was assembled from, used to build the
  /// regularized preconditioner stencil with the same phi.
  BlockEvpPreconditioner(const solver::DistOperator& op,
                         const grid::CurvilinearGrid& grid,
                         const util::Field& depth,
                         const BlockEvpOptions& options = {});

  /// Each lane group gathers its tiles' windows of one member, solves
  /// them in lockstep and scatters them re-masked; members run one after
  /// another through the same kernel. A MINIPOP_BOUNDS_CHECK build then
  /// re-solves every tile alone (EvpTileSolver) and requires the same
  /// bits.
  void apply(comm::Communicator& comm, const comm::FieldSet& in,
             const comm::FieldSet& out) override;

  /// fp32 apply. The fp32 tile set is built lazily on first use (from
  /// the same regularized coefficients, with the smaller max_tile32 and
  /// its own self-check/subdivision), so fp64-only runs pay nothing.
  void apply(comm::Communicator& comm, const comm::FieldSet32& in,
             const comm::FieldSet32& out) override;

  std::string name() const override {
    return options_.simplified ? "block-evp" : "block-evp-full";
  }

  const BlockEvpOptions& options() const { return options_; }
  int num_tiles() const { return count_tiles(groups_); }
  /// fp32 mirror tiles (0 until the first fp32 apply builds them).
  int num_tiles32() const { return count_tiles(groups32_); }
  /// Tiles that failed the marching accuracy self-check and were split
  /// (strong local anisotropy); purely informational.
  int subdivided_tiles() const { return subdivided_tiles_; }
  /// Tiles actually using the simplified (edge-dropping) marching — the
  /// per-tile anisotropy guard may veto the request.
  int simplified_tiles() const;

  /// Total preprocessing flops across this rank's tiles (paper §4.3
  /// discusses the low setup cost; bench_fig06 reports it).
  std::uint64_t setup_flops() const { return setup_flops_; }

  /// Where a tile sits: block-interior window of local block
  /// `local_block`, and whether it marches the simplified operator.
  struct TilePlacement {
    int local_block, i0, j0, nx, ny;
    bool simplified;
  };
  /// The tiles of each fp64 / fp32 lane group, in apply order.
  std::vector<std::vector<TilePlacement>> tile_groups() const {
    return placements(groups_);
  }
  std::vector<std::vector<TilePlacement>> tile_groups32() const {
    return placements(groups32_);
  }

 private:
  /// A self-checked tile before packing.
  struct BuiltTile {
    TilePlacement place;
    std::unique_ptr<EvpTileSolver> solver;
  };
  template <typename T>
  struct Group {
    EvpTileGroup<T> tiles;
    std::vector<TilePlacement> place;  ///< one per lane
    std::uint64_t flops = 0;           ///< one solve of every lane
    /// One-lane twins of the lanes, kept by MINIPOP_BOUNDS_CHECK builds
    /// only, for the post-apply cross-run.
    std::vector<std::unique_ptr<EvpTileSolver>> audit;
  };

  /// Self-checked tiles of local block lb, split until each passes
  /// (with enable_fp32 at tile_accuracy32 when fp32).
  void build_tiles(int lb, int max_tile, bool fp32,
                   std::vector<BuiltTile>& out, int& subdivided);
  /// The lazy fp32 tile set: build, pack, size the fp32 scratch.
  void build_tiles32();
  template <typename T>
  static std::vector<Group<T>> pack(std::vector<BuiltTile> tiles);
  /// Grow the shared solve scratch to fit every group of `groups`.
  template <typename T>
  void fit_scratch(const std::vector<Group<T>>& groups, std::vector<T>& y,
                   std::vector<T>& xp);
  template <typename T>
  void apply_groups(comm::Communicator& comm,
                    const std::vector<Group<T>>& groups,
                    const comm::FieldSetT<T>& in,
                    const comm::FieldSetT<T>& out);
  template <typename T>
  static int count_tiles(const std::vector<Group<T>>& groups) {
    int n = 0;
    for (const auto& g : groups) n += g.tiles.lanes();
    return n;
  }
  template <typename T>
  static std::vector<std::vector<TilePlacement>> placements(
      const std::vector<Group<T>>& groups) {
    std::vector<std::vector<TilePlacement>> p;
    for (const auto& g : groups) p.push_back(g.place);
    return p;
  }

  const solver::DistOperator* op_;
  BlockEvpOptions options_;
  std::vector<Group<double>> groups_;
  std::uint64_t setup_flops_ = 0;
  int subdivided_tiles_ = 0;
  /// Regularized per-block coefficients, kept for the lazy fp32 tile
  /// build (the fp64 tiles consumed them at construction).
  std::vector<std::array<util::Field, grid::kNumDirs>> reg_coeff_;
  std::vector<Group<float>> groups32_;
  int subdivided_tiles32_ = 0;
  /// Solve scratch shared by all groups, sized for the largest: lane-
  /// interleaved right-hand side and padded x per precision, and the
  /// guess correction's residuals and correction.
  std::vector<double> y_, xp_, f_, g_;
  std::vector<float> y32_, xp32_;
};

}  // namespace minipop::evp
