#include "src/evp/block_evp_preconditioner.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>

#include "src/util/error.hpp"

namespace minipop::evp {

util::Field regularize_land_depth(const util::Field& depth,
                                  double epsilon_fraction) {
  MINIPOP_REQUIRE(epsilon_fraction > 0.0 && epsilon_fraction < 1.0,
                  "epsilon_fraction=" << epsilon_fraction);
  double max_depth = 0.0;
  for (double d : depth) max_depth = std::max(max_depth, d);
  MINIPOP_REQUIRE(max_depth > 0.0, "depth field has no ocean");
  const double eps = epsilon_fraction * max_depth;
  util::Field out = depth;
  for (int j = 0; j < out.ny(); ++j)
    for (int i = 0; i < out.nx(); ++i)
      if (out(i, j) <= 0.0) out(i, j) = eps;
  return out;
}

namespace {

/// Split length n into ceil(n / max_tile) near-equal pieces.
std::vector<std::pair<int, int>> split(int n, int max_tile) {
  std::vector<std::pair<int, int>> pieces;
  if (max_tile <= 0 || n <= max_tile) {
    pieces.emplace_back(0, n);
    return pieces;
  }
  const int count = (n + max_tile - 1) / max_tile;
  int start = 0;
  for (int p = 0; p < count; ++p) {
    const int len = (n - start) / (count - p);
    pieces.emplace_back(start, len);
    start += len;
  }
  return pieces;
}

}  // namespace

BlockEvpPreconditioner::BlockEvpPreconditioner(
    const solver::DistOperator& op, const grid::CurvilinearGrid& grid,
    const util::Field& depth, const BlockEvpOptions& options)
    : op_(&op), options_(options) {
  // Regularized stencil: same metric terms and phi, land filled in.
  const util::Field reg_depth =
      regularize_land_depth(depth, options.land_epsilon);
  const grid::NinePointStencil reg_stencil(grid, reg_depth, op.phi());

  const auto& decomp = op.decomposition();
  const auto& ids = decomp.blocks_of_rank(op.rank());
  reg_coeff_.reserve(ids.size());
  std::vector<BuiltTile> tiles;
  for (int lb = 0; lb < static_cast<int>(ids.size()); ++lb) {
    const auto& b = decomp.block(ids[lb]);
    // Copy the regularized coefficients of this block (kept around so
    // the fp32 tile set can be built lazily later).
    std::array<util::Field, grid::kNumDirs> coeff;
    for (int d = 0; d < grid::kNumDirs; ++d) {
      coeff[d] = util::Field(b.nx, b.ny);
      const auto& global = reg_stencil.coeff(static_cast<grid::Dir>(d));
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          coeff[d](i, j) = global(b.i0 + i, b.j0 + j);
    }
    reg_coeff_.push_back(std::move(coeff));
    build_tiles(lb, options.max_tile, /*fp32=*/false, tiles,
                subdivided_tiles_);
  }
  groups_ = pack<double>(std::move(tiles));
  fit_scratch(groups_, y_, xp_);
}

template <typename T>
void BlockEvpPreconditioner::fit_scratch(const std::vector<Group<T>>& groups,
                                         std::vector<T>& y,
                                         std::vector<T>& xp) {
  for (const auto& g : groups) {
    const auto v = g.tiles.view();
    const std::size_t k = static_cast<std::size_t>(v.guess_size()) * v.lanes;
    y.resize(std::max(y.size(),
                      static_cast<std::size_t>(v.nx) * v.ny * v.lanes));
    xp.resize(std::max(xp.size(), v.padded_size()));
    f_.resize(std::max(f_.size(), k));
    g_.resize(std::max(g_.size(), k));
  }
}

void BlockEvpPreconditioner::build_tiles(int lb, int max_tile, bool fp32,
                                         std::vector<BuiltTile>& out,
                                         int& subdivided) {
  const auto& coeff = reg_coeff_[lb];
  EvpOptions evp_opt;
  evp_opt.simplified = options_.simplified;
  // fp32 tiles pass the fp64 self-check too; what gates their use is
  // the fp32 self-check of enable_fp32.
  evp_opt.validate_accuracy = options_.tile_accuracy;
  // Marching round-off depends on the local coefficient anisotropy, so
  // a nominally-safe tile can still fail its accuracy self-check (e.g.
  // strongly stretched high-latitude rows). Self-heal by subdividing
  // the offending tile until it is stable.
  const std::function<void(int, int, int, int)> add_tile =
      [&](int ti0, int tj0, int tnx, int tny) {
        try {
          auto s = std::make_unique<EvpTileSolver>(coeff, ti0, tj0, tnx, tny,
                                                   evp_opt);
          if (fp32) s->enable_fp32(options_.tile_accuracy32);
          setup_flops_ += s->setup_flops();
          out.push_back({{lb, ti0, tj0, tnx, tny, s->simplified()},
                         std::move(s)});
        } catch (const util::Error&) {
          if (tnx <= 2 && tny <= 2) throw;
          ++subdivided;
          if (tnx >= tny) {
            add_tile(ti0, tj0, tnx / 2, tny);
            add_tile(ti0 + tnx / 2, tj0, tnx - tnx / 2, tny);
          } else {
            add_tile(ti0, tj0, tnx, tny / 2);
            add_tile(ti0, tj0 + tny / 2, tnx, tny - tny / 2);
          }
        }
      };
  for (const auto& [ti0, tnx] : split(coeff[0].nx(), max_tile))
    for (const auto& [tj0, tny] : split(coeff[0].ny(), max_tile))
      add_tile(ti0, tj0, tnx, tny);
}

template <typename T>
std::vector<BlockEvpPreconditioner::Group<T>> BlockEvpPreconditioner::pack(
    std::vector<BuiltTile> tiles) {
  // Greedy in build order: each group takes the next up-to-kEvpLanes
  // unpacked tiles of the first unpacked tile's shape.
  std::vector<Group<T>> groups;
  std::vector<bool> packed(tiles.size(), false);
  for (std::size_t first = 0; first < tiles.size(); ++first) {
    if (packed[first]) continue;
    std::vector<std::size_t> members;
    for (std::size_t t = first;
         t < tiles.size() && static_cast<int>(members.size()) < kEvpLanes;
         ++t) {
      if (packed[t] || tiles[t].place.nx != tiles[first].place.nx ||
          tiles[t].place.ny != tiles[first].place.ny)
        continue;
      packed[t] = true;
      members.push_back(t);
    }
    std::vector<EvpLaneView<T>> views;
    for (std::size_t t : members) {
      if constexpr (std::is_same_v<T, double>)
        views.push_back(tiles[t].solver->lanes());
      else
        views.push_back(tiles[t].solver->lanes32());
    }
    Group<T> g{EvpTileGroup<T>(views), {}, 0, {}};
    for (std::size_t t : members) {
      g.place.push_back(tiles[t].place);
      g.flops += tiles[t].solver->solve_flops();
      // The group now holds the tile's data; only the cross-run audit
      // keeps the tile itself.
      if (MINIPOP_BOUNDS_CHECK) g.audit.push_back(std::move(tiles[t].solver));
      tiles[t].solver.reset();
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

void BlockEvpPreconditioner::build_tiles32() {
  const int max_tile32 =
      options_.max_tile32 > 0 ? options_.max_tile32 : options_.max_tile;
  std::vector<BuiltTile> tiles;
  for (int lb = 0; lb < static_cast<int>(reg_coeff_.size()); ++lb)
    build_tiles(lb, max_tile32, /*fp32=*/true, tiles, subdivided_tiles32_);
  groups32_ = pack<float>(std::move(tiles));
  fit_scratch(groups32_, y32_, xp32_);
}

int BlockEvpPreconditioner::simplified_tiles() const {
  int n = 0;
  for (const auto& g : groups_)
    for (const auto& p : g.place)
      if (p.simplified) ++n;
  return n;
}

namespace {

#if MINIPOP_BOUNDS_CHECK
/// Debug cross-run audit: re-solve the tile of member m alone through
/// the one-lane path (EvpTileSolver), scatter it re-masked, and require
/// the lane-group apply's output bits.
template <typename T>
void audit_tile(const EvpTileSolver& s, const util::MaskArray& mask,
                const comm::FieldSetT<T>& in, const comm::FieldSetT<T>& out,
                int lb, int m) {
  util::Array2D<T> y(s.nx(), s.ny()), x;
  for (int j = 0; j < s.ny(); ++j)
    for (int i = 0; i < s.nx(); ++i)
      y(i, j) = in.at(lb, s.i0() + i, s.j0() + j, m);
  if constexpr (std::is_same_v<T, double>)
    s.solve(y, x);
  else
    s.solve32(y, x);
  for (int j = 0; j < s.ny(); ++j)
    for (int i = 0; i < s.nx(); ++i) {
      const T want = mask(s.i0() + i, s.j0() + j) ? x(i, j) : T(0);
      const T got = out.at(lb, s.i0() + i, s.j0() + j, m);
      MINIPOP_REQUIRE(std::memcmp(&want, &got, sizeof(T)) == 0,
                      "lane-group/one-tile EVP mismatch in block "
                          << lb << " at (" << s.i0() + i << ","
                          << s.j0() + j << ") member " << m);
    }
}
#endif

}  // namespace

// Contract: apply() is block-local and communication-free — it never
// touches `comm` beyond cost accounting and reads no halo points, so
// callers never refresh halos around it and its cost is pure compute;
// keep it that way.
template <typename T>
void BlockEvpPreconditioner::apply_groups(comm::Communicator& comm,
                                          const std::vector<Group<T>>& groups,
                                          const comm::FieldSetT<T>& in,
                                          const comm::FieldSetT<T>& out) {
  MINIPOP_REQUIRE(in.compatible_with(out), "block-EVP field mismatch");
  T* y;
  T* xp;
  if constexpr (std::is_same_v<T, double>) {
    y = y_.data();
    xp = xp_.data();
  } else {
    y = y32_.data();
    xp = xp32_.data();
  }
  const int nb = in.nb();
  std::uint64_t flops = 0;
  for (const auto& g : groups) {
    const EvpLaneView<T> v = g.tiles.view();
    const int L = v.lanes;
    const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(v.nx + 2) * L;
    for (int m = 0; m < nb; ++m) {
      // Gather each lane's tile window of member m (cell columns nb
      // apart in place), solve the lanes together, scatter re-masked.
      for (int l = 0; l < L; ++l) {
        const TilePlacement& p = g.place[l];
        const T* src = in.interior(p.local_block) +
                       static_cast<std::ptrdiff_t>(p.i0) * nb + m;
        for (int j = 0; j < v.ny; ++j) {
          const T* r = src + (p.j0 + j) * in.stride(p.local_block);
          T* yj = y + static_cast<std::ptrdiff_t>(j) * v.nx * L + l;
          for (int i = 0; i < v.nx; ++i) yj[i * L] = r[i * nb];
        }
      }
      evp_lanes_solve(v, y, xp, f_.data(), g_.data());
      for (int l = 0; l < L; ++l) {
        const TilePlacement& p = g.place[l];
        const util::MaskArray& mask = op_->block_mask(p.local_block);
        T* dst = out.interior(p.local_block) +
                 static_cast<std::ptrdiff_t>(p.i0) * nb + m;
        for (int j = 0; j < v.ny; ++j) {
          T* r = dst + (p.j0 + j) * out.stride(p.local_block);
          const unsigned char* mr =
              mask.data() + (p.j0 + j) * mask.nx() + p.i0;
          const T* xj = xp + (j + 1) * row + L + l;
          for (int i = 0; i < v.nx; ++i) r[i * nb] = mr[i] ? xj[i * L] : T(0);
        }
      }
    }
    flops += g.flops * nb;
  }
  comm.costs().add_flops(flops);
#if MINIPOP_BOUNDS_CHECK
  if (!(in == out))  // an in-place apply leaves nothing to re-solve from
    for (const auto& g : groups)
      for (int l = 0; l < g.tiles.lanes(); ++l)
        for (int m = 0; m < nb; ++m)
          audit_tile(*g.audit[l], op_->block_mask(g.place[l].local_block),
                     in, out, g.place[l].local_block, m);
#endif
}

void BlockEvpPreconditioner::apply(comm::Communicator& comm,
                                   const comm::FieldSet& in,
                                   const comm::FieldSet& out) {
  apply_groups(comm, groups_, in, out);
}

void BlockEvpPreconditioner::apply(comm::Communicator& comm,
                                   const comm::FieldSet32& in,
                                   const comm::FieldSet32& out) {
  if (groups32_.empty()) build_tiles32();
  apply_groups(comm, groups32_, in, out);
}

}  // namespace minipop::evp
