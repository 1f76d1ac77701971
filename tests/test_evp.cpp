#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/evp/evp_solver.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/linalg/dense.hpp"
#include "src/model/config.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/field_ops.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace me = minipop::evp;
namespace mg = minipop::grid;
namespace ml = minipop::linalg;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

constexpr double kPhi = 1e-6;

mg::CurvilinearGrid uniform_grid(int nx, int ny, double dx = 1e4,
                                 double dy = 1.15e4) {
  mg::GridSpec spec;
  spec.kind = mg::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = dx;
  spec.dy = dy;
  return mg::CurvilinearGrid(spec);
}

/// Whole-grid coefficient copy in block layout.
std::array<mu::Field, mg::kNumDirs> coeff_copy(
    const mg::NinePointStencil& st) {
  std::array<mu::Field, mg::kNumDirs> c;
  for (int d = 0; d < mg::kNumDirs; ++d)
    c[d] = st.coeff(static_cast<mg::Dir>(d));
  return c;
}

mu::Field random_field(int nx, int ny, std::uint64_t seed) {
  mu::Xoshiro256 rng(seed);
  mu::Field f(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) f(i, j) = rng.uniform(-1, 1);
  return f;
}

double solve_error_for_tile_size(int n) {
  auto g = uniform_grid(n, n);
  auto depth = mg::flat_bathymetry(g, 3500);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpOptions opt;
  opt.validate_accuracy = -1;  // instability is the subject here
  me::EvpTileSolver evp(coeff_copy(st), 0, 0, n, n, opt);

  // Dense reference: the whole-grid tile of a non-periodic grid IS the
  // full operator.
  auto a = st.to_dense();
  auto y = random_field(n, n, 99 + n);
  std::vector<double> yv(static_cast<std::size_t>(n) * n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) yv[j * n + i] = y(i, j);
  auto xv = ml::cholesky_solve(a, yv);

  mu::Field x;
  evp.solve(y, x);
  double err = 0, scale = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      err = std::max(err, std::abs(x(i, j) - xv[j * n + i]));
      scale = std::max(scale, std::abs(xv[j * n + i]));
    }
  return err / scale;
}

}  // namespace

TEST(EvpTileSolver, ExactOnSmallTiles) {
  // Paper §4.3: EVP solves with ~1e-8 round-off up to 12x12 in double
  // precision.
  EXPECT_LT(solve_error_for_tile_size(6), 1e-10);
  EXPECT_LT(solve_error_for_tile_size(12), 1e-7);
}

TEST(EvpTileSolver, RoundoffGrowsWithTileSize) {
  double e12 = solve_error_for_tile_size(12);
  double e24 = solve_error_for_tile_size(24);
  EXPECT_GT(e24, e12);
}

TEST(EvpTileSolver, SubTileSolveMatchesDenseDirichletProblem) {
  // A tile strictly inside a larger block: B is the operator restricted
  // to the tile with zero Dirichlet outside.
  const int N = 16;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2800);
  mg::NinePointStencil st(g, depth, kPhi);
  const int i0 = 3, j0 = 4, tn = 8;
  me::EvpTileSolver evp(coeff_copy(st), i0, j0, tn, tn);

  // Dense tile matrix from apply_operator columns.
  const int n2 = tn * tn;
  ml::DenseMatrix b(n2, n2);
  mu::Field e(tn, tn), col;
  for (int c = 0; c < n2; ++c) {
    e.fill(0.0);
    e(c % tn, c / tn) = 1.0;
    evp.apply_operator(e, col);
    for (int r = 0; r < n2; ++r) b(r, c) = col(r % tn, r / tn);
  }
  auto y = random_field(tn, tn, 4242);
  std::vector<double> yv(n2);
  for (int r = 0; r < n2; ++r) yv[r] = y(r % tn, r / tn);
  auto xv = ml::cholesky_solve(b, yv);

  mu::Field x;
  evp.solve(y, x);
  for (int r = 0; r < n2; ++r)
    EXPECT_NEAR(x(r % tn, r / tn), xv[r], 1e-8 * (1 + std::abs(xv[r])));
}

TEST(EvpTileSolver, ApplyOperatorMatchesStencilInterior) {
  const int N = 10;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 1800);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpTileSolver evp(coeff_copy(st), 0, 0, N, N);
  auto x = random_field(N, N, 7);
  mu::Field y_evp, y_st;
  evp.apply_operator(x, y_evp);
  st.apply(x, y_st);
  for (int j = 0; j < N; ++j)
    for (int i = 0; i < N; ++i)
      EXPECT_NEAR(y_evp(i, j), y_st(i, j),
                  1e-9 * (1 + std::abs(y_st(i, j))));
}

TEST(EvpTileSolver, SimplifiedSolvesSimplifiedOperatorExactly) {
  const int N = 10;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2000);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpOptions opt;
  opt.simplified = true;
  me::EvpTileSolver evp(coeff_copy(st), 0, 0, N, N, opt);
  auto x_true = random_field(N, N, 13);
  mu::Field y;
  evp.apply_operator(x_true, y);  // y = B_simplified x_true
  mu::Field x;
  evp.solve(y, x);
  for (int j = 0; j < N; ++j)
    for (int i = 0; i < N; ++i)
      EXPECT_NEAR(x(i, j), x_true(i, j), 1e-7 * (1 + std::abs(x_true(i, j))));
}

TEST(EvpTileSolver, SolveFlopsMatchPaperCounts) {
  const int N = 12;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2000);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpTileSolver full(coeff_copy(st), 0, 0, N, N);
  me::EvpOptions sopt;
  sopt.simplified = true;
  me::EvpTileSolver simp(coeff_copy(st), 0, 0, N, N, sopt);
  // Full ~ 22 n^2, simplified ~ 14 n^2 (paper §4.2/4.3).
  EXPECT_NEAR(static_cast<double>(full.solve_flops()), 22.0 * N * N,
              2.0 * N * N);
  EXPECT_NEAR(static_cast<double>(simp.solve_flops()), 14.0 * N * N,
              2.0 * N * N);
  EXPECT_LT(simp.solve_flops(), full.solve_flops());
}

TEST(EvpTileSolver, DegenerateOneRowTile) {
  const int N = 8;
  auto g = uniform_grid(N, 4);
  auto depth = mg::flat_bathymetry(g, 2000);
  mg::NinePointStencil st(g, depth, kPhi);
  me::EvpTileSolver evp(coeff_copy(st), 0, 1, N, 1);
  auto x_true = random_field(N, 1, 3);
  mu::Field y;
  evp.apply_operator(x_true, y);
  mu::Field x;
  evp.solve(y, x);
  for (int i = 0; i < N; ++i)
    EXPECT_NEAR(x(i, 0), x_true(i, 0), 1e-8 * (1 + std::abs(x_true(i, 0))));
}

TEST(EvpTileSolver, ThrowsOnZeroPivotFromLand) {
  const int N = 8;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 2000);
  depth(4, 4) = 0.0;  // unregularized land kills the NE pivot nearby
  mg::NinePointStencil st(g, depth, kPhi);
  EXPECT_THROW(me::EvpTileSolver(coeff_copy(st), 0, 0, N, N), mu::Error);
}

TEST(RegularizeLandDepth, FillsLandKeepsOcean) {
  mu::Field depth(4, 3, 0.0);
  depth(1, 1) = 5000;
  depth(2, 1) = 300;
  auto reg = me::regularize_land_depth(depth, 0.02);
  EXPECT_DOUBLE_EQ(reg(1, 1), 5000);
  EXPECT_DOUBLE_EQ(reg(2, 1), 300);
  EXPECT_DOUBLE_EQ(reg(0, 0), 100);  // 0.02 * 5000
  EXPECT_THROW(me::regularize_land_depth(depth, 0.0), mu::Error);
  mu::Field all_land(2, 2, 0.0);
  EXPECT_THROW(me::regularize_land_depth(all_land, 0.02), mu::Error);
}

// --- Block-EVP preconditioner -------------------------------------------

namespace {

struct EvpProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  std::unique_ptr<mg::Decomposition> decomp;
  mu::Field b_global;
};

EvpProblem make_masked_problem(int nx, int ny, int block, int nranks) {
  EvpProblem p;
  p.grid = std::make_unique<mg::CurvilinearGrid>(uniform_grid(nx, ny));
  p.depth = mg::bowl_bathymetry(*p.grid, 4200.0);
  p.depth(nx / 2, ny / 2) = 0.0;  // island
  p.stencil = std::make_unique<mg::NinePointStencil>(*p.grid, p.depth, kPhi);
  p.decomp = std::make_unique<mg::Decomposition>(
      nx, ny, false, p.stencil->mask(), block, block, nranks);
  p.b_global = mu::Field(nx, ny, 0.0);
  mu::Xoshiro256 rng(17);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

}  // namespace

TEST(BlockEvp, ExactInverseOnAllOceanSingleBlock) {
  // With no land and one whole-grid tile, M == A, so A(M^{-1} v) == v.
  const int N = 12;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 3000);
  mg::NinePointStencil st(g, depth, kPhi);
  mg::Decomposition d(N, N, false, st.mask(), N, N, 1);
  mc::SerialComm comm;
  ms::DistOperator op(st, d, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 0;        // whole block
  opt.simplified = false;  // exact nine-point solve
  me::BlockEvpPreconditioner m(op, g, depth, opt);
  EXPECT_EQ(m.num_tiles(), 1);

  mc::DistField v(d, 0), mv(d, 0);
  v.load_global(random_field(N, N, 23));
  m.apply(comm, v, mv);
  mu::Field mv_global(N, N);
  mv.store_global(mv_global);
  mu::Field back;
  st.apply(mv_global, back);
  for (int j = 0; j < N; ++j)
    for (int i = 0; i < N; ++i)
      EXPECT_NEAR(back(i, j), v.at(0, i, j), 1e-6);
}

TEST(BlockEvp, InverseIsSymmetric) {
  const int N = 10;
  auto g = uniform_grid(N, N);
  auto depth = mg::flat_bathymetry(g, 3000);
  mg::NinePointStencil st(g, depth, kPhi);
  mg::Decomposition d(N, N, false, st.mask(), N, N, 1);
  mc::SerialComm comm;
  ms::DistOperator op(st, d, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 0;
  opt.simplified = false;
  me::BlockEvpPreconditioner m(op, g, depth, opt);

  mc::DistField x(d, 0), y(d, 0), mx(d, 0), my(d, 0);
  x.load_global(random_field(N, N, 1));
  y.load_global(random_field(N, N, 2));
  m.apply(comm, x, mx);
  m.apply(comm, y, my);
  double a = 0.0, b = 0.0;
  op.local_dot_batch(comm, y, mx, &a);
  op.local_dot_batch(comm, x, my, &b);
  EXPECT_NEAR(a, b, 1e-9 * std::abs(a));
}

TEST(BlockEvp, TilesCoverBlocksOnce) {
  auto p = make_masked_problem(24, 20, 24, 1);
  mc::SerialComm comm;
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  me::BlockEvpOptions opt;
  opt.max_tile = 7;  // forces subdivision with remainders
  me::BlockEvpPreconditioner m(op, *p.grid, p.depth, opt);
  // 24 -> tiles of <=7 : 4 tiles; 20 -> 3 tiles; single block.
  EXPECT_EQ(m.num_tiles(), 12);

  // Applying to a constant-one field touches every ocean cell exactly
  // once (no overlap, full cover): result must be nonzero on ocean.
  mc::DistField v(*p.decomp, 0), mv(*p.decomp, 0);
  ms::fill_interior(v, 1.0);
  m.apply(comm, v, mv);
  mu::Field out(24, 20, 0.0);
  mv.store_global(out);
  long nonzero = 0, ocean = 0;
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 24; ++i)
      if (p.stencil->mask()(i, j)) {
        ++ocean;
        if (out(i, j) != 0.0) ++nonzero;
      }
  EXPECT_EQ(nonzero, ocean);

  // Land cells stay zero.
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 24; ++i)
      if (!p.stencil->mask()(i, j)) {
        EXPECT_EQ(out(i, j), 0.0);
      }
}

TEST(BlockEvp, ReducesChronGearIterationsVsDiagonal) {
  // The headline convergence result (paper Fig. 6): block-EVP cuts the
  // iteration count to roughly a third of diagonal preconditioning.
  auto p = make_masked_problem(40, 36, 10, 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  ms::DistOperator op(*p.stencil, *p.decomp, 0);
  ms::SolverOptions sopt;
  sopt.rel_tolerance = 1e-11;
  ms::OneMemberSolver solver(
      std::make_unique<ms::BatchedChronGearSolver>(sopt));

  ms::DiagonalPreconditioner diag(op);
  mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
  b.load_global(p.b_global);
  auto s_diag = solver.solve(comm, halo, op, diag, b, x);

  me::BlockEvpOptions eopt;
  eopt.max_tile = 0;  // tile = process block (10x10), paper configuration
  me::BlockEvpPreconditioner evp(op, *p.grid, p.depth, eopt);
  mc::DistField x2(*p.decomp, 0);
  auto s_evp = solver.solve(comm, halo, op, evp, b, x2);

  ASSERT_TRUE(s_diag.converged);
  ASSERT_TRUE(s_evp.converged);
  EXPECT_LT(s_evp.iterations, s_diag.iterations);
  EXPECT_LT(s_evp.iterations, 0.6 * s_diag.iterations);

  // Both converge to the same solution.
  mu::Field xa(40, 36, 0.0), xb(40, 36, 0.0);
  x.store_global(xa);
  x2.store_global(xb);
  for (int j = 0; j < 36; ++j)
    for (int i = 0; i < 40; ++i) EXPECT_NEAR(xa(i, j), xb(i, j), 1e-5);
}

// --- Lane groups ----------------------------------------------------------

namespace {

/// The production block-EVP configuration: the default 1-degree grid at
/// scale 0.12 (38x46), the model's bathymetry and phi, 12x12 blocks, one
/// rank, default BlockEvpOptions.
struct ProductionEvp {
  mg::CurvilinearGrid grid{mg::pop_1deg_spec(0.12)};
  mu::Field depth = mg::synthetic_earth_bathymetry(grid, {});
  double dt = minipop::model::recommended_barotropic_dt(grid);
  double phi = 1.0 / (9.806 * 0.6 * 0.6 * dt * dt);  // as BarotropicMode
  mg::NinePointStencil stencil{grid, depth, phi};
  mg::Decomposition decomp{grid.nx(),       grid.ny(), grid.periodic_x(),
                           stencil.mask(), 12,        12,
                           1};
  ms::DistOperator op{stencil, decomp, 0};
  me::BlockEvpPreconditioner evp{op, grid, depth};
};

ProductionEvp& production_evp() {
  static ProductionEvp p;
  return p;
}

/// The reference the lane groups must reproduce bit for bit: every tile
/// of `groups` built alone from the regularized block coefficients,
/// solved alone (EvpTileSolver::solve / solve32) member by member, and
/// scattered re-masked.
template <typename T>
void one_tile_apply(
    const ProductionEvp& p,
    const std::vector<std::vector<me::BlockEvpPreconditioner::TilePlacement>>&
        groups,
    const mc::DistFieldBatchT<T>& in, mc::DistFieldBatchT<T>& out) {
  const auto& opt = p.evp.options();
  const mu::Field reg_depth =
      me::regularize_land_depth(p.depth, opt.land_epsilon);
  const mg::NinePointStencil reg(p.grid, reg_depth, p.phi);
  me::EvpOptions eopt;
  eopt.simplified = opt.simplified;
  eopt.validate_accuracy = opt.tile_accuracy;
  for (const auto& group : groups)
    for (const auto& t : group) {
      const auto& b = p.decomp.block(p.decomp.blocks_of_rank(0)[t.local_block]);
      std::array<mu::Field, mg::kNumDirs> coeff;
      for (int d = 0; d < mg::kNumDirs; ++d) {
        coeff[d] = mu::Field(b.nx, b.ny);
        for (int j = 0; j < b.ny; ++j)
          for (int i = 0; i < b.nx; ++i)
            coeff[d](i, j) =
                reg.coeff(static_cast<mg::Dir>(d))(b.i0 + i, b.j0 + j);
      }
      me::EvpTileSolver s(coeff, t.i0, t.j0, t.nx, t.ny, eopt);
      ASSERT_EQ(s.simplified(), t.simplified);
      mu::Array2D<T> y(t.nx, t.ny), x;
      for (int m = 0; m < in.nb(); ++m) {
        for (int j = 0; j < t.ny; ++j)
          for (int i = 0; i < t.nx; ++i)
            y(i, j) = in.at(t.local_block, t.i0 + i, t.j0 + j, m);
        if constexpr (std::is_same_v<T, double>) {
          s.solve(y, x);
        } else {
          s.enable_fp32(opt.tile_accuracy32);
          s.solve32(y, x);
        }
        const auto& mask = p.op.block_mask(t.local_block);
        for (int j = 0; j < t.ny; ++j)
          for (int i = 0; i < t.nx; ++i)
            out.at(t.local_block, t.i0 + i, t.j0 + j, m) =
                mask(t.i0 + i, t.j0 + j) ? x(i, j) : T(0);
      }
    }
}

/// CRC32C of the bits of every interior value of every member.
template <typename T>
std::uint32_t interior_crc(const mc::DistFieldBatchT<T>& f) {
  std::uint32_t crc = mu::kCrc32cInit;
  for (int lb = 0; lb < f.num_local_blocks(); ++lb)
    for (int j = 0; j < f.info(lb).ny; ++j)
      for (int i = 0; i < f.info(lb).nx; ++i)
        for (int m = 0; m < f.nb(); ++m) {
          const T v = f.at(lb, i, j, m);
          crc = mu::crc32c_update(crc, &v, sizeof v);
        }
  return mu::crc32c_final(crc);
}

template <typename T>
void expect_lane_apply_matches_one_tile_solves(int nb) {
  auto& p = production_evp();
  mc::DistFieldBatchT<T> in(p.decomp, 0, nb), got(p.decomp, 0, nb),
      want(p.decomp, 0, nb);
  mu::Xoshiro256 rng(2015 + nb);
  for (int lb = 0; lb < in.num_local_blocks(); ++lb)
    for (int j = 0; j < in.info(lb).ny; ++j)
      for (int i = 0; i < in.info(lb).nx; ++i)
        for (int m = 0; m < nb; ++m)
          in.at(lb, i, j, m) = static_cast<T>(rng.uniform(-1, 1));
  mc::SerialComm comm;
  p.evp.apply(comm, mc::FieldSetT<T>(in), mc::FieldSetT<T>(got));
  const auto groups = std::is_same_v<T, double> ? p.evp.tile_groups()
                                                : p.evp.tile_groups32();
  one_tile_apply(p, groups, in, want);
  EXPECT_EQ(interior_crc(got), interior_crc(want));
  for (int lb = 0; lb < in.num_local_blocks(); ++lb)
    for (int j = 0; j < in.info(lb).ny; ++j)
      for (int i = 0; i < in.info(lb).nx; ++i)
        for (int m = 0; m < nb; ++m)
          ASSERT_EQ(got.at(lb, i, j, m), want.at(lb, i, j, m))
              << "block " << lb << " (" << i << "," << j << ") member " << m;
}

/// Lane counts, mixed simplified/full groups and land-touching tiles of
/// a set of lane groups.
struct GroupCoverage {
  std::set<int> lanes;
  bool mixed_simplified = false;
  bool land_tile = false;
};

GroupCoverage coverage(
    const ProductionEvp& p,
    const std::vector<std::vector<me::BlockEvpPreconditioner::TilePlacement>>&
        groups) {
  GroupCoverage c;
  for (const auto& g : groups) {
    c.lanes.insert(static_cast<int>(g.size()));
    bool simp = false, full = false;
    for (const auto& t : g) {
      (t.simplified ? simp : full) = true;
      EXPECT_EQ(t.nx, g[0].nx);
      EXPECT_EQ(t.ny, g[0].ny);
      const auto& mask = p.op.block_mask(t.local_block);
      for (int j = 0; j < t.ny; ++j)
        for (int i = 0; i < t.nx; ++i)
          if (!mask(t.i0 + i, t.j0 + j)) c.land_tile = true;
    }
    c.mixed_simplified = c.mixed_simplified || (simp && full);
  }
  return c;
}

}  // namespace

TEST(EvpLaneGroups, ProductionTilesPackIntoEqualShapeGroups) {
  auto& p = production_evp();
  // 38x46 in 12x12 blocks: six 12x12 tiles, six 6x12, three 12x10,
  // three 2x12 and one 2x10, in groups of 4+2, 4+2, 3, 3 and 1.
  EXPECT_EQ(p.evp.num_tiles(), 19);
  const auto groups = p.evp.tile_groups();
  EXPECT_EQ(groups.size(), 7u);
  const GroupCoverage c = coverage(p, groups);
  EXPECT_EQ(c.lanes, (std::set<int>{1, 2, 3, 4}));
  EXPECT_TRUE(c.mixed_simplified);
  EXPECT_TRUE(c.land_tile);
  // The anisotropy guard keeps the simplified operator on one tile.
  EXPECT_EQ(p.evp.simplified_tiles(), 1);

  // The fp32 tile set (6x6 cap) is packed the same way.
  mc::DistField32 v(p.decomp, 0), mv(p.decomp, 0);
  mc::SerialComm comm;
  p.evp.apply(comm, v, mv);
  int n32 = 0;
  for (const auto& g : p.evp.tile_groups32()) {
    EXPECT_GE(g.size(), 1u);
    EXPECT_LE(static_cast<int>(g.size()), me::kEvpLanes);
    n32 += static_cast<int>(g.size());
  }
  EXPECT_EQ(n32, p.evp.num_tiles32());
  EXPECT_TRUE(coverage(p, p.evp.tile_groups32()).land_tile);
}

TEST(EvpLaneGroups, Fp64ApplyBitwiseEqualsOneTileSolvesOneMember) {
  expect_lane_apply_matches_one_tile_solves<double>(1);
}

TEST(EvpLaneGroups, Fp64ApplyBitwiseEqualsOneTileSolvesThreeMembers) {
  expect_lane_apply_matches_one_tile_solves<double>(3);
}

TEST(EvpLaneGroups, Fp32ApplyBitwiseEqualsOneTileSolvesOneMember) {
  expect_lane_apply_matches_one_tile_solves<float>(1);
}

TEST(EvpLaneGroups, Fp32ApplyBitwiseEqualsOneTileSolvesThreeMembers) {
  expect_lane_apply_matches_one_tile_solves<float>(3);
}

TEST(EvpLaneGroups, LaneLuSolveMatchesSolveIntoPerLane) {
  // Three systems interleaved as lanes: each lane's solution bits equal
  // that system's solve_into alone.
  constexpr int L = 3;
  const int n = 7;
  std::vector<ml::LuFactorization> lus;
  for (int l = 0; l < L; ++l) {
    ml::DenseMatrix a(n, n);
    mu::Xoshiro256 rng(40 + l);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
    lus.emplace_back(std::move(a));
  }
  std::vector<double> lu(n * n * L), b(n * L), x(n * L);
  std::vector<int> perm(n * L);
  for (int l = 0; l < L; ++l) {
    for (int e = 0; e < n * n; ++e) lu[e * L + l] = lus[l].factors().data()[e];
    for (int r = 0; r < n; ++r) {
      perm[r * L + l] = lus[l].permutation()[r];
      b[r * L + l] = 0.5 * r - l;
    }
  }
  ml::lu_solve_lanes<L>(n, lu.data(), perm.data(), b.data(), x.data());
  for (int l = 0; l < L; ++l) {
    std::vector<double> bl(n), xl(n);
    for (int r = 0; r < n; ++r) bl[r] = b[r * L + l];
    lus[l].solve_into(bl.data(), xl.data());
    for (int r = 0; r < n; ++r) EXPECT_EQ(x[r * L + l], xl[r]);
  }
}

TEST(BarotropicSolver, AllConfigurationsConverge) {
  auto p = make_masked_problem(30, 24, 10, 1);
  mc::SerialComm comm;
  mc::HaloExchanger halo(*p.decomp);
  for (auto solver_kind : {ms::SolverKind::kPcg, ms::SolverKind::kChronGear,
                           ms::SolverKind::kPcsi}) {
    for (auto precond_kind :
         {ms::PreconditionerKind::kIdentity,
          ms::PreconditionerKind::kDiagonal,
          ms::PreconditionerKind::kBlockEvp}) {
      ms::SolverConfig cfg;
      cfg.solver = solver_kind;
      cfg.preconditioner = precond_kind;
      cfg.options.rel_tolerance = 1e-10;
      cfg.evp.max_tile = 10;
      cfg.lanczos.rel_tolerance = 0.02;
      ms::BarotropicSolver bs(comm, halo, *p.grid, p.depth, *p.stencil,
                              *p.decomp, cfg);
      mc::DistField b(*p.decomp, 0), x(*p.decomp, 0);
      b.load_global(p.b_global);
      auto stats = bs.solve(comm, b, x);
      EXPECT_TRUE(stats.converged) << bs.description();
      if (solver_kind == ms::SolverKind::kPcsi)
        EXPECT_TRUE(bs.lanczos().has_value());
      else
        EXPECT_FALSE(bs.lanczos().has_value());
    }
  }
}

TEST(BarotropicSolver, MultiRankEvpMatchesSerial) {
  const int nranks = 4;
  auto p = make_masked_problem(24, 24, 6, nranks);
  ms::SolverConfig cfg;
  cfg.solver = ms::SolverKind::kChronGear;
  cfg.preconditioner = ms::PreconditionerKind::kBlockEvp;
  cfg.options.rel_tolerance = 1e-11;
  cfg.evp.max_tile = 0;  // tile = 6x6 process blocks

  // Serial reference with the SAME tiling (6x6) so M is identical.
  mg::Decomposition d1(24, 24, false, p.stencil->mask(), 24, 24, 1);
  mu::Field x_serial(24, 24, 0.0);
  {
    ms::SolverConfig cfg1 = cfg;
    cfg1.evp.max_tile = 6;
    mc::SerialComm comm;
    mc::HaloExchanger halo(d1);
    ms::BarotropicSolver bs(comm, halo, *p.grid, p.depth, *p.stencil, d1,
                            cfg1);
    mc::DistField b(d1, 0), x(d1, 0);
    b.load_global(p.b_global);
    auto stats = bs.solve(comm, b, x);
    ASSERT_TRUE(stats.converged);
    x.store_global(x_serial);
  }

  mu::Field x_par(24, 24, 0.0);
  mc::ThreadTeam team(nranks);
  mc::HaloExchanger halo(*p.decomp);
  team.run([&](mc::Communicator& comm) {
    ms::BarotropicSolver bs(comm, halo, *p.grid, p.depth, *p.stencil,
                            *p.decomp, cfg);
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    auto stats = bs.solve(comm, b, x);
    EXPECT_TRUE(stats.converged);
    x.store_global(x_par);
  });
  for (int j = 0; j < 24; ++j)
    for (int i = 0; i < 24; ++i)
      EXPECT_NEAR(x_par(i, j), x_serial(i, j), 1e-5);
}

TEST(SolverFactory, StringParsing) {
  EXPECT_EQ(ms::solver_kind_from_string("pcsi"), ms::SolverKind::kPcsi);
  EXPECT_EQ(ms::solver_kind_from_string("chrongear"),
            ms::SolverKind::kChronGear);
  EXPECT_EQ(ms::preconditioner_kind_from_string("evp"),
            ms::PreconditionerKind::kBlockEvp);
  EXPECT_THROW(ms::solver_kind_from_string("magic"), mu::Error);
  EXPECT_THROW(ms::preconditioner_kind_from_string("amg"), mu::Error);
  EXPECT_EQ(ms::to_string(ms::SolverKind::kPcsi), "pcsi");
  EXPECT_EQ(ms::to_string(ms::PreconditionerKind::kBlockEvp), "block-evp");
}
