// Land-span test problems shared by test_span_plan.cpp (structure and
// sweep identities) and test_golden.cpp (pinned span solves): an
// adversarial random mask and a full grid/stencil/decomposition whose
// ocean geometry is that mask.
#pragma once

#include <cstdint>
#include <memory>

#include "src/comm/serial_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/lanczos.hpp"
#include "src/solver/preconditioner.hpp"
#include "src/util/rng.hpp"

namespace minipop::testing {

// Adversarial mask generator: random ocean/land plus every feature the
// run-length encoder has to survive — an all-land row crossing active
// blocks, a full-ocean row, isolated 1-cell spans, and (via the odd
// grid/block sizes the tests pick) narrow ragged edge blocks.
inline util::MaskArray feature_mask(int nx, int ny, std::uint64_t seed,
                                    double p_ocean) {
  util::Xoshiro256 rng(seed);
  util::MaskArray m(nx, ny, 0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      m(i, j) = rng.uniform() < p_ocean ? 1 : 0;
  // Full-ocean row, and an all-land row crossing every active block of
  // its block row.
  for (int i = 0; i < nx; ++i) {
    m(i, ny / 2) = 1;
    if (ny > 4) m(i, ny / 3) = 0;
  }
  // Isolated 1-cell spans: ocean cells with land on both x-neighbors.
  if (ny > 2) {
    for (int i = 0; i < nx; ++i) m(i, 1) = 0;
    for (int i = 1; i + 1 < nx; i += 4) m(i, 1) = 1;
  }
  // Keep at least one ocean cell so the decomposition has active blocks.
  m(nx / 2, ny / 2) = 1;
  return m;
}

// A full problem (grid/stencil/decomposition) whose ocean geometry IS a
// feature mask: depth is positive exactly on the mask's ocean cells.
struct SpanProblem {
  std::unique_ptr<grid::CurvilinearGrid> grid;
  util::Field depth;
  std::unique_ptr<grid::NinePointStencil> stencil;
  std::unique_ptr<grid::Decomposition> decomp;
  util::Field b_global;
};

inline SpanProblem make_span_problem(int nx, int ny, int block, int nranks,
                                     std::uint64_t seed) {
  SpanProblem p;
  grid::GridSpec spec;
  spec.kind = grid::GridKind::kUniform;
  spec.nx = nx;
  spec.ny = ny;
  spec.periodic_x = false;
  spec.dx = 1.0e4;
  spec.dy = 1.2e4;
  p.grid = std::make_unique<grid::CurvilinearGrid>(spec);
  const util::MaskArray m = feature_mask(nx, ny, seed, 0.6);
  p.depth = util::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (m(i, j)) p.depth(i, j) = 3000.0 + 100.0 * ((i + j) % 7);
  p.stencil = std::make_unique<grid::NinePointStencil>(
      *p.grid, p.depth, grid::barotropic_phi(600.0));
  p.decomp = std::make_unique<grid::Decomposition>(
      nx, ny, false, p.stencil->mask(), block, block, nranks);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  p.b_global = util::Field(nx, ny, 0.0);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      if (p.stencil->mask()(i, j)) p.b_global(i, j) = rng.uniform(-1, 1);
  return p;
}

/// P-CSI interval of a span problem from a serial one-block Lanczos run
/// (diagonal preconditioner, tight relative tolerance).
inline solver::EigenBounds lanczos_bounds_serial(const SpanProblem& p) {
  grid::Decomposition d1(p.stencil->nx(), p.stencil->ny(),
                         p.stencil->periodic_x(), p.stencil->mask(),
                         p.stencil->nx(), p.stencil->ny(), 1);
  comm::SerialComm comm;
  comm::HaloExchanger halo(d1);
  solver::DistOperator a(*p.stencil, d1, 0);
  solver::DiagonalPreconditioner m(a);
  solver::LanczosOptions lopt;
  lopt.rel_tolerance = 0.02;
  return solver::estimate_eigenvalue_bounds(comm, halo, a, m, lopt).bounds;
}

}  // namespace minipop::testing
