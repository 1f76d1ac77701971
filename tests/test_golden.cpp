// Golden pins of BarotropicSolver::solve. The pcsi/chrongear constants
// below were recorded from the scalar P-CSI, ChronGear, mixed-precision
// and resilience solver classes that solve() ran on before it became a
// one-member batched solve; they are the reference that stack used to
// be. Every cell of the matrix — pcsi/chrongear ×
// diagonal/block-evp × fp64/fp32/mixed × halo depth 1/2 (pcsi +
// diagonal only) × 1/4 ranks — must reproduce the recorded
// iteration count, refinement sweeps, the bits of the final relative
// residual, the CRC32C of the gathered solution and of the convergence
// history, exactly. The B>1 identity tests (test_batch, test_integrity,
// test_comm_avoid) chain to these pins through their B=1 references.
//
// The pcg/pipecg rows (fp64 × diagonal/block-evp), the Lanczos
// eigenvalue bounds, and the land-span problems
// were recorded from the single-field sweeps with land-span execution
// both on and off, which agreed bit for bit; the span sweeps are now
// the only path, and these pins stand in for the masked one.
//
// A mismatch here means the arithmetic of the production solve changed;
// report it, do not re-record it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/grid/decomposition.hpp"
#include "src/grid/stencil.hpp"
#include "src/solver/batched_decorators.hpp"
#include "src/solver/solver_factory.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/rng.hpp"
#include "tests/span_problem.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace ms = minipop::solver;
namespace mu = minipop::util;

namespace {

struct Pin {
  int nranks;
  const char* solver;
  const char* precond;
  const char* precision;
  int halo_depth;
  int iterations;
  int refine_sweeps;
  std::uint64_t residual_bits;
  std::uint32_t solution_crc;
  std::size_t history_len;
  std::uint32_t history_crc;
};

// {ranks, solver, precond, precision, halo depth, iterations,
//  refine sweeps, residual bits, solution CRC32C, history length,
//  history CRC32C}
constexpr Pin kPins[] = {
    {1, "pcsi", "diagonal", "fp64", 1, 220, 0, 0x3dd3bdf141a4735dull, 0x40855480u, 22, 0xbb76c02fu},
    {1, "pcsi", "diagonal", "fp64", 2, 220, 0, 0x3dd3bdf141a4735dull, 0x40855480u, 22, 0xbb76c02fu},
    {1, "pcsi", "diagonal", "fp32", 1, 100, 0, 0x3ed69ca5b8dc1e68ull, 0x4f87101fu, 10, 0x27b08f92u},
    {1, "pcsi", "diagonal", "fp32", 2, 100, 0, 0x3ed69ca5b8dc1e68ull, 0x4f87101fu, 10, 0x27b08f92u},
    {1, "pcsi", "diagonal", "mixed", 1, 310, 3, 0x3d109988a7aef8abull, 0x1123d965u, 4, 0x18622799u},
    {1, "pcsi", "diagonal", "mixed", 2, 310, 3, 0x3d109988a7aef8abull, 0x1123d965u, 4, 0x18622799u},
    {1, "pcsi", "block-evp", "fp64", 1, 70, 0, 0x3dafbe1ce11e60f9ull, 0xb024969fu, 7, 0x42c14644u},
    {1, "pcsi", "block-evp", "fp32", 1, 70, 0, 0x3ecc1de88607e9f4ull, 0x92a1f6deu, 7, 0x78d2ba5eu},
    {1, "pcsi", "block-evp", "mixed", 1, 200, 3, 0x3cfd7005b0b9cb97ull, 0x1298bc1du, 4, 0xcf506e4du},
    {1, "chrongear", "diagonal", "fp64", 1, 90, 0, 0x3dd4090cdc7ecf6eull, 0xfd7f8036u, 9, 0x8a9a0290u},
    {1, "chrongear", "diagonal", "fp32", 1, 50, 0, 0x3ee232dbbaa40505ull, 0x27041587u, 5, 0x2bd3934cu},
    {1, "chrongear", "diagonal", "mixed", 1, 140, 3, 0x3d0067de32a45f33ull, 0x7a6d7347u, 4, 0x0ca0215eu},
    {1, "chrongear", "block-evp", "fp64", 1, 40, 0, 0x3dd03913b4f2de87ull, 0xe40d1debu, 4, 0xa79c5201u},
    {1, "chrongear", "block-evp", "fp32", 1, 30, 0, 0x3ee38b0728a54115ull, 0xe6c04b67u, 3, 0x8e381fa8u},
    {1, "chrongear", "block-evp", "mixed", 1, 60, 2, 0x3dc23e92d6369bd3ull, 0xa7249f4bu, 3, 0x4556db60u},
    {4, "pcsi", "diagonal", "fp64", 1, 220, 0, 0x3dd3bdf156654e24ull, 0xf7417097u, 22, 0x8bd2f8bdu},
    {4, "pcsi", "diagonal", "fp64", 2, 220, 0, 0x3dd3bdf156654e24ull, 0xf7417097u, 22, 0x8bd2f8bdu},
    {4, "pcsi", "diagonal", "fp32", 1, 100, 0, 0x3ed69ca5b8dc1e65ull, 0x4f87101fu, 10, 0x7e3691cbu},
    {4, "pcsi", "diagonal", "fp32", 2, 100, 0, 0x3ed69ca5b8dc1e65ull, 0x4f87101fu, 10, 0x7e3691cbu},
    {4, "pcsi", "diagonal", "mixed", 1, 310, 3, 0x3d109988a7aef8acull, 0x1123d965u, 4, 0x7fa8de6bu},
    {4, "pcsi", "diagonal", "mixed", 2, 310, 3, 0x3d109988a7aef8acull, 0x1123d965u, 4, 0x7fa8de6bu},
    {4, "pcsi", "block-evp", "fp64", 1, 70, 0, 0x3dafbe1a120072afull, 0xccbdc293u, 7, 0x59992c52u},
    {4, "pcsi", "block-evp", "fp32", 1, 70, 0, 0x3ecc1de88607e9f0ull, 0x92a1f6deu, 7, 0x14f9d4dfu},
    {4, "pcsi", "block-evp", "mixed", 1, 200, 3, 0x3cfd7005b0b9cb99ull, 0x1298bc1du, 4, 0x13df1c33u},
    {4, "chrongear", "diagonal", "fp64", 1, 90, 0, 0x3dd41042bd15c4fdull, 0x1b3b9a91u, 9, 0x7b6a023eu},
    {4, "chrongear", "diagonal", "fp32", 1, 50, 0, 0x3ee232dbbaa40504ull, 0x27041587u, 5, 0xe6242858u},
    {4, "chrongear", "diagonal", "mixed", 1, 140, 3, 0x3d0067de32a45f34ull, 0x7a6d7347u, 4, 0x4306468bu},
    {4, "chrongear", "block-evp", "fp64", 1, 40, 0, 0x3dd03913c3ff35d0ull, 0x8f895b5bu, 4, 0x371e34bdu},
    {4, "chrongear", "block-evp", "fp32", 1, 30, 0, 0x3ee38b0728a54112ull, 0xe6c04b67u, 3, 0x7e843ddau},
    {4, "chrongear", "block-evp", "mixed", 1, 60, 2, 0x3dc23e92d6369bd5ull, 0xa7249f4bu, 3, 0x633a2f9du},
    {1, "pcg", "diagonal", "fp64", 1, 90, 0, 0x3dd3f68bbcbf4f07ull, 0xac7f7b14u, 9, 0x12b5ea5du},
    {1, "pcg", "block-evp", "fp64", 1, 40, 0, 0x3dd03913a0e78bdfull, 0xaf24dbfbu, 4, 0xe1b5b170u},
    {1, "pipecg", "diagonal", "fp64", 1, 90, 0, 0x3dd40ff977557699ull, 0x8c848633u, 9, 0xd8e0372au},
    {1, "pipecg", "block-evp", "fp64", 1, 50, 0, 0x3d6a05a4aed91f2bull, 0x8a47b9e2u, 5, 0xf195982bu},
    {4, "pcg", "diagonal", "fp64", 1, 90, 0, 0x3dd3fb7c3e5a56e2ull, 0x74a07cb1u, 9, 0x6dc17c7au},
    {4, "pcg", "block-evp", "fp64", 1, 40, 0, 0x3dd03913c05c1450ull, 0x4778e01au, 4, 0x415a9231u},
    {4, "pipecg", "diagonal", "fp64", 1, 90, 0, 0x3dd40df788505f0dull, 0x3ab5088bu, 9, 0x469c65f4u},
    {4, "pipecg", "block-evp", "fp64", 1, 50, 0, 0x3d6a01a5916fd82full, 0x4c483942u, 5, 0x0f5d4ecbu},
};

/// 24x20 bowl with a three-cell island, 12x10 blocks (four blocks on one
/// or four ranks), random masked RHS and a small random initial guess.
struct GoldenProblem {
  std::unique_ptr<mg::CurvilinearGrid> grid;
  mu::Field depth;
  std::unique_ptr<mg::NinePointStencil> stencil;
  mu::Field b, x0;

  GoldenProblem() {
    mg::GridSpec spec;
    spec.kind = mg::GridKind::kUniform;
    spec.nx = 24;
    spec.ny = 20;
    spec.periodic_x = false;
    spec.dx = 1.0e4;
    spec.dy = 1.2e4;
    grid = std::make_unique<mg::CurvilinearGrid>(spec);
    depth = mg::bowl_bathymetry(*grid, 4000.0);
    depth(11, 9) = 0.0;
    depth(12, 9) = 0.0;
    depth(12, 10) = 0.0;
    stencil = std::make_unique<mg::NinePointStencil>(*grid, depth, 1e-6);
    mu::Xoshiro256 rng(2015);
    b = mu::Field(24, 20, 0.0);
    x0 = mu::Field(24, 20, 0.0);
    for (int j = 0; j < 20; ++j)
      for (int i = 0; i < 24; ++i)
        if (stencil->mask()(i, j)) {
          b(i, j) = rng.uniform(-1, 1);
          x0(i, j) = 0.01 * rng.uniform(-1, 1);
        }
  }
};

TEST(GoldenPins, ScalarSolveReproducesRecordedBits) {
  const GoldenProblem p;
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::to_string(pin.nranks) + " rank(s) " + pin.solver +
                 "+" + pin.precond + "+" + pin.precision +
                 " k=" + std::to_string(pin.halo_depth));
    mg::Decomposition decomp(24, 20, false, p.stencil->mask(), 12, 10,
                             pin.nranks);
    ms::SolverConfig cfg;
    cfg.solver = ms::solver_kind_from_string(pin.solver);
    cfg.preconditioner = ms::preconditioner_kind_from_string(pin.precond);
    cfg.options.precision = ms::precision_from_string(pin.precision);
    cfg.options.rel_tolerance =
        cfg.options.precision == ms::Precision::kFp32 ? 1e-5 : 1e-10;
    cfg.options.record_residuals = true;
    cfg.options.halo_depth = pin.halo_depth;

    mu::Field out(24, 20, 0.0);
    ms::SolveStats st;
    std::mutex mu_;
    auto body = [&](mc::Communicator& comm) {
      mc::HaloExchanger halo(decomp);
      ms::BarotropicSolver solver(comm, halo, *p.grid, p.depth, *p.stencil,
                                  decomp, cfg);
      mc::DistField b(decomp, comm.rank()), x(decomp, comm.rank());
      b.load_global(p.b);
      x.load_global(p.x0);
      const ms::SolveStats s = solver.solve(comm, b, x);
      std::lock_guard<std::mutex> lock(mu_);
      x.store_global(out);  // disjoint interiors
      if (comm.rank() == 0) st = s;
    };
    if (pin.nranks == 1) {
      mc::SerialComm comm;
      body(comm);
    } else {
      mc::ThreadTeam team(pin.nranks);
      team.run(body);
    }

    std::uint64_t bits = 0;
    std::memcpy(&bits, &st.relative_residual, sizeof bits);
    std::uint32_t hcrc = mu::kCrc32cInit;
    for (const auto& [k, rel] : st.residual_history) {
      hcrc = mu::crc32c_update(hcrc, &k, sizeof k);
      hcrc = mu::crc32c_update(hcrc, &rel, sizeof rel);
    }
    EXPECT_TRUE(st.converged);
    EXPECT_EQ(st.iterations, pin.iterations);
    EXPECT_EQ(st.refine_sweeps, pin.refine_sweeps);
    EXPECT_EQ(bits, pin.residual_bits);
    EXPECT_EQ(mu::crc32c(out.data(), out.size() * sizeof(double)),
              pin.solution_crc);
    EXPECT_EQ(st.residual_history.size(), pin.history_len);
    EXPECT_EQ(mu::crc32c_final(hcrc), pin.history_crc);
  }
}

// Lanczos interval of P-CSI setup, {ranks, precond, steps, raw nu/mu
// bits, safety-widened nu/mu bits}.
struct LanczosPin {
  int nranks;
  const char* precond;
  int steps;
  std::uint64_t raw_nu, raw_mu, nu, mu;
};

constexpr LanczosPin kLanczosPins[] = {
    {1, "diagonal", 9, 0x3fabb09435026643ull, 0x40021416142a2918ull, 0x3faa4e26658f1459ull, 0x4002fb7d952c44c0ull},
    {1, "block-evp", 6, 0x3fc825782ad616f0ull, 0x3ffcdd334f9baf14ull, 0x3fc6f0655be4fc30ull, 0x3ffe4ea91396ab09ull},
    {4, "diagonal", 9, 0x3fabb094350266d7ull, 0x40021416142a2916ull, 0x3faa4e26658f14e6ull, 0x4002fb7d952c44beull},
    {4, "block-evp", 6, 0x3fc825782ad6d096ull, 0x3ffcdd334f9b6b34ull, 0x3fc6f0655be5ac8eull, 0x3ffe4ea9139663c4ull},
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(GoldenPins, LanczosBoundsReproduceRecordedBits) {
  const GoldenProblem p;
  for (const LanczosPin& pin : kLanczosPins) {
    SCOPED_TRACE(std::to_string(pin.nranks) + " rank(s) " + pin.precond);
    mg::Decomposition decomp(24, 20, false, p.stencil->mask(), 12, 10,
                             pin.nranks);
    ms::SolverConfig cfg;
    cfg.solver = ms::SolverKind::kPcsi;
    cfg.preconditioner = ms::preconditioner_kind_from_string(pin.precond);
    std::vector<ms::LanczosResult> per_rank(pin.nranks);
    auto body = [&](mc::Communicator& comm) {
      mc::HaloExchanger halo(decomp);
      ms::BarotropicSolver solver(comm, halo, *p.grid, p.depth, *p.stencil,
                                  decomp, cfg);
      per_rank[comm.rank()] = *solver.lanczos();
    };
    if (pin.nranks == 1) {
      mc::SerialComm comm;
      body(comm);
    } else {
      mc::ThreadTeam team(pin.nranks);
      team.run(body);
    }
    for (const ms::LanczosResult& lr : per_rank) {
      EXPECT_EQ(lr.steps, pin.steps);
      EXPECT_EQ(bits_of(lr.raw.nu), pin.raw_nu);
      EXPECT_EQ(bits_of(lr.raw.mu), pin.raw_mu);
      EXPECT_EQ(bits_of(lr.bounds.nu), pin.nu);
      EXPECT_EQ(bits_of(lr.bounds.mu), pin.mu);
    }
  }
}

// Solves of the land-span identity problem (tests/span_problem.hpp:
// 30x22 adversarial mask, 6x6 blocks, diagonal preconditioner, P-CSI
// interval from a serial Lanczos run), {ranks, core, halo depth,
// iterations, residual bits, solution CRC32C, history length, history
// CRC32C}.
struct SpanPin {
  int nranks;
  const char* solver;
  int halo_depth;
  int iterations;
  std::uint64_t residual_bits;
  std::uint32_t solution_crc;
  std::size_t history_len;
  std::uint32_t history_crc;
};

constexpr SpanPin kSpanPins[] = {
    {1, "pcsi", 1, 310, 0x3dcdc2dd32234721ull, 0x091a0a3cu, 31, 0x45dab237u},
    {4, "pcsi", 1, 310, 0x3dcdc2dd32234723ull, 0x091a0a3cu, 31, 0x99f81aa3u},
    {1, "pcsi", 2, 310, 0x3dcdc2dd32234721ull, 0x091a0a3cu, 31, 0x45dab237u},
    {1, "chrongear", 1, 110, 0x3dd736d03bdf727cull, 0xd50b6f56u, 11, 0xef16de32u},
};

void expect_span_pin(const SpanPin& pin) {
  const minipop::testing::SpanProblem p =
      minipop::testing::make_span_problem(30, 22, 6, pin.nranks, 77);
  const ms::EigenBounds bounds = minipop::testing::lanczos_bounds_serial(p);
  mu::Field out(p.decomp->nx_global(), p.decomp->ny_global(), 0.0);
  std::vector<ms::SolveStats> stats(pin.nranks);
  mc::HaloExchanger halo(*p.decomp);
  ms::SolverOptions opt;
  opt.rel_tolerance = 1e-10;
  opt.max_iterations = 2000;
  opt.record_residuals = true;
  opt.halo_depth = pin.halo_depth;
  auto body = [&](mc::Communicator& comm) {
    ms::DistOperator a(*p.stencil, *p.decomp, comm.rank());
    ms::DiagonalPreconditioner m(a);
    std::unique_ptr<ms::BatchedSolver> core;
    if (std::string(pin.solver) == "pcsi")
      core = std::make_unique<ms::BatchedPcsiSolver>(bounds, opt);
    else
      core = std::make_unique<ms::BatchedChronGearSolver>(opt);
    ms::OneMemberSolver s(std::move(core));
    mc::DistField b(*p.decomp, comm.rank()), x(*p.decomp, comm.rank());
    b.load_global(p.b_global);
    stats[comm.rank()] = s.solve(comm, halo, a, m, b, x);
    x.store_global(out);  // disjoint interiors
  };
  if (pin.nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(pin.nranks);
    team.run(body);
  }
  const ms::SolveStats& st = stats[0];
  std::uint32_t hcrc = mu::kCrc32cInit;
  for (const auto& [k, rel] : st.residual_history) {
    hcrc = mu::crc32c_update(hcrc, &k, sizeof k);
    hcrc = mu::crc32c_update(hcrc, &rel, sizeof rel);
  }
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.iterations, pin.iterations);
  EXPECT_EQ(bits_of(st.relative_residual), pin.residual_bits);
  EXPECT_EQ(mu::crc32c(out.data(), out.size() * sizeof(double)),
            pin.solution_crc);
  EXPECT_EQ(st.residual_history.size(), pin.history_len);
  EXPECT_EQ(mu::crc32c_final(hcrc), pin.history_crc);
}

// One test per pinned land-span problem.
TEST(SpanPlan, PcsiSolveBitwiseSerial) { expect_span_pin(kSpanPins[0]); }
TEST(SpanPlan, PcsiSolveBitwiseFourRanks) { expect_span_pin(kSpanPins[1]); }
TEST(SpanPlan, PcsiCommAvoidDepth2SolveBitwise) {
  expect_span_pin(kSpanPins[2]);
}
TEST(SpanPlan, ChronGearSolveBitwiseSerial) {
  expect_span_pin(kSpanPins[3]);
}

}  // namespace
