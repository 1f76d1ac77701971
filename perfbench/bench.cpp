// End-to-end benchmark binary for miniPOP-PCSI.
//
// Runs one workload for a wall-clock budget as a sequence of identical
// episodes. Every model is a member of the paper's §6 ensemble: the
// production map (the default bathymetry) with an O(1e-14) initial
// temperature perturbation seeded from --seed. An episode builds the
// model(s) (one set-up sample), steps a fixed number of simulated days
// back to back (a closed loop with one simulation in flight) and reports
// the final mean temperature, mean SSH and kinetic energy (member
// means), which run.py checks against a reference. Between each solve
// and step_finish, outside the timed intervals, every solve's true
// relative residual is recomputed and gated at the tolerance. One
// untimed warm-up episode comes first, and every timed episode is
// bracketed by a host-speed probe (HostProbe), a fixed kernel of the
// benchmark's own whose times run.py uses to scale the episode's times to
// a reference host speed.
//
// With --trace 1 the episodes alternate untraced and traced. A traced
// episode routes all communication through TracingComm, records spans
// around every public call it makes (construction, step_begin, solve,
// step_finish, and microcalls on copies between steps), checks the
// outside-in communication counts against the program's CostCounters,
// and the spans are written to --trace-out at the end.
//
// Output: one JSON object on stdout with the raw samples; run.py turns
// it into metrics.
//
//   perfbench_bin --workload pop_evp_1r --seed 2015 --seconds 20
//                 [--trace 0|1] [--trace-out spans.jsonl] [--reference]
//
// --reference runs one episode of the workload's physics with an
// independent solver configuration (PCG + diagonal, one rank, scalar
// solves) and prints only its final state; run.py uses it for seeds
// that have no stored reference.
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/evp/block_evp_preconditioner.hpp"
#include "src/model/ocean_model.hpp"
#include "trace_comm.hpp"

namespace {

using namespace minipop;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  int ranks = 1;
  int members = 1;
  solver::PreconditionerKind precond = solver::PreconditionerKind::kDiagonal;
  double days = 1.0;  ///< simulated days per episode
  /// Host-speed probe arrays: about one rank's computed working set at
  /// this commit, so the probe sits in the same cache level. Fixed here,
  /// not derived from the model, so a change to the model leaves the
  /// probe alone.
  double probe_bytes = 1.4e6;
};

Workload workload_by_name(const std::string& name) {
  using PK = solver::PreconditionerKind;
  if (name == "pop_evp_1r") return {name, 1, 1, PK::kBlockEvp, 5.0, 1.4e6};
  if (name == "pop_diag_2r") return {name, 2, 1, PK::kDiagonal, 3.0, 0.7e6};
  if (name == "ens_diag_b8") return {name, 1, 8, PK::kDiagonal, 3.0, 8.8e6};
  throw std::runtime_error("unknown workload '" + name + "'");
}

constexpr double kTolerance = 1e-13;
constexpr double kPerturbation = 1e-14;

model::ModelConfig make_config(const Workload& w) {
  model::ModelConfig cfg;
  cfg.grid = grid::pop_1deg_spec(0.12);
  cfg.nz = 4;
  cfg.block_size = 12;
  cfg.solver.solver = solver::SolverKind::kPcsi;
  cfg.solver.preconditioner = w.precond;
  cfg.solver.options.rel_tolerance = kTolerance;
  cfg.nranks = w.ranks;
  return cfg;
}

/// Member m's initial-temperature perturbation seed.
std::uint64_t member_seed(std::uint64_t seed, int m) {
  return seed * 1000 + static_cast<std::uint64_t>(m);
}

// ---------------------------------------------------------------------------
// Spans

/// Counts attached to a solve span: the program's CostCounters deltas,
/// summed over the outer tracker (halo rounds, flops, points) and the
/// backend's inner tracker (messages, bytes, allreduces), next to the
/// outside-in counts TracingComm made.
struct SolveAttrs {
  int iterations = 0;
  double flops = 0, active = 0, swept = 0;
  double halo = 0, msgs = 0, bytes = 0, allreduces = 0;
  double obs_halo = 0, obs_isend = 0, obs_irecv = 0, obs_allreduces = 0;
  double wait_s = 0;
};

struct Span {
  std::string name;
  int rank = 0;
  long step = -1;
  double t0 = 0, t1 = 0;
  int parent = -1;  ///< index into the same rank's span list
  bool has_solve = false;
  SolveAttrs solve;
};

/// In-memory span recorder of one rank in one episode; a no-op when off.
class SpanLog {
 public:
  SpanLog(bool on, int rank) : on_(on), rank_(rank) {}

  int open(const char* name, long step, int parent) {
    if (!on_) return -1;
    spans_.push_back(Span{name, rank_, step, now_s(), 0.0, parent, false, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int idx) {
    if (idx >= 0) spans_[idx].t1 = now_s();
  }
  Span& at(int idx) { return spans_[idx]; }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  int rank_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One rank's episode

struct EpisodeSpec {
  Workload w;
  model::ModelConfig cfg;
  std::uint64_t seed = 0;
  long steps = 0;
  bool traced = false;
};

struct RankLog {
  double setup_end = 0;  ///< now_s() once this rank's models are ready
  std::vector<double> step_s;
  double cpu_s = 0;
  long solves = 0;
  long failed_solves = 0;
  long iterations = 0;
  double max_rel_residual = 0;
  long crosscheck_failures = 0;
  std::string first_error;
  std::vector<double> final_state;  ///< member means of T, SSH and KE
  std::vector<SolveAttrs> solve_attrs;
  std::vector<Span> spans;
  double field_bytes = 0;
  int evp_tiles = 0;
  int evp_tile_side = 0;
};

constexpr int kMicroEvery = 5;  ///< traced: microcalls every k-th step
constexpr int kMicroReps = 3;

void note_error(RankLog& log, const std::string& what) {
  if (log.first_error.empty()) log.first_error = what;
}

double field_bytes(const comm::DistField& f) {
  double b = 0;
  for (int lb = 0; lb < f.num_local_blocks(); ++lb)
    b += static_cast<double>(f.data(lb).nx()) * f.data(lb).ny() *
         sizeof(double);
  return b;
}

/// Program counters of one solve (outer + inner tracker deltas) and the
/// outside-in counts, with the per-rank cross-check.
SolveAttrs solve_counts(comm::Communicator& comm, comm::Communicator& backend,
                        const perfbench::TracingComm& tracing,
                        const comm::CostCounters& outer0,
                        const comm::CostCounters& inner0,
                        const perfbench::CallCounts& obs0, int epoch0,
                        int iterations, RankLog& log) {
  comm::CostCounters d = comm.costs().since(outer0);
  d += backend.costs().since(inner0);
  const perfbench::CallCounts obs = tracing.counts() - obs0;
  SolveAttrs a;
  a.iterations = iterations;
  a.flops = static_cast<double>(d.flops);
  a.active = static_cast<double>(d.active_points);
  a.swept = static_cast<double>(d.swept_points);
  a.halo = static_cast<double>(d.halo_exchanges);
  a.msgs = static_cast<double>(d.p2p_messages);
  a.bytes = static_cast<double>(d.p2p_bytes);
  a.allreduces = static_cast<double>(d.allreduces);
  a.obs_isend = static_cast<double>(obs.isends);
  a.obs_irecv = static_cast<double>(obs.irecvs);
  a.obs_allreduces = static_cast<double>(obs.allreduces);
  a.wait_s = obs.wait_seconds;
  bool halo_ok = false;
  if (comm.size() == 1) {
    // One rank sends nothing, so the rounds are read from the tag-epoch
    // counter, which only shows them modulo the epoch window.
    const int w = comm::Communicator::kTagEpochWindow;
    const int epoch1 = comm.next_tag_epoch();
    a.obs_halo = ((epoch1 - epoch0 - 1) % w + w) % w;
    halo_ok = static_cast<long>(a.halo) % w == static_cast<long>(a.obs_halo);
  } else {
    a.obs_halo = static_cast<double>(obs.halo_rounds);
    halo_ok = a.obs_halo == a.halo;
  }
  if (!halo_ok || a.obs_isend != a.msgs ||
      a.obs_allreduces != a.allreduces) {
    ++log.crosscheck_failures;
    std::ostringstream os;
    os << "rank " << comm.rank() << " count mismatch: halo " << a.obs_halo
       << " vs " << a.halo << ", isend " << a.obs_isend << " vs " << a.msgs
       << ", allreduce " << a.obs_allreduces << " vs " << a.allreduces;
    note_error(log, os.str());
  }
  return a;
}

/// Binds the calling rank thread to one CPU, as an MPI launcher binds
/// ranks to cores: rank r takes the r-th highest CPU the process may use
/// (away from CPU 0, where housekeeping tends to run). On a shared 4-vCPU
/// host, unbound runs migrated between CPUs and lost their L2 contents;
/// binding halved the run-to-run spread of the 1-rank ensemble and of
/// 2-rank runs.
void bind_rank_thread(int rank) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n < 1) return;
  int seen = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (seen++ == rank % n) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

/// Member means of (mean temperature, mean SSH, kinetic energy).
std::vector<double> final_state(
    comm::Communicator& comm,
    const std::vector<std::unique_ptr<model::OceanModel>>& models) {
  std::vector<double> out(3, 0.0);
  for (const auto& m : models) {
    out[0] += m->mean_temperature(comm);
    out[1] += m->mean_ssh(comm);
    out[2] += m->kinetic_energy(comm);
  }
  for (double& v : out) v /= static_cast<double>(models.size());
  return out;
}

void run_rank(comm::Communicator& backend, const EpisodeSpec& ep,
              RankLog& log) {
  bind_rank_thread(backend.rank());
  std::unique_ptr<perfbench::TracingComm> tracing;
  if (ep.traced) tracing = std::make_unique<perfbench::TracingComm>(backend);
  comm::Communicator& comm =
      tracing ? static_cast<comm::Communicator&>(*tracing) : backend;
  const int rank = comm.rank();
  const int nm = ep.w.members;
  SpanLog spans(ep.traced, rank);

  // --- set-up: every member model, then a barrier --------------------------
  const int sp_setup = spans.open("setup", -1, -1);
  std::vector<std::unique_ptr<model::OceanModel>> models;
  for (int m = 0; m < nm; ++m) {
    const int sp = spans.open("setup.model", -1, sp_setup);
    models.push_back(std::make_unique<model::OceanModel>(comm, ep.cfg));
    spans.close(sp);
    models.back()->perturb_temperature(kPerturbation,
                                       member_seed(ep.seed, m));
  }
  comm.barrier();
  log.setup_end = now_s();
  spans.close(sp_setup);

  model::OceanModel& m0 = *models[0];
  solver::BarotropicSolver& solver0 = m0.barotropic().solver();
  if (ep.traced) {
    // The solver layer's own set-up (EVP LU, Lanczos), on a standalone
    // solver built from the model's public grid, depth, stencil and
    // decomposition.
    comm::HaloExchanger h(m0.decomposition());
    const int sp = spans.open("setup.solver", -1, -1);
    {
      solver::BarotropicSolver standalone(
          comm, h, m0.grid(), m0.depth(), m0.barotropic().stencil(),
          m0.decomposition(), m0.config().solver);
    }
    spans.close(sp);
  }

  // Scratch for the correctness gate and the microcalls: each member's
  // own halo exchanger (exchangers are tied to one decomposition object)
  // and copies, so the model's trajectory is never touched.
  std::vector<std::unique_ptr<comm::HaloExchanger>> halos;
  std::vector<comm::DistField> xcopy, resid;
  for (int m = 0; m < nm; ++m) {
    halos.push_back(
        std::make_unique<comm::HaloExchanger>(models[m]->decomposition()));
    xcopy.push_back(models[m]->barotropic().eta());
    resid.push_back(models[m]->barotropic().eta());
  }
  comm::DistField y0 = xcopy[0];
  std::unique_ptr<comm::DistFieldBatch> xb, yb, rb, zb;
  if (nm > 1) {
    const auto& d = m0.decomposition();
    const int h = xcopy[0].halo();
    xb = std::make_unique<comm::DistFieldBatch>(d, rank, nm, h);
    yb = std::make_unique<comm::DistFieldBatch>(d, rank, nm, h);
    rb = std::make_unique<comm::DistFieldBatch>(d, rank, nm, h);
    zb = std::make_unique<comm::DistFieldBatch>(d, rank, nm, h);
  }
  const bool evp =
      ep.w.precond == solver::PreconditionerKind::kBlockEvp;
  log.field_bytes = field_bytes(m0.barotropic().eta());
  if (auto* p = dynamic_cast<evp::BlockEvpPreconditioner*>(
          &solver0.preconditioner())) {
    log.evp_tiles = p->num_tiles();
    log.evp_tile_side = p->options().max_tile;
  }

  std::vector<const comm::DistField*> bs(nm);
  std::vector<comm::DistField*> xs(nm);
  std::vector<solver::SolveStats> stats(nm);
  const double tol2 = kTolerance * kTolerance;

  // --- stepping --------------------------------------------------------------
  for (long s = 0; s < ep.steps; ++s) {
    const int sp_step = spans.open("step", s, -1);
    const double ta = now_s();
    const double ca = thread_cpu_s();
    int sp = spans.open("model.step_begin", s, sp_step);
    for (auto& m : models) m->step_begin(comm);
    spans.close(sp);
    for (int m = 0; m < nm; ++m) {
      bs[m] = &models[m]->barotropic().rhs();
      xs[m] = &models[m]->barotropic().eta();
    }

    perfbench::CallCounts obs0;
    comm::CostCounters outer0, inner0;
    int epoch0 = 0;
    if (tracing) {
      obs0 = tracing->counts();
      outer0 = comm.costs().counters();
      inner0 = backend.costs().counters();
      if (comm.size() == 1) epoch0 = comm.next_tag_epoch();
    }
    sp = spans.open(nm == 1 ? "solver.solve" : "solver.solve_batch", s,
                    sp_step);
    int iterations = 0;
    if (nm == 1) {
      stats[0] = solver0.solve(comm, *bs[0], *xs[0],
                               comm::HaloFreshness::kFresh);
      iterations = stats[0].iterations;
    } else {
      // step_begin leaves each member's eta halo fresh, and the batch
      // loads full padded planes, so the attestation carries over.
      const solver::BatchSolveStats bst =
          solver0.solve_batch(comm, bs, xs, comm::HaloFreshness::kFresh);
      iterations = bst.iterations;
      for (int m = 0; m < nm; ++m) {
        const solver::BatchMemberStats& ms = bst.members[m];
        stats[m] = solver::SolveStats{};
        stats[m].iterations = ms.iterations;
        stats[m].converged = ms.converged;
        stats[m].relative_residual = ms.relative_residual;
        stats[m].failure = ms.failure;
        stats[m].refine_sweeps = bst.refine_sweeps;
      }
    }
    spans.close(sp);
    const double tc = now_s();
    const double cc = thread_cpu_s();
    if (tracing) {
      SolveAttrs a = solve_counts(comm, backend, *tracing, outer0, inner0,
                                  obs0, epoch0, iterations, log);
      spans.at(sp).has_solve = true;
      spans.at(sp).solve = a;
      log.solve_attrs.push_back(a);
    }
    log.iterations += iterations;

    // --- correctness gate and microcalls (not part of the step time) -------
    const int sp_check = spans.open("bench.check", s, sp_step);
    for (int m = 0; m < nm; ++m) {
      const solver::DistOperator& op =
          models[m]->barotropic().solver().op();
      xcopy[m] = *xs[m];
      op.residual(comm, *halos[m], *bs[m], xcopy[m], resid[m]);
      double sums[2] = {op.local_dot(comm, resid[m], resid[m]),
                        op.local_dot(comm, *bs[m], *bs[m])};
      comm.allreduce(std::span<double>(sums, 2), comm::ReduceOp::kSum);
      const double rel = sums[1] > 0 ? std::sqrt(sums[0] / sums[1]) : 0.0;
      log.max_rel_residual = std::max(log.max_rel_residual, rel);
      ++log.solves;
      if (!stats[m].converged || !(sums[0] <= tol2 * sums[1])) {
        ++log.failed_solves;
        std::ostringstream os;
        os << "step " << s << " member " << m << ": converged="
           << stats[m].converged << ", true relative residual " << rel;
        note_error(log, os.str());
      }
    }
    if (ep.traced && s % kMicroEvery == 0) {
      solver::Preconditioner& prec = solver0.preconditioner();
      const solver::DistOperator& op = solver0.op();
      const char* prec_name = evp ? "micro.evp_apply" : "micro.precond_apply";
      if (nm > 1) {
        for (int m = 0; m < nm; ++m) {
          xb->load_member(m, xcopy[m]);  // halo fresh from the gate
          rb->load_member(m, resid[m]);
        }
      }
      for (int k = 0; k < kMicroReps; ++k) {
        sp = spans.open("micro.matvec", s, sp_check);
        if (nm == 1)
          op.apply(comm, *halos[0], xcopy[0], y0, comm::HaloFreshness::kFresh);
        else
          op.apply_batch(comm, *halos[0], *xb, *yb,
                         comm::HaloFreshness::kFresh);
        spans.close(sp);
      }
      for (int k = 0; k < kMicroReps; ++k) {
        sp = spans.open(prec_name, s, sp_check);
        if (nm == 1)
          prec.apply(comm, resid[0], y0);
        else
          prec.apply_batch(comm, *rb, *zb);
        spans.close(sp);
      }
      for (int k = 0; k < kMicroReps; ++k) {
        sp = spans.open("micro.halo", s, sp_check);
        if (nm == 1)
          halos[0]->exchange(comm, xcopy[0]);
        else
          halos[0]->exchange(comm, *xb);
        spans.close(sp);
      }
      for (int k = 0; k < kMicroReps; ++k) {
        sp = spans.open("micro.allreduce", s, sp_check);
        comm.allreduce_sum(1.0);
        spans.close(sp);
      }
    }
    spans.close(sp_check);

    const double td = now_s();
    const double cd = thread_cpu_s();
    sp = spans.open("model.step_finish", s, sp_step);
    for (int m = 0; m < nm; ++m) models[m]->step_finish(comm, stats[m]);
    spans.close(sp);
    const double te = now_s();
    const double ce = thread_cpu_s();
    spans.close(sp_step);
    log.step_s.push_back((tc - ta) + (te - td));
    log.cpu_s += (cc - ca) + (ce - cd);
  }

  log.final_state = final_state(comm, models);
  log.spans = spans.take();
}

// ---------------------------------------------------------------------------
// Episodes

/// One call of the host-speed probe (HostProbe, below).
struct HostProbeTime {
  double wall_s = 0, cpu_s = 0;
};

struct EpisodeResult {
  bool traced = false;
  HostProbeTime probe_before, probe_after;  ///< host-speed probe
  double setup_s = 0;
  std::vector<double> step_s;  ///< slowest rank, per step
  double cpu_s = 0;
  long solves = 0;
  long failed_solves = 0;
  long iterations = 0;
  double max_rel_residual = 0;
  long crosscheck_failures = 0;
  std::vector<std::string> errors;
  std::vector<double> final_state;
  std::vector<RankLog> ranks;
};

EpisodeResult run_episode(const EpisodeSpec& spec) {
  std::vector<RankLog> logs(spec.w.ranks);
  const double t0 = now_s();
  if (spec.w.ranks == 1) {
    comm::SerialComm c;
    run_rank(c, spec, logs[0]);
  } else {
    comm::ThreadTeam team(spec.w.ranks);
    team.run([&](comm::Communicator& c) { run_rank(c, spec, logs[c.rank()]); });
  }

  EpisodeResult r;
  r.traced = spec.traced;
  r.step_s.assign(spec.steps, 0.0);
  for (const RankLog& l : logs) {
    r.setup_s = std::max(r.setup_s, l.setup_end - t0);
    for (long s = 0; s < spec.steps; ++s)
      r.step_s[s] = std::max(r.step_s[s], l.step_s[s]);
    r.cpu_s += l.cpu_s;
    r.max_rel_residual = std::max(r.max_rel_residual, l.max_rel_residual);
    r.crosscheck_failures += l.crosscheck_failures;
    if (!l.first_error.empty()) r.errors.push_back(l.first_error);
  }
  // Solves and their outcomes are collective: rank 0 speaks for all.
  r.solves = logs[0].solves;
  r.failed_solves = logs[0].failed_solves;
  r.iterations = logs[0].iterations;
  r.final_state = logs[0].final_state;

  if (spec.traced) {
    // Team-level receive check: every message sent during a solve is
    // also received during it.
    for (std::size_t i = 0; i < logs[0].solve_attrs.size(); ++i) {
      double sent = 0, received = 0;
      for (const RankLog& l : logs) {
        sent += l.solve_attrs[i].msgs;
        received += l.solve_attrs[i].obs_irecv;
      }
      if (sent != received) {
        ++r.crosscheck_failures;
        r.errors.push_back("solve " + std::to_string(i) + ": " +
                           std::to_string(received) + " irecv calls vs " +
                           std::to_string(sent) + " messages sent");
      }
    }
  }
  r.ranks = std::move(logs);
  return r;
}

/// Final state of the workload's physics under PCG + diagonal on one
/// rank with scalar solves: an independent path to the same answer.
std::vector<double> reference_state(const Workload& w, std::uint64_t seed,
                                    long steps) {
  model::ModelConfig cfg = make_config(w);
  cfg.nranks = 1;
  cfg.solver.solver = solver::SolverKind::kPcg;
  cfg.solver.preconditioner = solver::PreconditionerKind::kDiagonal;
  comm::SerialComm comm;
  std::vector<std::unique_ptr<model::OceanModel>> models;
  for (int m = 0; m < w.members; ++m) {
    models.push_back(std::make_unique<model::OceanModel>(comm, cfg));
    models.back()->perturb_temperature(kPerturbation, member_seed(seed, m));
    for (long s = 0; s < steps; ++s) {
      const solver::SolveStats st = models.back()->step(comm);
      if (!st.converged)
        throw std::runtime_error("reference solve did not converge");
    }
  }
  return final_state(comm, models);
}

// ---------------------------------------------------------------------------
// Host-speed probe

/// A fixed reference kernel of the benchmark's own, not the library's: a
/// 9-point stencil sweep over two arrays of about the workload's working
/// set, kProbePoints point updates per call (a few milliseconds). It runs
/// on the rank-0 CPU before and after every episode and measures how fast
/// the host runs the episode's kind of work at that moment; run.py
/// divides each episode's times by it (see README.md, "Host-speed
/// normalization").
class HostProbe {
 public:
  static constexpr int kNx = 256;
  static constexpr long kProbePoints = 4'000'000;

  explicit HostProbe(double bytes)
      : ny_(std::max(8, static_cast<int>(bytes / (2.0 * sizeof(double) * kNx)))),
        a_(static_cast<std::size_t>(kNx) * ny_, 1.0),
        b_(a_.size(), 0.0) {}

  using Time = HostProbeTime;

  Time run() {
    const long interior = static_cast<long>(kNx - 2) * (ny_ - 2);
    const long sweeps = std::max(1L, kProbePoints / interior);
    const double t0 = now_s();
    const double c0 = thread_cpu_s();
    for (long rep = 0; rep < sweeps; ++rep) {
      const double* a = a_.data();
      double* b = b_.data();
      for (int j = 1; j < ny_ - 1; ++j) {
        for (int i = 1; i < kNx - 1; ++i) {
          const int k = j * kNx + i;
          b[k] = 0.5 * a[k] +
                 0.0625 * (a[k - 1] + a[k + 1] + a[k - kNx] + a[k + kNx]) +
                 0.0625 * (a[k - kNx - 1] + a[k - kNx + 1] + a[k + kNx - 1] +
                           a[k + kNx + 1]);
        }
      }
      a_.swap(b_);
    }
    Time t{now_s() - t0, thread_cpu_s() - c0};
    sink_ += a_[kNx + 1];  // keeps the sweeps observable
    return t;
  }

  double bytes() const { return 2.0 * sizeof(double) * a_.size(); }
  double sink() const { return sink_; }

 private:
  int ny_;
  std::vector<double> a_, b_;
  double sink_ = 0;
};

// ---------------------------------------------------------------------------
// Output

/// JSON array; a diverged model's non-finite values are written as the
/// NaN/Infinity tokens Python's json module reads, so the run still
/// reports its failure.
void put_array(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? "," : "");
    if (std::isnan(v[i]))
      os << "NaN";
    else if (std::isinf(v[i]))
      os << (v[i] > 0 ? "Infinity" : "-Infinity");
    else
      os << v[i];
  }
  os << ']';
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void write_spans(const std::string& path, const std::vector<EpisodeResult>& eps) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << std::setprecision(17);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    for (const RankLog& l : eps[e].ranks) {
      for (const Span& s : l.spans) {
        os << "{\"ep\":" << e << ",\"rank\":" << s.rank << ",\"name\":"
           << quoted(s.name) << ",\"step\":" << s.step << ",\"t0\":" << s.t0
           << ",\"t1\":" << s.t1 << ",\"parent\":" << s.parent;
        if (s.has_solve) {
          const SolveAttrs& a = s.solve;
          os << ",\"iters\":" << a.iterations << ",\"flops\":" << a.flops
             << ",\"active\":" << a.active << ",\"swept\":" << a.swept
             << ",\"halo\":" << a.halo << ",\"msgs\":" << a.msgs
             << ",\"bytes\":" << a.bytes << ",\"allreduces\":" << a.allreduces
             << ",\"obs_halo\":" << a.obs_halo << ",\"obs_isend\":"
             << a.obs_isend << ",\"obs_irecv\":" << a.obs_irecv
             << ",\"obs_allreduces\":" << a.obs_allreduces
             << ",\"wait_s\":" << a.wait_s;
        }
        os << "}\n";
      }
    }
  }
  if (!os) throw std::runtime_error("write failed: " + path);
}

/// High-water RSS of this process image in KiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is not used because it keeps
/// the peak of the image before exec, so under run.py it reported the
/// Python parent's RSS.
long peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10;
  bool trace = false;
  bool reference = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--trace-out") a.trace_out = value();
    else if (k == "--reference") a.reference = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload w = workload_by_name(args.workload);
  EpisodeSpec spec;
  spec.w = w;
  spec.seed = args.seed;
  spec.cfg = make_config(w);
  const grid::CurvilinearGrid g(spec.cfg.grid);
  const double dt = model::recommended_barotropic_dt(g);
  spec.steps = std::lround(w.days * model::kSecondsPerDay / dt);

  std::cout << std::setprecision(17);
  if (args.reference) {
    std::cout << "{\"workload\":" << quoted(w.name) << ",\"seed\":"
              << args.seed << ",\"steps_per_episode\":" << spec.steps
              << ",\"final_state\":";
    put_array(std::cout, reference_state(w, args.seed, spec.steps));
    std::cout << "}\n";
    return 0;
  }

  // Read before the episodes bind this thread to one CPU.
  const int nproc = usable_cpus();
  // The probe runs where rank 0 runs (on one rank, this thread).
  bind_rank_thread(0);
  HostProbe probe(w.probe_bytes);
  // Warm-up: one untimed episode and probe, discarded.
  spec.traced = false;
  run_episode(spec);
  probe.run();
  std::vector<EpisodeResult> eps;
  const double start = now_s();
  for (int e = 0;; ++e) {
    spec.traced = args.trace && e % 2 == 1;
    const HostProbe::Time before = probe.run();
    EpisodeResult r = run_episode(spec);
    const HostProbe::Time after = probe.run();
    r.probe_before = before;
    r.probe_after = after;
    eps.push_back(std::move(r));
    const bool budget_spent = now_s() - start >= args.seconds;
    if (budget_spent && (!args.trace || e >= 1)) break;
  }
  if (args.trace && !args.trace_out.empty()) write_spans(args.trace_out, eps);

  const RankLog& r0 = eps.front().ranks.front();
  // Computed working set (not measured): bytes of one padded field on
  // rank 0 times the fields a member keeps live on the step path, plus
  // the EVP tiles' LU factors and marching coefficients.
  //   geometry 11, barotropic mode 8, tracer 2*nz+1, stencil 9,
  //   P-CSI work vectors 3, diagonal preconditioner 1.
  const int fields_per_member = 11 + 8 + (2 * spec.cfg.nz + 1) + 9 + 3 + 1;
  const double k = 2.0 * r0.evp_tile_side - 1.0;
  const double evp_bytes =
      r0.evp_tiles * (k * k + 9.0 * r0.evp_tile_side * r0.evp_tile_side) *
      sizeof(double);
  const double ws = r0.field_bytes * fields_per_member * w.members + evp_bytes;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);

  std::ostream& os = std::cout;
  os << "{\"workload\":" << quoted(w.name) << ",\"seed\":" << args.seed
     << ",\"ranks\":" << w.ranks << ",\"members\":" << w.members
     << ",\"days_per_episode\":" << w.days << ",\"dt_s\":" << dt
     << ",\"steps_per_episode\":" << spec.steps << ",\"tolerance\":"
     << kTolerance << ",\"peak_rss_kb\":" << peak_rss_kib()
     << ",\"host\":{\"nproc\":" << nproc << ",\"l2_bytes\":" << l2
     << ",\"l3_bytes\":" << l3 << ",\"build_type\":"
     << quoted(PERFBENCH_BUILD_TYPE) << "},\"probe\":{\"bytes\":"
     << probe.bytes() << ",\"points\":" << HostProbe::kProbePoints
     << ",\"checksum\":" << probe.sink() << "},\"working_set\":{"
     << "\"field_bytes_rank0\":" << r0.field_bytes
     << ",\"fields_per_member\":" << fields_per_member
     << ",\"evp_tiles_rank0\":" << r0.evp_tiles << ",\"evp_bytes_rank0\":"
     << evp_bytes << ",\"total_bytes_rank0\":" << ws << "},\"episodes\":[";
  for (std::size_t e = 0; e < eps.size(); ++e) {
    const EpisodeResult& r = eps[e];
    os << (e ? "," : "") << "{\"traced\":" << (r.traced ? "true" : "false")
       << ",\"probe_s\":[" << r.probe_before.wall_s << ','
       << r.probe_after.wall_s << "],\"probe_cpu_s\":["
       << r.probe_before.cpu_s << ',' << r.probe_after.cpu_s << ']'
       << ",\"setup_s\":" << r.setup_s << ",\"cpu_s\":" << r.cpu_s
       << ",\"solves\":" << r.solves
       << ",\"failed_solves\":" << r.failed_solves << ",\"iterations\":"
       << r.iterations << ",\"max_rel_residual\":" << r.max_rel_residual
       << ",\"crosscheck_failures\":" << r.crosscheck_failures
       << ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
      os << (i ? "," : "") << quoted(r.errors[i]);
    os << "],\"final_state\":";
    put_array(os, r.final_state);
    os << ",\"step_s\":";
    put_array(os, r.step_s);
    os << '}';
  }
  os << "]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_bin: " << e.what() << "\n";
    return 2;
  }
}
