#!/usr/bin/env python3
"""End-to-end benchmark of miniPOP-PCSI: simulation rate, step time and a
per-layer trace on three POP workloads.

    python3 perfbench/run.py --workload pop_evp_1r --seed 2015 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds a
Release copy of the library plus the benchmark binary (perfbench/bench.cpp)
under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics from a traced run (spans are written next to the
build). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
elliptic solves. The exit code is non-zero if any correctness check
fails. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workloads BENCHMARK.json registers, and those run only by hand.
# pop_diag_2r (P-CSI + diagonal on 2 ThreadComm ranks) is the only one
# that exercises ThreadComm, but its run-to-run spread on a shared host is
# far wider than any bound (see README.md); run it for the comm layer's
# per-layer numbers.
WORKLOADS = ("pop_evp_1r", "ens_diag_b8")
MANUAL_WORKLOADS = ("pop_diag_2r",)
DEFAULT_SEED = 2015
DAYS_PER_YEAR = 360.0  # the model's calendar (src/model/forcing.hpp)
SECONDS_PER_DAY = 86400.0
TIME_LIMIT_S = 175.0

# Final-state check: mean temperature and kinetic energy within a relative
# tolerance, mean SSH (conserved, ~1e-15 m) within an absolute one. Runs of
# one seed on 1 and 4 ranks, and the PCG cross-solver reference, agree to
# ~1e-14 relative and ~4e-15 m.
RTOL = 1e-10
SSH_ATOL_M = 1e-12

# Host-speed normalization (README.md, "Host-speed normalization"): the
# shared host's speed swings by up to 1.6x for seconds to minutes at a
# time, so every end-to-end time of an episode is scaled by PROBE_REF_S /
# (the time of the host-speed probe run around that episode). PROBE_REF_S
# is the probe's median time over several hundred episodes on the
# calibration host (a shared 4-vCPU Xeon VM), per workload because the
# probe's arrays are sized to each working set; the scaled times are those
# of that host at its median speed.
PROBE_REF_S = {
    "pop_evp_1r": 5.7e-3,
    "ens_diag_b8": 6.9e-3,
    "pop_diag_2r": 6.4e-3,
}

END_TO_END = [
    ("sypd", "yr/day"),
    ("cpu_hours_per_sim_year", "h/yr"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("setup.model_s", "s"),
    ("setup.solver_s", "s"),
    ("model.rhs_ms", "ms"),
    ("model.finish_ms", "ms"),
    ("solver.solve_ms_p50", "ms"),
    ("solver.solve_ms_p90", "ms"),
    ("solver.share", "ratio"),
    ("solver.iters_per_solve", "count"),
    ("solver.matvec_us", "us"),
    ("solver.precond_apply_us", "us"),
    ("solver.flops_per_solve", "flop"),
    ("solver.active_frac", "ratio"),
    ("evp.apply_us", "us"),
    ("evp.share_est", "ratio"),
    ("comm.halo_rounds_per_solve", "count"),
    ("comm.messages_per_solve", "count"),
    ("comm.bytes_per_solve", "B"),
    ("comm.allreduces_per_solve", "count"),
    ("comm.halo_round_us", "us"),
    ("comm.allreduce_us", "us"),
    ("comm.wait_ms_per_solve_max", "ms"),
    ("comm.wait_ms_per_solve_mean", "ms"),
    ("comm.wait_share", "ratio"),
    ("comm.rank_skew", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_proc(cmd, deadline, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under cmake included) and wait for it before failing."""
    p = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("timed out: " + " ".join(cmd))
    return p.returncode, out


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        code, _ = run_proc(cmd, deadline, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_bin")


def run_binary(binary, args, deadline):
    code, out = run_proc([binary] + args, deadline, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    if code != 0:
        fail("perfbench_bin exited with %d" % code)
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Correctness

def load_reference(raw):
    """Stored final state for the run's workload and seed, or None."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    entry = ref.get(raw["workload"], {})
    if entry.get("steps_per_episode") != raw["steps_per_episode"]:
        return None
    return entry.get("seeds", {}).get(str(raw["seed"]))


def state_misses(state, ref):
    """Names of the final-state quantities that miss the reference."""
    names = ("mean_T", "mean_SSH", "KE")
    if len(state) != len(ref):
        return list(names)
    misses = []
    for name, a, b in zip(names, state, ref):
        if name == "mean_SSH":
            ok = abs(a - b) <= SSH_ATOL_M
        else:
            ok = abs(a - b) <= RTOL * abs(b)
        if not ok:
            misses.append(name)
    return misses


# ---------------------------------------------------------------------------
# Metrics

def sim_years(raw):
    """Simulated member-years of one episode."""
    return (raw["steps_per_episode"] * raw["dt_s"] * raw["members"]
            / (DAYS_PER_YEAR * SECONDS_PER_DAY))


def speed(raw, ep, cpu=False):
    """Factor that scales an episode's wall (or CPU) times to the
    calibration host's median speed."""
    before, after = ep["probe_cpu_s"] if cpu else ep["probe_s"]
    return PROBE_REF_S[raw["workload"]] / (0.5 * (before + after))


def median_sypd(raw, eps, normalized=True):
    """Median over episodes of simulated member-years per wall-clock day,
    at the calibration host's speed unless normalized is False."""
    return statistics.median(
        sim_years(raw) * SECONDS_PER_DAY
        / (sum(ep["step_s"]) * (speed(raw, ep) if normalized else 1.0))
        for ep in eps)


def end_to_end(raw, eps):
    steps = [s * speed(raw, ep) for ep in eps for s in ep["step_s"]]
    return {
        "sypd": (median_sypd(raw, eps), len(eps)),
        "cpu_hours_per_sim_year": (statistics.median(
            ep["cpu_s"] * speed(raw, ep, cpu=True) / 3600.0 / sim_years(raw)
            for ep in eps), len(eps)),
        "step_ms_p50": (1e3 * percentile(steps, 50), len(steps)),
        "step_ms_p90": (1e3 * percentile(steps, 90), len(steps)),
        "setup_s": (statistics.median(ep["setup_s"] * speed(raw, ep)
                                      for ep in eps), len(eps)),
        # The probe's arrays are the benchmark's, not the workload's.
        "peak_rss_mb": ((1024.0 * raw["peak_rss_kb"] - raw["probe"]["bytes"])
                        / 2.0**20, 1),
    }


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    return spans


def per_layer(raw, spans, untraced, traced):
    """Per-layer metrics from the traced episodes' spans, with their
    sample counts. A collective call's time is taken on the slowest rank:
    the k-th span of a name within one step is matched across ranks."""
    members = raw["members"]
    dur = {}   # (name, episode, step, k) -> max over ranks
    seen = {}
    for s in spans:
        key = (s["name"], s["ep"], s["step"], s["rank"])
        k = seen.get(key, 0)
        seen[key] = k + 1
        dkey = (s["name"], s["ep"], s["step"], k)
        dur[dkey] = max(dur.get(dkey, 0.0), s["t1"] - s["t0"])

    def series(name):
        return [v for (n, *_), v in sorted(dur.items()) if n == name]

    def setup_per_episode(name):
        totals = {}
        for s in spans:
            if s["name"] == name:
                key = (s["ep"], s["rank"])
                totals[key] = totals.get(key, 0.0) + s["t1"] - s["t0"]
        worst = {}
        for (ep, _), v in totals.items():
            worst[ep] = max(worst.get(ep, 0.0), v)
        return list(worst.values())

    solve_name = "solver.solve" if members == 1 else "solver.solve_batch"
    # Self time of a step: its span minus the correctness gate and the
    # microcalls (the "bench.check" child), which the step metric excludes.
    steps = [k for k in sorted(dur) if k[0] == "step"]
    step_time = [dur[k] - dur.get(("bench.check",) + k[1:], 0.0)
                 for k in steps]
    begin = series("model.step_begin")
    finish = series("model.step_finish")
    solve = series(solve_name)
    solves = [s for s in spans if s["name"] == solve_name]
    by_solve = {}
    for s in solves:
        by_solve.setdefault((s["ep"], s["step"]), []).append(s)
    groups = list(by_solve.values())
    iters = mean([g[0]["iters"] for g in groups])
    solve_mean_s = mean(solve)
    evp_apply = series("micro.evp_apply")
    prec_apply = evp_apply or series("micro.precond_apply")
    evp_us = 1e6 * statistics.median(evp_apply) if evp_apply else 0.0
    # P-CSI applies the preconditioner once before its loop and once per
    # iteration.
    evp_share = (evp_us * 1e-6 * (iters + 1) / solve_mean_s
                 if evp_apply else 0.0)

    # A solve's self (busy) time is its span minus the time it spent
    # blocked completing communication requests.
    wait = [[s["wait_s"] for s in g] for g in groups]
    busy = {}
    solve_r = {}
    wait_r = {}
    for s in solves:
        d = s["t1"] - s["t0"]
        busy[s["rank"]] = busy.get(s["rank"], 0.0) + d - s["wait_s"]
        solve_r[s["rank"]] = solve_r.get(s["rank"], 0.0) + d
        wait_r[s["rank"]] = wait_r.get(s["rank"], 0.0) + s["wait_s"]
    wait_share = mean([wait_r[r] / solve_r[r] for r in solve_r])
    skew = max(busy.values()) / mean(list(busy.values()))

    sypd_u = median_sypd(raw, untraced)
    sypd_t = median_sypd(raw, traced)
    out = {
        "setup.model_s": statistics.median(
            setup_per_episode("setup.model")),
        "setup.solver_s": statistics.median(
            setup_per_episode("setup.solver")),
        "model.rhs_ms": 1e3 * mean(begin) / members,
        "model.finish_ms": 1e3 * mean(finish) / members,
        "solver.solve_ms_p50": 1e3 * percentile(solve, 50),
        "solver.solve_ms_p90": 1e3 * percentile(solve, 90),
        "solver.share": sum(solve) / sum(step_time),
        "solver.iters_per_solve": iters,
        "solver.matvec_us": 1e6 * statistics.median(series("micro.matvec")),
        "solver.precond_apply_us": 1e6 * statistics.median(prec_apply),
        "solver.flops_per_solve": mean([sum(s["flops"] for s in g)
                                        for g in groups]),
        "solver.active_frac": (sum(s["active"] for s in solves)
                               / sum(s["swept"] for s in solves)),
        "evp.apply_us": evp_us,
        "evp.share_est": evp_share,
        "comm.halo_rounds_per_solve": mean([g[0]["halo"] for g in groups]),
        "comm.messages_per_solve": mean([sum(s["msgs"] for s in g)
                                         for g in groups]),
        "comm.bytes_per_solve": mean([sum(s["bytes"] for s in g)
                                      for g in groups]),
        "comm.allreduces_per_solve": mean([g[0]["allreduces"]
                                           for g in groups]),
        "comm.halo_round_us": 1e6 * statistics.median(series("micro.halo")),
        "comm.allreduce_us": 1e6 * statistics.median(
            series("micro.allreduce")),
        "comm.wait_ms_per_solve_max": 1e3 * mean([max(w) for w in wait]),
        "comm.wait_ms_per_solve_mean": 1e3 * mean([mean(w) for w in wait]),
        "comm.wait_share": wait_share,
        "comm.rank_skew": skew,
        "trace.overhead_frac": 1.0 - sypd_t / sypd_u,
    }
    counts = {
        "setup.model_s": len(setup_per_episode("setup.model")),
        "setup.solver_s": len(setup_per_episode("setup.solver")),
        "model.rhs_ms": len(begin), "model.finish_ms": len(finish),
        "solver.solve_ms_p50": len(solve), "solver.solve_ms_p90": len(solve),
        "solver.matvec_us": len(series("micro.matvec")),
        "solver.precond_apply_us": len(prec_apply),
        "evp.apply_us": len(evp_apply),
        "comm.halo_round_us": len(series("micro.halo")),
        "comm.allreduce_us": len(series("micro.allreduce")),
        "trace.overhead_frac": len(traced),
    }
    return out, {k: counts.get(k, len(groups)) for k in out}


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + MANUAL_WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    deadline = time.monotonic() + TIME_LIMIT_S

    binary = build(deadline)
    # A first build may take long; the measurement budget is only cut if
    # the build left too little time for it.
    deadline = max(deadline, time.monotonic() + 3 * args.seconds + 30)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        spans_path = os.path.join(build_dir(), "trace-%s-%d.jsonl"
                                  % (args.workload, args.seed))
        bench_args += ["--trace-out", spans_path]
    raw = run_binary(binary, bench_args, deadline)

    episodes = raw["episodes"]
    untraced = [ep for ep in episodes if not ep["traced"]]
    traced = [ep for ep in episodes if ep["traced"]]
    attempted = sum(ep["solves"] for ep in episodes)
    failed = sum(ep["failed_solves"] for ep in episodes)
    errors = [e for ep in episodes for e in ep["errors"]]
    crosscheck = sum(ep["crosscheck_failures"] for ep in episodes)

    ref = load_reference(raw)
    ref_kind = "stored"
    if ref is None:
        ref_kind = "cross-solver (PCG + diagonal, 1 rank)"
        ref = run_binary(binary, ["--workload", args.workload, "--seed",
                                  str(args.seed), "--reference"],
                         deadline)["final_state"]
    state_failures = 0
    for i, ep in enumerate(episodes):
        misses = state_misses(ep["final_state"], ref)
        if misses:
            # The whole trajectory is wrong: count all its solves.
            state_failures += 1
            failed += ep["solves"] - ep["failed_solves"]
            errors.append("episode %d misses the %s reference in %s: %s vs %s"
                          % (i, ref_kind, misses, ep["final_state"], ref))
    correct = failed == 0 and crosscheck == 0 and not errors

    # Human-readable report.
    host = raw["host"]
    ws = raw["working_set"]
    print("perfbench %s seed=%d ranks=%d members=%d: %d episodes of %d steps "
          "(%.0f s model step, %g days), %d traced"
          % (args.workload, args.seed, raw["ranks"], raw["members"],
             len(episodes), raw["steps_per_episode"], raw["dt_s"],
             raw["days_per_episode"], len(traced)))
    print("host: nproc=%d L2=%d B L3=%d B build=%s"
          % (host["nproc"], host["l2_bytes"], host["l3_bytes"],
             host["build_type"]))
    resident = ws["total_bytes_rank0"] < max(host["l2_bytes"],
                                             host["l3_bytes"])
    print("working set (computed, rank 0): %d B/field x %d fields x %d "
          "members + %d B EVP tiles (%d tiles) = %d B; %s, so no DRAM "
          "bandwidth or roofline ratio is reported"
          % (ws["field_bytes_rank0"], ws["fields_per_member"], raw["members"],
             ws["evp_bytes_rank0"], ws["evp_tiles_rank0"],
             ws["total_bytes_rank0"],
             "cache-resident" if resident else "NOT cache-resident"))
    factors = [speed(raw, ep) for ep in untraced or episodes]
    print("host-speed probe (%d B, %d points): median %.3f ms, reference "
          "%.3f ms; times scaled by %.3f (median, range %.3f-%.3f); "
          "unscaled sypd %.6g"
          % (raw["probe"]["bytes"], raw["probe"]["points"],
             1e3 * statistics.median(p for ep in episodes
                                     for p in ep["probe_s"]),
             1e3 * PROBE_REF_S[args.workload], statistics.median(factors),
             min(factors), max(factors),
             median_sypd(raw, untraced or episodes, normalized=False)))
    print("correctness: %d/%d solves failed (solve_fail_frac=%.3g), %.1f "
          "iterations per solve, max true relative residual %.3g (tolerance "
          "%g), final state vs %s reference: %d episode(s) missed, count "
          "cross-check failures: %d"
          % (failed, attempted, failed / attempted,
             sum(ep["iterations"] for ep in episodes)
             / sum(len(ep["step_s"]) for ep in episodes),
             max(ep["max_rel_residual"] for ep in episodes), raw["tolerance"],
             ref_kind, state_failures, crosscheck))
    for e in errors[:10]:
        print("  error: " + e)

    if args.trace:
        values, counts = per_layer(raw, load_spans(spans_path), untraced,
                                   traced)
        table = PER_LAYER
        print("spans: " + spans_path)
    else:
        pairs = end_to_end(raw, untraced)
        values = {k: v for k, (v, _) in pairs.items()}
        counts = {k: n for k, (_, n) in pairs.items()}
        table = END_TO_END
    for name, unit in table:
        print("  %-28s %16.6g %-7s n=%d" % (name, values[name], unit,
                                             counts[name]))
    if not args.trace:
        print("  %-28s %16.6g %-7s n=%d" % ("solve_fail_frac",
                                             failed / attempted, "ratio",
                                             attempted))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
