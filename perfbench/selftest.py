#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that
  * the metric tables in run.py and BENCHMARK.json name the same metrics
    with the same units;
  * a short run of every workload (registered or manual), untraced and
    traced, exits 0, reports correct results, and prints exactly the
    BENCHMARK.json metrics of its mode, by name and unit, each with a
    finite value;
  * run.py exits non-zero without printing a result when the library
    sources are missing (a directory holding only BENCHMARK.json and the
    benchmark's own files).
Scratch files go under the build directory. Exits non-zero on a failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def spec_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: spec_units(bench["end_to_end"]), 1: spec_units(bench["per_layer"])}
    check(dict(run.END_TO_END) == want[0],
          "run.END_TO_END matches BENCHMARK.json end_to_end")
    check(dict(run.PER_LAYER) == want[1],
          "run.PER_LAYER matches BENCHMARK.json per_layer")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "run.WORKLOADS matches BENCHMARK.json workloads")

    for w in run.WORKLOADS + run.MANUAL_WORKLOADS:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", w, "--seed", "2015",
                                      "--seconds", "1", "--trace", str(trace)]
            r = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            label = "%s --trace %d" % (w, trace)
            check(r.returncode == 0, label + " exits 0")
            try:
                out = json.loads(r.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                check(False, label + " prints a JSON result line")
                continue
            check(sorted(out) == ["attempted", "correct", "failed", "metrics"],
                  label + " result has keys correct, attempted, failed, metrics")
            check(out["correct"] is True and out["failed"] == 0
                  and out["attempted"] >= 1, label + " is correct")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want[trace], label + " metric names and units match")
            check(all(sorted(v) == ["unit", "value"]
                      and isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in out["metrics"].values()),
                  label + " metric values are finite numbers")

    # Only BENCHMARK.json and the benchmark's own directories.
    iso = os.path.join(run.build_dir(), "selftest-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), iso)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(run.ROOT, p), os.path.join(iso, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(bench["command"] + ["--workload", run.WORKLOADS[0],
                                           "--seed", "1", "--seconds", "1",
                                           "--trace", "0"],
                       cwd=iso, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=180)
    check(r.returncode != 0 and '"metrics"' not in r.stdout,
          "without library sources: non-zero exit and no result")
    shutil.rmtree(iso, ignore_errors=True)

    print("%d failure(s)" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
