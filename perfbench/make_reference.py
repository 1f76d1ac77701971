#!/usr/bin/env python3
"""Record the final-state reference the benchmark checks against.

    python3 perfbench/make_reference.py 2015 7 1 2 3

For every workload and each seed given, runs one episode of the workload
itself, requires every solve to pass its gate, and stores the final mean
temperature, mean SSH and kinetic energy (member means) in
perfbench/reference.json, keyed by seed. Seeds already stored are kept
unless given again. Re-record only when a change is meant to alter the
model's answer, and say so in the change.
"""
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [run.DEFAULT_SEED]
    deadline = run.time.monotonic() + 3600
    binary = run.build(deadline)
    path = os.path.join(run.HERE, "reference.json")
    ref = {}
    if os.path.isfile(path):
        with open(path) as f:
            ref = json.load(f)
    for w in run.WORKLOADS + run.MANUAL_WORKLOADS:
        for seed in seeds:
            raw = run.run_binary(binary, ["--workload", w, "--seed", str(seed),
                                          "--seconds", "0.001"], deadline)
            ep = raw["episodes"][0]
            if ep["failed_solves"] or ep["errors"]:
                run.fail("%s seed %d: %s" % (w, seed, ep["errors"][:1]))
            entry = ref.setdefault(w, {})
            if entry.get("steps_per_episode") != raw["steps_per_episode"]:
                entry.clear()
                entry["steps_per_episode"] = raw["steps_per_episode"]
            entry.setdefault("seeds", {})[str(seed)] = ep["final_state"]
            print("%s seed %d: %s" % (w, seed, ep["final_state"]))
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
