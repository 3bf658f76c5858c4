#!/usr/bin/env python3
"""Exact-counter gate: run each simulated perfbench workload at the committed
seed and fail unless its determinism fingerprint equals the committed value.

    python3 tools/check_fingerprints.py

Run it from anywhere; it runs perfbench/run.py from the root of this checkout
(which builds perfbench under .bench_build/ on first use). A fingerprint folds
every deterministic output of a workload (virtual-time results and counts),
so it moves only when what the simulator computes moves, never with host
speed. A change that moves one on purpose updates
bench/baselines/perfbench_fingerprints.json in the same commit and says why.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "perfbench_fingerprints.json")
RUN_SECONDS = "1"  # perfbench runs at least two reps whatever the budget


def main():
    with open(BASELINE) as f:
        baseline = json.load(f)
    seed = baseline["seed"]
    ok = True
    for workload, want in sorted(baseline["fingerprints"].items()):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", RUN_SECONDS],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("%s: perfbench failed (exit %d)\n%s" % (workload, proc.returncode,
                                                          proc.stderr[-2000:]))
            ok = False
            continue
        result = os.path.join(ROOT, ".bench_build", "results",
                              "%s-seed%d-trace0.json" % (workload, seed))
        with open(result) as f:
            got = json.load(f)["raw"]["fingerprint"]
        same = got == want
        ok = ok and same
        print("%-16s seed %d fingerprint %s %s" % (
            workload, seed, got, "ok" if same else "!= committed %s" % want))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
