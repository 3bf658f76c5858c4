#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run a workload,
check its outputs, and print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                       # every workload, one after another
    python3 perfbench/run.py --attribution-check   # slowed-layer self-check

Run it from the root of a checkout. Workloads and metrics are declared in
BENCHMARK.json; perfbench/WORKLOADS.md explains each one and which layers it
exercises. Build products, results and span logs go to .bench_build/.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end_to_end metric (--trace 0) or every per_layer metric
(--trace 1; a layer the workload does not exercise reads 0). The exit code
is non-zero when the build fails, a metric is missing, or any correctness
check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tool_env():
    """Environment for the build and the runs: compiler temporaries stay
    inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure (once) and build the perfbench target; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    logfile = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=tool_env()).returncode != 0:
                out.flush()
                with open(logfile) as f:
                    log("perfbench: build failed:\n" + "".join(f.readlines()[-30:]))
                return False
    return True


def source_digest():
    """SHA-256 over the library sources and the benchmark, so a result names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; do not search the parents
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed, compiler):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": (status != "") if sha else None,
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_binary(workload, seed, seconds, trace, slow_ns=0):
    """Run one workload; returns (parsed result line, compiler string)."""
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--slow-ns", str(slow_ns), "--trace-out", traces]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              env=tool_env())
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return None, None
    compiler = None
    if lines[0].startswith("perfbench ") and "compiler=" in lines[0]:
        compiler = lines[0].split("compiler=", 1)[1]
    return json.loads(lines[-1]), compiler


def check_repeat(workload, seed, digest, fingerprint):
    """Deterministic workloads: a seed run earlier against the same sources
    must have produced the same fingerprint. Returns a failure or None."""
    if int(fingerprint, 16) == 0:
        return None  # real-time workload: nothing is deterministic
    store = os.path.join(BUILD_ROOT, "fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%s-%d" % (workload, digest, seed))
    if os.path.exists(path):
        with open(path) as f:
            before = f.read().strip()
        if before != fingerprint:
            return "fingerprint %s differs from an earlier run of this seed (%s)" % (
                fingerprint, before)
        return None
    with open(path, "w") as f:
        f.write(fingerprint + "\n")
    return None


def run_workload(spec, workload, seed, seconds, trace):
    """One workload run; returns the result dict (or None)."""
    raw, compiler = run_binary(workload, seed, seconds, trace)
    if raw is None:
        return None
    prov = provenance(seed, compiler)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    failures = list(raw["failures"])
    repeat = check_repeat(workload, seed, prov["source_sha256"], raw["fingerprint"])
    if repeat:
        failures.append(repeat)
    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            got = raw["layer"].get(m["name"])
            metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            got = raw["e2e"].get(m["name"])
            if got is None:
                log("perfbench: %s did not report %s" % (workload, m["name"]))
                return None
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for f in failures:
        print("CHECK FAILED: " + f)
    result = {"correct": raw["correct"] and not failures, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (workload, seed, trace)),
              "w") as f:
        json.dump({"workload": workload, "provenance": prov, "result": result,
                   "raw": raw, "failures": failures, "finished_at": time.time()},
                  f, indent=1, sort_keys=True)
    return result


def attribution_check(seconds):
    """Slowed-layer self-check: a fixed busy-wait in the bench's own Host
    shim (per datagram sent) and Disk wrapper (per fsync) must show up in
    that layer's metric (at least half of it, allowing for host noise), in
    no other per-operation layer time (none may grow by more than a quarter
    of its base and a tenth of the injected time), and as a drop of the
    matching end-to-end metric. The simulated results must not change."""
    cases = [
        ("udp_loopback", 5000, "transport.send_ns_per_dgram", "agreed_msgs_per_s"),
        ("sim_kv_durable", 20000, "storage.fsync_ns", "sim_ops_per_s"),
    ]
    ok = True
    for workload, slow_ns, target, e2e in cases:
        base, _ = run_binary(workload, 1, seconds, 1)
        slow, _ = run_binary(workload, 1, seconds, 1, slow_ns)
        if base is None or slow is None:
            return False
        print("\n%s, busy-wait %d ns per %s:" % (workload, slow_ns,
                                                 "datagram sent" if workload == "udp_loopback"
                                                 else "fsync"))
        print("  %-34s %14s %14s %9s" % ("metric", "base", "slowed", "change"))
        for name, b in sorted(base["layer"].items()):
            s = slow["layer"][name]["value"]
            b = b["value"]
            change = (s - b) / b if b else 0.0
            flag = ""
            if name == target:
                hit = s - b >= 0.5 * slow_ns
                flag = "  <- slowed layer" + ("" if hit else "  MISSING")
                ok = ok and hit
            elif b and name.endswith("_ns") and s - b > max(0.25 * b, 0.1 * slow_ns):
                flag = "  <- moved"
                ok = False
            print("  %-34s %14.2f %14.2f %+8.1f%%%s" % (name, b, s, 100 * change, flag))
        if int(base["fingerprint"], 16) != 0 and base["fingerprint"] != slow["fingerprint"]:
            print("  fingerprint changed: the slowed layer altered simulated results")
            ok = False
        b, s = base["e2e"][e2e]["value"], slow["e2e"][e2e]["value"]
        dropped = s < 0.95 * b
        ok = ok and dropped
        print("  %-34s %14.2f %14.2f %+8.1f%%%s" % (
            e2e + " (e2e)", b, s, 100 * (s - b) / b, "" if dropped else "  NOT DROPPED"))
    print("\nattribution check: %s" % ("pass" if ok else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--attribution-check", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log("perfbench: unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not build():
        return 1
    if args.attribution_check:
        return 0 if attribution_check(seconds) else 1

    if args.workload != "all":
        result = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print("== %s" % name)
        result = run_workload(spec, name, args.seed, seconds, args.trace)
        if result is None:
            return 1
        for metric, value in result["metrics"].items():
            print("  %-34s %16.4f %s" % (metric, value["value"], value["unit"]))
        print("  attempted %d, failed %d, correct %s" % (
            result["attempted"], result["failed"], result["correct"]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
