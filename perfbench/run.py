#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark from source with
dune (release profile, build tree under .bench_build/), runs the workload
in its own process and prints a human-readable report followed, as the
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
lists; with --trace 1 they are its per-layer metrics, from two processes
of S/2 seconds each: one untraced (for the overhead baseline and the GC
counters) and one traced (spans around every public call).  The full
report of every process is written to .bench_build/perfbench/.

Exits 0 on success, 1 when a correctness check fails (the JSON line is
still printed), and 2 without a result when the program cannot be built
or run -- for example in a directory that holds only the benchmark.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["serial-read", "durable-write", "engine-cross", "shard-loopback"]
BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def declared():
    """End-to-end and per-layer metric names from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return [m["name"] for m in b["end_to_end"]], [m["name"] for m in b["per_layer"]]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here: run from the root of a checkout")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    p = subprocess.run(
        cmd + ["build", "--root", ".", "--profile", "release",
               "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout)
        fail("build failed")


def fs_type(path):
    """Filesystem type of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def source_digest():
    """SHA-256 over the library sources: identifies the program measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".ml", ".mli", "dune")):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def run_workload(workload, seed, seconds, trace):
    """Run one workload process and return its report, with metric values
    (written as decimal strings, every digit kept) turned into floats."""
    report = os.path.join(OUT_DIR, "process-%s-trace%d.json" % (workload, trace))
    if os.path.exists(report):
        os.remove(report)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out", OUT_DIR,
           "--report", report]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if p.returncode not in (0, 1) or not os.path.isfile(report):
        sys.stderr.write(p.stdout + p.stderr)
        fail("%s exited with code %d" % (workload, p.returncode))
    with open(report) as f:
        r = json.load(f)
    for v in r["metrics"].values():
        v["value"] = float(v["value"])
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    end_to_end, per_layer = declared()
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.time()
    if a.trace == 0:
        reports = [run_workload(a.workload, a.seed, a.seconds, 0)]
        metrics = dict(reports[0]["metrics"])
        wanted = end_to_end
    else:
        plain = run_workload(a.workload, a.seed, a.seconds / 2, 0)
        traced = run_workload(a.workload, a.seed, a.seconds / 2, 1)
        reports = [plain, traced]
        metrics = dict(traced["metrics"])
        for k, v in plain["metrics"].items():
            if k.startswith("gc."):
                metrics[k] = v
        base = plain["metrics"]["commit_tps"]["value"]
        metrics["trace.overhead_frac"] = {
            "value": 1 - traced["metrics"]["commit_tps"]["value"] / base,
            "unit": "ratio"}
        wanted = per_layer

    env = dict(reports[-1]["env"])
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    domains = int(env.get("domains", "1"))
    env.update({
        "workload": a.workload, "seed": str(a.seed), "trace": str(a.trace),
        "cores": str(cores), "git_commit": git_commit(),
        "source_digest": source_digest(), "out_dir": OUT_DIR,
        "out_dir_fs": fs_type(OUT_DIR), "domains": str(domains),
        "oversubscribed": str(domains > cores).lower(),
    })
    checks = [c for r in reports for c in r["checks"]]
    correct = all(r["correct"] for r in reports)
    measured = [m for m in wanted
                if m in metrics and math.isfinite(metrics[m]["value"])]
    missing = [m for m in wanted if m not in measured]
    if missing:
        checks.append({"name": "every declared metric measured", "ok": False,
                       "detail": "missing: " + ", ".join(missing)})
        correct = False

    print("perfbench %s seed=%d trace=%d (%.1f s)" %
          (a.workload, a.seed, a.trace, time.time() - started))
    for k in sorted(env):
        print("  env   %-22s %s" % (k, env[k]))
    for c in checks:
        print("  check %-4s %s -- %s" % ("ok" if c["ok"] else "FAIL",
                                          c["name"], c["detail"]))
    for k in sorted(metrics):
        mark = "*" if k in wanted else " "
        print("  %s %-44s %16.6g %s" % (mark, k, metrics[k]["value"],
                                       metrics[k]["unit"]))

    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {m: metrics[m] for m in measured},
    }
    report_path = os.path.join(
        OUT_DIR, "report-%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace))
    with open(report_path, "w") as f:
        json.dump({"env": env, "checks": checks, "metrics": metrics,
                   "result": result}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
