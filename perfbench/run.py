#!/usr/bin/env python3
"""Builds and runs the swmond end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke      # every workload, both modes, small streams
    python3 perfbench/run.py --test       # the benchmark's own unit tests

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the swmon libraries from
../src) into $CARGO_TARGET_DIR, default .bench_build; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is the benchmark's: non-zero on
any oracle mismatch, a build failure, or a bad argument.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["catalog_mixed", "edge_keyed", "fw_flows_sharded"]
# A run that has not finished by then is broken; the benchmark's own
# timeouts end a stuck repetition well before this.
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: swmon sources not found at %s" % (ROOT / "src"),
              file=sys.stderr)
        return False
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_bench(workload, seed, seconds, trace, smoke=False, capture=False):
    cmd = [str(build_dir() / "swmon_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--git-sha", git_sha()]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / ("%s.csv" % workload))]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout or ""


def smoke():
    failed = 0
    for trace in (0, 1):
        for w in WORKLOADS:
            code, out = run_bench(w, 1, 1, trace, smoke=True, capture=True)
            last = out.strip().splitlines()[-1] if out.strip() else ""
            status = "ok" if code == 0 else "FAILED (exit %d)" % code
            print("smoke %-18s trace=%d %s %s" % (w, trace, status, last[:100]))
            failed += code != 0
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="all workloads, both modes, streams 5x shorter")
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's unit tests")
    a = p.parse_args()
    if a.test:
        if not build(["perfbench_test"]):
            return 2
        return subprocess.run([str(build_dir() / "perfbench_test")]).returncode
    if not a.smoke and not a.workload:
        p.error("--workload is required (or --smoke / --test)")
    if not build(["swmon_perfbench"]):
        return 2
    if a.smoke:
        return smoke()
    code, _ = run_bench(a.workload, a.seed, a.seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
