#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload fleet_soak --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild
incrementally. The recorded result digest for the (workload, seed) pair,
if perfbench/digests.json has one, is passed to the program, which marks
the run incorrect on a mismatch. The program's last stdout line is the
JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_soak", "paper_grid", "search_jobs4")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the program path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    return digests["digests"].get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test); skips the digest check")
    args = ap.parse_args()

    program = build()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    else:
        digest = recorded_digest(args.workload, args.seed)
        if digest:
            cmd += ["--expect-digest", digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail("%s exited with code %d without a result" % (args.workload, proc.returncode))


if __name__ == "__main__":
    main()
