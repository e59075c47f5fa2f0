#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json twice in each mode on tiny inputs and
checks that both runs are correct, that the result digests (and the exact
per-layer counts) repeat, and that every metric BENCHMARK.json names is
printed with its unit, and no other. Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("selftest: %s --trace %s exited %d:\n%s"
                 % (workload, trace, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    digests = [line for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digests


def check(ok, what):
    if not ok:
        sys.exit("selftest: FAIL: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            first, d1 = run(workload, trace)
            second, d2 = run(workload, trace)
            tag = "%s --trace %s" % (workload, trace)
            check(first["correct"] and second["correct"], tag + ": run marked incorrect")
            check(first["attempted"] >= 1, tag + ": no flows attempted")
            if trace == "0":
                check(d1 and d1 == d2, tag + ": digests differ: %s vs %s" % (d1, d2))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = first["metrics"]
            check(set(got) == set(want),
                  tag + ": metrics differ from BENCHMARK.json: %s"
                  % sorted(set(got) ^ set(want)))
            for name, unit in want.items():
                check(got[name]["unit"] == unit, "%s: %s has unit %s, not %s"
                      % (tag, name, got[name]["unit"], unit))
                # Counts repeat exactly, except work stealing, which
                # depends on thread scheduling.
                if (trace == "1" and unit in ("count", "allocs")
                        and not name.startswith("runner.")):
                    check(got[name]["value"] == second["metrics"][name]["value"],
                          "%s: %s does not repeat" % (tag, name))
            print("selftest: %s ok (%d metrics)" % (tag, len(want)))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
