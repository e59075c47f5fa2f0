#!/usr/bin/env python3
"""Record the result digests perfbench/run.py checks against.

    python3 perfbench/record_digests.py [--seeds 0-31] [--held-out 20171101]

Runs every workload once per seed (shortest run: a warm-up round and two
timed rounds, all of which must agree) and rewrites perfbench/digests.json.
Re-record only for a change that is meant to alter simulation results;
a change that claims only a speed-up must leave every digest unchanged.
The held-out seed is recorded too, so a claim can be checked on a seed not
used while the change was written.
"""
import argparse
import json
import os
import re
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest_of(program, workload, seed):
    cmd = [program, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.001", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    match = re.search(r"^digest ([0-9a-f]{16}) ", proc.stdout, re.M)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if match is None or result is None or not result["correct"]:
        sys.exit("record_digests: %s seed %d failed:\n%s%s"
                 % (workload, seed, proc.stdout[-2000:], proc.stderr[-2000:]))
    return match.group(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--held-out", type=int, default=20171101)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1)) + [args.held_out]
    program = run.build()
    digests = {w: {} for w in run.WORKLOADS}
    for workload in run.WORKLOADS:
        for seed in seeds:
            digests[workload][str(seed)] = digest_of(program, workload, seed)
            print("%s seed %d: %s" % (workload, seed, digests[workload][str(seed)]))
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump({"held_out_seed": args.held_out, "digests": digests}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
