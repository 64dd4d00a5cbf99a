#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

1. Runs every workload in BENCHMARK.json at smoke size (a few hundred
   rows, two seconds), untraced and traced, and checks that each run is
   correct, fails no statement, and emits exactly the end-to-end
   (untraced) or per-layer (traced) metrics BENCHMARK.json names, each
   with its unit.
2. Runs once more with one expected value deliberately wrong and checks
   that the correctness verdict turns false, which proves the checks
   are live.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, break_check=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--smoke", "1",
           "--break-check", "1" if break_check else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s trace=%d" % (w["name"], trace)
            result = run(w["name"], trace)
            if result is None:
                problems.append(name + ": run failed")
                continue
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(name + ": correct=%s failed=%d attempted=%d" % (
                    result["correct"], result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append("%s: missing %s extra %s wrong units %s" % (
                    name, missing, extra, units))
            print("ok " + name if not problems or not
                  problems[-1].startswith(name) else "FAIL " + name)
    broken = run(bench["workloads"][0]["name"], 0, break_check=True)
    if broken is None or broken["correct"]:
        problems.append("a wrong expected value did not fail the checks")
    else:
        print("ok wrong expected value is caught")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
