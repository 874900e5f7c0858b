"""Self-check of the benchmark's determinism.

    python3 perfbench/selfcheck.py

For each workload, runs the traced benchmark twice with seed 1 and once with
seed 2, one second each. The two same-seed runs must report identical
counters (``calls``, ``distinct_share``, ``rows_p50``, ...). The other seed
must give different inputs (the input fingerprint) but the same number of
queries per pass. Exits 1 if any of this fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED, OTHER_SEED = 1, 2
SECONDS = 1


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace1.json")) as fh:
        return json.load(fh)


def main():
    ok = True
    for workload in workloads.WORKLOADS:
        first = traced_run(workload, SEED)
        again = traced_run(workload, SEED)
        other = traced_run(workload, OTHER_SEED)
        checks = {
            "same seed, same counters": first["counters"] == again["counters"],
            "same seed, same inputs": first["input_fingerprint"] == again["input_fingerprint"],
            "other seed, other inputs": first["input_fingerprint"] != other["input_fingerprint"],
            "other seed, same queries per pass":
                first["queries_per_pass"] == other["queries_per_pass"],
            "all answers right": not (first["failed"] or again["failed"] or other["failed"]),
        }
        for name, passed in checks.items():
            print(f"{workload:9s} {'ok  ' if passed else 'FAIL'} {name}")
            ok = ok and passed
        if first["counters"] != again["counters"]:
            for key in sorted(set(first["counters"]) | set(again["counters"])):
                a, b = first["counters"].get(key), again["counters"].get(key)
                if a != b:
                    print(f"          {key}: {a} != {b}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
