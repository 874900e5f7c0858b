"""Record the expected answers of the fixture queries in expected.json.

    python3 perfbench/record.py

Seeded queries need no record: their expected answers come from the oracles
at run time. Fixture queries are the same for every seed, so their verdicts
are recorded once, from the engine at the commit named in the file, and the
fixpoint ones also with ``brute_eval``. Run this again only when a change of verdict
is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pags  # noqa: E402
import workloads  # noqa: E402

def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main():
    answers = {}
    for workload in workloads.WORKLOADS:
        queries, _ = workloads.build(pags, workload, 0)
        for q in queries:
            if not q.fixture or q.qid in answers:
                continue
            entry = {"answer": workloads.answer_json(workload, q.summary(q.call()))}
            if workload == "fixpoint":
                i = q.inputs
                try:
                    r = pags.brute_eval(i["model"], i["dist"], i["phi"], i["opts"],
                                        budget=workloads.BRUTE_EVAL_BUDGET)
                    entry["brute_eval"] = [r.verdict, r.certified]
                except pags.OracleBudgetError:
                    entry["brute_eval"] = None
            answers[q.qid] = entry
            print(q.qid, entry, flush=True)
    doc = {
        "recorded_at": commit(),
        "recorded_by": "python3 perfbench/record.py",
        "source": "answer: the engine's verdict (sim: relation) at recorded_at; "
                  f"brute_eval: pags.oracle.brute_eval at budget {workloads.BRUTE_EVAL_BUDGET}, "
                  "null where the budget ran out",
        "answers": answers,
    }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
