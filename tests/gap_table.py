"""The characterisation theorem as a two-engine check: the gap table.

Run as a script, ``PYTHONPATH=src python tests/gap_table.py``, to print for
n = 1 and n = 2 how the depth-n logic preorder at grid 2 answers on every
ordered pair of distinct states of 20 seeded 3-state models with one
proposition, split by whether the pair lies in R_n, the relation n
``refine_once`` rounds from ``initial_relation`` under ``grid(2)``. The
theorem puts a certified `holds` in R_n and a certified `fails` outside it;
the `unknown`s are the gap that the bounded search leaves. pytest does not
collect this file; the property tests read ``preorder_verdicts``.
"""

import itertools
import random

from conftest import random_model

from pags.logic import HOLDS, UNKNOWN, logic_preorder
from pags.sim import QuantStrategy, initial_relation, refine_once

SEEDS = range(20)


def preorder_verdicts(n, seeds):
    """``(seed, s, t, result, (s, t) in R_n)`` for each ordered pair of
    distinct states of the 3-state model of each seed, ``result`` the
    depth-``n`` logic preorder of ``s`` at ``t`` at grid 2."""
    for seed in seeds:
        g = random_model(random.Random(seed), n_states=3, n_props=1)
        r = initial_relation(g)
        for _ in range(n):
            r = refine_once(g, r, QuantStrategy.grid(2))[0]
        for s, t in itertools.permutations(g.states, 2):
            yield seed, s, t, logic_preorder(g, s, t, n, 2), (s, t) in r


def gap_row(n, seeds=SEEDS):
    """Counts of the verdicts of ``preorder_verdicts`` by where they lie."""
    row = dict.fromkeys([
        "certified holds in R_n", "certified fails outside R_n",
        "unknown outside R_n", "unknown inside R_n",
        "uncertified verdicts", "contradictions",
    ], 0)
    for _, _, _, res, inside in preorder_verdicts(n, seeds):
        if res.verdict == UNKNOWN:
            key = "unknown inside R_n" if inside else "unknown outside R_n"
        elif not res.certified:
            key = "uncertified verdicts"
        elif inside != (res.verdict == HOLDS):
            key = "contradictions"
        else:
            key = "certified holds in R_n" if inside else "certified fails outside R_n"
        row[key] += 1
    return row


if __name__ == "__main__":
    rows = {n: gap_row(n) for n in (1, 2)}
    print("| n | " + " | ".join(rows[1]) + " |")
    print("| --- " * (len(rows[1]) + 1) + "|")
    for n, row in rows.items():
        print(f"| {n} | " + " | ".join(str(v) for v in row.values()) + " |")
