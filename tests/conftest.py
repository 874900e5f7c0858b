"""Shared test helpers: fixture access, seeded random generators and a small
reachability model."""

import random
from fractions import Fraction
from math import lcm

import pytest

from pags import load_fixture_model
from pags.model import GameStructure
from pags.prob import Distribution, LinearProblem, Relation


# s can step to the labelled goal; t and u, label-equal to s, never can.
REACH = """model reach
states: s t u goal    init: s
props: g
label goal: g
actions1: stay go
actions2: b
trans s (stay,b): s=1
trans s (go,b): goal=1
trans t (stay,b): t=1
trans t (go,b): t=1
trans u (stay,b): u=1
trans u (go,b): t=1
absorb goal
"""


def random_distribution(rng: random.Random, states, max_den=12) -> Distribution:
    """Random distribution whose denominators all divide one value <= max_den."""
    den = rng.randint(1, max_den)
    chosen = rng.sample(states, rng.randint(1, len(states)))
    cuts = sorted(rng.randint(0, den) for _ in range(len(chosen) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    entries = {s: Fraction(w, den) for s, w in zip(chosen, weights) if w}
    if not entries:
        entries = {chosen[0]: Fraction(1)}
    return Distribution(entries)


def random_relation(rng: random.Random, left, right, density=0.5) -> Relation:
    return Relation(
        (s, t) for s in left for t in right if rng.random() < density
    )


def random_model(rng: random.Random, n_states=3, n_acts1=2, n_acts2=2, n_props=2,
                 point_rows=False, turn_based=False) -> GameStructure:
    """Random model; with ``point_rows`` every row is a point distribution,
    so the model is deterministic. With ``turn_based`` one player, drawn
    per state, moves there: its action alone picks the row, so the other
    player is blind."""
    states = [f"q{i}" for i in range(n_states)]
    acts1 = [f"a{i}" for i in range(n_acts1)]
    acts2 = [f"b{i}" for i in range(n_acts2)]
    props = [f"p{i}" for i in range(n_props)]
    labels = {
        s: [p for p in props if rng.random() < 0.5] for s in states
    }
    table = {}
    for s in states:
        mover = rng.choice((1, 2)) if turn_based else None
        rows = {}
        for a1 in acts1:
            for a2 in acts2:
                row = {1: a1, 2: a2}.get(mover, (a1, a2))
                if row not in rows:
                    rows[row] = (Distribution.point(rng.choice(states)) if point_rows
                                 else random_distribution(rng, states, max_den=6))
                table[(s, a1, a2)] = rows[row]
    return GameStructure("rand", states, states[0], props, labels, acts1, acts2, table)


def standard_form(n: int, rows) -> LinearProblem:
    """The ``LinearProblem`` of rational mixed-sense rows ``(coeffs, sense,
    rhs)`` over columns ``0 .. n - 1``: one slack column per inequality,
    after the original columns and in row order, with +1 for ``<=`` and -1
    for ``>=``; a row with a negative rhs negated; each row cleared over
    its least denominator. The first ``n`` values of a point solve the
    rows."""
    lp = LinearProblem()
    lp.cols(n)
    slacks = iter(lp.cols(sum(sense != "==" for _, sense, _ in rows)))
    for coeffs, sense, rhs in rows:
        row = {j: Fraction(c) for j, c in coeffs.items()}
        if sense != "==":
            row[next(slacks)] = Fraction(1 if sense == "<=" else -1)
        rhs = Fraction(rhs)
        if rhs < 0:
            row = {j: -c for j, c in row.items()}
            rhs = -rhs
        den = lcm(rhs.denominator, *(c.denominator for c in row.values()))
        lp.add({j: int(c * den) for j, c in row.items()}, int(rhs * den), den)
    return lp


@pytest.fixture
def rps():
    return load_fixture_model("rps.pgs")


@pytest.fixture
def halving():
    return load_fixture_model("halving.pgs")


@pytest.fixture
def lifthost():
    return load_fixture_model("lifthost.pgs")


@pytest.fixture
def dup():
    return load_fixture_model("dup.pgs")


@pytest.fixture
def single():
    return load_fixture_model("single.pgs")
