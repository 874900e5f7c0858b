"""Exact CLI output on the fixtures, pinned as literals.

Witnesses are the vertices the simplex stops at, so a change to the LP
kernel's pivot order shows here even when the verdicts stay the same. Most
fixture LPs have a single feasible point; the ``mix`` witness and the LP
pinned at the end do not, and they change under another entering or
leaving rule.
"""

import io
from fractions import Fraction as Q

import pytest

from pags import fixture_path, load_fixture_model
from pags.cli import run
from pags.prob import LinearProblem, format_rational, lp_feasible
from pags.sim import QuantStrategy, pa_simulation

F = {name: str(fixture_path(name)) for name in
     ("lifthost.pgs", "lifthost.rel", "dup.pgs", "rps.pgs", "single.pgs")}

GOLDEN = [
    pytest.param(
        ["lift", "--json", "--model", F["lifthost.pgs"], "--relation", F["lifthost.rel"],
         "--delta", "s1:1/2,s2:1/2", "--theta", "t1:1/3,t2:1/3,t3:1/3"],
        0,
        '{"bound": 0, "certified": true, "mode": "lift", "result": "feasible", '
        '"witness": {"s1,t1": "1/3", "s1,t2": "1/6", "s2,t2": "1/6", "s2,t3": "1/3"}}\n',
        id="lift-lifthost",
    ),
    pytest.param(
        ["sim", "--model", F["dup.pgs"], "--mode", "grid=2", "--trace", "--json"],
        0,
        '{"bound": 1, "certified": true, "mode": "grid=2", "result": "related", '
        '"witness": ["u u", "u u2", "u2 u", "u2 u2", "x x", "y y"]}\n',
        id="sim-dup-grid2",
    ),
    pytest.param(
        ["sim", "--model", F["rps.pgs"], "--mode", "grid=3", "--trace", "--json"],
        0,
        '{"bound": 1, "certified": true, "mode": "grid=3", "result": "related", '
        '"witness": ["s0 s0", "s1 s1", "s2 s2"]}\n',
        id="sim-rps-grid3",
    ),
    pytest.param(
        ["preorder", "--json", "--model", F["dup.pgs"], "--from", "u", "--to", "u2",
         "--depth", "2", "--grid", "2"],
        0,
        '{"bound": 2, "certified": false, "mode": "preorder", "result": "holds", '
        '"witness": {"conjuncts": 3}}\n',
        id="preorder-dup-u-u2",
    ),
    pytest.param(
        ["preorder", "--json", "--model", F["rps.pgs"], "--from", "s0", "--to", "s1",
         "--depth", "2", "--grid", "2"],
        1,
        '{"bound": 2, "certified": true, "mode": "preorder", "result": "fails", '
        '"witness": {"conjunct": 0, "counterexample": {"exact": true}}}\n',
        id="preorder-rps-s0-s1",
    ),
    pytest.param(
        ["eval", "--json", "--model", F["dup.pgs"], "--dist", "x:1/2,y:1/2",
         "--formula", "mix{pa|pb, pa|pb, pb}"],
        0,
        '{"bound": 0, "certified": true, "mode": "eval", "result": "holds", '
        '"witness": {"exact": true, "split": [["1/2", "x:1"], ["0", null], ["1/2", "y:1"]]}}\n',
        id="eval-dup-mix",
    ),
    pytest.param(
        ["eval", "--json", "--model", F["rps.pgs"], "--dist", "s0:1",
         "--formula", "<1> sum{1/3: win1, 2/3: true}", "--grid", "3"],
        0,
        '{"bound": 0, "certified": true, "mode": "eval", "result": "holds", '
        '"witness": {"pi1": {"s0": {"p": "1/3", "r": "1/3", "s": "1/3"}}, "vertices": 3}}\n',
        id="eval-rps-enforce-mixed",
    ),
    pytest.param(
        ["eval", "--json", "--model", F["rps.pgs"], "--dist", "s0:1/2,s1:1/4,s2:1/4",
         "--formula", "<1> sum{1/6: win1, 5/6: true}", "--grid", "3"],
        0,
        '{"bound": 0, "certified": true, "mode": "eval", "result": "holds", '
        '"witness": {"pi1": {"s0": {"r": "1"}, "s1": {"r": "1"}, "s2": {"r": "1"}}, '
        '"vertices": 27}}\n',
        id="eval-rps-enforce-three-states",
    ),
    pytest.param(
        ["eval", "--json", "--model", F["single.pgs"], "--dist", "s0:1", "--formula", "<1> p"],
        1,
        '{"bound": 0, "certified": true, "mode": "eval", "result": "fails", '
        '"witness": {"counterexample": {"exact": true}, "reached": "s0:1", '
        '"sigma2": {"s0": "*"}}}\n',
        id="eval-single-enforce-refuted",
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN)
def test_cli_output_is_pinned(argv, code, stdout):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) == code
    assert out.getvalue() == stdout
    assert err.getvalue() == ""


def test_lp_vertex_is_pinned():
    """A degenerate LP with many feasible vertices; Bland's rule picks this one."""
    rows = [
        ({0: Q(3, 2), 2: Q(-1, 2), 4: Q(-2)}, ">=", 0),
        ({2: Q(5, 2)}, "<=", 0),
        ({0: Q(-2), 1: Q(-6, 5), 2: Q(-1), 5: Q(1, 3)}, "==", 0),
        ({0: Q(-5, 3), 1: Q(-3), 3: Q(5), 5: Q(-5, 3)}, "==", 5),
        ({1: Q(-3), 2: Q(-1, 5), 4: Q(-1)}, "<=", Q(1, 2)),
        ({4: Q(6), 5: Q(3, 2)}, ">=", Q(3, 4)),
        ({1: Q(1, 3), 2: Q(-2), 3: Q(2, 3)}, ">=", Q(1, 2)),
        ({1: Q(-1), 2: Q(4, 3), 3: Q(1), 5: Q(-1)}, ">=", 0),
    ]
    lp = LinearProblem()
    lp.cols(6)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    assert lp_feasible(lp) == [Q(3, 11), 0, 0, Q(18, 11), 0, Q(18, 11)]


# Every simulation witness of three fixture runs: per surviving pair, each
# tested universal lottery and the player-1 lottery the step LP returned at
# the simulating state, as ``tested -> state: matched``.
SIM_WITNESSES = [
    ("rps.pgs", 2, 1, {
        ('s0', 's0'): [
            "r=1 -> s0: s=1",
            "r=1/2 p=1/2 -> s0: r=1/2 s=1/2",
            "r=1/2 s=1/2 -> s0: r=1/2 s=1/2",
            "p=1 -> s0: s=1",
            "p=1/2 s=1/2 -> s0: r=1/2 s=1/2",
            "s=1 -> s0: s=1",
        ],
        ('s1', 's1'): [
            "r=1 -> s1: r=1",
            "r=1/2 p=1/2 -> s1: r=1",
            "r=1/2 s=1/2 -> s1: r=1",
            "p=1 -> s1: r=1",
            "p=1/2 s=1/2 -> s1: r=1",
            "s=1 -> s1: r=1",
        ],
        ('s2', 's2'): [
            "r=1 -> s2: r=1",
            "r=1/2 p=1/2 -> s2: r=1",
            "r=1/2 s=1/2 -> s2: r=1",
            "p=1 -> s2: r=1",
            "p=1/2 s=1/2 -> s2: r=1",
            "s=1 -> s2: r=1",
        ],
    }),
    ("rps.pgs", 3, 1, {
        ('s0', 's0'): [
            "r=1 -> s0: s=1",
            "r=2/3 p=1/3 -> s0: r=1/3 s=2/3",
            "r=2/3 s=1/3 -> s0: r=2/3 s=1/3",
            "r=1/3 p=2/3 -> s0: r=2/3 s=1/3",
            "r=1/3 p=1/3 s=1/3 -> s0: r=1/3 p=1/3 s=1/3",
            "r=1/3 s=2/3 -> s0: r=1/3 s=2/3",
            "p=1 -> s0: s=1",
            "p=2/3 s=1/3 -> s0: r=1/3 s=2/3",
            "p=1/3 s=2/3 -> s0: r=2/3 s=1/3",
            "s=1 -> s0: s=1",
        ],
        ('s1', 's1'): [
            "r=1 -> s1: r=1",
            "r=2/3 p=1/3 -> s1: r=1",
            "r=2/3 s=1/3 -> s1: r=1",
            "r=1/3 p=2/3 -> s1: r=1",
            "r=1/3 p=1/3 s=1/3 -> s1: r=1",
            "r=1/3 s=2/3 -> s1: r=1",
            "p=1 -> s1: r=1",
            "p=2/3 s=1/3 -> s1: r=1",
            "p=1/3 s=2/3 -> s1: r=1",
            "s=1 -> s1: r=1",
        ],
        ('s2', 's2'): [
            "r=1 -> s2: r=1",
            "r=2/3 p=1/3 -> s2: r=1",
            "r=2/3 s=1/3 -> s2: r=1",
            "r=1/3 p=2/3 -> s2: r=1",
            "r=1/3 p=1/3 s=1/3 -> s2: r=1",
            "r=1/3 s=2/3 -> s2: r=1",
            "p=1 -> s2: r=1",
            "p=2/3 s=1/3 -> s2: r=1",
            "p=1/3 s=2/3 -> s2: r=1",
            "s=1 -> s2: r=1",
        ],
    }),
    ("dup.pgs", 2, 1, {
        ('u', 'u'): [
            "a=1 -> u: a=1",
            "a=1/2 b=1/2 -> u: a=1/2 b=1/2",
            "b=1 -> u: b=1",
        ],
        ('u', 'u2'): [
            "a=1 -> u2: a=1",
            "a=1/2 b=1/2 -> u2: a=1/2 b=1/2",
            "b=1 -> u2: b=1",
        ],
        ('u2', 'u'): [
            "a=1 -> u: a=1",
            "a=1/2 b=1/2 -> u: a=1/2 b=1/2",
            "b=1 -> u: b=1",
        ],
        ('u2', 'u2'): [
            "a=1 -> u2: a=1",
            "a=1/2 b=1/2 -> u2: a=1/2 b=1/2",
            "b=1 -> u2: b=1",
        ],
        ('x', 'x'): [
            "a=1 -> x: a=1",
            "a=1/2 b=1/2 -> x: a=1",
            "b=1 -> x: a=1",
        ],
        ('y', 'y'): [
            "a=1 -> y: a=1",
            "a=1/2 b=1/2 -> y: a=1",
            "b=1 -> y: a=1",
        ],
    }),
]


def _lottery(lot):
    return " ".join(f"{a}={format_rational(p)}" for a, p in lot.items())


@pytest.mark.parametrize("model,k,iterations,witnesses", SIM_WITNESSES,
                         ids=["rps-grid2", "rps-grid3", "dup-grid2"])
def test_sim_witnesses_are_pinned(model, k, iterations, witnesses):
    g = load_fixture_model(model)
    rep = pa_simulation(g, QuantStrategy.grid(k))
    assert rep.iterations == iterations
    assert rep.relation.pairs == set(witnesses)
    got = {
        pair: [
            _lottery(lot) + " -> " + "; ".join(f"{s}: {_lottery(c)}" for s, c in pi.choice.items())
            for lot, pi in entries
        ]
        for pair, entries in rep.witnesses.items()
    }
    assert got == witnesses
