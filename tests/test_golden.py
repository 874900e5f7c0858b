"""Exact CLI output on the fixtures, pinned as literals.

Witnesses are the vertices the simplex stops at, so a change to the LP
kernel's pivot order shows here even when the verdicts stay the same. Most
fixture LPs have a single feasible point; the ``mix`` witness and the two
LPs pinned after the CLI runs do not, and they change under another
entering or leaving rule or another phase-1 objective. Those two are
rational rows with mixed senses and signed right-hand sides, brought into
the standard form the LP core reads (integer equality rows, rhs >= 0) by
conftest's ``standard_form``; their pinned values are the first columns of
the point, before the slacks.
"""

import io
from fractions import Fraction as Q

import pytest
from conftest import standard_form

from pags import fixture_path, load_fixture_model
from pags.cli import run
from pags.prob import format_rational, grid_lotteries, lp_feasible
from pags.sim import QuantStrategy, exists_pi2_check, initial_relation, pa_simulation

F = {name: str(fixture_path(name)) for name in
     ("lifthost.pgs", "lifthost.rel", "dup.pgs", "rps.pgs", "single.pgs", "split_levels.pgs")}

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
        ["sim", "--model", F["dup.pgs"], "--mode", "grid=2", "--trace"],
        0,
        'relation (6 pairs):\n  u u\n  u u2\n  u2 u\n  u2 u2\n  x x\n  y y\n'
        'iterations: 1\nwitness (u, u): 3 lotteries matched\n'
        'witness (u, u2): 3 lotteries matched\nwitness (u2, u): 3 lotteries matched\n'
        'witness (u2, u2): 3 lotteries matched\nwitness (x, x): 3 lotteries matched\n'
        'witness (y, y): 3 lotteries matched\n',
        id="sim-dup-grid2-trace-text",
    ),
    pytest.param(
        ["sim", "--model", F["rps.pgs"], "--mode", "grid=3", "--trace"],
        0,
        'relation (3 pairs):\n  s0 s0\n  s1 s1\n  s2 s2\niterations: 1\n'
        'witness (s0, s0): 10 lotteries matched\n'
        'witness (s1, s1): 10 lotteries matched\n'
        'witness (s2, s2): 10 lotteries matched\n',
        id="sim-rps-grid3-trace-text",
    ),
    pytest.param(
        ["sim", "--model", F["lifthost.pgs"], "--mode", "pure", "--trace"],
        0,
        'relation (25 pairs):\n  s1 s1\n  s1 s2\n  s1 t1\n  s1 t2\n  s1 t3\n  s2 s1\n'
        '  s2 s2\n  s2 t1\n  s2 t2\n  s2 t3\n  t1 s1\n  t1 s2\n  t1 t1\n  t1 t2\n'
        '  t1 t3\n  t2 s1\n  t2 s2\n  t2 t1\n  t2 t2\n  t2 t3\n  t3 s1\n  t3 s2\n'
        '  t3 t1\n  t3 t2\n  t3 t3\niterations: 1\n'
        'witness (s1, s1): 1 lotteries matched\nwitness (s1, s2): 1 lotteries matched\n'
        'witness (s1, t1): 1 lotteries matched\nwitness (s1, t2): 1 lotteries matched\n'
        'witness (s1, t3): 1 lotteries matched\nwitness (s2, s1): 1 lotteries matched\n'
        'witness (s2, s2): 1 lotteries matched\nwitness (s2, t1): 1 lotteries matched\n'
        'witness (s2, t2): 1 lotteries matched\nwitness (s2, t3): 1 lotteries matched\n'
        'witness (t1, s1): 1 lotteries matched\nwitness (t1, s2): 1 lotteries matched\n'
        'witness (t1, t1): 1 lotteries matched\nwitness (t1, t2): 1 lotteries matched\n'
        'witness (t1, t3): 1 lotteries matched\nwitness (t2, s1): 1 lotteries matched\n'
        'witness (t2, s2): 1 lotteries matched\nwitness (t2, t1): 1 lotteries matched\n'
        'witness (t2, t2): 1 lotteries matched\nwitness (t2, t3): 1 lotteries matched\n'
        'witness (t3, s1): 1 lotteries matched\nwitness (t3, s2): 1 lotteries matched\n'
        'witness (t3, t1): 1 lotteries matched\nwitness (t3, t2): 1 lotteries matched\n'
        'witness (t3, t3): 1 lotteries matched\n',
        id="sim-lifthost-pure-trace-text",
    ),
    pytest.param(
        # The rounds cut 27 label-equal pairs to 11; only the kept ones are traced.
        ["sim", "--model", F["split_levels.pgs"], "--mode", "grid=2", "--trace"],
        0,
        'relation (11 pairs):\n  s s\n  s1 s1\n  t t\n  u u\n  v t\n  v v\n  v x\n'
        '  x t\n  x v\n  x x\n  y y\niterations: 3\n'
        'witness (s, s): 3 lotteries matched\nwitness (s1, s1): 3 lotteries matched\n'
        'witness (t, t): 3 lotteries matched\nwitness (u, u): 3 lotteries matched\n'
        'witness (v, t): 3 lotteries matched\nwitness (v, v): 3 lotteries matched\n'
        'witness (v, x): 3 lotteries matched\nwitness (x, t): 3 lotteries matched\n'
        'witness (x, v): 3 lotteries matched\nwitness (x, x): 3 lotteries matched\n'
        'witness (y, y): 3 lotteries matched\n',
        id="sim-split_levels-grid2-trace-text",
    ),
    pytest.param(
        ["preorder", "--json", "--model", F["dup.pgs"], "--from", "u", "--to", "u2",
         "--depth", "2", "--grid", "2"],
        0,
        '{"bound": 2, "certified": true, "mode": "preorder", "result": "holds", '
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
        ["charform", "--model", F["dup.pgs"], "--state", "u", "--depth", "1", "--grid", "2"],
        0,
        "!pa & !pb & <1> mix{sum{1/2: pa & !pb, 1/2: pb & !pa}, sum{1: pa & !pb}} "
        "& <1> mix{sum{1/4: pa & !pb, 3/4: pb & !pa}, sum{2/3: pa & !pb, 1/3: pb & !pa}} "
        "& <1> mix{sum{1: pb & !pa}, sum{1/3: pa & !pb, 2/3: pb & !pa}}\n",
        id="charform-dup-u-grid2",
    ),
    pytest.param(
        ["charform", "--json", "--model", F["dup.pgs"], "--state", "u", "--depth", "1",
         "--grid", "2"],
        0,
        '{"bound": 1, "certified": true, "mode": "charform", "result": "ok", "witness": '
        '"!pa & !pb & <1> mix{sum{1/2: pa & !pb, 1/2: pb & !pa}, sum{1: pa & !pb}} '
        '& <1> mix{sum{1/4: pa & !pb, 3/4: pb & !pa}, sum{2/3: pa & !pb, 1/3: pb & !pa}} '
        '& <1> mix{sum{1: pb & !pa}, sum{1/3: pa & !pb, 2/3: pb & !pa}}"}\n',
        id="charform-dup-u-grid2-json",
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
        # The root rows read mass over d's denominator; the same rows scaled
        # by 5 give another phase-1 objective, and Bland's rule another split.
        ["eval", "--json", "--model", F["rps.pgs"], "--dist", "s0:1/5,s1:2/5,s2:2/5",
         "--formula", "sum{1/2: true, 1/2: !win1}"],
        0,
        '{"bound": 0, "certified": true, "mode": "eval", "result": "holds", '
        '"witness": {"exact": true, "split": [["1/2", "s0:1/5,s1:4/5"], ["1/2", "s0:1/5,s2:4/5"]]}}\n',
        id="eval-rps-flat-root-rows",
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
    point = lp_feasible(standard_form(6, rows))
    assert point[:6] == [Q(3, 11), 0, 0, Q(18, 11), 0, Q(18, 11)]


def test_lp_vertex_with_negative_right_hand_sides_is_pinned():
    """``<=`` and ``>=`` rows with negative right-hand sides, whose slacks
    change sign, and rows over different denominators. The phase-1 objective
    is the sum of the rational rows; another positive multiple of any row
    changes it, and Bland's rule then stops at another vertex."""
    rows = [
        ({0: Q(3), 4: Q(-1, 5)}, ">=", Q(-1, 2)),
        ({0: Q(-3), 1: Q(2, 3), 2: Q(1, 2)}, ">=", Q(1, 2)),
        ({1: Q(-3), 3: Q(1, 2), 4: Q(1)}, "==", Q(-4, 3)),
        ({0: Q(3, 5), 3: Q(-1)}, "<=", Q(-1, 4)),
        ({2: Q(-2, 3), 3: Q(2), 4: Q(-2)}, ">=", 0),
        ({2: Q(3, 5), 3: Q(-3), 4: Q(1, 5)}, "<=", 1),
    ]
    point = lp_feasible(standard_form(5, rows))
    assert point[:5] == [Q(215, 2196), Q(121, 244), Q(113, 122), Q(113, 366), 0]


# Every simulation witness of three fixture runs: per surviving pair, each
# tested universal lottery and the player-1 lottery matched at the simulating
# state, as ``tested -> state: matched``. A pair of distinct states is
# matched by the step LP's vertex, a pair ``(s, s)`` by the lottery itself
# (the copy strategy).
SIM_WITNESSES = [
    ("rps.pgs", 2, 1, {
        ('s0', 's0'): [
            "r=1 -> s0: r=1",
            "r=1/2 p=1/2 -> s0: r=1/2 p=1/2",
            "r=1/2 s=1/2 -> s0: r=1/2 s=1/2",
            "p=1 -> s0: p=1",
            "p=1/2 s=1/2 -> s0: p=1/2 s=1/2",
            "s=1 -> s0: s=1",
        ],
        ('s1', 's1'): [
            "r=1 -> s1: r=1",
            "r=1/2 p=1/2 -> s1: r=1/2 p=1/2",
            "r=1/2 s=1/2 -> s1: r=1/2 s=1/2",
            "p=1 -> s1: p=1",
            "p=1/2 s=1/2 -> s1: p=1/2 s=1/2",
            "s=1 -> s1: s=1",
        ],
        ('s2', 's2'): [
            "r=1 -> s2: r=1",
            "r=1/2 p=1/2 -> s2: r=1/2 p=1/2",
            "r=1/2 s=1/2 -> s2: r=1/2 s=1/2",
            "p=1 -> s2: p=1",
            "p=1/2 s=1/2 -> s2: p=1/2 s=1/2",
            "s=1 -> s2: s=1",
        ],
    }),
    ("rps.pgs", 3, 1, {
        ('s0', 's0'): [
            "r=1 -> s0: r=1",
            "r=2/3 p=1/3 -> s0: r=2/3 p=1/3",
            "r=2/3 s=1/3 -> s0: r=2/3 s=1/3",
            "r=1/3 p=2/3 -> s0: r=1/3 p=2/3",
            "r=1/3 p=1/3 s=1/3 -> s0: r=1/3 p=1/3 s=1/3",
            "r=1/3 s=2/3 -> s0: r=1/3 s=2/3",
            "p=1 -> s0: p=1",
            "p=2/3 s=1/3 -> s0: p=2/3 s=1/3",
            "p=1/3 s=2/3 -> s0: p=1/3 s=2/3",
            "s=1 -> s0: s=1",
        ],
        ('s1', 's1'): [
            "r=1 -> s1: r=1",
            "r=2/3 p=1/3 -> s1: r=2/3 p=1/3",
            "r=2/3 s=1/3 -> s1: r=2/3 s=1/3",
            "r=1/3 p=2/3 -> s1: r=1/3 p=2/3",
            "r=1/3 p=1/3 s=1/3 -> s1: r=1/3 p=1/3 s=1/3",
            "r=1/3 s=2/3 -> s1: r=1/3 s=2/3",
            "p=1 -> s1: p=1",
            "p=2/3 s=1/3 -> s1: p=2/3 s=1/3",
            "p=1/3 s=2/3 -> s1: p=1/3 s=2/3",
            "s=1 -> s1: s=1",
        ],
        ('s2', 's2'): [
            "r=1 -> s2: r=1",
            "r=2/3 p=1/3 -> s2: r=2/3 p=1/3",
            "r=2/3 s=1/3 -> s2: r=2/3 s=1/3",
            "r=1/3 p=2/3 -> s2: r=1/3 p=2/3",
            "r=1/3 p=1/3 s=1/3 -> s2: r=1/3 p=1/3 s=1/3",
            "r=1/3 s=2/3 -> s2: r=1/3 s=2/3",
            "p=1 -> s2: p=1",
            "p=2/3 s=1/3 -> s2: p=2/3 s=1/3",
            "p=1/3 s=2/3 -> s2: p=1/3 s=2/3",
            "s=1 -> s2: s=1",
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
            "a=1/2 b=1/2 -> x: a=1/2 b=1/2",
            "b=1 -> x: b=1",
        ],
        ('y', 'y'): [
            "a=1 -> y: a=1",
            "a=1/2 b=1/2 -> y: a=1/2 b=1/2",
            "b=1 -> y: b=1",
        ],
    }),
]

# The step LP's vertices for the reflexive pairs above, whose pinned
# witnesses are copies; ``exists_pi2_check``, called directly, solves them.
REFLEXIVE_LP_VERTICES = {
    ("rps.pgs", 2): {
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
    },
    ("rps.pgs", 3): {
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
    },
    ("dup.pgs", 2): {
        ('u', 'u'): [
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
    },
}


def _lottery(lot):
    return " ".join(f"{a}={format_rational(p)}" for a, p in lot.items())


def _entry(lot, pi):
    return _lottery(lot) + " -> " + "; ".join(f"{s}: {_lottery(c)}" for s, c in pi.choice.items())


@pytest.mark.parametrize("model,k,iterations,witnesses", SIM_WITNESSES,
                         ids=["rps-grid2", "rps-grid3", "dup-grid2"])
def test_sim_witnesses_are_pinned(model, k, iterations, witnesses):
    g = load_fixture_model(model)
    rep = pa_simulation(g, QuantStrategy.grid(k))
    assert rep.iterations == iterations
    assert rep.relation.pairs == set(witnesses)
    got = {pair: [_entry(lot, pi) for lot, pi in entries] for pair, entries in rep.witnesses.items()}
    assert got == witnesses


@pytest.mark.parametrize("model,k,iterations,witnesses", SIM_WITNESSES,
                         ids=["rps-grid2", "rps-grid3", "dup-grid2"])
def test_step_lp_vertices_are_pinned(model, k, iterations, witnesses):
    """Each fixture converges in one round, so the step LP against the zeroth
    approximant answers every pinned pair and lottery: with the pinned
    witness for a pair of distinct states, and with the vertex in
    ``REFLEXIVE_LP_VERTICES`` for a pair ``(s, s)``."""
    g = load_fixture_model(model)
    r = initial_relation(g)
    lotteries = grid_lotteries(g.acts1, k)
    for (s, t), entries in witnesses.items():
        expected = REFLEXIVE_LP_VERTICES[model, k][s, t] if s == t else entries
        got = [_entry(lot, exists_pi2_check(g, s, t, lot, r)) for lot in lotteries]
        assert got == expected
