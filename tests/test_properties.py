"""Property tests: the exact LP core, lifting and simulation against their
oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pags.model import GameStructure
from pags.oracle import brute_lift, brute_sim
from pags.prob import Distribution, LinearProblem, Relation, lift_check, lp_feasible
from pags.sim import QuantStrategy, SimReport, initial_relation, pa_simulation, refine_once

SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)

coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def linear_problems(draw):
    """Mixed-sense LPs over x0..x{n-1}. Planted ones get right-hand sides
    computed from a nonnegative point, so they are feasible; the others get
    random (often negative) right-hand sides. Rows may be empty."""
    n = draw(st.integers(1, 5))
    point = [draw(st.fractions(0, 3, max_denominator=4)) for _ in range(n)]
    planted = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
        coeffs = {f"x{j}": draw(coefficient) for j in sorted(cols)}
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        if planted:
            value = sum((c * point[int(v[1:])] for v, c in coeffs.items()), Fraction(0))
            gap = draw(st.fractions(0, 2, max_denominator=4))
            rhs = {"<=": value + gap, ">=": value - gap, "==": value}[sense]
        else:
            rhs = draw(coefficient)
        rows.append((coeffs, sense, rhs))
    return n, rows, planted


@SETTINGS
@given(linear_problems())
def test_lp_point_satisfies_every_constraint(problem):
    n, rows, planted = problem
    lp = LinearProblem()
    for j in range(n):
        lp.var(f"x{j}")
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    sol = lp_feasible(lp)
    if sol is None:
        assert not planted
        return
    assert set(sol) == {f"x{j}" for j in range(n)}
    assert all(type(v) is Fraction and v >= 0 for v in sol.values())
    for coeffs, sense, rhs in rows:
        lhs = sum((c * sol[v] for v, c in coeffs.items()), Fraction(0))
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]


def distributions(states, weight=st.integers(0, 4)):
    weights = st.lists(weight, min_size=len(states), max_size=len(states))
    return weights.filter(any).map(
        lambda w: Distribution({s: Fraction(x, sum(w)) for s, x in zip(states, w)})
    )


LEFT = ["s0", "s1", "s2", "s3"]
RIGHT = ["t0", "t1", "t2", "t3"]


@SETTINGS
@given(
    distributions(LEFT),
    distributions(RIGHT),
    st.sets(st.tuples(st.sampled_from(LEFT), st.sampled_from(RIGHT))).map(Relation),
)
def test_lift_check_agrees_with_max_flow(d, th, r):
    witness = lift_check(d, th, r)
    assert (witness is not None) == brute_lift(d, th, r)
    if witness is not None:
        witness.validate(d, th, r)


@st.composite
def games(draw):
    """Random 3-4 state models with 2x2 actions and one proposition. Rows
    are sparse, so that pairs of distinct states survive refinement."""
    states = [f"q{i}" for i in range(draw(st.integers(3, 4)))]
    labels = {s: ["p"] for s in states if draw(st.booleans())}
    table = {
        (s, a, b): draw(distributions(states, st.sampled_from([0, 0, 0, 1, 2])))
        for s in states for a in ("a0", "a1") for b in ("b0", "b1")
    }
    return GameStructure("rand", states, states[0], ["p"], labels, ["a0", "a1"], ["b0", "b1"], table)


def _fresh_fixpoint(g, strat):
    """Iterate ``refine_once`` from the zeroth approximant, each round on its own."""
    r = initial_relation(g)
    iterations = 0
    while True:
        nxt, witnesses = refine_once(g, r, strat)
        iterations += 1
        if nxt == r:
            return SimReport(r, iterations, strat, witnesses)
        r = nxt


@settings(SETTINGS, max_examples=20)
@given(games())
def test_simulation_nests_and_matches_fresh_rounds(g):
    reports = [pa_simulation(g, s) for s in
               (QuantStrategy.pure(), QuantStrategy.grid(2), QuantStrategy.grid(4))]
    pure, grid2, grid4 = (rep.relation for rep in reports)
    assert grid4 <= grid2 <= pure
    assert Relation.identity(g.states) <= grid4
    assert brute_sim(g, 2) <= grid2
    for rep in reports:
        assert rep == _fresh_fixpoint(g, rep.strategy)
