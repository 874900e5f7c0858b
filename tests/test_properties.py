"""Property tests: the exact LP core, lifting, simulation and the flat
formula encoder against their oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pags import load_fixture_model
from pags.formula import And, Mix, NegProp, Or, ProbSum, Prop
from pags.logic import EvalOptions, evaluate
from pags.model import GameStructure
from pags.oracle import OracleBudgetError, brute_eval, brute_lift, brute_sim
from pags.prob import (
    Distribution,
    LinearProblem,
    Relation,
    combine_dists,
    lift_check,
    lp_feasible,
    parse_distribution,
    parse_rational,
)
from pags.sim import QuantStrategy, SimReport, initial_relation, pa_simulation, refine_once

SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)

coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def linear_problems(draw):
    """Mixed-sense LPs over columns 0..n-1. Planted ones get right-hand sides
    computed from a nonnegative point, so they are feasible; the others get
    random (often negative) right-hand sides. Rows may be empty."""
    n = draw(st.integers(1, 5))
    point = [draw(st.fractions(0, 3, max_denominator=4)) for _ in range(n)]
    planted = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
        coeffs = {j: draw(coefficient) for j in sorted(cols)}
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        if planted:
            value = sum((c * point[j] for j, c in coeffs.items()), Fraction(0))
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
    lp.cols(n)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    sol = lp_feasible(lp)
    if sol is None:
        assert not planted
        return
    assert len(sol) == n
    assert all(type(v) is Fraction and v >= 0 for v in sol)
    for coeffs, sense, rhs in rows:
        lhs = sum((c * sol[j] for j, c in coeffs.items()), Fraction(0))
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


FLAT_MODELS = {name: load_fixture_model(name) for name in ("rps.pgs", "dup.pgs")}


@st.composite
def flat_formulas(draw, props, depth=3):
    """Random sum/mix/&/| formulas nested up to ``depth`` deep over literals;
    the top node is never a literal."""
    if depth == 0 or (depth < 3 and draw(st.integers(0, 2)) == 0):
        p = draw(st.sampled_from(props))
        return draw(st.sampled_from([Prop(p), NegProp(p)]))
    kind = draw(st.sampled_from(["sum", "mix", "and", "or"]))
    items = tuple(draw(flat_formulas(props, depth - 1)) for _ in range(draw(st.integers(1, 2))))
    if kind == "sum":
        weights = [draw(st.integers(1, 2)) for _ in items]
        return ProbSum(tuple((Fraction(w, sum(weights)), i) for w, i in zip(weights, items)))
    return {"mix": Mix, "and": And, "or": Or}[kind](items)


@st.composite
def flat_instances(draw):
    g = FLAT_MODELS[draw(st.sampled_from(sorted(FLAT_MODELS)))]
    return g, draw(distributions(g.states, st.integers(0, 2))), draw(flat_formulas(g.props))


def _summations(phi):
    """The summations ``phi`` may hold through: itself, or those among its
    disjuncts."""
    if isinstance(phi, Or):
        return [s for item in phi.items for s in _summations(item)]
    return [phi] if isinstance(phi, (ProbSum, Mix)) else []


@settings(SETTINGS, max_examples=300)
@given(flat_instances())
def test_flat_verdicts_and_splits_agree_with_brute_eval(instance):
    g, d, phi = instance
    result = evaluate(g, d, phi)
    try:
        brute = brute_eval(g, d, phi, EvalOptions(split_denominator=2), budget=2000)
    except OracleBudgetError:
        brute = None
    if brute is not None and brute.verdict == "holds":
        assert result.verdict == "holds" and result.certified
    if result.verdict != "holds" or "split" not in result.witness:
        return
    parts = [(parse_rational(w), text and parse_distribution(text))
             for w, text in result.witness["split"]]
    assert sum(w for w, _ in parts) == 1
    assert all(w == 0 for w, dist in parts if dist is None)
    assert combine_dists([(w, dist) for w, dist in parts if dist is not None]) == d
    matched = False
    for head in _summations(phi):
        items = [i for _, i in head.parts] if isinstance(head, ProbSum) else head.items
        if len(items) != len(parts):
            continue
        if isinstance(head, ProbSum) and [w for w, _ in head.parts] != [w for w, _ in parts]:
            continue
        matched = matched or all(
            dist is None or evaluate(g, dist, item).verdict == "holds"
            for (_, dist), item in zip(parts, items)
        )
    assert matched
