"""Property tests: the exact LP core, lifting, simulation (its copy strategy
for reflexive pairs, and its flow acceptance and support refutation
against the step LP; alternating simulation against the oracle, with no
LP; the logic preorder inside its approximant, and its certified verdicts
on either side of the one- and two-round approximants), the flat formula encoder,
the strategy modality's successors and the bounded evaluator's certified
verdicts against their oracles, the integer distribution sum against a plain
``Fraction`` sum, the interned formula nodes against plain recursion, the
evaluator's successor cache against rebuilding every successor, its
`<1>`, which evaluates one choice per class of a blind player's choices,
against scanning every choice, also where its budget trips, its `&` and
`|`, which stop at their deciding child, against evaluating every child,
its split search, which skips splits that cannot hold, against the full
grid, its results against their distribution's entry order, its certified
`<1>` over a nested `<1>` against sampled mixed responses, and the model
text round trip."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm
from unittest import mock

from conftest import REACH, random_distribution, random_model, random_relation, standard_form
from gap_table import preorder_verdicts
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pags import load_fixture_model, prob
from pags.formula import (
    FALSE,
    TRUE,
    And,
    Enforce,
    Mix,
    Mu,
    NegProp,
    Nu,
    Or,
    ProbSum,
    Prop,
    Var,
    convex_safe,
    format_formula,
    is_flat,
    parse_formula,
)
from pags.logic import (
    FAILS,
    HOLDS,
    EvalBudgetError,
    EvalOptions,
    Evaluator,
    _FlatChecker,
    _fails,
    _holds,
    _joint,
    _unknown,
    evaluate,
    logic_preorder,
)
from pags.model import GameStructure, parse_model, serialize_model
from pags.oracle import OracleBudgetError, brute_eval, brute_lift, brute_sim
from pags.prob import (
    Distribution,
    LinearProblem,
    MixedAction,
    Relation,
    WeightWitness,
    combine_dists,
    combine_ints,
    format_rational,
    grid_lotteries,
    lift_check,
    lp_feasible,
    parse_distribution,
    parse_rational,
    step_mixed_dist,
    step_mixed_state,
)
from pags.sim import (
    QuantStrategy,
    SimReport,
    _StepData,
    _flow_verdict,
    _refuted,
    _solve_step,
    a_simulation,
    exists_pi2_check,
    initial_relation,
    pa_simulation,
    refine_once,
)

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
    """The standard form of the rows is solved; its first ``n`` values
    satisfy the original mixed-sense rational rows."""
    n, rows, planted = problem
    lp = standard_form(n, rows)
    sol = lp_feasible(lp)
    if sol is None:
        assert not planted
        return
    assert len(sol) == lp.n_vars()
    assert all(type(v) is Fraction and v >= 0 for v in sol)
    for coeffs, sense, rhs in rows:
        lhs = sum((c * sol[j] for j, c in coeffs.items()), Fraction(0))
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]


@st.composite
def rescaled_problems(draw):
    """The standard form of an LP from ``linear_problems``, some rows with
    an explicit zero coefficient, and a factor per row."""
    n, rows, _ = draw(linear_problems())
    padded = []
    for coeffs, sense, rhs in rows:
        if draw(st.booleans()):
            coeffs = {**coeffs, draw(st.integers(0, n - 1)): Fraction(0)}
        padded.append((coeffs, sense, rhs))
    return standard_form(n, padded), [draw(st.integers(1, 3)) for _ in rows]


@settings(SETTINGS, max_examples=100)
@given(rescaled_problems())
def test_lp_point_does_not_depend_on_coefficient_types(problem):
    """The same rational rows give the same point (or None) as integers
    over their least denominator and over a multiple of it."""
    lp, factors = problem
    scaled = LinearProblem()
    scaled.cols(lp.n_vars())
    for (coeffs, _, rhs), den, k in zip(lp.constraints, lp.dens, factors):
        scaled.add({j: k * c for j, c in coeffs.items()}, k * rhs, k * den)
    assert lp_feasible(lp) == lp_feasible(scaled)


def distributions(states, weight=st.integers(0, 4)):
    weights = st.lists(weight, min_size=len(states), max_size=len(states))
    return weights.filter(any).map(
        lambda w: Distribution({s: Fraction(x, sum(w)) for s, x in zip(states, w)})
    )


LEFT = ["s0", "s1", "s2", "s3"]
RIGHT = ["t0", "t1", "t2", "t3"]
RELATIONS = st.sets(st.tuples(st.sampled_from(LEFT), st.sampled_from(RIGHT)))


@st.composite
def refuted_lifts(draw):
    """A lifting with a Hall violation built in: the states ``x`` reach only
    ``nx`` and hold more mass than it."""
    x = draw(st.sets(st.sampled_from(LEFT), min_size=1))
    nx = draw(st.sets(st.sampled_from(RIGHT), max_size=3))
    r = Relation((s, t) for s, t in draw(RELATIONS) if s not in x or t in nx)

    def masses(states, heavy):
        w = [draw(st.integers(1, 4) if s in heavy else st.integers(0, 2)) for s in states]
        assume(any(w))
        return Distribution({s: Fraction(n, sum(w)) for s, n in zip(states, w)})

    d = masses(LEFT, x)
    th = masses(RIGHT, set(RIGHT) - nx)
    assume(sum(d[s] for s in x) > sum(th[t] for t in nx))
    return d, th, r


@st.composite
def coupled_lifts(draw):
    """A lifting built from a coupling, plus related pairs that a flow
    filling neighbours in order can take first and must then undo."""
    plan = draw(st.dictionaries(st.tuples(st.sampled_from(LEFT), st.sampled_from(RIGHT)),
                                st.integers(1, 4), min_size=1))
    total = sum(plan.values())
    d, th = {}, {}
    for (s, t), n in plan.items():
        d[s] = d.get(s, 0) + Fraction(n, total)
        th[t] = th.get(t, 0) + Fraction(n, total)
    return Distribution(d), Distribution(th), Relation(set(plan) | draw(RELATIONS))


def _lift_lp(d, th, r):
    """The lifting LP alone, one column per related support pair, solved
    whatever the answer: the positive weights, or None."""
    supp_d = sorted(d.support())
    supp_t = sorted(th.support())
    pairs = [(s, t) for s in supp_d for t in supp_t if (s, t) in r]
    lp = LinearProblem()
    lp.cols(len(pairs))
    rows = {s: {} for s in supp_d}
    cols = {t: {} for t in supp_t}
    for j, (s, t) in enumerate(pairs):
        rows[s][j] = d.den
        cols[t][j] = th.den
    for s in supp_d:
        lp.add(rows[s], d.nums[s], d.den)
    for t in supp_t:
        lp.add(cols[t], th.nums[t], th.den)
    point = lp_feasible(lp)
    return None if point is None else {p: w for p, w in zip(pairs, point) if w > 0}


@SETTINGS
@given(
    st.one_of(
        st.tuples(distributions(LEFT), distributions(RIGHT), RELATIONS.map(Relation)),
        refuted_lifts(),
        coupled_lifts(),
    )
)
def test_lift_check_agrees_with_max_flow(instance):
    """A Hall cut is found exactly when brute_lift's max-flow says no; each
    cut holds more mass than its neighbours; an LP is solved only for a
    lifting; lift_check answers as brute_lift does, and its witness is valid
    and is the vertex of the plain lifting LP."""
    d, th, r = instance
    adj = {s: [t for t in sorted(th.support()) if (s, t) in r] for s in sorted(d.support())}
    cut = prob._hall_cut(d, th, adj)
    assert (cut is None) == brute_lift(d, th, r)
    if cut is not None:
        near = {t for t in th.support() if any((s, t) in r for s in cut)}
        assert sum(d[s] for s in cut) > sum(th[t] for t in near)
    solved = []
    with mock.patch("pags.prob.lp_feasible", lambda lp: solved.append(lp) or lp_feasible(lp)):
        witness = lift_check(d, th, r)
    assert len(solved) == (cut is None)
    assert (witness is not None) == brute_lift(d, th, r)
    if witness is not None:
        witness.validate(d, th, r)
    assert (witness.weights if witness is not None else None) == _lift_lp(d, th, r)


@st.composite
def games(draw, sizes=(3, 4)):
    """Random models of ``sizes`` states with 2x2 actions and one
    proposition. Rows are sparse, so that pairs of distinct states survive
    refinement."""
    states = [f"q{i}" for i in range(draw(st.integers(*sizes)))]
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
        r = rep.relation
        assert all((s, u) in r for s, t in r for u in r.image(t))  # transitive


def _lp_fixpoint(g, strat):
    """The refinement with every pair, reflexive ones included, sent through
    ``exists_pi2_check`` for every tested lottery; the LP must answer each
    reflexive pair. Returns the relation, the rounds and the last witnesses."""
    lotteries = grid_lotteries(g.acts1, strat.k)
    r = initial_relation(g)
    iterations = 0
    while True:
        iterations += 1
        witnesses = {}
        for s, t in r:
            entry = [(dict(lot), exists_pi2_check(g, s, t, lot, r)) for lot in lotteries]
            if all(pi is not None for _, pi in entry):
                witnesses[s, t] = entry
            else:
                assert s != t
        nxt = Relation(witnesses)
        if nxt == r:
            return r, iterations, witnesses
        r = nxt


@settings(SETTINGS, max_examples=12)
@given(games())
def test_copy_strategy_matches_solving_every_reflexive_pair(g):
    """``pa_simulation`` answers ``(s, s)`` by the copy strategy instead of
    the step LP: same relation, rounds and distinct-pair witnesses as the
    all-LP refinement, and each copy entry's diagonal coupling lifts the
    step under the tested lottery to the step under its answer."""
    for strat in (QuantStrategy.pure(), QuantStrategy.grid(2), QuantStrategy.grid(3)):
        rep = pa_simulation(g, strat)
        relation, iterations, witnesses = _lp_fixpoint(g, strat)
        assert (rep.relation, rep.iterations) == (relation, iterations)
        for (s, t), entry in rep.witnesses.items():
            if s != t:
                assert entry == witnesses[s, t]
                continue
            for lot, pi in entry:
                for b in g.acts2:
                    sigma = MixedAction({s: {b: 1}}, 2)
                    left = step_mixed_state(g, s, MixedAction({s: lot}, 1), sigma)
                    right = step_mixed_state(g, s, pi, sigma)
                    coupling = WeightWitness({(u, u): left[u] for u in left.support()})
                    coupling.validate(left, right, rep.relation)


@st.composite
def deterministic_games(draw):
    """A seeded model with point rows: 2-4 states, 1-3 actions per player
    and one proposition, so that many pairs start label-equal."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_model(rng, n_states=rng.randint(2, 4), n_acts1=rng.randint(1, 3),
                        n_acts2=rng.randint(1, 3), n_props=1, point_rows=True)


@settings(SETTINGS, max_examples=100)
@given(deterministic_games())
def test_a_simulation_matches_brute_sim_on_deterministic_models(g):
    """Alternating simulation, computed as the pure strategy's PA-simulation,
    against the oracle's pure-grid enumeration of lotteries and responses.
    Every successor is a point, so the flow decides each condition and no
    LP is solved."""
    with mock.patch("pags.sim.lp_feasible", side_effect=AssertionError("an LP was solved")):
        relation = a_simulation(g)
    assert relation == brute_sim(g, 1)


def test_flow_verdict_agrees_with_the_step_lp():
    """On seeded models, probabilistic and deterministic, under the pure
    and grid-2 strategies and at every round's relation: a condition the
    flow accepts has a feasible step LP, and one that ``_refuted`` refutes
    on supports has none, the LP being the one ``_solve_step`` builds and
    solves. Both verdicts occur."""
    seen = {True: 0, False: 0}
    for seed in range(24):
        rng = random.Random(seed)
        g = random_model(rng, n_states=rng.choice([3, 4]), n_props=1, point_rows=seed % 2 == 1)
        for k in (1, 2):
            lotteries = grid_lotteries(g.acts1, k)
            r = initial_relation(g)
            while True:
                data = _StepData(g)
                for s, t in r:
                    for i, lot in enumerate(lotteries):
                        key = data.condition(g.successors(k).row(s, i), t, r)
                        accepts, refuted = _flow_verdict(key[1], key[0], r), _refuted(*key)
                        if accepts or refuted:
                            seen[accepts] += 1
                            feasible = _solve_step(g, *key) is not None
                            assert feasible == accepts != refuted, (seed, k, s, t, lot)
                nxt = refine_once(g, r, QuantStrategy.grid(k), data)[0]
                if nxt == r:
                    break
                r = nxt
    assert min(seen.values()) > 0, seen


@settings(SETTINGS, max_examples=14)
@given(st.integers(0, 2**32))
@example(53)
def test_preorder_holds_lie_in_the_depth_n_approximant(seed):
    """A `holds` of the depth-2 logic preorder at grid k = 1 puts the pair in
    the 2-round grid(1) approximant, on seeded 3-state models with two
    player-1 actions. At seed 53, characteristic formulas that pin the
    labels at level 0 only hold at (q0, q2), outside the approximant."""
    g = random_model(random.Random(seed), n_states=3, n_acts1=2)
    strat = QuantStrategy.grid(1)
    r = initial_relation(g)
    for _ in range(2):
        r = refine_once(g, r, strat)[0]
    for s in g.states:
        for t in g.states:
            if logic_preorder(g, s, t, 2, 1).verdict == HOLDS:
                assert (s, t) in r, (s, t)


def test_certified_preorder_verdicts_agree_with_the_one_round_approximant():
    """The characterisation theorem at depth 1 and grid 2, in both
    directions, on 20 seeded 3-state models with one proposition, over
    every ordered pair of distinct states: a certified `holds` of the
    depth-1 logic preorder lies in R_1, one ``refine_once`` round from
    ``initial_relation`` under ``grid(2)``, and a certified `fails` lies
    outside it. Both verdicts occur."""
    seen = {HOLDS: 0, FAILS: 0}
    strat = QuantStrategy.grid(2)
    for seed in range(20):
        g = random_model(random.Random(seed), n_states=3, n_props=1)
        r1 = refine_once(g, initial_relation(g), strat)[0]
        for s, t in itertools.permutations(g.states, 2):
            res = logic_preorder(g, s, t, 1, 2)
            if res.certified and res.verdict in seen:
                seen[res.verdict] += 1
                assert ((s, t) in r1) == (res.verdict == HOLDS), (seed, s, t, res.verdict)
    assert min(seen.values()) > 0, seen


def test_certified_preorder_verdicts_agree_with_the_two_round_approximant():
    """The same check at depth 2 on the first 5 of those models (30 ordered
    pairs): a certified `holds` lies in R_2, two rounds from
    ``initial_relation`` under ``grid(2)``, and a certified `fails` outside
    it. Both verdicts occur."""
    seen = {HOLDS: 0, FAILS: 0}
    for seed, s, t, res, inside in preorder_verdicts(2, range(5)):
        if res.certified and res.verdict in seen:
            seen[res.verdict] += 1
            assert inside == (res.verdict == HOLDS), (seed, s, t, res.verdict)
    assert min(seen.values()) > 0, seen


def _fraction_step_lp(g, s, t, lottery, r):
    """A reference step LP: the rows of ``exists_pi2_check``'s LP with their
    ``Fraction`` masses as given, cleared by conftest's ``standard_form``,
    one solve per call, no memo and no refutation. Returns the MixedAction
    at ``t``, or None."""

    def marginal_rows(dists):
        states = sorted(set().union(*[d.support() for d in dists]))
        return states, {x: [(i, -d[x]) for i, d in enumerate(dists) if d[x] > 0] for x in states}

    succ = [combine_dists((p, g.step(s, a, b2)) for a, p in lottery.items()) for b2 in g.acts2]
    left_states, left_rows = marginal_rows(succ)
    per_b = [marginal_rows([g.step(t, a, b) for a in g.acts1]) for b in g.acts2]
    support = sorted(set().union(*[v for v, _ in per_b]))
    related = [(u, v) for u in left_states for v in support if (u, v) in r]
    n = len(g.acts1)
    rows = [(dict.fromkeys(range(n), 1), "==", 1)]
    for right_states, right_rows in per_b:
        lam = range(n, n + len(g.acts2))
        rows.append((dict.fromkeys(lam, 1), "==", 1))
        by_v = {v: [] for v in right_states}
        by_u = {u: [] for u in left_states}
        pairs = [(u, v) for u, v in related if v in by_v]
        n = lam.stop + len(pairs)
        for w, (u, v) in zip(range(lam.stop, n), pairs):
            by_v[v].append(w)
            by_u[u].append(w)
        for v in right_states:
            coeffs = dict.fromkeys(by_v[v], 1)
            coeffs.update(right_rows[v])
            rows.append((coeffs, "==", 0))
        for u in left_states:
            coeffs = dict.fromkeys(by_u[u], 1)
            coeffs.update((lam[i], c) for i, c in left_rows[u])
            rows.append((coeffs, "==", 0))
    sol = lp_feasible(standard_form(n, rows))
    if sol is None:
        return None
    return MixedAction({t: {a: sol[j] for j, a in enumerate(g.acts1) if sol[j] > 0}}, 1)


@st.composite
def step_lp_instances(draw):
    """A seeded 3-4-state model with 2x2 actions, its last state
    half the time a mirror of ``q0`` (same label and rows), and a relation
    that holds the diagonal plus random pairs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_model(rng, n_states=rng.choice([3, 4]), n_acts1=2, n_props=1)
    if rng.random() < 0.5:
        last = g.states[-1]
        table = dict(g.table)
        table.update({(last, a, b): g.step("q0", a, b) for a in g.acts1 for b in g.acts2})
        labels = {**g.labels, last: g.labels["q0"]}
        g = GameStructure("mirror", g.states, "q0", g.props, labels, g.acts1, g.acts2, table)
    r = Relation(Relation.identity(g.states).pairs
                 | random_relation(rng, g.states, g.states, rng.choice([0.2, 0.5])).pairs)
    return g, r, rng.choice([1, 2])


@settings(SETTINGS, max_examples=60)
@given(step_lp_instances())
def test_step_lp_matches_the_fraction_encoder(instance):
    """``exists_pi2_check`` with one shared ``_StepData`` (integer rows, the
    refutation and the memo keyed on content) gives every pair of distinct
    states in the relation and every grid lottery the same answer and the
    same MixedAction as ``_fraction_step_lp`` solving each LP afresh."""
    g, r, k = instance
    data = _StepData(g)
    for s, t in r:
        if s == t:
            continue
        for lot in grid_lotteries(g.acts1, k):
            assert exists_pi2_check(g, s, t, lot, r, data) == _fraction_step_lp(g, s, t, lot, r)


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


STEP_MODELS = {name: load_fixture_model(name) for name in ("rps.pgs", "dup.pgs", "halving.pgs")}


@st.composite
def step_instances(draw):
    """A model, a player-1 grid, a distribution and two pure-response
    vertices sharing one grid choice, as indices into the grid lotteries and
    the player-2 actions, per support state in a drawn order."""
    name = draw(st.sampled_from(sorted(STEP_MODELS) + ["random"]))
    g = STEP_MODELS[name] if name != "random" else draw(games(sizes=(3, 3)))
    k = draw(st.integers(1, 3))
    d = draw(distributions(g.states, st.integers(0, 3)))
    states = draw(st.permutations(d.support()))
    n_lot = len(grid_lotteries(g.acts1, k))
    lots = [draw(st.integers(0, n_lot - 1)) for _ in states]
    vertices = [[draw(st.integers(0, len(g.acts2) - 1)) for _ in states] for _ in range(2)]
    return g, k, d, states, lots, vertices


@settings(SETTINGS, max_examples=300)
@given(step_instances())
def test_enforce_successors_match_step_mixed_dist(instance):
    """``<1>`` builds each successor from its per-state table entries, in
    any order of the support states; it must equal ``step_mixed_dist``."""
    g, k, d, states, lots, vertices = instance
    lotteries = grid_lotteries(g.acts1, k)
    ev = Evaluator(g, EvalOptions(pi1_grid=k))
    for acts in vertices:
        pi1 = MixedAction({s: lotteries[i] for s, i in zip(states, lots)}, 1)
        sigma = MixedAction({s: {g.acts2[j]: 1} for s, j in zip(states, acts)}, 2)
        expected = step_mixed_dist(g, d, pi1, sigma)
        theta = ev.step(d, states, lots, acts)
        assert theta == expected and hash(theta) == hash(expected)


@st.composite
def weighted_parts(draw):
    """Parts over three states, so states repeat across parts; some weights
    are zero, and the weights sum to 1."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(["a", "b", "c"]))
        parts.append(draw(distributions(order[: draw(st.integers(1, 3))], st.integers(0, 6))))
    raw = draw(st.lists(st.integers(0, 5), min_size=len(parts), max_size=len(parts)).filter(any))
    return [(Fraction(x, sum(raw)), dist) for x, dist in zip(raw, parts)]


@SETTINGS
@given(weighted_parts(), st.integers(1, 4))
def test_combine_dists_matches_a_fraction_reference(parts, scale):
    """The integer kernel against a plain ``Fraction`` sum: same entries in
    first-appearance order, same equality, hash and text; and the same
    distribution given as unreduced integers is one value."""
    expected = {}
    for w, dist in parts:
        if w:
            for s, p in dist.entries.items():
                expected[s] = expected.get(s, Fraction(0)) + w * p
    theta = combine_dists(parts)
    assert list(theta.entries.items()) == list(expected.items())
    ref = Distribution(expected)
    assert theta == ref and hash(theta) == hash(ref)
    assert theta.format() == ",".join(
        f"{s}:{format_rational(p)}" for s, p in sorted(expected.items())
    )
    den = scale * lcm(*(p.denominator for p in expected.values()))
    ints = Distribution.from_ints({s: int(p * den) for s, p in expected.items()}, den)
    assert ints == ref and hash(ints) == hash(ref)
    assert list(ints.entries.items()) == list(expected.items())


@st.composite
def formulas(draw, bound=(), depth=3):
    """Formulas of every node kind in the parser's own shape: `&` and `|`
    have two or more items, none a nonempty node of the same kind. Variables
    come from ``bound`` and from the fixpoints above them."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaves = [Prop("p"), NegProp("p"), Prop("q"), TRUE, FALSE] + [Var(v) for v in bound]
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["and", "or", "sum", "mix", "<1>", "mu", "nu"]))
    if kind in ("mu", "nu"):
        var = draw(st.sampled_from("XYZ"))
        return {"mu": Mu, "nu": Nu}[kind](var, draw(formulas(bound + (var,), depth - 1)))
    if kind == "<1>":
        return Enforce(draw(formulas(bound, depth - 1)))
    n = draw(st.integers(1 if kind in ("sum", "mix") else 2, 3))
    items = [draw(formulas(bound, depth - 1)) for _ in range(n)]
    if kind == "sum":
        weights = [draw(st.integers(1, 3)) for _ in items]
        return ProbSum((Fraction(w, sum(weights)), i) for w, i in zip(weights, items))
    cls = {"and": And, "or": Or, "mix": Mix}[kind]
    return cls(Enforce(i) if type(i) is cls and i.items else i for i in items)


@SETTINGS
@given(formulas())
def test_formula_text_round_trips_to_the_same_node(phi):
    assert parse_formula(format_formula(phi)) is phi


def _reference(phi):
    """(flat, convex, free variables) of ``phi`` by plain recursion."""
    if isinstance(phi, (Prop, NegProp)):
        return True, True, frozenset()
    if isinstance(phi, Var):
        return False, False, frozenset({phi.name})
    if isinstance(phi, ProbSum):
        kids = [item for _, item in phi.parts]
    else:
        kids = phi.items if isinstance(phi, (And, Or, Mix)) else [phi.body]
    refs = [_reference(kid) for kid in kids]
    free = frozenset().union(*(f for _, _, f in refs))
    if isinstance(phi, (Mu, Nu)):
        free -= {phi.var}
    flat = isinstance(phi, (And, Or, Mix, ProbSum)) and all(f for f, _, _ in refs)
    convex = isinstance(phi, (And, Mix, ProbSum, Enforce)) and all(c for _, c, _ in refs)
    return flat, convex, free


@SETTINGS
@given(formulas(bound=("W",)))
def test_cached_fragments_match_a_recursive_reference(phi):
    assert (phi.flat, phi.convex, phi.free) == _reference(phi)
    assert (is_flat(phi), convex_safe(phi)) == (phi.flat, phi.convex)


def _convex_formula(rng, props, depth):
    """A random formula over literals, `&`, `|`, `sum` and `<1>`; convex
    unless it holds an `|`."""
    if depth == 0 or rng.random() < 0.3:
        p = rng.choice(props)
        return rng.choice([Prop(p), NegProp(p)])
    kind = rng.choice(["and", "or", "sum", "enforce", "enforce"])
    if kind == "enforce":
        return Enforce(_convex_formula(rng, props, depth - 1))
    items = [_convex_formula(rng, props, depth - 1) for _ in range(2)]
    if kind == "sum":
        return ProbSum([(Fraction(1, 3), items[0]), (Fraction(2, 3), items[1])])
    return (And if kind == "and" else Or)(items)


def _mixed_response(rng, g, states, uniform):
    """A rational player-2 lottery at each of ``states``, every action
    weighted alike when ``uniform``."""
    choice = {}
    for s in states:
        if uniform:
            w = [1] * len(g.acts2)
        else:
            w = [rng.randint(0, 3) for _ in g.acts2]
            w[rng.randrange(len(w))] += 1
        choice[s] = {b: Fraction(x, sum(w)) for b, x in zip(g.acts2, w)}
    return MixedAction(choice, 2)


def _check_holds_at_samples(g, d, phi, opts, rng, flat):
    """``phi`` holds at ``d`` in the exact semantics: the flat LP confirms
    a flat ``phi``, each item of an `&` is checked in turn, and elsewhere
    ``evaluate`` must not answer `fails` (a `fails` is always certified). A
    certified `<1>` is followed to its witness's successors under the
    uniform and two random mixed responses, where its body must hold."""
    if phi.flat:
        assert flat.holds(d, phi)[0], (d.format(), format_formula(phi))
        return
    if isinstance(phi, And):
        for item in phi.items:
            _check_holds_at_samples(g, d, item, opts, rng, flat)
        return
    r = evaluate(g, d, phi, opts)
    assert r.verdict != FAILS, (d.format(), format_formula(phi))
    if isinstance(phi, Enforce) and r.verdict == HOLDS and r.certified:
        pi1 = MixedAction({s: {a: parse_rational(p) for a, p in lot.items()}
                           for s, lot in r.witness["pi1"].items()}, 1)
        for i in range(3):
            pi2 = _mixed_response(rng, g, d.support(), uniform=i == 0)
            _check_holds_at_samples(g, step_mixed_dist(g, d, pi1, pi2), phi.body, opts, rng, flat)


def test_certified_enforce_over_a_nested_enforce_holds_against_mixed_responses():
    """`<1>` keeps convexity, so `<1> psi` with ``psi`` convex and holding a
    `<1>` is certified when a grid lottery wins against every pure
    response. At each such witness, on seeded models (a third of them
    deterministic, whose mixed successors are not points), rational mixed
    player-2 responses are sampled: the body is never refuted there, and
    the flat LP confirms it wherever it is flat, recursively through `&`
    and certified `<1>`."""
    opts = EvalOptions(pi1_grid=2)
    certified = 0
    for seed in range(200):
        rng = random.Random(seed)
        g = random_model(rng, n_states=3, n_props=2, point_rows=seed % 3 == 0)
        d = (random_distribution(rng, g.states, max_den=4) if seed % 2
             else Distribution.point(rng.choice(g.states)))
        body = _convex_formula(rng, g.props, 2)
        phi = Enforce(body if not body.flat else Enforce(body))
        r = evaluate(g, d, phi, opts)
        if r.verdict == HOLDS and r.certified:
            assert phi.body.convex and not phi.body.flat
            certified += 1
            _check_holds_at_samples(g, d, phi, opts, rng, _FlatChecker(g))
    assert certified >= 20, certified


@SETTINGS
@given(formulas(bound=("W",)), st.booleans())
def test_int_and_fraction_weights_give_one_node(phi, int_first):
    """Either construction order gives one node whose weight is a Fraction:
    a later equal construction never overwrites the stored fields."""
    first, second = (1, Fraction(1)) if int_first else (Fraction(1), 1)
    node = ProbSum(((first, phi),))
    assert ProbSum(((second, phi),)) is node
    assert type(node.parts[0][0]) is Fraction


BOUNDED = EvalOptions(unfold_bound=2, pi1_grid=2, split_denominator=2)
HALVING = load_fixture_model("halving.pgs")


@st.composite
def eval_instances(draw):
    g = draw(st.sampled_from([HALVING, None])) or draw(games(sizes=(2, 3)))
    phi = draw(formulas().filter(lambda phi: not phi.flat))  # flat ones: see above
    return g, draw(distributions(g.states, st.integers(0, 2))), phi


@settings(SETTINGS, max_examples=100)
@given(eval_instances())
@example((parse_model(REACH), Distribution.point("s"), parse_formula("<1> g")))
def test_certified_fails_are_never_contradicted_by_brute_eval(instance):
    """Beyond the flat fragment (`<1>`, fixpoints): every `fails` inside the
    evaluator is certified, and no certified `fails` stands where the
    oracle's own grid search finds that the formula holds. In the example,
    player 1's first lottery (`stay`) misses the goal and `go` reaches it:
    a `<1>` that took one failing lottery for a refutation would fail."""
    g, d, phi = instance
    result = evaluate(g, d, phi, BOUNDED)
    if result.verdict != "fails":
        return
    assert result.certified
    try:
        brute = brute_eval(g, d, phi, BOUNDED, budget=20_000)
    except OracleBudgetError:
        return
    assert brute.verdict != "holds"


class _FullGridEvaluator(Evaluator):
    """The split search over every per-state composition, in grid order,
    with no pruning: each assignment whose component masses match the
    weights has its components evaluated in order up to the first that does
    not hold."""

    def _split_grid(self, d, parts):
        q = self.opts.split_denominator
        states = sorted(d.support(), key=self.g.index.get)
        comps = list(prob.compositions(q, len(parts)))
        for assignment in itertools.product(comps, repeat=len(states)):
            shares = [
                {s: d[s] * Fraction(c[j], q) for s, c in zip(states, assignment) if c[j]}
                for j in range(len(parts))
            ]
            if any(sum(share.values()) != w for share, (w, _) in zip(shares, parts)):
                continue
            dists = [Distribution({s: m / w for s, m in share.items()})
                     for share, (w, _) in zip(shares, parts)]
            results = []
            for dist, (_, item) in zip(dists, parts):
                results.append(self.eval(dist, item))
                if results[-1].verdict != HOLDS:
                    break
            else:
                return dists, results
        return None


@settings(SETTINGS, max_examples=100)
@given(eval_instances())
@example((parse_model(REACH), Distribution.point("s"), parse_formula("sum{1/2: <1> g, 1/2: true}")))
def test_split_search_skips_only_splits_that_cannot_hold(instance):
    """Every node that holds at a distribution, certified or not, holds
    only where its support lies in the node's allowed states. So the split
    search, which skips the splits that give a component mass outside its
    item's allowed states, returns the full grid's result, from evaluations
    the full grid makes too. In the example, `<1> g` holds at s, where `g`
    cannot carry mass: a `<1>` allows every state."""
    g, d, phi = instance
    ev, full = Evaluator(g, BOUNDED), _FullGridEvaluator(g, BOUNDED)
    assert repr(ev.eval(d, phi)) == repr(full.eval(d, phi))
    assert ev._memo.keys() <= full._memo.keys()
    for (dist, psi), r in [*ev._memo.items(), *full._memo.items()]:
        if r.verdict == HOLDS:
            assert ev.flat._allowed(psi).issuperset(dist.support()), (dist, psi)


@st.composite
def split_instances(draw):
    """Pinned-weight sums of literals and `true` on a fixture model: a
    literal that holds at several states leaves many splits, so the flat
    checker's LP has many vertices."""
    g = FLAT_MODELS[draw(st.sampled_from(sorted(FLAT_MODELS)))]
    leaves = [TRUE] + [lit(p) for p in g.props for lit in (Prop, NegProp)]
    items = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=3))
    weights = [draw(st.integers(1, 3)) for _ in items]
    phi = ProbSum((Fraction(w, sum(weights)), i) for w, i in zip(weights, items))
    return g, draw(distributions(g.states, st.integers(0, 3))), phi


@st.composite
def permuted_instances(draw):
    """A ``split_instances``, ``flat_instances`` or ``eval_instances``
    instance, with its distribution's entries also in a drawn order."""
    g, d, phi = draw(st.one_of(split_instances(), flat_instances(), eval_instances()))
    return g, d, Distribution(dict(draw(st.permutations(list(d.entries.items()))))), phi


@settings(SETTINGS, max_examples=150)
@given(permuted_instances())
def test_results_do_not_depend_on_entry_order(instance):
    """A distribution is a function from states to masses, so its entries
    in another order give the same verdict, witness and counterexample."""
    g, d, permuted, phi = instance
    assert repr(evaluate(g, permuted, phi, BOUNDED)) == repr(evaluate(g, d, phi, BOUNDED))


class _RebuildingEvaluator(Evaluator):
    """The evaluator without its successor cache: every `<1>` request builds
    its successor afresh from the table entries."""

    def step(self, d, states, lots, acts):
        self._built += 1
        parts = [(d.nums[s], self._succ[s, i, j]) for s, i, j in zip(states, lots, acts)]
        return combine_ints(parts, d.den)


@st.composite
def enforce_instances(draw):
    """`<1>` and fixpoint formulas at unfold bounds up to 2 and player-1
    grids 1-3."""
    g = draw(games(sizes=(2, 3)))
    kind = draw(st.sampled_from(["<1>", "mu", "nu"]))
    if kind == "<1>":
        phi = Enforce(draw(formulas(depth=2)))
    else:
        var = draw(st.sampled_from("XYZ"))
        phi = {"mu": Mu, "nu": Nu}[kind](var, draw(formulas((var,), depth=2)))
    opts = EvalOptions(
        unfold_bound=draw(st.integers(0, 2)),
        pi1_grid=draw(st.integers(1, 3)),
        split_denominator=2,
    )
    return g, draw(distributions(g.states, st.integers(0, 2))), phi, opts


@settings(SETTINGS, max_examples=100)
@given(enforce_instances())
def test_successor_cache_matches_rebuilding_every_successor(instance):
    """Sharing one successor per (distribution, table entries) key changes
    no result, witness or request count, nor which distribution and
    subformula pairs are evaluated and to what."""
    g, d, phi, opts = instance
    cached, rebuilt = Evaluator(g, opts), _RebuildingEvaluator(g, opts)
    assert repr(cached.eval(d, phi)) == repr(rebuilt.eval(d, phi))
    assert cached._built == rebuilt._built
    assert cached._memo == rebuilt._memo


class _FullScanEvaluator(Evaluator):
    """The evaluator whose `<1>` evaluates every grid lottery per support
    state against every pure response, blind players or not."""

    def _enforce(self, d, body):
        g = self.g
        states = sorted(d.support(), key=self.g.index.get)
        lotteries = self._succ.lotteries
        vertices = list(itertools.product(range(len(g.acts2)), repeat=len(states)))
        refutable = len(g.acts1) == 1
        for combo in itertools.product(range(len(lotteries)), repeat=len(states)):
            results = []
            rejected = False
            for sigma in vertices:
                theta = self.step(d, states, combo, sigma)
                r = self.eval(theta, body)
                results.append(r)
                if r.verdict != HOLDS:
                    if refutable and r.verdict == FAILS:
                        counterexample = {
                            "sigma2": {s: g.acts2[j] for s, j in zip(states, sigma)},
                            "reached": theta.format(),
                            "counterexample": r.counterexample,
                        }
                        return _fails(counterexample, r.bound_used)
                    rejected = True
                    if not refutable:
                        break
            if not rejected:
                certified, bound = _joint(results)
                witness = {
                    "pi1": {
                        s: {a: format_rational(p) for a, p in lotteries[i].items()}
                        for s, i in zip(states, combo)
                    },
                    "vertices": len(results),
                }
                return _holds(witness, body.convex and certified, bound)
        return _unknown()


def _reordered(dist):
    """``dist`` with its entries in reverse order: equal, but not entry for
    entry."""
    return Distribution(dict(reversed(list(dist.entries.items()))))


@st.composite
def blind_games(draw):
    """Models of 2-3 states with 1-2 player-1 and 2-3 player-2 actions
    whose states are often blind for one player or both: the row of a
    blind player repeats for each of its actions, at times with the
    entries of a repeat in another order, which changes nothing."""
    states = [f"q{i}" for i in range(draw(st.integers(2, 3)))]
    acts1 = ["a0", "a1"][: draw(st.integers(1, 2))]
    acts2 = ["b0", "b1", "b2"][: draw(st.integers(2, 3))]
    labels = {s: ["p"] for s in states if draw(st.booleans())}
    dists = distributions(states, st.sampled_from([0, 0, 1, 2]))
    table = {}
    for s in states:
        kind = draw(st.sampled_from(["free", "blind1", "blind2", "both"]))
        shared = {b: draw(dists) for b in acts2}  # blind1: one row per b
        shared.update({a: draw(dists) for a in acts1})  # blind2: one row per a
        point = draw(dists)
        for a in acts1:
            for b in acts2:
                dist = {"free": None, "blind1": shared[b], "blind2": shared[a], "both": point}[kind]
                dist = draw(dists) if dist is None else dist
                if (a, b) != (acts1[0], acts2[0]) and draw(st.integers(0, 3)) == 0:
                    dist = _reordered(dist)
                table[s, a, b] = dist
    return GameStructure("blind", states, states[0], ["p"], labels, acts1, acts2, table)


@st.composite
def blind_instances(draw):
    """`<1>` and fixpoint formulas over `<1>` on ``blind_games``, at
    unfold bounds up to 2 and player-1 grids 1-3. Half the `<1>` bodies
    hold everywhere, so that the scan reaches every vertex, or are a
    literal, so that it often stops at a later one."""
    g = draw(blind_games())
    kind = draw(st.sampled_from(["<1>", "<1><1>", "mu", "nu"]))
    if kind.startswith("<1>"):
        simple = st.sampled_from([TRUE, Or((Prop("p"), NegProp("p"))), Prop("p"), NegProp("p")])
        phi = Enforce(draw(st.one_of(formulas(depth=2), simple)))
        phi = Enforce(phi) if kind == "<1><1>" else phi
    else:
        body = draw(formulas(("X",), depth=2))
        body = draw(st.sampled_from([Or, And]))((body, Enforce(Var("X"))))
        phi = {"mu": Mu, "nu": Nu}[kind]("X", body)
    opts = EvalOptions(
        unfold_bound=draw(st.integers(0, 2)),
        pi1_grid=draw(st.integers(1, 3)),
        split_denominator=2,
    )
    return g, draw(distributions(g.states, st.integers(0, 3))), phi, opts


def _ordered(dist):
    return dist.den, list(dist.nums.items())


@settings(SETTINGS, max_examples=100)
@given(blind_instances())
def test_enforce_classes_match_the_full_scan(instance):
    """Evaluating one lottery and one response per class of choices a blind
    player has changes no result or witness, no split count, and neither
    which successors are built, entry for entry and in which order, nor
    which distribution and subformula pairs are evaluated and to what. It
    makes no more requests than the full scan. The full scan reads its own
    copy of the model, so that each fills its own successor table."""
    g, d, phi, opts = instance
    copy = GameStructure(g.name, g.states, g.init, g.props, g.labels, g.acts1, g.acts2, g.table)
    ev, full = Evaluator(g, opts), _FullScanEvaluator(copy, opts)
    assert repr(ev.eval(d, phi)) == repr(full.eval(d, phi))
    assert ev._built <= full._built
    assert ev._tried == full._tried
    assert [(_ordered(k[0]), k[1]) for k in ev._successors] == [
        (_ordered(k[0]), k[1]) for k in full._successors
    ]
    assert [_ordered(e) for e in dict.fromkeys(ev._succ.values())] == [
        _ordered(e) for e in dict.fromkeys(full._succ.values())
    ]
    assert [(_ordered(k[0]), k[1], r) for (k, r) in ev._memo.items()] == [
        (_ordered(k[0]), k[1], r) for (k, r) in full._memo.items()
    ]


# Player 1 is blind at q1 alone, which lies between the free q0 and q2.
BLIND_MIDDLE = """model blind_middle
states: q0 q1 q2 t    init: q0
props: p
label t: p
actions1: a b
actions2: x y
trans q0 (a,x): t=1
trans q0 (a,y): q1=1
trans q0 (b,x): q2=1
trans q0 (b,y): t=1
trans q1 (a,x): t=1
trans q1 (b,x): t=1
trans q1 (a,y): q0=1
trans q1 (b,y): q0=1
trans q2 (a,x): q0=1
trans q2 (a,y): t=1
trans q2 (b,x): t=1
trans q2 (b,y): q1=1
absorb t
"""


def _outcome(ev, d, phi):
    """The result and request count of ``ev`` at ``d``, or the budget
    message it raised; then the successors built and the memo, in order."""
    try:
        outcome = (repr(ev.eval(d, phi)), ev._built)
    except EvalBudgetError as e:
        outcome = str(e)
    successors = [(_ordered(k[0]), k[1]) for k in ev._successors]
    memo = [(_ordered(k[0]), k[1], r) for (k, r) in ev._memo.items()]
    return outcome, successors, memo


@settings(SETTINGS, max_examples=100)
@given(blind_instances(), st.integers(0, 1000))
@example(
    (
        parse_model(BLIND_MIDDLE),
        parse_distribution("q0:1/3,q1:1/3,q2:1/3"),
        Enforce(Prop("p")),
        EvalOptions(pi1_grid=1),
    ),
    400,
)
def test_enforce_budget_trips_exactly_where_the_work_passes_it(instance, permille):
    """Under a budget anywhere from 0 to the full scan's request count, the
    class scan raises exactly when its own unbudgeted request count passes
    the budget, else returns its unbudgeted result at that count. Where the
    full scan completes under the budget, the result is the full scan's.
    The successors and memo built so far are, in order, a prefix of the
    unbudgeted run's. In the example the full scan makes 10 requests and
    the class scan 5, over its four combos (a, a, a) to (b, a, b), and the
    budget of 4 trips at the last."""
    g, d, phi, opts = instance
    reference = _FullScanEvaluator(g, opts)
    reference.eval(d, phi)
    budget = reference._built * permille // 1000
    (result, work), successors, memo = _outcome(Evaluator(g, opts), d, phi)
    with mock.patch("pags.logic.ENFORCE_BUDGET", budget):
        ours, our_successors, our_memo = _outcome(Evaluator(g, opts), d, phi)
        theirs, _, _ = _outcome(_FullScanEvaluator(g, opts), d, phi)
    if work > budget:
        assert ours == (
            f"<1> built {budget + 1} successor distributions, over the budget of {budget}"
        )
    else:
        assert ours == (result, work)
    if not isinstance(theirs, str):
        assert ours[0] == theirs[0]
    assert our_successors == successors[: len(our_successors)]
    assert our_memo == memo[: len(our_memo)]


@settings(SETTINGS, max_examples=100)
@given(blind_games())
def test_models_round_trip_with_their_blindness(g):
    """Serializing and reparsing gives an equal model, and each player stays
    blind where it was, also where a repeated row lists its entries in
    another order."""
    h = parse_model(serialize_model(g))
    assert h == g
    assert h.blind == g.blind


class _EagerEvaluator(Evaluator):
    """The evaluator whose `&` and `|` evaluate every child before they look
    at any verdict."""

    def _combine_or(self, d, phi):
        results = [self.eval(d, item) for item in phi.items]
        _, bound = _joint(results)
        holding = [i for i, r in enumerate(results) if r.verdict == HOLDS]
        if holding:
            i = next((i for i in holding if results[i].certified), holding[0])
            r = results[i]
            return _holds({"disjunct": i, "witness": r.witness}, r.certified, bound)
        if all(r.verdict == FAILS for r in results):
            return _fails([r.counterexample for r in results], bound)
        return _unknown(bound)

    def _combine_and(self, d, phi):
        results = [self.eval(d, item) for item in phi.items]
        certified, bound = _joint(results)
        for i, r in enumerate(results):
            if r.verdict == FAILS:
                return _fails({"conjunct": i, "counterexample": r.counterexample}, bound)
        if all(r.verdict == HOLDS for r in results):
            return _holds({"conjuncts": len(results)}, certified, bound)
        return _unknown(bound)


@st.composite
def junction_instances(draw):
    """`&` and `|` whose first item is a literal, which often decides, or
    `<1> (true | p)`, which holds uncertified, and whose later items hold
    `<1>`, `sum`, `mix` or a fixpoint, or are `nu X. l & <1> X` for a
    literal l, which fails wherever the distribution has mass off l; at
    times in another order, and at times under a `<1>`, `sum` or fixpoint
    itself."""
    g = draw(games(sizes=(2, 3)))
    uncertified = Enforce(Or((TRUE, Prop("p"))))
    first = draw(st.sampled_from([Prop("p"), NegProp("p"), TRUE, FALSE, uncertified]))
    later = []
    kinds = ["<1>", "sum", "mix", "mu", "nu", "fails"]
    # A `|` fails only when every item does, so at times every later item
    # is of the kind that can.
    kinds = st.sampled_from(kinds if draw(st.booleans()) else ["fails"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=2)):
        if kind == "fails":
            literal = draw(st.sampled_from([Prop("p"), NegProp("p")]))
            later.append(Nu("X", And((literal, Enforce(Var("X"))))))
        elif kind in ("mu", "nu"):
            later.append({"mu": Mu, "nu": Nu}[kind]("X", draw(formulas(("X",), depth=2))))
        elif kind == "<1>":
            later.append(Enforce(draw(formulas(depth=1))))
        else:
            a, b = draw(formulas(depth=1)), draw(formulas(depth=1))
            pair = ProbSum(((Fraction(1, 3), a), (Fraction(2, 3), b))) if kind == "sum" else Mix((a, b))
            later.append(pair)
    items = draw(st.permutations([first] + later)) if draw(st.booleans()) else [first] + later
    phi = draw(st.sampled_from([And, Or]))(items)
    wrap = draw(st.sampled_from(["", "<1>", "sum", "mu"]))
    if wrap == "<1>":
        phi = Enforce(phi)
    elif wrap == "sum":
        phi = ProbSum(((Fraction(1, 2), phi), (Fraction(1, 2), Or((Prop("p"), phi)))))
    elif wrap == "mu":
        phi = Mu("Z", Or((phi, Enforce(Var("Z")))))
    return g, draw(distributions(g.states, st.integers(0, 2))), phi


@settings(SETTINGS, max_examples=60)
@given(junction_instances())
def test_junctions_stop_at_their_deciding_child_with_the_same_result(instance):
    """Skipping the children after the deciding one changes no verdict,
    certification, witness or counterexample, and can only lower the bound;
    each evaluation made is one the eager evaluator makes too, with the same
    result apart from the bound; and every `fails` is certified."""
    g, d, phi = instance
    lazy, eager = Evaluator(g, BOUNDED), _EagerEvaluator(g, BOUNDED)
    lazy.eval(d, phi), eager.eval(d, phi)
    assert lazy._memo.keys() <= eager._memo.keys()
    for key, r in lazy._memo.items():
        e = eager._memo[key]
        assert replace(r, bound_used=0) == replace(e, bound_used=0)
        assert r.bound_used <= e.bound_used
    assert lazy._built <= eager._built
    for r in [*lazy._memo.values(), *eager._memo.values()]:
        assert r.verdict != FAILS or r.certified

