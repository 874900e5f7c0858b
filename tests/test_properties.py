"""Property tests: the exact LP core, lifting, simulation (its copy
strategy for reflexive pairs against the step LP), the flat
formula encoder, the strategy modality's successors and the bounded
evaluator's certified verdicts against their oracles, the integer
distribution sum against a plain ``Fraction`` sum, the interned formula
nodes against plain recursion, the evaluator's successor cache against
rebuilding every successor, its `<1>`, which evaluates one choice per class
of a blind player's choices, against scanning every choice, and its `&` and
`|`, which stop at their deciding child, against evaluating every child."""

import itertools
from dataclasses import replace
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from pags import load_fixture_model
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
    EvalOptions,
    Evaluator,
    _fails,
    _holds,
    _joint,
    _unknown,
    evaluate,
)
from pags.model import GameStructure
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


@st.composite
def retyped_problems(draw):
    """An LP from ``linear_problems``, and the same LP with every coefficient
    and right-hand side given as an ``int`` (when integral), a ``Fraction``
    or an ``"n/d"`` string; some rows gain an explicit zero coefficient."""
    n, rows, _ = draw(linear_problems())

    def retype(v):
        forms = [v, f"{v.numerator}/{v.denominator}"] + ([int(v)] if v.denominator == 1 else [])
        return draw(st.sampled_from(forms))

    exact, mixed = [], []
    for coeffs, sense, rhs in rows:
        if draw(st.booleans()):
            coeffs = {**coeffs, draw(st.integers(0, n - 1)): Fraction(0)}
        exact.append((coeffs, sense, rhs))
        mixed.append(({j: retype(c) for j, c in coeffs.items()}, sense, retype(rhs)))
    return n, exact, mixed


@settings(SETTINGS, max_examples=100)
@given(retyped_problems())
def test_lp_point_does_not_depend_on_coefficient_types(problem):
    n, exact, mixed = problem
    points = []
    for rows in (exact, mixed):
        lp = LinearProblem()
        lp.cols(n)
        for coeffs, sense, rhs in rows:
            lp.add(coeffs, sense, rhs)
        points.append(lp_feasible(lp))
    assert points[0] == points[1]


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
    """``<1>`` builds each successor from its per-state table entries; it
    must equal ``step_mixed_dist`` entry for entry, in the same order, since
    the support order fixes the flat checker's LP columns."""
    g, k, d, states, lots, vertices = instance
    lotteries = grid_lotteries(g.acts1, k)
    ev = Evaluator(g, EvalOptions(pi1_grid=k))
    for acts in vertices:
        pi1 = MixedAction({s: lotteries[i] for s, i in zip(states, lots)}, 1)
        sigma = MixedAction({s: {g.acts2[j]: 1} for s, j in zip(states, acts)}, 2)
        expected = step_mixed_dist(g, d, pi1, sigma)
        theta = ev.step(d, states, lots, acts)
        assert list(theta.entries.items()) == list(expected.entries.items())
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
    convex = isinstance(phi, (And, Mix, ProbSum)) and all(c for _, c, _ in refs)
    return flat, convex, free


@SETTINGS
@given(formulas(bound=("W",)))
def test_cached_fragments_match_a_recursive_reference(phi):
    assert (phi.flat, phi.convex, phi.free) == _reference(phi)
    assert (is_flat(phi), convex_safe(phi)) == (phi.flat, phi.convex)


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
def test_certified_fails_are_never_contradicted_by_brute_eval(instance):
    """Beyond the flat fragment (`<1>`, fixpoints): every `fails` inside the
    evaluator is certified, and no certified `fails` stands where the
    oracle's own grid search finds that the formula holds."""
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


class _RebuildingEvaluator(Evaluator):
    """The evaluator without its successor cache: every `<1>` request builds
    its successor afresh from the table entries."""

    def step(self, d, states, lots, acts, order=None):
        self._built += 1
        if order is None:
            order = sorted(range(len(states)), key=states.__getitem__)
        parts = [(d.nums[states[k]], self._succ.get(states[k], lots[k], acts[k])) for k in order]
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
        states = sorted(d.support(), key=self._order.get)
        order = sorted(range(len(states)), key=states.__getitem__)
        lotteries = self._succ.lotteries
        vertices = list(itertools.product(range(len(g.acts2)), repeat=len(states)))
        refutable = len(g.acts1) == 1
        for combo in itertools.product(range(len(lotteries)), repeat=len(states)):
            results = []
            rejected = False
            for sigma in vertices:
                theta = self.step(d, states, combo, sigma, order)
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
    entries of a repeat in another order, which that player does change."""
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
    player has changes no result or witness, no request count, and neither
    which successors are built, entry for entry and in which order, nor
    which distribution and subformula pairs are evaluated and to what."""
    g, d, phi, opts = instance
    ev, full = Evaluator(g, opts), _FullScanEvaluator(g, opts)
    assert repr(ev.eval(d, phi)) == repr(full.eval(d, phi))
    assert (ev._built, ev._tried) == (full._built, full._tried)
    assert [(_ordered(k[0]), k[1]) for k in ev._successors] == [
        (_ordered(k[0]), k[1]) for k in full._successors
    ]
    assert [_ordered(e) for e in ev._succ.entries] == [_ordered(e) for e in full._succ.entries]
    assert [(_ordered(k[0]), k[1], r) for (k, r) in ev._memo.items()] == [
        (_ordered(k[0]), k[1], r) for (k, r) in full._memo.items()
    ]


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

