"""Formula grammar, the bounded evaluator, and characteristic formulas."""

import gc
import weakref
from fractions import Fraction

import pytest

from pags import load_fixture_model
from pags.formula import (
    FALSE,
    TRUE,
    And,
    Enforce,
    FormulaError,
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
    substitute,
    unfold_fixpoint,
)
from pags.logic import (
    CharFormulaBuilder,
    EvalOptions,
    Evaluator,
    char_formula_dist,
    char_formula_state,
    enforce_check,
    evaluate,
    logic_preorder,
    mix_check,
    split_check,
)
from pags.model import ModelError, parse_model
from pags.oracle import brute_eval
from pags.prob import Distribution, Relation, lp_feasible, parse_distribution
from pags.sim import QuantStrategy, pa_simulation, refine_once


# -- grammar -----------------------------------------------------------------

def test_parse_precedence():
    phi = parse_formula("a | b & c")
    assert isinstance(phi, Or)
    assert isinstance(phi.items[1], And)


def test_parse_enforce_and_fixpoints():
    phi = parse_formula("nu X. (mu Y. go | <1> Y) & <1> X")
    assert isinstance(phi, Nu)
    inner = phi.body.items[0]
    assert isinstance(inner, Mu)


def test_parse_sum_weights_checked():
    with pytest.raises(FormulaError, match="total"):
        parse_formula("sum{1/2: a, 1/3: b}")
    with pytest.raises(FormulaError, match="positive"):
        parse_formula("sum{0: a, 1: b}")


def test_parse_frag_desugars():
    phi = parse_formula("frag{3/4: win}")
    assert isinstance(phi, ProbSum)
    assert [w for w, _ in phi.parts] == [Fraction(3, 4), Fraction(1, 4)]
    assert phi.parts[1][1] == TRUE
    assert parse_formula("frag{1: win}") == ProbSum(((Fraction(1), Prop("win")),))


def test_parse_rejects_unbound_variable():
    with pytest.raises(FormulaError, match="unbound"):
        parse_formula("mu Z. a | X")


def test_parse_rejects_negated_variable():
    with pytest.raises(FormulaError):
        parse_formula("!X")


def test_roundtrip_suite():
    cases = [
        "a & b | c",
        "<1> (a | b)",
        "sum{1/3: a, 2/3: true}",
        "mix{a, b & c}",
        "mu Z. (cashin & frag{3/4: profit}) | <1> Z",
        "nu X. (mu Y. cashin | <1> Y) & <1> X",
        "(mu Z. a | <1> Z) | b",
    ]
    for text in cases:
        phi = parse_formula(text)
        assert parse_formula(format_formula(phi)) == phi


def test_unfold_base_cases():
    mu = parse_formula("mu Z. a | <1> Z")
    nu = parse_formula("nu X. a & <1> X")
    assert unfold_fixpoint(mu, 0) == FALSE
    assert unfold_fixpoint(nu, 0) == TRUE
    assert unfold_fixpoint(mu, 1) == Or((Prop("a"), Enforce(FALSE)))


def test_unfold_substitutes_through_sum_and_nested_fixpoint():
    half = Fraction(1, 2)
    phi = parse_formula("nu X. !p & sum{1/2: X, 1/2: X}")
    one = And((NegProp("p"), ProbSum(((half, TRUE), (half, TRUE)))))
    assert unfold_fixpoint(phi, 1) == one
    assert unfold_fixpoint(phi, 2) == And((NegProp("p"), ProbSum(((half, one), (half, one)))))

    psi = parse_formula("mu X. nu Y. (win1 & <1> Y) | <1> X")
    keep = And((Prop("win1"), Enforce(Var("Y"))))
    one = Nu("Y", Or((keep, Enforce(FALSE))))
    assert unfold_fixpoint(psi, 1) == one
    two = unfold_fixpoint(psi, 2)
    assert two == Nu("Y", Or((keep, Enforce(one))))
    assert two.body.items[0] is psi.body.body.items[0]  # no X free: kept, not rebuilt


def test_unfold_requires_fixpoint():
    with pytest.raises(FormulaError):
        unfold_fixpoint(Prop("a"), 1)


def test_convex_safe_fragment():
    assert convex_safe(parse_formula("a & !b"))
    assert convex_safe(parse_formula("sum{1/2: a, 1/2: mix{a, b}}"))
    assert not convex_safe(parse_formula("a | b"))
    assert convex_safe(parse_formula("<1> a"))
    assert convex_safe(parse_formula("<1> (a & <1> !b)"))
    assert not convex_safe(parse_formula("<1> (a | b)"))


def test_is_flat():
    assert is_flat(parse_formula("mix{a | b, sum{1/2: a, 1/2: true}}"))
    assert not is_flat(parse_formula("<1> a"))
    assert not is_flat(parse_formula("mu Z. a | <1> Z"))


# -- exact flat evaluation ---------------------------------------------------

def test_literals_exact(rps):
    d = parse_distribution("s1:1")
    assert evaluate(rps, d, parse_formula("win1")).verdict == "holds"
    assert evaluate(rps, d, parse_formula("!win1")).verdict == "fails"
    mixed = parse_distribution("s1:1/2,s2:1/2")
    r = evaluate(rps, mixed, parse_formula("win1"))
    assert r.verdict == "fails" and r.certified


def test_or_is_not_per_state(dup):
    # Half the mass satisfies only pa, half only pb: the union denotation
    # contains neither disjunct's members, so the disjunction fails.
    d = parse_distribution("x:1/2,y:1/2")
    r = evaluate(dup, d, parse_formula("pa | pb"))
    assert r.verdict == "fails" and r.certified
    r2 = evaluate(dup, d, parse_formula("sum{1/2: pa, 1/2: pb}"))
    assert r2.verdict == "holds" and r2.certified


def test_and_and_or_stop_at_their_deciding_child(rps):
    """`&` stops at its first `fails` and `|` at its first certified
    `holds`, also before a later fixpoint, whose unfold bound the result
    then does not report; a `|` that fails is certified."""
    d = parse_distribution("s0:1")
    exact = {"exact": True}
    cases = [
        # `<1> (true | win1)` holds uncertified, as its body is not convex.
        ("<1> (true | win1) | draw | <1> <1> win1", [True, True, False],
         ("holds", True, {"disjunct": 1, "witness": exact}, None, 0)),
        ("win1 & <1> win1", [True, False],
         ("fails", True, None, {"conjunct": 0, "counterexample": exact}, 0)),
        ("win1 & <1> win1 & (mu Z. win1 | <1> Z)", [True, False, False],
         ("fails", True, None, {"conjunct": 0, "counterexample": exact}, 0)),
        # No disjunct holds, so each is evaluated; the fixpoint's bound counts.
        ("win2 | (nu X. win1 & <1> X)", [True, True],
         ("fails", True, None,
          [exact, {"unfold": 1, "counterexample": {"conjunct": 0, "counterexample": exact}}], 1)),
    ]
    for text, evaluated, expected in cases:
        ev = Evaluator(rps, EvalOptions())
        phi = parse_formula(text)
        r = ev.eval(d, phi)
        assert (r.verdict, r.certified, r.witness, r.counterexample, r.bound_used) == expected
        assert [(d, item) in ev._memo for item in phi.items] == evaluated


def test_sum_exact_split(dup):
    d = parse_distribution("x:1/3,y:2/3")
    r = evaluate(dup, d, parse_formula("sum{1/3: pa, 2/3: pb}"))
    assert r.verdict == "holds" and r.certified
    bad = evaluate(dup, d, parse_formula("sum{1/2: pa, 1/2: pb}"))
    assert bad.verdict == "fails" and bad.certified


def test_mix_exact_free_weights(dup):
    for text in ("x:1/3,y:2/3", "x:1", "y:1"):
        r = evaluate(dup, parse_distribution(text), parse_formula("mix{pa, pb}"))
        assert r.verdict == "holds" and r.certified


def test_true_false_constants(rps):
    d = Distribution.point("s0")
    assert evaluate(rps, d, TRUE).verdict == "holds"
    assert evaluate(rps, d, FALSE).verdict == "fails"


def _unsolved(lp):
    raise AssertionError("the flat checker solved an LP")


def test_a_support_outside_the_allowed_states_fails_without_an_lp(rps, monkeypatch):
    """Mass where no variant can carry it refutes the formula before an LP
    is built, and so does a `mix` item that no distribution satisfies."""
    monkeypatch.setattr("pags.logic.lp_feasible", _unsolved)
    spread = parse_distribution("s0:1/3,s1:1/3,s2:1/3")
    cases = [
        (spread, "mix{win1, win2}"),
        (spread, "sum{1/2: draw, 1/2: win1}"),
        (spread, "!win2"),
        (spread, "mix{draw, win1} | win2"),
        (Distribution.point("s0"), "mix{win1 & win2, draw}"),
    ]
    for d, text in cases:
        r = evaluate(rps, d, parse_formula(text))
        assert (r.verdict, r.certified, r.counterexample) == ("fails", True, {"exact": True}), text


def test_a_variant_of_literals_holds_without_an_lp(rps, monkeypatch):
    monkeypatch.setattr("pags.logic.lp_feasible", _unsolved)
    d = parse_distribution("s0:1/2,s1:1/2")
    for text in ("!win2", "true", "!win2 & (win2 | !draw | !win2)"):
        r = evaluate(rps, d, parse_formula(text))
        assert (r.verdict, r.certified, r.witness) == ("holds", True, {"exact": True}), text
    ev = Evaluator(rps, EvalOptions())
    assert ev.flat.sat(parse_formula("win1 & !draw"))
    assert not ev.flat.sat(parse_formula("win1 & win2"))


def test_flat_lps_have_no_literal_rows_and_integer_weight_rows(dup, monkeypatch):
    """A literal removes columns instead of zeroing them, and a pinned weight
    w is the row ``den(w) * component - num(w) * node == 0`` over den(w)."""
    lps = []

    def captured(lp):
        lps.append(lp)
        return lp_feasible(lp)

    monkeypatch.setattr("pags.logic.lp_feasible", captured)
    d = parse_distribution("x:1/3,y:2/3")
    for text in ("sum{1/3: pa, 2/3: pb}", "mix{sum{1/3: pa & !pb, 2/3: pb}, pa & !pb}"):
        assert evaluate(dup, d, parse_formula(text)).verdict == "holds", text
    assert len(lps) == 3  # the `mix` also checks that its `sum` item is satisfiable
    for lp in lps:
        for (coeffs, sense, rhs), den in zip(lp.constraints, lp.dens):
            assert not (sense == "==" and rhs == 0 and len(coeffs) == 1)
            assert all(type(v) is int for v in (*coeffs.values(), rhs, den))
    # Root x, y; a component at x (pa) and one at y (pb); two partition rows.
    assert lps[0].n_vars() == 4
    assert list(zip(lps[0].constraints[4:], lps[0].dens[4:])) == [
        (({2: 3, 0: -1, 1: -1}, "==", 0), 3),
        (({3: 3, 0: -2, 1: -2}, "==", 0), 3),
    ]


# -- bounded routes ----------------------------------------------------------

def test_enforce_rps_can_reach_win(rps):
    d = Distribution.point("s0")
    r = enforce_check(rps, d, parse_formula("sum{1/3: win1, 2/3: true}"),
                      EvalOptions(pi1_grid=3))
    assert r.verdict == "holds"
    assert r.certified


def test_enforce_single_action_refutation(halving):
    # One player-1 action: the reached distribution is forced, so a failing
    # convex body refutes the modality with certainty.
    d = Distribution.point("s0")
    r = enforce_check(halving, d, parse_formula("p"))
    assert r.verdict == "fails" and r.certified
    # A vertex where the body is unknown refutes nothing.
    r = enforce_check(halving, d, parse_formula("mu Z. p | <1> Z"))
    assert r.verdict == "unknown" and not r.certified


def test_split_check_grid_route(rps):
    d = Distribution.point("s1")
    r = split_check(rps, d, [(Fraction(1, 2), parse_formula("<1> win1")),
                             (Fraction(1, 2), parse_formula("win1"))])
    assert r.verdict == "holds"


@pytest.mark.parametrize("check,message", [
    (lambda g, d: split_check(g, d, [(0, Prop("win1")), (1, TRUE)]), "be positive"),
    (lambda g, d: split_check(g, d, [(Fraction(-1, 2), Prop("win1")), (Fraction(3, 2), TRUE)]),
     "be positive"),
    (lambda g, d: evaluate(g, d, ProbSum(((Fraction(1, 2), TRUE),))), "total exactly 1"),
    (lambda g, d: evaluate(g, d, ProbSum(((0, Enforce(Prop("win1"))), (1, TRUE)))), "be positive"),
], ids=["split-zero", "split-negative", "lone-half", "zero-weight-enforce"])
def test_malformed_summation_is_rejected_on_every_route(rps, check, message):
    """The node checks its weights, so neither the exact nor the grid route
    ever sees a malformed summation."""
    with pytest.raises(ValueError, match=f"^sum weights must {message}$") as exc:
        check(rps, parse_distribution("s0:1/2,s1:1/2"))
    assert isinstance(exc.value, FormulaError)


def test_mix_check_nonflat_component(rps):
    d = Distribution.point("s1")
    r = mix_check(rps, d, [parse_formula("<1> win1"), parse_formula("win2")])
    assert r.verdict == "holds"


def test_mu_unknown_stays_unknown(rps):
    d = Distribution.point("s0")
    phi = parse_formula("mu Z. win1 | <1> Z")
    for m in range(5):
        r = evaluate(rps, d, phi, EvalOptions(unfold_bound=m))
        assert r.verdict == "unknown" and not r.certified


def test_mu_holds_with_probability_target(rps):
    d = Distribution.point("s0")
    phi = parse_formula("mu Z. sum{1/3: win1, 2/3: true} | <1> Z")
    r = evaluate(rps, d, phi, EvalOptions(unfold_bound=2, pi1_grid=3))
    assert r.verdict == "holds" and r.bound_used == 2


def test_nu_fails_certified(halving):
    # Always-p fails immediately: s0 is not labeled.
    d = Distribution.point("s0")
    phi = parse_formula("nu X. p & <1> X")
    r = evaluate(halving, d, phi)
    assert r.verdict == "fails" and r.certified


def test_open_formula_rejected(rps):
    from pags.logic import evaluate as ev
    with pytest.raises(FormulaError):
        ev(rps, Distribution.point("s0"), Var("X"))


def test_too_deep_a_formula_is_a_formula_error(single):
    """Nesting deeper than the evaluator's or the printer's recursion allows
    is refused with the parser's message, not a `RecursionError`."""
    phi = Prop("p")
    for _ in range(3000):
        phi = Enforce(phi)
    with pytest.raises(FormulaError, match="^formula is nested too deeply$"):
        evaluate(single, Distribution.point("s0"), phi)
    with pytest.raises(FormulaError, match="^formula is nested too deeply$"):
        format_formula(phi)


def test_too_deep_a_characteristic_formula_is_a_formula_error():
    """A depth past the recursion limit is refused by the characteristic
    formula builders and the logic preorder with the parser's message, not
    a `RecursionError`. Each call gets a model of its own, as the formulas
    a refused call built stay on its model. The preorder builds its levels
    in turn, so it recurses deeply only along a long chain of states."""
    chain = "".join(
        ["model chain\nstates: ", " ".join(f"c{i}" for i in range(400)),
         "    init: c0\nprops:\nactions1: a\nactions2: b\nabsorb c399\n"]
        + [f"trans c{i} (a,b): c{i + 1}=1\n" for i in range(399)]
    )
    calls = [
        lambda: char_formula_state(load_fixture_model("dup.pgs"), "u", 300, 1),
        lambda: char_formula_dist(load_fixture_model("dup.pgs"), Distribution.point("u"), 300, 1),
        lambda: logic_preorder(parse_model(chain), "c0", "c1", 300, 1),
    ]
    for call in calls:
        with pytest.raises(FormulaError, match="^formula is nested too deeply$"):
            call()


def test_unfolding_is_a_loop_and_too_deep_a_body_a_formula_error():
    """Each approximant is substituted into the body in turn, so a high
    bound over a shallow body unfolds, and a body nested deeper than
    substitution's recursion allows is refused with the parser's message."""
    approx = unfold_fixpoint(parse_formula("mu X. p | <1> X"), 3000)
    for _ in range(3000):
        assert approx.items[0] is Prop("p")
        approx = approx.items[1].body
    assert approx is FALSE
    body = Var("X")
    for _ in range(3000):
        body = Enforce(body)
    with pytest.raises(FormulaError, match="^formula is nested too deeply$"):
        unfold_fixpoint(Mu("X", body), 1)


def test_substituting_into_too_deep_a_body_is_a_formula_error():
    """``substitute`` called on its own refuses a body nested past the
    recursion limit with the parser's message, not a ``RecursionError``."""
    body = Var("X")
    for _ in range(3000):
        body = Enforce(body)
    with pytest.raises(FormulaError, match="^formula is nested too deeply$"):
        substitute(body, "X", Prop("p"))
    shallow = Enforce(Enforce(Var("X")))
    assert substitute(shallow, "X", Prop("p")) is Enforce(Enforce(Prop("p")))


def test_a_models_tables_die_with_the_model():
    """The model keeps the table an evaluator read past the evaluator, and
    no reference cycle holds the table, so it is freed with the model
    without the cyclic collector."""
    g = load_fixture_model("rps.pgs")
    gc.disable()
    try:
        ev = Evaluator(g, EvalOptions())
        ev.eval(Distribution.point("s0"), parse_formula("<1> <1> win1"))
        table = weakref.ref(ev._succ)
        del ev
        assert table() is g.successors(2)
        del g
        assert table() is None
    finally:
        gc.enable()


def test_the_witness_pool_is_the_models_and_dies_with_it():
    """The zero-weight `mix` candidates hold every point, then the grid
    table's entries in (s, i, j) order, without repeats. The first
    evaluation that needs them builds them on the model's table, a second
    evaluation reads the same list, and no reference cycle holds the table,
    so it is freed with the model without the cyclic collector."""
    g = load_fixture_model("rps.pgs")
    table = g.successors(2)
    phi = parse_formula("mix{win1, <1> win1}")
    assert "pool" not in vars(table)
    evaluate(g, Distribution.point("s0"), phi)
    pool = vars(table)["pool"]
    points = [Distribution.point(t) for t in g.states]
    entries = [table[t, i, j] for t in g.states
               for i in range(len(table.lotteries)) for j in range(len(g.acts2))]
    assert pool == list(dict.fromkeys(points + entries))
    evaluate(g, Distribution.point("s1"), phi)
    assert table.pool is pool
    gc.disable()
    try:
        table = weakref.ref(table)
        del g
        assert table() is None
    finally:
        gc.enable()


def test_the_engines_read_the_models_successor_tables():
    """The simulation rounds, the evaluator and the characteristic formulas
    read the model's one table per grid, and a second evaluation of the
    same query on the same model builds no table entry."""
    g = load_fixture_model("dup.pgs")
    pa_simulation(g, QuantStrategy.grid(2))
    table = g.successors(2)
    assert len(table) > 0  # only the rounds have read the model so far
    assert Evaluator(g, EvalOptions(pi1_grid=2))._succ is table
    assert CharFormulaBuilder(g, 2)._succ is table
    assert g.successors(1) is not table
    query = (g, Distribution.point("u"), parse_formula("<1> <1> pa"), EvalOptions(pi1_grid=3))
    evaluate(*query)
    built = len(g.successors(3))
    evaluate(*query)
    assert 0 < built == len(g.successors(3))


@pytest.mark.parametrize("call", [
    lambda g: evaluate(g, Distribution({"zz": 1}), TRUE),
    lambda g: evaluate(g, Distribution({"zz": 1}), Enforce(TRUE)),
    lambda g: Evaluator(g, EvalOptions()).eval(Distribution({"zz": 1}), TRUE),
    lambda g: Evaluator(g, EvalOptions()).eval(Distribution({"zz": 1}), Enforce(TRUE)),
    lambda g: brute_eval(g, Distribution({"zz": 1}), TRUE),
    lambda g: logic_preorder(g, "s0", "zz", 1, 2),
    lambda g: logic_preorder(g, "zz", "s0", 0, 2),
    lambda g: char_formula_state(g, "zz", 0, 2),
    lambda g: refine_once(g, Relation([("zz", "s0")]), QuantStrategy.pure()),
    lambda g: refine_once(g, Relation([("s0", "zz")]), QuantStrategy.pure()),
], ids=["evaluate-true", "evaluate-enforce", "eval-true", "eval-enforce", "brute_eval",
        "preorder-to", "preorder-from", "char_formula_state", "refine_once-from",
        "refine_once-to"])
def test_a_state_outside_the_model_is_an_error(rps, call):
    """No verdict and no bare ``KeyError`` at a state the model lacks: each
    call raises the message ``GameStructure.step`` gives."""
    with pytest.raises(ModelError, match="^unknown state 'zz'$"):
        call(rps)


# -- characteristic formulas -------------------------------------------------

def test_char_formula_level0_is_label_description(rps):
    phi = char_formula_state(rps, "s1", 0, 1)
    assert isinstance(phi, And)
    d = Distribution.point("s1")
    assert evaluate(rps, d, phi).verdict == "holds"
    assert evaluate(rps, Distribution.point("s2"), phi).verdict == "fails"


def test_char_formula_dist_weights(rps):
    d = parse_distribution("s1:1/2,s2:1/2")
    phi = char_formula_dist(rps, d, 0, 1)
    assert isinstance(phi, ProbSum)
    assert [w for w, _ in phi.parts] == [Fraction(1, 2), Fraction(1, 2)]


def test_char_formulas_hold_at_own_state(dup):
    for s in dup.states:
        for n in (0, 1):
            phi = char_formula_state(dup, s, n, 2)
            r = evaluate(dup, Distribution.point(s), phi, EvalOptions(pi1_grid=2))
            assert r.verdict == "holds", (s, n)


# Its one proposition occurs in no other test, so no other test's formulas
# share a node with its characteristic formulas.
LONE = """model lone
states: s t    init: s
props: lone
label t: lone
actions1: a b
actions2: c
trans s (a,c): s=1/2 t=1/2
trans s (b,c): t=1
absorb t
"""


def test_characteristic_formulas_live_with_the_models_grid_table(monkeypatch):
    """A state's formulas are built once per model and grid and kept in the
    grid's successor table: a second request returns the kept node, each
    depth and grid keeps its own, and a second `logic_preorder` on the
    model asks the builder for the n + 1 top-level formulas only."""
    g = load_fixture_model("dup.pgs")
    phi = char_formula_state(g, "u", 2, 2)
    assert char_formula_state(g, "u", 2, 2) is phi
    assert g.successors(2).formulas["u", 2] is phi
    assert not g.successors(1).formulas
    # Asked in any order, on one model, each (state, depth, grid) gives the
    # node a fresh model builds for it alone.
    asked = [(s, n, k) for k in (2, 1) for s in g.states for n in (2, 1, 0)]
    got = {key: char_formula_state(g, *key) for key in asked}
    for key in reversed(asked):
        assert char_formula_state(load_fixture_model("dup.pgs"), *key) is got[key], key
    assert got["u", 1, 1] is not got["u", 1, 2]

    calls = []
    state = CharFormulaBuilder.state
    monkeypatch.setattr(CharFormulaBuilder, "state",
                        lambda self, s, n: calls.append((s, n)) or state(self, s, n))
    g = load_fixture_model("dup.pgs")
    first = logic_preorder(g, "u", "u2", 2, 2)
    assert len(calls) > 3
    calls.clear()
    assert logic_preorder(g, "u", "u2", 2, 2) == first
    assert calls == [("u", 0), ("u", 1), ("u", 2)]


def test_characteristic_formulas_die_with_their_model():
    """The kept formulas hang off the model alone: with the cycle collector
    off, deleting the model frees them."""
    g = parse_model(LONE)
    gc.disable()
    try:
        phi = weakref.ref(char_formula_state(g, "s", 2, 2))
        assert phi() is not None
        del g
        assert phi() is None
    finally:
        gc.enable()


def test_logic_preorder_detects_label_mismatch(rps):
    r = logic_preorder(rps, "s1", "s2", 1, 1)
    assert r.verdict == "fails" and r.certified


def test_logic_preorder_accepts_duplicate(dup):
    r = logic_preorder(dup, "u", "u2", 1, 2)
    assert r.verdict == "holds"


def test_characteristic_formulas_pin_the_labels_at_every_level():
    """At t, action a matches s's depth-1 labels and action b its depth-2
    labels, but no one strategy matches both, and simulation removes
    (s, t). Formulas that pin the labels at level 0 only let each level be
    met by its own strategy, and hold there at depths 2 and 3."""
    g = load_fixture_model("split_levels.pgs")
    assert ("s", "t") not in pa_simulation(g, QuantStrategy.grid(2)).relation
    assert logic_preorder(g, "s", "t", 1, 2).verdict == "holds"
    for n in (2, 3):
        assert logic_preorder(g, "s", "t", n, 2).verdict == "unknown", n


def test_equal_subformulas_are_evaluated_once(rps):
    """Equal subformulas built separately are one node, so the second
    `<1> win1` is a memo hit and builds no successor of its own."""
    d = parse_distribution("s0:1/3,s1:1/3,s2:1/3")
    built = []
    for text in ("<1> win1", "<1> win1 & <1> win1"):
        ev = Evaluator(rps, EvalOptions())
        ev.eval(d, parse_formula(text))
        built.append(ev._built)
    assert 0 < built[1] <= built[0]


def test_each_distinct_successor_is_built_once_per_evaluator():
    """Requests whose per-state table entries are equal get one shared
    successor, whatever their entry order, and each request still counts."""
    g = parse_model(
        "model swap\n"
        "states: s t1 t2    init: s\n"
        "props: p\n"
        "actions1: a b\n"
        "actions2: x y\n"
        "trans s (a,x): t1=1\n"
        "trans s (b,x): t2=1\n"
        "trans s (a,y): t2=1\n"
        "trans s (b,y): t1=1\n"
        "absorb t1\n"
        "absorb t2\n"
    )
    ev = Evaluator(g, EvalOptions(pi1_grid=2))  # lotteries: a, a:1/2 b:1/2, b
    d = Distribution.point("s")
    first = ev.step(d, ["s"], [0], [0])  # a against x: t1
    assert ev.step(d, ["s"], [2], [1]) is first  # b against y: t1
    assert ev._built == 2
    mixed_x = ev.step(d, ["s"], [1], [0])
    mixed_y = ev.step(d, ["s"], [1], [1])
    assert mixed_y is mixed_x and mixed_x is not first
    assert ev._built == 4


def test_blind_choices_are_charged_once_per_class(rps):
    """rps's goal states absorb whatever either player does, so `<1>` there
    evaluates one lottery and one response, and is charged for that one
    request alone. The `sum` is allowed at every state, as `true` is, so
    the support test prunes no scan: the first case's counts are the class
    scan's (1,371 requests) plus the support test's own, and in the second
    `|` passes the test on its `sum` without scanning."""
    d = Distribution.point("s0")
    cases = [
        ("<1> <1> <1> <1> <1> <1> <1> <1> sum{1/3: win1, 2/3: true}", 4, 1_473, 594),
        ("mu Z. sum{1/3: win1, 2/3: true} | <1> Z", 5, 202, 84),
    ]
    for text, bound, built, successors in cases:
        ev = Evaluator(rps, EvalOptions(unfold_bound=bound))
        assert ev.eval(d, parse_formula(text)).verdict == "unknown"
        assert (ev._built, len(ev._successors)) == (built, successors)
        assert rps.blind["s1"] == rps.blind["s2"] == (True, True)
        assert rps.blind["s0"] == (False, False)


def test_a_blind_player_reports_every_vertex(rps):
    """Where player 2 is blind only one response is evaluated, but the
    witness counts every pure-response vertex."""
    d = parse_distribution("s0:1/2,s1:1/2")
    r = enforce_check(rps, d, parse_formula("sum{1/2: true, 1/2: win1}"))
    assert r.verdict == "holds"
    assert r.witness["vertices"] == 9


def test_equal_rows_in_another_entry_order_leave_a_player_blind():
    """Player 1 changes only the entry order of ``s``'s successor, which
    changes nothing, so player 1 is blind there as player 2 is: one lottery
    and one response are scanned and charged."""
    g = parse_model(
        "model reorder\n"
        "states: s t1 t2    init: s\n"
        "props: p\n"
        "actions1: a b\n"
        "actions2: x y\n"
        "trans s (a,x): t1=1/2 t2=1/2\n"
        "trans s (a,y): t1=1/2 t2=1/2\n"
        "trans s (b,x): t2=1/2 t1=1/2\n"
        "trans s (b,y): t2=1/2 t1=1/2\n"
        "absorb t1\n"
        "absorb t2\n"
    )
    ev = Evaluator(g, EvalOptions(pi1_grid=1))  # lotteries: a, b
    assert ev.eval(Distribution.point("s"), parse_formula("<1> p")).verdict == "unknown"
    assert g.blind["s"] == (True, True)
    assert (ev._built, len(ev._successors)) == (1, 1)


def test_formula_nodes_are_interned_and_immutable():
    phi = parse_formula("mu X. a | <1> X")
    assert phi is Mu("X", Or((Prop("a"), Enforce(Var("X")))))
    assert (phi.flat, phi.convex, phi.free) == (False, False, frozenset())
    assert phi.body.free == {"X"}
    with pytest.raises(AttributeError):
        phi.flat = True
