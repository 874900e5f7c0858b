"""Distributions, lifting, Smyth order and the exact LP core."""

import random
import sys
from fractions import Fraction

import pytest

from conftest import random_distribution, random_relation, standard_form
from pags import prob
from pags.prob import (
    Distribution,
    LinearProblem,
    MixedAction,
    Relation,
    WeightWitness,
    combine_dists,
    compositions,
    format_rational,
    grid_lotteries,
    lift_check,
    lp_feasible,
    parse_distribution,
    parse_rational,
    parse_relation,
    smyth_check,
    split_match,
    step_mixed_dist,
    step_mixed_state,
)


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("2/6") == Fraction(1, 3)
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(4, 2)) == "2"


def test_parse_rational_rejects_decimals():
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_distribution_mass_checked():
    with pytest.raises(ValueError):
        Distribution({"a": Fraction(1, 2)})
    with pytest.raises(ValueError):
        Distribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})


def test_distribution_messages_entries_and_hash():
    with pytest.raises(ValueError, match="distribution sums to 5/6, expected 1"):
        Distribution({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    with pytest.raises(ValueError, match="negative mass -1/2 at b"):
        Distribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})
    d = Distribution({"b": "1/3", "a": Fraction(2, 3), "c": 0})
    assert list(d.entries.items()) == [("b", Fraction(1, 3)), ("a", Fraction(2, 3))]
    assert type(d["b"]) is Fraction
    e = Distribution({"a": Fraction(2, 3), "b": Fraction(1, 3)})
    assert d == e and hash(d) == hash(e)


def test_distribution_literal_roundtrip():
    d = parse_distribution("s0:1/2, s1:1/2")
    assert d.format() == "s0:1/2,s1:1/2"
    assert parse_distribution(d.format()) == d


def test_point_distribution():
    d = Distribution.point("x")
    assert d.is_point() and d["x"] == 1 and d["y"] == 0


def test_mixed_action_validation():
    with pytest.raises(ValueError):
        MixedAction({"s": {"a": Fraction(1, 2)}}, 1)
    with pytest.raises(ValueError):
        MixedAction({"s": {"a": Fraction(1)}}, 3)
    pure = MixedAction.pure(["s", "t"], "a", 1)
    assert pure.at("s") == {"a": 1}


def test_relation_basics():
    r = parse_relation("s t\n# comment\ns u\n")
    assert ("s", "t") in r and ("s", "u") in r and len(r) == 2


def test_relation_is_sorted_and_reads_images():
    r = Relation([("b", "y"), ("a", "z"), ["a", "x"], ("a", "z")])
    assert list(r) == [("a", "x"), ("a", "z"), ("b", "y")]
    assert r.image("a") == ("x", "z") and r.image("b") == ("y",) and r.image("c") == ()
    assert r.pairs == {("a", "x"), ("a", "z"), ("b", "y")} and ("b", "y") in r
    assert ("b", "x") not in r and ("c", "y") not in r and len(r) == 3
    assert r == Relation(r.pairs) and hash(r) == hash(Relation(r.pairs))
    assert Relation([("a", "x")]) <= r and not r <= Relation([("a", "x")])
    with pytest.raises(ValueError):
        Relation([("a", "b", "c")])


@pytest.mark.parametrize("text", ["a b\na c", "s0 t1\ns0 t2"])
def test_parsers_intern_state_names(text):
    left = sys.intern(text.split()[0])
    (a1, _), (a2, _) = parse_relation(text)
    assert a1 is a2 is left
    d = parse_distribution(f"{left}:1/2,{text.split()[1]}:1/2")
    assert next(iter(d.nums)) is left


def test_lp_feasible_simple():
    lp = standard_form(2, [({0: 1, 1: 1}, "==", 1), ({0: 1}, ">=", Fraction(1, 3))])
    sol = lp_feasible(lp)
    assert sol is not None
    assert sol[0] + sol[1] == 1 and sol[0] >= Fraction(1, 3)


def test_lp_infeasible():
    lp = standard_form(1, [({0: 1}, "<=", 1), ({0: 1}, ">=", 2)])
    assert lp_feasible(lp) is None


def test_lp_rejects_a_column_it_did_not_hand_out():
    lp = LinearProblem()
    lp.cols(2)
    with pytest.raises(ValueError, match="unknown column 2"):
        lp.add({2: 1}, 1)
    with pytest.raises(ValueError, match="unknown column 'x'"):
        lp.add({"x": 1}, 1)


@pytest.mark.parametrize(
    "coeffs,rhs,den,message",
    [
        ({0: Fraction(1, 2)}, 1, 1, "coefficient of column 0 must be an int"),
        ({0: 1}, Fraction(1, 2), 1, "right-hand side must be an int >= 0"),
        ({0: 1}, -1, 1, "right-hand side must be an int >= 0"),
        ({0: 1}, 1, 0, "row denominator must be a positive int"),
    ],
)
def test_lp_takes_only_integer_equality_rows(coeffs, rhs, den, message):
    """A row is ``int`` coefficients, an ``int`` rhs >= 0 and a positive
    ``int`` denominator; there is no rational input and no sign flip."""
    lp = LinearProblem()
    lp.cols(2)
    with pytest.raises(ValueError, match=message):
        lp.add(coeffs, rhs, den)
    assert lp.constraints == [] and lp.dens == []


def test_lp_degenerate_row_keeps_its_artificial_column():
    """Phase 1 ends with the artificial column of ``2·x1 == 2`` basic at 0
    in a row that reads ``-x0 == 0``; it stays there, and the point is the
    one a drive-out pivot on ``x0`` would give."""
    lp = LinearProblem()
    lp.cols(3)
    lp.add({1: 2}, 2)
    lp.add({0: 1, 1: 2}, 2)
    assert lp_feasible(lp) == [0, 1, 0]


def test_compositions_order_and_count():
    out = list(compositions(2, 2))
    assert out == [(2, 0), (1, 1), (0, 2)]
    assert len(list(compositions(4, 3))) == 15


def test_grid_lotteries_include_pure():
    lots = grid_lotteries(["a", "b"], 2)
    assert {"a": Fraction(1)} in lots and {"b": Fraction(1)} in lots
    assert {"a": Fraction(1, 2), "b": Fraction(1, 2)} in lots


def test_grid_lotteries_reject_grid_below_one():
    with pytest.raises(ValueError, match="grid must be >= 1"):
        grid_lotteries(["a", "b"], 0)


def test_lift_check_feasible_witness_valid():
    r = Relation([("s1", "t1"), ("s1", "t2"), ("s2", "t2"), ("s2", "t3")])
    d = parse_distribution("s1:1/2,s2:1/2")
    th = parse_distribution("t1:1/3,t2:1/3,t3:1/3")
    w = lift_check(d, th, r)
    assert w is not None
    w.validate(d, th, r)


def test_lift_check_infeasible():
    r = Relation([("s1", "t1")])
    d = parse_distribution("s1:1/2,s2:1/2")
    th = parse_distribution("t1:1")
    assert lift_check(d, th, r) is None


def _unsolved(lp):
    raise AssertionError("lift_check solved an LP to refute a lifting")


@pytest.mark.parametrize(
    "d, th, rel, cut",
    [
        # a left state related to nothing
        ("a:1/2,b:1/2", "x:1", "a x", ["b"]),
        # a right state related to nothing
        ("a:1", "x:1/2,y:1/2", "a x", ["a"]),
        # one left state holds more than its neighbours
        ("a:2/3,b:1/3", "x:1/2,y:1/2", "a x\nb x\nb y", ["a"]),
        # one right state needs more than its neighbours hold
        ("a:1/2,b:1/2", "x:1/4,y:3/4", "a x\na y\nb x", ["b"]),
        # no one-state cut: only {a, b} holds more than its neighbours
        ("a:1/3,b:1/3,c:1/3", "x:1/3,y:1/3,z:1/3", "a x\nb x\nc x\nc y\nc z", ["a", "b"]),
    ],
)
def test_lift_check_refutes_by_a_hall_cut_without_an_lp(monkeypatch, d, th, rel, cut):
    monkeypatch.setattr("pags.prob.lp_feasible", _unsolved)
    d, th, r = parse_distribution(d), parse_distribution(th), parse_relation(rel)
    adj = {s: [t for t in sorted(th.support()) if (s, t) in r] for s in sorted(d.support())}
    found = prob._hall_cut(d, th, adj)
    assert sorted(found) == cut
    near = {t for t in th.support() if any((s, t) in r for s in cut)}
    assert sum(d[s] for s in cut) > sum(th[t] for t in near)
    assert lift_check(d, th, r) is None


def test_lift_check_solves_a_tight_lifting_once(monkeypatch):
    """{a, b} reaches only {x, y}, with equal mass: the flow saturates and
    the LP returns its vertex."""
    d = parse_distribution("a:1/3,b:1/3,c:1/3")
    th = parse_distribution("x:1/3,y:1/3,z:1/3")
    r = parse_relation("a x\na y\nb x\nb y\nc y\nc z")
    solved = []
    monkeypatch.setattr("pags.prob.lp_feasible", lambda lp: solved.append(lp) or lp_feasible(lp))
    w = lift_check(d, th, r)
    assert len(solved) == 1
    third = Fraction(1, 3)
    assert w.weights == {("a", "y"): third, ("b", "x"): third, ("c", "z"): third}


def test_lift_check_raises_when_the_flow_saturates_but_the_lp_is_infeasible(monkeypatch):
    """The flow's yes is checked against the LP, not overruled by it."""
    monkeypatch.setattr("pags.prob.lp_feasible", lambda lp: None)
    d = parse_distribution("a:1/2,b:1/2")
    th = parse_distribution("x:1/2,y:1/2")
    with pytest.raises(ValueError, match="flow saturates but the lifting LP is infeasible"):
        lift_check(d, th, parse_relation("a x\nb y"))


def test_lift_check_raises_on_a_cut_that_does_not_refute(monkeypatch):
    """The cut is checked, not trusted: d(a) = th(N(a)) = 1/2 refutes nothing."""
    monkeypatch.setattr("pags.prob._hall_cut", lambda d, th, adj: ["a"])
    monkeypatch.setattr("pags.prob.lp_feasible", _unsolved)
    d = parse_distribution("a:1/2,b:1/2")
    th = parse_distribution("x:1/2,y:1/2")
    with pytest.raises(ValueError, match=r"cut \['a'\] does not refute the lifting"):
        lift_check(d, th, parse_relation("a x\nb x\nb y"))


def test_weight_witness_rejects_wrong_marginals():
    r = Relation([("a", "b")])
    w = WeightWitness({("a", "b"): Fraction(1, 2)})
    assert not w.is_valid(Distribution.point("a"), Distribution.point("b"), r)


def test_weight_witness_reports_the_first_bad_state_by_name():
    """Both rows are wrong; the message names ``a`` under every hash seed."""
    r = Relation([("a", "b"), ("c", "b")])
    w = WeightWitness({("a", "b"): 1, ("c", "b"): 1})
    with pytest.raises(ValueError) as err:
        w.validate(parse_distribution("a:1/2,c:1/2"), Distribution.point("b"), r)
    assert str(err.value) == "row sum at a is 1, expected 1/2"


def test_smyth_check_reflexive():
    r = Relation.identity(["x", "y"])
    p = [Distribution.point("x"), Distribution.point("y")]
    ok, wits = smyth_check(p, p, r)
    assert ok and all(w is not None for w in wits)


def test_smyth_check_failure():
    r = Relation.identity(["x", "y"])
    ok, wits = smyth_check([Distribution.point("x")], [Distribution.point("y")], r)
    assert not ok and wits == [None]


def test_split_match_produces_related_parts():
    rng = random.Random(7)
    states = ["a", "b", "c", "d"]
    hits = 0
    while hits < 50:
        d = random_distribution(rng, states)
        th = random_distribution(rng, states)
        r = random_relation(rng, states, states)
        if lift_check(d, th, r) is None:
            continue
        hits += 1
        supp = d.support()
        # Random two-way split of d with exact per-state fractions.
        den = rng.randint(1, 6)
        fracs = {s: Fraction(rng.randint(0, den), den) for s in supp}
        w1 = sum((d[s] * f for s, f in fracs.items()), Fraction(0))
        if w1 == 0 or w1 == 1:
            continue
        d1 = Distribution({s: d[s] * fracs[s] / w1 for s in supp if fracs[s] > 0})
        d2 = Distribution({s: d[s] * (1 - fracs[s]) / (1 - w1) for s in supp if fracs[s] < 1})
        parts = split_match(d, th, r, [(w1, d1), (1 - w1, d2)])
        assert combine_dists(parts) == th
        for (w, piece), left in zip(parts, (d1, d2)):
            assert lift_check(left, piece, r) is not None


def test_combine_dists_weights_must_sum():
    with pytest.raises(ValueError, match="weights sum to 1/2, expected 1"):
        combine_dists([(Fraction(1, 2), Distribution.point("a"))])
    with pytest.raises(ValueError, match="negative weight -1/2"):
        combine_dists([(Fraction(3, 2), Distribution.point("a")),
                       (Fraction(-1, 2), Distribution.point("b"))])


def test_step_mixed_matches_table(rps):
    pi1 = MixedAction.pure(rps.states, "r", 1)
    pi2 = MixedAction.pure(rps.states, "s", 2)
    assert step_mixed_state(rps, "s0", pi1, pi2) == Distribution.point("s1")
    d = parse_distribution("s0:1/2,s1:1/2")
    out = step_mixed_dist(rps, d, pi1, pi2)
    assert out == parse_distribution("s1:1")
