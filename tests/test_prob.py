"""Distributions, lifting, Smyth order and the exact LP core."""

import random
from fractions import Fraction

import pytest

from conftest import random_distribution, random_relation
from pags.prob import (
    Distribution,
    LinearProblem,
    MixedAction,
    Relation,
    WeightWitness,
    combine_dists,
    combine_mixed_actions,
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
    assert r.inverse() == Relation([("t", "s"), ("u", "s")])
    assert r.related_to("s") == ["t", "u"]


def test_lp_feasible_simple():
    lp = LinearProblem()
    x, y = lp.cols(2)
    lp.add({x: 1, y: 1}, "==", 1)
    lp.add({x: 1}, ">=", Fraction(1, 3))
    sol = lp_feasible(lp)
    assert sol is not None
    assert sol[x] + sol[y] == 1 and sol[x] >= Fraction(1, 3)


def test_lp_infeasible():
    lp = LinearProblem()
    (x,) = lp.cols(1)
    lp.add({x: 1}, "<=", 1)
    lp.add({x: 1}, ">=", 2)
    assert lp_feasible(lp) is None


def test_lp_rejects_a_column_it_did_not_hand_out():
    lp = LinearProblem()
    lp.cols(2)
    with pytest.raises(ValueError, match="unknown column 2"):
        lp.add({2: 1}, "==", 1)
    with pytest.raises(ValueError, match="unknown column 'x'"):
        lp.add({"x": 1}, "==", 1)


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


def test_weight_witness_rejects_wrong_marginals():
    r = Relation([("a", "b")])
    w = WeightWitness({("a", "b"): Fraction(1, 2)})
    assert not w.is_valid(Distribution.point("a"), Distribution.point("b"), r)


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
    with pytest.raises(ValueError):
        combine_dists([(Fraction(1, 2), Distribution.point("a"))])


def test_combine_mixed_actions():
    p1 = MixedAction.pure(["s"], "a", 1)
    p2 = MixedAction.pure(["s"], "b", 1)
    mix = combine_mixed_actions([(Fraction(1, 2), p1), (Fraction(1, 2), p2)])
    assert mix.at("s") == {"a": Fraction(1, 2), "b": Fraction(1, 2)}


def test_step_mixed_matches_table(rps):
    pi1 = MixedAction.pure(rps.states, "r", 1)
    pi2 = MixedAction.pure(rps.states, "s", 2)
    assert step_mixed_state(rps, "s0", pi1, pi2) == Distribution.point("s1")
    d = parse_distribution("s0:1/2,s1:1/2")
    out = step_mixed_dist(rps, d, pi1, pi2)
    assert out == parse_distribution("s1:1")
