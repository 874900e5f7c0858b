"""Alternating and probabilistic alternating simulation."""

import gc
import re
import weakref
from fractions import Fraction

import pytest
from conftest import REACH

from pags import fixture_text, load_fixture_model, sim
from pags.formula import Enforce, Mix
from pags.logic import CharFormulaBuilder
from pags.model import ModelError, parse_model
from pags.oracle import brute_sim
from pags.prob import (
    Relation,
    SuccessorTable,
    combine_dists,
    format_rational,
    grid_lotteries,
    lp_feasible,
)
from pags.sim import (
    QuantStrategy,
    a_simulation,
    exists_pi2_check,
    export_smt,
    export_smt_scripts,
    initial_relation,
    pa_simulation,
    refine_once,
)

# s has a coin action player 2 cannot counter; t only has skewed rows, so
# t cannot match s's successor set and (s,t) must be removed.
ASYM = """
model asym
states: s t g0 g1    init: s
props: z o
label g0: z
label g1: o
actions1: a
actions2: x y
trans s (a,x): g0=1/2 g1=1/2
trans s (a,y): g0=1/2 g1=1/2
trans t (a,x): g0=1
trans t (a,y): g0=1
absorb g0
absorb g1
"""


def test_initial_relation_rps(rps):
    assert initial_relation(rps) == Relation.identity(rps.states)


def test_initial_relation_merges_equal_labels(dup):
    r = initial_relation(dup)
    assert ("u", "u2") in r and ("u2", "u") in r
    assert ("u", "x") not in r


def test_initial_relation_full_without_props(lifthost):
    r = initial_relation(lifthost)
    assert len(r) == len(lifthost.states) ** 2


def test_exists_pi2_reflexive(rps):
    r = Relation.identity(rps.states)
    for a in rps.acts1:
        pi2 = exists_pi2_check(rps, "s0", "s0", {a: Fraction(1)}, r)
        assert pi2 is not None


def test_exists_pi2_transplants_to_copy(dup):
    r = initial_relation(dup)
    lot = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    pi2 = exists_pi2_check(dup, "u", "u2", lot, r)
    assert pi2 is not None


def test_exists_pi2_fails_on_asymmetry():
    g = parse_model(ASYM)
    r = initial_relation(g)
    assert exists_pi2_check(g, "s", "t", {"a": Fraction(1)}, r) is None


BLIND = """
model blind
states: s t    init: s
props: p
label t: p
actions1: a b
actions2: c
trans s (a,c): s=1/2 t=1/2
trans s (b,c): s=1/2 t=1/2
absorb t
"""


def test_exists_pi2_rejects_negative_probabilities(rps):
    """A signed lottery that sums to 1 is no lottery. Where player 1 is
    blind its successors are still a distribution, and on rps they are
    not; both are refused before any LP, with the action named."""
    g = parse_model(BLIND)
    with pytest.raises(ValueError, match=r"^negative probability -1/2 for action a$"):
        exists_pi2_check(g, "s", "s", {"a": Fraction(-1, 2), "b": Fraction(3, 2)},
                         initial_relation(g))
    with pytest.raises(ValueError, match=r"^negative probability -1/2 for action r$"):
        exists_pi2_check(rps, "s0", "s0", {"r": Fraction(-1, 2), "p": Fraction(3, 2)},
                         initial_relation(rps))
    with pytest.raises(ValueError, match=r"^lottery does not sum to 1$"):
        exists_pi2_check(g, "s", "s", {"a": Fraction(1, 2)}, initial_relation(g))


def test_refine_once_monotone(rps, dup):
    for g in (rps, dup):
        r = initial_relation(g)
        for strat in (QuantStrategy.pure(), QuantStrategy.grid(2)):
            nxt, _ = refine_once(g, r, strat)
            assert nxt <= r


def test_refine_once_removes_unmatched_pair():
    g = parse_model(ASYM)
    r = initial_relation(g)
    nxt, _ = refine_once(g, r, QuantStrategy.pure())
    assert ("s", "t") not in nxt
    for s in g.states:
        assert (s, s) in nxt


def test_refine_once_copies_reflexive_pairs_only_with_the_whole_diagonal(rps):
    pure = QuantStrategy.pure()
    r = Relation.identity(rps.states)
    nxt, witnesses = refine_once(rps, r, pure)
    assert nxt == r
    copies = [{"s2": {a: 1}} for a in rps.acts1]
    assert [pi.choice for _, pi in witnesses[("s2", "s2")]] == copies
    # Without (s1, s1) every pair goes through the step LP: each lottery at
    # s0 reaches s1 under some response, and s1 is now related to nothing,
    # so (s0, s0) fails; (s2, s2) gets the LP's vertex, not the copy.
    r = Relation(r.pairs - {("s1", "s1")})
    nxt, witnesses = refine_once(rps, r, pure)
    assert nxt == Relation({("s2", "s2")})
    assert [pi.choice for _, pi in witnesses[("s2", "s2")]] == [{"s2": {"r": 1}}] * 3


def test_copy_entries_are_equal_across_rounds(rps):
    """Rounds at one grid give equal (s, s) copy entries; a finer grid gets
    an entry of its own."""
    r = Relation.identity(rps.states)
    rounds = [refine_once(rps, r, strat)[1]
              for strat in (QuantStrategy.pure(), QuantStrategy.pure(), QuantStrategy.grid(2))]
    first, again, grid = (w[("s0", "s0")] for w in rounds)
    assert again == first and len(first) == 3
    assert [lot for lot, _ in grid] == [pi.at("s0") for _, pi in grid] and len(grid) == 6


def test_grid_result_contained_in_pure(rps, dup, halving, lifthost, single):
    for g in (rps, dup, halving, lifthost, single):
        pure = pa_simulation(g, QuantStrategy.pure()).relation
        grid = pa_simulation(g, QuantStrategy.grid(2)).relation
        assert grid <= pure


def test_pa_simulation_rps(rps):
    rep = pa_simulation(rps, QuantStrategy.pure())
    assert rep.relation == Relation.identity(rps.states)
    assert rep.iterations <= 2


def test_simulation_reports_repeat_their_repr():
    """A relation prints its pairs in order, so two runs on rps, and a
    `refine_once` result, print no object address and print alike."""
    reports = [pa_simulation(load_fixture_model("rps.pgs"), QuantStrategy.grid(2)) for _ in range(2)]
    assert repr(reports[0]) == repr(reports[1])
    assert "0x" not in repr(reports[0])
    assert repr(reports[0].relation) == "Relation([('s0', 's0'), ('s1', 's1'), ('s2', 's2')])"
    g = load_fixture_model("rps.pgs")
    assert "0x" not in repr(refine_once(g, initial_relation(g), QuantStrategy.grid(2)))


def test_pa_simulation_reflexive(rps, dup, halving):
    for g in (rps, dup, halving):
        rep = pa_simulation(g, QuantStrategy.grid(2))
        assert Relation.identity(g.states) <= rep.relation


def test_pa_simulation_transitive_on_fixtures(rps, dup, halving, lifthost, single):
    for g in (rps, dup, halving, lifthost, single):
        rel = pa_simulation(g, QuantStrategy.grid(2)).relation
        for s, t in rel:
            for u, v in rel:
                if t == u:
                    assert (s, v) in rel


def test_pa_simulation_records_witnesses(dup):
    rep = pa_simulation(dup, QuantStrategy.grid(2))
    entry = rep.witnesses[("u", "u2")]
    assert entry and all(pi2.owner == 1 for _, pi2 in entry)


def test_witness_pass_raises_when_the_step_lp_refutes_a_kept_pair(monkeypatch):
    """The witnesses are solved on first read, after the decision rounds; a
    step LP that refutes a pair those rounds kept is an error at that read,
    never a dropped pair. REACH is deterministic, so its rounds decide by
    the flow alone, and the LP answers None only once the witness pass has
    begun."""
    g = parse_model(REACH)
    real_solve, real_witnesses = sim._solve_step, sim._witnesses
    final = []

    def witnesses(*args):
        final.append(True)
        return real_witnesses(*args)

    monkeypatch.setattr(sim, "_witnesses", witnesses)
    monkeypatch.setattr(sim, "_solve_step", lambda *args: None if final else real_solve(*args))
    rep = pa_simulation(g, QuantStrategy.pure())
    assert final == [] and rep.relation == a_simulation(g)
    with pytest.raises(ValueError, match=r"^the step LP refutes \(t, s\) under the lottery "
                                         r"stay:1, which the decision round kept$"):
        rep.witnesses
    assert final == [True]


def test_export_smt_scripts_writes_one_script_per_initial_pair(tmp_path, rps):
    directory = tmp_path / "smt"  # created by the export
    r = export_smt_scripts(rps, str(directory))
    assert r == initial_relation(rps)
    assert sorted(f.name for f in directory.iterdir()) == [
        "s0_s0.smt2", "s1_s1.smt2", "s2_s2.smt2"]
    assert (directory / "s1_s1.smt2").read_text() == export_smt(rps, "s1", "s1", r)


def test_export_smt_variable_count(rps):
    r = Relation.identity(rps.states)
    script = export_smt(rps, "s0", "s0", r)
    n1, n2 = len(rps.acts1), len(rps.acts2)
    declared = script.count(" Real)")
    assert declared == 2 * n1 + n2 * (n2 + len(r))
    assert "(set-logic NRA)" in script and script.rstrip().endswith("(check-sat)")


def test_a_simulation_rejects_probabilistic(halving):
    with pytest.raises(ModelError, match="probabilistic"):
        a_simulation(halving)


def test_a_simulation_rps_identity(rps):
    assert a_simulation(rps) == Relation.identity(rps.states)


def test_a_simulation_single(single):
    assert a_simulation(single) == Relation([("s0", "s0")])


def test_a_simulation_removes_pairs_that_cannot_follow():
    g = parse_model(REACH)
    rel = a_simulation(g)
    assert rel == Relation([
        ("goal", "goal"), ("s", "s"), ("t", "s"), ("t", "t"), ("t", "u"),
        ("u", "s"), ("u", "t"), ("u", "u"),
    ])
    assert ("s", "t") in initial_relation(g) and ("s", "u") in initial_relation(g)
    assert pa_simulation(g, QuantStrategy.pure()).relation == rel == brute_sim(g, 1)


def test_strategy_validation(rps):
    with pytest.raises(ValueError):
        QuantStrategy.grid(0)
    for k in (3, 0):
        with pytest.raises(ValueError, match="pure strategy takes k = 1"):
            QuantStrategy("pure", k=k)
    with pytest.raises(ValueError, match="unknown strategy kind"):
        QuantStrategy("smt")
    with pytest.raises(ValueError, match="smt export needs a target directory"):
        export_smt_scripts(rps, "")


def _unlabeled_absorbing(states, acts2):
    return parse_model(
        f"model clash\nstates: {states}    init: {states.split()[0]}\nprops:\n"
        f"actions1: a\nactions2: {acts2}\n" + "".join(f"absorb {s}\n" for s in states.split())
    )


def test_export_smt_symbols_distinct_when_names_contain_underscores():
    g = _unlabeled_absorbing("z y_z", "x x_y")
    r = Relation((s, t) for s in g.states for t in g.states)
    declared = re.findall(r"\((\S+) Real\)", export_smt(g, "z", "z", r))
    assert len(declared) == 2 + 2 * (2 + len(r))
    assert len(set(declared)) == len(declared)


def test_smt_export_file_names_distinct_when_names_contain_underscores(tmp_path):
    g = _unlabeled_absorbing("a a_a", "b")
    r = export_smt_scripts(g, str(tmp_path))
    assert len(list(tmp_path.iterdir())) == len(r) == 4


# Under response x every action at t puts mass on g1, which no successor of
# s can carry: g1 is related to nothing at s's side.
FORCED_RIGHT = """
model forced
states: s t g0 g1    init: s
props: z o
label g0: z
label g1: o
actions1: a c
actions2: x y
trans s (a,x): g0=1
trans s (a,y): g0=1
trans s (c,x): g0=1
trans s (c,y): g0=1
trans t (a,x): g0=1/2 g1=1/2
trans t (c,x): g1=1
trans t (a,y): g0=1
trans t (c,y): g0=1
absorb g0
absorb g1
"""


def test_step_lps_with_an_unmeetable_row_are_refuted_unsolved(monkeypatch):
    """A forced right state related to nothing (FORCED_RIGHT), and a forced
    left state that no right state of some response is related to (ASYM's
    g1, which s reaches under both responses), refute the step LP without
    solving it."""

    def unsolved(lp):
        raise AssertionError("the step LP was solved")

    monkeypatch.setattr("pags.sim.lp_feasible", unsolved)
    for text, lottery in ((FORCED_RIGHT, {"a": Fraction(1, 2), "c": Fraction(1, 2)}),
                          (ASYM, {"a": Fraction(1)})):
        g = parse_model(text)
        assert exists_pi2_check(g, "s", "t", lottery, initial_relation(g)) is None


def test_conditions_the_flow_decides_build_no_step_lp_row(lifthost, monkeypatch):
    """The flow decides every condition of lifthost's pure and grid-2
    rounds, and a condition's LP rows are built from its key only when it
    reaches the step LP, so these runs build no row and keep the same
    relations."""
    strategies = (QuantStrategy.pure(), QuantStrategy.grid(2))
    expected = [pa_simulation(lifthost, strat).relation for strat in strategies]

    def unbuilt(dists):
        raise AssertionError("a step-LP row was built")

    monkeypatch.setattr("pags.sim._marginal_rows", unbuilt)
    assert [pa_simulation(lifthost, strat).relation for strat in strategies] == expected


def test_mirror_states_share_their_step_lps(dup, monkeypatch):
    """dup's u and u2 have equal rows, so (u, u2) and (u2, u) ask the same
    three step LPs (one per grid-2 lottery) and the second pair reuses them:
    three solves instead of six. Each answer is a MixedAction at its own
    state, equal in lottery to its mirror's. The same holds when u2's rows
    list their entries in another order, which changes no row."""
    reordered = (
        fixture_text("dup.pgs")
        .replace("trans u2 (a,c): x=1/2 y=1/2", "trans u2 (a,c): y=1/2 x=1/2")
        .replace("trans u2 (b,d): x=1/3 y=2/3", "trans u2 (b,d): y=2/3 x=1/3")
    )
    assert reordered.count("y=1/2 x=1/2") == reordered.count("y=2/3 x=1/3") == 1
    solves = []

    def counted(lp):
        solves.append(lp)
        return lp_feasible(lp)

    monkeypatch.setattr("pags.sim.lp_feasible", counted)
    for g in (dup, parse_model(reordered)):
        solves.clear()
        rep = pa_simulation(g, QuantStrategy.grid(2))
        forward, backward = rep.witnesses[("u", "u2")], rep.witnesses[("u2", "u")]
        assert len(solves) == 3
        assert [lot for lot, _ in forward] == [lot for lot, _ in backward]
        assert [pi.at("u2") for _, pi in forward] == [pi.at("u") for _, pi in backward]
        assert all(set(pi.choice) == {"u2"} for _, pi in forward)
        assert all(set(pi.choice) == {"u"} for _, pi in backward)


def test_witnesses_are_solved_on_first_read_and_drop_the_memo(dup, monkeypatch):
    """``pa_simulation`` returns at the fixpoint of its decision rounds,
    which solve one step LP on dup at grid 2. The first read of the
    witnesses solves the other two, drops the run's model and memo, and a
    second read solves none and returns the same dict. A second run keeps
    a memo of its own, so it solves its round's LP again."""
    solves = []

    def counted(lp):
        solves.append(lp)
        return lp_feasible(lp)

    monkeypatch.setattr("pags.sim.lp_feasible", counted)
    rep = pa_simulation(dup, QuantStrategy.grid(2))
    assert len(solves) == 1 and "_run" in vars(rep)
    witnesses = rep.witnesses
    assert len(solves) == 3 and "_run" not in vars(rep)
    assert rep.witnesses is witnesses and len(solves) == 3
    pa_simulation(dup, QuantStrategy.grid(2))
    assert len(solves) == 4


def test_an_unread_report_is_freed_without_the_cycle_collector(dup):
    """No reference cycle holds a report, its model or its memo: with the
    cyclic collector off, a report that is never read is freed once
    dropped, and so is a read one."""
    gc.disable()
    try:
        for read in (False, True):
            rep = pa_simulation(dup, QuantStrategy.grid(2))
            if read:
                rep.witnesses
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
    finally:
        gc.enable()


def test_reports_are_equal_only_with_equal_witnesses(dup):
    """Equality reads the witnesses of unread reports and compares them with
    the relation, rounds and strategy."""
    strat = QuantStrategy.grid(2)
    rep = pa_simulation(dup, strat)
    assert rep == pa_simulation(dup, strat)
    other = pa_simulation(dup, strat)
    witnesses = dict(rep.witnesses)
    witnesses[("u", "u2")] = witnesses[("u", "u2")][:1]
    other.witnesses = witnesses
    assert (other.relation, other.iterations, other.strategy) == (rep.relation, rep.iterations, strat)
    assert rep != other


FIXTURES = ("dup.pgs", "rps.pgs", "halving.pgs", "lifthost.pgs", "single.pgs",
            "split_levels.pgs")

# The step-LP memo after ``pa_simulation`` at grid 2 and the first read of
# its witnesses: how many keys have each (left row, lottery at t or None).
# A condition that ``_refuted`` refutes on supports in a round never enters it.
SOLVED_AT_GRID_2 = {
    "dup.pgs": {("x:1/2,y:1/2 | x:1", "a=1"): 1,
                ("x:1/4,y:3/4 | x:2/3,y:1/3", "a=1/2 b=1/2"): 1,
                ("y:1 | x:1/3,y:2/3", "b=1"): 1},
    "rps.pgs": {},
    "halving.pgs": {},
    "lifthost.pgs": {(u + ":1", "a=1"): 4 for u in ("s1", "s2", "t1", "t2", "t3")},
    "single.pgs": {},
    "split_levels.pgs": {("v:1", "a=1"): 2},
}


@pytest.mark.parametrize("name", FIXTURES)
def test_rounds_and_characteristic_formulas_index_the_same_successors(name, monkeypatch):
    """At grid 2, row i of ``s`` in the successor table is the sum of the
    i-th grid lottery's successors, one per response; the i-th ``<1>``
    conjunct of the level-1 characteristic formula of ``s`` mixes the
    level-0 formulas of that row; and every condition a decision round
    decides has that row as its left side, in round order, each pair's
    lotteries in grid order up to the first that fails. The step LPs
    solved are the pinned ones."""
    g = load_fixture_model(name)
    table = SuccessorTable(g, 2)
    builder = CharFormulaBuilder(g, 2)
    lotteries = grid_lotteries(g.acts1, 2)
    assert table.lotteries == lotteries
    for s in g.states:
        rows = [table.row(s, i) for i in range(len(lotteries))]
        assert rows == [
            tuple(combine_dists((p, g.step(s, a, b)) for a, p in lot.items()) for b in g.acts2)
            for lot in lotteries
        ]
        assert builder.state(s, 1).items[1:] == tuple(
            Enforce(Mix(tuple(builder.dist(e, 0) for e in row))) for row in rows
        )

    asked = []
    condition = sim._condition

    def spy(g, left, t, r):
        asked.append((left, t))
        return condition(g, left, t, r)

    with monkeypatch.context() as m:
        m.setattr(sim, "_condition", spy)
        rep = pa_simulation(g, QuantStrategy.grid(2))
        _, memo = rep._run
    expected = []

    def holds(s, t, r):
        for i, lot in enumerate(lotteries):
            expected.append((table.row(s, i), t))
            if exists_pi2_check(g, s, t, lot, r) is None:
                return False
        return True

    r = initial_relation(g)
    while (nxt := Relation((s, t) for s, t in r if s == t or holds(s, t, r))) != r:
        r = nxt
    assert asked == expected
    assert rep.relation == r

    rep.witnesses
    solved = {}
    for (_, left, _), lottery in memo.items():
        shown = None if lottery is None else " ".join(
            f"{a}={format_rational(p)}" for a, p in lottery.items())
        key = (" | ".join(d.format() for d in left), shown)
        solved[key] = solved.get(key, 0) + 1
    assert solved == SOLVED_AT_GRID_2[name]
