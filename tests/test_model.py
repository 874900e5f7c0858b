"""Model parsing, validation and serialization."""

import random
from fractions import Fraction

import pytest

from conftest import random_model
from pags import load_fixture_model
from pags.model import ModelError, parse_model, serialize_model, validate_model
from pags.prob import Distribution

MINIMAL = """
model tiny
states: s0 s1    init: s0
props: p
label s1: p
actions1: a
actions2: x y
trans s0 (a,x): s0=1/2 s1=1/2
trans s0 (a,y): s1=1
absorb s1
"""


def test_parse_minimal():
    g = parse_model(MINIMAL)
    assert g.states == ["s0", "s1"] and g.init == "s0"
    assert g.labels["s1"] == frozenset({"p"})
    assert g.step("s0", "a", "x")["s1"] == Fraction(1, 2)
    assert g.step("s0", "a", "y")["s1"] == 1


def test_absorb_expands_to_self_loops():
    g = parse_model(MINIMAL)
    for a2 in g.acts2:
        assert g.step("s1", "a", a2) == Distribution.point("s1")
    assert g.is_absorbing("s1") and not g.is_absorbing("s0")


def test_serialize_roundtrip():
    g = parse_model(MINIMAL)
    assert parse_model(serialize_model(g)) == g


def test_serialize_roundtrip_random():
    rng = random.Random(11)
    for _ in range(20):
        g = random_model(rng)
        assert parse_model(serialize_model(g)) == g


def test_comments_and_blank_lines_ignored():
    g = parse_model("# header\n\n" + MINIMAL + "\n# trailer\n")
    assert g.name == "tiny"


def test_row_sum_error_reports_line_and_value():
    bad = MINIMAL.replace("s0=1/2 s1=1/2", "s0=1/2 s1=1/3")
    with pytest.raises(ModelError, match=r"sums to 5/6"):
        parse_model(bad)


def test_totality_error():
    bad = MINIMAL.replace("trans s0 (a,y): s1=1\n", "")
    with pytest.raises(ModelError, match="not total"):
        parse_model(bad)


def test_duplicate_row_rejected():
    bad = MINIMAL + "trans s1 (a,x): s1=1\n"
    with pytest.raises(ModelError, match="conflicts|duplicate"):
        parse_model(bad)


def test_unknown_identifiers_rejected():
    with pytest.raises(ModelError, match="unknown target state"):
        parse_model(MINIMAL.replace("s1=1\n", "zz=1\n"))
    with pytest.raises(ModelError, match="unknown proposition"):
        parse_model(MINIMAL.replace("label s1: p", "label s1: q"))


def test_decimal_probability_rejected():
    with pytest.raises(ModelError, match="decimal"):
        parse_model(MINIMAL.replace("s0=1/2 s1=1/2", "s0=0.5 s1=0.5"))


def test_missing_sections():
    with pytest.raises(ModelError, match="model"):
        parse_model("states: s init: s\nactions1: a\nactions2: b\nabsorb s\n")


def test_error_carries_line_number():
    bad = MINIMAL.replace("trans s0 (a,y): s1=1", "trans s0 (a,y): s1=2")
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.line is not None



@pytest.mark.parametrize("old,new,line,message", [
    ("model tiny", "model a b", 2, "expected one model name, got 2"),
    ("model tiny", "model", 2, "expected one model name, got 0"),
    ("absorb s1", "absorb s1 s0", 10, "expected one state name, got 2"),
    ("actions1: a", "actions1: a a", 6, "duplicate player-1 action"),
    ("actions2: x y", "actions2: x y x", 7, "duplicate player-2 action"),
], ids=["model-two-names", "model-bare", "absorb-two-states", "actions1-repeat", "actions2-repeat"])
def test_header_arity_and_duplicate_actions_carry_line(old, new, line, message):
    with pytest.raises(ModelError, match=f"^line {line}: {message}") as exc:
        parse_model(MINIMAL.replace(old, new))
    assert exc.value.line == line

def _edit(old, new):
    assert old in MINIMAL
    return MINIMAL.replace(old, new)


@pytest.mark.parametrize("source,message", [
    pytest.param(MINIMAL + "model again\n",
                 "line 11: duplicate model line", id="model-twice"),
    pytest.param(_edit("    init: s0", ""),
                 "line 3: states line must carry 'init:'", id="states-no-init"),
    pytest.param(_edit("init: s0", "init: s0 s1"),
                 "line 3: exactly one init state expected", id="two-inits"),
    pytest.param(_edit("states: s0 s1", "states: s0 s1 s0"),
                 "line 3: duplicate state declaration", id="state-twice"),
    pytest.param(_edit("props: p", "props: p p"),
                 "line 4: duplicate proposition declaration", id="prop-twice"),
    pytest.param(_edit("props: p", "props: p-q"),
                 "line 4: bad identifier 'p-q'", id="bad-identifier"),
    pytest.param(_edit("label s1: p", "label s1 p"),
                 "line 5: label line needs '<state>: <prop>*'", id="label-no-colon"),
    pytest.param(_edit("label s1: p", "label zz: p"),
                 "line 5: unknown state 'zz' in label", id="label-unknown-state"),
    pytest.param(_edit("label s1: p", "label s1: p\nlabel s1:"),
                 "line 6: duplicate label line for 's1'", id="label-twice"),
    pytest.param(_edit("props: p", "trans s0 (a,x): s1=1\nprops: p"),
                 "line 4: trans before states/actions declarations", id="trans-too-early"),
    pytest.param(_edit("(a,y): s1=1", "a,y: s1=1"),
                 "line 9: trans line needs '<state> (<a1>,<a2>):'", id="trans-no-parens"),
    pytest.param(_edit("(a,y): s1=1", "(a y): s1=1"),
                 "line 9: joint action needs '<a1>,<a2>'", id="joint-no-comma"),
    pytest.param(_edit("(a,y): s1=1", "(b,y): s1=1"),
                 "line 9: unknown player-1 action 'b'", id="unknown-action1"),
    pytest.param(_edit("(a,y): s1=1", "(a,z): s1=1"),
                 "line 9: unknown player-2 action 'z'", id="unknown-action2"),
    pytest.param(_edit("(a,y): s1=1", "(a,x): s1=1"),
                 "line 9: duplicate row (s0,a,x)", id="row-twice"),
    pytest.param(_edit("(a,y): s1=1", "(a,y): s1:1"),
                 "line 9: bad entry 's1:1', expected state=rat", id="entry-no-equals"),
    pytest.param(_edit("(a,y): s1=1", "(a,y): s1=1/2 s1=1/2"),
                 "line 9: duplicate target 's1' in row", id="target-twice"),
    pytest.param(_edit("s0=1/2 s1=1/2", "s0=3/2 s1=-1/2"),
                 "line 8: negative mass -1/2 at s1", id="negative-entry"),
    pytest.param(_edit("props: p", "absorb s1\nprops: p"),
                 "line 4: absorb before states/actions declarations", id="absorb-too-early"),
    pytest.param(MINIMAL + "trans s1 (a,y): s0=1\n",
                 "line 10: absorb s1 conflicts with explicit row (s1,a,y)", id="absorb-conflict"),
    pytest.param(MINIMAL + "absorb s1\n",
                 "line 11: duplicate absorb line for 's1'", id="absorb-twice"),
    pytest.param(MINIMAL + "bogus s1\n",
                 "line 11: unknown directive 'bogus'", id="unknown-directive"),
    pytest.param(_edit("model tiny", ""),
                 "missing model line", id="no-model"),
    pytest.param("model m\nactions1: a\nactions2: x\n",
                 "missing states line", id="no-states"),
    pytest.param("model m\nstates: s    init: s\nactions1: a\n",
                 "missing actions declarations", id="no-actions"),
])
def test_every_parse_error_has_its_message_and_line(source, message):
    with pytest.raises(ModelError) as exc:
        parse_model(source)
    assert str(exc.value) == message


def test_validate_model_direct():
    g = parse_model(MINIMAL)
    assert validate_model(g) == []
    g.table.pop(("s1", "a", "x"))
    assert any("not total" in v for v in validate_model(g))
    g.acts2.append("x")
    assert "duplicate action declaration" in validate_model(g)


def test_step_rejects_unknown_names():
    g = parse_model(MINIMAL)
    with pytest.raises(ModelError):
        g.step("nope", "a", "x")
    with pytest.raises(ModelError):
        g.step("s0", "nope", "x")


def test_fixture_models_deterministic_flag(rps, halving, single):
    assert rps.is_deterministic()
    assert single.is_deterministic()
    assert not halving.is_deterministic()


AGREE_FIRST = """
model agree
states: s x y    init: s
props:
actions1: a c
actions2: b d
trans s (a,b): x=1
trans s (c,b): x=1
trans s (a,d): x=1
trans s (c,d): y=1
absorb x
absorb y
"""


def test_right_rows_and_blindness_follow_the_steps():
    """``right[t]`` holds one row per player-2 action with the successor of
    each player-1 action, and the sorted union of the rows' supports; the
    seeded models have more player-1 than player-2 actions. ``blind[t]``
    says whether every action of player 1, and of player 2, gives the same
    successor against each action of the other; at AGREE_FIRST's ``s`` the
    actions of each player agree against the other's first action only."""
    models = [load_fixture_model(name) for name in
              ("dup.pgs", "rps.pgs", "halving.pgs", "lifthost.pgs", "single.pgs", "split_levels.pgs")]
    models += [random_model(random.Random(seed), n_states=4, n_acts1=3) for seed in range(8)]
    models.append(parse_model(AGREE_FIRST))
    for g in models:
        for t in g.states:
            rows, support = g.right[t]
            assert rows == tuple(tuple(g.step(t, a, b) for a in g.acts1) for b in g.acts2)
            assert support == sorted(set().union(*[d.support() for row in rows for d in row]))
            assert g.blind[t] == (
                all(g.step(t, a, b) == g.step(t, g.acts1[0], b) for a in g.acts1 for b in g.acts2),
                all(g.step(t, a, b) == g.step(t, a, g.acts2[0]) for a in g.acts1 for b in g.acts2),
            )
    assert models[-1].blind["s"] == (False, False)
