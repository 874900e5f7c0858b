"""Model parsing, validation and serialization."""

import random
from fractions import Fraction

import pytest

from conftest import random_model
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
