"""Verification toolkit for two-player probabilistic concurrent games.

Exact rational engines for relation lifting, alternating simulation and a
distribution-level modal logic, with brute-force oracles and a CLI.
"""

from importlib import resources

from .formula import format_formula, parse_formula, unfold_fixpoint
from .logic import (
    EvalOptions,
    EvalResult,
    char_formula_dist,
    char_formula_state,
    enforce_check,
    evaluate,
    logic_preorder,
    mix_check,
    split_check,
)
from .model import GameStructure, ModelError, parse_model, serialize_model, validate_model
from .oracle import OracleBudgetError, brute_eval, brute_lift, brute_sim
from .prob import (
    Distribution,
    MixedAction,
    Relation,
    WeightWitness,
    lift_check,
    parse_distribution,
    parse_relation,
    smyth_check,
    split_match,
)
from .sim import (
    QuantStrategy,
    SimReport,
    a_simulation,
    exists_pi2_check,
    export_smt,
    export_smt_scripts,
    initial_relation,
    pa_simulation,
    refine_once,
)

__all__ = [
    "Distribution",
    "EvalOptions",
    "EvalResult",
    "GameStructure",
    "MixedAction",
    "ModelError",
    "OracleBudgetError",
    "QuantStrategy",
    "Relation",
    "SimReport",
    "WeightWitness",
    "a_simulation",
    "brute_eval",
    "brute_lift",
    "brute_sim",
    "char_formula_dist",
    "char_formula_state",
    "enforce_check",
    "evaluate",
    "exists_pi2_check",
    "export_smt",
    "export_smt_scripts",
    "fixture_path",
    "fixture_text",
    "format_formula",
    "initial_relation",
    "lift_check",
    "load_fixture_model",
    "logic_preorder",
    "mix_check",
    "pa_simulation",
    "parse_distribution",
    "parse_formula",
    "parse_model",
    "parse_relation",
    "refine_once",
    "serialize_model",
    "smyth_check",
    "split_check",
    "split_match",
    "unfold_fixpoint",
    "validate_model",
]


def fixture_path(name: str):
    """Filesystem path of a bundled example file."""
    return resources.files(__name__) / "fixtures" / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text()


def load_fixture_model(name: str) -> GameStructure:
    return parse_model(fixture_text(name))
