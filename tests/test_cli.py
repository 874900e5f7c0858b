"""CLI behavior: exit codes, JSON schema, determinism, diagnostics."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pags
from pags import fixture_path
from pags.cli import run
from pags.formula import FORMAT_BUDGET, parse_formula
from pags.logic import ENFORCE_BUDGET, SPLIT_BUDGET, evaluate
from pags.oracle import brute_eval
from pags.prob import LOTTERY_BUDGET, parse_distribution

RPS = str(fixture_path("rps.pgs"))
HOST = str(fixture_path("lifthost.pgs"))
REL = str(fixture_path("lifthost.rel"))
HALV = str(fixture_path("halving.pgs"))
DUP = str(fixture_path("dup.pgs"))
SINGLE = str(fixture_path("single.pgs"))


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_lift_feasible_exit_zero():
    code, out, _ = invoke([
        "lift", "--model", HOST, "--relation", REL,
        "--delta", "s1:1/2,s2:1/2", "--theta", "t1:1/3,t2:1/3,t3:1/3",
    ])
    assert code == 0
    assert "feasible" in out and "1/3" in out
    assert "0.3" not in out  # rationals only, never decimals


def test_lift_infeasible_exit_one(tmp_path):
    rel = tmp_path / "narrow.rel"
    rel.write_text("s1 t1\n")
    code, out, _ = invoke([
        "lift", "--model", HOST, "--relation", str(rel),
        "--delta", "s1:1/2,s2:1/2", "--theta", "t1:1",
    ])
    assert code == 1 and "infeasible" in out


def test_eval_unknown_exit_two():
    code, out, _ = invoke([
        "eval", "--model", RPS, "--dist", "s0:1",
        "--formula", "mu Z. win1 | <1> Z", "--unfold", "4",
    ])
    assert code == 2
    assert "µ not established at bound 4" in out


def test_eval_holds_exit_zero():
    code, out, _ = invoke([
        "eval", "--model", RPS, "--dist", "s0:1",
        "--formula", "mu Z. sum{1/3: win1, 2/3: true} | <1> Z",
        "--unfold", "2", "--grid", "3",
    ])
    assert code == 0 and "verdict: holds" in out


def test_eval_fails_exit_one():
    code, out, _ = invoke([
        "eval", "--model", RPS, "--dist", "s0:1", "--formula", "win1",
    ])
    assert code == 1 and "verdict: fails" in out


def test_eval_json_schema():
    code, out, _ = invoke([
        "eval", "--model", RPS, "--dist", "s1:1", "--formula", "win1", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"result", "certified", "witness", "bound", "mode"}
    assert payload["result"] == "holds" and payload["certified"] is True


def test_formula_inline_and_file_conflict(tmp_path):
    f = tmp_path / "f.lphi"
    f.write_text("win1\n")
    code, _, err = invoke([
        "eval", "--model", RPS, "--dist", "s0:1",
        "--formula", "win1", "--formula-file", str(f),
    ])
    assert code == 3 and "not both" in err


def test_formula_file_accepted(tmp_path):
    f = tmp_path / "f.lphi"
    f.write_text("# a comment\nwin1\n")
    code, out, _ = invoke([
        "eval", "--model", RPS, "--dist", "s1:1", "--formula-file", str(f),
    ])
    assert code == 0


def test_sim_pair_related_and_unrelated():
    code, out, _ = invoke(["sim", "--model", DUP, "--mode", "grid=2", "--pair", "u,u2"])
    assert code == 0 and "related" in out
    code, out, _ = invoke(["sim", "--model", DUP, "--mode", "grid=2", "--pair", "u,x"])
    assert code == 1 and "unrelated" in out


def test_sim_pair_unknown_or_empty_state_is_usage_error():
    for pair in ("s0,zz", "s0,", ",s1"):
        code, out, err = invoke(["sim", "--model", RPS, "--pair", pair])
        assert code == 3 and out == "" and "unknown state" in err


def test_sim_smt_directory_under_a_file_is_usage_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = invoke(["sim", "--model", RPS, "--mode", f"smt={blocker}/sub"])
    assert code == 3 and out == "" and "cannot write SMT scripts" in err


def test_sim_smt_mode_defers(tmp_path):
    code, out, _ = invoke(["sim", "--model", RPS, "--mode", f"smt={tmp_path}"])
    assert code == 2 and "deferred" in out
    assert (tmp_path / "s0_s0.smt2").exists()


def test_asim_on_probabilistic_model_is_error():
    code, _, err = invoke(["asim", "--model", HALV])
    assert code == 3 and "probabilistic" in err


def test_asim_deterministic():
    code, out, _ = invoke(["asim", "--model", RPS])
    assert code == 0 and "s0 s0" in out


def test_charform_prints_formula():
    code, out, _ = invoke([
        "charform", "--model", RPS, "--state", "s1", "--depth", "0", "--grid", "1",
    ])
    assert code == 0 and "win1" in out and "!draw" in out


def test_preorder_exit_codes():
    code, _, _ = invoke([
        "preorder", "--model", DUP, "--from", "u", "--to", "u2",
        "--depth", "1", "--grid", "2",
    ])
    assert code == 0
    code, _, _ = invoke([
        "preorder", "--model", RPS, "--from", "s1", "--to", "s2",
        "--depth", "1", "--grid", "1",
    ])
    assert code == 1
    for depth in ("2", "3"):
        code, out, _ = invoke([
            "preorder", "--model", str(fixture_path("split_levels.pgs")), "--from", "s",
            "--to", "t", "--depth", depth, "--grid", "2",
        ])
        assert code == 2 and "verdict: unknown" in out, depth


def test_oracle_subcommands():
    code, out, _ = invoke([
        "oracle", "lift", "--model", HOST, "--relation", REL,
        "--delta", "s1:1/2,s2:1/2", "--theta", "t1:1/3,t2:1/3,t3:1/3",
    ])
    assert code == 0 and "feasible" in out
    code, out, _ = invoke(["oracle", "sim", "--model", RPS, "--grid", "1"])
    assert code == 0 and "s0 s0" in out
    code, out, _ = invoke([
        "oracle", "eval", "--model", RPS, "--dist", "s1:1", "--formula", "win1",
    ])
    assert code == 0


def test_bad_model_path_exit_three():
    code, _, err = invoke(["sim", "--model", "/nonexistent.pgs"])
    assert code == 3 and "cannot read model" in err


def test_bad_distribution_exit_three():
    code, _, err = invoke(["eval", "--model", RPS, "--dist", "zz:1", "--formula", "win1"])
    assert code == 3 and "unknown state" in err


def test_usage_error_exit_three():
    code, _, _ = invoke(["lift", "--model", RPS])
    assert code == 3


def test_determinism_byte_identical():
    argvs = [
        ["lift", "--model", HOST, "--relation", REL,
         "--delta", "s1:1/2,s2:1/2", "--theta", "t1:1/3,t2:1/3,t3:1/3"],
        ["eval", "--model", RPS, "--dist", "s0:1",
         "--formula", "mu Z. win1 | <1> Z", "--unfold", "2"],
        ["sim", "--model", DUP, "--mode", "grid=2", "--trace"],
        ["eval", "--model", RPS, "--dist", "s1:1", "--formula", "win1", "--json"],
    ]
    for argv in argvs:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_literal_order_of_a_distribution_changes_no_byte():
    """``s0:1/3,s1:1/3,s2:1/3`` and ``s0:1/3,s2:1/3,s1:1/3`` are one
    distribution, so they print one split."""
    outputs = [
        invoke(["eval", "--model", RPS, "--formula", "sum{1/3: !draw, 2/3: true}", "--json",
                "--dist", dist])
        for dist in ("s0:1/3,s1:1/3,s2:1/3", "s0:1/3,s2:1/3,s1:1/3")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_eval_split_denominator_zero_is_usage_error():
    code, out, err = invoke([
        "eval", "--model", RPS, "--dist", "s0:1", "--formula", "win1", "--split-denom", "0",
    ])
    assert code == 3 and out == "" and "split denominator" in err


def test_eval_negative_unfold_is_usage_error():
    code, out, err = invoke([
        "eval", "--model", RPS, "--dist", "s0:1",
        "--formula", "mu Z. win1 | <1> Z", "--unfold", "-1",
    ])
    assert code == 3 and out == "" and "unfold bound" in err


def test_eval_grid_zero_is_usage_error():
    code, out, err = invoke([
        "eval", "--model", RPS, "--dist", "s0:1", "--formula", "<1> win1", "--grid", "0",
    ])
    assert code == 3 and out == "" and "grid" in err


def test_negative_depth_is_usage_error():
    code, out, err = invoke(["charform", "--model", RPS, "--state", "s0", "--depth", "-1"])
    assert code == 3 and out == "" and "depth" in err
    code, out, err = invoke([
        "preorder", "--model", RPS, "--from", "s0", "--to", "s1", "--depth", "-1",
    ])
    assert code == 3 and out == "" and "depth" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(pags.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pags", "sim", "--model", RPS, "--pair", "s0,s1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and "unrelated: (s0, s1)" in proc.stdout


def test_zero_denominator_is_usage_error(tmp_path):
    model = tmp_path / "m.pgs"
    model.write_text("model m\nstates: s  init: s\nprops:\nactions1: a\nactions2: b\n"
                     "trans s (a,b): s=1/0\n")
    code, out, err = invoke(["sim", "--model", str(model)])
    assert code == 3 and out == "" and "zero denominator" in err
    code, out, err = invoke(["eval", "--model", RPS, "--dist", "s0:1/0", "--formula", "win1"])
    assert code == 3 and out == "" and "zero denominator" in err
    code, out, err = invoke([
        "eval", "--model", RPS, "--dist", "s0:1", "--formula", "sum{1/0: win1}",
    ])
    assert code == 3 and out == "" and "zero denominator" in err


def test_sim_trace_counts_lotteries_without_solving_witnesses(monkeypatch):
    """``--trace`` prints one line per kept pair from the grid size alone:
    the witness pass never runs, and on lifthost no step LP is solved."""
    def refuse(*args):
        raise AssertionError("witnesses solved")

    real, solves = pags.sim.lp_feasible, []

    def counted(lp):
        solves.append(lp)
        return real(lp)

    monkeypatch.setattr(pags.sim, "_witnesses", refuse)
    monkeypatch.setattr(pags.sim, "lp_feasible", counted)
    for model, mode in ((DUP, "grid=2"), (RPS, "grid=3"), (HOST, "pure")):
        solves.clear()
        code, out, err = invoke(["sim", "--model", model, "--mode", mode, "--trace"])
        assert code == 0 and err == "" and "lotteries matched" in out
    assert solves == []  # on lifthost, the last model


def test_duplicate_action_model_is_usage_error(tmp_path):
    model = tmp_path / "m.pgs"
    model.write_text("model m\nstates: s  init: s\nprops:\nactions1: a a\nactions2: b\nabsorb s\n")
    for mode in ("pure", "grid=2"):
        code, out, err = invoke(["sim", "--model", str(model), "--mode", mode])
        assert code == 3 and out == "" and "line 4: duplicate player-1 action" in err


def test_deeply_nested_formula_is_usage_error():
    """Too deep for the parser, or parsed but too deep for the evaluator:
    exit 3 with one error line and no traceback."""
    for model, text in ((RPS, "(" * 3000 + "win1" + ")" * 3000),
                        (RPS, "mu X. sum{1: " * 200 + "win1" + "}" * 200),
                        (SINGLE, "<1> " * 600 + "p")):
        code, out, err = invoke(["eval", "--model", model, "--dist", "s0:1", "--formula", text])
        assert code == 3 and out == "" and "nested too deeply" in err and err.count("\n") == 1
    assert err == "error: formula is nested too deeply\n"


def test_charform_too_deep_or_too_long_to_print_is_usage_error():
    """A characteristic formula too deep to build (dup at depth 300), or
    whose text would pass ``FORMAT_BUDGET`` nodes (rps at depth 6, grid 2),
    exits 3 with one error line and no traceback, and no text is built."""
    cases = [
        ([DUP, "u", "300", "1"], "error: formula is nested too deeply\n"),
        ([RPS, "s0", "6", "2"],
         f"error: formula text would hold 407697308 nodes, over the budget of {FORMAT_BUDGET}\n"),
    ]
    for (model, state, depth, grid), message in cases:
        code, out, err = invoke(["charform", "--model", model, "--state", state,
                                 "--depth", depth, "--grid", grid])
        assert (code, out, err) == (3, "", message)


def test_internal_error_exits_three(monkeypatch):
    def crash(*args):
        raise KeyError("boom")

    monkeypatch.setattr(pags.cli, "pa_simulation", crash)
    code, out, err = invoke(["sim", "--model", RPS])
    assert code == 3 and out == "" and "Traceback" in err
    assert err.endswith("\nerror: internal error: KeyError: 'boom'\n")


def test_oracle_eval_honours_no_certify():
    argv = ["--model", RPS, "--dist", "s0:1", "--formula", "draw", "--json"]
    for prefix in (["eval"], ["oracle", "eval"]):
        code, out, _ = invoke(prefix + argv)
        assert code == 0 and json.loads(out)["certified"] is True
        code, out, _ = invoke(prefix + argv + ["--no-certify"])
        assert code == 0 and json.loads(out)["certified"] is False


def test_no_certify_masks_the_printed_report(rps):
    """`--no-certify` clears the printed flag; the engines still certify."""
    argv = ["--model", RPS, "--dist", "s1:1", "--formula", "win1", "--no-certify"]
    assert invoke(["eval"] + argv) == (
        0, 'verdict: holds\ncertified: false\nwitness: {"exact": true}\n', "")
    assert invoke(["oracle", "eval"] + argv) == (0, "verdict: holds\ncertified: false\n", "")
    d, phi = parse_distribution("s1:1"), parse_formula("win1")
    assert evaluate(rps, d, phi).certified and brute_eval(rps, d, phi).certified


def test_closed_stdout_is_one_error_line():
    """A reader that has gone away is a usage-level failure (exit 3): one
    `error:` line, no traceback and nothing more at interpreter exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(pags.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pags", "sim", "--model", RPS],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == "error: standard output closed\n"


def test_oracle_grid_and_scale_below_one_are_usage_errors():
    code, out, err = invoke(["oracle", "sim", "--model", RPS, "--grid", "0"])
    assert code == 3 and out == "" and "grid must be >= 1" in err
    for scale in ("0", "-3"):
        code, out, err = invoke([
            "oracle", "lift", "--model", HOST, "--relation", REL,
            "--delta", "s1:1", "--theta", "t1:1/2,t2:1/2", "--scale", scale,
        ])
        assert code == 3 and out == "" and "scale must be >= 1" in err


# A `<1>` body that passes the support test at every support, as every
# fixpoint does, so that no `<1>` nested over it skips its body.
_REACH = "(mu Z. win1 | <1> Z)"


def test_nested_enforce_hits_the_evaluation_budget():
    """Sixteen `<1>` nested over a reachability formula on rps exceed the
    successor budget: exit 3 with the count and the limit, well within the
    timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(pags.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pags", "eval", "--model", RPS, "--dist", "s0:1",
         "--formula", "<1> " * 16 + _REACH],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == (
        f"error: <1> built {ENFORCE_BUDGET + 1} successor distributions, "
        f"over the budget of {ENFORCE_BUDGET}\n"
    )


def test_fine_split_grid_hits_the_split_budget():
    """A three-way `sum` of `<1>` items at split denominator 30 on rps's
    uniform distribution searches about 496 fractions per state: exit 3 with
    the count and the limit, well within the timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(pags.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pags", "eval", "--model", RPS,
         "--dist", "s0:1/3,s1:1/3,s2:1/3",
         "--formula", "sum{1/3: <1> win1, 1/3: <1> win2, 1/3: <1> draw}",
         "--split-denom", "30"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == (
        f"error: the split search tried {SPLIT_BUDGET + 1} candidates, "
        f"over the budget of {SPLIT_BUDGET}\n"
    )


@pytest.mark.parametrize("argv", [
    ["eval", "--model", RPS, "--dist", "s0:1", "--formula", "<1> win1", "--grid", "2000"],
    ["preorder", "--model", RPS, "--from", "s0", "--to", "s1", "--depth", "1", "--grid", "2000"],
    ["charform", "--model", RPS, "--state", "s0", "--depth", "1", "--grid", "2000"],
    ["sim", "--model", RPS, "--mode", "grid=2000"],
])
def test_a_grid_with_too_many_lotteries_is_refused_before_any_is_built(monkeypatch, argv):
    """rps's 3 actions at grid 2000 would take 2,003,001 lotteries: exit 3
    with one line, and no lottery is enumerated."""
    monkeypatch.setattr("pags.prob.compositions", None)
    assert invoke(argv) == (
        3, "",
        f"error: grid 2000 over 3 actions gives 2003001 lotteries, "
        f"over the budget of {LOTTERY_BUDGET}\n",
    )


_LIFT = ["lift", "--model", HOST, "--delta", "s1:1", "--theta", "t1:1"]
_EVAL = ["eval", "--model", RPS, "--dist", "s0:1"]
_UNKNOWN = "verdict: unknown\ncertified: false\n"
_NESTED = "<1> " * 10 + _REACH  # 66,773 successor requests when evaluated at s0:1


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (_LIFT + ["--relation", "{tmp}/missing.rel"], 3, "",
     "error: cannot read relation: [Errno 2] No such file or directory: "
     "'{tmp}/missing.rel'\n"),
    (_LIFT + ["--relation", "{tmp}/bad.rel"], 3, "",
     "error: bad relation file: line 1: expected two state names, got 's1'\n"),
    (_EVAL + ["--formula-file", "{tmp}/missing.lphi"], 3, "",
     "error: cannot read formula file: [Errno 2] No such file or directory: "
     "'{tmp}/missing.lphi'\n"),
    (_EVAL, 3, "", "error: a formula is required (--formula or --formula-file)\n"),
    (_EVAL + ["--formula", "win1 &"], 3, "", "error: bad formula: unexpected token ''\n"),
    (["sim", "--model", RPS, "--mode", "grid=x"], 3, "",
     "error: bad grid size: invalid literal for int() with base 10: 'x'\n"),
    (["sim", "--model", RPS, "--mode", "foo"], 3, "",
     "error: bad mode 'foo', expected pure|grid=K|smt=DIR\n"),
    (["sim", "--model", RPS, "--pair", "s0"], 3, "", "error: --pair expects 's,t'\n"),
    (["sim", "--model", RPS, "--pair", "s0,s0", "--mode", "smt={tmp}/smt"], 2,
     "deferred: (s0, s0)\niterations: 0\n", ""),
    (_EVAL + ["--formula", "nu X. draw & <1> X", "--unfold", "1"], 2,
     _UNKNOWN + "ν not refuted at bound 1\n", ""),
    (_EVAL + ["--formula", "<1> win1"], 2, _UNKNOWN + "unknown at bound 4\n", ""),
    (["charform", "--model", RPS, "--state", "zz", "--depth", "1"], 3, "",
     "error: unknown state 'zz'\n"),
    (["preorder", "--model", RPS, "--from", "zz", "--to", "s0", "--depth", "1"], 3, "",
     "error: unknown state 'zz'\n"),
    (["sim", "--model", RPS, "--pair", ""], 3, "", "error: --pair expects 's,t'\n"),
    (_EVAL + ["--formula", "<1> " * 10 + "win1"], 2, _UNKNOWN + "unknown at bound 4\n", ""),
])
def test_pinned_paths(tmp_path, argv, code, stdout, stderr):
    """Exit code and exact output of paths no other test executes."""
    (tmp_path / "bad.rel").write_text("s1\n")
    tmp = str(tmp_path)
    got = invoke([a.replace("{tmp}", tmp) for a in argv])
    assert got == (code, stdout, stderr.replace("{tmp}", tmp))


_SMALL_BUDGET = 10_000  # below them, so that evaluating _NESTED exits 3
_BUDGET = (
    f"error: <1> built {_SMALL_BUDGET + 1} successor distributions, "
    f"over the budget of {_SMALL_BUDGET}\n"
)


@pytest.mark.parametrize("formula, code, stdout, stderr", [
    # A certified verdict of an earlier item decides, so the nested `<1>`
    # is never evaluated and charges nothing.
    (f"win1 & {_NESTED}", 1,
     'verdict: fails\ncertified: true\n'
     'counterexample: {"conjunct": 0, "counterexample": {"exact": true}}\n', ""),
    (f"draw | {_NESTED}", 0,
     'verdict: holds\ncertified: true\n'
     'witness: {"disjunct": 0, "witness": {"exact": true}}\n', ""),
    (f"win1 & (mu Z. {_NESTED} | Z)", 1,
     'verdict: fails\ncertified: true\n'
     'counterexample: {"conjunct": 0, "counterexample": {"exact": true}}\n', ""),
    # Evaluated first, so the budget runs out, also inside a fixpoint.
    (f"{_NESTED} & win1", 3, "", _BUDGET),
    (f"(mu Z. {_NESTED} | Z) & win1", 3, "", _BUDGET),
])
def test_budgets_are_charged_only_for_evaluated_items(monkeypatch, formula, code, stdout, stderr):
    monkeypatch.setattr("pags.logic.ENFORCE_BUDGET", _SMALL_BUDGET)
    assert invoke(_EVAL + ["--formula", formula]) == (code, stdout, stderr)
