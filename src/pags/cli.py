"""Command-line interface.

Every subcommand prints a deterministic human-readable report, or a single
JSON object with the stable keys result/certified/witness/bound/mode when
``--json`` is given. Exit codes: 0 holds/related/feasible, 1 the negative
counterpart, 2 unknown or deferred, 3 usage or model errors, exhausted hard
budgets, a closed standard output and internal errors, so a crash never
reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace

from .formula import FormulaError, Mu, Nu, format_formula, parse_formula
from .logic import (
    FAILS,
    HOLDS,
    EvalBudgetError,
    EvalOptions,
    char_formula_state,
    evaluate,
    logic_preorder,
)
from .model import ModelError, parse_model
from .oracle import OracleBudgetError, brute_eval, brute_lift, brute_sim
from .prob import (
    format_rational,
    grid_lotteries,
    lift_check,
    parse_distribution,
    parse_relation,
)
from .sim import QuantStrategy, a_simulation, export_smt_scripts, pa_simulation


class UsageError(Exception):
    pass


def _read(path, what):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {what}: {e}") from None


def _state(g, name):
    if name not in g.states:
        raise UsageError(f"unknown state {name!r}")
    return name


def _dist(g, text):
    try:
        d = parse_distribution(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    for s in d.support():
        if s not in g.states:
            raise UsageError(f"distribution mentions unknown state {s!r}")
    return d


def _lift_inputs(args, g):
    try:
        r = parse_relation(_read(args.relation, "relation"))
    except ValueError as e:
        raise UsageError(f"bad relation file: {e}") from None
    return _dist(g, args.delta), _dist(g, args.theta), r


def _formula(args):
    if args.formula is not None and args.formula_file is not None:
        raise UsageError("give --formula or --formula-file, not both")
    if args.formula is not None:
        text = args.formula
    elif args.formula_file is not None:
        text = _read(args.formula_file, "formula file")
    else:
        raise UsageError("a formula is required (--formula or --formula-file)")
    try:
        return parse_formula(text)
    except FormulaError as e:
        raise UsageError(f"bad formula: {e}") from None


def _strategy(text):
    if text == "pure":
        return QuantStrategy.pure()
    if text.startswith("grid="):
        try:
            return QuantStrategy.grid(int(text[5:]))
        except ValueError as e:
            raise UsageError(f"bad grid size: {e}") from None
    raise UsageError(f"bad mode {text!r}, expected pure|grid=K|smt=DIR")


def _emit(out, args, result, certified, witness, bound, mode, lines):
    if args.json:
        payload = {
            "result": result,
            "certified": certified,
            "witness": witness,
            "bound": bound,
            "mode": mode,
        }
        out.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    else:
        for line in lines:
            out.write(line + "\n")


def _render_witness(w):
    return json.dumps(w, sort_keys=True, default=str)


def _verdict(out, args, res, bound, mode, notes=()):
    """Report an EvalResult: its witness when it holds, else its
    counterexample; exit 0 holds, 1 fails, 2 otherwise."""
    payload = res.witness if res.verdict == HOLDS else res.counterexample
    lines = [f"verdict: {res.verdict}", f"certified: {str(res.certified).lower()}", *notes]
    _emit(out, args, res.verdict, res.certified, payload, bound, mode, lines)
    return {HOLDS: 0, FAILS: 1}.get(res.verdict, 2)


def _pairs(rel):
    return [f"{s} {t}" for s, t in rel]


def _listing(out, args, pairs, mode, bound=0, deferred=False, tail=()):
    head = "deferred relation" if deferred else "relation"
    lines = [f"{head} ({len(pairs)} pairs):", *("  " + p for p in pairs), *tail]
    _emit(out, args, "deferred" if deferred else "related", not deferred, pairs,
          bound, mode, lines)
    return 2 if deferred else 0


def _cmd_lift(args, g, out):
    witness = lift_check(*_lift_inputs(args, g))
    if witness is None:
        _emit(out, args, "infeasible", True, None, 0, "lift",
              ["infeasible: no weight function exists"])
        return 1
    rendered = {
        f"{s},{t}": format_rational(w) for (s, t), w in sorted(witness.weights.items())
    }
    _emit(out, args, "feasible", True, rendered, 0, "lift",
          ["feasible"] + [f"w({k}) = {v}" for k, v in sorted(rendered.items())])
    return 0


def _cmd_sim(args, g, out):
    smt_dir = args.mode[4:] if args.mode.startswith("smt=") else None
    deferred = smt_dir is not None
    strat = None if deferred else _strategy(args.mode)
    if args.pair is not None:
        if "," not in args.pair:
            raise UsageError("--pair expects 's,t'")
        s, t = (_state(g, part.strip()) for part in args.pair.split(",", 1))
    if deferred:  # one script per label-equal pair: the zeroth approximant, no round decided
        try:
            relation = export_smt_scripts(g, smt_dir)
        except OSError as e:
            raise UsageError(f"cannot write SMT scripts: {e}") from None
        iterations, mode = 0, args.mode
    else:
        report = pa_simulation(g, strat)
        relation, iterations, mode = report.relation, report.iterations, strat.describe()
    pairs = _pairs(relation)
    if args.pair is None:
        tail = [f"iterations: {iterations}"]
        if args.trace and not deferred:  # each kept pair met every tested lottery
            n = len(grid_lotteries(g.acts1, strat.k))
            tail += [f"witness ({s}, {t}): {n} lotteries matched" for s, t in relation]
        return _listing(out, args, pairs, mode, iterations, deferred, tail)
    if deferred:
        result, code = "deferred", 2
    elif (s, t) in relation:
        result, code = "related", 0
    else:
        result, code = "unrelated", 1
    lines = [f"{result}: ({s}, {t})", f"iterations: {iterations}"]
    _emit(out, args, result, not deferred, pairs, iterations, mode, lines)
    return code


def _cmd_asim(args, g, out):
    return _listing(out, args, _pairs(a_simulation(g)), "asim")


def _cmd_eval(args, g, out, engine, mode):
    d = _dist(g, args.dist)
    phi = _formula(args)
    opts = EvalOptions(
        unfold_bound=args.unfold,
        pi1_grid=args.grid,
        split_denominator=args.split_denom,
    )
    res = engine(g, d, phi, opts)
    if not args.certify:
        res = replace(res, certified=False)
    notes = []
    if res.verdict == HOLDS and res.witness is not None:
        notes.append("witness: " + _render_witness(res.witness))
    elif res.verdict == FAILS and res.counterexample is not None:
        notes.append("counterexample: " + _render_witness(res.counterexample))
    elif res.verdict not in (HOLDS, FAILS):
        which = {Mu: "µ not established at", Nu: "ν not refuted at"}.get(type(phi), "unknown at")
        notes.append(f"{which} bound {opts.unfold_bound}")
    return _verdict(out, args, res, res.bound_used, mode, notes)


def _cmd_charform(args, g, out):
    phi = char_formula_state(g, _state(g, args.state), args.depth, args.grid)
    text = format_formula(phi)
    _emit(out, args, "ok", True, text, args.depth, "charform", [text])
    return 0


def _cmd_preorder(args, g, out):
    s, t = (_state(g, name) for name in (getattr(args, "from"), args.to))
    res = logic_preorder(g, s, t, args.depth, args.grid)
    return _verdict(out, args, res, args.depth, "preorder")


def _cmd_oracle_lift(args, g, out):
    ok = brute_lift(*_lift_inputs(args, g), args.scale)
    result = "feasible" if ok else "infeasible"
    _emit(out, args, result, True, None, 0, "oracle-lift", [result])
    return 0 if ok else 1


def _cmd_oracle_sim(args, g, out):
    return _listing(out, args, _pairs(brute_sim(g, args.grid)), f"oracle-sim grid={args.grid}")


def _add_formula_args(p):
    p.add_argument("--formula")
    p.add_argument("--formula-file")
    p.add_argument("--unfold", type=int, default=4)
    p.add_argument("--grid", type=int, default=2)
    p.add_argument("--split-denom", type=int, default=6)
    p.add_argument("--certify", action=argparse.BooleanOptionalAction, default=True)


def build_parser():
    top = argparse.ArgumentParser(prog="pags")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(group, name, func, *required):
        p = group.add_parser(name)
        p.add_argument("--json", action="store_true")
        for flag in ("--model",) + required:
            p.add_argument(flag, required=True, type=int if flag == "--depth" else str)
        p.set_defaults(func=func)
        return p

    cmd(sub, "lift", _cmd_lift, "--relation", "--delta", "--theta")

    p = cmd(sub, "sim", _cmd_sim)
    p.add_argument("--mode", default="pure")
    p.add_argument("--pair")
    p.add_argument("--trace", action="store_true")

    cmd(sub, "asim", _cmd_asim)

    _add_formula_args(cmd(sub, "eval", lambda args, g, out: _cmd_eval(
        args, g, out, evaluate, "eval"), "--dist"))

    p = cmd(sub, "charform", _cmd_charform, "--state", "--depth")
    p.add_argument("--grid", type=int, default=2)

    p = cmd(sub, "preorder", _cmd_preorder, "--from", "--to", "--depth")
    p.add_argument("--grid", type=int, default=2)

    orc = sub.add_parser("oracle")
    osub = orc.add_subparsers(dest="oracle_command", required=True)

    p = cmd(osub, "lift", _cmd_oracle_lift, "--relation", "--delta", "--theta")
    p.add_argument("--scale", type=int, default=None)

    p = cmd(osub, "sim", _cmd_oracle_sim)
    p.add_argument("--grid", type=int, default=2)

    _add_formula_args(cmd(osub, "eval", lambda args, g, out: _cmd_eval(
        args, g, out, brute_eval, "oracle-eval"), "--dist"))

    return top


def run(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code else 0
    try:
        code = args.func(args, parse_model(_read(args.model, "model")), out)
        out.flush()  # a closed standard output may surface only here
        return code
    except BrokenPipeError:
        err.write("error: standard output closed\n")
        if out is sys.stdout:  # the interpreter flushes stdout again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 3
    except (UsageError, ModelError, OracleBudgetError, EvalBudgetError, ValueError) as e:
        err.write(f"error: {e}\n")
        return 3
    except Exception as e:  # a crash must not exit 0-2, which are verdicts
        traceback.print_exc(file=err)
        err.write(f"error: internal error: {type(e).__name__}: {e}\n")
        return 3


def main() -> int:
    return run()
