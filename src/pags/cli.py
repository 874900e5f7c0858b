"""Command-line interface.

Every subcommand prints a deterministic human-readable report, or a single
JSON object with the stable keys result/certified/witness/bound/mode when
``--json`` is given. Exit codes: 0 holds/related/feasible, 1 the negative
counterpart, 2 unknown or deferred, 3 usage or model errors, exhausted hard
budgets and internal errors, so a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

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
    lift_check,
    parse_distribution,
    parse_relation,
)
from .sim import QuantStrategy, a_simulation, pa_simulation


class UsageError(Exception):
    pass


def _load_model(path):
    try:
        with open(path) as fh:
            return parse_model(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read model: {e}") from None


def _load_relation(path):
    try:
        with open(path) as fh:
            return parse_relation(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read relation: {e}") from None
    except ValueError as e:
        raise UsageError(f"bad relation file: {e}") from None


def _dist(g, text):
    try:
        d = parse_distribution(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    for s in d.support():
        if s not in g.states:
            raise UsageError(f"distribution mentions unknown state {s!r}")
    return d


def _formula(args):
    if args.formula is not None and args.formula_file is not None:
        raise UsageError("give --formula or --formula-file, not both")
    if args.formula is not None:
        text = args.formula
    elif args.formula_file is not None:
        try:
            with open(args.formula_file) as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read formula file: {e}") from None
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
    if text.startswith("smt="):
        return QuantStrategy.smt_export(text[4:])
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


def _verdict_exit(verdict) -> int:
    if verdict == HOLDS:
        return 0
    if verdict == FAILS:
        return 1
    return 2


def _render_witness(w):
    return json.dumps(w, sort_keys=True, default=str)


def _cmd_lift(args, out):
    g = _load_model(args.model)
    r = _load_relation(args.relation)
    d = _dist(g, args.delta)
    th = _dist(g, args.theta)
    witness = lift_check(d, th, r)
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


def _cmd_sim(args, out):
    g = _load_model(args.model)
    strat = _strategy(args.mode)
    if args.pair:
        if "," not in args.pair:
            raise UsageError("--pair expects 's,t'")
        s, _, t = (part.strip() for part in args.pair.partition(","))
        for u in (s, t):
            if u not in g.states:
                raise UsageError(f"unknown state {u!r}")
    try:
        report = pa_simulation(g, strat)
    except OSError as e:
        raise UsageError(f"cannot write SMT scripts: {e}") from None
    pairs = [f"{s} {t}" for s, t in report.relation]
    deferred = strat.kind == "smt"
    if args.pair:
        if deferred:
            result, code = "deferred", 2
        elif (s, t) in report.relation:
            result, code = "related", 0
        else:
            result, code = "unrelated", 1
        lines = [f"{result}: ({s}, {t})", f"iterations: {report.iterations}"]
        _emit(out, args, result, not deferred, pairs, report.iterations,
              strat.describe(), lines)
        return code
    result = "deferred" if deferred else "related"
    head = "deferred relation" if deferred else "relation"
    lines = [f"{head} ({len(pairs)} pairs):"] + ["  " + p for p in pairs]
    lines.append(f"iterations: {report.iterations}")
    if args.trace and report.witnesses:
        for (s, t), entries in sorted(report.witnesses.items()):
            lines.append(f"witness ({s}, {t}): {len(entries)} lotteries matched")
    _emit(out, args, result, not deferred, pairs, report.iterations,
          strat.describe(), lines)
    return 2 if deferred else 0


def _cmd_asim(args, out):
    g = _load_model(args.model)
    rel = a_simulation(g)
    pairs = [f"{s} {t}" for s, t in rel]
    lines = [f"relation ({len(pairs)} pairs):"] + ["  " + p for p in pairs]
    _emit(out, args, "related", True, pairs, 0, "asim", lines)
    return 0


def _eval_opts(args):
    return EvalOptions(
        unfold_bound=args.unfold,
        pi1_grid=args.grid,
        split_denominator=args.split_denom,
        certify=args.certify,
    )


def _eval_lines(phi, res, opts):
    lines = [f"verdict: {res.verdict}", f"certified: {str(res.certified).lower()}"]
    if res.verdict == HOLDS and res.witness is not None:
        lines.append("witness: " + _render_witness(res.witness))
    if res.verdict == FAILS and res.counterexample is not None:
        lines.append("counterexample: " + _render_witness(res.counterexample))
    if res.verdict not in (HOLDS, FAILS):
        if isinstance(phi, Mu):
            lines.append(f"µ not established at bound {opts.unfold_bound}")
        elif isinstance(phi, Nu):
            lines.append(f"ν not refuted at bound {opts.unfold_bound}")
        else:
            lines.append(f"unknown at bound {opts.unfold_bound}")
    return lines


def _cmd_eval(args, out):
    g = _load_model(args.model)
    d = _dist(g, args.dist)
    phi = _formula(args)
    opts = _eval_opts(args)
    res = evaluate(g, d, phi, opts)
    payload = res.witness if res.verdict == HOLDS else res.counterexample
    _emit(out, args, res.verdict, res.certified, payload, res.bound_used,
          "eval", _eval_lines(phi, res, opts))
    return _verdict_exit(res.verdict)


def _cmd_charform(args, out):
    g = _load_model(args.model)
    if args.state not in g.states:
        raise UsageError(f"unknown state {args.state!r}")
    phi = char_formula_state(g, args.state, args.depth, args.grid)
    text = format_formula(phi)
    _emit(out, args, "ok", True, text, args.depth, "charform", [text])
    return 0


def _cmd_preorder(args, out):
    g = _load_model(args.model)
    for s in (getattr(args, "from"), args.to):
        if s not in g.states:
            raise UsageError(f"unknown state {s!r}")
    opts = EvalOptions(pi1_grid=args.grid)
    res = logic_preorder(g, getattr(args, "from"), args.to, args.depth, args.grid, opts)
    lines = [f"verdict: {res.verdict}", f"certified: {str(res.certified).lower()}"]
    payload = res.witness if res.verdict == HOLDS else res.counterexample
    _emit(out, args, res.verdict, res.certified, payload, args.depth,
          "preorder", lines)
    return _verdict_exit(res.verdict)


def _cmd_oracle_lift(args, out):
    g = _load_model(args.model)
    r = _load_relation(args.relation)
    d = _dist(g, args.delta)
    th = _dist(g, args.theta)
    ok = brute_lift(d, th, r, args.scale)
    result = "feasible" if ok else "infeasible"
    _emit(out, args, result, True, None, 0, "oracle-lift", [result])
    return 0 if ok else 1


def _cmd_oracle_sim(args, out):
    g = _load_model(args.model)
    rel = brute_sim(g, args.grid)
    pairs = [f"{s} {t}" for s, t in rel]
    lines = [f"relation ({len(pairs)} pairs):"] + ["  " + p for p in pairs]
    _emit(out, args, "related", True, pairs, 0, f"oracle-sim grid={args.grid}", lines)
    return 0


def _cmd_oracle_eval(args, out):
    g = _load_model(args.model)
    d = _dist(g, args.dist)
    phi = _formula(args)
    opts = _eval_opts(args)
    res = brute_eval(g, d, phi, opts)
    payload = res.witness if res.verdict == HOLDS else res.counterexample
    _emit(out, args, res.verdict, res.certified, payload, res.bound_used,
          "oracle-eval", _eval_lines(phi, res, opts))
    return _verdict_exit(res.verdict)


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

    def cmd(name, func, **_):
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    p = cmd("lift", _cmd_lift)
    p.add_argument("--model", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--theta", required=True)

    p = cmd("sim", _cmd_sim)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="pure")
    p.add_argument("--pair")
    p.add_argument("--trace", action="store_true")

    p = cmd("asim", _cmd_asim)
    p.add_argument("--model", required=True)

    p = cmd("eval", _cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--dist", required=True)
    _add_formula_args(p)

    p = cmd("charform", _cmd_charform)
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--grid", type=int, default=2)

    p = cmd("preorder", _cmd_preorder)
    p.add_argument("--model", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--grid", type=int, default=2)

    orc = sub.add_parser("oracle")
    osub = orc.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("lift")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_lift)
    p.add_argument("--model", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--scale", type=int, default=None)

    p = osub.add_parser("sim")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_sim)
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, default=2)

    p = osub.add_parser("eval")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--dist", required=True)
    _add_formula_args(p)

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
        return args.func(args, out)
    except (UsageError, ModelError, OracleBudgetError, EvalBudgetError, ValueError) as e:
        err.write(f"error: {e}\n")
        return 3
    except Exception as e:  # a crash must not exit 0-2, which are verdicts
        traceback.print_exc(file=err)
        err.write(f"error: internal error: {type(e).__name__}: {e}\n")
        return 3


def main() -> int:
    return run()
