"""Simulation preorders: alternating simulation for deterministic games and
probabilistic alternating simulation via approximant refinement.

The existential side of the step condition (find a player-1 mixed action at
the simulating state whose successor set Smyth-dominates) is decided exactly
by one rational LP per candidate lottery of the universal side. The universal
side ranges over an infinite simplex, so it is resolved by a strategy: pure
lotteries only, a rational grid, or export of the exact condition to SMT-LIB
for an external solver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from urllib.parse import quote

from .model import GameStructure, ModelError
from .prob import (
    LinearProblem,
    MixedAction,
    Relation,
    combine_dists,
    grid_lotteries,
    lp_feasible,
)

PURE = "pure"
GRID = "grid"
SMT_EXPORT = "smt"


@dataclass(frozen=True)
class QuantStrategy:
    """Resolution of the universal mixed-action quantifier."""

    kind: str
    k: int = 1
    directory: str = ""

    def __post_init__(self):
        if self.kind not in (PURE, GRID, SMT_EXPORT):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == GRID and self.k < 1:
            raise ValueError("grid size must be at least 1")
        if self.kind == SMT_EXPORT and not self.directory:
            raise ValueError("smt export needs a target directory")

    @classmethod
    def pure(cls) -> "QuantStrategy":
        return cls(PURE)

    @classmethod
    def grid(cls, k: int) -> "QuantStrategy":
        return cls(GRID, k=k)

    @classmethod
    def smt_export(cls, directory: str) -> "QuantStrategy":
        return cls(SMT_EXPORT, directory=directory)

    def describe(self) -> str:
        if self.kind == GRID:
            return f"grid={self.k}"
        if self.kind == SMT_EXPORT:
            return f"smt={self.directory}"
        return "pure"


@dataclass(frozen=True)
class SimReport:
    """Outcome of the approximant iteration.

    ``witnesses`` maps each surviving pair to one (lottery, response) entry
    per tested universal lottery; ``deferred`` lists pairs whose condition
    was exported rather than decided.
    """

    relation: Relation
    iterations: int
    strategy: QuantStrategy
    witnesses: dict
    deferred: tuple = ()


def initial_relation(g: GameStructure) -> Relation:
    """All pairs with equal label sets; the zeroth approximant."""
    return Relation(
        (s, t) for s in g.states for t in g.states if g.labels[s] == g.labels[t]
    )


def _delta(g, s, pi1_at_s, b2):
    """Successor of ``s`` under lottery ``pi1_at_s`` and pure response ``b2``."""
    return combine_dists((p, g.step(s, a, b2)) for a, p in pi1_at_s.items())


def exists_pi2_check(g: GameStructure, s, t, pi1_at_s, r: Relation):
    """Exact search for a player-1 lottery at ``t`` matching ``pi1_at_s``.

    Feasibility of: the successor set of ``t`` under the unknown lottery is
    Smyth-dominated by the successor set of ``s``, in the lifted relation.
    Every pure response at ``t`` is covered by a convex combination of the
    responses at ``s`` plus a lifting witness, all in one LP. Returns the
    lottery as a MixedAction, or None.
    """
    pi1_at_s = {a: Fraction(p) for a, p in pi1_at_s.items() if Fraction(p) != 0}
    if sum(pi1_at_s.values(), Fraction(0)) != 1:
        raise ValueError("lottery does not sum to 1")
    deltas = {b2: _delta(g, s, pi1_at_s, b2) for b2 in g.acts2}
    left_states = sorted(set().union(*[d.support() for d in deltas.values()]))

    lp = LinearProblem()
    xs = {a: lp.var(f"x[{a}]") for a in g.acts1}
    lp.add({v: 1 for v in xs.values()}, "==", 1)
    for b in g.acts2:
        succ = {a: g.step(t, a, b) for a in g.acts1}
        right_states = sorted(set().union(*[d.support() for d in succ.values()]))
        lams = {b2: lp.var(f"lam[{b},{b2}]") for b2 in g.acts2}
        lp.add({v: 1 for v in lams.values()}, "==", 1)
        pairs = [(u, v) for u in left_states for v in right_states if (u, v) in r]
        ws = {(u, v): lp.var(f"w[{b},{u},{v}]") for u, v in pairs}
        for v in right_states:
            coeffs = {ws[(u, w)]: Fraction(1) for u, w in pairs if w == v}
            for a, d in succ.items():
                if d[v] > 0:
                    coeffs[xs[a]] = coeffs.get(xs[a], Fraction(0)) - d[v]
            lp.add(coeffs, "==", 0)
        for u in left_states:
            coeffs = {ws[(x, v)]: Fraction(1) for x, v in pairs if x == u}
            for b2, d in deltas.items():
                if d[u] > 0:
                    coeffs[lams[b2]] = coeffs.get(lams[b2], Fraction(0)) - d[u]
            lp.add(coeffs, "==", 0)

    sol = lp_feasible(lp)
    if sol is None:
        return None
    lottery = {a: sol[xs[a]] for a in g.acts1 if sol[xs[a]] > 0}
    return MixedAction({t: lottery}, 1)


def _test_lotteries(g: GameStructure, strat: QuantStrategy):
    if strat.kind == PURE:
        return [{a: Fraction(1)} for a in g.acts1]
    return grid_lotteries(g.acts1, strat.k)


def _file_part(name: str) -> str:
    """Percent-encode a state name, ``_`` included, so ``s_t`` file names of
    distinct pairs differ."""
    return quote(name, safe="").replace("_", "%5F")


def refine_once(g: GameStructure, r: Relation, strat: QuantStrategy):
    """One approximant step against the frozen relation ``r``.

    Returns (relation, witnesses). A pair survives iff every tested
    universal lottery has an exact existential response; under SMT export
    nothing is decided, scripts are written and every pair survives.
    """
    if strat.kind == SMT_EXPORT:
        os.makedirs(strat.directory, exist_ok=True)
        for s, t in r:
            path = os.path.join(strat.directory, f"{_file_part(s)}_{_file_part(t)}.smt2")
            with open(path, "w") as fh:
                fh.write(export_smt(g, s, t, r))
        return r, {}
    lotteries = _test_lotteries(g, strat)
    kept = []
    witnesses = {}
    for s, t in r:
        entry = []
        ok = True
        for lot in lotteries:
            pi2 = exists_pi2_check(g, s, t, lot, r)
            if pi2 is None:
                ok = False
                break
            entry.append((dict(lot), pi2))
        if ok:
            kept.append((s, t))
            witnesses[(s, t)] = entry
    return Relation(kept), witnesses


def pa_simulation(g: GameStructure, strat: QuantStrategy) -> SimReport:
    """Iterate refinement from the label-equal relation to its fixpoint.

    Each round removes at least one pair, so the loop ends within |S|^2
    rounds. With pure or grid strategies the result over-approximates the
    simulation (coarser universal test sets remove fewer pairs).
    """
    r = initial_relation(g)
    witnesses = {}
    iterations = 0
    bound = len(g.states) ** 2
    while iterations < bound + 1:
        nxt, wit = refine_once(g, r, strat)
        iterations += 1
        if nxt == r:
            witnesses = wit
            break
        r = nxt
    deferred = tuple(r) if strat.kind == SMT_EXPORT else ()
    return SimReport(r, iterations, strat, witnesses, deferred)


def a_simulation(g: GameStructure) -> Relation:
    """Greatest alternating simulation of a deterministic game.

    Pure-action quantifiers over curried successor sets: (s,t) survives iff
    for every action a at s some action a' at t makes each response
    successor of t related from some response successor of s.
    """
    if not g.is_deterministic():
        raise ModelError("model is probabilistic")

    def target(s, a1, a2):
        return g.step(s, a1, a2).support()[0]

    r = set(initial_relation(g).pairs)
    changed = True
    while changed:
        changed = False
        for s, t in sorted(r):
            ok = all(
                any(
                    all(
                        any((target(s, a, b2), target(t, ap, b)) in r for b2 in g.acts2)
                        for b in g.acts2
                    )
                    for ap in g.acts1
                )
                for a in g.acts1
            )
            if not ok:
                r.discard((s, t))
                changed = True
    return Relation(r)


def _smt_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator) if x.numerator >= 0 else f"(- {-x.numerator})"
    return f"(/ {x.numerator} {x.denominator})"


def _smt_sum(terms) -> str:
    terms = [t for t in terms if t != "0"]
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def export_smt(g: GameStructure, s, t, r: Relation) -> str:
    """SMT-LIB 2 script deciding the exact step condition for (s, t).

    A quantified nonlinear-real sentence: for all lotteries at ``s`` there
    exist a lottery at ``t``, response mixtures and lifting weights meeting
    the marginal equations. ``sat`` means the pair satisfies the condition
    under ``r``. Variables: lottery p over player-1 actions (universal);
    existential x (lottery at t), lam (one response mixture per player-2
    action) and w (one lifting weight per related pair per player-2 action).
    Symbols carry declaration indices, not names, since names may contain
    ``_``; a comment line lists the names in index order.
    """
    st = {u: i for i, u in enumerate(g.states)}
    pvars = {a: f"p_{i}" for i, a in enumerate(g.acts1)}
    xvars = {a: f"x_{i}" for i, a in enumerate(g.acts1)}
    pairs = sorted(r.pairs)

    def simplex(names):
        parts = [f"(>= {v} 0)" for v in names]
        parts.append("(= " + _smt_sum(list(names)) + " 1)")
        return parts

    ex_decls = [f"({v} Real)" for v in xvars.values()]
    body = simplex(list(xvars.values()))
    for bi, b in enumerate(g.acts2):
        lams = {b2: f"lam_{bi}_{ci}" for ci, b2 in enumerate(g.acts2)}
        ws = {(u, v): f"w_{bi}_{st[u]}_{st[v]}" for u, v in pairs}
        ex_decls += [f"({v} Real)" for v in lams.values()]
        ex_decls += [f"({v} Real)" for v in ws.values()]
        body += simplex(list(lams.values()))
        body += [f"(>= {v} 0)" for v in ws.values()]
        # Column sums: marginals of w equal the successors of t under x.
        for v in g.states:
            lhs = _smt_sum([ws[(u, w)] for u, w in pairs if w == v])
            rhs = _smt_sum(
                [
                    f"(* {xvars[a]} {_smt_rat(g.step(t, a, b)[v])})"
                    for a in g.acts1
                    if g.step(t, a, b)[v] > 0
                ]
            )
            body.append(f"(= {lhs} {rhs})")
        # Row sums: marginals of w equal the mixed response successors of s.
        for u in g.states:
            lhs = _smt_sum([ws[(x, v)] for x, v in pairs if x == u])
            terms = []
            for b2 in g.acts2:
                for a in g.acts1:
                    coeff = g.step(s, a, b2)[u]
                    if coeff > 0:
                        terms.append(f"(* {lams[b2]} {pvars[a]} {_smt_rat(coeff)})")
            body.append(f"(= {lhs} {_smt_sum(terms)})")

    uni_decls = " ".join(f"({v} Real)" for v in pvars.values())
    guard = "(and " + " ".join(simplex(list(pvars.values()))) + ")"
    inner = "(and " + " ".join(body) + ")"
    exists = "(exists (" + " ".join(ex_decls) + ") " + inner + ")"
    lines = [
        f"; step condition for pair ({s}, {t})",
        "; index order: states " + " ".join(g.states) + "; actions1 "
        + " ".join(g.acts1) + "; actions2 " + " ".join(g.acts2),
        "(set-logic NRA)",
        f"(assert (forall ({uni_decls}) (=> {guard} {exists})))",
        "(check-sat)",
    ]
    return "\n".join(lines) + "\n"
