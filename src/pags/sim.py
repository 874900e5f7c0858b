"""Simulation preorders: alternating simulation for deterministic games and
probabilistic alternating simulation via approximant refinement.

The existential side of the step condition (find a player-1 mixed action at
the simulating state whose successor set Smyth-dominates) is decided exactly
for each candidate lottery of the universal side. The universal side ranges
over an infinite simplex, so it is resolved by a strategy: pure lotteries
only, or a rational grid.

A step condition is its key (``_condition``): the model's right-hand rows
of ``t`` (``g.right``), the left row (the successors of ``s`` under the
lottery, one per response; for grid lottery i, row i of ``s`` in
``g.successors(k)``, whose level-n formulas the i-th ``<1>`` conjunct of a
characteristic formula mixes), and the relation restricted to their
supports. A decision round settles each condition against the frozen
relation by the cheapest exact test: the copy strategy for a pair
``(s, s)``, an integer max-flow that accepts a pure answer at ``t`` with
one pure response at ``s`` per ``b``, a support test that refutes when
forcing step-LP columns to 0 empties a block, and last, once every
lottery of the pair has passed those tests, the rational step LP, built
from the key. Each public call memoizes step LPs in a dict of its own,
keyed on content. Witnesses are the step LP's vertices against the final
relation, solved on first read of ``SimReport.witnesses``, which ``pags
sim`` never does. ``export_smt_scripts`` instead writes the exact
condition of each label-equal pair as SMT-LIB for an external solver, and
decides nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from urllib.parse import quote

from .model import GameStructure, ModelError
from .prob import (
    LinearProblem,
    MixedAction,
    Relation,
    combine_dists,
    format_rational,
    lifts,
    lp_feasible,
)

PURE = "pure"
GRID = "grid"


@dataclass(frozen=True)
class QuantStrategy:
    """Resolution of the universal mixed-action quantifier: the grid-``k``
    lotteries over player-1 actions, ``k = 1`` (each action alone) for pure."""

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in (PURE, GRID):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == PURE and self.k != 1:
            raise ValueError(f"pure strategy takes k = 1, got {self.k}")
        if self.kind == GRID and self.k < 1:
            raise ValueError("grid size must be at least 1")

    @classmethod
    def pure(cls) -> "QuantStrategy":
        return cls(PURE)

    @classmethod
    def grid(cls, k: int) -> "QuantStrategy":
        return cls(GRID, k=k)

    def describe(self) -> str:
        return f"grid={self.k}" if self.kind == GRID else "pure"


class SimReport:
    """Outcome of the approximant iteration, built by ``pa_simulation`` from
    its model and step-LP memo.

    ``witnesses`` maps each surviving pair to one (lottery, response) entry
    per tested universal lottery: a step-LP vertex for a pair of distinct
    states, the lottery itself (the copy strategy) for a pair ``(s, s)``.
    They are solved on first read, once, and the model and memo are then
    dropped; a report that is never read solves none. Reports are equal
    when their relations, rounds, strategies and witnesses are, so
    comparing two reads the witnesses of both.
    """

    def __init__(self, relation: Relation, iterations: int, strategy: QuantStrategy,
                 g: GameStructure, solved: dict):
        self.relation = relation
        self.iterations = iterations
        self.strategy = strategy
        self._run = g, solved

    @cached_property
    def witnesses(self) -> dict:
        """The final relation's witnesses against itself (``_witnesses``).
        A step LP that refutes a kept pair raises ``ValueError`` here; the
        model and memo are dropped only once the witnesses are built."""
        g, solved = self._run
        witnesses = _witnesses(g, self.relation, self.relation, self.strategy.k, solved)
        del self._run
        return witnesses

    def __eq__(self, other):
        if not isinstance(other, SimReport):
            return NotImplemented
        return ((self.relation, self.iterations, self.strategy, self.witnesses)
                == (other.relation, other.iterations, other.strategy, other.witnesses))

    def __repr__(self):
        return (f"SimReport(relation={self.relation!r}, iterations={self.iterations}, "
                f"strategy={self.strategy!r})")


def initial_relation(g: GameStructure) -> Relation:
    """All pairs with equal label sets; the zeroth approximant."""
    return Relation(
        (s, t) for s in g.states for t in g.states if g.labels[s] == g.labels[t]
    )


def _marginal_rows(dists):
    """Sorted union of the supports of ``dists``, and for each state ``x`` in
    it the integer form ``(den, [(index into dists, -mass * den)])`` of its
    marginal row, ``den`` the lcm of the denominators of the ``dists`` with
    mass at ``x``."""
    states = sorted(set().union(*[d.nums for d in dists]))
    rows = {}
    for x in states:
        held = [(i, d) for i, d in enumerate(dists) if x in d.nums]
        den = 1
        for _, d in held:
            if den % d.den:
                den = lcm(den, d.den)
        rows[x] = (den, [(i, -d.nums[x] * (den // d.den)) for i, d in held])
    return states, rows


def _condition(g: GameStructure, left, t, r: Relation):
    """The key ``(right rows, left row, related pairs)`` of the step
    condition of the left row ``left`` against ``t`` and ``r``: the
    model's right-hand rows of ``t`` (``g.right``), ``left``, and ``r``
    restricted to (left support x right support). ``Distribution``
    equality compares successors by value, so states with equal rows, such
    as mirror copies, share their LPs."""
    right, support = g.right[t]
    left_states = sorted(set().union(*[d.nums for d in left]))
    return right, left, tuple((u, v) for u in left_states for v in support if (u, v) in r)


def _solve(g: GameStructure, key, solved: dict):
    """The step LP's lottery at ``t`` for ``key``, solved once per memo
    ``solved`` (key -> lottery at ``t`` or None)."""
    if key not in solved:
        solved[key] = _solve_step(g, *key)
    return solved[key]


def _refuted(right, left, related) -> bool:
    """Whether the supports alone refute the step condition with key
    ``(right, left, related)``, so that its step LP is infeasible unsolved.

    The test forces step-LP columns to 0 and repeats until nothing
    changes. ``x_a`` goes to 0 when, under some ``b``, a state of
    ``theta_t(a, b)`` is related to no left state that a live ``lam`` of
    block ``b`` carries: ``x_a > 0`` gives that state mass, which ``w``
    draws from a related left state, which only a positive ``lam`` can
    carry. ``lam_b2`` of block ``b`` goes to 0 when a state of
    ``theta_s(lottery, b2)`` is related to no right state of ``b`` that a
    live ``x`` reaches, by the same argument from the left. The positive
    columns of a feasible point are never forced to 0, so the LP is
    infeasible once every ``x``, or every ``lam`` of one block, is.

    This covers the all-points case of ``_flow_verdict``: when no pure
    ``a`` meets the condition, each ``a`` has a point ``theta_t(a, b)``
    related to no left point, and the first sweep forces its ``x`` to 0.
    """
    to_left, to_right = {}, {}
    for u, v in related:
        to_left.setdefault(v, set()).add(u)
        to_right.setdefault(u, set()).add(v)
    unrelated = frozenset()
    live_x = range(len(right[0]))
    live_lam = [range(len(left))] * len(right)
    while True:
        before = len(live_x) + sum(map(len, live_lam))
        for b, row in enumerate(right):
            carried = set().union(*[left[b2].nums for b2 in live_lam[b]])
            live_x = [a for a in live_x if not any(
                to_left.get(v, unrelated).isdisjoint(carried) for v in row[a].nums)]
            reached = set().union(*[row[a].nums for a in live_x])
            live_lam[b] = [b2 for b2 in live_lam[b] if not any(
                to_right.get(u, unrelated).isdisjoint(reached) for u in left[b2].nums)]
            if not live_x or not live_lam[b]:
                return True
        if len(live_x) + sum(map(len, live_lam)) == before:
            return False


def _solve_step(g: GameStructure, right, left, related):
    """The step LP of the condition with key ``(right, left, related)``: its
    lottery at ``t`` (action -> positive probability), or None when the LP
    is infeasible, built from the key as integers over its denominator, with
    the rational content of the rows below. It runs no support test: its
    callers run ``_refuted`` first where a condition may be refuted."""
    # Columns: x per player-1 action (0 .. |acts1| - 1, the indices in the
    # right-side rows), then per b: lam per b2 and w per related pair.
    # Rows: sum x == 1; per b, sum lam == 1, then for each right state v
    # sum_u w[u, v] == sum_a x_a * theta_t(a, b)[v], and for each left state
    # u sum_v w[u, v] == sum_b2 lam_b2 * theta_s(lottery, b2)[u].
    left_states, left_rows = _marginal_rows(left)
    lp = LinearProblem()
    lp.add(dict.fromkeys(lp.cols(len(g.acts1)), 1), 1)
    for row in right:
        right_states, right_rows = _marginal_rows(row)
        lam = lp.cols(len(g.acts2))
        lp.add(dict.fromkeys(lam, 1), 1)
        by_v = {v: [] for v in right_states}
        by_u = {u: [] for u in left_states}
        pairs = [(u, v) for u, v in related if v in by_v]
        for w, (u, v) in zip(lp.cols(len(pairs)), pairs):
            by_v[v].append(w)
            by_u[u].append(w)
        for v in right_states:
            den, terms = right_rows[v]
            coeffs = dict.fromkeys(by_v[v], den)
            coeffs.update(terms)
            lp.add(coeffs, 0, den)
        for u in left_states:
            den, terms = left_rows[u]
            coeffs = dict.fromkeys(by_u[u], den)
            coeffs.update((lam[i], c) for i, c in terms)
            lp.add(coeffs, 0, den)
    sol = lp_feasible(lp)
    if sol is None:
        return None
    return {a: sol[j] for j, a in enumerate(g.acts1) if sol[j] > 0}


def _flow_verdict(left, right, r: Relation) -> bool:
    """Whether integer max-flow accepts the step condition.

    ``left`` holds the successors of ``s`` under the lottery, one per
    response ``b2``, and ``right`` the successors of ``t``, one row per
    ``b`` with one entry per action ``a``. True when some ``a`` has, under
    each ``b``, a ``b2`` whose left successor lifts onto ``step(t, a, b)``
    over ``r``: ``x = a``, ``lam = b2`` and ``w`` the flow are a feasible
    point of the step LP. False leaves the condition open: a mixed ``x``
    or ``lam`` may succeed where every pure choice fails, and where every
    successor is a point and none does, ``_refuted`` refutes it.
    """
    return any(all(any(lifts(d, th, r) for d in left) for th in successors)
               for successors in zip(*right))  # the successors of t under one a, per b


def exists_pi2_check(g: GameStructure, s, t, pi1_at_s, r: Relation):
    """Exact search for a player-1 lottery at ``t`` matching ``pi1_at_s``.

    Feasibility of: the successor set of ``t`` under the unknown lottery is
    Smyth-dominated by the successor set of ``s``, in the lifted relation.
    Every pure response at ``t`` is covered by a convex combination of the
    responses at ``s`` plus a lifting witness, all in one LP. Returns the
    lottery as a MixedAction, or None. A ``pi1_at_s`` with a negative entry
    or a sum other than 1 raises ``ValueError`` before any LP.

    The left row is summed with ``combine_dists``, equal by value to the
    ``SuccessorTable`` row of a grid lottery. The LP is built from the
    condition's key (``_condition``), as integers straight from the
    successors' ``nums`` and ``den``, and a condition that the supports
    refute (``_refuted``) is answered None before any LP is built, as the
    rounds' first pass refutes it. Each call solves its own LP: the memo
    of the rounds lives in ``pa_simulation`` and ``refine_once``.
    """
    pi1_at_s = {a: Fraction(p) for a, p in pi1_at_s.items() if Fraction(p) != 0}
    for a, p in pi1_at_s.items():
        if p < 0:
            raise ValueError(f"negative probability {format_rational(p)} for action {a}")
    if sum(pi1_at_s.values(), Fraction(0)) != 1:
        raise ValueError("lottery does not sum to 1")
    left = tuple(combine_dists((p, g.step(s, a, b)) for a, p in pi1_at_s.items())
                 for b in g.acts2)
    g.check_state(t)
    key = _condition(g, left, t, r)
    lottery = None if _refuted(*key) else _solve_step(g, *key)
    return None if lottery is None else MixedAction({t: lottery}, 1)


def _decide_round(g: GameStructure, r: Relation, k: int, solved: dict) -> Relation:
    """The pairs of ``r`` whose step condition holds against the frozen ``r``
    for each grid-``k`` lottery i, whose left row is ``g.successors(k).row(s, i)``.

    If ``r`` holds every ``(u, u)``, as it does in ``pa_simulation``, each
    ``(s, s)`` is kept by the copy strategy: answer a lottery ``p`` with
    ``x = p``, and for each response ``b`` put ``lam`` on ``b`` and
    ``w[(u, u)] = theta_s(p, b)[u]``, which meets every row of the step LP.
    Every other pair is decided in two passes. The first takes each lottery
    in grid order and decides its condition by the memo ``solved``, the flow's
    acceptance or ``_refuted``; the pair leaves at the first refutation,
    and a condition none of them decides stays open. The second solves the
    step LPs of the open conditions in order, up to the first infeasible
    one. A pair is kept iff every condition holds, whichever pass decides
    it, so the step LPs solved are only those of pairs that nothing cheaper
    removes.
    """
    table = g.successors(k)
    lotteries = range(len(table.lotteries))
    copy = all((u, u) in r for u in g.states)
    kept = []
    for s, t in r:
        if copy and s == t:
            kept.append((s, t))
            continue
        open_keys = []
        for i in lotteries:
            key = _condition(g, table.row(s, i), t, r)
            if key in solved:
                if solved[key] is None:
                    break
            elif not _flow_verdict(key[1], key[0], r):
                if _refuted(*key):
                    break
                open_keys.append(key)
        else:
            if all(_solve(g, key, solved) is not None for key in open_keys):
                kept.append((s, t))
    return Relation(kept)


def _witnesses(g: GameStructure, kept: Relation, r: Relation, k: int, solved: dict) -> dict:
    """One (lottery, response) entry per grid-``k`` lottery for each pair
    of ``kept``, which a decision round against ``r`` kept: the lottery
    itself (the copy entry) for ``(s, s)`` when ``r`` holds the diagonal,
    else the vertex of the step LP of the condition's key, read from the
    memo ``solved`` when the rounds solved it. Kept conditions hold, so no support
    test runs here. A step LP that refutes a kept pair raises
    ``ValueError``: the flow and the LP disagree."""
    table = g.successors(k)  # k = 1 for pure: each action alone
    copy = all((u, u) in r for u in g.states)
    witnesses = {}
    for s, t in kept:
        entry = []
        for i, lot in enumerate(table.lotteries):
            pi2 = lot if copy and s == t else _solve(g, _condition(g, table.row(s, i), t, r), solved)
            if pi2 is None:
                shown = ",".join(f"{a}:{format_rational(p)}" for a, p in lot.items())
                raise ValueError(
                    f"the step LP refutes ({s}, {t}) under the lottery {shown}, "
                    "which the decision round kept"
                )
            entry.append((dict(lot), MixedAction({t: pi2}, 1)))
        witnesses[(s, t)] = entry
    return witnesses


def refine_once(g: GameStructure, r: Relation, strat: QuantStrategy):
    """One approximant step against the frozen relation ``r``.

    Returns (relation, witnesses): one decision round (``_decide_round``),
    where a pair survives iff every tested universal lottery has an exact
    existential response, and the witnesses of the pairs it keeps, step-LP
    vertices against ``r`` (copies for ``(s, s)`` when ``r`` holds the
    diagonal). The round and the witnesses share one step-LP memo, made for
    this call. A state of ``r`` outside the model raises ``ModelError``.
    """
    for u in set().union(*r):
        g.check_state(u)
    solved = {}
    kept = _decide_round(g, r, strat.k, solved)
    return kept, _witnesses(g, kept, r, strat.k, solved)


def _fixpoint(g: GameStructure, strat: QuantStrategy, solved: dict):
    """Decision rounds from the label-equal relation to their fixpoint:
    the relation and the number of rounds.

    ``_decide_round`` keeps only pairs of ``r``, so every round either
    returns ``r`` and ends the loop or removes at least one pair of a
    relation that starts with at most |S|^2: the loop ends within
    |S|^2 + 1 rounds.
    """
    r = initial_relation(g)
    iterations = 0
    while True:
        nxt = _decide_round(g, r, strat.k, solved)
        iterations += 1
        if nxt == r:
            return r, iterations
        r = nxt


def pa_simulation(g: GameStructure, strat: QuantStrategy) -> SimReport:
    """Iterate refinement from the label-equal relation to its fixpoint.

    Decision rounds (``_decide_round``) run to the fixpoint; they solve a
    step LP only for a condition that neither the flow nor the support test
    decides, of a pair that no such test removes, and the report is
    returned there. Its witnesses are solved on first read, once, for
    the final relation against itself: the step LP's vertex for each pair
    of distinct states and tested lottery, as in the round that found the
    fixpoint, and the copy entry for ``(s, s)``; the rounds' memo spares
    the LPs they solved. The result over-approximates the simulation
    (coarser universal test sets remove fewer pairs).
    """
    solved = {}
    r, iterations = _fixpoint(g, strat, solved)
    return SimReport(r, iterations, strat, g, solved)


def a_simulation(g: GameStructure) -> Relation:
    """Greatest alternating simulation of a deterministic game, which is its
    PA-simulation under the pure strategy.

    Alternating simulation keeps (s, t) iff for each action a at s some a'
    at t has: for all b some b2 with (succ(s, a, b2), succ(t, a', b)) in r.
    The pure step LP for a accepts the same pairs. If a lottery x at t
    passes it, then under each b every successor of t under an a' in x's
    support carries mass, so the lifting relates it to a successor of s
    under a: each such a' meets the condition. Conversely, a pure a' that
    meets it is a feasible x (lam on the b2 found, weight 1 on that pair).
    Both start from ``initial_relation`` and refine monotonically, so the
    greatest fixpoints agree.

    Every successor is a point and every tested lottery is pure, so each
    condition is decided without an LP: ``_flow_verdict`` accepts it when
    some pure ``a`` meets it, and otherwise ``_refuted`` refutes it in its
    first sweep. The decision rounds solve no LP, and no witnesses are
    built.
    """
    if not g.is_deterministic():
        raise ModelError("model is probabilistic")
    return _fixpoint(g, QuantStrategy.pure(), {})[0]


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


def _file_part(name: str) -> str:
    """Percent-encode a state name, ``_`` included, so ``s_t`` file names of
    distinct pairs differ."""
    return quote(name, safe="").replace("_", "%5F")


def export_smt_scripts(g: GameStructure, directory: str) -> Relation:
    """Write ``export_smt`` of each pair of ``initial_relation(g)`` to
    ``directory/<s>_<t>.smt2``, creating the directory, and return that
    relation. Nothing is decided: each script states one pair's exact step
    condition for an external solver."""
    if not directory:
        raise ValueError("smt export needs a target directory")
    r = initial_relation(g)
    os.makedirs(directory, exist_ok=True)
    for s, t in r:
        path = os.path.join(directory, f"{_file_part(s)}_{_file_part(t)}.smt2")
        with open(path, "w") as fh:
            fh.write(export_smt(g, s, t, r))
    return r
