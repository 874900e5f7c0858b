"""Distribution-level evaluation of the modal logic with three-valued,
certification-aware verdicts.

Two engines cooperate here. Formulas without the strategy modality or
fixpoints ("flat" formulas) are decided exactly by a linear feasibility
encoding, so their verdicts are always certified. Everything else goes
through bounded search: the existential player-1 lottery is sampled on a
rational grid, fixpoints are unfolded to a finite depth, and the universal
player-2 response is checked on the pure-response vertices, which is
complete only on the convex fragment. A certified answer is true in the
exact semantics; `unknown` means the bounded search was exhausted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .formula import (
    And,
    Enforce,
    FormulaError,
    Mix,
    Mu,
    NegProp,
    Nu,
    Or,
    ProbSum,
    Prop,
    Var,
    substitute,
    unfold_fixpoint,
)
from .prob import (
    Distribution,
    LinearProblem,
    combine_ints,
    compositions,
    format_rational,
    grid_lotteries,
    lp_feasible,
)

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

# `step` calls one Evaluator may make for the strategy modality, a cache hit
# included, so the limit bounds the scan's work, not the distinct successors.
# Each nested `<1>` multiplies the count, so deep nesting stops here with a
# clear error. A test query that completes makes at most 13,302 calls
# (`<1>^10 win1` on rps), a benchmark query at most 382.
ENFORCE_BUDGET = 250_000

# Per-state split fractions one Evaluator may try for `sum` and `mix`, whose
# search explodes at fine split denominators; the last support state's
# fraction is computed, as one try. The tests and benchmark try at most 1,914.
SPLIT_BUDGET = 150_000


class EvalBudgetError(Exception):
    """Raised when `<1>` or the split search would pass its budget
    (``ENFORCE_BUDGET``, ``SPLIT_BUDGET``)."""


@dataclass(frozen=True)
class EvalOptions:
    unfold_bound: int = 4
    pi1_grid: int = 2
    split_denominator: int = 6

    def __post_init__(self):
        if self.unfold_bound < 0:
            raise ValueError(f"unfold bound must be >= 0, got {self.unfold_bound}")
        if self.pi1_grid < 1:
            raise ValueError(f"player-1 grid must be >= 1, got {self.pi1_grid}")
        if self.split_denominator < 1:
            raise ValueError(f"split denominator must be >= 1, got {self.split_denominator}")


@dataclass(frozen=True)
class EvalResult:
    """A verdict, whether it is certified, and its witness or counterexample.

    ``bound_used`` is the unfold depth the verdict rests on. A fixpoint gives
    the depth at which it decided, else the unfold bound. `&`, `|`, `sum`,
    `mix` and a `<1>` that holds give the largest bound of the child results
    they combine; a `<1>` that fails gives its failing vertex's. A flat
    formula and an unknown `sum`, `mix` or `<1>` give 0."""

    verdict: str
    certified: bool
    witness: object = None
    counterexample: object = None
    bound_used: int = 0


def _holds(witness, certified=True, bound=0):
    return EvalResult(HOLDS, certified, witness=witness, bound_used=bound)


def _fails(counterexample, bound=0):
    """Always certified: flat, `<1>` and fixpoint `fails` by construction, `&`
    on its failing child's and `|` only when every child fails; `pags eval
    --no-certify` clears the flag on the result it prints."""
    return EvalResult(FAILS, True, counterexample=counterexample, bound_used=bound)


def _unknown(bound=0):
    return EvalResult(UNKNOWN, False, bound_used=bound)


def _joint(results):
    """Whether every result is certified, and the largest bound any used."""
    return all(r.certified for r in results), max((r.bound_used for r in results), default=0)


def _state_order(g):
    return {s: i for i, s in enumerate(g.states)}


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)`` on lookup."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _blindness(g, s):
    """Whether player 1, and whether player 2, is blind at ``s``: the
    successor of ``s`` is the same distribution for every action of that
    player, against each action of the other. A blind player's choices at
    ``s`` all give the same table entries."""
    rows = [[g.table[s, a, b] for b in g.acts2] for a in g.acts1]
    return (
        all(row == rows[0] for row in rows),
        all(row.count(row[0]) == len(row) for row in rows),
    )


class _SuccessorTable(_Memo):
    """One-step successors of single states: entry (s, i, j) is the
    successor of ``s`` under the i-th player-1 grid lottery and the j-th
    player-2 action, built on first lookup and then kept. Entries are
    compared by value: equal entries of two keys may be two objects."""

    def __init__(self, g, k: int):
        self.lotteries = lotteries = grid_lotteries(g.acts1, k)

        # A closure, not a bound method, so that no cycle holds the table.
        def build(key):
            s, i, j = key
            b = g.acts2[j]
            # Grid numerators over k, as combine_dists would scale them.
            parts = [
                (p.numerator * (k // p.denominator), g.step(s, a, b))
                for a, p in lotteries[i].items()
            ]
            return combine_ints(parts, k)

        super().__init__(build)


# ---------------------------------------------------------------------------
# Exact decision for the flat fragment
# ---------------------------------------------------------------------------

def _or_free_variants(phi):
    """All ways of resolving every disjunction to a single child."""
    if phi.convex:  # no Or in it, so the (interned) node is its only variant
        yield phi
        return
    if isinstance(phi, Or):
        for item in phi.items:
            yield from _or_free_variants(item)
        return
    if isinstance(phi, (And, Mix, ProbSum)):
        for combo in itertools.product(*[list(_or_free_variants(i)) for i in phi.children]):
            if isinstance(phi, ProbSum):
                yield ProbSum((w, item) for (w, _), item in zip(phi.parts, combo))
            else:
                yield type(phi)(combo)
        return
    raise TypeError(f"not flat: {phi!r}")


class _FlatChecker:
    """Exact membership and satisfiability for Or/Enforce/fixpoint-free
    formulas via transportation-style LPs.

    A node gets LP columns only at the states where it can carry mass
    (``_allowed``), so a literal emits no row: every column it would have
    zeroed is never made. A support outside the variant's allowed states
    fails without an LP, and a variant of literals and `&` alone, whose
    encoding is the root rows only, holds without one."""

    def __init__(self, g):
        self.g = g
        self._order = _state_order(g)
        self._sat_memo = {}
        self._allowed_memo = {}

    def holds(self, d: Distribution, phi):
        """Exact decision of ``d`` in the denotation of flat ``phi``.

        Returns (True, top_components) or (False, None); ``top_components``
        carries (weight, Distribution) pairs when phi is a summation form.
        """
        for variant in _or_free_variants(phi):
            ok, components = self._check(d, variant)
            if ok:
                return True, components
        return False, None

    def sat(self, phi) -> bool:
        """Exact nonemptiness of the denotation of flat ``phi``."""
        hit = self._sat_memo.get(phi)
        if hit is None:
            hit = self._sat_memo[phi] = any(self._check(None, v)[0] for v in _or_free_variants(phi))
        return hit

    def _allowed(self, phi) -> frozenset:
        """The states where the Or-free ``phi`` can carry mass: a literal's
        satisfying states, the intersection over `&`'s items (every state
        for `true`) and the union over a summation's. Column order never
        comes from iterating the set."""
        hit = self._allowed_memo.get(phi)
        if hit is None:
            g = self.g
            if isinstance(phi, (Prop, NegProp)):
                positive = isinstance(phi, Prop)
                hit = frozenset(s for s in g.states if (phi.name in g.labels[s]) == positive)
            elif isinstance(phi, And):
                hit = frozenset(g.states).intersection(*map(self._allowed, phi.items))
            elif isinstance(phi, (ProbSum, Mix)):
                hit = frozenset().union(*map(self._allowed, phi.children))
            else:
                raise TypeError(f"unexpected node in flat variant: {phi!r}")
            self._allowed_memo[phi] = hit
        return hit

    def _check(self, d, variant):
        """Decide whether ``d``, or some distribution when ``d`` is None,
        satisfies the Or-free ``variant``; as ``holds``. The columns follow
        the model's state order, whatever ``d``'s entry order."""
        allowed = self._allowed(variant)
        if d is None:
            states = [s for s in self.g.states if s in allowed]
            if not states:
                return False, None
        elif allowed.issuperset(d.nums):
            states = sorted(d.nums, key=self._order.__getitem__)
        else:
            return False, None
        lp = LinearProblem()
        root = dict(zip(states, lp.cols(len(states))))
        if d is None:
            lp.add(dict.fromkeys(root.values(), 1), 1)
        else:
            for s, j in root.items():
                lp.add({j: d.den}, d.nums[s], d.den)
        rows = len(lp.constraints)
        components = self._emit(lp, variant, root)
        if components is None:
            return False, None
        if len(lp.constraints) == rows:  # literals and `&` only: the root rows hold
            return True, None
        point = lp_feasible(lp)
        if point is None:
            return False, None
        if d is None or not isinstance(variant, (ProbSum, Mix)):
            return True, None
        parts = []
        for comp in components:
            mass = {s: point[j] for s, j in comp.items() if point[j] > 0}
            total = sum(mass.values(), Fraction(0))
            if total > 0:
                dist = Distribution({s: m / total for s, m in mass.items()})
            else:
                dist = None
            parts.append((total, dist))
        return True, parts

    def _emit(self, lp, phi, cols):
        """Emit membership constraints for the sub-distribution held in the
        columns ``cols`` (state -> column), whose states all lie in
        ``_allowed(phi)``. Returns the component columns of a summation
        (none for other nodes), or None when a side condition is
        unsatisfiable."""
        if isinstance(phi, (Prop, NegProp)):
            return []  # ``cols`` holds only states that satisfy the literal
        if isinstance(phi, And):
            ok = all(self._emit(lp, item, cols) is not None for item in phi.items)
            return [] if ok else None
        items = phi.children
        components = []
        for item in items:
            states = [s for s in cols if s in self._allowed(item)]
            components.append(dict(zip(states, lp.cols(len(states)))))
        # Component masses partition the node's mass, state by state.
        for s, j in cols.items():
            coeffs = {comp[s]: 1 for comp in components if s in comp}
            coeffs[j] = -1
            lp.add(coeffs, 0)
        if isinstance(phi, ProbSum):
            # Pinned weights: each component total is its share of the node
            # total, as integers over the weight's denominator.
            for (w, _), comp in zip(phi.parts, components):
                coeffs = dict.fromkeys(comp.values(), w.denominator)
                coeffs.update(dict.fromkeys(cols.values(), -w.numerator))
                lp.add(coeffs, 0, w.denominator)
        elif not all(self.sat(item) for item in items):
            # Free weights; every component denotation must be nonempty so
            # that zero-mass components still have a satisfying distribution.
            return None
        for item, comp in zip(items, components):
            if self._emit(lp, item, comp) is None:
                return None
        return components


# ---------------------------------------------------------------------------
# The bounded evaluator
# ---------------------------------------------------------------------------

class Evaluator:
    def __init__(self, g, opts: EvalOptions):
        self.g = g
        self.opts = opts
        self.flat = _FlatChecker(g)
        self._memo = {}
        self._order = _state_order(g)
        self._pool = None
        self._succ = _SuccessorTable(g, opts.pi1_grid)
        self._successors = {}  # (d, table entries in model order) -> successor
        # state -> (player 1, player 2) blind; a closure, not a bound method,
        # so that no cycle holds the Evaluator past its last use.
        self._blind = _Memo(lambda s: _blindness(g, s))
        self._built = 0  # `step` calls, cache hits included
        self._tried = 0  # per-state split candidates tried by _split_grid

    # -- public dispatch ----------------------------------------------------

    def eval(self, d: Distribution, phi) -> EvalResult:
        hit = self._memo.get((d, phi))
        if hit is None:
            hit = self._memo[d, phi] = self._eval(d, phi)
        return hit

    def _eval(self, d, phi) -> EvalResult:
        if isinstance(phi, Var):
            raise FormulaError(f"open formula: unbound variable {phi.name}")
        if phi.flat:
            return self._exact(d, phi)
        if isinstance(phi, And):
            return self._combine_and(d, phi)
        if isinstance(phi, Or):
            return self._combine_or(d, phi)
        if isinstance(phi, ProbSum):
            return self._split(d, list(phi.parts))
        if isinstance(phi, Mix):
            return self._mix(d, list(phi.items))
        if isinstance(phi, Enforce):
            return self._enforce(d, phi.body)
        if isinstance(phi, (Mu, Nu)):
            return self._fixpoint(d, phi)
        raise TypeError(f"not a formula node: {phi!r}")

    # -- exact flat route ---------------------------------------------------

    def _exact(self, d, phi) -> EvalResult:
        ok, components = self.flat.holds(d, phi)
        if ok:
            witness = {"exact": True}
            if components is not None:
                witness["split"] = [
                    [format_rational(w), dist.format() if dist else None]
                    for w, dist in components
                ]
            return _holds(witness)
        return _fails({"exact": True})

    # -- boolean combinations -----------------------------------------------

    def _until(self, d, items, decides):
        """Results of ``items`` at ``d`` in order, up to the first that
        ``decides`` their node: later items are never evaluated or charged."""
        results = []
        for item in items:
            results.append(self.eval(d, item))
            if decides(results[-1]):
                break
        return results

    def _combine_or(self, d, phi) -> EvalResult:
        """Stops at the first certified `holds`, the disjunct it reports."""
        results = self._until(d, phi.items, lambda r: r.verdict == HOLDS and r.certified)
        _, bound = _joint(results)
        holding = [i for i, r in enumerate(results) if r.verdict == HOLDS]
        if holding:
            # The first certified disjunct, else the first that holds at all.
            i = next((i for i in holding if results[i].certified), holding[0])
            r = results[i]
            return _holds({"disjunct": i, "witness": r.witness}, r.certified, bound)
        if all(r.verdict == FAILS for r in results):
            return _fails([r.counterexample for r in results], bound)
        return _unknown(bound)

    def _combine_and(self, d, phi) -> EvalResult:
        """Stops at the first `fails`, which decides the result."""
        results = self._until(d, phi.items, lambda r: r.verdict == FAILS)
        certified, bound = _joint(results)
        for i, r in enumerate(results):
            if r.verdict == FAILS:
                return _fails({"conjunct": i, "counterexample": r.counterexample}, bound)
        if all(r.verdict == HOLDS for r in results):
            return _holds({"conjuncts": len(results)}, certified, bound)
        return _unknown(bound)

    # -- probabilistic summation (pinned weights) ----------------------------

    def _split(self, d, parts) -> EvalResult:
        found = self._split_grid(d, parts)
        if found is None:
            return _unknown()
        dists, results = found
        certified, bound = _joint(results)
        witness = {
            "split": [[format_rational(w), dist.format()] for (w, _), dist in zip(parts, dists)],
            "witnesses": [r.witness for r in results],
        }
        return _holds(witness, certified, bound)

    def _split_grid(self, d, parts):
        """Search splits whose per-state fractions have denominator Q.

        Returns (component distributions, component results) for the first
        split (in grid order) whose every component evaluates to holds.
        """
        q = self.opts.split_denominator
        weights = [w for w, _ in parts]
        states = sorted(d.support(), key=self._order.get)
        comps = list(compositions(q, len(parts)))

        # The needs are integers over d.den * q * wden, where wden clears the
        # weights' denominators: a unit of comp at states[i] takes mass[i],
        # and rest[i] is the mass of the states after it.
        wden = 1
        for w in weights:
            wden = lcm(wden, w.denominator)
        mass = [d.nums[s] * wden for s in states]
        rest = [sum(mass[i + 1 :]) * q for i in range(len(states))]

        def try_one():
            self._tried += 1
            if self._tried > SPLIT_BUDGET:
                raise EvalBudgetError(
                    f"the split search tried {self._tried} candidates, "
                    f"over the budget of {SPLIT_BUDGET}"
                )

        # Enumerate candidate splits lazily: depth-first over per-state
        # compositions with infeasible partial sums pruned. At the last
        # state only need / mass zeroes the need, so that composition is
        # computed, as one try; its parts sum to q, since each earlier state
        # took mass * q of the need.
        last = len(states) - 1

        def all_candidates(idx, need, acc):
            m = mass[idx]
            if idx == last:
                try_one()
                if all(n % m == 0 for n in need):
                    yield acc + [tuple(n // m for n in need)]
                return
            remaining = rest[idx]
            for comp in comps:
                try_one()
                new_need = [n - m * c for n, c in zip(need, comp)]
                if any(n < 0 or n > remaining for n in new_need):
                    continue
                acc.append(comp)
                yield from all_candidates(idx + 1, new_need, acc)
                acc.pop()

        need = [w.numerator * (wden // w.denominator) * d.den * q for w in weights]
        for assignment in all_candidates(0, need, []):
            # Component j takes d[s] * comp[j] / (q * w_j) at each s, where
            # comp is the composition chosen at s.
            dists = [
                Distribution.from_ints(
                    {s: d.nums[s] * comp[j] * w.denominator for s, comp in zip(states, assignment)},
                    d.den * q * w.numerator,
                )
                for j, w in enumerate(weights)
            ]
            results = []
            ok = True
            for dist, (_, item) in zip(dists, parts):
                r = self.eval(dist, item)
                results.append(r)
                if r.verdict != HOLDS:
                    ok = False
                    break
            if ok:
                return dists, results
        return None

    # -- nondeterministic interpolation (free weights) ------------------------

    def _mix(self, d, items) -> EvalResult:
        q = self.opts.split_denominator
        n = len(items)
        indices = list(range(n))
        zero_certified = {}  # j -> whether j's zero-weight witness is certified, or None

        def zero_ok(j):
            """A zero-weight component still needs a nonempty denotation."""
            if j not in zero_certified:
                if items[j].flat:
                    zero_certified[j] = True if self.flat.sat(items[j]) else None
                else:
                    found = (self.eval(cand, items[j]) for cand in self._witness_pool())
                    zero_certified[j] = next((r.certified for r in found if r.verdict == HOLDS), None)
            return zero_certified[j] is not None

        for size in range(1, n + 1):
            for subset in itertools.combinations(indices, size):
                rest = [j for j in indices if j not in subset]
                if not all(zero_ok(j) for j in rest):
                    continue
                for comp in compositions(q, size):
                    if any(c == 0 for c in comp):
                        continue
                    weights = [Fraction(c, q) for c in comp]
                    found = self._split_grid(
                        d, [(w, items[j]) for w, j in zip(weights, subset)]
                    )
                    if found is None:
                        continue
                    dists, results = found
                    certified, bound = _joint(results)
                    certified = certified and all(zero_certified[j] for j in rest)
                    witness = {
                        "mix": [
                            [format_rational(w), dist.format()]
                            for w, dist in zip(weights, dists)
                        ],
                        "components": list(subset),
                    }
                    return _holds(witness, certified, bound)
        return _unknown()

    # -- strategy modality -----------------------------------------------------

    def step(self, d, states, lots, acts) -> Distribution:
        """The one-step successor of ``d`` when each ``states[k]`` plays the
        ``lots[k]``-th grid lottery against the ``acts[k]``-th player-2
        action. ``states`` is ``d``'s support, in one order for every
        request at ``d`` (`_enforce` gives the model's).

        The successor is keyed on ``d`` and its table entries in that order,
        by value: it is built on the first request for its key, and every
        later request returns that same object. Each call counts one against
        ``ENFORCE_BUDGET``, a cache hit included."""
        self._built += 1
        if self._built > ENFORCE_BUDGET:
            raise EvalBudgetError(
                f"<1> built {self._built} successor distributions, "
                f"over the budget of {ENFORCE_BUDGET}"
            )
        entries = tuple([self._succ[key] for key in zip(states, lots, acts)])
        hit = self._successors.get((d, entries))
        if hit is None:
            parts = [(d.nums[s], e) for s, e in zip(states, entries)]
            hit = self._successors[d, entries] = combine_ints(parts, d.den)
        return hit

    def _enforce(self, d, body) -> EvalResult:
        """Some grid lottery per support state (a combo) under which ``body``
        holds against every pure player-2 response (a vertex), as the scan
        of combos, each against vertices, in ``itertools.product`` order
        decides it.

        A combo or vertex that differs from an earlier one only at states
        where its player is blind (``_blindness``) makes the same successor
        keys, and so the same results, as the first of its class, which has
        a 0 there; only firsts are scanned, in the full scan's order. The
        witness's ``vertices`` counts every response the scan covers, the
        skipped members of a class included."""
        g = self.g
        states = sorted(d.support(), key=self._order.get)
        lotteries = self._succ.lotteries
        blind = [self._blind[s] for s in states]
        combos = itertools.product(*[(0,) if b1 else range(len(lotteries)) for b1, _ in blind])
        vertices = list(itertools.product(*[(0,) if b2 else range(len(g.acts2)) for _, b2 in blind]))
        safe = body.convex
        # With a single player-1 action the candidate space is a point, so a
        # failing vertex refutes the modality; scan past unknown vertices for
        # one instead of stopping at the first that does not hold.
        refutable = len(g.acts1) == 1
        for combo in combos:
            results = []
            rejected = False
            for sigma in vertices:
                theta = self.step(d, states, combo, sigma)
                r = self.eval(theta, body)
                results.append(r)
                if r.verdict != HOLDS:
                    if refutable and r.verdict == FAILS:
                        counterexample = {
                            "sigma2": {s: g.acts2[j] for s, j in zip(states, sigma)},
                            "reached": theta.format(),
                            "counterexample": r.counterexample,
                        }
                        return _fails(counterexample, r.bound_used)
                    rejected = True
                    if not refutable:
                        break
            if not rejected:
                certified, bound = _joint(results)
                witness = {
                    "pi1": {
                        s: {a: format_rational(p) for a, p in lotteries[i].items()}
                        for s, i in zip(states, combo)
                    },
                    "vertices": len(g.acts2) ** len(states),
                }
                return _holds(witness, safe and certified, bound)
        return _unknown()

    # -- fixpoints ----------------------------------------------------------

    def _fixpoint(self, d, phi) -> EvalResult:
        # Each approximant is the body with the previous one substituted.
        mu = isinstance(phi, Mu)
        approx = unfold_fixpoint(phi, 0)
        for i in range(self.opts.unfold_bound + 1):
            if i:
                approx = substitute(phi.body, phi.var, approx)
            r = self.eval(d, approx)
            if mu and r.verdict == HOLDS:
                return _holds({"unfold": i, "witness": r.witness}, r.certified, i)
            if not mu and r.verdict == FAILS:
                return _fails({"unfold": i, "counterexample": r.counterexample}, i)
        return _unknown(self.opts.unfold_bound)

    # -- support machinery ----------------------------------------------------

    def _witness_pool(self):
        """Candidate distributions used to discharge zero-weight components:
        all points plus every one-step successor of a point under a grid
        lottery and a pure response."""
        if self._pool is None:
            g = self.g
            points = [Distribution.point(t) for t in g.states]
            successors = [
                self._succ[t, i, j]
                for t in g.states
                for i in range(len(self._succ.lotteries))
                for j in range(len(g.acts2))
            ]
            self._pool = list(dict.fromkeys(points + successors))
        return self._pool


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def evaluate(g, d: Distribution, phi, opts: EvalOptions = None) -> EvalResult:
    """Evaluate a closed formula at a distribution."""
    opts = opts or EvalOptions()
    if phi.free:
        raise FormulaError("formula must be closed")
    try:
        return Evaluator(g, opts).eval(d, phi)
    except RecursionError:
        raise FormulaError("formula is nested too deeply") from None


def split_check(g, d: Distribution, parts, opts: EvalOptions = None) -> EvalResult:
    """Decide the pinned-weight summation semantics for given components."""
    return evaluate(g, d, ProbSum(parts), opts)


def mix_check(g, d: Distribution, items, opts: EvalOptions = None) -> EvalResult:
    """Decide the free-weight interpolation semantics for given components."""
    return evaluate(g, d, Mix(items), opts)


def enforce_check(g, d: Distribution, body, opts: EvalOptions = None) -> EvalResult:
    """Decide whether player 1 can enforce ``body`` in one step from ``d``."""
    return evaluate(g, d, Enforce(body), opts)


class CharFormulaBuilder:
    """Characteristic formulas; equal subterms are one interned node.

    The level-(n+1) formula conjoins the state's labels (its level-0
    formula) and, over every player-1 grid lottery, the enforceable
    interpolation of the level-n formulas of the per-response successor
    distributions. Pinning the labels at every level makes one player-1
    strategy match them all, rather than one strategy per level.
    """

    def __init__(self, g, k: int):
        self.g = g
        self._succ = _SuccessorTable(g, k)  # rejects k < 1
        self._order = _state_order(g)
        self._state_memo = {}

    def state(self, s, n: int):
        key = (s, n)
        if key in self._state_memo:
            return self._state_memo[key]
        g = self.g
        if n < 0:
            raise ValueError(f"depth must be >= 0, got {n}")
        if n == 0:
            pos = tuple(Prop(p) for p in g.props if p in g.labels[s])
            neg = tuple(NegProp(p) for p in g.props if p not in g.labels[s])
            phi = And(pos + neg)
        else:
            conjuncts = []
            for i in range(len(self._succ.lotteries)):
                comps = tuple(
                    self.dist(self._succ[s, i, j], n - 1) for j in range(len(g.acts2))
                )
                conjuncts.append(Enforce(Mix(comps)))
            phi = And((self.state(s, 0), *conjuncts))
        self._state_memo[key] = phi
        return phi

    def dist(self, d: Distribution, n: int):
        return ProbSum((d[t], self.state(t, n)) for t in sorted(d.support(), key=self._order.get))


def char_formula_state(g, s, n: int, k: int):
    return CharFormulaBuilder(g, k).state(s, n)


def char_formula_dist(g, d: Distribution, n: int, k: int):
    return CharFormulaBuilder(g, k).dist(d, n)


def logic_preorder(g, s, t, n: int, k: int) -> EvalResult:
    """Check the discriminating formulas of ``s`` (levels 0..n) at ``t``.

    `holds` suggests ``t`` simulates ``s`` up to depth ``n`` at this grid
    resolution; a certified `fails` refutes the logic preorder.
    """
    opts = EvalOptions(pi1_grid=k)
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    builder = CharFormulaBuilder(g, k)
    phi = And(tuple(builder.state(s, level) for level in range(n + 1)))
    return evaluate(g, Distribution.point(t), phi, opts)
