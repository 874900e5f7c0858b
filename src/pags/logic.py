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
from dataclasses import dataclass, replace
from fractions import Fraction

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
    convex_safe,
    free_vars,
    is_flat,
    substitute,
    unfold_fixpoint,
)
from .prob import (
    Distribution,
    LinearProblem,
    MixedAction,
    combine_dists,
    compositions,
    format_rational,
    grid_lotteries,
    lp_feasible,
    step_mixed_state,
)

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

# Successor distributions one Evaluator may build for the strategy modality.
# Each nested `<1>` multiplies the count, so deep nesting stops here with a
# clear error; the fixture and benchmark queries stay below 25,000.
ENFORCE_BUDGET = 250_000


class EvalBudgetError(Exception):
    """Raised when the strategy modality would build more successor
    distributions than ``ENFORCE_BUDGET``."""


@dataclass(frozen=True)
class EvalOptions:
    unfold_bound: int = 4
    pi1_grid: int = 2
    split_denominator: int = 6
    certify: bool = True

    def __post_init__(self):
        if self.unfold_bound < 0:
            raise ValueError(f"unfold bound must be >= 0, got {self.unfold_bound}")
        if self.pi1_grid < 1:
            raise ValueError(f"player-1 grid must be >= 1, got {self.pi1_grid}")
        if self.split_denominator < 1:
            raise ValueError(f"split denominator must be >= 1, got {self.split_denominator}")


@dataclass(frozen=True)
class EvalResult:
    verdict: str
    certified: bool
    witness: object = None
    counterexample: object = None
    bound_used: int = 0


def _holds(witness, certified=True, bound=0):
    return EvalResult(HOLDS, certified, witness=witness, bound_used=bound)


def _fails(counterexample, certified=True, bound=0):
    return EvalResult(FAILS, certified, counterexample=counterexample, bound_used=bound)


def _unknown(bound=0):
    return EvalResult(UNKNOWN, False, bound_used=bound)


def _render_lottery(lot):
    return {a: format_rational(p) for a, p in lot.items()}


def _state_order(g):
    return {s: i for i, s in enumerate(g.states)}


class _SuccessorTable:
    """One-step successors of single states: entry (s, i, j) is the
    successor of ``s`` under the i-th player-1 grid lottery and the j-th
    player-2 action, built on first use and then kept."""

    def __init__(self, g, k: int):
        self.g = g
        self.lotteries = grid_lotteries(g.acts1, k)
        self._table = {}

    def get(self, s, i: int, j: int) -> Distribution:
        key = (s, i, j)
        hit = self._table.get(key)
        if hit is None:
            pi1 = MixedAction({s: self.lotteries[i]}, 1)
            sigma = MixedAction({s: {self.g.acts2[j]: Fraction(1)}}, 2)
            hit = self._table[key] = step_mixed_state(self.g, s, pi1, sigma)
        return hit


# ---------------------------------------------------------------------------
# Exact decision for the flat fragment
# ---------------------------------------------------------------------------

def _items(phi):
    """The subformulas of an And, Or, Mix or ProbSum node."""
    return [item for _, item in phi.parts] if isinstance(phi, ProbSum) else phi.items


def _or_free_variants(phi):
    """All ways of resolving every disjunction to a single child."""
    if isinstance(phi, (Prop, NegProp)):
        yield phi
        return
    if isinstance(phi, Or):
        for item in phi.items:
            yield from _or_free_variants(item)
        return
    if isinstance(phi, (And, Mix, ProbSum)):
        for combo in itertools.product(*[list(_or_free_variants(i)) for i in _items(phi)]):
            if isinstance(phi, ProbSum):
                yield ProbSum(tuple((w, item) for (w, _), item in zip(phi.parts, combo)))
            else:
                yield type(phi)(combo)
        return
    raise TypeError(f"not flat: {phi!r}")


class _FlatChecker:
    """Exact membership and satisfiability for Or/Enforce/fixpoint-free
    formulas via transportation-style LPs."""

    def __init__(self, g):
        self.g = g
        self._sat_memo = {}

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
        key = phi
        if key in self._sat_memo:
            return self._sat_memo[key]
        self._sat_memo[key] = False  # cycle-safe default; flat formulas recurse finitely
        result = any(self._check(None, v)[0] for v in _or_free_variants(phi))
        self._sat_memo[key] = result
        return result

    def _check(self, d, variant):
        """Decide whether ``d``, or some distribution when ``d`` is None,
        satisfies the Or-free ``variant``; as ``holds``."""
        lp = LinearProblem()
        states = self.g.states if d is None else d.support()
        root = dict(zip(states, lp.cols(len(states))))
        if d is None:
            lp.add(dict.fromkeys(root.values(), 1), "==", 1)
        else:
            for s, j in root.items():
                lp.add({j: 1}, "==", d[s])
        components = self._emit(lp, variant, root)
        if components is None:
            return False, None
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
        columns ``cols`` (state -> column). Returns the component columns of
        a summation (none for other nodes), or None when a side condition is
        unsatisfiable."""
        if isinstance(phi, Prop):
            for s, j in cols.items():
                if phi.name not in self.g.labels[s]:
                    lp.add({j: 1}, "==", 0)
            return []
        if isinstance(phi, NegProp):
            for s, j in cols.items():
                if phi.name in self.g.labels[s]:
                    lp.add({j: 1}, "==", 0)
            return []
        if isinstance(phi, And):
            ok = all(self._emit(lp, item, cols) is not None for item in phi.items)
            return [] if ok else None
        if not isinstance(phi, (ProbSum, Mix)):
            raise TypeError(f"unexpected node in flat variant: {phi!r}")
        items = _items(phi)
        components = [dict(zip(cols, lp.cols(len(cols)))) for _ in items]
        # Component masses partition the node's mass, state by state.
        for s, j in cols.items():
            coeffs = {comp[s]: 1 for comp in components}
            coeffs[j] = -1
            lp.add(coeffs, "==", 0)
        if isinstance(phi, ProbSum):
            # Pinned weights: each component total is its share of the node total.
            for (w, _), comp in zip(phi.parts, components):
                coeffs = dict.fromkeys(comp.values(), 1)
                coeffs.update(dict.fromkeys(cols.values(), -w))
                lp.add(coeffs, "==", 0)
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
        self._unfold_memo = {}
        self._pool = None
        self._succ = _SuccessorTable(g, opts.pi1_grid)
        self._built = 0  # successor distributions built by _enforce

    # -- public dispatch ----------------------------------------------------

    def eval(self, d: Distribution, phi) -> EvalResult:
        key = (d, id(phi))
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        result = self._eval(d, phi)
        self._memo[key] = (phi, result)
        return result

    def _eval(self, d, phi) -> EvalResult:
        if isinstance(phi, Var):
            raise FormulaError(f"open formula: unbound variable {phi.name}")
        if is_flat(phi):
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

    def _combine_or(self, d, phi) -> EvalResult:
        results = [self.eval(d, item) for item in phi.items]
        bound = max((r.bound_used for r in results), default=0)
        best = None
        for i, r in enumerate(results):
            if r.verdict == HOLDS:
                if r.certified:
                    return _holds({"disjunct": i, "witness": r.witness}, True, bound)
                if best is None:
                    best = (i, r)
        if best is not None:
            i, r = best
            return _holds({"disjunct": i, "witness": r.witness}, False, bound)
        if all(r.verdict == FAILS for r in results):
            certified = all(r.certified for r in results)
            return _fails([r.counterexample for r in results], certified, bound)
        return _unknown(bound)

    def _combine_and(self, d, phi) -> EvalResult:
        results = [self.eval(d, item) for item in phi.items]
        bound = max((r.bound_used for r in results), default=0)
        best = None
        for i, r in enumerate(results):
            if r.verdict == FAILS:
                if r.certified:
                    return _fails({"conjunct": i, "counterexample": r.counterexample}, True, bound)
                if best is None:
                    best = (i, r)
        if best is not None:
            i, r = best
            return _fails({"conjunct": i, "counterexample": r.counterexample}, False, bound)
        if all(r.verdict == HOLDS for r in results):
            certified = all(r.certified for r in results)
            return _holds({"conjuncts": len(results)}, certified, bound)
        return _unknown(bound)

    # -- probabilistic summation (pinned weights) ----------------------------

    def _split(self, d, parts) -> EvalResult:
        found = self._split_grid(d, parts)
        if found is None:
            return _unknown()
        dists, results = found
        certified = all(r.certified for r in results)
        bound = max((r.bound_used for r in results), default=0)
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
        order = _state_order(self.g)
        states = sorted(d.support(), key=order.get)
        per_state = {s: list(compositions(q, len(parts))) for s in states}

        def assemble(assignment):
            dists = []
            for j, (w, _) in enumerate(parts):
                mass = {
                    s: d[s] * assignment[s][j] / q
                    for s in states
                    if assignment[s][j]
                }
                dists.append(Distribution({s: m / w for s, m in mass.items()}))
            return dists

        # Enumerate candidate splits lazily: depth-first over per-state
        # compositions with infeasible partial sums pruned.
        def all_candidates(idx, need, acc):
            if idx == len(states):
                if all(n == 0 for n in need):
                    yield dict(acc)
                return
            s = states[idx]
            remaining = sum((d[u] for u in states[idx + 1 :]), Fraction(0))
            for comp in per_state[s]:
                new_need = [need[j] - d[s] * Fraction(comp[j], q) for j in range(len(parts))]
                if any(n < 0 or n > remaining for n in new_need):
                    continue
                acc[s] = comp
                yield from all_candidates(idx + 1, new_need, acc)
            acc.pop(states[idx], None)

        for assignment in all_candidates(0, list(weights), {}):
            try:
                dists = assemble(assignment)
            except ValueError:
                continue
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
        zero_witnesses = {}

        def zero_ok(j):
            """A zero-weight component still needs a nonempty denotation."""
            if j in zero_witnesses:
                return zero_witnesses[j] is not None
            if is_flat(items[j]):
                zero_witnesses[j] = ("sat", None) if self.flat.sat(items[j]) else None
            else:
                zero_witnesses[j] = None
                for cand in self._witness_pool():
                    r = self.eval(cand, items[j])
                    if r.verdict == HOLDS:
                        zero_witnesses[j] = (cand, r)
                        break
            return zero_witnesses[j] is not None

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
                    certified = all(r.certified for r in results) and all(
                        zero_witnesses[j][1] is None or zero_witnesses[j][1].certified
                        for j in rest
                    )
                    bound = max((r.bound_used for r in results), default=0)
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
        action; built entry for entry as ``step_mixed_dist`` builds it."""
        self._built += 1
        if self._built > ENFORCE_BUDGET:
            raise EvalBudgetError(
                f"<1> built {self._built} successor distributions, "
                f"over the budget of {ENFORCE_BUDGET}"
            )
        return combine_dists(
            [(d[s], self._succ.get(s, i, j)) for s, i, j in sorted(zip(states, lots, acts))]
        )

    def _enforce(self, d, body) -> EvalResult:
        g = self.g
        order = _state_order(g)
        states = sorted(d.support(), key=order.get)
        lotteries = self._succ.lotteries
        vertices = list(itertools.product(range(len(g.acts2)), repeat=len(states)))
        safe = convex_safe(body)
        fallback_fail = None
        # With a single player-1 action the candidate space is a point, so a
        # certified failing vertex refutes the modality; keep scanning
        # vertices for one instead of stopping at the first non-holds.
        refutable = len(g.acts1) == 1
        for combo in itertools.product(range(len(lotteries)), repeat=len(states)):
            results = []
            rejected = False
            for sigma in vertices:
                theta = self.step(d, states, combo, sigma)
                r = self.eval(theta, body)
                results.append((sigma, theta, r))
                if r.verdict != HOLDS:
                    rejected = True
                    if r.verdict == FAILS and r.certified and fallback_fail is None:
                        fallback_fail = (sigma, theta, r)
                    if not refutable or fallback_fail is not None:
                        break
            if not rejected:
                certified = safe and all(r.certified for _, _, r in results)
                bound = max((r.bound_used for _, _, r in results), default=0)
                witness = {
                    "pi1": {s: _render_lottery(lotteries[i]) for s, i in zip(states, combo)},
                    "vertices": len(results),
                }
                return _holds(witness, certified, bound)
        if len(g.acts1) == 1 and fallback_fail is not None:
            sigma, theta, r = fallback_fail
            counterexample = {
                "sigma2": {s: g.acts2[j] for s, j in zip(states, sigma)},
                "reached": theta.format(),
                "counterexample": r.counterexample,
            }
            return _fails(counterexample, True, r.bound_used)
        return _unknown()

    # -- fixpoints ----------------------------------------------------------

    def _fixpoint(self, d, phi) -> EvalResult:
        m = self.opts.unfold_bound
        if isinstance(phi, Mu):
            for i in range(m + 1):
                r = self.eval(d, self._unfold(phi, i))
                if r.verdict == HOLDS:
                    return _holds({"unfold": i, "witness": r.witness}, r.certified, i)
            return _unknown(m)
        for i in range(m + 1):
            r = self.eval(d, self._unfold(phi, i))
            if r.verdict == FAILS:
                return _fails({"unfold": i, "counterexample": r.counterexample}, r.certified, i)
        return _unknown(m)

    def _unfold(self, phi, i: int):
        # Shared approximant objects keep the (distribution, subformula)
        # memo effective across unfolding depths and recursion branches.
        key = (id(phi), i)
        hit = self._unfold_memo.get(key)
        if hit is not None:
            return hit[1]
        if i == 0:
            out = unfold_fixpoint(phi, 0)
        else:
            out = substitute(phi.body, phi.var, self._unfold(phi, i - 1))
        self._unfold_memo[key] = (phi, out)
        return out

    # -- support machinery ----------------------------------------------------

    def _witness_pool(self):
        """Candidate distributions used to discharge zero-weight components:
        all points plus every one-step successor of a point under a grid
        lottery and a pure response."""
        if self._pool is None:
            pool = []
            seen = set()

            def add(dist):
                if dist not in seen:
                    seen.add(dist)
                    pool.append(dist)

            for t in self.g.states:
                add(Distribution.point(t))
            for t in self.g.states:
                for i in range(len(self._succ.lotteries)):
                    for j in range(len(self.g.acts2)):
                        add(self._succ.get(t, i, j))
            self._pool = pool
        return self._pool


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _finalize(result: EvalResult, opts: EvalOptions) -> EvalResult:
    if not opts.certify and result.certified:
        return replace(result, certified=False)
    return result


def evaluate(g, d: Distribution, phi, opts: EvalOptions = None) -> EvalResult:
    """Evaluate a closed formula at a distribution."""
    opts = opts or EvalOptions()
    if free_vars(phi):
        raise FormulaError("formula must be closed")
    return _finalize(Evaluator(g, opts).eval(d, phi), opts)


def split_check(g, d: Distribution, parts, opts: EvalOptions = None) -> EvalResult:
    """Decide the pinned-weight summation semantics for given components."""
    opts = opts or EvalOptions()
    parts = [(Fraction(w), item) for w, item in parts]
    if sum(w for w, _ in parts) != 1:
        raise ValueError("summation weights must total exactly 1")
    return _finalize(Evaluator(g, opts).eval(d, ProbSum(tuple(parts))), opts)


def mix_check(g, d: Distribution, items, opts: EvalOptions = None) -> EvalResult:
    """Decide the free-weight interpolation semantics for given components."""
    opts = opts or EvalOptions()
    return _finalize(Evaluator(g, opts).eval(d, Mix(tuple(items))), opts)


def enforce_check(g, d: Distribution, body, opts: EvalOptions = None) -> EvalResult:
    """Decide whether player 1 can enforce ``body`` in one step from ``d``."""
    opts = opts or EvalOptions()
    return _finalize(Evaluator(g, opts).eval(d, Enforce(body)), opts)


class CharFormulaBuilder:
    """Characteristic formulas with maximal subterm sharing.

    The level-(n+1) formula conjoins, over every player-1 grid lottery, the
    enforceable interpolation of the level-n formulas of the per-response
    successor distributions.
    """

    def __init__(self, g, k: int):
        self.g = g
        self._succ = _SuccessorTable(g, k)  # rejects k < 1
        self._state_memo = {}
        self._dist_memo = {}

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
                    self.dist(self._succ.get(s, i, j), n - 1) for j in range(len(g.acts2))
                )
                conjuncts.append(Enforce(Mix(comps)))
            phi = And(tuple(conjuncts))
        self._state_memo[key] = phi
        return phi

    def dist(self, d: Distribution, n: int):
        key = (d, n)
        if key in self._dist_memo:
            return self._dist_memo[key]
        order = _state_order(self.g)
        parts = tuple(
            (d[t], self.state(t, n))
            for t in sorted(d.support(), key=order.get)
        )
        phi = ProbSum(parts)
        self._dist_memo[key] = phi
        return phi


def char_formula_state(g, s, n: int, k: int):
    return CharFormulaBuilder(g, k).state(s, n)


def char_formula_dist(g, d: Distribution, n: int, k: int):
    return CharFormulaBuilder(g, k).dist(d, n)


def logic_preorder(g, s, t, n: int, k: int, opts: EvalOptions = None) -> EvalResult:
    """Check the discriminating formulas of ``s`` (levels 0..n) at ``t``.

    `holds` suggests ``t`` simulates ``s`` up to depth ``n`` at this grid
    resolution; a certified `fails` refutes the logic preorder.
    """
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    opts = opts or EvalOptions(pi1_grid=k)
    builder = CharFormulaBuilder(g, k)
    phi = And(tuple(builder.state(s, level) for level in range(n + 1)))
    return _finalize(Evaluator(g, opts).eval(Distribution.point(t), phi), opts)
