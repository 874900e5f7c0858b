"""Brute-force reference implementations.

These deliberately avoid the algorithms of the main engines: lifting is
decided by integer max-flow instead of simplex, simulation enumerates both
mixed-action quantifiers on a grid instead of solving an LP, and formula
evaluation is a plain exhaustive recursion. Agreement between two unrelated
algorithms is the point; none of this is built for speed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

from .formula import (
    And,
    Enforce,
    Mix,
    Mu,
    NegProp,
    Nu,
    Or,
    ProbSum,
    Prop,
    unfold_fixpoint,
)
from .logic import FAILS, HOLDS, UNKNOWN, EvalOptions, EvalResult
from .prob import (
    Distribution,
    MixedAction,
    Relation,
    combine_dists,
    combine_ints,
    compositions,
    grid_lotteries,
    step_mixed_state,
)
from .sim import initial_relation

MAX_SCALE = 10**6


class OracleBudgetError(Exception):
    """Raised when an exhaustive enumeration would exceed its hard budget."""


def _max_flow(capacity, source, sink):
    """Integer max-flow, Edmonds-Karp (BFS augmenting paths)."""
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in capacity.get(u, {}).items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        # Bottleneck along the path, then augment both directions.
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        aug = min(capacity[u][v] for u, v in path)
        for u, v in path:
            capacity[u][v] -= aug
            capacity.setdefault(v, {})
            capacity[v][u] = capacity[v].get(u, 0) + aug
        flow += aug


def brute_lift(d: Distribution, th: Distribution, r: Relation, scale_hint=None) -> bool:
    """Lifting decided by max-flow on the bipartite transport network.

    Denominators are cleared to a common integer scale; the lifting exists
    iff the network saturates (max flow equals the scale).
    """
    scale = 1
    for dist in (d, th):
        for s in dist.support():
            scale = math.lcm(scale, dist[s].denominator)
    if scale_hint is not None:
        if scale_hint < 1:
            raise ValueError(f"scale must be >= 1, got {scale_hint}")
        scale = math.lcm(scale, int(scale_hint))
    if scale > MAX_SCALE:
        raise OracleBudgetError(f"scale {scale} exceeds {MAX_SCALE}")
    capacity = {"src": {}, "snk": {}}
    for s in d.support():
        capacity["src"][("L", s)] = int(d[s] * scale)
        capacity[("L", s)] = {}
    for t in th.support():
        capacity.setdefault(("R", t), {})["snk"] = int(th[t] * scale)
    for s in d.support():
        for t in th.support():
            if (s, t) in r:
                capacity[("L", s)][("R", t)] = scale
    return _max_flow(capacity, "src", "snk") == scale


def brute_sim(g, k: int, budget: int = 2_000_000) -> Relation:
    """Simulation approximants with every quantifier on the K-grid.

    A pair (s,t) survives a round iff for every grid lottery at s there is a
    grid lottery at t such that each pure response successor of t is
    lift-dominated by some grid mixture of the response successors of s.
    """
    lotteries = grid_lotteries(g.acts1, k)
    cost = (
        len(g.states) ** 2
        * len(lotteries) ** 2
        * len(g.acts2)
        * len(grid_lotteries(g.acts2, k))
    )
    if cost > budget:
        raise OracleBudgetError(f"enumeration size {cost} exceeds budget {budget}")
    response_mixes = grid_lotteries(g.acts2, k)

    def pair_ok(s, t, r):
        for lot1 in lotteries:
            pi1 = MixedAction({s: lot1}, 1)
            matched = False
            for lot2 in lotteries:
                pi2 = MixedAction({t: lot2}, 1)
                ok = True
                for b in g.acts2:
                    sigma = MixedAction({t: {b: Fraction(1)}}, 2)
                    theta = step_mixed_state(g, t, pi2, sigma)
                    found = False
                    for mix in response_mixes:
                        delta = combine_dists(
                            (w, step_mixed_state(g, s, pi1, MixedAction({s: {b2: Fraction(1)}}, 2)))
                            for b2, w in mix.items()
                        )
                        if brute_lift(delta, theta, r):
                            found = True
                            break
                    if not found:
                        ok = False
                        break
                if ok:
                    matched = True
                    break
            if not matched:
                return False
        return True

    r = initial_relation(g)
    while True:
        kept = Relation((s, t) for s, t in r if pair_ok(s, t, r))
        if kept == r:
            return r
        r = kept


def _literal_holds(g, d, phi):
    def state_ok(s, psi):
        if isinstance(psi, Prop):
            return psi.name in g.labels[s]
        if isinstance(psi, NegProp):
            return psi.name not in g.labels[s]
        raise TypeError(f"not a literal: {psi!r}")

    return all(state_ok(s, phi) for s in d.support())


def brute_eval(g, d: Distribution, phi, opts: EvalOptions = None, budget: int = 500_000):
    """Exhaustive grid evaluation sharing the three-valued verdict lattice.

    Splits, interpolation weights and the player-1 lottery all range over
    the grids in ``opts``; universal responses range over pure actions.
    `holds` answers are certified only on the literal/boolean fragment,
    everything else is verdict-only.
    """
    opts = opts or EvalOptions()
    for s in d.nums:
        g.check_state(s)
    counter = [0]
    lotteries = grid_lotteries(g.acts1, opts.pi1_grid)
    entries = {}

    def entry(s, i, b):
        """The successor of ``s`` under the i-th grid lottery and response ``b``."""
        if (s, i, b) not in entries:
            entries[s, i, b] = combine_dists((p, g.step(s, a, b)) for a, p in lotteries[i].items())
        return entries[s, i, b]

    def spend(n=1):
        counter[0] += n
        if counter[0] > budget:
            raise OracleBudgetError(f"evaluation budget {budget} exceeded")

    def splits(dist, n_parts):
        """All grid splits of ``dist`` into n_parts weighted pieces."""
        q = opts.split_denominator
        states = sorted(dist.support())
        comps = list(compositions(q, n_parts))
        # Part j takes dist.nums[s] * c over dist.den * q at each s, where c
        # is its share of the composition chosen at s.
        den = dist.den * q
        for assignment in itertools.product(comps, repeat=len(states)):
            spend()
            masses = [dict() for _ in range(n_parts)]
            for s, comp in zip(states, assignment):
                for j, c in enumerate(comp):
                    if c:
                        masses[j][s] = dist.nums[s] * c
            parts = []
            for m in masses:
                total = sum(m.values())
                parts.append((Fraction(total, den), Distribution.from_ints(m, total) if total else None))
            yield [w for w, _ in parts], parts

    def ev(dist, psi):
        spend()
        if isinstance(psi, (Prop, NegProp)):
            ok = _literal_holds(g, dist, psi)
            return EvalResult(HOLDS if ok else FAILS, True)
        if isinstance(psi, And):
            results = [ev(dist, i) for i in psi.items]
            if any(r.verdict == FAILS for r in results):
                return EvalResult(FAILS, all(r.certified for r in results))
            if all(r.verdict == HOLDS for r in results):
                return EvalResult(HOLDS, all(r.certified for r in results))
            return EvalResult(UNKNOWN, False)
        if isinstance(psi, Or):
            results = [ev(dist, i) for i in psi.items]
            if any(r.verdict == HOLDS and r.certified for r in results):
                return EvalResult(HOLDS, True)
            if any(r.verdict == HOLDS for r in results):
                return EvalResult(HOLDS, False)
            # A per-distribution disjunct scan is not complete for the
            # union denotation, so a miss is only unknown.
            return EvalResult(UNKNOWN, False)
        if isinstance(psi, ProbSum):
            target = [w for w, _ in psi.parts]
            for weights, parts in splits(dist, len(psi.parts)):
                if weights != target:
                    continue
                if all(
                    part is None or ev(part, item).verdict == HOLDS
                    for (_, part), (_, item) in zip(parts, psi.parts)
                ):
                    return EvalResult(HOLDS, False)
            return EvalResult(UNKNOWN, False)
        if isinstance(psi, Mix):
            for weights, parts in splits(dist, len(psi.items)):
                ok = True
                for (w, part), item in zip(parts, psi.items):
                    if w == 0:
                        # Zero-weight components must still be satisfiable;
                        # check every point distribution as a cheap witness.
                        if not any(
                            ev(Distribution.point(u), item).verdict == HOLDS
                            for u in g.states
                        ):
                            ok = False
                            break
                        continue
                    if ev(part, item).verdict != HOLDS:
                        ok = False
                        break
                if ok:
                    return EvalResult(HOLDS, False)
            return EvalResult(UNKNOWN, False)
        if isinstance(psi, Enforce):
            states = sorted(dist.support())
            for combo in itertools.product(range(len(lotteries)), repeat=len(states)):
                ok = True
                for resp in itertools.product(g.acts2, repeat=len(states)):
                    # step_mixed_dist's successor, summed the same way on integers
                    theta = combine_ints(
                        [(dist.nums[s], entry(s, i, b)) for s, i, b in zip(states, combo, resp)],
                        dist.den,
                    )
                    if ev(theta, psi.body).verdict != HOLDS:
                        ok = False
                        break
                if ok:
                    return EvalResult(HOLDS, False)
            return EvalResult(UNKNOWN, False)
        if isinstance(psi, (Mu, Nu)):
            for i in range(opts.unfold_bound + 1):
                r = ev(dist, unfold_fixpoint(psi, i))
                if isinstance(psi, Mu) and r.verdict == HOLDS:
                    return EvalResult(HOLDS, False, bound_used=i)
                if isinstance(psi, Nu) and r.verdict == FAILS:
                    return EvalResult(FAILS, False, bound_used=i)
            return EvalResult(UNKNOWN, False, bound_used=opts.unfold_bound)
        raise TypeError(f"not a formula node: {psi!r}")

    return ev(d, phi)
