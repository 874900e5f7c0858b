"""Distributions, mixed actions, lifting, and the exact rational LP core.

Every number in this module is a ``fractions.Fraction``; feasibility
questions are decided exactly, never with tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional


ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse ``int`` or ``int/int``. Decimal literals are rejected."""
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal literal {text!r} not allowed; use n/d")
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return Fraction(int(text))


def format_rational(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


class Distribution:
    """Sparse rational distribution over state names; mass exactly 1."""

    __slots__ = ("entries", "_key", "_hash")

    def __init__(self, entries):
        # Signs and the total are checked on integers: Fraction comparisons
        # and sums were most of the cost of building a successor.
        items = {}
        for s, p in dict(entries).items():
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator < 0:
                raise ValueError(f"negative mass {p} at {s}")
            if p.numerator:
                items[s] = p
        den = 1
        for p in items.values():
            den = lcm(den, p.denominator)
        num = sum(p.numerator * (den // p.denominator) for p in items.values())
        if num != den:
            raise ValueError(f"distribution sums to {Fraction(num, den)}, expected 1")
        self.entries = items
        self._key = tuple(sorted(items.items()))
        self._hash = hash(self._key)  # hashing a Fraction takes a modular inverse

    @classmethod
    def point(cls, s: str) -> "Distribution":
        return cls({s: ONE})

    def __getitem__(self, s: str) -> Fraction:
        return self.entries.get(s, ZERO)

    def support(self):
        return list(self.entries)

    def is_point(self) -> bool:
        return len(self.entries) == 1

    def __eq__(self, other):
        return isinstance(other, Distribution) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Distribution({dict(self.entries)!r})"

    def format(self) -> str:
        return ",".join(f"{s}:{format_rational(p)}" for s, p in self._key)


def parse_distribution(text: str) -> Distribution:
    """Parse the literal syntax ``s0:1/2,s1:1/2``."""
    entries = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"bad distribution entry {part!r}, expected state:rat")
        s, r = part.split(":", 1)
        s = s.strip()
        if s in entries:
            raise ValueError(f"duplicate state {s!r} in distribution literal")
        entries[s] = parse_rational(r)
    return Distribution(entries)


class MixedAction:
    """Per-state action lottery for one player."""

    __slots__ = ("choice", "owner")

    def __init__(self, choice, owner: int):
        if owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {owner}")
        clean = {}
        for s, lot in choice.items():
            lot = {a: Fraction(p) for a, p in lot.items() if Fraction(p) != 0}
            if any(p < 0 for p in lot.values()):
                raise ValueError(f"negative action probability at state {s}")
            if sum(lot.values(), ZERO) != 1:
                raise ValueError(f"action lottery at state {s} does not sum to 1")
            clean[s] = lot
        self.choice = clean
        self.owner = owner

    @classmethod
    def pure(cls, states: Iterable[str], action: str, owner: int) -> "MixedAction":
        return cls({s: {action: ONE} for s in states}, owner)

    def at(self, s: str):
        return self.choice[s]

    def __eq__(self, other):
        return (
            isinstance(other, MixedAction)
            and self.owner == other.owner
            and self.choice == other.choice
        )

    def __repr__(self):
        return f"MixedAction(owner={self.owner}, {self.choice!r})"


class Relation:
    """A set of state pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = frozenset((s, t) for s, t in pairs)

    @classmethod
    def identity(cls, states: Iterable[str]) -> "Relation":
        return cls((s, s) for s in states)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __eq__(self, other):
        return isinstance(other, Relation) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __le__(self, other):
        return self.pairs <= other.pairs

    def inverse(self) -> "Relation":
        return Relation((t, s) for s, t in self.pairs)

    def related_to(self, s: str):
        return sorted(t for u, t in self.pairs if u == s)


def parse_relation(text: str) -> Relation:
    """Parse the pair-per-line relation format; ``#`` starts a comment."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two state names, got {line!r}")
        pairs.append((fields[0], fields[1]))
    return Relation(pairs)


@dataclass(frozen=True)
class WeightWitness:
    """Lifting witness: positive weights whose marginals are the two sides."""

    weights: dict

    def validate(self, d: Distribution, th: Distribution, r: Relation):
        """Check the three lifting clauses exactly; raise on violation."""
        rows = {}
        cols = {}
        for (s, t), w in self.weights.items():
            if w <= 0:
                raise ValueError(f"non-positive weight at ({s},{t})")
            if (s, t) not in r:
                raise ValueError(f"weighted pair ({s},{t}) not in relation")
            rows[s] = rows.get(s, ZERO) + w
            cols[t] = cols.get(t, ZERO) + w
        for s in set(d.support()) | set(rows):
            if rows.get(s, ZERO) != d[s]:
                raise ValueError(f"row sum at {s} is {rows.get(s, ZERO)}, expected {d[s]}")
        for t in set(th.support()) | set(cols):
            if cols.get(t, ZERO) != th[t]:
                raise ValueError(f"column sum at {t} is {cols.get(t, ZERO)}, expected {th[t]}")

    def is_valid(self, d: Distribution, th: Distribution, r: Relation) -> bool:
        try:
            self.validate(d, th, r)
        except ValueError:
            return False
        return True


# ---------------------------------------------------------------------------
# Exact rational feasibility (phase-1 simplex with Bland's rule)
# ---------------------------------------------------------------------------

class LinearProblem:
    """A pure feasibility problem over nonnegative rational variables.

    Columns are the integers ``0 .. n_vars() - 1``, handed out in blocks by
    ``cols``. Constraints are ``{column: coeff}`` rows with senses ``<=``,
    ``>=`` or ``==``.
    """

    def __init__(self):
        self.names = range(0)  # the columns so far
        self.constraints = []  # (coeffs: {column: Fraction}, sense, rhs)

    def cols(self, k: int) -> range:
        """``k`` new columns."""
        n = len(self.names)
        self.names = range(n + k)
        return range(n, n + k)

    def add(self, coeffs: dict, sense: str, rhs) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        row = {}
        for j, c in coeffs.items():
            if j not in self.names:
                raise ValueError(f"unknown column {j!r}")
            c = Fraction(c)
            if c != 0:
                row[j] = c
        self.constraints.append((row, sense, Fraction(rhs)))

    def n_vars(self) -> int:
        return len(self.names)


def _reduce(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries. The gcd is folded
    pairwise and stops at 1: ``math.gcd(*values)`` kept memory it never
    released on CPython 3.11."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {j: v // g for j, v in row.items()} if g else row


def _int_row(row: dict) -> dict:
    """The nonzero entries of a rational row, scaled by a positive factor to
    coprime integers."""
    scale = 1
    for c in row.values():
        scale = lcm(scale, c.denominator)
    return _reduce({j: c.numerator * (scale // c.denominator) for j, c in row.items() if c})


def _eliminate(row: dict, prow: dict, a: int, f: int) -> dict:
    """``a*row - f*prow`` over integers, reduced by its gcd (``a > 0``)."""
    g = gcd(a, f)
    a, f = a // g, f // g
    out = {j: v * a for j, v in row.items()} if a != 1 else dict(row)
    for j, v in prow.items():
        w = out.get(j, 0) - f * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _reduce(out)


def lp_feasible(p: LinearProblem) -> Optional[list]:
    """Exact feasibility of ``p``; returns a satisfying point, one
    ``Fraction`` per column, or None.

    Phase-1 simplex on the standard form with Bland's (lowest-index)
    pivoting, which cannot cycle. Deterministic for a fixed problem.

    Fraction-free and sparse: each tableau row is held as a dict of nonzero
    Python ``int``s that is some positive multiple of the rational row, with
    the right-hand side under key ``total``; a basic variable's value is the
    row's rhs over its own coefficient there. The artificial column of row
    ``i`` (basis label ``total + i``) is never read, so it is not stored.
    A pivot rescales and updates only the rows with a nonzero in the pivot
    column, then divides each by its gcd. Ratios compare by cross
    multiplication, since a row's scale cancels in ``rhs/a``. Entering,
    leaving and drive-out choices are those of the dense rational tableau,
    so the pivot sequence and the returned vertex are too.
    """
    n = p.n_vars()
    total = n + sum(1 for _, sense, _ in p.constraints if sense != "==")
    rows = []
    obj = {}  # phase-1 reduced costs: the sum of the starting rows
    slack = n
    for coeffs, sense, rhs in p.constraints:
        row = dict(coeffs)
        if sense != "==":
            row[slack] = ONE if sense == "<=" else -ONE
            slack += 1
        row[total] = rhs
        if rhs < 0:
            row = {j: -c for j, c in row.items()}
        for j, c in row.items():
            obj[j] = obj.get(j, ZERO) + c
        rows.append(_int_row(row))
    obj = _int_row(obj)
    basis = list(range(total, total + len(rows)))

    def pivot(pr: int, pc: int) -> None:
        nonlocal obj
        prow = rows[pr]
        if prow[pc] < 0:  # drive-out pivots may be negative; keep rows positive multiples
            prow = rows[pr] = {j: -v for j, v in prow.items()}
        a = prow[pc]
        for i, row in enumerate(rows):
            if i != pr and pc in row:
                rows[i] = _eliminate(row, prow, a, row[pc])
        if pc in obj:
            obj = _eliminate(obj, prow, a, obj[pc])
        basis[pr] = pc

    while True:
        # Bland: entering = lowest index with positive reduced cost,
        # excluding artificial columns.
        pc = min((j for j, v in obj.items() if v > 0 and j < total), default=-1)
        if pc < 0:
            break
        # Ratio test, Bland tie-break on basis index.
        pr, best_a, best_b = -1, 1, 0
        for i, row in enumerate(rows):
            a = row.get(pc, 0)
            if a > 0:
                b = row.get(total, 0)
                cur, best = b * best_a, best_b * a  # b/a against best_b/best_a
                if pr < 0 or cur < best or (cur == best and basis[i] < basis[pr]):
                    pr, best_a, best_b = i, a, b
        if pr < 0:
            # Unbounded in phase 1 cannot happen (objective bounded below by 0),
            # but guard anyway.
            return None
        pivot(pr, pc)

    if total in obj:
        return None
    # Drive any artificial variables still in the basis out (degenerate rows).
    for i, b in enumerate(basis):
        if b >= total:
            if total in rows[i]:
                return None
            pc = min((j for j in rows[i] if j < total), default=-1)
            if pc >= 0:
                pivot(i, pc)

    values = {b: Fraction(rows[i].get(total, 0), rows[i][b]) for i, b in enumerate(basis) if b < n}
    return [values.get(j, ZERO) for j in p.names]


# ---------------------------------------------------------------------------
# Combination and generalized transitions
# ---------------------------------------------------------------------------

def combine_dists(parts) -> Distribution:
    """Weighted sum of distributions; weights must sum to exactly 1."""
    parts = [(Fraction(w), dist) for w, dist in parts]
    total = sum((w for w, _ in parts), ZERO)
    if total != 1:
        raise ValueError(f"weights sum to {total}, expected 1")
    out = {}
    for w, dist in parts:
        if w < 0:
            raise ValueError(f"negative weight {w}")
        if w == 0:
            continue
        for s, ps in dist.entries.items():
            out[s] = out.get(s, ZERO) + w * ps
    return Distribution(out)


def combine_mixed_actions(parts) -> MixedAction:
    """Weighted sum of mixed actions of one owner (pointwise on lotteries)."""
    parts = [(Fraction(w), pi) for w, pi in parts]
    if not parts:
        raise ValueError("empty combination")
    owner = parts[0][1].owner
    if any(pi.owner != owner for _, pi in parts):
        raise ValueError("owner mismatch in mixed-action combination")
    if sum((w for w, _ in parts), ZERO) != 1:
        raise ValueError("weights do not sum to 1")
    states = set()
    for _, pi in parts:
        states |= set(pi.choice)
    choice = {}
    for s in states:
        lot = {}
        for w, pi in parts:
            if w == 0:
                continue
            if s not in pi.choice:
                raise ValueError(f"mixed action undefined at state {s}")
            for a, pa in pi.choice[s].items():
                lot[a] = lot.get(a, ZERO) + w * pa
        choice[s] = lot
    return MixedAction(choice, owner)


def step_mixed_state(g, s: str, pi1: MixedAction, pi2: MixedAction) -> Distribution:
    """Expand the generalized transition from a single state."""
    if (pi1.owner, pi2.owner) != (1, 2):
        raise ValueError("expected a (player 1, player 2) pair of mixed actions")
    out = {}
    for a1, p1 in pi1.at(s).items():
        for a2, p2 in pi2.at(s).items():
            w = p1 * p2
            if w == 0:
                continue
            for t, pt in g.step(s, a1, a2).entries.items():
                out[t] = out.get(t, ZERO) + w * pt
    return Distribution(out)


def step_mixed_dist(g, d: Distribution, pi1: MixedAction, pi2: MixedAction) -> Distribution:
    """Generalized transition from a distribution."""
    parts = [(p, step_mixed_state(g, t, pi1, pi2)) for t, p in sorted(d.entries.items())]
    return combine_dists(parts)


def compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` nonnegative
    integers, first coordinate descending. Deterministic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def grid_lotteries(actions, k: int):
    """Action lotteries with denominators dividing ``k``, in grid order.

    Includes every pure lottery (compositions putting all of ``k`` on one
    action).
    """
    if k < 1:
        raise ValueError(f"grid must be >= 1, got {k}")
    actions = list(actions)
    out = []
    for comp in compositions(k, len(actions)):
        out.append({a: Fraction(c, k) for a, c in zip(actions, comp) if c})
    return out


# ---------------------------------------------------------------------------
# Lifting, Smyth check, constructive split
# ---------------------------------------------------------------------------

def lift_check(d: Distribution, th: Distribution, r: Relation) -> Optional[WeightWitness]:
    """Decide whether ``d`` is lift-related to ``th`` under ``r``.

    Solved as an exact transportation feasibility problem: one variable per
    related support pair, row sums pinned to ``d``, column sums to ``th``.
    """
    supp_d = d.support()
    supp_t = th.support()
    pairs = [(s, t) for s in sorted(supp_d) for t in sorted(supp_t) if (s, t) in r]
    if not pairs and supp_d:
        return None
    lp = LinearProblem()
    lp.cols(len(pairs))  # column j is pairs[j]
    for s in sorted(supp_d):
        coeffs = {j: ONE for j, (u, _) in enumerate(pairs) if u == s}
        lp.add(coeffs, "==", d[s])
    for t in sorted(supp_t):
        coeffs = {j: ONE for j, (_, v) in enumerate(pairs) if v == t}
        lp.add(coeffs, "==", th[t])
    point = lp_feasible(lp)
    if point is None:
        return None
    weights = {pair: w for pair, w in zip(pairs, point) if w > 0}
    witness = WeightWitness(weights)
    witness.validate(d, th, r)
    return witness


def smyth_check(p, q, r: Relation):
    """Smyth-order check of the lifted relation.

    True iff every element of ``q`` is lift-dominated by some element of
    ``p``. Returns ``(verdict, witnesses)`` with one entry per element of
    ``q``: either ``(index into p, WeightWitness)`` or ``None``.
    """
    p = list(p)
    q = list(q)
    if not p or not q:
        raise ValueError("smyth_check requires nonempty collections")
    witnesses = []
    ok = True
    for th in q:
        found = None
        for i, d in enumerate(p):
            w = lift_check(d, th, r)
            if w is not None:
                found = (i, w)
                break
        if found is None:
            ok = False
        witnesses.append(found)
    return ok, witnesses


def split_match(d: Distribution, th: Distribution, r: Relation, parts):
    """Constructive matching split of ``th`` for a given split of ``d``.

    Requires ``d`` lift-related to ``th`` and ``parts`` summing to ``d``;
    returns same-weight parts of ``th``, each lift-related to its mate.
    """
    parts = [(Fraction(w), dist) for w, dist in parts]
    if combine_dists(parts) != d:
        raise ValueError("parts do not weighted-sum to the left distribution")
    witness = lift_check(d, th, r)
    if witness is None:
        raise ValueError("distributions are not lift-related under the relation")
    out = []
    for w, di in parts:
        if any(d[s] == 0 for s in di.support()):
            # Only possible for zero-weight parts; no witness component exists.
            raise ValueError("part supported outside the split distribution")
        entries = {}
        for (s, t), wst in witness.weights.items():
            if di[s] > 0:
                entries[t] = entries.get(t, ZERO) + di[s] * wst / d[s]
        out.append((w, Distribution(entries)))
    return out
