"""Distributions, mixed actions, lifting, and the exact rational LP core.

A ``Distribution`` holds positive integer numerators over one reduced common
denominator, and weighted sums of distributions (successors included) are
built on those integers alone; ``d[s]`` and ``entries`` read the masses as
``fractions.Fraction``. An LP row is an equality given as integers over
one row denominator, and the simplex works on integers alone. Every other
number is a ``Fraction``. Feasibility questions are decided exactly, never
with tolerances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """Sparse rational distribution over state names; mass exactly 1.

    Held as ``nums`` (state -> positive int, in entry order) over one common
    denominator ``den``, reduced so that ``den`` and the numerators share no
    factor: equal distributions have equal ``den`` and ``nums``, so neither
    equality nor hashing touches a ``Fraction``.
    """

    __slots__ = ("nums", "den", "_hash")

    def __init__(self, entries):
        items = []
        den = 1
        for s, p in dict(entries).items():
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator < 0:
                raise ValueError(f"negative mass {p} at {s}")
            items.append((s, p))
            den = lcm(den, p.denominator)
        self._fill({s: p.numerator * (den // p.denominator) for s, p in items}, den)

    @classmethod
    def from_ints(cls, nums: dict, den: int) -> "Distribution":
        """The distribution with mass ``nums[s] / den`` at each ``s``
        (``den > 0``); takes ownership of ``nums``."""
        d = object.__new__(cls)
        d._fill(nums, den)
        return d

    def _fill(self, nums: dict, den: int) -> None:
        # Signs and the total are checked on integers; zeros are dropped.
        if min(nums.values(), default=1) <= 0:
            for s, n in nums.items():
                if n < 0:
                    raise ValueError(f"negative mass {Fraction(n, den)} at {s}")
            nums = {s: n for s, n in nums.items() if n}
        total = sum(nums.values())
        if total != den:
            raise ValueError(f"distribution sums to {Fraction(total, den)}, expected 1")
        # Folded pairwise and stopped at 1, as in ``_reduce``.
        g = den
        for n in nums.values():
            if g == 1:
                break
            g = gcd(g, n)
        if g > 1:
            nums = {s: n // g for s, n in nums.items()}
            den //= g
        self.nums = nums
        self.den = den
        self._hash = None

    @classmethod
    def point(cls, s: str) -> "Distribution":
        return cls.from_ints({s: 1}, 1)

    @property
    def entries(self) -> dict:
        """The masses as ``Fraction``s, in entry order (a fresh dict)."""
        den = self.den
        return {s: Fraction(n, den) for s, n in self.nums.items()}

    def __getitem__(self, s: str) -> Fraction:
        n = self.nums.get(s)
        return Fraction(n, self.den) if n else ZERO

    def support(self):
        return list(self.nums)

    def is_point(self) -> bool:
        return len(self.nums) == 1

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, tuple(sorted(self.nums.items()))))
        return self._hash

    def __repr__(self):
        return f"Distribution({self.entries!r})"

    def format(self) -> str:
        den = self.den
        return ",".join(
            f"{s}:{format_rational(Fraction(n, den))}" for s, n in sorted(self.nums.items())
        )


def parse_distribution(text: str) -> Distribution:
    """Parse the literal syntax ``s0:1/2,s1:1/2``; state names are interned."""
    entries = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"bad distribution entry {part!r}, expected state:rat")
        s, r = part.split(":", 1)
        s = sys.intern(s.strip())
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
            kept = {}
            for a, p in lot.items():
                if type(p) is not Fraction:
                    p = Fraction(p)
                if p:
                    kept[a] = p
            if any(p < 0 for p in kept.values()):
                raise ValueError(f"negative action probability at state {s}")
            if sum(kept.values(), ZERO) != 1:
                raise ValueError(f"action lottery at state {s} does not sum to 1")
            clean[s] = kept
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
    """A set of state pairs, held as each state's related states in order:
    ``{s: (t, ...)}`` over sorted ``s``. A relation holds one small tuple
    per state rather than a set of fresh pair tuples."""

    __slots__ = ("_image",)

    def __init__(self, pairs):
        image = {}
        for s, t in pairs:
            image.setdefault(s, set()).add(t)
        self._image = {s: tuple(sorted(image[s])) for s in sorted(image)}

    @property
    def pairs(self) -> frozenset:
        return frozenset(self)

    @classmethod
    def identity(cls, states: Iterable[str]) -> "Relation":
        return cls((s, s) for s in states)

    def image(self, s) -> tuple:
        """The states related to ``s``, in order."""
        return self._image.get(s, ())

    def __contains__(self, pair) -> bool:
        s, t = pair
        return t in self._image.get(s, ())

    def __eq__(self, other):
        return isinstance(other, Relation) and self._image == other._image

    def __hash__(self):
        return hash(tuple(self._image.items()))

    def __len__(self):
        return sum(map(len, self._image.values()))

    def __iter__(self):
        return ((s, t) for s, ts in self._image.items() for t in ts)

    def __le__(self, other):
        return all(pair in other for pair in self)

    def __repr__(self):
        return f"Relation({list(self)!r})"


def parse_relation(text: str) -> Relation:
    """Parse the pair-per-line relation format; ``#`` starts a comment.
    State names are interned."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two state names, got {line!r}")
        pairs.append((sys.intern(fields[0]), sys.intern(fields[1])))
    return Relation(pairs)


@dataclass(frozen=True)
class WeightWitness:
    """Lifting witness: positive rational weights whose marginals are the two
    sides."""

    weights: dict

    def validate(self, d: Distribution, th: Distribution, r: Relation):
        """Check the three lifting clauses exactly; raise on violation.

        Row and column sums are integers over the lcm of the weights'
        denominators, so no ``Fraction`` is added."""
        den = 1
        for (s, t), w in self.weights.items():
            if w <= 0:
                raise ValueError(f"non-positive weight at ({s},{t})")
            if (s, t) not in r:
                raise ValueError(f"weighted pair ({s},{t}) not in relation")
            if den % w.denominator:
                den = lcm(den, w.denominator)
        rows = {}
        cols = {}
        for (s, t), w in self.weights.items():
            n = w.numerator * (den // w.denominator)
            rows[s] = rows.get(s, 0) + n
            cols[t] = cols.get(t, 0) + n
        for side, sums, what in ((d, rows, "row"), (th, cols, "column")):
            for s in sorted(set(side.support()) | set(sums)):
                got = sums.get(s, 0)
                if got * side.den != side.nums.get(s, 0) * den:
                    raise ValueError(
                        f"{what} sum at {s} is {Fraction(got, den)}, expected {side[s]}"
                    )

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
    """A feasibility problem ``A x == b``, ``x >= 0``, in standard form.

    Columns are the integers ``0 .. n_vars() - 1``, handed out in blocks by
    ``cols``. Row ``i`` is held as integers over one positive row
    denominator: ``constraints[i]`` is ``(coeffs, "==", rhs)``, with
    ``coeffs`` a ``{column: int}`` dict without zeros and ``rhs`` an
    ``int >= 0``, and ``dens[i]`` is the denominator, so the row reads
    ``coeffs/den == rhs/den``. The rational row is kept exactly as given,
    never rescaled: the phase-1 objective of ``lp_feasible`` sums the
    rational rows. Lifting, the simulation step and the flat checker all
    build transport-style rows of this kind, so there are no slack columns
    or sign flips; and as phase 1 alone fixes every original column's
    value, there is no drive-out either (see ``lp_feasible``).
    """

    def __init__(self):
        self.names = range(0)  # the columns so far
        self.constraints = []  # (coeffs: {column: int}, "==", rhs: int) over dens[i]
        self.dens = []

    def cols(self, k: int) -> range:
        """``k`` new columns."""
        n = len(self.names)
        self.names = range(n + k)
        return range(n, n + k)

    def add(self, coeffs: dict, rhs: int, den: int = 1) -> None:
        """Add the row ``coeffs/den == rhs/den``: ``int`` coefficients over
        handed-out columns, an ``int`` ``rhs >= 0`` and a positive ``int``
        ``den``; anything else raises ``ValueError``. Zero coefficients are
        dropped."""
        if type(den) is not int or den < 1:
            raise ValueError(f"row denominator must be a positive int, got {den!r}")
        if type(rhs) is not int or rhs < 0:
            raise ValueError(f"right-hand side must be an int >= 0, got {rhs!r}")
        row = {}
        for j, c in coeffs.items():
            if j not in self.names:
                raise ValueError(f"unknown column {j!r}")
            if type(c) is not int:
                raise ValueError(f"coefficient of column {j} must be an int, got {c!r}")
            if c:
                row[j] = c
        self.constraints.append((row, "==", rhs))
        self.dens.append(den)

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

    Phase-1 simplex with Bland's (lowest-index) pivoting, which cannot
    cycle, started from one artificial column per row. Deterministic for a
    fixed problem.

    Fraction-free and sparse: each tableau row is held as a dict of nonzero
    Python ``int``s that is some positive multiple of the rational row, with
    the right-hand side under key ``n``; a basic variable's value is the
    row's rhs over its own coefficient there. Rows start from the integer
    rows of ``p``; the phase-1 objective, the sum of the rational rows
    ``row/den``, is summed over the lcm of the denominators. Both are
    reduced by their gcd. (Starting from another multiple of a rational row
    would change the objective, and so the pivot path.) The artificial
    column of row ``i`` (basis label ``n + i``) is never read, so it is not
    stored. A pivot rescales and updates only the rows with a nonzero in
    the pivot column, then divides each by its gcd; every pivot entry is
    positive, so rows stay positive multiples. Ratios compare by cross
    multiplication, since a row's scale cancels in ``rhs/a``. Entering and
    leaving choices are those of the dense rational tableau, so the pivot
    sequence and the returned vertex are too. No ``Fraction`` is built
    before the returned point.

    There is no drive-out of artificial columns after phase 1. When the
    objective reaches 0, an artificial column still basic sits in a row
    whose rhs is 0. Pivoting it out would scale the other rows' rhs with
    their coefficients, so no value of a basic original column moves; the
    entering column would be basic at 0, the value a nonbasic column
    reads; and the artificial column's own value is never read.
    """
    n = p.n_vars()
    rows = []
    common = 1  # lcm of the row denominators
    for (coeffs, _, rhs), den in zip(p.constraints, p.dens):
        row = dict(coeffs)
        if rhs:
            row[n] = rhs
        rows.append(row)
        if common % den:
            common = lcm(common, den)
    # Phase-1 reduced costs: the sum of the rational rows, times ``common``.
    obj = {}
    for row, den in zip(rows, p.dens):
        f = common // den
        for j, v in row.items():
            obj[j] = obj.get(j, 0) + f * v
    obj = _reduce({j: v for j, v in obj.items() if v})
    rows = [_reduce(row) for row in rows]
    basis = list(range(n, n + len(rows)))

    while True:
        # Bland: entering = lowest index with positive reduced cost,
        # excluding the right-hand side.
        pc = min((j for j, v in obj.items() if v > 0 and j < n), default=-1)
        if pc < 0:
            break
        # Ratio test, Bland tie-break on basis index.
        pr, best_a, best_b = -1, 1, 0
        for i, row in enumerate(rows):
            a = row.get(pc, 0)
            if a > 0:
                b = row.get(n, 0)
                cur, best = b * best_a, best_b * a  # b/a against best_b/best_a
                if pr < 0 or cur < best or (cur == best and basis[i] < basis[pr]):
                    pr, best_a, best_b = i, a, b
        if pr < 0:  # unreachable (phase 1 is bounded below by 0); never read as infeasible
            raise RuntimeError("phase 1 of the simplex is unbounded")
        prow = rows[pr]
        for i, row in enumerate(rows):
            if i != pr and pc in row:
                rows[i] = _eliminate(row, prow, best_a, row[pc])
        if pc in obj:
            obj = _eliminate(obj, prow, best_a, obj[pc])
        basis[pr] = pc

    if n in obj:
        return None
    values = {b: Fraction(rows[i].get(n, 0), rows[i][b]) for i, b in enumerate(basis) if b < n}
    return [values.get(j, ZERO) for j in p.names]


# ---------------------------------------------------------------------------
# Combination and generalized transitions
# ---------------------------------------------------------------------------

def combine_ints(parts, den: int) -> Distribution:
    """The sum of ``(a / den) * dist`` over ``parts``, a list of ``(a, dist)``
    with nonnegative integer ``a``, built on integers alone.

    Parts with ``a == 0`` are skipped. Entries appear in order of first
    appearance, part by part. Weights that do not sum to ``den`` fail the
    result's total check.
    """
    scale = 1
    for a, dist in parts:
        if a and scale % dist.den:
            scale = lcm(scale, dist.den)
    out = {}
    for a, dist in parts:
        if a:
            f = a * (scale // dist.den)
            for s, n in dist.nums.items():
                out[s] = out.get(s, 0) + f * n
    return Distribution.from_ints(out, den * scale)


def combine_dists(parts) -> Distribution:
    """Weighted sum of distributions; weights must sum to exactly 1."""
    parts = [(Fraction(w), dist) for w, dist in parts]
    den = 1
    for w, _ in parts:
        den = lcm(den, w.denominator)
    ints = [(w.numerator * (den // w.denominator), dist) for w, dist in parts]
    total = sum(a for a, _ in ints)
    if total != den:
        raise ValueError(f"weights sum to {Fraction(total, den)}, expected 1")
    for (w, _), (a, _) in zip(parts, ints):
        if a < 0:
            raise ValueError(f"negative weight {w}")
    return combine_ints(ints, den)


def step_mixed_state(g, s: str, pi1: MixedAction, pi2: MixedAction) -> Distribution:
    """Expand the generalized transition from a single state."""
    if (pi1.owner, pi2.owner) != (1, 2):
        raise ValueError("expected a (player 1, player 2) pair of mixed actions")
    return combine_dists(
        (p1 * p2, g.step(s, a1, a2))
        for a1, p1 in pi1.at(s).items()
        for a2, p2 in pi2.at(s).items()
    )


def step_mixed_dist(g, d: Distribution, pi1: MixedAction, pi2: MixedAction) -> Distribution:
    """Generalized transition from a distribution."""
    parts = [(n, step_mixed_state(g, t, pi1, pi2)) for t, n in sorted(d.nums.items())]
    return combine_ints(parts, d.den)


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


class SuccessorTable(dict):
    """One-step successors of single states: entry (s, i, j) is the
    successor of ``s`` under the i-th player-1 grid lottery and the j-th
    player-2 action, built on first lookup and then kept. Entries are
    compared by value: equal entries of two keys may be two objects. The
    ``<1>`` scan, characteristic formulas and simulation rounds read the
    model's, which lives as long as the model (``GameStructure.successors``)
    and holds its rows and state list, not the model: callers check states
    first.

    ``formulas`` maps (s, n) to the characteristic formula of ``s`` at depth
    ``n`` under this grid; ``logic.CharFormulaBuilder`` fills it, so every
    call on the model reuses the formulas built before, and they die with
    the model. ``pool``, the evaluator's candidates for a zero-weight `mix`
    component, is kept likewise."""

    def __init__(self, g, k: int):
        super().__init__()
        self.lotteries = grid_lotteries(g.acts1, k)
        self.formulas = {}
        self._k, self._rows, self._states, self._acts2 = k, g.table, g.states, g.acts2
        self._responses = range(len(g.acts2))

    def __missing__(self, key):
        s, i, j = key
        b, k = self._acts2[j], self._k
        # Grid numerators over k, as combine_dists would scale them.
        parts = [(p.numerator * (k // p.denominator), self._rows[s, a, b])
                 for a, p in self.lotteries[i].items()]
        value = self[key] = combine_ints(parts, k)
        return value

    def row(self, s, i: int) -> tuple:
        """The successors of ``s`` under the i-th lottery, one per player-2
        action, in ``acts2`` order."""
        return tuple([self[s, i, j] for j in self._responses])

    @cached_property
    def pool(self) -> list:
        """The candidate distributions that discharge a zero-weight `mix`
        component: every point, then every entry of a state, in (s, i, j)
        order, without repeats. Built on first read."""
        points = [Distribution.point(t) for t in self._states]
        lotteries = range(len(self.lotteries))
        entries = [self[t, i, j] for t in self._states for i in lotteries for j in self._responses]
        return list(dict.fromkeys(points + entries))


# ---------------------------------------------------------------------------
# Lifting, Smyth check, constructive split
# ---------------------------------------------------------------------------

def _hall_cut(d: Distribution, th: Distribution, adj: dict) -> Optional[list]:
    """A Hall cut refuting the lifting of ``d`` to ``th``, or None.

    ``adj`` maps each state of ``d``'s support, in sorted order, to the
    states of ``th``'s support related to it. Integer augmenting-path
    max-flow over related pairs, with the masses scaled by
    ``lcm(d.den, th.den)``: each left state fills its neighbours in order,
    then sends the rest along shortest residual paths. When a left state
    ``s`` cannot send all of its mass, the left states ``X`` reachable from
    ``s`` in the residual graph are returned: their neighbours are full and
    take flow from ``X`` alone, so ``d(X) > th(N(X))``. None means the flow
    saturates.
    """
    scale = lcm(d.den, th.den)
    fd, ft = scale // d.den, scale // th.den
    room = {t: n * ft for t, n in th.nums.items()}
    into = {t: {} for t in room}  # right state -> {left state: flow}
    for s, ts in adj.items():
        need = d.nums[s] * fd
        for t in ts:
            if room[t]:
                a = min(need, room[t])
                room[t] -= a
                into[t][s] = a
                need -= a
                if not need:
                    break
        while need:
            # Breadth-first over the residual graph: forward along any
            # related pair, backward along a pair that carries flow.
            via = {}  # right state -> the left state it was reached from
            back = {s: None}  # left state -> the right state it was reached from
            queue = [s]
            end = None
            for u in queue:
                for t in adj[u]:
                    if t not in via:
                        via[t] = u
                        if room[t]:
                            end = t
                            break
                        for v in into[t]:
                            if v not in back:
                                back[v] = t
                                queue.append(v)
                if end is not None:
                    break
            if end is None:
                return queue
            a = min(need, room[end])
            t = end
            while via[t] != s:
                u = via[t]
                t = back[u]
                a = min(a, into[t][u])
            room[end] -= a
            need -= a
            t = end
            while True:
                u = via[t]
                into[t][u] = into[t].get(u, 0) + a
                if u == s:
                    break
                t = back[u]
                if into[t][u] == a:
                    del into[t][u]
                else:
                    into[t][u] -= a
    return None


def lift_check(d: Distribution, th: Distribution, r: Relation) -> Optional[WeightWitness]:
    """Decide whether ``d`` is lift-related to ``th`` under ``r``.

    A lifting exists exactly when the transport network from ``d`` to ``th``
    over related pairs saturates. ``_hall_cut`` decides that on integers;
    its cut ``X`` is checked here, ``d(X) > th(N(X))`` over ``N(X)`` read
    from ``r``, and refutes the lifting without an LP. Otherwise the
    witness is the vertex of an exact transportation feasibility problem:
    one variable per related support pair, row sums pinned to ``d``, column
    sums to ``th``. A cut that does not refute, or an infeasible LP after a
    saturating flow, raises ``ValueError``: the two deciders disagree.
    """
    adj = {s: [t for t in r.image(s) if t in th.nums] for s in sorted(d.support())}
    cut = _hall_cut(d, th, adj)
    if cut is not None:
        near = {t for s in cut for t in adj[s]}
        left = sum(d.nums[s] for s in cut)
        right = sum(th.nums[t] for t in near)
        if left * th.den <= right * d.den:
            raise ValueError(
                f"cut {sorted(cut)} does not refute the lifting: its mass "
                f"{Fraction(left, d.den)} is not above {Fraction(right, th.den)}"
            )
        return None
    supp_t = sorted(th.support())
    pairs = [(s, t) for s, ts in adj.items() for t in ts]
    lp = LinearProblem()
    lp.cols(len(pairs))  # column j is pairs[j]
    # Each row reads ``sum of its weights == mass``, over the side's ``den``.
    rows = {s: {} for s in adj}
    cols = {t: {} for t in supp_t}
    for j, (s, t) in enumerate(pairs):
        rows[s][j] = d.den
        cols[t][j] = th.den
    for s in adj:
        lp.add(rows[s], d.nums[s], d.den)
    for t in supp_t:
        lp.add(cols[t], th.nums[t], th.den)
    point = lp_feasible(lp)
    if point is None:
        raise ValueError("the flow saturates but the lifting LP is infeasible")
    weights = {pair: w for pair, w in zip(pairs, point) if w > 0}
    witness = WeightWitness(weights)
    witness.validate(d, th, r)
    return witness


def lifts(d: Distribution, th: Distribution, r: Relation) -> bool:
    """Whether ``d`` is lift-related to ``th`` under ``r``: the integer
    max-flow of ``lift_check``, without its witness LP. Onto a point, the
    flow saturates iff every left state is related to it."""
    if len(th.nums) == 1:
        (v,) = th.nums
        return all((u, v) in r for u in d.nums)
    adj = {u: [v for v in r.image(u) if v in th.nums] for u in sorted(d.nums)}
    return _hall_cut(d, th, adj) is None


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
