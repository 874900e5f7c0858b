"""Interned formula nodes, text grammar, fixpoint unfolding, and the flat and
convex fragments.

Grammar (``|`` binds looser than ``&``; ``<1>``, ``mu``, ``nu`` are prefix):

    phi ::= ident | "!" ident | "true" | "false" | "(" phi ")"
          | phi "&" phi | phi "|" phi | "<1>" phi
          | "sum{" rat ":" phi ("," rat ":" phi)* "}"
          | "mix{" phi ("," phi)* "}"
          | "frag{" rat ":" phi "}"
          | var | "mu" var "." phi | "nu" var "." phi

Variables are single uppercase letters; negation is propositional only.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from functools import wraps
from math import lcm

from .prob import format_rational, parse_rational


class FormulaError(ValueError):
    pass


def nesting_guard(func):
    """``func`` refusing a formula nested too deeply to recurse through:
    its ``RecursionError`` is raised as ``FormulaError``."""

    @wraps(func)
    def guarded(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except RecursionError:
            raise FormulaError("formula is nested too deeply") from None

    return guarded


class Formula:
    """An interned formula node: building a node equal to a live one returns
    that node (held in a weak table), so ``==`` is identity and hashing is
    O(1). When first built, a node derives from its children ``children``,
    ``flat`` (no ``<1>``, variable or fixpoint: the fragment with an exact LP
    decision), ``convex`` (literals, conjunction, both summations and
    ``<1>`` only: a syntactic certificate that the denotation is convex;
    ``<1>`` keeps it, since mixing the winning lotteries of two
    distributions, weighted by their mass at each state, wins for their
    mix) and ``free`` (its free variable names); no field is set again."""

    __slots__ = ("children", "flat", "convex", "free", "__weakref__")
    _table = weakref.WeakValueDictionary()
    _fields = ()
    _flat = _convex = True  # whether the connective keeps the property

    def __new__(cls, *fields):
        fields = cls._normalize(*fields)
        key = (cls, *fields)
        node = Formula._table.get(key)
        if node is None:
            node = object.__new__(cls)
            init = object.__setattr__  # the class itself refuses assignment
            for name, value in zip(cls._fields, fields, strict=True):
                init(node, name, value)
            children = node._children()
            init(node, "children", children)
            init(node, "flat", cls._flat and all(c.flat for c in children))
            init(node, "convex", cls._convex and all(c.convex for c in children))
            init(node, "free", node._free(children))
            Formula._table[key] = node
        return node

    @staticmethod
    def _normalize(*fields):
        return fields

    def _children(self):
        return ()

    def _free(self, children):
        return frozenset().union(*(c.free for c in children))

    def __setattr__(self, name, value):
        raise AttributeError(f"formula nodes are immutable: cannot set {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class Prop(Formula):
    __slots__ = _fields = ("name",)


class NegProp(Formula):
    __slots__ = _fields = ("name",)


class Var(Formula):
    __slots__ = _fields = ("name",)
    _flat = _convex = False

    def _free(self, children):
        return frozenset((self.name,))


class _Items(Formula):
    __slots__ = _fields = ("items",)

    @staticmethod
    def _normalize(items):
        return (tuple(items),)

    def _children(self):
        return self.items


class And(_Items):
    __slots__ = ()


class Or(_Items):
    __slots__ = ()
    _convex = False


class Mix(_Items):
    __slots__ = ()


class ProbSum(Formula):
    """``sum{w1: phi1, ...}``: its weights must be positive and total 1."""

    __slots__ = _fields = ("parts",)  # of (Fraction, formula)

    @staticmethod
    def _normalize(parts):
        parts = tuple((w if type(w) is Fraction else Fraction(w), item) for w, item in parts)
        if any(w.numerator <= 0 for w, _ in parts):
            raise FormulaError("sum weights must be positive")
        # The total, as integers over the lcm of the denominators.
        den = 1
        for w, _ in parts:
            if den % w.denominator:
                den = lcm(den, w.denominator)
        if sum(w.numerator * (den // w.denominator) for w, _ in parts) != den:
            raise FormulaError("sum weights must total exactly 1")
        return (parts,)

    def _children(self):
        return tuple(item for _, item in self.parts)


class Enforce(Formula):
    __slots__ = _fields = ("body",)
    _flat = False

    def _children(self):
        return (self.body,)


class _Fixpoint(Formula):
    __slots__ = _fields = ("var", "body")
    _flat = _convex = False
    _children = Enforce._children

    def _free(self, children):
        return self.body.free - {self.var}


class Mu(_Fixpoint):
    __slots__ = ()


class Nu(_Fixpoint):
    __slots__ = ()


TRUE = And(())
FALSE = Or(())

_TOKEN = re.compile(
    r"\s*(?:(?P<enf><1>)|(?P<rat>\d+(?:/\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[!&|(){},:.]))"
)

_KEYWORDS = {"true", "false", "mu", "nu", "sum", "mix", "frag"}


def _tokenize(text: str):
    # Line comments are allowed so formula files can be annotated.
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaError(f"unexpected character {rest[0]!r} at offset {pos}")
        pos = m.end()
        for kind in ("enf", "rat", "ident", "punct"):
            val = m.group(kind)
            if val is not None:
                out.append((kind, val))
                break
    out.append(("end", ""))
    return out


def _is_var(name: str) -> bool:
    return len(name) == 1 and name.isupper()


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        k, v = self.tokens[self.pos]
        if (kind and k != kind) or (value is not None and v != value):
            raise FormulaError(f"expected {value or kind}, got {v!r}")
        self.pos += 1
        return v

    def parse(self):
        phi = self.or_expr()
        if self.peek()[0] != "end":
            raise FormulaError(f"trailing input at {self.peek()[1]!r}")
        return phi

    def or_expr(self):
        items = [self.and_expr()]
        while self.peek() == ("punct", "|"):
            self.take()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self):
        items = [self.prefix()]
        while self.peek() == ("punct", "&"):
            self.take()
            items.append(self.prefix())
        return items[0] if len(items) == 1 else And(tuple(items))

    def prefix(self):
        kind, val = self.peek()
        if kind == "enf":
            self.take()
            return Enforce(self.prefix())
        if kind == "ident" and val in ("mu", "nu"):
            self.take()
            var = self.take("ident")
            if not _is_var(var):
                raise FormulaError(f"fixpoint variable must be a single uppercase letter, got {var!r}")
            self.take("punct", ".")
            body = self.or_expr()
            return Mu(var, body) if val == "mu" else Nu(var, body)
        return self.atom()

    def atom(self):
        kind, val = self.peek()
        if kind == "punct" and val == "(":
            self.take()
            phi = self.or_expr()
            self.take("punct", ")")
            return phi
        if kind == "punct" and val == "!":
            self.take()
            name = self.take("ident")
            if name in _KEYWORDS or _is_var(name):
                raise FormulaError("negation is only allowed on atomic propositions")
            return NegProp(name)
        if kind == "ident":
            if val == "true":
                self.take()
                return TRUE
            if val == "false":
                self.take()
                return FALSE
            if val == "sum":
                self.take()
                return self.sum_body()
            if val == "mix":
                self.take()
                return self.mix_body()
            if val == "frag":
                self.take()
                return self.frag_body()
            self.take()
            if _is_var(val):
                return Var(val)
            return Prop(val)
        raise FormulaError(f"unexpected token {val!r}")

    def sum_body(self):
        self.take("punct", "{")
        parts = []
        while True:
            w = parse_rational(self.take("rat"))
            self.take("punct", ":")
            parts.append((w, self.or_expr()))
            if self.peek() == ("punct", ","):
                self.take()
                continue
            break
        self.take("punct", "}")
        return ProbSum(parts)

    def mix_body(self):
        self.take("punct", "{")
        items = [self.or_expr()]
        while self.peek() == ("punct", ","):
            self.take()
            items.append(self.or_expr())
        self.take("punct", "}")
        return Mix(tuple(items))

    def frag_body(self):
        self.take("punct", "{")
        alpha = parse_rational(self.take("rat"))
        self.take("punct", ":")
        phi = self.or_expr()
        self.take("punct", "}")
        if not 0 < alpha <= 1:
            raise FormulaError("frag weight must satisfy 0 < a <= 1")
        if alpha == 1:
            return ProbSum(((1, phi),))
        return ProbSum(((alpha, phi), (1 - alpha, TRUE)))


@nesting_guard
def parse_formula(text: str):
    """Parse a closed formula; unbound variables are rejected."""
    phi = _Parser(_tokenize(text)).parse()
    if phi.free:
        raise FormulaError(f"unbound variable(s): {', '.join(sorted(phi.free))}")
    return phi


@nesting_guard
def substitute(phi, var: str, replacement):
    """Capture-avoiding substitution of a closed replacement for ``var``;
    subformulas without ``var`` free are kept, not rebuilt. A ``phi`` nested
    too deeply to recurse through raises ``FormulaError``."""
    return _substitute(phi, var, replacement)


def _substitute(phi, var, replacement):
    if var not in phi.free:
        return phi
    if isinstance(phi, Var):
        return replacement
    if isinstance(phi, ProbSum):
        return ProbSum(tuple((w, _substitute(i, var, replacement)) for w, i in phi.parts))
    if isinstance(phi, Enforce):
        return Enforce(_substitute(phi.body, var, replacement))
    if isinstance(phi, (Mu, Nu)):
        return type(phi)(phi.var, _substitute(phi.body, var, replacement))
    return type(phi)(tuple(_substitute(i, var, replacement) for i in phi.items))


def unfold_fixpoint(phi, m: int):
    """m-fold approximant of a fixpoint formula: mu bottoms out at false,
    nu at true."""
    if not isinstance(phi, (Mu, Nu)):
        raise FormulaError("unfold_fixpoint expects a mu or nu formula")
    if m < 0:
        raise ValueError("unfold bound must be nonnegative")
    approx = FALSE if isinstance(phi, Mu) else TRUE
    for _ in range(m):
        approx = substitute(phi.body, phi.var, approx)
    return approx


def convex_safe(phi) -> bool:
    """Syntactic certificate that the denotation is convex (``phi.convex``)."""
    return phi.convex


def is_flat(phi) -> bool:
    """No strategy modality, variables or fixpoints (``phi.flat``)."""
    return phi.flat


def _needs_parens(child, parent_level: int) -> bool:
    level = 3
    if isinstance(child, Or):
        level = 1 if child.items else 3
    elif isinstance(child, And):
        level = 2 if child.items else 3
    return level < parent_level


def _fmt(phi, level: int) -> str:
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, NegProp):
        return "!" + phi.name
    if isinstance(phi, Var):
        return phi.name
    if isinstance(phi, And):
        if not phi.items:
            return "true"
        text = " & ".join(
            "(" + _fmt(i, 1) + ")" if _needs_parens(i, 2) else _fmt(i, 2)
            for i in phi.items
        )
        return "(" + text + ")" if level > 2 else text
    if isinstance(phi, Or):
        if not phi.items:
            return "false"
        text = " | ".join("(" + _fmt(i, 1) + ")" if _needs_parens(i, 1) else _fmt(i, 1)
                          for i in phi.items)
        return "(" + text + ")" if level > 1 else text
    if isinstance(phi, Enforce):
        body = _fmt(phi.body, 3)
        if _needs_parens(phi.body, 3):
            body = "(" + body + ")"
        return "<1> " + body
    if isinstance(phi, ProbSum):
        inner = ", ".join(f"{format_rational(w)}: {_fmt(i, 1)}" for w, i in phi.parts)
        return "sum{" + inner + "}"
    if isinstance(phi, Mix):
        inner = ", ".join(_fmt(i, 1) for i in phi.items)
        return "mix{" + inner + "}"
    if isinstance(phi, (Mu, Nu)):
        kw = "mu" if isinstance(phi, Mu) else "nu"
        text = f"{kw} {phi.var}. {_fmt(phi.body, 1)}"
        # A fixpoint body extends to the end of the input, so anywhere but
        # the root it must be parenthesized.
        return "(" + text + ")" if level > 0 else text
    raise TypeError(f"not a formula node: {phi!r}")


# Nodes the text of ``format_formula`` may hold. The text repeats shared
# subformulas, so a characteristic formula's grows by a factor per level
# (about 18 on rps at grid 2): rps `s0` at depth 5 holds 22,402,583 nodes
# (131 MB), and at depth 6 would need gigabytes.
FORMAT_BUDGET = 50_000_000


def _tree_size(phi, sizes: dict) -> int:
    """The node count of the tree ``phi`` expands to, memoized in ``sizes``."""
    if phi not in sizes:
        sizes[phi] = 1
        for child in phi.children:
            sizes[phi] += _tree_size(child, sizes)
    return sizes[phi]


@nesting_guard
def format_formula(phi) -> str:
    """Canonical text form; reparsing yields an equal AST. A formula nested
    too deeply to recurse through, or whose text would hold more than
    ``FORMAT_BUDGET`` nodes, raises ``FormulaError``."""
    size = _tree_size(phi, {})
    if size > FORMAT_BUDGET:
        raise FormulaError(f"formula text would hold {size} nodes, over the budget of {FORMAT_BUDGET}")
    return _fmt(phi, 0)
