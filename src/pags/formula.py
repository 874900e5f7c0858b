"""Formula AST, text grammar, fixpoint unfolding, and the convex fragment.

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
from dataclasses import dataclass
from fractions import Fraction

from .prob import format_rational, parse_rational


class FormulaError(Exception):
    pass


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class NegProp:
    name: str


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Enforce:
    body: object


@dataclass(frozen=True)
class ProbSum:
    parts: tuple  # of (Fraction, formula)


@dataclass(frozen=True)
class Mix:
    items: tuple


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Mu:
    var: str
    body: object


@dataclass(frozen=True)
class Nu:
    var: str
    body: object


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
        if any(w <= 0 for w, _ in parts):
            raise FormulaError("sum weights must be positive")
        if sum(w for w, _ in parts) != 1:
            raise FormulaError("sum weights must total exactly 1")
        return ProbSum(tuple(parts))

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
            return ProbSum(((Fraction(1), phi),))
        return ProbSum(((alpha, phi), (1 - alpha, TRUE)))


def free_vars(phi, bound=frozenset()):
    if isinstance(phi, Var):
        return set() if phi.name in bound else {phi.name}
    if isinstance(phi, (Prop, NegProp)):
        return set()
    if isinstance(phi, (And, Or, Mix)):
        out = set()
        for item in phi.items:
            out |= free_vars(item, bound)
        return out
    if isinstance(phi, ProbSum):
        out = set()
        for _, item in phi.parts:
            out |= free_vars(item, bound)
        return out
    if isinstance(phi, Enforce):
        return free_vars(phi.body, bound)
    if isinstance(phi, (Mu, Nu)):
        return free_vars(phi.body, bound | {phi.var})
    raise TypeError(f"not a formula node: {phi!r}")


def parse_formula(text: str):
    """Parse a closed formula; unbound variables are rejected."""
    try:
        phi = _Parser(_tokenize(text)).parse()
        free = free_vars(phi)
    except RecursionError:
        raise FormulaError("formula is nested too deeply") from None
    if free:
        raise FormulaError(f"unbound variable(s): {', '.join(sorted(free))}")
    return phi


def substitute(phi, var: str, replacement):
    """Capture-avoiding substitution of a closed replacement for ``var``."""
    if isinstance(phi, Var):
        return replacement if phi.name == var else phi
    if isinstance(phi, (Prop, NegProp)):
        return phi
    if isinstance(phi, And):
        return And(tuple(substitute(i, var, replacement) for i in phi.items))
    if isinstance(phi, Or):
        return Or(tuple(substitute(i, var, replacement) for i in phi.items))
    if isinstance(phi, Mix):
        return Mix(tuple(substitute(i, var, replacement) for i in phi.items))
    if isinstance(phi, ProbSum):
        return ProbSum(tuple((w, substitute(i, var, replacement)) for w, i in phi.parts))
    if isinstance(phi, Enforce):
        return Enforce(substitute(phi.body, var, replacement))
    if isinstance(phi, (Mu, Nu)):
        if phi.var == var:
            return phi
        return type(phi)(phi.var, substitute(phi.body, var, replacement))
    raise TypeError(f"not a formula node: {phi!r}")


def unfold_fixpoint(phi, m: int):
    """m-fold approximant of a fixpoint formula: mu bottoms out at false,
    nu at true."""
    if not isinstance(phi, (Mu, Nu)):
        raise FormulaError("unfold_fixpoint expects a mu or nu formula")
    if m < 0:
        raise ValueError("unfold bound must be nonnegative")
    if m == 0:
        return FALSE if isinstance(phi, Mu) else TRUE
    return substitute(phi.body, phi.var, unfold_fixpoint(phi, m - 1))


def convex_safe(phi) -> bool:
    """Syntactic certificate that the denotation is convex: literals,
    conjunction and both summation forms only."""
    if isinstance(phi, (Prop, NegProp)):
        return True
    if isinstance(phi, And):
        return all(convex_safe(i) for i in phi.items)
    if isinstance(phi, Mix):
        return all(convex_safe(i) for i in phi.items)
    if isinstance(phi, ProbSum):
        return all(convex_safe(i) for _, i in phi.parts)
    return False


def is_flat(phi) -> bool:
    """True iff ``phi`` has no strategy modality, variables or fixpoints.

    The flat fragment admits an exact LP-based decision procedure.
    """
    if isinstance(phi, (Prop, NegProp)):
        return True
    if isinstance(phi, (And, Or, Mix)):
        return all(is_flat(i) for i in phi.items)
    if isinstance(phi, ProbSum):
        return all(is_flat(i) for _, i in phi.parts)
    return False


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


def format_formula(phi) -> str:
    """Canonical text form; reparsing yields an equal AST."""
    return _fmt(phi, 0)
