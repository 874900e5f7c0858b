"""Game-structure data model, the `.pgs` text format, and validation."""

from __future__ import annotations

from fractions import Fraction

from .prob import Distribution, SuccessorTable, format_rational, parse_rational


class ModelError(Exception):
    """Syntax or semantic error in a `.pgs` source or structure."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GameStructure:
    """Two-player probabilistic game structure with a total transition table.

    Immutable after construction; all iteration orders follow declaration
    order so that every downstream computation is reproducible. The derived
    facts ``index`` (state -> declaration position), ``right``, ``blind``
    and the tables of ``successors`` are computed once; equality ignores
    them. ``right[t]`` is the right-hand side of a step condition at ``t``:
    one row per player-2 action with the successor of each player-1 action,
    and the sorted states the rows reach.
    """

    def __init__(self, name, states, init, props, labels, acts1, acts2, table):
        self.name = name
        self.states = list(states)
        self.init = init
        self.props = list(props)
        self.labels = {s: frozenset(labels.get(s, ())) for s in self.states}
        self.acts1 = list(acts1)
        self.acts2 = list(acts2)
        self.table = dict(table)
        violations = validate_model(self)
        if violations:
            raise ModelError("; ".join(violations))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.right = {}
        # state -> whether player 1, and whether player 2, is blind there:
        # every action of that player gives the same successor against each
        # action of the other, so all its choices give the same table entries.
        self.blind = {}
        for s in self.states:
            rows = tuple(tuple(self.table[s, a, b] for a in self.acts1) for b in self.acts2)
            self.right[s] = rows, sorted(set().union(*[d.nums for row in rows for d in row]))
            self.blind[s] = (all(row.count(row[0]) == len(row) for row in rows),
                             all(row == rows[0] for row in rows))
        self._tables = {}

    def successors(self, k: int) -> SuccessorTable:
        """The grid-``k`` ``SuccessorTable``, built on first request and kept
        for the model's life; ``k < 1`` raises ``ValueError``."""
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = SuccessorTable(self, k)
        return table

    def check_state(self, s) -> None:
        """Raise ``ModelError`` unless ``s`` is a state of the model."""
        if s not in self.labels:
            raise ModelError(f"unknown state {s!r}")

    def step(self, s, a1, a2) -> Distribution:
        """Transition table lookup; total for declared identifiers."""
        self.check_state(s)
        if a1 not in self.acts1:
            raise ModelError(f"unknown player-1 action {a1!r}")
        if a2 not in self.acts2:
            raise ModelError(f"unknown player-2 action {a2!r}")
        return self.table[(s, a1, a2)]

    def is_absorbing(self, s) -> bool:
        point = Distribution.point(s)
        return all(
            self.table.get((s, a1, a2)) == point
            for a1 in self.acts1
            for a2 in self.acts2
        )

    def is_deterministic(self) -> bool:
        return all(d.is_point() for d in self.table.values())

    def __eq__(self, other):
        return isinstance(other, GameStructure) and (
            self.name,
            self.states,
            self.init,
            self.props,
            self.labels,
            self.acts1,
            self.acts2,
            self.table,
        ) == (
            other.name,
            other.states,
            other.init,
            other.props,
            other.labels,
            other.acts1,
            other.acts2,
            other.table,
        )


def validate_model(g) -> list:
    """Return a list of invariant violations; empty iff the model is valid."""
    out = []
    if not g.states:
        out.append("no states declared")
    if len(set(g.states)) != len(g.states):
        out.append("duplicate state declaration")
    if not g.acts1 or not g.acts2:
        out.append("empty action set")
    if len(set(g.acts1)) != len(g.acts1) or len(set(g.acts2)) != len(g.acts2):
        out.append("duplicate action declaration")
    if g.init not in g.states:
        out.append(f"init state {g.init!r} not declared")
    for s, props in g.labels.items():
        for p in props:
            if p not in g.props:
                out.append(f"label {p!r} at state {s!r} not in props")
    for s in g.states:
        for a1 in g.acts1:
            for a2 in g.acts2:
                d = g.table.get((s, a1, a2))
                if d is None:
                    out.append(f"transition table not total at ({s},{a1},{a2})")
                    continue
                for t in d.support():
                    if t not in g.states:
                        out.append(f"row ({s},{a1},{a2}) targets unknown state {t!r}")
    for key in g.table:
        s, a1, a2 = key
        if s not in g.states or a1 not in g.acts1 or a2 not in g.acts2:
            out.append(f"table row {key} uses undeclared identifiers")
    return out


def _idents(text, lineno):
    names = text.split()
    for n in names:
        if not all(c.isalnum() or c in "_*" for c in n):
            raise ModelError(f"bad identifier {n!r}", lineno)
    return names


def _ident(text, lineno, what):
    names = _idents(text, lineno)
    if len(names) != 1:
        raise ModelError(f"expected one {what}, got {len(names)}", lineno)
    return names[0]


def _actions(text, lineno, player):
    names = _idents(text, lineno)
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate player-{player} action declaration", lineno)
    return names


def parse_model(text: str) -> GameStructure:
    """Parse `.pgs` source into a validated GameStructure.

    Row sums and table totality are enforced exactly; `absorb s` expands to
    a point self-loop for every joint action at `s`.
    """
    name = None
    states = None
    init = None
    props = []
    labels = {}
    acts1 = None
    acts2 = None
    rows = {}
    absorbed = {}  # state -> line of its `absorb`

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "model":
            if name is not None:
                raise ModelError("duplicate model line", lineno)
            name = _ident(rest, lineno, "model name")
        elif word == "states:":
            if "init:" not in rest:
                raise ModelError("states line must carry 'init:'", lineno)
            left, _, right = rest.partition("init:")
            states = _idents(left, lineno)
            inits = _idents(right, lineno)
            if len(inits) != 1:
                raise ModelError("exactly one init state expected", lineno)
            init = inits[0]
            if len(set(states)) != len(states):
                raise ModelError("duplicate state declaration", lineno)
        elif word == "props:":
            props = _idents(rest, lineno)
            if len(set(props)) != len(props):
                raise ModelError("duplicate proposition declaration", lineno)
        elif word == "label":
            if ":" not in rest:
                raise ModelError("label line needs '<state>: <prop>*'", lineno)
            st, _, ps = rest.partition(":")
            st = st.strip()
            if states is None or st not in states:
                raise ModelError(f"unknown state {st!r} in label", lineno)
            if st in labels:
                raise ModelError(f"duplicate label line for {st!r}", lineno)
            given = _idents(ps, lineno)
            for p in given:
                if p not in props:
                    raise ModelError(f"unknown proposition {p!r}", lineno)
            labels[st] = given
        elif word == "actions1:":
            acts1 = _actions(rest, lineno, 1)
        elif word == "actions2:":
            acts2 = _actions(rest, lineno, 2)
        elif word == "trans":
            if states is None or acts1 is None or acts2 is None:
                raise ModelError("trans before states/actions declarations", lineno)
            head, _, body = rest.partition(":")
            head = head.strip()
            if "(" not in head or not head.endswith(")"):
                raise ModelError("trans line needs '<state> (<a1>,<a2>):'", lineno)
            st, _, acts = head.partition("(")
            st = st.strip()
            acts = acts[:-1]
            if "," not in acts:
                raise ModelError("joint action needs '<a1>,<a2>'", lineno)
            a1, _, a2 = acts.partition(",")
            a1, a2 = a1.strip(), a2.strip()
            if st not in states:
                raise ModelError(f"unknown state {st!r}", lineno)
            if a1 not in acts1:
                raise ModelError(f"unknown player-1 action {a1!r}", lineno)
            if a2 not in acts2:
                raise ModelError(f"unknown player-2 action {a2!r}", lineno)
            if (st, a1, a2) in rows:
                raise ModelError(f"duplicate row ({st},{a1},{a2})", lineno)
            entries = {}
            for item in body.split():
                if "=" not in item:
                    raise ModelError(f"bad entry {item!r}, expected state=rat", lineno)
                tgt, _, rat = item.partition("=")
                if tgt not in states:
                    raise ModelError(f"unknown target state {tgt!r}", lineno)
                if tgt in entries:
                    raise ModelError(f"duplicate target {tgt!r} in row", lineno)
                try:
                    entries[tgt] = parse_rational(rat)
                except ValueError as e:
                    raise ModelError(str(e), lineno) from None
            total = sum(entries.values(), Fraction(0))
            if total != 1:
                raise ModelError(
                    f"row ({st},{a1},{a2}) sums to {format_rational(total)}", lineno
                )
            try:
                rows[(st, a1, a2)] = Distribution(entries)
            except ValueError as e:  # a negative entry in a row that sums to 1
                raise ModelError(str(e), lineno) from None
        elif word == "absorb":
            if states is None or acts1 is None or acts2 is None:
                raise ModelError("absorb before states/actions declarations", lineno)
            st = _ident(rest, lineno, "state name")
            if st not in states:
                raise ModelError(f"unknown state {st!r}", lineno)
            if st in absorbed:
                raise ModelError(f"duplicate absorb line for {st!r}", lineno)
            absorbed[st] = lineno
        else:
            raise ModelError(f"unknown directive {word!r}", lineno)

    if name is None:
        raise ModelError("missing model line")
    if states is None:
        raise ModelError("missing states line")
    if acts1 is None or acts2 is None:
        raise ModelError("missing actions declarations")

    for st, lineno in absorbed.items():
        point = Distribution.point(st)
        for a1 in acts1:
            for a2 in acts2:
                if (st, a1, a2) in rows:
                    raise ModelError(
                        f"absorb {st} conflicts with explicit row ({st},{a1},{a2})",
                        lineno,
                    )
                rows[(st, a1, a2)] = point

    for s in states:
        for a1 in acts1:
            for a2 in acts2:
                if (s, a1, a2) not in rows:
                    raise ModelError(f"transition table not total at ({s},{a1},{a2})")

    return GameStructure(name, states, init, props, labels, acts1, acts2, rows)


def serialize_model(g: GameStructure) -> str:
    """Canonical `.pgs` text; reparsing yields a structurally equal model."""
    out = [f"model {g.name}"]
    out.append("states: " + " ".join(g.states) + f"    init: {g.init}")
    out.append("props: " + " ".join(g.props) if g.props else "props:")
    for s in g.states:
        if g.labels[s]:
            ordered = [p for p in g.props if p in g.labels[s]]
            out.append(f"label {s}: " + " ".join(ordered))
    out.append("actions1: " + " ".join(g.acts1))
    out.append("actions2: " + " ".join(g.acts2))
    for s in g.states:
        if g.is_absorbing(s):
            out.append(f"absorb {s}")
            continue
        for a1 in g.acts1:
            for a2 in g.acts2:
                d = g.table[(s, a1, a2)]
                body = " ".join(
                    f"{t}={format_rational(d[t])}" for t in g.states if d[t] > 0
                )
                out.append(f"trans {s} ({a1},{a2}): {body}")
    return "\n".join(out) + "\n"
