"""Combinatorial diagrams of links, spatial graphs and handlebody-links.

An arc runs from its producer to its consumer.  Producers are a crossing's
under_out slot or a vertex out-end; consumers are an under_in slot or a
vertex in-end.  An arc with neither is a free loop (it may still pass over
crossings).  Vertex ends are stored in cyclic order.

``Crossing`` and ``Vertex`` are plain records.  A ``Diagram`` checks
itself once when it is built, signs, valences and end directions
included, so every function that takes one trusts it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .tables import AxiomReport, ParseError, ReportBuilder

IN, OUT = "in", "out"
CROSSING_FIELDS = frozenset(("over", "under_in", "under_out", "sign"))


class Crossing(NamedTuple):
    over: int
    under_in: int
    under_out: int
    sign: int  # +1 or -1


# a Crossing from a 4-tuple, without the call of its Python-level __new__
_crossing = partial(tuple.__new__, Crossing)
_RECORD = re.compile(r"crossing over=([0-9]+) under_in=([0-9]+) under_out=([0-9]+) sign=([+-])")


class Vertex(NamedTuple):
    ends: tuple[tuple[int, str], ...]  # (arc, "in"|"out"), cyclic order

    @property
    def valence(self) -> int:
        return len(self.ends)


@dataclass(frozen=True)
class Diagram:
    arc_count: int
    crossings: tuple[Crossing, ...]
    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "crossings", tuple(self.crossings))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        report = validate_diagram(self)
        if not report.valid:
            raise ValueError(f"invalid diagram: {report.violations[:4]}")


@dataclass(frozen=True)
class Edge:
    """A maximal arc chain through undercrossings.  Endpoints are
    (vertex index, end position) pairs; a closed loop has none."""

    arcs: tuple[int, ...]
    endpoints: tuple[tuple[int, int], ...]


def validate_diagram(d: Diagram) -> AxiomReport:
    """The constructor's check of a ``Diagram``: a non-negative arc count,
    index ranges, crossing signs of +1 or -1, vertices of valence at least
    3 whose ends are ``in`` or ``out``, and the one-producer/one-consumer
    (or free loop) rule for every arc.  Whole columns decide a valid
    diagram; an invalid one is scanned arc by arc for its witnesses."""
    n = d.arc_count
    over, consumed, produced, signs = [*map(list, zip(*d.crossings))] or [[], [], [], []]
    for v in d.vertices:
        if len(v.ends) < 3:
            return _scan_diagram(d)
        for a, direction in v.ends:
            if direction == IN:
                consumed.append(a)
            elif direction == OUT:
                produced.append(a)
            else:
                return _scan_diagram(d)
    arcs = over + consumed + produced
    heads = {*consumed}
    if (
        # an int only if the count and every index are; if not, the scan decides
        type(sum(arcs, n)) is int
        and n >= 0
        and {*signs} <= {1, -1}
        and (not arcs or 0 <= min(arcs) and max(arcs) < n)
        # each arc consumed once, produced once, and consumed iff produced
        and len(heads) == len(consumed) == len(produced)
        and heads == {*produced}
    ):
        return AxiomReport(valid=True, violations=())
    return _scan_diagram(d)


def _scan_diagram(d: Diagram) -> AxiomReport:
    """``validate_diagram``'s report, arc by arc."""
    rb = ReportBuilder()
    n = d.arc_count
    if n < 0:
        rb.hit("arc-count", (n,))
    producers = [0] * n
    consumers = [0] * n

    def check_range(a: int, site: int) -> bool:
        if not 0 <= a < n:
            rb.hit("arc-range", (a, site))
            return False
        return True

    for ci, (over, under_in, under_out, sign) in enumerate(d.crossings):
        for a in (over, under_in, under_out):
            check_range(a, ci)
        if sign not in (1, -1):
            rb.hit("crossing-sign", (ci, sign))
        if 0 <= under_in < n:
            consumers[under_in] += 1
        if 0 <= under_out < n:
            producers[under_out] += 1
    for vi, v in enumerate(d.vertices):
        if len(v.ends) < 3:
            rb.hit("vertex-valence", (vi, len(v.ends)))
        for a, direction in v.ends:
            if direction not in (IN, OUT):
                rb.hit("vertex-direction", (vi, a))
            elif check_range(a, vi):
                (consumers if direction == IN else producers)[a] += 1
    for a in range(n):
        if producers[a] > 1 or (producers[a] == 1 and consumers[a] == 0):
            rb.hit("arc-producers", (a,))
        if consumers[a] > 1 or (consumers[a] == 1 and producers[a] == 0):
            rb.hit("arc-consumers", (a,))
    return rb.report()


# ---------------------------------------------------------------------------
# text format


def parse_diagram(text: str) -> Diagram:
    arc_count = None
    crossings: list[Crossing] = []
    vertices: list[Vertex] = []
    loops: list[tuple[int, int, int]] = []  # (arc, line, column)

    def arc_of(tok: str, field: str, lineno: int, line: str) -> int:
        try:
            a = int(tok)
        except ValueError:
            raise ParseError(f"bad arc index {tok!r} for {field}", lineno, line.find(tok) + 1)
        if not 0 <= a < arc_count:
            raise ParseError(f"arc index {a} out of range", lineno, line.find(tok) + 1)
        return a

    record = _RECORD.fullmatch
    for lineno, line in enumerate(text.splitlines(), start=1):
        # a record as serialize_diagram writes it, in range, is read at once
        m = record(line) if arc_count is not None else None
        if m is not None:
            over, under_in, under_out = m.group(1, 2, 3)
            over, under_in, under_out = int(over), int(under_in), int(under_out)
            if over < arc_count and under_in < arc_count and under_out < arc_count:
                crossings.append(_crossing((over, under_in, under_out, 1 if m[4] == "+" else -1)))
                continue
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        kind = toks[0]
        if arc_count is None:
            if kind != "arcs" or len(toks) != 2:
                raise ParseError("expected header 'arcs <N>'", lineno, 1)
            header = lineno
            try:
                arc_count = int(toks[1])
            except ValueError:
                raise ParseError(f"bad arc count {toks[1]!r}", lineno, line.find(toks[1]) + 1)
            if arc_count < 0:
                raise ParseError("arc count must be non-negative", lineno)
            continue
        if kind == "crossing":
            fields = {}
            for i, tok in enumerate(toks[1:], 1):
                key, eq, val = tok.partition("=")
                if not eq:
                    error = f"bad crossing field {tok!r}"
                elif key not in CROSSING_FIELDS:
                    error = f"unknown crossing field {key!r}"
                elif key in fields:
                    error = f"repeated crossing field {key!r}"
                else:
                    fields[key] = val
                    continue
                starts = [t.start() for t in re.finditer(r"\S+", line)]  # toks[i], not an equal one
                raise ParseError(error, lineno, starts[i] + 1)
            if len(fields) < len(CROSSING_FIELDS):  # each field is known and given once
                missing = sorted(CROSSING_FIELDS - fields.keys())
                raise ParseError(f"crossing missing fields {missing}", lineno, 1)
            if fields["sign"] not in ("+", "-"):
                raise ParseError(
                    f"bad sign {fields['sign']!r}", lineno, line.find("sign=") + 6
                )
            crossings.append(
                Crossing(
                    over=arc_of(fields["over"], "over", lineno, line),
                    under_in=arc_of(fields["under_in"], "under_in", lineno, line),
                    under_out=arc_of(fields["under_out"], "under_out", lineno, line),
                    sign=1 if fields["sign"] == "+" else -1,
                )
            )
        elif kind == "vertex":
            if len(toks) != 2 or not toks[1].startswith("ends="):
                raise ParseError("expected 'vertex ends=<a>:<in|out>,...'", lineno, 1)
            ends = []
            for piece in toks[1][5:].split(","):
                if ":" not in piece:
                    raise ParseError(f"bad end {piece!r}", lineno, line.find(piece) + 1)
                a, direction = piece.split(":", 1)
                if direction not in (IN, OUT):
                    raise ParseError(
                        f"bad direction {direction!r}", lineno, line.find(piece) + 1
                    )
                ends.append((arc_of(a, "vertex end", lineno, line), direction))
            if len(ends) < 3:
                raise ParseError("vertex valence must be at least 3", lineno, 1)
            vertices.append(Vertex(tuple(ends)))
        elif kind == "loop":
            # optional annotation for free loops; free-loopness is structural
            if len(toks) != 2:
                raise ParseError("expected 'loop <a>'", lineno, 1)
            loops.append((arc_of(toks[1], "loop", lineno, line), lineno, line.find(toks[1]) + 1))
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno, 1)
    if arc_count is None:
        raise ParseError("empty diagram file", 1)
    if loops:
        ended = {a for c in crossings for a in (c.under_in, c.under_out)}
        ended.update(a for v in vertices for a, _ in v.ends)
        for a, lineno, column in loops:
            if a in ended:
                raise ParseError(f"arc {a} has an end, so it is no free loop", lineno, column)
    try:
        return Diagram(arc_count, tuple(crossings), tuple(vertices))
    except ValueError as exc:
        # every check that a single record can fail is made above; what is
        # left spans records, such as an arc consumed twice
        raise ParseError(str(exc), header) from None


def serialize_diagram(d: Diagram) -> str:
    """Canonical text; loop annotations are omitted (a free loop is an
    arc with neither end)."""
    lines = [f"arcs {d.arc_count}"]
    for c in d.crossings:
        sign = "+" if c.sign > 0 else "-"
        lines.append(
            f"crossing over={c.over} under_in={c.under_in} under_out={c.under_out} sign={sign}"
        )
    for v in d.vertices:
        ends = ",".join(f"{a}:{direction}" for a, direction in v.ends)
        lines.append(f"vertex ends={ends}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# edge structure


def compute_edges(d: Diagram) -> list[Edge]:
    """Partition the arcs into graph edges by chaining through
    undercrossings; deterministic order (vertex-anchored edges first by
    start position, then closed loops by smallest arc)."""
    # arc -> following arc through its consuming crossing
    next_arc = {c.under_in: c.under_out for c in d.crossings}
    ends = [
        (vi, pos, a, direction)
        for vi, v in enumerate(d.vertices)
        for pos, (a, direction) in enumerate(v.ends)
    ]
    # arc -> (vertex, position) of the in-end it runs into
    in_end = {a: (vi, pos) for vi, pos, a, direction in ends if direction == IN}

    edges: list[Edge] = []
    used = set()
    for vi, pos, a, direction in ends:
        if direction == IN or a in used:
            continue
        chain = [a]
        used.add(a)
        cur = a
        while cur not in in_end:
            cur = next_arc[cur]
            if cur in used:  # the chains from distinct out-ends are disjoint
                break
            chain.append(cur)
            used.add(cur)
        edges.append(Edge(tuple(chain), ((vi, pos), in_end.get(chain[-1]))))
    for a in range(d.arc_count):
        if a in used:
            continue
        chain = [a]
        used.add(a)
        cur = next_arc.get(a)
        while cur is not None and cur != a:
            chain.append(cur)
            used.add(cur)
            cur = next_arc.get(cur)
        # rotate so the smallest arc leads, for determinism
        k = chain.index(min(chain))
        chain = chain[k:] + chain[:k]
        edges.append(Edge(tuple(chain), ()))
    edges.sort(key=lambda e: (len(e.endpoints) == 0, e.endpoints if e.endpoints else e.arcs))
    return edges


# ---------------------------------------------------------------------------
# token-level editing


class InapplicableMoveError(ValueError):
    """An edit does not fit the diagram at its site."""


class _Work:
    """Mutable token-level copy of a diagram, the one editor behind moves,
    random diagrams and edge deletion.  It edits a list of ``Crossing``
    records, storing a new record for each change, and lists of vertex
    ends.  Tokens name arcs: the original arcs keep their indices, fresh
    tokens count on from there, and ``finalize`` numbers the survivors.
    Until an edit merges or drops an arc, the tokens are already those
    numbers, so only such an edit makes ``finalize`` renumber."""

    def __init__(self, d: Diagram):
        self.original = d.arc_count
        self.next_token = d.arc_count
        self.crossings = list(d.crossings)
        self.vertices = [list(v.ends) for v in d.vertices]
        self.alive = set(range(d.arc_count))
        self.created: list[int] = []
        self.rename: dict[int, int] = {}

    def fresh(self) -> int:
        t = self.next_token
        self.next_token += 1
        self.alive.add(t)
        self.created.append(t)
        return t

    def find(self, t: int) -> int:
        """The token that t was merged into, or t itself."""
        while t in self.rename:
            t = self.rename[t]
        return t

    def cross(self, over: int, under_in: int, under_out: int, sign: int) -> None:
        self.crossings.append(Crossing(over, under_in, under_out, sign))

    def delete_crossings(self, *indices: int) -> None:
        for ci in sorted(indices, reverse=True):
            del self.crossings[ci]

    def slot(self, a: int, direction: str):
        """Where arc a ends (direction ``IN``) or starts (``OUT``):
        ("c", crossing index), ("v", vertex index, end position) or None."""
        i = 1 if direction == IN else 2  # under_in or under_out
        for ci, c in enumerate(self.crossings):
            if c[i] == a:
                return ("c", ci)
        end = (a, direction)
        for vi, ends in enumerate(self.vertices):
            if end in ends:
                return ("v", vi, ends.index(end))
        return None

    def over_count(self, a: int) -> int:
        return sum(1 for c in self.crossings if c.over == a)

    def split(self, a: int) -> int:
        """Cut arc a before its consumer: a keeps the producer and any
        over-passages, the new token takes the old consumer."""
        slot = self.slot(a, IN)
        if slot is None:
            raise InapplicableMoveError(f"arc {a} is a free loop; cannot split")
        b = self.fresh()
        if slot[0] == "c":
            over, _, under_out, sign = self.crossings[slot[1]]
            self.crossings[slot[1]] = _crossing((over, b, under_out, sign))
        else:
            _, vi, pos = slot
            self.vertices[vi][pos] = (b, IN)
        return b

    def pass_under(self, a: int, first: tuple[int, int], second: tuple[int, int]) -> None:
        """Run arc a under the (over, sign) pairs first and second: a
        ends at the first crossing, a fresh arc joins the two, and the
        arc after the second takes a's old consumer (a free loop closes
        back into a)."""
        if self.slot(a, IN) is None:
            b, c = self.fresh(), a
        else:
            b = self.split(a)
            c = self.split(b)
        self.cross(first[0], a, b, first[1])
        self.cross(second[0], b, c, second[1])

    def replace_everywhere(self, old: int, new: int) -> None:
        # in place, so a loop over the crossings sees the new records
        for ci, (over, under_in, under_out, sign) in enumerate(self.crossings):
            if old in (over, under_in, under_out):
                arcs = (new if t == old else t for t in (over, under_in, under_out))
                self.crossings[ci] = Crossing(*arcs, sign)
        for ends in self.vertices:
            for pos, (arc, direction) in enumerate(ends):
                if arc == old:
                    ends[pos] = (new, direction)

    def merge(self, keep: int, gone: int) -> None:
        if keep == gone:
            return
        self.replace_everywhere(gone, keep)
        self.alive.discard(gone)
        self.rename[gone] = keep

    def drop(self, a: int) -> None:
        self.alive.discard(a)

    def strand(self, a: int) -> set[int]:
        """All arcs on the same under-strand as a, walking both ways."""
        next_arc = {c.under_in: c.under_out for c in self.crossings}
        prev_arc = {c.under_out: c.under_in for c in self.crossings}
        chain = {a}
        for step in (next_arc, prev_arc):
            cur = a
            while cur in step and step[cur] not in chain:
                cur = step[cur]
                chain.add(cur)
        return chain

    def reverse_strand(self, a: int) -> None:
        """Reverse the orientation of the whole under-strand containing a:
        swap under slots, flip signs once per reversed participant, flip
        vertex end directions."""
        chain = self.strand(a)
        for ci, (over, under_in, under_out, sign) in enumerate(self.crossings):
            if (over in chain) != (under_in in chain):
                sign = -sign
            if under_in in chain:
                under_in, under_out = under_out, under_in
            self.crossings[ci] = Crossing(over, under_in, under_out, sign)
        for ends in self.vertices:
            for i, (arc, direction) in enumerate(ends):
                if arc in chain:
                    ends[i] = (arc, OUT if direction == IN else IN)

    def finalize(self) -> tuple[Diagram, dict[int, int] | range]:
        """The edited diagram, which checks itself, and the new index of
        every surviving token: original arcs first in their old order,
        then the created ones.  When every token is alive, each is its
        own index: the records are kept as they are and the numbering is
        ``range(next_token)``."""
        if len(self.alive) == self.next_token:
            vertices = tuple(Vertex(tuple(ends)) for ends in self.vertices)
            return Diagram(self.next_token, tuple(self.crossings), vertices), range(self.next_token)
        tokens = sorted(t for t in self.alive if t < self.original)
        tokens += filter(self.alive.__contains__, self.created)
        index = dict(zip(tokens, range(len(tokens))))
        number = index.__getitem__
        *arcs, signs = zip(*self.crossings) if self.crossings else ((),) * 4
        return Diagram(
            arc_count=len(tokens),
            crossings=tuple(map(_crossing, zip(*(map(number, col) for col in arcs), signs))),
            vertices=tuple(
                Vertex(tuple((index[a], direction) for a, direction in ends))
                for ends in self.vertices
            ),
        ), index


# ---------------------------------------------------------------------------
# edge deletion (keeps two ends per vertex, then smooths)


def delete_edges(d: Diagram, edges_to_delete) -> Diagram:
    """Delete whole graph edges.  Crossings whose under-strand dies
    disappear; crossings whose over-arc dies fuse their under arcs;
    remaining 2-valent vertices are smoothed.  The deletion must leave
    every vertex with exactly two ends."""
    edges = compute_edges(d)
    doomed_arcs: set[int] = set()
    for ei in edges_to_delete:
        if not 0 <= ei < len(edges):
            raise ValueError(f"no such edge {ei}")
        doomed_arcs.update(edges[ei].arcs)

    work = _Work(d)
    work.crossings = [c for c in work.crossings if c.under_in not in doomed_arcs]
    work.vertices = [[e for e in ends if e[0] not in doomed_arcs] for ends in work.vertices]
    for vi, ends in enumerate(work.vertices):
        if len(ends) != 2:
            raise ValueError(f"vertex {vi} left with {len(ends)} ends")
    for a in doomed_arcs:
        work.drop(a)

    # fuse under strands through crossings whose over arc died
    for c in work.crossings:
        if c.over in doomed_arcs:
            work.merge(c.under_in, c.under_out)
    work.crossings = [c for c in work.crossings if c.over not in doomed_arcs]

    # smooth the two-valent vertices; a closed strand hanging on one
    # vertex alone just loses the vertex
    for ends in work.vertices:
        if ends[0][0] != ends[1][0]:
            if ends[0][1] == ends[1][1]:
                work.reverse_strand(ends[1][0])
            (a1, d1), (a2, _) = ends
            work.merge(*((a1, a2) if d1 == IN else (a2, a1)))
        ends.clear()
    work.vertices = []
    return work.finalize()[0]
