"""Proper colourings of diagrams by the associated quandle of a system,
counted and enumerated as the solutions of one ``solve.Problem``.

Crossing rule: at a positive crossing c(under_out) = c(under_in) . c(over)
in the associated quandle; at a negative crossing c(under_in) =
c(under_out) . c(over), realised through the column-inverse (dual) table.

Vertex rule: all incident arcs share one X element x.  With effective
G elements g^ = g for in-ends and rho_x(g) for out-ends, a vertex of
valence v is proper when Gamma_{v-1}(g^_1, ..., g^_{v-1}) = rho_x(g^_v).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagrams import IN, Diagram, validate_diagram
from .solve import Problem
from .systems import SystemData, associated_quandle
from .tables import AxiomReport, ReportBuilder, generated_subalgebra, trivial_quandle


@dataclass(frozen=True)
class Colouring:
    """Total assignment arc index -> pair index of the associated quandle."""

    assignment: tuple[int, ...]

    def pair(self, ctx: "ColouringContext", arc: int) -> tuple[int, int]:
        return ctx.assoc.pair_of(self.assignment[arc])


class ColouringContext(Problem):
    """The colouring problem of a diagram by a system, shared by
    verification and counting: one variable per arc over the associated
    carrier, a table constraint (under_in, over, under_out) per crossing
    over the associated table or its dual, with the other as the inverse,
    and a rule per vertex."""

    def __init__(self, d: Diagram, sys: SystemData):
        report = validate_diagram(d)
        if not report.valid:
            raise ValueError(f"invalid diagram: {report.violations[:4]}")
        self.system = sys
        self.assoc, _ = associated_quandle(sys)
        self.table = self.assoc.table.entries
        self.dual = self.assoc.table.dual.entries
        self.carrier = self.assoc.table.size
        self.g_size = sys.g_size
        super().__init__(d.arc_count, self.carrier)
        for c in d.crossings:
            op, inverse = (self.table, self.dual) if c.sign > 0 else (self.dual, self.table)
            self.add_table(c.under_in, c.over, c.under_out, op, inverse)
        if d.vertices and sys.rho is None:
            raise ValueError("vertex rules require the involution rho")
        # ends share their X part, for a one-element G the whole colour
        same = trivial_quandle(self.carrier).entries if d.vertices and self.g_size == 1 else None
        for v in d.vertices:
            ends = [a for a, _ in v.ends]
            self.add_rule(ends, self.vertex_rule(v), (len(ends) - 1,))
            for a, b in zip(ends, ends[1:] + ends[:1]) if same else ():
                self.add_table(a, a, b, same)

    def crossing_ok(self, c, colours) -> bool:
        op = self.table if c.sign > 0 else self.dual
        return colours[c.under_out] == op[colours[c.under_in]][colours[c.over]]

    def vertex_ok(self, v, colours) -> bool:
        ends = [colours[a] for a, _ in v.ends]
        return self.vertex_rule(v)(ends, len(ends) - 1) == ends[-1]

    def vertex_rule(self, v):
        """The rule of vertex v for its last end: the colour that end must
        take given the others, or -1 if the ends disagree on X."""
        n, rho = self.g_size, self.system.rho
        flat = self.system.gamma_table(v.valence - 1)
        if flat is None:
            raise ValueError(f"system lacks a composition table for a valence-{v.valence} vertex")
        rho_inv = [sorted(range(n), key=r.__getitem__) for r in rho]
        outs = [direction != IN for _, direction in v.ends]
        last = len(outs) - 1

        def solve(colours, _):
            x = colours[0] // n
            idx = 0
            for j in range(last):
                y, g = divmod(colours[j], n)
                if y != x:
                    return -1
                idx = idx * n + (rho[x][g] if outs[j] else g)
            g = rho_inv[x][flat[idx]]
            return x * n + (rho_inv[x][g] if outs[last] else g)

        return solve


# the benchmark's tracer counts solutions through this name
_Backtracker = ColouringContext


def verify_colouring(d: Diagram, sys: SystemData, c: Colouring) -> AxiomReport:
    """Check every crossing and vertex constraint; ids ``crossing``,
    ``vertex-x`` (mismatched X elements) and ``vertex-g``."""
    ctx = ColouringContext(d, sys)
    colours = c.assignment
    if len(colours) != d.arc_count:
        raise ValueError("colouring must assign every arc")
    for p in colours:
        if not 0 <= p < ctx.carrier:
            raise ValueError(f"colour {p} outside the associated carrier")
    rb = ReportBuilder()
    for ci, crossing in enumerate(d.crossings):
        if not ctx.crossing_ok(crossing, colours):
            rb.hit("crossing", (ci,))
    for vi, vertex in enumerate(d.vertices):
        if len({colours[a] // ctx.g_size for a, _ in vertex.ends}) > 1:
            rb.hit("vertex-x", (vi,))
        elif not ctx.vertex_ok(vertex, colours):
            rb.hit("vertex-g", (vi,))
    return rb.report()


def _generates_all(ctx: ColouringContext, colours, cache) -> bool:
    image = frozenset(colours)
    if image not in cache:
        cache[image] = len(generated_subalgebra(ctx.assoc.table, image)) == ctx.carrier
    return cache[image]


def count_colourings(d: Diagram, sys: SystemData, mode: str = "all") -> int:
    """Exact number of proper colourings.  Mode ``generating`` keeps only
    colourings whose image generates the whole associated quandle."""
    if mode not in ("all", "generating"):
        raise ValueError(f"unknown mode {mode!r}")
    ctx = ColouringContext(d, sys)
    cache: dict = {}
    return sum(1 for c in ctx.solutions() if mode == "all" or _generates_all(ctx, c, cache))


def enumerate_colourings(d: Diagram, sys: SystemData, cap: int) -> list[Colouring]:
    """First ``cap`` proper colourings in search order."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    return [Colouring(c) for c in itertools.islice(ColouringContext(d, sys).solutions(), cap)]


def brute_force_count(d: Diagram, sys: SystemData, mode: str = "all") -> int:
    """Independent oracle: test all carrier^arcs assignments against the
    product (x, g).(y, h) = (x *_{f(g,h)} y, g (x) h) and the vertex rule,
    both taken straight from the system, and close images under that
    product for ``generating``.  Only usable for small diagrams."""
    if not validate_diagram(d).valid:
        raise ValueError("invalid diagram")
    n, size = sys.g_size, sys.x_size * sys.g_size
    otimes = sys.eff_otimes().entries

    def product(p: int, q: int) -> int:
        (x, g), (y, h) = divmod(p, n), divmod(q, n)
        return sys.star[sys.f_at(g, h)].entries[x][y] * n + otimes[g][h]

    prod = [[product(p, q) for q in range(size)] for p in range(size)]
    # positive: out = in . over; negative: in = out . over
    crossings = [(c.under_in, c.over, c.under_out)[:: c.sign] for c in d.crossings]
    vertices = [(v.ends, sys.gamma_table(v.valence - 1)) for v in d.vertices]
    if vertices and (sys.rho is None or any(flat is None for _, flat in vertices)):
        raise ValueError("system has no rule for a vertex of this diagram")

    def proper(colours) -> bool:
        if any(colours[z] != prod[colours[x]][colours[y]] for x, y, z in crossings):
            return False
        for ends, flat in vertices:
            x = colours[ends[0][0]] // n
            if any(colours[a] // n != x for a, _ in ends):
                return False
            eff = [colours[a] % n if e == IN else sys.rho[x][colours[a] % n] for a, e in ends]
            idx = 0
            for g in eff[:-1]:
                idx = idx * n + g
            if flat[idx] != sys.rho[x][eff[-1]]:
                return False
        return True

    def generates_all(colours) -> bool:
        members = set(colours)
        while True:
            more = {prod[a][b] for a in members for b in members} - members
            if not more:
                return len(members) == size
            members |= more

    return sum(
        proper(colours) and (mode == "all" or generates_all(colours))
        for colours in itertools.product(range(size), repeat=d.arc_count)
    )
