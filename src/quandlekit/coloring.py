"""Proper colourings of diagrams by the associated quandle of a system,
counted and enumerated as the solutions of one ``solve.Problem``.

Crossing rule: at a positive crossing c(under_out) = c(under_in) . c(over)
in the associated quandle; at a negative crossing c(under_in) =
c(under_out) . c(over), realised through the column-inverse (dual) table.

Vertex rule: all incident arcs share one X element x.  With effective
G elements g^ = g for in-ends and rho_x(g) for out-ends, a vertex of
valence v is proper when Gamma_{v-1}(g^_1, ..., g^_{v-1}) = rho_x(g^_v).
The rule fixes the last end, and each other end whose arc the vertex
meets once and at which Gamma_{v-1} is a bijection of that argument once
the others are fixed.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .diagrams import IN, Diagram
from .solve import Problem
from .systems import SystemData, associated_quandle
from .tables import (
    AxiomReport,
    Lines,
    OperationTable,
    ReportBuilder,
    generated_subalgebra,
)


class ScopeError(ValueError):
    """A system fails the hypotheses under which its counts are invariants."""


@dataclass(frozen=True)
class Colouring:
    """Total assignment arc index -> pair index of the associated quandle."""

    assignment: tuple[int, ...]


class ColouringContext(Problem):
    """The colouring problem of a diagram by a system, shared by
    verification and counting: one variable per arc over the associated
    carrier, a table constraint (under_in, over, under_out) per crossing
    over the associated table or its dual, with the other as the inverse,
    and a rule per vertex.  The associated product is the one the system
    keeps.  Raises ScopeError when it is not a quandle, since its counts
    are then no invariant."""

    def __init__(self, d: Diagram, sys: SystemData):
        self.system = sys
        self.product, axioms = associated_quandle(sys)
        if not axioms.valid:
            axiom, witness = axioms.violations[0]
            raise ScopeError(
                f"associated product is not a quandle: axiom {axiom} fails at {list(witness)}"
            )
        self.table = self.product.entries
        self.dual = self.product.dual.entries
        self.carrier = self.product.size
        self.g_size = sys.g_size
        super().__init__(d.arc_count, self.carrier)
        table, dual = self.product, self.product.dual
        if d.crossings:
            overs, ins, outs, signs = zip(*d.crossings)
            ops = map({1: table, -1: dual}.__getitem__, signs)
            self.add_tables(ins, overs, outs, ops, map({1: dual, -1: table}.__getitem__, signs))
        if d.vertices and sys.rho is None:
            raise ValueError("vertex rules require the involution rho")
        # the Gamma arities the vertex rules read
        self.arities = {v.valence - 1 for v in d.vertices}
        for v in d.vertices:
            ends = [a for a, _ in v.ends]
            self.add_rule(ends, *self.vertex_rule(v))
            # ends share their X part, for a one-element G the whole
            # colour: b = a * a, which is a in a quandle
            for a, b in zip(ends, ends[1:] + ends[:1]) if self.g_size == 1 else ():
                self.add_table(a, a, b, table)

    def crossing_ok(self, c, colours) -> bool:
        op = self.table if c.sign > 0 else self.dual
        return colours[c.under_out] == op[colours[c.under_in]][colours[c.over]]

    def vertex_ok(self, v, colours) -> bool:
        ends = [colours[a] for a, _ in v.ends]
        solve, _ = self.vertex_rule(v)
        return solve(ends, len(ends) - 1) == ends[-1]

    def vertex_rule(self, v):
        """The rule of vertex v, solve(colours, i): the colour end i must
        take given the others, or -1 if they disagree on X.  Returned with
        the ends it fixes: the last, and each end whose arc the vertex meets
        once and of which Gamma is a bijection once the other ends are
        fixed."""
        n, rho, rho_inv = self.g_size, self.system.rho, self.system.rho_inverse
        last = v.valence - 1
        flat = self.system.gamma_table(last)
        if flat is None:
            raise ValueError(f"system lacks a composition table for a valence-{v.valence} vertex")
        arcs = [a for a, _ in v.ends]
        # an arc met twice is never solved for, so its inverse is not built
        inverses = [
            self.system.gamma_inverse(last, i) if arcs.count(a) == 1 else None
            for i, a in enumerate(arcs[:last])
        ]
        outs = [direction != IN for _, direction in v.ends]
        weights = [n ** (last - 1 - j) for j in range(last)]

        def solve(colours, i):
            x = colours[i - 1] // n  # an end other than i
            r = rho[x]
            idx = 0
            for j in range(last):
                if j != i:
                    y, g = divmod(colours[j], n)
                    if y != x:
                        return -1
                    idx += (r[g] if outs[j] else g) * weights[j]
            if i == last:
                h = rho_inv[x][flat[idx]]
            else:
                # Gamma(.., h, ..) = rho_x(g^_last), solved for argument i
                y, g = divmod(colours[last], n)
                if y != x:
                    return -1
                idx += r[r[g] if outs[last] else g] * weights[i]
                h = inverses[i][idx]
            return x * n + (rho_inv[x][h] if outs[i] else h)

        forcing = [i for i, inverse in enumerate(inverses) if inverse is not None]
        return solve, forcing + [last]

    def respects_vertex_rules(self, sigma) -> bool:
        """Whether the permutation sigma of the associated carrier maps
        colourings proper at every vertex to colourings proper at every
        vertex: its X image depends on x alone, it commutes with
        the flattened rho, (x, g) -> (x, rho_x(g)), and with sigma_x, its
        G part at x, Gamma(sigma_x g_1, ...) = sigma_x Gamma(g_1, ...)."""
        n = self.g_size
        xs = [p // n for p in sigma]
        if xs != [x for x in xs[::n] for _ in range(n)]:
            return False
        flat_rho = self.system.flat_rho
        if list(map(sigma.__getitem__, flat_rho)) != list(map(flat_rho.__getitem__, sigma)):
            return False
        # Gamma as rows over its last argument: row i fixes the arguments
        # before it to prefix i
        gammas = {}
        for k in self.arities:
            flat = self.system.gamma_table(k)
            gammas[k] = Lines([flat[i : i + n] for i in range(0, len(flat), n)], n)
        for start in range(0, self.carrier, n):
            s = [p % n for p in sigma[start : start + n]]
            for k, rows in gammas.items():
                # row lift[i] fixes those arguments to the images of prefix i
                lift = [0]
                for _ in range(k - 1):
                    lift = [a * n + t for a in lift for t in s]
                if rows.after(s) != rows.before(s, lift):
                    return False
        return True

    def symmetry(self) -> tuple[OperationTable, Sequence[int]] | None:
        """The symmetry ``Problem.count`` may count by: the associated
        quandle and the y whose right translations R_y map colourings to
        colourings, or None when every component is one element or a
        translation that generates them breaks a vertex rule.

        Every R_y is an automorphism of the associated quandle, so it maps
        colourings to colourings at every crossing.  At the vertices, the
        translations that generate the components are checked on the
        system's tables, once per system and set of vertex arities.  Where
        they pass, so does every R_y with y in the subquandle they
        generate, since R_{a*b} = R_b R_a R_b^-1."""
        product = self.product
        comp = product.components
        if max(comp) + 1 == len(comp):
            return None
        if not self.arities:
            return product, range(self.carrier)
        verdicts, key = self.system.symmetry_verdicts, frozenset(self.arities)
        if key not in verdicts:
            generators = product.generators
            ys = None
            if all(self.respects_vertex_rules(product.columns[y]) for y in generators):
                ys = generated_subalgebra(product, generators)
            verdicts[key] = ys
        ys = verdicts[key]
        return None if ys is None else (product, ys)


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


def _strand_classes(d: Diagram) -> int:
    """The number of classes of arcs joined by under_in and under_out at
    the crossings; vertices do not join them.  A proper colouring keeps
    each class in one component of the associated quandle, since
    c(under_out) = R_{c(over)}(c(under_in))."""
    parent = list(range(d.arc_count))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    classes = d.arc_count
    for c in d.crossings:
        a, b = find(c.under_in), find(c.under_out)
        if a != b:
            parent[a] = b
            classes -= 1
    return classes


def count_colourings(d: Diagram, sys: SystemData, mode: str = "all") -> int:
    """Exact number of proper colourings.  Mode ``generating`` keeps only
    colourings whose image generates the whole associated quandle.

    Where the translations that generate the components respect the
    vertex rules, colourings are counted down a chain of stabilisers
    (``ColouringContext.symmetry``): one ``Problem.count`` call either
    way."""
    if mode not in ("all", "generating"):
        raise ValueError(f"unknown mode {mode!r}")
    generating = mode == "generating"
    ctx = ColouringContext(d, sys)
    # a * b and its inverse lie in the component of a, so a generating
    # image meets every component, and each strand class lies in one
    comp = ctx.product.components
    parts = max(comp) + 1
    if generating and _strand_classes(d) < parts:
        return 0
    if not generating:
        return ctx.count(ctx.symmetry())
    cache: dict = {}

    def generates(colours) -> bool:
        if len(set(map(comp.__getitem__, colours))) < parts:
            return False
        image = frozenset(colours)
        if image not in cache:
            cache[image] = len(generated_subalgebra(ctx.product, image)) == ctx.carrier
        return cache[image]

    return ctx.count(ctx.symmetry(), generates)


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
    if sys.otimes is None:
        raise ValueError("system has neither otimes nor a group")
    n, size = sys.g_size, sys.x_size * sys.g_size
    otimes = sys.otimes.entries

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
