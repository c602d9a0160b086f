"""Multi-operation colouring structures over a pair of finite carriers
(X, G): group-indexed quandle families, their twisted generalisations,
the (f,otimes)-systems with composition and involution data, axet-derived
systems, and the product quandles they all induce on X x G.

Axiom ids used in reports:

* ``gf1/gf2-prod/gf2-unit/gf3`` -- the three group-indexed family axioms;
* ``gsf1/gsf2-prod/gsf2-unit/gsf3`` plus ``gq-*`` -- the twisted family
  (G carries a quandle op and a twisting map f);
* ``qf1/qf2/qf3`` plus ``qq-*`` -- quandle-indexed families;
* ``fw1/fw2/fw3`` -- the base system axioms (idempotency on the diagonal
  of f, unique right division, twisted self-distributivity);
* ``oplus-def`` -- (x *_g y) *_h y = x *_{g (+) h} y;
* ``tc1..tc6a/tc6b, rho-inv`` -- trivalent compatibility;
* ``assoc`` -- associativity of (+);
* ``nc1[n]..nc7[n]`` -- n-ary compatibility for the arity-n composition
  table.

Condition nc2 is checked as Gamma(h2, h1 (x) h2, rest) = Gamma(h1, h2, rest)
and nc7 in its rotation-coherent form (the folded term alone is passed
through rho); at n = 2 these reduce exactly to tc1 and tc6a/tc6b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .tables import (
    AxiomReport,
    GroupTable,
    OperationTable,
    ParseError,
    ReportBuilder,
    _column_collision,
    _content_lines,
    _parse_int,
    group_from_table,
    is_abelian,
    table_from,
    validate_axioms,
)

MAX_GAMMA_ARITY = 4  # stored composition tables have at most n^4 entries

FAMILY_KINDS = (
    "g_family",
    "gsf_family",
    "q_family",
    "fw_system",
    "trivalent_compatible",
    "associative_composition",
    "n_compatible",
)


@dataclass(frozen=True)
class SystemData:
    """Carriers X (size x_size) and G (size g_size) with the family
    {*_g} of operations on X plus whatever of f, (x), (+), Gamma and rho
    the structure at hand provides.

    * ``star[g]`` is the operation *_g on X.
    * ``f_map[g][h]`` = f(g, h), a G index.
    * ``otimes`` is the binary operation (x) on G (the quandle op on G for
      twisted families).
    * ``group`` is present when G is a group.
    * ``oplus`` is the composition operation (+) on G.
    * ``gamma`` maps arity k to a flat row-major table G^k -> G.
    * ``rho[x]`` is the involution rho_x on G indices.
    """

    x_size: int
    g_size: int
    star: tuple[OperationTable, ...]
    f_map: tuple[tuple[int, ...], ...] | None = None
    otimes: OperationTable | None = None
    group: GroupTable | None = None
    oplus: OperationTable | None = None
    gamma: tuple[tuple[int, tuple[int, ...]], ...] = ()
    rho: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.x_size <= 0 or self.g_size <= 0:
            raise ValueError("carrier sizes must be positive")
        if len(self.star) != self.g_size:
            raise ValueError("star must define one operation per G element")
        for op in self.star:
            if op.size != self.x_size:
                raise ValueError("star operations must act on X")
        if self.f_map is not None:
            rows = tuple(tuple(r) for r in self.f_map)
            if len(rows) != self.g_size or any(len(r) != self.g_size for r in rows):
                raise ValueError("f_map must be g_size x g_size")
            if any(not 0 <= v < self.g_size for r in rows for v in r):
                raise ValueError("f_map entries out of range")
            object.__setattr__(self, "f_map", rows)
        for table, name in ((self.otimes, "otimes"), (self.oplus, "oplus")):
            if table is not None and table.size != self.g_size:
                raise ValueError(f"{name} must act on G")
        if self.group is not None and self.group.size != self.g_size:
            raise ValueError("group must act on G")
        gamma = tuple(sorted((int(k), tuple(flat)) for k, flat in self.gamma))
        for k, flat in gamma:
            if not 2 <= k <= MAX_GAMMA_ARITY:
                raise ValueError(f"gamma arity {k} outside 2..{MAX_GAMMA_ARITY}")
            if len(flat) != self.g_size**k:
                raise ValueError(f"gamma[{k}] must have g_size^{k} entries")
            if any(not 0 <= v < self.g_size for v in flat):
                raise ValueError("gamma entries out of range")
        object.__setattr__(self, "gamma", gamma)
        if self.oplus is not None:
            for k, flat in gamma:
                if k == 2 and flat != tuple(v for row in self.oplus.entries for v in row):
                    raise ValueError("arity-2 gamma must agree with oplus")
        if self.rho is not None:
            rows = tuple(tuple(r) for r in self.rho)
            if len(rows) != self.x_size:
                raise ValueError("rho must give one permutation per X element")
            for r in rows:
                if sorted(r) != list(range(self.g_size)):
                    raise ValueError("each rho_x must permute G")
            object.__setattr__(self, "rho", rows)

    # -- derived accessors ------------------------------------------------

    def f_at(self, g: int, h: int) -> int:
        if self.f_map is None:
            raise ValueError("system has no f map")
        return self.f_map[g][h]

    def eff_otimes(self) -> OperationTable:
        """(x) as stored, else conjugation derived from the group."""
        if self.otimes is not None:
            return self.otimes
        if self.group is not None:
            grp = self.group
            return table_from(self.g_size, grp.conjugate)
        raise ValueError("system has neither otimes nor a group")

    def eff_oplus(self) -> OperationTable:
        """(+) as stored, else the group product."""
        if self.oplus is not None:
            return self.oplus
        if self.group is not None:
            return self.group.table
        raise ValueError("system has neither oplus nor a group")

    def gamma_table(self, arity: int) -> tuple[int, ...] | None:
        """Gamma as a flat row-major table; at arity 2, (+) unless stored."""
        for k, flat in self.gamma:
            if k == arity:
                return flat
        if arity == 2 and (self.oplus is not None or self.group is not None):
            return tuple(v for row in self.eff_oplus().entries for v in row)
        return None

    def gamma_at(self, arity: int, gs: tuple[int, ...]) -> int:
        flat = self.gamma_table(arity)
        if flat is None:
            raise ValueError(f"system has no arity-{arity} composition table")
        idx = 0
        for g in gs:
            idx = idx * self.g_size + g
        return flat[idx]

    def rho_at(self, x: int, g: int) -> int:
        if self.rho is None:
            raise ValueError("system has no involution rho")
        return self.rho[x][g]


@dataclass(frozen=True)
class AssociatedQuandle:
    """The product operation on X x G; pair (x, g) lives at index
    x * g_size + g."""

    table: OperationTable
    x_size: int
    g_size: int

    def pair_index(self, x: int, g: int) -> int:
        return x * self.g_size + g

    def pair_of(self, p: int) -> tuple[int, int]:
        return divmod(p, self.g_size)


def g_family_system(star, group: GroupTable) -> SystemData:
    """Package a group-indexed family: f(g,h) = h, (x) = conjugation,
    (+) = group product, rho_x = inversion."""
    g_size = group.size
    f_map = tuple(tuple(h for h in range(g_size)) for _ in range(g_size))
    star = tuple(star)
    x_size = star[0].size
    return SystemData(
        x_size=x_size,
        g_size=g_size,
        star=star,
        f_map=f_map,
        otimes=table_from(g_size, group.conjugate),
        group=group,
        oplus=group.table,
        rho=tuple(group.inverse for _ in range(x_size)),
    )


def quandle_system(table: OperationTable) -> SystemData:
    """Wrap a bare quandle as a system with a one-element G carrier."""
    one = OperationTable(1, ((0,),))
    return SystemData(
        x_size=table.size,
        g_size=1,
        star=(table,),
        f_map=((0,),),
        otimes=one,
        group=group_from_table(one),
        oplus=one,
        rho=tuple((0,) for _ in range(table.size)),
    )


def associated_quandle(data: SystemData) -> tuple[AssociatedQuandle, AxiomReport]:
    """Build the product table (x, g) . (y, h) = (x *_{f(g,h)} y, g (x) h)
    and validate it as a quandle."""
    otimes = data.eff_otimes()
    m, n = data.x_size, data.g_size

    def op(p: int, q: int) -> int:
        x, g = divmod(p, n)
        y, h = divmod(q, n)
        return data.star[data.f_at(g, h)].entries[x][y] * n + otimes.entries[g][h]

    table = table_from(m * n, op)
    return AssociatedQuandle(table, m, n), validate_axioms(table, "quandle")


# ---------------------------------------------------------------------------
# family validation


def _require(data: SystemData, kind: str, *fields: str) -> None:
    missing = []
    for field in fields:
        if field == "group" and data.group is None:
            missing.append("group")
        elif field == "f_map" and data.f_map is None:
            missing.append("f")
        elif field == "otimes" and data.otimes is None and data.group is None:
            missing.append("otimes")
        elif field == "oplus" and data.oplus is None and data.group is None:
            missing.append("oplus")
        elif field == "rho" and data.rho is None:
            missing.append("rho")
    if missing:
        raise ValueError(f"kind {kind!r} requires: {', '.join(missing)}")


def _check_fw(data: SystemData, rb: ReportBuilder) -> None:
    m, n = data.x_size, data.g_size
    f = data.f_at
    star = data.star
    otimes = data.eff_otimes().entries
    for g in range(n):
        op = star[f(g, g)].entries
        for x in range(m):
            if op[x][x] != x:
                rb.hit("fw1", (x, g))
    for g in range(n):
        for h in range(n):
            table = star[f(g, h)]
            for y in range(m):
                collision = _column_collision(table, y)
                if collision is not None:
                    rb.hit("fw2", (g, h, y, collision[0], collision[1]))
                    break
    for g in range(n):
        for h in range(n):
            for q in range(n):
                a = star[f(g, h)].entries
                b = star[f(otimes[g][h], q)].entries
                c = star[f(g, q)].entries
                d = star[f(otimes[g][q], otimes[h][q])].entries
                e = star[f(h, q)].entries
                for x, y, z in itertools.product(range(m), repeat=3):
                    if b[a[x][y]][z] != d[c[x][z]][e[y][z]]:
                        rb.hit("fw3", (x, y, z, g, h, q))


def _check_oplus_def(data: SystemData, rb: ReportBuilder) -> None:
    m, n = data.x_size, data.g_size
    oplus = data.eff_oplus().entries
    for g in range(n):
        for h in range(n):
            lhs_g, lhs_h = data.star[g].entries, data.star[h].entries
            rhs = data.star[oplus[g][h]].entries
            for x in range(m):
                for y in range(m):
                    if lhs_h[lhs_g[x][y]][y] != rhs[x][y]:
                        rb.hit("oplus-def", (x, y, g, h))


def _check_trivalent(data: SystemData, rb: ReportBuilder) -> None:
    m, n = data.x_size, data.g_size
    otimes = data.eff_otimes().entries
    oplus = data.eff_oplus().entries
    f = data.f_at
    rho = data.rho
    for x in range(m):
        for g in range(n):
            if rho[x][rho[x][g]] != g:
                rb.hit("rho-inv", (x, g))
    for g in range(n):
        for h in range(n):
            if oplus[h][otimes[g][h]] != oplus[g][h]:
                rb.hit("tc1", (g, h))
    for h in range(n):
        base = f(0, h)
        for g in range(1, n):
            if f(g, h) != base:
                rb.hit("tc2", (g, h))
    for g in range(n):
        for h in range(n):
            for q in range(n):
                if otimes[g][oplus[h][q]] != otimes[otimes[g][h]][q]:
                    rb.hit("tc3", (g, h, q))
    for h in range(n):
        for q in range(n):
            if f(0, oplus[h][q]) != oplus[f(0, h)][f(0, q)]:
                rb.hit("tc4", (h, q))
    for u in range(n):
        for v in range(n):
            for g in range(n):
                if otimes[oplus[u][v]][g] != oplus[otimes[u][g]][otimes[v][g]]:
                    rb.hit("tc5", (u, v, g))
    for x in range(m):
        for g in range(n):
            for h in range(n):
                gh = oplus[g][h]
                if oplus[h][rho[x][gh]] != rho[x][g]:
                    rb.hit("tc6a", (x, g, h))
                if oplus[rho[x][gh]][g] != rho[x][h]:
                    rb.hit("tc6b", (x, g, h))


def _check_n_compatible(data: SystemData, rb: ReportBuilder, arity: int) -> None:
    m, n = data.x_size, data.g_size
    flat = data.gamma_table(arity)
    if flat is None:
        raise ValueError(f"n_compatible({arity}) requires an arity-{arity} gamma table")
    tag = f"[{arity}]"

    def gamma(gs: tuple[int, ...]) -> int:
        idx = 0
        for g in gs:
            idx = idx * n + g
        return flat[idx]

    otimes = data.eff_otimes().entries
    f = data.f_at
    rho = data.rho
    for x in range(m):
        for g in range(n):
            if rho[x][rho[x][g]] != g:
                rb.hit("rho-inv" + tag, (x, g))
    for gs in itertools.product(range(n), repeat=arity):
        target = data.star[gamma(gs)].entries
        for x in range(m):
            for y in range(m):
                acc = x
                for g in gs:
                    acc = data.star[g].entries[acc][y]
                if acc != target[x][y]:
                    rb.hit("nc1" + tag, (x, y) + gs)
    for rest in itertools.product(range(n), repeat=arity - 2):
        for h1 in range(n):
            for h2 in range(n):
                if gamma((h2, otimes[h1][h2]) + rest) != gamma((h1, h2) + rest):
                    rb.hit("nc2" + tag, (h1, h2) + rest)
    for h in range(n):
        base = f(0, h)
        for g in range(1, n):
            if f(g, h) != base:
                rb.hit("nc3" + tag, (g, h))
    for gs in itertools.product(range(n), repeat=arity):
        for h in range(n):
            acc = h
            for g in gs:
                acc = otimes[acc][g]
            if otimes[h][gamma(gs)] != acc:
                rb.hit("nc4" + tag, (h,) + gs)
    for gs in itertools.product(range(n), repeat=arity):
        if f(0, gamma(gs)) != gamma(tuple(f(0, g) for g in gs)):
            rb.hit("nc5" + tag, gs)
    for gs in itertools.product(range(n), repeat=arity):
        for h in range(n):
            if otimes[gamma(gs)][h] != gamma(tuple(otimes[g][h] for g in gs)):
                rb.hit("nc6" + tag, (h,) + gs)
    # rotation coherence: wrapping the folded value around the argument list
    # through rho_x reproduces rho_x of the dropped argument
    for x in range(m):
        for gs in itertools.product(range(n), repeat=arity):
            folded = rho[x][gamma(gs)]
            for i in range(arity):
                args = gs[arity - i :] + (folded,) + gs[: arity - i - 1]
                if gamma(args) != rho[x][gs[arity - i - 1]]:
                    rb.hit("nc7" + tag, (x, i) + gs)


def validate_family(data: SystemData, kind: str, arities=()) -> AxiomReport:
    """Exhaustively check the axioms of the named structure over the finite
    carriers; see the module docstring for axiom ids."""
    rb = ReportBuilder()
    m, n = data.x_size, data.g_size

    if kind == "g_family":
        _require(data, kind, "group")
        grp = data.group
        for g in range(n):
            op = data.star[g].entries
            for x in range(m):
                if op[x][x] != x:
                    rb.hit("gf1", (x, g))
        e = grp.identity
        for x in range(m):
            for y in range(m):
                if data.star[e].entries[x][y] != x:
                    rb.hit("gf2-unit", (x, y))
        for g in range(n):
            for h in range(n):
                prod = data.star[grp.mul(g, h)].entries
                sg, sh = data.star[g].entries, data.star[h].entries
                for x in range(m):
                    for y in range(m):
                        if prod[x][y] != sh[sg[x][y]][y]:
                            rb.hit("gf2-prod", (x, y, g, h))
        for g in range(n):
            for h in range(n):
                conj = grp.conjugate(g, h)
                sg, sh, sc = data.star[g].entries, data.star[h].entries, data.star[conj].entries
                for x, y, z in itertools.product(range(m), repeat=3):
                    if sh[sg[x][y]][z] != sc[sh[x][z]][sh[y][z]]:
                        rb.hit("gf3", (x, y, z, g, h))

    elif kind == "gsf_family":
        _require(data, kind, "group", "f_map", "otimes")
        grp = data.group
        rb.merge(validate_axioms(data.eff_otimes(), "quandle"), prefix="gq-")
        for g in range(n):
            op = data.star[g].entries
            for x in range(m):
                if op[x][x] != x:
                    rb.hit("gsf1", (x, g))
        e = grp.identity
        for x in range(m):
            for y in range(m):
                if data.star[e].entries[x][y] != x:
                    rb.hit("gsf2-unit", (x, y))
        for g in range(n):
            for h in range(n):
                prod = data.star[grp.mul(g, h)].entries
                sg, sh = data.star[g].entries, data.star[h].entries
                for x in range(m):
                    for y in range(m):
                        if prod[x][y] != sh[sg[x][y]][y]:
                            rb.hit("gsf2-prod", (x, y, g, h))
        otimes = data.eff_otimes().entries
        f = data.f_at
        for g in range(n):
            for h in range(n):
                for q in range(n):
                    a = data.star[f(g, h)].entries
                    b = data.star[f(otimes[g][h], q)].entries
                    c = data.star[f(g, q)].entries
                    d = data.star[f(otimes[g][q], otimes[h][q])].entries
                    ee = data.star[f(h, q)].entries
                    for x, y, z in itertools.product(range(m), repeat=3):
                        if b[a[x][y]][z] != d[c[x][z]][ee[y][z]]:
                            rb.hit("gsf3", (x, y, z, g, h, q))

    elif kind == "q_family":
        _require(data, kind, "otimes")
        rb.merge(validate_axioms(data.eff_otimes(), "quandle"), prefix="qq-")
        for a in range(n):
            op = data.star[a]
            for x in range(m):
                if op.entries[x][x] != x:
                    rb.hit("qf1", (x, a))
            for x in range(m):
                collision = _column_collision(op, x)
                if collision is not None:
                    rb.hit("qf2", (a, x, collision[0], collision[1]))
        circ = data.eff_otimes().entries
        for a in range(n):
            for b in range(n):
                sa, sb = data.star[a].entries, data.star[b].entries
                sc = data.star[circ[a][b]].entries
                for x, y, z in itertools.product(range(m), repeat=3):
                    if sb[sa[x][y]][z] != sc[sb[x][z]][sb[y][z]]:
                        rb.hit("qf3", (x, y, z, a, b))

    elif kind == "fw_system":
        _require(data, kind, "f_map", "otimes")
        _check_fw(data, rb)

    elif kind == "trivalent_compatible":
        _require(data, kind, "f_map", "otimes", "oplus", "rho")
        _check_fw(data, rb)
        _check_oplus_def(data, rb)
        _check_trivalent(data, rb)

    elif kind == "associative_composition":
        _require(data, kind, "oplus")
        oplus = data.eff_oplus().entries
        for g in range(n):
            for h in range(n):
                for q in range(n):
                    if oplus[g][oplus[h][q]] != oplus[oplus[g][h]][q]:
                        rb.hit("assoc", (g, h, q))

    elif kind == "n_compatible":
        _require(data, kind, "f_map", "otimes", "rho")
        if not arities:
            raise ValueError("n_compatible requires a list of arities")
        for arity in arities:
            _check_n_compatible(data, rb, arity)

    else:
        raise ValueError(f"unknown family kind {kind!r}")

    return rb.report()


def check_lemma_for(data: SystemData) -> AxiomReport:
    """Verify x *_{f(g,h) then f(g*h,q)} y = x *_{f(g,q) then f(g*q,h*q)} y,
    the subscript product applied sequentially.

    Requires the data to validate as a gsf_family.
    """
    pre = validate_family(data, "gsf_family")
    if not pre.valid:
        raise ValueError(f"not a valid gsf_family: {pre.violations[:4]}")
    m, n = data.x_size, data.g_size
    otimes = data.eff_otimes().entries
    f = data.f_at
    rb = ReportBuilder()
    for g in range(n):
        for h in range(n):
            for q in range(n):
                a1 = data.star[f(g, h)].entries
                a2 = data.star[f(otimes[g][h], q)].entries
                b1 = data.star[f(g, q)].entries
                b2 = data.star[f(otimes[g][q], otimes[h][q])].entries
                for x in range(m):
                    for y in range(m):
                        if a2[a1[x][y]][y] != b2[b1[x][y]][y]:
                            rb.hit("lemma", (x, y, g, h, q))
    return rb.report()


# ---------------------------------------------------------------------------
# fully general product quandles


def general_product_quandle(f_maps, g_maps) -> tuple[AssociatedQuandle, AxiomReport]:
    """Product operation (x,s)*(y,t) = (f_maps[s][t](x,y), g_maps[x][y](s,t))
    on X x S, together with the exhaustive check of the three conditions
    equivalent to it being a quandle (ids bp1-f, bp1-g, bp2, bp3-f, bp3-g).
    """
    f_maps = tuple(tuple(row) for row in f_maps)
    g_maps = tuple(tuple(row) for row in g_maps)
    s_size = len(f_maps)
    x_size = len(g_maps)
    if any(len(row) != s_size for row in f_maps) or any(len(r) != x_size for r in g_maps):
        raise ValueError("component map matrices must be square")
    for row in f_maps:
        for op in row:
            if op.size != x_size:
                raise ValueError("f component tables must act on X")
    for row in g_maps:
        for op in row:
            if op.size != s_size:
                raise ValueError("g component tables must act on S")

    def fc(s, t, x, y):
        return f_maps[s][t].entries[x][y]

    def gc(x, y, s, t):
        return g_maps[x][y].entries[s][t]

    rb = ReportBuilder()
    for x in range(x_size):
        for s in range(s_size):
            if fc(s, s, x, x) != x:
                rb.hit("bp1-f", (x, s))
            if gc(x, x, s, s) != s:
                rb.hit("bp1-g", (x, s))
    for y in range(x_size):
        for t in range(s_size):
            seen: dict[tuple[int, int], tuple[int, int]] = {}
            for x in range(x_size):
                for s in range(s_size):
                    img = (fc(s, t, x, y), gc(x, y, s, t))
                    if img in seen:
                        rb.hit("bp2", (y, t) + seen[img] + (x, s))
                    else:
                        seen[img] = (x, s)
    for x, y, z in itertools.product(range(x_size), repeat=3):
        for s, t, u in itertools.product(range(s_size), repeat=3):
            lhs_f = fc(gc(x, y, s, t), u, fc(s, t, x, y), z)
            rhs_f = fc(gc(x, z, s, u), gc(y, z, t, u), fc(s, u, x, z), fc(t, u, y, z))
            if lhs_f != rhs_f:
                rb.hit("bp3-f", (x, y, z, s, t, u))
            lhs_g = gc(fc(s, t, x, y), z, gc(x, y, s, t), u)
            rhs_g = gc(fc(s, u, x, z), fc(t, u, y, z), gc(x, z, s, u), gc(y, z, t, u))
            if lhs_g != rhs_g:
                rb.hit("bp3-g", (x, y, z, s, t, u))

    def op(p: int, q: int) -> int:
        x, s = divmod(p, s_size)
        y, t = divmod(q, s_size)
        return fc(s, t, x, y) * s_size + gc(x, y, s, t)

    table = table_from(x_size * s_size, op)
    return AssociatedQuandle(table, x_size, s_size), rb.report()


# ---------------------------------------------------------------------------
# good involutions


def validate_involution(q: OperationTable, rho) -> AxiomReport:
    """Check rho as a good involution on the quandle q: rho^2 = id (inv1),
    (u*v)*rho(v) = u (inv2), rho(u)*v = rho(u*v) (inv3).

    The alternative second axiom u*rho(v) = u dual v is checked
    independently (inv2p) and the two overall verdicts are asserted to
    agree.
    """
    rho = tuple(rho)
    n = q.size
    if sorted(rho) != list(range(n)):
        raise ValueError("rho must be a permutation of the carrier")
    e = q.entries
    rb = ReportBuilder()
    for u in range(n):
        if rho[rho[u]] != u:
            rb.hit("inv1", (u,))
    inv2_bad = inv2p_bad = inv3_bad = False
    for u in range(n):
        for v in range(n):
            if e[e[u][v]][rho[v]] != u:
                rb.hit("inv2", (u, v))
                inv2_bad = True
            if e[rho[u]][v] != rho[e[u][v]]:
                rb.hit("inv3", (u, v))
                inv3_bad = True
    dual = q.dual.entries
    for u in range(n):
        for v in range(n):
            if e[u][rho[v]] != dual[u][v]:
                rb.hit("inv2p", (u, v))
                inv2p_bad = True
    report = rb.report()
    inv1_bad = any(axiom == "inv1" for axiom, _ in report.violations)
    verdict = not (inv1_bad or inv2_bad or inv3_bad)
    verdict_alt = not (inv1_bad or inv2p_bad or inv3_bad)
    assert verdict == verdict_alt, "axiom-2 variants disagree on this input"
    return report


def _involutive_permutations(n: int):
    """All involutions of 0..n-1 in lexicographic image order."""

    def build(partial: list[int], free: list[int]):
        if not free:
            yield tuple(partial)
            return
        i = free[0]
        rest = free[1:]
        fixed = partial[:]
        fixed[i] = i
        yield from build(fixed, rest)
        for j in rest:
            paired = partial[:]
            paired[i], paired[j] = j, i
            yield from build(paired, [k for k in rest if k != j])

    # choices at each index: fix first (image i), then pair with j ascending;
    # this enumerates image tuples in increasing lexicographic order
    yield from build([0] * n, list(range(n)))


def search_involutions(q: OperationTable) -> list[tuple[int, ...]]:
    """All good involutions of the quandle q, in lexicographic order."""
    found = []
    for rho in _involutive_permutations(q.size):
        if validate_involution(q, rho).valid:
            found.append(rho)
    return found


def flatten_rho(data: SystemData) -> tuple[int, ...]:
    """The involution (x, g) -> (x, rho_x(g)) as a permutation of pair
    indices."""
    if data.rho is None:
        raise ValueError("system has no involution rho")
    n = data.g_size
    return tuple(
        x * n + data.rho[x][g] for x in range(data.x_size) for g in range(n)
    )


# ---------------------------------------------------------------------------
# axets


@dataclass(frozen=True)
class AxetData:
    """A group S, a group G acting on X, and stabiliser-valued tau with
    tau[x][s] in G."""

    s_group: GroupTable
    g_group: GroupTable
    action: tuple[tuple[int, ...], ...]
    tau: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        action = tuple(tuple(p) for p in self.action)
        tau = tuple(tuple(r) for r in self.tau)
        if len(action) != self.g_group.size:
            raise ValueError("action must give one permutation per G element")
        x_size = len(action[0]) if action else 0
        for p in action:
            if sorted(p) != list(range(x_size)):
                raise ValueError("each action[g] must permute X")
        if len(tau) != x_size or any(len(r) != self.s_group.size for r in tau):
            raise ValueError("tau must be an X x S matrix of G indices")
        if any(not 0 <= v < self.g_group.size for r in tau for v in r):
            raise ValueError("tau entries out of range")
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "tau", tau)

    @property
    def x_size(self) -> int:
        return len(self.tau)


def validate_axet(a: AxetData) -> AxiomReport:
    """Check the action homomorphism and the three stabiliser axioms
    (ids axet-action, axet1, axet2, axet3)."""
    rb = ReportBuilder()
    sg, gg = a.s_group, a.g_group
    m = a.x_size
    ide = tuple(range(m))
    if a.action[gg.identity] != ide:
        rb.hit("axet-action", (gg.identity,))
    for g in range(gg.size):
        for h in range(gg.size):
            composed = tuple(a.action[g][a.action[h][x]] for x in range(m))
            if a.action[gg.mul(g, h)] != composed:
                rb.hit("axet-action", (g, h))
    for x in range(m):
        for s in range(sg.size):
            if a.action[a.tau[x][s]][x] != x:
                rb.hit("axet1", (x, s))
    for x in range(m):
        for s in range(sg.size):
            for s2 in range(sg.size):
                if gg.mul(a.tau[x][s], a.tau[x][s2]) != a.tau[x][sg.mul(s, s2)]:
                    rb.hit("axet2", (x, s, s2))
    for x in range(m):
        for s in range(sg.size):
            for g in range(gg.size):
                gx = a.action[g][x]
                if a.tau[gx][s] != gg.mul(gg.mul(g, a.tau[x][s]), gg.inverse[g]):
                    rb.hit("axet3", (x, s, g))
    return rb.report()


def axet_to_system(a: AxetData) -> tuple[SystemData, AxiomReport]:
    """Convert an axet into a system over (X, S): x *_s y acts by tau_y(s),
    f(s,s') = s', s (x) s' = s, and -- when S is commutative and tau_x(e)
    acts trivially -- (+)(s,s') = s's with rho_x(s) = s^-1.

    Raises ValueError when the axet axioms fail; otherwise the returned
    report aggregates the structural validations of the derived system.
    """
    axet_report = validate_axet(a)
    if not axet_report.valid:
        raise ValueError(f"axet axioms fail: {axet_report.violations[:4]}")
    sg = a.s_group
    m = a.x_size
    ns = sg.size
    star = tuple(
        table_from(m, lambda x, y, s=s: a.action[a.tau[y][s]][x]) for s in range(ns)
    )
    f_map = tuple(tuple(s2 for s2 in range(ns)) for _ in range(ns))
    otimes = table_from(ns, lambda s, s2: s)
    data = SystemData(x_size=m, g_size=ns, star=star, f_map=f_map, otimes=otimes)
    rb = ReportBuilder()
    rb.merge(validate_family(data, "fw_system"))
    e_trivial = all(
        a.action[a.tau[x][sg.identity]] == tuple(range(m)) for x in range(m)
    )
    if is_abelian(sg) and e_trivial:
        oplus = table_from(ns, lambda s, s2: sg.mul(s2, s))
        rho = tuple(sg.inverse for _ in range(m))
        data = replace(data, oplus=oplus, rho=rho, group=sg)
        rb.merge(validate_family(data, "trivalent_compatible"))
        rb.merge(validate_family(data, "associative_composition"))
    return data, rb.report()


# ---------------------------------------------------------------------------
# composition tables from (+)


def gamma_from_oplus(data: SystemData, arity: int) -> tuple[SystemData, AxiomReport]:
    """Install the left fold of (+) as the arity-n composition table and
    check the seven n-ary compatibility conditions.

    Requires the system to validate as trivalent_compatible with
    associative composition.
    """
    if not 2 <= arity <= MAX_GAMMA_ARITY:
        raise ValueError(f"arity must be within 2..{MAX_GAMMA_ARITY}")
    pre = validate_family(data, "trivalent_compatible")
    if not pre.valid:
        raise ValueError(f"not trivalent compatible: {pre.violations[:4]}")
    pre = validate_family(data, "associative_composition")
    if not pre.valid:
        raise ValueError(f"composition is not associative: {pre.violations[:4]}")
    n = data.g_size
    oplus = data.eff_oplus().entries
    flat = []
    for gs in itertools.product(range(n), repeat=arity):
        acc = gs[0]
        for g in gs[1:]:
            acc = oplus[acc][g]
        flat.append(acc)
    gamma = tuple(g for g in data.gamma if g[0] != arity) + ((arity, tuple(flat)),)
    out = replace(data, gamma=gamma)
    return out, validate_family(out, "n_compatible", [arity])


# ---------------------------------------------------------------------------
# system and axet file formats


def serialize_system(data: SystemData) -> str:
    """Sectioned text form.  The group product is carried by the oplus
    block, so a group record is only emitted when they coincide."""
    lines = ["system", f"X {data.x_size}", f"G {data.g_size}"]
    oplus = data.oplus
    if data.group is not None and (oplus is None or oplus == data.group.table):
        oplus = data.group.table
        inv = " ".join(str(v) for v in data.group.inverse)
        lines.append(f"group identity={data.group.identity} inverse={inv}")
    if data.otimes is not None:
        lines.append("otimes")
        lines.extend(" ".join(str(v) for v in row) for row in data.otimes.entries)
    if oplus is not None:
        lines.append("oplus")
        lines.extend(" ".join(str(v) for v in row) for row in oplus.entries)
    if data.f_map is not None:
        lines.append("f")
        lines.extend(" ".join(str(v) for v in row) for row in data.f_map)
    for g in range(data.g_size):
        lines.append(f"star {g}")
        lines.extend(" ".join(str(v) for v in row) for row in data.star[g].entries)
    if data.rho is not None:
        for x in range(data.x_size):
            lines.append(f"rho {x} = " + " ".join(str(v) for v in data.rho[x]))
    for k, flat in data.gamma:
        lines.append(f"gamma {k}")
        width = data.g_size
        for r in range(0, len(flat), width):
            lines.append(" ".join(str(v) for v in flat[r : r + width]))
    return "\n".join(lines) + "\n"


def _read_matrix(lines, pos, rows, cols, what, bound):
    """Read rows x cols integers, each in 0..bound-1."""
    out = []
    for _ in range(rows):
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file in {what} block", lines[-1][0])
        lineno, line = lines[pos]
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(f"{what}: expected {cols} entries", lineno, 1)
        row = tuple(_parse_int(t, lineno, line) for t in toks)
        for t, v in zip(toks, row):
            if not 0 <= v < bound:
                raise ParseError(
                    f"{what}: entry {v} out of range 0..{bound - 1}", lineno, line.find(t) + 1
                )
        out.append(row)
        pos += 1
    return tuple(out), pos


def parse_system(text: str) -> SystemData:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "system":
        raise ParseError("expected 'system' header", lines[0][0] if lines else 1)
    pos = 1
    sizes = {}
    for key in ("X", "G"):
        if pos >= len(lines):
            raise ParseError("missing carrier sizes", lines[-1][0])
        lineno, line = lines[pos]
        toks = line.split()
        if len(toks) != 2 or toks[0] != key:
            raise ParseError(f"expected '{key} <size>'", lineno, 1)
        sizes[key] = _parse_int(toks[1], lineno, line)
        if sizes[key] <= 0:
            raise ParseError(f"{key} size must be positive", lineno, line.find(toks[1]) + 1)
        pos += 1
    m, n = sizes["X"], sizes["G"]

    group = None
    otimes = None
    oplus = None
    f_map = None
    star: dict[int, OperationTable] = {}
    rho: dict[int, tuple[int, ...]] = {}
    gamma: list[tuple[int, tuple[int, ...]]] = []
    group_line = None
    gamma_line = None

    while pos < len(lines):
        lineno, line = lines[pos]
        toks = line.split()
        head = toks[0]
        if head == "group":
            group_line = (lineno, line, toks)
            pos += 1
        elif head == "otimes":
            rows, pos = _read_matrix(lines, pos + 1, n, n, "otimes", n)
            otimes = OperationTable(n, rows)
        elif head == "oplus":
            rows, pos = _read_matrix(lines, pos + 1, n, n, "oplus", n)
            oplus = OperationTable(n, rows)
        elif head == "f":
            f_map, pos = _read_matrix(lines, pos + 1, n, n, "f", n)
        elif head == "star":
            if len(toks) != 2:
                raise ParseError("expected 'star <g>'", lineno, 1)
            g = _parse_int(toks[1], lineno, line)
            rows, pos = _read_matrix(lines, pos + 1, m, m, f"star {g}", m)
            star[g] = OperationTable(m, rows)
        elif head == "rho":
            if len(toks) < 4 or toks[2] != "=":
                raise ParseError("expected 'rho <x> = <permutation>'", lineno, 1)
            x = _parse_int(toks[1], lineno, line)
            rho[x] = tuple(_parse_int(t, lineno, line) for t in toks[3:])
            if sorted(rho[x]) != list(range(n)):
                raise ParseError(f"rho {x} must permute G", lineno, 1)
            pos += 1
        elif head == "gamma":
            if len(toks) != 2:
                raise ParseError("expected 'gamma <k>'", lineno, 1)
            k = _parse_int(toks[1], lineno, line)
            if not 2 <= k <= MAX_GAMMA_ARITY:
                raise ParseError(
                    f"gamma arity {k} outside 2..{MAX_GAMMA_ARITY}", lineno, line.find(toks[1]) + 1
                )
            rows, pos = _read_matrix(lines, pos + 1, n ** (k - 1), n, f"gamma {k}", n)
            gamma.append((k, tuple(v for row in rows for v in row)))
            if k == 2:
                gamma_line = lineno
        else:
            raise ParseError(f"unknown record {head!r}", lineno, 1)

    missing = sorted(set(range(n)) - set(star))
    if missing:
        raise ParseError(f"missing star blocks for g = {missing}", lines[0][0])
    star_tuple = tuple(star[g] for g in range(n))

    if group_line is not None:
        lineno, line, toks = group_line
        identity = None
        inverse: list[int] = []
        mode = None
        for tok in toks[1:]:
            if tok.startswith("identity="):
                identity = _parse_int(tok.split("=", 1)[1], lineno, line)
                mode = None
            elif tok.startswith("inverse="):
                inverse.append(_parse_int(tok.split("=", 1)[1], lineno, line))
                mode = "inverse"
            elif mode == "inverse":
                inverse.append(_parse_int(tok, lineno, line))
            else:
                raise ParseError(f"unexpected token {tok!r} in group record", lineno)
        if identity is None or len(inverse) != n:
            raise ParseError("group record needs identity=<k> inverse=<perm>", lineno)
        if not all(0 <= v < n for v in (identity, *inverse)):
            raise ParseError("group record entries out of range", lineno)
        if oplus is not None:
            group = GroupTable(oplus, identity, tuple(inverse))
        else:
            raise ParseError("group record requires an oplus block holding the product", lineno)

    rho_tuple = None
    if rho:
        missing = sorted(set(range(m)) - set(rho))
        if missing:
            raise ParseError(f"missing rho rows for x = {missing}", lines[0][0])
        rho_tuple = tuple(rho[x] for x in range(m))

    try:
        return SystemData(
            x_size=m,
            g_size=n,
            star=star_tuple,
            f_map=f_map,
            otimes=otimes,
            group=group,
            oplus=oplus,
            gamma=tuple(gamma),
            rho=rho_tuple,
        )
    except ValueError as exc:
        # every check that a single block can fail is made above; what is
        # left spans blocks, such as gamma 2 against oplus
        raise ParseError(str(exc), gamma_line or lines[0][0]) from None


def serialize_axet(a: AxetData) -> str:
    lines = ["axet", f"X {a.x_size}", f"S {a.s_group.size}"]
    lines.extend(" ".join(str(v) for v in row) for row in a.s_group.table.entries)
    lines.append(f"identity {a.s_group.identity}")
    lines.append(f"G {a.g_group.size}")
    lines.extend(" ".join(str(v) for v in row) for row in a.g_group.table.entries)
    lines.append(f"identity {a.g_group.identity}")
    for g in range(a.g_group.size):
        lines.append(f"action {g} = " + " ".join(str(v) for v in a.action[g]))
    lines.append("tau")
    lines.extend(" ".join(str(v) for v in row) for row in a.tau)
    return "\n".join(lines) + "\n"


def parse_axet(text: str) -> AxetData:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "axet":
        raise ParseError("expected 'axet' header", lines[0][0] if lines else 1)
    pos = 1

    def next_line(what):
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file: expected {what}", lines[-1][0])
        return lines[pos]

    def expect_size(key):
        nonlocal pos
        lineno, line = next_line(f"'{key} <size>'")
        toks = line.split()
        if len(toks) != 2 or toks[0] != key:
            raise ParseError(f"expected '{key} <size>'", lineno, 1)
        size = _parse_int(toks[1], lineno, line)
        if size <= 0:
            raise ParseError(f"{key} size must be positive", lineno, line.find(toks[1]) + 1)
        pos += 1
        return size

    def read_group(size):
        nonlocal pos
        rows, pos = _read_matrix(lines, pos, size, size, "group table", size)
        lineno, line = next_line("'identity <k>'")
        toks = line.split()
        if len(toks) != 2 or toks[0] != "identity":
            raise ParseError("expected 'identity <k>'", lineno, 1)
        identity = _parse_int(toks[1], lineno, line)
        if not 0 <= identity < size:
            raise ParseError(f"identity {identity} out of range", lineno, line.find(toks[1]) + 1)
        pos += 1
        try:
            return group_from_table(OperationTable(size, rows), identity=identity)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    m = expect_size("X")
    s_group = read_group(expect_size("S"))
    g_group = read_group(expect_size("G"))
    action: dict[int, tuple[int, ...]] = {}
    while pos < len(lines) and lines[pos][1].split()[0] == "action":
        lineno, line = lines[pos]
        toks = line.split()
        if len(toks) < 4 or toks[2] != "=":
            raise ParseError("expected 'action <g> = <permutation>'", lineno, 1)
        g = _parse_int(toks[1], lineno, line)
        if not 0 <= g < g_group.size:
            raise ParseError(f"action {g} out of range", lineno, line.find(toks[1]) + 1)
        action[g] = tuple(_parse_int(t, lineno, line) for t in toks[3:])
        if sorted(action[g]) != list(range(m)):
            raise ParseError(f"action {g} must permute X", lineno, 1)
        pos += 1
    if pos >= len(lines) or lines[pos][1] != "tau":
        raise ParseError("expected 'tau' block", lines[pos - 1][0])
    tau, pos = _read_matrix(lines, pos + 1, m, s_group.size, "tau", g_group.size)
    if pos < len(lines):
        raise ParseError("unexpected content after the tau block", lines[pos][0], 1)
    missing = sorted(set(range(g_group.size)) - set(action))
    if missing:
        raise ParseError(f"missing action rows for g = {missing}", lines[0][0])
    return AxetData(
        s_group=s_group,
        g_group=g_group,
        action=tuple(action[g] for g in range(g_group.size)),
        tau=tau,
    )
