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

Reports are those of an element-by-element scan, which checks the axioms
of a kind in turn (qf1 with qf2 for each a, tc6a with tc6b for each
(x, g, h)) and runs over the G elements that pick a table (g, h, q, the x
of rho_x, the arguments gs of Gamma) before the others, lexicographically;
tc2 and nc3 scan h before g, nc2 scans rest before (h1, h2), and fw2 keeps
only the first bad column for each (g, h).  The checks compare whole
tables, rows or columns, each distinct tuple of star tables once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import chain, product, repeat
from operator import add, getitem

from .tables import (
    AxiomReport,
    GroupTable,
    OperationTable,
    ParseError,
    ReportBuilder,
    _associativity_misses,
    _column_collision,
    _composer,
    _content_lines,
    _distributivity_misses,
    _parse_int,
    _read_matrix,
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
    * ``group`` is present when G is a group.  It supplies (x) as
      conjugation and (+) as its product where they are not given.
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
            if any(min(r) < 0 or max(r) >= self.g_size for r in rows):
                raise ValueError("f_map entries out of range")
            object.__setattr__(self, "f_map", rows)
        if self.group is not None:
            if self.group.size != self.g_size:
                raise ValueError("group must act on G")
            if self.otimes is None:
                object.__setattr__(self, "otimes", self.group.conjugation)
            if self.oplus is None:
                object.__setattr__(self, "oplus", self.group.table)
        for table, name in ((self.otimes, "otimes"), (self.oplus, "oplus")):
            if table is not None and table.size != self.g_size:
                raise ValueError(f"{name} must act on G")
        gamma = tuple(sorted((int(k), tuple(flat)) for k, flat in self.gamma))
        for k, flat in gamma:
            if not 2 <= k <= MAX_GAMMA_ARITY:
                raise ValueError(f"gamma arity {k} outside 2..{MAX_GAMMA_ARITY}")
            if len(flat) != self.g_size**k:
                raise ValueError(f"gamma[{k}] must have g_size^{k} entries")
            if min(flat) < 0 or max(flat) >= self.g_size:
                raise ValueError("gamma entries out of range")
        object.__setattr__(self, "gamma", gamma)
        if self.oplus is not None:
            for k, flat in gamma:
                if k == 2 and flat != tuple(chain.from_iterable(self.oplus.entries)):
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

    @cached_property
    def _gammas(self) -> dict[int, tuple[int, ...]]:
        gammas = dict(self.gamma)
        if 2 not in gammas and self.oplus is not None:
            gammas[2] = tuple(chain.from_iterable(self.oplus.entries))
        return gammas

    def gamma_table(self, arity: int) -> tuple[int, ...] | None:
        """Gamma as a flat row-major table; at arity 2, (+) unless stored.
        Built on first use and kept."""
        return self._gammas.get(arity)

    @cached_property
    def gamma_arities(self) -> tuple[int, ...]:
        """The arities ``gamma_table`` answers for, in increasing order."""
        return tuple(sorted(self._gammas))

    @cached_property
    def _gamma_inverses(self) -> dict[tuple[int, int], tuple[int, ...] | None]:
        return {}

    def gamma_inverse(self, arity: int, argument: int) -> tuple[int, ...] | None:
        """The flat table inv of Gamma's shape that solves for one argument
        i: where idx holds the arguments gs, inv[idx] is the g with
        Gamma(gs with g at place i) = gs[i].  None where Gamma is not a
        bijection of argument i once the others are fixed, or the system
        has no Gamma of this arity.  Built on first use and kept."""
        key = (arity, argument)
        if key not in self._gamma_inverses:
            flat = self.gamma_table(arity)
            n = self.g_size
            self._gamma_inverses[key] = None if flat is None else _argument_inverse(
                flat, n, n ** (arity - 1 - argument))
        return self._gamma_inverses[key]

    @cached_property
    def rho_inverse(self) -> tuple[tuple[int, ...], ...] | None:
        """rho_x^-1 for each x, built on first use and kept."""
        if self.rho is None:
            return None
        return tuple(tuple(sorted(range(self.g_size), key=r.__getitem__)) for r in self.rho)

    @cached_property
    def flat_rho(self) -> tuple[int, ...]:
        """The involution (x, g) -> (x, rho_x(g)) as a permutation of pair
        indices, built on first use and kept."""
        if self.rho is None:
            raise ValueError("system has no involution rho")
        n = self.g_size
        return tuple(x * n + h for x, r in enumerate(self.rho) for h in r)

    @cached_property
    def symmetry_verdicts(self) -> dict[frozenset[int], tuple[int, ...] | None]:
        """Per set of vertex arities, the y whose right translations of the
        associated quandle respect the vertex rules, or None where a
        translation that generates its components breaks one, as
        ``coloring`` finds it.  Filled there and kept."""
        return {}

    @cached_property
    def scope_problems(self) -> dict[str, tuple[str, ...]]:
        """Per fuzzing scope, the problems ``moves.validate_scope`` finds
        with the scope's hypotheses.  Filled there and kept."""
        return {}

    @cached_property
    def _associated(self) -> tuple[OperationTable, AxiomReport]:
        """``associated_quandle(self)``, built on first use and kept."""
        if self.otimes is None:
            raise ValueError("system has neither otimes nor a group")
        otimes = self.otimes.entries
        if self.f_map is None:
            raise ValueError("system has no f map")
        m, n = self.x_size, self.g_size
        if m == 1 or n == 1:  # the product is (x) on G, or *_0 on X
            table = self.otimes if m == 1 else self.star[0]
            return table, validate_axioms(table, "quandle")
        # flat[x][y * n + k] = (x *_k y) * n, the first part of a pair index
        flat = [
            tuple(map(n.__mul__, chain.from_iterable(zip(*(op.entries[x] for op in self.star)))))
            for x in range(m)]
        base = tuple(y * n for y in range(m) for _ in range(n))
        # row (x, g), over y and then h, holds the pair (x *_{f(g,h)} y,
        # g (x) h): flat[x] read at y * n + f(g, h), plus g (x) h
        reads = [(_composer(tuple(map(add, base, f_row * m))), ot_row * m)
                 for f_row, ot_row in zip(self.f_map, otimes)]
        rows = tuple(
            tuple(map(add, pick(flat[x]), second)) for x in range(m) for pick, second in reads)
        table = OperationTable._trusted(m * n, rows)
        return table, validate_axioms(table, "quandle")


def _argument_inverse(flat: tuple[int, ...], n: int, stride: int) -> tuple[int, ...] | None:
    """The inverse of a flat table in its digit of weight ``stride``, one
    fibre (that digit running, the others fixed) at a time, or None if a
    fibre is not a permutation."""
    inv = [0] * len(flat)
    block, digits = n * stride, range(n)
    for start in range(0, len(flat), block):
        for s in range(start, start + stride):
            digit_of = dict(zip(flat[s : s + block : stride], digits))
            if len(digit_of) < n:
                return None
            inv[s : s + block : stride] = map(digit_of.__getitem__, digits)
    return tuple(inv)


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
        group=group,
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
        group=group_from_table(one),
        rho=tuple((0,) for _ in range(table.size)),
    )


def associated_quandle(data: SystemData) -> tuple[OperationTable, AxiomReport]:
    """The product table (x, g) . (y, h) = (x *_{f(g,h)} y, g (x) h) of the
    system and its report as a quandle, built on first use and kept on
    ``data``.  The pair (x, g) is at index x * g_size + g.  Where X has
    one element the product is (x) itself, and where G has one it is
    *_0, so that table is returned, not a copy."""
    return data._associated


# ---------------------------------------------------------------------------
# family validation


class _Family:
    """The tables of one system as the checks read them, None where the
    system lacks them.  Equal star tables share one index: the first g
    with that table."""

    def __init__(self, data: SystemData, arities=()):
        self.data, self.m, self.n = data, data.x_size, data.g_size
        self.arities = tuple(dict.fromkeys(arities))  # each once, first seen first
        first: dict = {}
        self.star = tuple(first.setdefault(op.entries, g) for g, op in enumerate(data.star))
        # f[g][h] is the index of *_{f(g,h)}
        self.f = data.f_map and tuple(_composer(row)(self.star) for row in data.f_map)
        self.group, self.rho = data.group, data.rho
        self.otimes, self.oplus = data.otimes, data.oplus
        self._composites: dict = {}  # by key, once worked out
        self._distributes: dict = {}

    def diagonal(self, k: int) -> list[int]:
        """The x with x *_k x != x."""
        return [x for x, row in enumerate(self.data.star[k].entries) if row[x] != x]

    def collisions(self, k: int) -> list[tuple[int, ...]]:
        """(y, i1, i2) for each column y of *_k that is not a permutation,
        i1 < i2 its first repeat."""
        op = self.data.star[k]
        return [(y, *_column_collision(op, y))
                for y, col in enumerate(op.columns) if len(set(col)) < self.m]

    def composite(self, seq: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Column y of x -> (..(x *_{seq[0]} y)..) *_{seq[-1]} y, for each y."""
        if seq not in self._composites:
            cols = self.data.star[seq[0]].columns
            for k in seq[1:]:
                cols = tuple(_composer(c)(d) for c, d in zip(cols, self.data.star[k].columns))
            self._composites[seq] = cols
        return self._composites[seq]

    def distributes(self, key) -> bool:
        if key not in self._distributes:
            self._distributes[key] = next(self.distributivity_witnesses(key), None) is None
        return self._distributes[key]

    def composes(self, key) -> bool:
        return self.composite(key[0]) == self.composite(key[1])

    def composition_witnesses(self, key):
        """(x, y) where the composites of key[0] and key[1] differ."""
        left, right = self.composite(key[0]), self.composite(key[1])
        return ((x, y) for x in range(self.m) for y in range(self.m) if left[y][x] != right[y][x])

    def distributivity_witnesses(self, key):
        """(x, y, z) with (x *_A y) *_B z != (x *_C z) *_D (y *_E z), for
        key = (A, B, C, D, E)."""
        return _distributivity_misses(*_composer(key)(self.data.star))


def _failing(blocks, keys, holds):
    """The (block, key) pairs, in scan order, whose key fails ``holds``.
    Each distinct key is tested once."""
    keys = list(keys)
    bad = {key for key in set(keys) if not holds(key)}
    return ((block, key) for block, key in zip(blocks, keys) if key in bad) if bad else ()


def _subscript_misses(fam: _Family, arity: int, nested):
    """(x, y) + gs where (..(x *_{g1} y)..) *_{gk} y != x *_{Gamma(gs)} y,
    for Gamma(gs) = nested[g1]..[gk]."""
    s, blocks = fam.star, list(product(range(fam.n), repeat=arity))
    keys = ((tuple(map(s.__getitem__, gs)), (s[reduce(getitem, gs, nested)],)) for gs in blocks)
    failing = _failing(blocks, keys, fam.composes)
    return (w + gs for gs, key in failing for w in fam.composition_witnesses(key))


def _untwisted_misses(fam: _Family, product_of):
    """(x, y, z, g, h) where (x *_g y) *_h z != (x *_h z) *_{gh} (y *_h z),
    for gh = product_of(g, h)."""
    s, blocks = fam.star, list(product(range(fam.n), repeat=2))
    keys = ((s[g], s[h], s[h], s[product_of(g, h)], s[h]) for g, h in blocks)
    failing = _failing(blocks, keys, fam.distributes)
    return (w + gh for gh, key in failing for w in fam.distributivity_witnesses(key))


def _twisted_misses(fam: _Family, form, holds, witnesses):
    """w + (g, h, q) for each witness w of each key = form(A, B, C, D, E)
    that fails ``holds``, for the indices A = f(g,h), B = f(g(x)h, q),
    C = f(g,q), D = f(g(x)q, h(x)q) and E = f(h,q), a row over q at a time."""
    n, f, ot = fam.n, fam.f, fam.otimes.entries
    at = [_composer(row)(f) for row in ot]  # at[g][q] = row g (x) q of f
    rows = ((f[g][h], f[ot[g][h]], f[g], tuple(map(getitem, at[g], ot[h])), f[h])
            for g in range(n) for h in range(n))

    def keys(rows):
        return form(repeat(rows[0]), *rows[1:])

    failing = _failing(product(range(n), repeat=2), rows, lambda r: all(map(holds, set(keys(r)))))
    return (w + gh + (q,) for gh, rows in failing
            for q, key in enumerate(keys(rows)) if not holds(key) for w in witnesses(key))


def _fw3_misses(fam: _Family):
    return _twisted_misses(fam, zip, fam.distributes, fam.distributivity_witnesses)


def _rho_misses(fam: _Family):
    """(x, g) with rho_x(rho_x(g)) != g."""
    return ((x, g) for x, r in enumerate(fam.data.rho) for g in range(fam.n) if r[r[g]] != g)


def _f_first_misses(fam: _Family):
    """(g, h) with f(g, h) != f(0, h), over h and then g."""
    f = fam.data.f_map
    return ((g, h) for h in range(fam.n) for g in range(1, fam.n) if f[g][h] != f[0][h])


def _swap_misses(fam: _Family, arity: int, nested):
    """(h1, h2) + rest with Gamma(h2, h1 (x) h2, rest) != Gamma(h1, h2, rest),
    over rest and then (h1, h2)."""
    r, ot = range(fam.n), fam.otimes.entries
    return ((h1, h2) + rest for rest in product(r, repeat=arity - 2) for h1 in r for h2 in r
            if reduce(getitem, (h2, ot[h1][h2]) + rest, nested)
            != reduce(getitem, (h1, h2) + rest, nested))


def _f_hom_misses(fam: _Family, arity: int, nested):
    """gs with f(0, Gamma(gs)) != Gamma(f(0, g) for g in gs)."""
    f0 = fam.data.f_map[0]
    return (gs for gs in product(range(fam.n), repeat=arity)
            if f0[reduce(getitem, gs, nested)] != reduce(getitem, map(f0.__getitem__, gs), nested))


def _column_misses(n: int, arity: int, lhs, rhs):
    """(h,) + gs wherever lhs(gs)[h] != rhs(gs)[h], over gs and then h."""
    for gs in product(range(n), repeat=arity):
        left, right = lhs(gs), rhs(gs)
        if left != right:
            yield from ((h,) + gs for h in range(n) if left[h] != right[h])


def _rotation_misses(fam: _Family, arity: int, nested):
    """(x, i) + gs where rho_x(Gamma(gs)), wrapped i places around gs, does
    not give rho_x of the argument it replaces."""
    for x, r in enumerate(fam.data.rho):
        for gs in product(range(fam.n), repeat=arity):
            folded = r[reduce(getitem, gs, nested)]
            for i in range(arity):
                args = gs[arity - i :] + (folded,) + gs[: arity - i - 1]
                if reduce(getitem, args, nested) != r[gs[arity - i - 1]]:
                    yield (x, i) + gs


def _check_qf1_qf2(fam: _Family, rb: ReportBuilder) -> None:
    """qf1 then qf2 for each a, in one scan."""
    for a, k in enumerate(fam.star):
        for x in fam.diagonal(k):
            rb.hit("qf1", (x, a))
        for c in fam.collisions(k):
            rb.hit("qf2", (a,) + c)


def _check_tc6(fam: _Family, rb: ReportBuilder) -> None:
    """tc6a then tc6b for each (x, g, h), in one scan."""
    oplus = fam.oplus.entries
    for x, r in enumerate(fam.data.rho):
        for g, h in product(range(fam.n), repeat=2):
            if oplus[h][r[oplus[g][h]]] != r[g]:
                rb.hit("tc6a", (x, g, h))
            if oplus[r[oplus[g][h]]][g] != r[h]:
                rb.hit("tc6b", (x, g, h))


def _check_n_compatible(fam: _Family, rb: ReportBuilder) -> None:
    if not fam.arities:
        raise ValueError("n_compatible requires a list of arities")
    n, ot, cols = fam.n, fam.otimes.entries, fam.otimes.columns
    for arity in fam.arities:
        flat = fam.data.gamma_table(arity)
        if flat is None:
            raise ValueError(f"n_compatible({arity}) requires an arity-{arity} gamma table")
        nested = flat  # nested[g1][g2]..[gk] = Gamma(g1, .., gk)
        for _ in range(arity - 1):
            nested = tuple(nested[i : i + n] for i in range(0, len(nested), n))
        tag = f"[{arity}]"
        rb.hit_first("rho-inv" + tag, _rho_misses(fam))
        rb.hit_first("nc1" + tag, _subscript_misses(fam, arity, nested))
        rb.hit_first("nc2" + tag, _swap_misses(fam, arity, nested))
        rb.hit_first("nc3" + tag, _f_first_misses(fam))
        # column Gamma(gs) of (x) against the composite of its columns gs
        rb.hit_first("nc4" + tag, _column_misses(
            n, arity, lambda gs: cols[reduce(getitem, gs, nested)],
            lambda gs: reduce(lambda acc, g: _composer(acc)(cols[g]), gs[1:], cols[gs[0]])))
        rb.hit_first("nc5" + tag, _f_hom_misses(fam, arity, nested))
        # row Gamma(gs) of (x) against Gamma of its rows gs, entry by entry
        rb.hit_first("nc6" + tag, _column_misses(
            n, arity, lambda gs: ot[reduce(getitem, gs, nested)],
            lambda gs: reduce(lambda acc, g: tuple(map(getitem, acc, ot[g])), gs[1:],
                              _composer(ot[gs[0]])(nested))))
        rb.hit_first("nc7" + tag, _rotation_misses(fam, arity, nested))


def _hits(axiom: str, witnesses):
    """The check that records witnesses(fam) under one axiom id."""
    return lambda fam, rb: rb.hit_first(axiom, witnesses(fam))


def _g_family_checks(prefix: str, third):
    """Idempotency, *_e trivial, *_{gh} = *_g then *_h, and ``third``."""
    return (
        _hits(prefix + "1", lambda fam: (
            (x, g) for g, k in enumerate(fam.star) for x in fam.diagonal(k))),
        _hits(prefix + "2-unit", lambda fam: (
            (x, y) for x, row in enumerate(fam.data.star[fam.data.group.identity].entries)
            for y, v in enumerate(row) if v != x)),
        _hits(prefix + "2-prod", lambda fam: _subscript_misses(
            fam, 2, fam.data.group.table.entries)),
        _hits(prefix + "3", third),
    )


_FW_CHECKS = (
    _hits("fw1", lambda fam: ((x, g) for g, row in enumerate(fam.f) for x in fam.diagonal(row[g]))),
    _hits("fw2", lambda fam: (  # the first column that is not a permutation
        (g, h) + c for g, row in enumerate(fam.f) for h, k in enumerate(row)
        for c in fam.collisions(k)[:1])),
    _hits("fw3", _fw3_misses),
)

# kind -> (required fields, checks in report order)
_KINDS = {
    "g_family": (("group",), _g_family_checks(
        "gf", lambda fam: _untwisted_misses(fam, fam.data.group.conjugate))),
    "gsf_family": (("group", "f", "otimes"),
                   (lambda fam, rb: rb.merge(validate_axioms(fam.otimes, "quandle"), "gq-"),)
                   + _g_family_checks("gsf", _fw3_misses)),
    "q_family": (("otimes",), (
        lambda fam, rb: rb.merge(validate_axioms(fam.otimes, "quandle"), "qq-"),
        _check_qf1_qf2,
        _hits("qf3", lambda fam: _untwisted_misses(fam, lambda a, b: fam.otimes.entries[a][b])),
    )),
    "fw_system": (("f", "otimes"), _FW_CHECKS),
    "trivalent_compatible": (("f", "otimes", "oplus", "rho"), _FW_CHECKS + (
        _hits("oplus-def", lambda fam: _subscript_misses(fam, 2, fam.oplus.entries)),
        _hits("rho-inv", _rho_misses),
        _hits("tc1", lambda fam: _swap_misses(fam, 2, fam.oplus.entries)),
        _hits("tc2", _f_first_misses),
        _hits("tc3", lambda fam: _associativity_misses(fam.otimes, fam.oplus)),
        _hits("tc4", lambda fam: _f_hom_misses(fam, 2, fam.oplus.entries)),
        # (u (+) v) (x) g against (u (x) g) (+) (v (x) g)
        _hits("tc5", lambda fam: _distributivity_misses(
            fam.oplus, fam.otimes, fam.otimes, fam.oplus, fam.otimes)),
        _check_tc6,
    )),
    "associative_composition": (("oplus",), (
        _hits("assoc", lambda fam: _associativity_misses(fam.oplus)),)),
    "n_compatible": (("f", "otimes", "rho"), (_check_n_compatible,)),
}


def validate_family(data: SystemData, kind: str, arities=()) -> AxiomReport:
    """Check the axioms of the named structure at every element tuple of
    the finite carriers; see the module docstring for axiom ids and report
    order.  ``arities`` lists the arities checked by ``n_compatible``."""
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    fields, checks = _KINDS[kind]
    fam = _Family(data, arities)
    missing = [field for field in fields if getattr(fam, field) is None]
    if missing:
        raise ValueError(f"kind {kind!r} requires: {', '.join(missing)}")
    rb = ReportBuilder()
    for check in checks:
        check(fam, rb)
    return rb.report()


def check_lemma_for(data: SystemData) -> AxiomReport:
    """Verify x *_{f(g,h) then f(g*h,q)} y = x *_{f(g,q) then f(g*q,h*q)} y,
    the subscript product applied sequentially.

    Requires the data to validate as a gsf_family.
    """
    pre = validate_family(data, "gsf_family")
    if not pre.valid:
        raise ValueError(f"not a valid gsf_family: {pre.violations[:4]}")
    fam = _Family(data)
    rb = ReportBuilder()
    # (x *_A y) *_B y against (x *_C y) *_D y
    keys = lambda a, b, c, d, e: zip(zip(a, b), zip(c, d))  # noqa: E731
    rb.hit_first("lemma", _twisted_misses(fam, keys, fam.composes, fam.composition_witnesses))
    return rb.report()


# ---------------------------------------------------------------------------
# fully general product quandles


def general_product_quandle(f_maps, g_maps) -> tuple[OperationTable, AxiomReport]:
    """Product operation (x,s)*(y,t) = (f_maps[s][t](x,y), g_maps[x][y](s,t))
    on X x S, with the pair (x, s) at index x * |S| + s, together with the
    exhaustive check of the three conditions equivalent to it being a
    quandle (ids bp1-f, bp1-g, bp2, bp3-f, bp3-g).
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

    m, n = x_size, s_size
    f = [[op.entries for op in row] for row in f_maps]
    g = [[op.entries for op in row] for row in g_maps]
    # divmod splits a pair index again
    table = OperationTable(m * n, tuple(
        tuple(f[s][t][x][y] * n + g[x][y][s][t] for y in range(m) for t in range(n))
        for x in range(m) for s in range(n)))
    e = table.entries
    rb = ReportBuilder()
    for p in range(m * n):
        pair = divmod(p, n)
        for axiom, got, want in zip(("bp1-f", "bp1-g"), divmod(e[p][p], n), pair):
            if got != want:
                rb.hit(axiom, pair)
    for q, col in enumerate(table.columns):
        seen: dict[int, int] = {}
        for p, v in enumerate(col):
            if v in seen:
                rb.hit("bp2", divmod(q, n) + divmod(seen[v], n) + divmod(p, n))
            else:
                seen[v] = p
    for (x, y, z), (s, t, u) in product(product(range(m), repeat=3), product(range(n), repeat=3)):
        p, q, r = x * n + s, y * n + t, z * n + u
        left, right = divmod(e[e[p][q]][r], n), divmod(e[e[p][r]][e[q][r]], n)
        for axiom, a, b in zip(("bp3-f", "bp3-g"), left, right):
            if a != b:
                rb.hit(axiom, (x, y, z, s, t, u))
    return table, rb.report()


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


def search_involutions(q: OperationTable) -> list[tuple[int, ...]]:
    """All good involutions of the quandle q, in lexicographic order.

    Right translations are bijections, so inv2 holds exactly when column
    rho(v) of q is column v of its dual, a symmetric relation.  The walk
    fixes or pairs the first unassigned element only with such partners,
    in ascending order, and ``validate_involution`` decides each leaf."""
    by_column: dict[tuple[int, ...], list[int]] = {}
    for w, col in enumerate(q.columns):
        by_column.setdefault(col, []).append(w)
    partners = [by_column.get(col, []) for col in q.dual.columns]
    found = []
    stack = [[None] * q.size]
    while stack:
        rho = stack.pop()
        if None not in rho:
            if validate_involution(q, rho).valid:
                found.append(tuple(rho))
            continue
        i = rho.index(None)
        for j in reversed(partners[i]):  # pushed last first, so popped ascending
            if j >= i and rho[j] is None:
                child = rho[:]
                child[i], child[j] = j, i
                stack.append(child)
    return found


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
    oplus = data.oplus.entries
    flat = []
    for gs in product(range(n), repeat=arity):
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
    block, so a system whose group product is not its (+) is refused."""
    lines = ["system", f"X {data.x_size}", f"G {data.g_size}"]
    if data.group is not None:
        if data.oplus != data.group.table:
            raise ValueError("cannot write a group whose product is not oplus")
        inv = " ".join(str(v) for v in data.group.inverse)
        lines.append(f"group identity={data.group.identity} inverse={inv}")
    if data.otimes is not None:
        lines.append("otimes")
        lines.extend(" ".join(str(v) for v in row) for row in data.otimes.entries)
    if data.oplus is not None:
        lines.append("oplus")
        lines.extend(" ".join(str(v) for v in row) for row in data.oplus.entries)
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
    seen = set()  # the records read so far, each of which may appear once

    def once(record, lineno: int) -> None:
        if record in seen:
            raise ParseError(f"repeated {record!r} record", lineno, 1)
        seen.add(record)

    def index(toks, lineno: int, line: str, size: int) -> int:
        v = _parse_int(toks[1], lineno, line)
        if not 0 <= v < size:
            column = line.find(toks[1]) + 1
            raise ParseError(f"{toks[0]} {v} out of range 0..{size - 1}", lineno, column)
        once(f"{toks[0]} {v}", lineno)
        return v

    while pos < len(lines):
        lineno, line = lines[pos]
        toks = line.split()
        head = toks[0]
        if head in ("group", "otimes", "oplus", "f"):
            once(head, lineno)
        if head == "group":
            group_line = (lineno, line, toks)
            pos += 1
        elif head == "otimes":
            rows, pos = _read_matrix(lines, pos + 1, n, n, n, "otimes")
            otimes = OperationTable._trusted(n, rows)
        elif head == "oplus":
            rows, pos = _read_matrix(lines, pos + 1, n, n, n, "oplus")
            oplus = OperationTable._trusted(n, rows)
        elif head == "f":
            f_map, pos = _read_matrix(lines, pos + 1, n, n, n, "f")
        elif head == "star":
            if len(toks) != 2:
                raise ParseError("expected 'star <g>'", lineno, 1)
            g = index(toks, lineno, line, n)
            rows, pos = _read_matrix(lines, pos + 1, m, m, m, f"star {g}")
            star[g] = OperationTable._trusted(m, rows)
        elif head == "rho":
            if len(toks) < 4 or toks[2] != "=":
                raise ParseError("expected 'rho <x> = <permutation>'", lineno, 1)
            x = index(toks, lineno, line, m)
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
            once(f"gamma {k}", lineno)
            rows, pos = _read_matrix(lines, pos + 1, n ** (k - 1), n, n, f"gamma {k}")
            gamma.append((k, tuple(chain.from_iterable(rows))))
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
        if oplus is None:
            raise ParseError("group record requires an oplus block holding the product", lineno)
        try:
            group = group_from_table(oplus, identity=identity)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if group.inverse != tuple(inverse):
            raise ParseError("group record inverse= is not the inverse map of oplus", lineno)

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
        rows, pos = _read_matrix(lines, pos, size, size, size, "group table")
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
        if g in action:
            raise ParseError(f"repeated 'action {g}' record", lineno, 1)
        action[g] = tuple(_parse_int(t, lineno, line) for t in toks[3:])
        if sorted(action[g]) != list(range(m)):
            raise ParseError(f"action {g} must permute X", lineno, 1)
        pos += 1
    if pos >= len(lines) or lines[pos][1] != "tau":
        raise ParseError("expected 'tau' block", lines[pos - 1][0])
    tau, pos = _read_matrix(lines, pos + 1, m, s_group.size, g_group.size, "tau")
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
