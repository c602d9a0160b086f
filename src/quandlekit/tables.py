"""Finite binary operation tables: quandle/rack/kei/group validation,
standard quandle constructors, duals, generated subalgebras and
homomorphism counting.

Elements are dense 0-based indices throughout; a table is the whole
structure.  Everything here is immutable and pure.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from operator import itemgetter

from .solve import Problem

MAX_WITNESSES = 16  # per axiom id, keeps reports bounded
BYTE_LINES_UP_TO = 256  # ``Lines`` of maps on at most this many elements are bytes


class ParseError(ValueError):
    """Malformed input text.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an exhaustive axiom check.

    ``violations`` is a tuple of (axiom id, witness) pairs; a witness is a
    tuple of element indices that, re-evaluated, violates the named axiom.
    At most MAX_WITNESSES witnesses are kept per axiom id.
    """

    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def axioms_violated(self) -> tuple[str, ...]:
        seen: list[str] = []
        for axiom, _ in self.violations:
            if axiom not in seen:
                seen.append(axiom)
        return tuple(seen)


class ReportBuilder:
    """Collects violations in first-hit axiom order, witnesses in scan order."""

    def __init__(self) -> None:
        self._order: list[str] = []
        self._buckets: dict[str, list[tuple[int, ...]]] = {}
        self._total = 0

    def hit(self, axiom: str, witness: tuple[int, ...]) -> None:
        bucket = self._buckets.get(axiom)
        if bucket is None:
            bucket = []
            self._buckets[axiom] = bucket
            self._order.append(axiom)
        self._total += 1
        if len(bucket) < MAX_WITNESSES:
            bucket.append(tuple(witness))

    def hit_first(self, axiom: str, witnesses) -> None:
        """Record witnesses from a possibly lazy iterable, taking no more
        of it than the report keeps."""
        room = MAX_WITNESSES - len(self._buckets.get(axiom, ()))
        for witness in itertools.islice(witnesses, room):
            self.hit(axiom, witness)

    def merge(self, report: AxiomReport, prefix: str = "") -> None:
        for axiom, witness in report.violations:
            self.hit(prefix + axiom, witness)

    def report(self) -> AxiomReport:
        violations = tuple(
            (axiom, witness) for axiom in self._order for witness in self._buckets[axiom]
        )
        return AxiomReport(valid=self._total == 0, violations=violations)


@dataclass(frozen=True)
class OperationTable:
    """A binary operation on {0, ..., size-1}: entries[i][j] = i * j."""

    size: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("table size must be positive")
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != self.size or any(len(row) != self.size for row in rows):
            raise ValueError(f"entries must form a {self.size}x{self.size} matrix")
        for row in rows:
            for v in row:
                if not (isinstance(v, int) and 0 <= v < self.size):
                    raise ValueError(f"entry {v!r} out of range 0..{self.size - 1}")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _trusted(cls, size: int, rows: tuple[tuple[int, ...], ...]) -> "OperationTable":
        """The table of ``rows``, which must already be a size x size tuple
        of tuples of ints in 0..size-1: rows read by ``_read_matrix``, or
        derived from a table already checked.  The entries are not walked
        again."""
        table = cls.__new__(cls)
        object.__setattr__(table, "size", size)
        object.__setattr__(table, "entries", rows)
        return table

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``columns[j][i] = i * j``, built on first use and kept."""
        return tuple(zip(*self.entries))

    @cached_property
    def _lines(self) -> dict[tuple[str, bool], "Lines"]:
        return {}

    def lines(self, side: str) -> "Lines":
        """The ``rows`` or the ``columns`` as ``Lines``, built on first use
        and kept per representation, which BYTE_LINES_UP_TO picks."""
        key = (side, self.size <= BYTE_LINES_UP_TO)
        if key not in self._lines:
            lines = self.entries if side == "rows" else self.columns
            self._lines[key] = Lines(lines, self.size)
        return self._lines[key]

    @cached_property
    def _row_factors(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    def row_factors(self, x: int) -> tuple[tuple[int, ...], ...]:
        """``row_factors(x)[z]``: the y with x * y = z, in ascending order.
        Built one row at a time, on first use, and kept."""
        rows = self._row_factors
        if x not in rows:
            factors: list[list[int]] = [[] for _ in range(self.size)]
            for y, z in enumerate(self.entries[x]):
                factors[z].append(y)
            rows[x] = tuple(map(tuple, factors))
        return rows[x]

    @cached_property
    def dual(self) -> "OperationTable":
        """``dual_operation(self)``, built on first use and kept."""
        return dual_operation(self)

    @cached_property
    def components(self) -> tuple[int, ...]:
        """The orbit of each element under the right translations,
        numbered in order of least element.  Row a holds a * y for every
        y, so the orbit of a is its closure under rows.  When the right
        translations are permutations, as in a quandle, the orbits are its
        components.  Built on first use and kept."""
        rows = self.entries
        orbit_of = [-1] * len(rows)
        orbits = 0
        for a in range(len(rows)):
            if orbit_of[a] >= 0:
                continue
            orbit, queue = {a}, [a]
            while queue:
                fresh = set(rows[queue.pop()]) - orbit
                orbit |= fresh
                queue.extend(fresh)
            for b in orbit:
                orbit_of[b] = orbits
            orbits += 1
        return tuple(orbit_of)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The size of each component at its least element and 0
        elsewhere.  Built on first use and kept."""
        weight, least = [0] * self.size, {}
        for a, orbit in enumerate(self.components):
            weight[least.setdefault(orbit, a)] += 1
        return tuple(weight)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The y whose right translations R_y generate the components: in
        order of y, each kept if R_y merges orbits of those kept before it,
        until the orbits are the components.  Built on first use and kept."""
        columns = self.columns
        parts = max(self.components) + 1
        parent = list(range(len(columns)))

        def find(p):
            while parent[p] != p:
                parent[p] = p = parent[parent[p]]
            return p

        orbits, kept = len(columns), []
        for y, column in enumerate(columns):
            if orbits == parts:
                break
            before = orbits
            for p, q in enumerate(column):
                rp, rq = find(p), find(q)
                if rp != rq:
                    parent[rp] = rq
                    orbits -= 1
            if orbits < before:
                kept.append(y)
        return tuple(kept)

    @cached_property
    def _stabilisers(self) -> "_Groups":
        return _Groups()

    def stabiliser(self, ys) -> "Stabiliser":
        """The group generated by the right translations R_y, y in ys, at
        the top of a chain of stabilisers.  They must be permutations that
        generate the components, as every R_y of a quandle does, so its
        orbits are the components, with their ``weights``.  Kept, with
        every group below it, per set of ys."""
        return _stabiliser(self.entries, self._stabilisers, tuple(ys), self.weights)


class Stabiliser:
    """The group generated by the right translations R_y of a table, for
    y in ``fixers``, with the size of each of its orbits on the values at
    the orbit's least element, 0 at its other elements and -1 where not
    yet found.  ``solve.Problem`` counts down a chain of these: each
    ``child`` is generated by the R_y here that fix one value more.

    Orbits are found only for the values a search asks about, through
    ``representatives``, and kept.  The chain shares the table's rows and
    names its dict of stabilisers by fixers weakly, so no reference cycle
    runs through it: a table let go frees its chain at once.  A chain that
    outlives its table makes each new group afresh."""

    __slots__ = ("rows", "groups", "fixers", "moves", "weight", "_at", "_children",
                 "_representatives")

    def __init__(self, rows, groups: "_Groups", fixers: tuple[int, ...], weight=None) -> None:
        self.rows, self.groups, self.fixers = rows, weakref.ref(groups), fixers
        # row a -> (a * y for y in fixers)
        self._at = _composer(fixers) if fixers else lambda row: ()
        self.moves = any(at != (a,) * len(fixers) for a, at in enumerate(map(self._at, rows)))
        self.weight = [-1] * len(rows) if weight is None else list(weight)
        self._children: dict[int, Stabiliser | bool | None] = {}  # True: this group
        self._representatives: dict = {}

    def child(self, w: int) -> "Stabiliser | None":
        """The group generated by the R_y here that fix w, that is with
        w * y = w: this group when every one does, None when those that do
        all act as the identity."""
        children = self._children
        if w not in children:
            fixing = map(w.__eq__, self._at(self.rows[w]))
            fixers = tuple(itertools.compress(self.fixers, fixing))
            group = self
            if len(fixers) < len(self.fixers):
                groups = self.groups()  # None once the table is let go
                group = _stabiliser(self.rows, _Groups() if groups is None else groups, fixers)
            children[w] = (group is self or group) if group.moves else None
        group = children[w]
        return self if group is True else group

    def representatives(self, candidates) -> tuple[int, ...]:
        """The values of ``candidates``, a tuple or range that is a union
        of orbits, that are least in their orbits, in the order given."""
        reps = self._representatives.get(candidates)
        if reps is None:
            weight = self.weight
            for c in candidates:
                if weight[c] < 0:
                    orbit = self.orbit(c)
                    for b in orbit:
                        weight[b] = 0
                    weight[min(orbit)] = len(orbit)
            reps = self._representatives[candidates] = tuple(c for c in candidates if weight[c])
        return reps

    def orbit(self, c: int) -> set[int]:
        """The orbit of c: its closure under c -> c * y for y in ``fixers``."""
        rows, at = self.rows, self._at
        orbit, queue = {c}, [c]
        while queue:
            fresh = set(at(rows[queue.pop()])) - orbit
            orbit |= fresh
            queue.extend(fresh)
        return orbit


class _Groups(dict):
    """A table's stabilisers by their fixers, which they name weakly."""

    __slots__ = ("__weakref__",)


def _stabiliser(rows, groups: _Groups, fixers: tuple[int, ...], weight=None) -> Stabiliser:
    """The stabiliser of ``fixers`` in ``groups``, made and kept there on
    first use."""
    if fixers not in groups:
        groups[fixers] = Stabiliser(rows, groups, fixers, weight)
    return groups[fixers]


def table_from(size: int, op) -> OperationTable:
    """Build a table from a callable op(i, j)."""
    return OperationTable(size, tuple(tuple(op(i, j) for j in range(size)) for i in range(size)))


def _column_collision(table: OperationTable, j: int) -> tuple[int, int] | None:
    """First (i1, i2) with i1 < i2 and i1*j == i2*j, or None if column j is a permutation."""
    seen: dict[int, int] = {}
    for i in range(table.size):
        v = table.entries[i][j]
        if v in seen:
            return seen[v], i
        seen[v] = i
    return None


def _composer(p: tuple[int, ...]):
    """The map q -> q o p, that is (q[p[0]], q[p[1]], ...), run at C speed."""
    if len(p) == 1:
        (i,) = p
        return lambda q: (q[i],)
    return itemgetter(*p)


class Lines:
    """Lines of n entries each -- the rows or the columns of a table, the
    rows of a flat Gamma table -- that are maps of range(n) into itself,
    held so that whole lines compose at C speed.  ``after``, ``before``
    and ``pick`` return their lines joined end to end, so two results
    compare whole and line j is the slice [j * n, (j + 1) * n).

    With n <= BYTE_LINES_UP_TO a line is bytes, and q o p, the line
    i -> q[p[i]], is ``p.translate(q padded to 256)``.  A byte cannot hold
    larger values, so larger lines stay tuples, composed by ``itemgetter``.
    """

    __slots__ = ("n", "as_bytes", "lines", "flat", "_tables", "_range", "_after")

    def __init__(self, lines, n: int) -> None:
        self.n, self.as_bytes = n, n <= BYTE_LINES_UP_TO
        if self.as_bytes:
            self.lines = list(map(bytes, lines))
            self.flat = b"".join(self.lines)
            pad = bytes(256 - n)
            # line q as the table that maps p to q o p
            self._tables = [line + pad for line in self.lines]
            self._range = bytes(range(n))
        else:
            self.lines = list(map(tuple, lines))
            self.flat = tuple(itertools.chain.from_iterable(self.lines))
            self._after = None

    def after(self, q):
        """q o p for every line p, in order."""
        if self.as_bytes:
            return self.flat.translate(bytes(q) + bytes(256 - self.n))
        if self._after is None:
            self._after = _composer(self.flat)
        return self._after(q)

    def before(self, p, picks):
        """lines[m] o p for every m in ``picks``, in order."""
        if self.as_bytes:
            return b"".join(map(bytes(p).translate, map(self._tables.__getitem__, picks)))
        composed = map(_composer(p), map(self.lines.__getitem__, picks))
        return tuple(itertools.chain.from_iterable(composed))

    def around(self, p, inner: "Lines", picks):
        """lines[m] o p o inner.lines[j] for every j, with m = picks[j], in
        order of j."""
        if self.as_bytes:
            p = bytes(p) + bytes(256 - self.n)
            inner = map(bytes.translate, inner.lines, itertools.repeat(p))
            return b"".join(map(bytes.translate, inner, map(self._tables.__getitem__, picks)))
        inner = (_composer(q)(p) for q in inner.lines)
        return tuple(itertools.chain.from_iterable(
            _composer(q)(self.lines[m]) for q, m in zip(inner, picks)))

    def pick(self, picks):
        """lines[m] for every m in ``picks``, in order."""
        joined = map(self.lines.__getitem__, picks)
        return b"".join(joined) if self.as_bytes else tuple(itertools.chain.from_iterable(joined))

    def inverse(self, j):
        """The inverse of line j as a line, or None if line j is not a
        permutation."""
        line, n = self.lines[j], self.n
        if self.as_bytes:
            # a value missing from the line maps to itself, which the line
            # does not map back to it
            inverse = bytes.maketrans(line, self._range)[:n]
            return inverse if inverse.translate(self._tables[j]) == self._range else None
        if len(set(line)) < n:
            return None
        inverse = [0] * n
        for i, v in enumerate(line):
            inverse[v] = i
        return tuple(inverse)


def _close(lines, members: set[int], new: set[int]) -> None:
    """Add the elements of ``new`` to ``members``, a set closed under some
    operations that holds none of them, and close it again.

    ``lines`` holds the ``Lines`` of the rows and of the columns of each
    operation, so the products a*b and b*a of an element a with every
    member b are read off row a and column a.  Each element meets the
    members once, when it leaves the queue, so closing one element at a
    time costs no more than closing all at once.
    """
    members |= new
    queue = list(new)
    if lines[0].as_bytes:
        # the members in order of arrival; the products of a with all of
        # them are read off at once, and the members deleted from those
        order = bytearray(members)
        tables = [line._tables for line in lines]
        while queue:
            a = queue.pop()
            fresh = b"".join([order.translate(table[a]) for table in tables])
            fresh = fresh.translate(None, order)
            if fresh:
                fresh = set(fresh)
                members |= fresh
                order.extend(fresh)
                queue.extend(fresh)
        return
    while queue:
        a = queue.pop()
        at_members = _composer(tuple(members))
        fresh: set[int] = set()
        for line in lines:
            fresh.update(at_members(line.lines[a]))
        fresh -= members
        members |= fresh
        queue.extend(fresh)


def _mismatches(n: int, lhs, rhs, lines) -> list[tuple[int, list[int]]]:
    """Where line j of lhs(k) differs from line j of rhs(k) over every
    k < n, as (j, [k, ...]) pairs in increasing order of j and of k.  Each
    side is n lines of n entries joined end to end, as ``Lines`` gives.

    When ``lines`` is not empty, the k with lhs(k) == rhs(k) must form a
    set closed under its operations.  Then every k inside the closure of
    the k already found good is skipped, since it is good too.
    """
    good: set[int] = set()
    ks: dict[int, list[int]] = {}
    for k in range(n):
        if k in good:
            continue
        left, right = lhs(k), rhs(k)
        if left != right:
            for j, start in enumerate(range(0, n * n, n)):
                if left[start : start + n] != right[start : start + n]:
                    ks.setdefault(j, []).append(k)
        elif lines:
            _close(lines, good, {k})
    return sorted(ks.items())


def _distributivity_misses(a, b, c, d, e, closed=False):
    """The (x, y, z) with b[a[x][y]][z] != d[c[x][z]][e[y][z]], in scan
    order, for tables a to e on one carrier: Q3 when all five are one
    table, the twisted self-distributivity of the family axioms otherwise.

    Column y of each side, x -> b[a[x][y]][z] against x -> d[c[x][z]][e[y][z]],
    is compared whole for every z, and witnesses are scanned only in the
    failing columns.  ``closed`` says that the z at which the identity
    holds are closed under the one operation a, as they are for Q3 when
    Q2 holds; then only a generating set of them is checked.  Otherwise
    both sides are first compared for every z at once.
    """
    columns, d_columns = a.lines("columns"), d.lines("columns")
    b_cols, c_cols, e_cols = b.columns, c.columns, e.columns
    if not closed and [*map(columns.after, b_cols)] == [*map(d_columns.before, c_cols, e_cols)]:
        return  # every z holds
    candidates = _mismatches(
        a.size,
        lambda z: columns.after(b_cols[z]),
        lambda z: d_columns.before(c_cols[z], e_cols[z]),
        (a.lines("rows"), columns) if closed else (),
    )
    a, b, c, d, e = (t.entries for t in (a, b, c, d, e))
    for x, (ax, cx) in enumerate(zip(a, c)):
        for y, zs in candidates:
            left, ey = b[ax[y]], e[y]
            for z in zs:
                if left[z] != d[cx[z]][ey[z]]:
                    yield x, y, z


def _assoc_witnesses(e, m, candidates):
    """The (x, a, y) with (x.a).y != x.(a*y), in scan order, for the left
    elements x and the middle elements a listed with them, where . is the
    operation e and * the operation m."""
    n = len(e)
    for x, middles in candidates:
        row = e[x]
        for a in middles:
            xa, arow = e[row[a]], m[a]
            for y in range(n):
                if xa[y] != row[arow[y]]:
                    yield x, a, y


def _associativity_misses(table: OperationTable, middle: OperationTable | None = None):
    """The (x, a, y) with (x.a).y != x.(a*y), in scan order, where . is
    ``table`` and * is ``middle``, or ``table`` again when it is None.

    Light's test over rows: row(x.a) against row_x o row_a, for every x.
    With one operation, the middle elements a at which it associates are
    closed under it, so only a generating set of them is checked.
    """
    e = table.entries
    m = e if middle is None else middle.entries
    n = len(e)
    cols = table.columns
    rows = table.lines("rows")
    candidates = _mismatches(
        n,
        lambda a: rows.pick(cols[a]),
        lambda a: rows.before(m[a], range(n)),
        (rows, table.lines("columns")) if middle is None else (),
    )
    return _assoc_witnesses(e, m, candidates)


def _identity_of(table: OperationTable) -> int | None:
    """The two-sided identity of the table, if it has one."""
    ident = tuple(range(table.size))
    rows, cols = table.entries, table.columns
    return next((c for c in range(table.size) if rows[c] == ident == cols[c]), None)


def validate_axioms(table: OperationTable, profile: str, identity: int | None = None) -> AxiomReport:
    """Check the axioms of the given profile at every element, pair and
    triple.

    Profiles: ``quandle`` (Q1 idempotency, Q2 right translations are
    permutations, Q3 right self-distributivity), ``rack`` (Q2+Q3),
    ``kei`` (quandle + involutive right translations), ``group``
    (associativity, identity, inverses; ``identity`` may pin the candidate).

    Q3, K4 and associativity are checked a whole translation at a time,
    Q3 and associativity only on a generating set (see README.md, "Axiom
    checks").  Witnesses are then found by an element-by-element scan of
    the failing translations alone, so the report is that of a scan of
    every triple.
    """
    n = table.size
    e = table.entries
    cols = table.columns
    if identity is not None and not 0 <= identity < n:
        raise ValueError(f"identity {identity} out of range 0..{n - 1}")
    rb = ReportBuilder()

    if profile in ("quandle", "kei"):
        for i in range(n):
            if e[i][i] != i:
                rb.hit("Q1", (i,))
    if profile in ("quandle", "rack", "kei"):
        columns = table.lines("columns")
        inverses = list(map(columns.inverse, range(n)))
        permutes = True
        for j, inverse in enumerate(inverses):
            if inverse is None:
                permutes = False
                rb.hit("Q2", (j, *_column_collision(table, j)))
        # when every R_k is a bijection, the k whose R_k is an
        # automorphism are closed under *: R_{a*b} = R_b R_a R_b^-1
        rb.hit_first("Q3", _distributivity_misses(*(table,) * 5, permutes))
        if profile == "kei":
            # K4 can fail only in a column that is not its own inverse
            k4_columns = [j for j, inverse in enumerate(inverses) if inverse != columns.lines[j]]
            rb.hit_first(
                "K4", ((i, j) for i in range(n) for j in k4_columns if e[e[i][j]][j] != i)
            )
    elif profile == "group":
        rb.hit_first("assoc", _associativity_misses(table))
        if identity is None:
            identity = _identity_of(table)
        if identity is None:
            rb.hit("identity", ())
        else:
            for g in range(n):
                if e[identity][g] != g or e[g][identity] != g:
                    rb.hit("identity", (g,))
            for g, row in enumerate(e):
                # in a group the first right inverse is the two-sided one;
                # other tables get the full search
                if identity in row and cols[g][row.index(identity)] == identity:
                    continue
                if not any(e[g][h] == identity == e[h][g] for h in range(n)):
                    rb.hit("inverse", (g,))
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return rb.report()


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class GroupTable:
    """A finite group: multiplication table plus identity and inverses."""

    table: OperationTable
    identity: int
    inverse: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.table.size

    def mul(self, a: int, b: int) -> int:
        return self.table.entries[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    @cached_property
    def conjugation(self) -> OperationTable:
        """The conjugation quandle a * b = b^-1 a b, built on first use and
        kept.  Its dual is b a b^-1 and its components are the conjugacy
        classes."""
        e, inverse = self.table.entries, self.inverse
        return OperationTable._trusted(self.size, tuple(
            tuple(e[e[inverse[b]][a]][b] for b in range(self.size)) for a in range(self.size)))

    def conjugate(self, a: int, b: int) -> int:
        """a * b in ``conjugation``."""
        return self.conjugation.entries[a][b]


def group_from_table(table: OperationTable, identity: int | None = None) -> GroupTable:
    """Validate a table as a group and derive identity and inverses."""
    report = validate_axioms(table, "group", identity=identity)
    if not report.valid:
        raise ValueError(f"not a group: {report.violations[:4]}")
    if identity is None:
        identity = _identity_of(table)
    inverse = tuple(row.index(identity) for row in table.entries)
    return GroupTable(table, identity, inverse)


def cyclic_group(n: int) -> GroupTable:
    return group_from_table(table_from(n, lambda a, b: (a + b) % n))


def klein_group() -> GroupTable:
    """Z2 x Z2 with indices read as 2-bit vectors."""
    return group_from_table(table_from(4, lambda a, b: a ^ b))


def _perm_group(perms: list[tuple[int, ...]]) -> GroupTable:
    perms = sorted(set(perms))
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        # composition: apply b first, then a
        pa, pb = perms[a], perms[b]
        return index[tuple(pa[pb[i]] for i in range(len(pa)))]

    return group_from_table(table_from(len(perms), mul))


def symmetric_group(n: int) -> GroupTable:
    """S_n on points 0..n-1; elements sorted lexicographically as image tuples."""
    return _perm_group([tuple(p) for p in itertools.permutations(range(n))])


def dihedral_group(n: int) -> GroupTable:
    """The order-2n symmetry group of the regular n-gon, as permutations."""
    perms = []
    for k in range(n):
        perms.append(tuple((i + k) % n for i in range(n)))
        perms.append(tuple((k - i) % n for i in range(n)))
    return _perm_group(perms)


def group_exponent(g: GroupTable) -> int:
    exp = 1
    for a in range(g.size):
        order = 1
        acc = a
        while acc != g.identity:
            acc = g.mul(acc, a)
            order += 1
        exp = lcm(exp, order)
    return exp


def is_abelian(g: GroupTable) -> bool:
    return all(
        g.mul(a, b) == g.mul(b, a) for a in range(g.size) for b in range(g.size)
    )


# ---------------------------------------------------------------------------
# standard quandles


def trivial_quandle(n: int) -> OperationTable:
    if n <= 0:
        raise ValueError("table size must be positive")
    return OperationTable._trusted(n, tuple((i,) * n for i in range(n)))


def dihedral_quandle(n: int) -> OperationTable:
    return table_from(n, lambda i, j: (2 * j - i) % n)


def conjugation_quandle(g: GroupTable, n: int = 1) -> OperationTable:
    """a * b = b^-n a b^n; n is reduced mod the exponent of g."""
    m = n % group_exponent(g)
    powers = _composer(tuple(g.power(b, m) for b in range(g.size)))
    return OperationTable._trusted(g.size, tuple(map(powers, g.conjugation.entries)))


def takasaki_quandle(g: GroupTable) -> OperationTable:
    """a * b = b a^-1 b, defined for abelian groups."""
    if not is_abelian(g):
        raise ValueError("takasaki quandle requires an abelian group")
    return table_from(g.size, lambda a, b: g.mul(g.mul(b, g.inverse[a]), b))


def alexander_quandle(g: GroupTable, automorphism: tuple[int, ...]) -> OperationTable:
    """a * b = phi(a b^-1) b for an automorphism phi of g."""
    phi = tuple(automorphism)
    if sorted(phi) != list(range(g.size)):
        raise ValueError("automorphism must be a permutation of the carrier")
    for a in range(g.size):
        for b in range(g.size):
            if phi[g.mul(a, b)] != g.mul(phi[a], phi[b]):
                raise ValueError(f"map is not an automorphism: fails at ({a}, {b})")
    return table_from(g.size, lambda a, b: g.mul(phi[g.mul(a, g.inverse[b])], b))


def standard_quandle(kind: str, *args) -> OperationTable:
    """Dispatcher over the named constructors: trivial(n), dihedral(n),
    conj(G, n), takasaki(G), alexander(G, phi)."""
    makers = {
        "trivial": trivial_quandle,
        "dihedral": dihedral_quandle,
        "conj": conjugation_quandle,
        "takasaki": takasaki_quandle,
        "alexander": alexander_quandle,
    }
    if kind not in makers:
        raise ValueError(f"unknown quandle kind {kind!r}")
    return makers[kind](*args)


# ---------------------------------------------------------------------------
# derived operations


def dual_operation(table: OperationTable) -> OperationTable:
    """The inverse operation: (a * b) dual b = a and (a dual b) * b = a.

    Requires every right translation to be a permutation.
    """
    inverses = list(map(table.lines("columns").inverse, range(table.size)))
    if None in inverses:
        raise ValueError(f"column {inverses.index(None)} is not a permutation; dual undefined")
    return OperationTable._trusted(table.size, tuple(zip(*inverses)))


def generated_subalgebra(table: OperationTable, seeds) -> tuple[int, ...]:
    """Smallest subset containing seeds closed under * and its inverse, in
    increasing order.  Requires right translations to be permutations (so
    the inverse operation exists).

    A subset closed under * is then closed under the inverse too: each
    R_y maps it into itself injectively, so onto itself.  So the closure
    under * alone is taken."""
    table.dual  # kept on the table; raises ValueError where it does not exist
    seeds = set(seeds)
    for s in seeds:
        if not 0 <= s < table.size:
            raise ValueError(f"seed {s} out of range")
    members: set[int] = set()
    _close((table.lines("rows"), table.lines("columns")), members, seeds)
    return tuple(sorted(members))


def hom_count(source: OperationTable, target: OperationTable, surjective_only: bool = False) -> int:
    """Number of maps phi with phi(a*b) = phi(a)*phi(b): a table constraint
    per pair (a, b), inverted through the target's dual if it has one.

    When the target is a quandle its right translations are automorphisms,
    and composing with one keeps a map a homomorphism and keeps it
    surjective.  So the maps are counted down a chain of stabilisers of
    the target's translations, starting once per component."""
    p = Problem(source.size, target.size)
    try:
        x_from = target.dual
    except ValueError:  # a column is not a permutation
        x_from = None
    bs = [*range(source.size)] * source.size  # the pairs (a, b) in row order, as columns
    p.add_tables(sorted(bs), bs, itertools.chain.from_iterable(source.entries),
                 itertools.repeat(target), itertools.repeat(x_from))
    quandle = x_from is not None and validate_axioms(target, "quandle").valid
    symmetry = (target, range(target.size)) if quandle else None
    onto = (lambda phi: len(set(phi)) == target.size) if surjective_only else None
    return p.count(symmetry, onto)


# ---------------------------------------------------------------------------
# table file format


def _content_lines(text: str):
    """Yield (line number, stripped line) skipping comments and blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_int(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        column = line.find(token) + 1
        raise ParseError(f"expected integer, got {token!r}", lineno, column) from None


def _read_row(toks, lineno: int, line: str, bound: int, what=None) -> tuple[int, ...]:
    """The integers of one row, each in 0..bound-1, read with ``int``; the
    offending token is looked for only when the row fails, to give its
    column."""
    try:
        row = tuple(map(int, toks))
    except ValueError:
        row = tuple(_parse_int(t, lineno, line) for t in toks)
    if min(row) < 0 or max(row) >= bound:
        t, v = next((t, v) for t, v in zip(toks, row) if not 0 <= v < bound)
        label, span = (f"{what}: ", f" 0..{bound - 1}") if what else ("", "")
        raise ParseError(f"{label}entry {v} out of range{span}", lineno, line.find(t) + 1)
    return row


@lru_cache(maxsize=16)
def _decimals(bound: int) -> dict[str, int]:
    """``{str(v): v for v in range(bound)}``: the plain decimal spelling of
    every entry a block bounded by ``bound`` may hold."""
    return {str(v): v for v in range(bound)}


def _read_matrix(lines, pos, rows, cols, bound, what=None):
    """Read rows x cols integers, each in 0..bound-1, from ``lines[pos:]``;
    return them and the position after them.  ``what`` names the block in
    error messages.

    A row is looked up whole in ``_decimals(bound)``, which converts and
    range-checks each plain decimal at once.  A row with any other token
    (``007``, ``+3``, a non-integer, a value out of range) is read again
    by ``_read_row``, so it parses or fails as with ``int``.  A line the
    block has already read reuses that row's tuple, so a block of equal
    rows (the ``f`` block of a G-family) is read once; a bad line raises
    at its first occurrence.
    """
    label = f"{what}: " if what else ""
    out = []
    decimals = None
    seen: dict[str, tuple[int, ...]] = {}  # each line read, to its row
    for lineno, line in lines[pos : pos + rows]:
        if line in seen:
            out.append(seen[line])
            continue
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(f"{label}expected {cols} entries", lineno, 1)
        if decimals is None:
            # built once a row of the block is there, so a size that no
            # row backs builds nothing
            decimals = _decimals(bound)
        try:
            row = tuple(map(decimals.__getitem__, toks))
        except KeyError:
            row = None  # read again outside the handler, so no error chains to it
        row = seen[line] = row or _read_row(toks, lineno, line, bound, what)
        out.append(row)
    if len(out) < rows:
        raise ParseError(f"unexpected end of file in {what} block", lines[-1][0])
    return tuple(out), pos + rows


def _parse_magma(text: str) -> tuple[OperationTable, int | None]:
    """The table of a magma file and its ``identity`` line, if any."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty table file", 1)
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "magma":
        raise ParseError("expected header 'magma <size>'", lineno, 1)
    size = _parse_int(parts[1], lineno, header)
    if size <= 0:
        raise ParseError("size must be positive", lineno)
    body = lines[1:]
    identity = None
    if body and body[0][1].split()[0] == "identity":
        lineno, line = body[0]
        toks = line.split()
        if len(toks) != 2:
            raise ParseError("expected 'identity <k>'", lineno)
        identity = _parse_int(toks[1], lineno, line)
        if not 0 <= identity < size:
            raise ParseError(f"identity {identity} out of range", lineno, line.find(toks[1]) + 1)
        body = body[1:]
    if len(body) != size:
        raise ParseError(f"expected {size} matrix rows, found {len(body)}", lines[0][0])
    rows, _ = _read_matrix(body, 0, size, size, size)
    return OperationTable._trusted(size, rows), identity


def parse_table(text: str) -> OperationTable:
    table, _ = _parse_magma(text)
    return table


def parse_group(text: str) -> GroupTable:
    table, identity = _parse_magma(text)
    try:
        return group_from_table(table, identity=identity)
    except ValueError as exc:
        # at the identity line when the file has one, else at the header
        lines = list(_content_lines(text))
        raise ParseError(str(exc), lines[0 if identity is None else 1][0]) from None


@lru_cache(maxsize=16)
def _spellings(bound: int) -> tuple[str, ...]:
    """The keys of ``_decimals(bound)`` in order: ``str(v)`` at index v."""
    return tuple(_decimals(bound))


def _row_lines(rows, bound: int) -> list[str]:
    """Each row of entries in 0..bound-1 as one line of decimals."""
    spell = _spellings(bound).__getitem__
    return [" ".join(map(spell, row)) for row in rows]


def serialize_table(table: OperationTable) -> str:
    lines = [f"magma {table.size}", *_row_lines(table.entries, table.size)]
    return "\n".join(lines) + "\n"


def serialize_group(group: GroupTable) -> str:
    lines = [f"magma {group.size}", f"identity {group.identity}"]
    lines.extend(_row_lines(group.table.entries, group.size))
    return "\n".join(lines) + "\n"
