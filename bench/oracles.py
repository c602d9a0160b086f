"""Reference computations for the benchmark, written without quandlekit.

Nothing in this module imports quandlekit, so a fault in the library
cannot hide in its own oracle.  Inputs are plain data:

* a diagram is ``(arc_count, crossings, vertices)`` with crossings as
  ``(over, under_in, under_out, sign)`` tuples and vertices as tuples of
  ``(arc, is_in)`` ends in cyclic order;
* a group is a :class:`Group` of permutations;
* a system is a :class:`System` read off the fields of a system.

The conventions are the ones stated in the library's README: at a
positive crossing ``c(under_out) = c(under_in) . c(over)``, at a negative
one ``c(under_in) = c(under_out) . c(over)``; at a vertex all X parts
agree and ``Gamma(g^_1, ..., g^_{v-1}) = rho_x(g^_v)`` with ``g^ = g`` on
in-ends and ``rho_x(g)`` on out-ends.  Wirtinger relators follow the
same crossing and vertex conventions.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple


class Group(NamedTuple):
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int

    @property
    def size(self) -> int:
        return len(self.mul)


class System(NamedTuple):
    """The data of an (f, otimes)-system with its composition and rho."""

    x_size: int
    g_size: int
    star: tuple  # star[g][x][y] = x *_g y
    f: tuple  # f[g][h]
    otimes: tuple  # otimes[g][h]
    oplus: tuple | None  # oplus[g][h], the arity-2 composition
    rho: tuple | None  # rho[x][g]
    gamma: dict  # arity -> flat row-major table, arities other than 2


# ---------------------------------------------------------------------------
# groups and quandles


def symmetric_group(n: int, order=None) -> Group:
    """S_n on 0..n-1.  ``order`` lists the lexicographic permutation
    indices in the order the elements should be numbered, so a seeded
    shuffle gives an isomorphic group with relabelled elements."""
    perms = sorted(itertools.permutations(range(n)))
    if order is not None:
        perms = [perms[i] for i in order]
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(tuple(index[tuple(a[b[i]] for i in range(n))] for b in perms) for a in perms)
    identity = index[tuple(range(n))]
    inv = tuple(row.index(identity) for row in mul)
    return Group(mul, inv, identity)


def conjugation_table(g: Group) -> tuple[tuple[int, ...], ...]:
    """a . b = b^-1 a b"""
    m, inv = g.mul, g.inv
    return tuple(tuple(m[m[inv[b]][a]][b] for b in range(g.size)) for a in range(g.size))


def class_count(g: Group) -> int:
    """Number of conjugacy classes, k(G)."""
    seen: set[int] = set()
    classes = 0
    for a in range(g.size):
        if a not in seen:
            classes += 1
            seen.update(g.mul[g.mul[g.inv[b]][a]][b] for b in range(g.size))
    return classes


def dihedral_table(p: int) -> tuple[tuple[int, ...], ...]:
    """The dihedral quandle R_p: a . b = 2b - a mod p."""
    return tuple(tuple((2 * b - a) % p for b in range(p)) for a in range(p))


def quandle_as_system(table) -> System:
    """A bare quandle as a system with a one-element G."""
    one = ((0,),)
    rho = tuple((0,) for _ in table)
    return System(len(table), 1, (tuple(map(tuple, table)),), one, one, one, rho, {})


def point_family(g: Group) -> System:
    """The G-family of one-point trivial quandles: f(g, h) = h, otimes is
    conjugation, oplus the group product and rho_x inversion.  Its
    product quandle is Conj(G)."""
    n = g.size
    return System(
        1,
        n,
        tuple(((0,),) for _ in range(n)),
        tuple(tuple(range(n)) for _ in range(n)),
        conjugation_table(g),
        g.mul,
        (g.inv,),
        {},
    )


def product_table(s: System) -> list[list[int]]:
    """(x, g) . (y, h) = (x *_{f(g,h)} y, g otimes h) on pairs x * |G| + g."""
    n = s.g_size
    size = s.x_size * n
    out = []
    for p in range(size):
        x, g = divmod(p, n)
        row = []
        for q in range(size):
            y, h = divmod(q, n)
            row.append(s.star[s.f[g][h]][x][y] * n + s.otimes[g][h])
        out.append(row)
    return out


def column_inverse(table) -> list[list[int]]:
    """dual[a][b] = the c with c . b = a; raises if a column is not a
    permutation."""
    n = len(table)
    dual = [[-1] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            a = table[c][b]
            if dual[a][b] >= 0:
                raise ValueError(f"column {b} is not a permutation")
            dual[a][b] = c
    return dual


def is_quandle(table) -> bool:
    n = len(table)
    if any(table[a][a] != a for a in range(n)):
        return False
    try:
        column_inverse(table)
    except ValueError:
        return False
    return all(
        table[table[a][b]][c] == table[table[a][c]][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


# ---------------------------------------------------------------------------
# Fox colourings


def fox_count(d, p: int) -> int:
    """Fox p-colourings (colourings by R_p) of a vertex-free diagram, by
    Gaussian elimination mod a prime p on 2 over - under_in - under_out.
    Rows stay sparse, so banded diagrams of thousands of arcs are cheap."""
    arc_count, crossings, vertices = d
    if vertices:
        raise ValueError("Fox colourings are defined here for link diagrams only")
    pivots: dict[int, dict[int, int]] = {}
    for over, under_in, under_out, _ in crossings:
        row: dict[int, int] = {}
        for col, coef in ((over, 2), (under_in, -1), (under_out, -1)):
            row[col] = (row.get(col, 0) + coef) % p
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * scale % p for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return p ** (arc_count - len(pivots))


def torus_r3_count(n: int) -> int:
    """Closed form: the (2, n) torus knot or link has 9 Fox 3-colourings
    when 3 divides n and 3 otherwise."""
    return 9 if n % 3 == 0 else 3


# ---------------------------------------------------------------------------
# exhaustive search with propagation (explicit stack, no recursion)


def _search(size: int, domain: int, occurs, settle) -> int:
    """Count total assignments of ``size`` variables over ``range(domain)``.

    ``occurs[v]`` lists the constraints that mention variable v.
    ``settle(k, phi, newly)`` checks constraint k against the partial
    assignment ``phi`` (-1 = unknown); it returns False on a violation,
    and may fix unknown variables, appending them to ``newly``.
    """
    phi = [-1] * size

    def propagate(start: int, trail: list[int]) -> bool:
        queue = [start]
        while queue:
            var = queue.pop()
            for k in occurs[var]:
                newly: list[int] = []
                ok = settle(k, phi, newly)
                trail.extend(newly)
                queue.extend(newly)
                if not ok:
                    return False
        return True

    def next_free(start: int) -> int | None:
        for v in range(start, size):
            if phi[v] < 0:
                return v
        return None

    first = next_free(0)
    if first is None:
        return 1
    count = 0
    frames = [[first, 0, []]]
    while frames:
        frame = frames[-1]
        var, value, trail = frame
        for v in trail:
            phi[v] = -1
        trail.clear()
        if value == domain:
            frames.pop()
            continue
        frame[1] = value + 1
        phi[var] = value
        trail.append(var)
        if propagate(var, trail):
            nxt = next_free(var + 1)
            if nxt is None:
                count += 1
            else:
                frames.append([nxt, 0, []])
    return count


def wirtinger_relators(d) -> list[tuple[tuple[int, int], ...]]:
    _, crossings, vertices = d
    rels = []
    for over, under_in, under_out, sign in crossings:
        if sign > 0:
            rels.append(((over, -1), (under_in, 1), (over, 1), (under_out, -1)))
        else:
            rels.append(((over, 1), (under_in, 1), (over, -1), (under_out, -1)))
    for ends in vertices:
        rels.append(tuple((a, 1 if is_in else -1) for a, is_in in ends))
    return rels


def hom_count(gen_count: int, relators, g: Group) -> int:
    """Number of homomorphisms from <gens | relators> to g.  A relator
    with one unknown generator, occurring once, fixes it."""
    mul, inv, e = g.mul, g.inv, g.identity
    rels = [tuple(r) for r in relators]
    occurs = [[] for _ in range(gen_count)]
    for k, word in enumerate(rels):
        for x in sorted({x for x, _ in word}):
            occurs[x].append(k)

    def settle(k, phi, newly) -> bool:
        word = rels[k]
        unknown = [i for i, (x, _) in enumerate(word) if phi[x] < 0]
        if not unknown:
            acc = e
            for x, s in word:
                acc = mul[acc][phi[x] if s > 0 else inv[phi[x]]]
            return acc == e
        if len(unknown) > 1:
            return True
        i = unknown[0]
        var = word[i][0]
        prefix = e
        for x, s in word[:i]:
            prefix = mul[prefix][phi[x] if s > 0 else inv[phi[x]]]
        suffix = e
        for x, s in word[i + 1 :]:
            suffix = mul[suffix][phi[x] if s > 0 else inv[phi[x]]]
        value = mul[inv[prefix]][inv[suffix]]
        phi[var] = value if word[i][1] > 0 else inv[value]
        newly.append(var)
        return True

    if gen_count == 0:
        return 1
    return _search(gen_count, g.size, occurs, settle)


def colour_count(d, s: System) -> int:
    """Proper colourings of a diagram by the product quandle of a system,
    computed straight from the system's tables."""
    arc_count, crossings, vertices = d
    n = s.g_size
    table = product_table(s)
    dual = column_inverse(table)
    sites = [("c", c) for c in crossings] + [("v", v) for v in vertices]
    occurs = [[] for _ in range(arc_count)]
    for k, (kind, site) in enumerate(sites):
        arcs = site[:3] if kind == "c" else [a for a, _ in site]
        for a in sorted(set(arcs)):
            occurs[a].append(k)

    def gamma(gs) -> int:
        if len(gs) == 2:
            return s.oplus[gs[0]][gs[1]]
        idx = 0
        for v in gs:
            idx = idx * n + v
        return s.gamma[len(gs)][idx]

    def settle(k, phi, newly) -> bool:
        kind, site = sites[k]
        if kind == "c":
            over, a, b, sign = site
            o, ca, cb = phi[over], phi[a], phi[b]
            if o < 0:
                return True
            fwd, back = (table, dual) if sign > 0 else (dual, table)
            if ca >= 0 and cb >= 0:
                return fwd[ca][o] == cb
            if ca >= 0:
                phi[b] = fwd[ca][o]
                newly.append(b)
            elif cb >= 0:
                phi[a] = back[cb][o]
                newly.append(a)
            return True
        known = [(phi[a], is_in) for a, is_in in site if phi[a] >= 0]
        if len({c // n for c, _ in known}) > 1:
            return False
        if len(known) < len(site):
            return True
        x = known[0][0] // n
        rho = s.rho[x]
        eff = [c % n if is_in else rho[c % n] for c, is_in in known]
        return gamma(eff[:-1]) == rho[eff[-1]]

    if arc_count == 0:
        return 1
    return _search(arc_count, len(table), occurs, settle)


# ---------------------------------------------------------------------------
# plain enumeration, the reference for the self-test


def plain_colour_count(d, s: System) -> int:
    arc_count, crossings, vertices = d
    n = s.g_size
    table = product_table(s)
    count = 0
    for cs in itertools.product(range(len(table)), repeat=arc_count):
        ok = all(
            (cs[b] == table[cs[a]][cs[o]]) if sign > 0 else (cs[a] == table[cs[b]][cs[o]])
            for o, a, b, sign in crossings
        )
        for ends in vertices if ok else ():
            xs = {cs[a] // n for a, _ in ends}
            if len(xs) != 1:
                ok = False
                break
            rho = s.rho[xs.pop()]
            eff = [cs[a] % n if is_in else rho[cs[a] % n] for a, is_in in ends]
            acc = eff[:-1]
            if len(acc) == 2:
                lhs = s.oplus[acc[0]][acc[1]]
            else:
                idx = 0
                for v in acc:
                    idx = idx * n + v
                lhs = s.gamma[len(acc)][idx]
            if lhs != rho[eff[-1]]:
                ok = False
                break
        count += ok
    return count


def plain_hom_count(gen_count: int, relators, g: Group) -> int:
    count = 0
    for phi in itertools.product(range(g.size), repeat=gen_count):
        ok = True
        for word in relators:
            acc = g.identity
            for x, s in word:
                acc = g.mul[acc][phi[x] if s > 0 else g.inv[phi[x]]]
            if acc != g.identity:
                ok = False
                break
        count += ok
    return count
