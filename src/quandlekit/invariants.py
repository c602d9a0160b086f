"""Wirtinger presentations with finite-group homomorphism counting, and
the constituent-link collection of a trivalent spatial graph with its
linking-number summaries.

Relator conventions (one generator per arc):

* positive crossing: over^-1 . under_in . over . under_out^-1;
* negative crossing: over . under_in . over^-1 . under_out^-1;
* vertex: the ends in listed order, out-ends inverted, multiply to the
  identity (so an (a in, b in, d out) vertex reads a b d^-1 = 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagrams import IN, Diagram, compute_edges, delete_edges
from .solve import Problem
from .tables import GroupTable, ParseError, _content_lines

Letter = tuple[int, int]  # (generator index, +1 or -1)


@dataclass(frozen=True)
class GroupPresentation:
    generator_count: int
    relators: tuple[tuple[Letter, ...], ...]

    def __post_init__(self) -> None:
        if self.generator_count < 0:
            raise ValueError("generator count must be non-negative")
        rels = tuple(map(tuple, self.relators))
        for g, s in dict.fromkeys(itertools.chain.from_iterable(rels)):  # each letter once
            if not 0 <= g < self.generator_count:
                raise ValueError(f"generator {g} out of range")
            if s not in (1, -1):
                raise ValueError("letter signs must be +1 or -1")
        object.__setattr__(self, "relators", rels)

    @classmethod
    def _trusted(cls, generator_count: int, relators) -> "GroupPresentation":
        """``relators`` as given, a tuple of tuples of letters known to be valid."""
        p = cls.__new__(cls)
        object.__setattr__(p, "generator_count", generator_count)
        object.__setattr__(p, "relators", relators)
        return p


@dataclass(frozen=True)
class LinkingMatrix:
    component_count: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = tuple(tuple(row) for row in self.matrix)
        if len(m) != self.component_count or any(len(r) != self.component_count for r in m):
            raise ValueError("matrix shape must match component count")
        for i in range(self.component_count):
            if m[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(self.component_count):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    def off_diagonal(self) -> tuple[int, ...]:
        return tuple(
            sorted(
                self.matrix[i][j]
                for i in range(self.component_count)
                for j in range(i + 1, self.component_count)
            )
        )


def wirtinger_presentation(d: Diagram) -> GroupPresentation:
    """Relators from the checked diagram's columns: the letters are not checked again."""
    overs, ins, outs, signs = zip(*d.crossings) if d.crossings else ((),) * 4
    relators = [*zip(zip(overs, map(int.__neg__, signs)), zip(ins, itertools.repeat(1)),
                     zip(overs, signs), zip(outs, itertools.repeat(-1)))]
    relators += [tuple((a, 1 if e == IN else -1) for a, e in v.ends) for v in d.vertices]
    return GroupPresentation._trusted(d.arc_count, tuple(relators))


def group_hom_count(p: GroupPresentation, g: GroupTable) -> int:
    """Number of generator assignments into g satisfying every relator.

    A crossing relator y^-s x y^s z^-1 is the table constraint
    z = y^-s x y^s; any other relator is a solver rule that fixes a
    generator met once in it when every other letter is known.

    Counted down a chain of stabilisers in the conjugation action: the
    root generator once per conjugacy class, and each later one once per
    orbit of the centraliser of the elements chosen above it."""
    # conj[s][x][y] = y^-s x y^s, and conj[-s] solves it for x
    conj = {1: g.conjugation, -1: g.conjugation.dual}
    problem = Problem(p.generator_count, g.size)
    crossings = []  # (x, y, z, op, x_from) per crossing relator
    for rel in p.relators:
        if len(rel) == 4:
            (w, r), (x, t), (y, s), (z, u) = rel
            if w == y and r == -s and t == 1 == -u:
                crossings.append((x, y, z, conj[s], conj[-s]))
                continue
        if rel:
            problem.add_rule([gen for gen, _ in rel], _relator_rule(rel, g), range(len(rel)))
    if crossings:
        problem.add_tables(*zip(*crossings))
    # conjugation maps homomorphisms to homomorphisms: the right
    # translations of conj[1] are the conjugations
    return problem.count((g.conjugation, range(g.size)))


def _relator_rule(rel, g: GroupTable):
    mul, inverse = g.table.entries, g.inverse
    letters = [(gen, s > 0) for gen, s in rel]

    def solve(val, i):
        # prefix . x^s . suffix = e  =>  x^s = (suffix . prefix)^-1
        acc = g.identity
        for gen, positive in letters[i + 1 :] + letters[:i]:
            acc = mul[acc][val[gen] if positive else inverse[val[gen]]]
        return inverse[acc] if letters[i][1] else acc

    return solve


def hom_fingerprint(p: GroupPresentation, panel) -> tuple[int, ...]:
    """Homomorphism counts into each group of the panel.  Counts are
    invariants of the presented group, so equal fingerprints are evidence
    of isomorphism and differing ones are proof of its failure."""
    return tuple(group_hom_count(p, g) for g in panel)


# ---------------------------------------------------------------------------
# presentation file format


def serialize_presentation(p: GroupPresentation) -> str:
    lines = [f"gens {p.generator_count}"]
    for rel in p.relators:
        lines.append("rel " + " ".join(f"{'+' if s > 0 else '-'}{g}" for g, s in rel))
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> GroupPresentation:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty presentation file", 1)
    lineno, header = lines[0]
    toks = header.split()
    if len(toks) != 2 or toks[0] != "gens":
        raise ParseError("expected header 'gens <n>'", lineno, 1)
    try:
        count = int(toks[1])
    except ValueError:
        raise ParseError(f"bad generator count {toks[1]!r}", lineno) from None
    if count < 0:
        raise ParseError("generator count must be non-negative", lineno, header.find(toks[1]) + 1)
    relators = []
    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] != "rel":
            raise ParseError(f"expected 'rel ...', got {toks[0]!r}", lineno, 1)
        word = []
        for tok in toks[1:]:
            sign = 1
            body = tok
            if tok.startswith("+"):
                body = tok[1:]
            elif tok.startswith("-"):
                sign = -1
                body = tok[1:]
            try:
                gen = int(body)
            except ValueError:
                raise ParseError(f"bad letter {tok!r}", lineno, line.find(tok) + 1) from None
            if not 0 <= gen < count:
                raise ParseError(f"generator {gen} out of range", lineno, line.find(tok) + 1)
            word.append((gen, sign))
        relators.append(tuple(word))
    return GroupPresentation(count, tuple(relators))


# ---------------------------------------------------------------------------
# linking numbers


def linking_matrix(d: Diagram) -> LinkingMatrix:
    """Pairwise linking numbers: half the signed count of inter-component
    crossings.  Defined for vertex-free diagrams."""
    if d.vertices:
        raise ValueError("linking matrix requires a vertex-free diagram")
    edges = compute_edges(d)  # closed loops, by smallest arc
    comp = [0] * d.arc_count
    for i, edge in enumerate(edges):
        for a in edge.arcs:
            comp[a] = i
    k = len(edges)
    sums = [[0] * k for _ in range(k)]
    for c in d.crossings:
        i, j = comp[c.over], comp[c.under_in]
        if i != j:
            sums[i][j] += c.sign
            sums[j][i] += c.sign
    matrix = tuple(
        tuple(sums[i][j] // 2 if i != j else 0 for j in range(k)) for i in range(k)
    )
    return LinkingMatrix(k, matrix)


# ---------------------------------------------------------------------------
# constituent links


def kauffman_constituents(d: Diagram) -> list[Diagram]:
    """For every choice of two edge-ends per trivalent vertex whose induced
    deletion leaves each vertex 2-valent, delete the unchosen edges.  The
    multiset ranges over choice functions."""
    for v in d.vertices:
        if v.valence != 3:
            raise ValueError("constituent links require trivalent vertices")
    edges = compute_edges(d)
    edge_at: dict[tuple[int, int], int] = {}
    for ei, edge in enumerate(edges):
        for vp in edge.endpoints:
            edge_at[vp] = ei
    out = []
    per_vertex = [list(itertools.combinations(range(v.valence), 2)) for v in d.vertices]
    for choice in itertools.product(*per_vertex):
        chosen_ends = {
            (vi, pos) for vi, pair in enumerate(choice) for pos in pair
        }
        survivors = set()
        for ei, edge in enumerate(edges):
            if all(vp in chosen_ends for vp in edge.endpoints):
                survivors.add(ei)
        ok = all(
            edge_at[(vi, pos)] in survivors
            for vi, pair in enumerate(choice)
            for pos in pair
        )
        if not ok:
            continue
        doomed = [ei for ei in range(len(edges)) if ei not in survivors]
        out.append(delete_edges(d, doomed))
    return out


def kauffman_summary(d: Diagram, invariant: str = "linking", sys=None) -> list:
    """Multiset of invariant values over the constituents: sorted
    off-diagonal linking entries, or colouring counts by a system."""
    constituents = kauffman_constituents(d)
    if invariant == "linking":
        return sorted(linking_matrix(c).off_diagonal() for c in constituents)
    if invariant == "colour_count":
        if sys is None:
            raise ValueError("colour_count summaries need a system")
        from .coloring import count_colourings

        return sorted(count_colourings(c, sys, "all") for c in constituents)
    raise ValueError(f"unknown invariant {invariant!r}")
