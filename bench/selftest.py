"""Self-test of the oracles: on diagrams of at most six arcs, every
oracle must agree with plain enumeration of all assignments, and the
closed forms must agree with the oracles."""

from __future__ import annotations

import oracles

TREFOIL = (3, ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)), ())
FIGURE_EIGHT = (4, ((2, 0, 1, 1), (0, 1, 2, -1), (3, 2, 3, 1), (1, 3, 0, -1)), ())
HOPF = (2, ((0, 1, 1, 1), (1, 0, 0, 1)), ())
NEGATIVE_HOPF = (2, ((0, 1, 1, -1), (1, 0, 0, -1)), ())
KINKED_UNKNOT = (2, ((1, 0, 1, 1), (0, 1, 0, -1)), ())
THETA = (3, (), (((0, True), (1, True), (2, False)), ((1, False), (0, False), (2, True))))
HANDCUFF = (3, (), (((0, True), (1, False), (0, False)), ((2, False), (1, True), (2, True))))
# the linked handcuff: finger loops Hopf-linked through the loop arcs
LINKED_HANDCUFF = (
    5,
    ((2, 0, 3, 1), (3, 2, 4, 1)),
    (((0, False), (3, True), (1, False)), ((1, True), (4, True), (2, False))),
)


def torus(n: int):
    return (n, tuple(((i - 1) % n, (i - 2) % n, i, 1) for i in range(n)), ())


def run() -> list[str]:
    problems = []

    def agree(what, *values):
        if len(set(values)) != 1:
            problems.append(f"{what}: {values}")

    links = [TREFOIL, FIGURE_EIGHT, HOPF, NEGATIVE_HOPF, KINKED_UNKNOT]
    links += [torus(n) for n in range(2, 7)]
    for p in (3, 5):
        rp = oracles.quandle_as_system(oracles.dihedral_table(p))
        for d in links:
            counts = (oracles.fox_count(d, p), oracles.colour_count(d, rp))
            agree(f"R{p} on {d}", *counts, oracles.plain_colour_count(d, rp))
    for n in range(2, 7):
        agree(f"T(2,{n}) closed form", oracles.fox_count(torus(n), 3), oracles.torus_r3_count(n))

    s3 = oracles.symmetric_group(3)
    s3_shuffled = oracles.symmetric_group(3, [4, 1, 5, 0, 3, 2])
    for g in (s3, s3_shuffled):
        point = oracles.point_family(g)
        for d in links[:-1] + [THETA, HANDCUFF]:
            rels = oracles.wirtinger_relators(d)
            agree(
                f"point S3 on {d}",
                oracles.colour_count(d, point),
                oracles.plain_colour_count(d, point),
                oracles.hom_count(d[0], rels, g),
                oracles.plain_hom_count(d[0], rels, g),
            )
    rels = oracles.wirtinger_relators(LINKED_HANDCUFF)
    agree("linked handcuff", oracles.hom_count(5, rels, s3), oracles.plain_hom_count(5, rels, s3))

    agree("k(S3)", oracles.class_count(s3), 3)
    hopf_homs = oracles.hom_count(2, oracles.wirtinger_relators(HOPF), s3)
    agree("Hom(Z^2, S3) = |G| k(G)", hopf_homs, 6 * 3)
    agree("free of rank 2", oracles.hom_count(3, oracles.wirtinger_relators(HANDCUFF), s3), 6**2)
    agree("unknot", oracles.colour_count((1, (), ()), oracles.point_family(s3)), 6)
    agree("Conj(S3) is a quandle", oracles.is_quandle(oracles.conjugation_table(s3)), True)
    agree("a non-idempotent table is not a quandle", oracles.is_quandle(((1, 0), (0, 1))), False)
    return problems
