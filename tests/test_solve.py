"""The counting engine on its own, and diagrams of a thousand arcs or more
counted through it under the default recursion limit."""

import sys

from test_acceptance import Timer

from quandlekit.coloring import count_colourings
from quandlekit.diagrams import Crossing, Diagram
from quandlekit.fixtures import diagram, system
from quandlekit.invariants import group_hom_count, wirtinger_presentation
from quandlekit.solve import Problem
from quandlekit.systems import g_family_system, quandle_system
from quandlekit.tables import (
    conjugation_quandle,
    dihedral_quandle,
    symmetric_group,
    trivial_quandle,
)

R3 = system("r3")
S3 = symmetric_group(3)
S3_POINT = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), S3)


def kink_chain(n, over):
    """An unknot with n R1 kinks; kink i turns arc i into arc i+1 and
    passes over arc over(i), which is i or i+1."""
    return Diagram(n, tuple(Crossing(over(i), i, (i + 1) % n, 1) for i in range(n)), ())


def torus(n):
    """The closed 2-braid sigma_1^n."""
    return Diagram(n, tuple(Crossing((i - 1) % n, (i - 2) % n, i, 1) for i in range(n)), ())


def test_free_variables_and_empty_problem():
    assert len(list(Problem(3, 4).solutions())) == 64
    assert list(Problem(0, 4).solutions()) == [()]


def test_table_constraint_with_inverse_forces_both_ways():
    r3 = dihedral_quandle(3).entries
    p = Problem(3, 3)
    p.add_table(0, 1, 2, r3, r3)  # z = x * y, x = z * y in a kei
    p.add_table(2, 1, 0, r3, r3)
    assert sorted(p.solutions()) == [(x, y, (2 * y - x) % 3) for x in range(3) for y in range(3)]


def test_root_restriction_yields_the_plain_solutions_with_the_root_in_its_values():
    r3 = dihedral_quandle(3).entries
    p = Problem(4, 3)
    p.add_table(0, 1, 2, r3, r3)
    p.add_table(2, 1, 0, r3, r3)
    p.add_table(1, 2, 3, r3)
    plain = list(p.solutions())
    assert len(plain) == 9
    # variable 1 is in the most constraint slots, so the plain search
    # branches on it first: rooted there, the order is kept
    for values in ([0], [1, 2], [0, 2], [0, 1, 2], []):
        assert list(p.solutions((1, values))) == [s for s in plain if s[1] in values]
    # rooted elsewhere, the same solutions in the rooted search's order
    for v in range(4):
        assert sorted(p.solutions((v, [2, 0]))) == sorted(s for s in plain if s[v] in (0, 2))


def test_root_fixed_before_the_search_filters_the_plain_solutions():
    # a one-variable rule fixes variable 0 to 1 before any branching
    p = Problem(3, 3)
    p.add_rule([0], lambda values, i: 1, [0])
    plain = list(p.solutions())
    assert len(plain) == 9 and all(s[0] == 1 for s in plain)
    assert list(p.solutions((0, [1, 2]))) == plain
    assert list(p.solutions((0, [0, 2]))) == []


def rooted_problem():
    """A dihedral-quandle problem in which variable 3 is in the fewest
    constraint slots and variable 4 in none."""
    r3 = dihedral_quandle(3).entries
    p = Problem(5, 3)
    p.add_table(0, 1, 2, r3, r3)
    p.add_table(2, 1, 0, r3, r3)
    p.add_table(1, 2, 3, r3)
    return p


def test_the_root_is_the_lowest_variable_in_the_fewest_slots_but_not_in_none():
    assert rooted_problem().root_variable() == 3
    # with every variable in no constraint, the lowest
    assert Problem(3, 4).root_variable() == 0


def test_count_without_weights_is_the_number_of_solutions():
    p = rooted_problem()
    assert p.count() == len(list(p.solutions())) == 27
    assert Problem(3, 4).count() == 64


def test_count_sums_the_root_weight_over_the_solutions():
    p = rooted_problem()
    plain = list(p.solutions())
    for weight in ((3, 0, 0), (1, 1, 1), (0, 2, 5), (0, 0, 0)):
        assert p.count(weight) == sum(weight[s[3]] for s in plain), weight
    # R3 is one component of 3 elements, and its translations map solutions
    # to solutions: one representative weighted by 3 counts them all
    assert p.count(dihedral_quandle(3).weights) == 27


def test_count_with_the_root_fixed_before_any_branching():
    # a one-variable rule fixes variable 0 to 1, and so variable 1 too;
    # variable 2 is free
    p = Problem(3, 3)
    p.add_rule([0], lambda values, i: 1, [0])
    p.add_table(0, 0, 1, dihedral_quandle(3).entries)
    assert p.root_variable() == 1
    assert p.count() == 3
    assert p.count((2, 5, 0)) == 15  # every solution has variable 1 at 1
    assert p.count((1, 0, 2)) == 0
    # Conj(S3), with variable 0 fixed to the identity, a class of one
    conj = conjugation_quandle(S3)
    p = Problem(2, 6)
    p.add_rule([0], lambda values, i: S3.identity, [0])
    p.add_table(0, 0, 1, conj.entries)
    assert p.root_variable() == 1
    assert p.count(conj.weights) == p.count() == 1


def test_zero_variables_count_one():
    assert Problem(0, 4).count() == 1
    assert Problem(0, 4).count((1, 1, 2, 0)) == 1
    assert Problem(0, 4).count(keep=lambda s: s == ()) == 1
    assert Problem(0, 4).count(keep=lambda s: False) == 0


def test_keep_filters_the_solutions():
    assert Problem(3, 4).count(keep=lambda s: s[0] == s[1]) == 16
    p = rooted_problem()
    plain = list(p.solutions())
    keep = lambda s: s[4] != s[0]  # noqa: E731
    assert p.count(keep=keep) == sum(map(keep, plain)) == 18
    assert p.count((3, 0, 1), keep) == sum((3, 0, 1)[s[3]] for s in plain if keep(s))


def test_long_kink_chain_counts():
    assert sys.getrecursionlimit() <= 1000
    d = kink_chain(1100, lambda i: i)
    with Timer(10.0):
        assert count_colourings(d, R3) == 3
        assert count_colourings(d, S3_POINT) == 6


def test_long_torus_link_counts():
    with Timer(10.0):
        assert count_colourings(torus(1250), R3) == 3


def test_wirtinger_homs_of_long_chain_over_outgoing_arcs():
    pres = wirtinger_presentation(kink_chain(2000, lambda i: (i + 1) % 2000))
    with Timer(10.0):
        assert group_hom_count(pres, S3) == 6


def test_kink_chain_alternating_its_over_arc():
    d = kink_chain(200, lambda i: i if i % 2 == 0 else (i + 1) % 200)
    with Timer(5.0):
        assert count_colourings(d, R3) == 3


def test_handcuff_graphs_by_the_conjugation_quandle_of_s5():
    # a vertex shares its X part, so with a one-element G it fixes every end
    conj_s5 = quandle_system(conjugation_quandle(symmetric_group(5)))
    with Timer(10.0):
        assert count_colourings(diagram("mwf"), conj_s5) == 840
        assert count_colourings(diagram("athlete-happy"), conj_s5) == 840


def test_one_point_family_over_s5():
    # P5: its product is Conj(S5), which has 7 components, so a diagram of
    # fewer arcs has no generating colouring and no search is made
    s5 = symmetric_group(5)
    p5 = g_family_system(tuple(trivial_quandle(1) for _ in range(s5.size)), s5)
    with Timer(3.0):
        assert count_colourings(diagram("athlete-happy"), p5) == 28680
    # counted once per component of the root arc's colour
    with Timer(3.0):
        assert count_colourings(diagram("mwf"), p5) == 184800
    with Timer(3.0):
        assert count_colourings(diagram("mwf"), p5, "generating") == 0
    for name in ("mwuf", "theta", "athlete-unhappy"):
        with Timer(0.1):
            assert count_colourings(diagram(name), p5, "generating") == 0
