import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from searches import recorded_roots

from quandlekit.coloring import (
    ColouringContext,
    Colouring,
    ScopeError,
    brute_force_count,
    count_colourings,
    enumerate_colourings,
    verify_colouring,
)
from quandlekit.diagrams import Crossing, Diagram, Vertex, compute_edges, parse_diagram
from quandlekit.fixtures import axet_z2_s3, diagram, list_systems, system
from quandlekit.invariants import group_hom_count, wirtinger_presentation
from quandlekit.moves import (
    DEFAULT_MOVES,
    InapplicableMoveError,
    MoveSpec,
    apply_move,
    candidate_moves,
    random_diagram,
    validate_scope,
)
from quandlekit.solve import Problem
from quandlekit.systems import (
    associated_quandle,
    axet_to_system,
    g_family_system,
    gamma_from_oplus,
    quandle_system,
)
from quandlekit.tables import (
    OperationTable,
    conjugation_quandle,
    generated_subalgebra,
    hom_count,
    symmetric_group,
    trivial_quandle,
    validate_axioms,
)

T3R3 = system("t3r3z2")
ASSOC, _ = associated_quandle(T3R3)
S3_POINT = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), symmetric_group(3))


def pair(x, g):
    return x * T3R3.g_size + g


def test_unknot_any_single_colour_is_proper():
    d = diagram("unknot")
    for p in range(6):
        assert verify_colouring(d, T3R3, Colouring((p,))).valid


def test_theta_g_element_constraint():
    d = diagram("theta")
    e, g = 0, 1
    proper = Colouring((pair(0, e), pair(0, e), pair(0, e)))
    assert verify_colouring(d, T3R3, proper).valid
    proper2 = Colouring((pair(0, e), pair(0, g), pair(0, g)))
    assert verify_colouring(d, T3R3, proper2).valid
    improper = Colouring((pair(0, e), pair(0, g), pair(0, e)))
    report = verify_colouring(d, T3R3, improper)
    assert not report.valid
    assert "vertex-g" in report.axioms_violated()


def test_vertex_x_mismatch_is_reported():
    d = diagram("theta")
    report = verify_colouring(d, T3R3, Colouring((pair(0, 0), pair(1, 0), pair(0, 0))))
    assert "vertex-x" in report.axioms_violated()


def test_reversed_vertex_arc_with_inverted_element_is_proper():
    # same theta with one arc formally reversed: colours transported by rho
    d = diagram("theta")
    rev = apply_move(d, MoveSpec("reverse_arc", 1)).diagram
    base = Colouring((pair(0, 0), pair(0, 1), pair(0, 1)))
    assert verify_colouring(d, T3R3, base).valid
    transported = Colouring((pair(0, 0), pair(0, T3R3.rho[0][1]), pair(0, 1)))
    assert verify_colouring(rev, T3R3, transported).valid


def test_count_unknot():
    assert count_colourings(diagram("unknot"), T3R3) == 6


def test_count_trefoil_by_dihedral():
    d = diagram("trefoil")
    r3 = system("r3")
    assert count_colourings(d, r3) == 9
    assert brute_force_count(d, r3) == 9


def test_count_theta():
    d = diagram("theta")
    assert count_colourings(d, T3R3) == 12
    assert brute_force_count(d, T3R3) == 12


def test_headline_distinction():
    mwuf, mwf = diagram("mwuf"), diagram("mwf")
    assert count_colourings(mwuf, T3R3, "generating") == 18
    assert count_colourings(mwf, T3R3, "generating") == 0
    assert count_colourings(mwuf, T3R3, "all") == 72
    assert count_colourings(mwf, T3R3, "all") == 54
    # independent oracle for the smaller diagram
    assert brute_force_count(mwuf, T3R3, "generating") == 18
    assert brute_force_count(mwuf, T3R3, "all") == 72


def test_enumerate_unknot():
    cols = enumerate_colourings(diagram("unknot"), T3R3, 3)
    assert len(cols) == 3
    assert len({c.assignment for c in cols}) == 3


def test_enumerate_trefoil_capped():
    cols = enumerate_colourings(diagram("trefoil"), system("r3"), 100)
    assert len(cols) == 9
    for c in cols:
        assert verify_colouring(diagram("trefoil"), system("r3"), c).valid


def test_enumerate_mwf_none_generate():
    d = diagram("mwf")
    cols = enumerate_colourings(d, T3R3, 10)
    assert len(cols) == 10
    for c in cols:
        closure = generated_subalgebra(ASSOC, set(c.assignment))
        assert len(closure) < 6


def test_backtracking_matches_brute_force_on_small_diagrams():
    found = 0
    seed = 0
    while found < 25:
        d = random_diagram(f"small-{seed}", 2, 2)
        seed += 1
        if d.arc_count > 5:
            continue
        found += 1
        assert count_colourings(d, T3R3) == brute_force_count(d, T3R3)


def test_counts_match_brute_force_beyond_keis():
    # over S3 the product is no kei and rho_x is no identity, which the
    # t3r3z2 comparisons cannot see; the poke crosses with both signs
    point = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), symmetric_group(3))
    poke = parse_diagram(
        "arcs 3\n"
        "crossing over=2 under_in=0 under_out=1 sign=+\n"
        "crossing over=2 under_in=1 under_out=0 sign=-\n"
    )
    small = (random_diagram(f"small-{s}", 2, 2) for s in range(200))
    for d in [poke, *itertools.islice((d for d in small if d.arc_count <= 4), 12)]:
        for mode in ("all", "generating"):
            assert count_colourings(d, point, mode) == brute_force_count(d, point, mode)


def test_single_arc_reversal_preserves_counts():
    for name in ("theta", "mwuf"):
        d = diagram(name)
        base = count_colourings(d, T3R3)
        for a in range(d.arc_count):
            try:
                moved = apply_move(d, MoveSpec("reverse_arc", a))
            except Exception:
                continue
            assert count_colourings(moved.diagram, T3R3) == base


def test_vertex_rotation_leaves_verdict_unchanged():
    import random

    rng = random.Random(5)
    systems = [T3R3, axet_to_system(axet_z2_s3())[0]]
    d = diagram("theta")
    for sys_ in systems:
        assoc, _ = associated_quandle(sys_)
        for _ in range(60):
            colours = tuple(rng.randrange(assoc.size) for _ in range(3))
            verdicts = []
            for k in range(3):
                ends = d.vertices[0].ends
                rotated = Diagram(
                    d.arc_count,
                    d.crossings,
                    (Vertex(ends[k:] + ends[:k]), d.vertices[1]),
                )
                verdicts.append(verify_colouring(rotated, sys_, Colouring(colours)).valid)
            assert len(set(verdicts)) == 1


def test_counts_match_group_hom_counts_for_point_families():
    s3 = symmetric_group(3)
    point = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), s3)
    for name in ("trefoil", "hopf", "unknot"):
        d = diagram(name)
        pres = wirtinger_presentation(d)
        assert count_colourings(d, point) == group_hom_count(pres, s3)


def test_missing_gamma_for_high_valence():
    d = parse_diagram(
        "arcs 4\n"
        "vertex ends=0:in,1:in,2:in,3:out\n"
        "vertex ends=3:in,0:out,1:out,2:out\n"
    )
    with pytest.raises(ValueError):
        count_colourings(d, T3R3)


def test_valence_four_counts_with_folded_gamma():
    from quandlekit.systems import gamma_from_oplus

    d = parse_diagram(
        "arcs 4\n"
        "vertex ends=0:in,1:in,2:in,3:out\n"
        "vertex ends=3:in,0:out,1:out,2:out\n"
    )
    data, report = gamma_from_oplus(T3R3, 3)
    assert report.valid
    count = count_colourings(d, data)
    assert count == brute_force_count(d, data)
    assert count > 0


@pytest.mark.parametrize("rows", [((1, 1), (0, 0)), ((1, 0), (0, 1))])
def test_non_quandle_products_are_refused(rows):
    # these counted 2 colourings of the unknot and 0 or 1 of the one-kink unknot
    non_quandle = quandle_system(OperationTable(2, rows))
    kinked = apply_move(diagram("unknot"), MoveSpec("r1_insert", 0)).diagram
    for d in (diagram("unknot"), kinked):
        with pytest.raises(ScopeError, match="not a quandle: axiom Q1"):
            count_colourings(d, non_quandle)


def component_count(sys_):
    return max(associated_quandle(sys_)[0].components) + 1


def test_components_are_the_orbits_of_the_right_translations():
    # Conj(S3): the identity, the transpositions and the 3-cycles, the
    # elements of order 1, 2 and 3
    s3 = symmetric_group(3)

    def order(g):
        power, k = g, 1
        while power != s3.identity:
            power, k = s3.table.entries[power][g], k + 1
        return k

    comp = associated_quandle(S3_POINT)[0].components
    classes = {}
    for g, c in enumerate(comp):
        classes.setdefault(c, set()).add(order(g))
    assert sorted(map(sorted, classes.values())) == [[1], [2], [3]]
    assert associated_quandle(system("r3"))[0].components == (0, 0, 0)
    assert component_count(T3R3) == 2
    assert component_count(system("t2t2z2")) == 4


def test_both_modes_match_brute_force_on_small_diagrams_with_vertices():
    few_arcs = 0
    small = [random_diagram(f"vertex-{s}", c, 2) for s in range(16) for c in (0, 1, 2)]
    fixtures = [diagram(name) for name in ("unknot", "hopf", "theta", "muf", "mwuf")]
    for d in fixtures + [d for d in small if d.arc_count <= 4]:
        for sys_ in (T3R3, S3_POINT, system("t2t2z2")):
            few_arcs += d.arc_count < component_count(sys_)
            for mode in ("all", "generating"):
                assert count_colourings(d, sys_, mode) == brute_force_count(d, sys_, mode), (
                    d, mode)
    # unknot and hopf by S3, unknot by t3r3z2, three-arc graphs by t2t2z2
    assert few_arcs >= 5


def partial_gamma(gamma3):
    """t3r3z2 with a stored arity-3 Gamma."""
    return replace(T3R3, gamma=((3, tuple(gamma3)),))


@pytest.mark.parametrize(
    "gamma3, bijective",
    [
        # Gamma(a, b, c) = a (+) c ignores b
        ([a ^ c for a in range(2) for b in range(2) for c in range(2)], [True, False, True]),
        # a (+) b (+) c: every argument is solved for
        ([a ^ b ^ c for a in range(2) for b in range(2) for c in range(2)], [True] * 3),
        # a AND b AND c: no argument is, so only the last end is forced
        ([a & b & c for a in range(2) for b in range(2) for c in range(2)], [False] * 3),
    ],
)
def test_vertex_rules_force_only_the_ends_gamma_determines(gamma3, bijective):
    data = partial_gamma(gamma3)
    assert [data.gamma_inverse(3, i) is not None for i in range(3)] == bijective
    d = parse_diagram(
        "arcs 4\n"
        "vertex ends=0:in,1:in,2:in,3:out\n"
        "vertex ends=3:in,0:out,1:out,2:out\n"
    )
    ctx = ColouringContext(d, data)
    for v in d.vertices:
        solve, forcing = ctx.vertex_rule(v)
        assert forcing == [i for i, b in enumerate(bijective) if b] + [3]
    graphs = [d] + [random_diagram(f"valence-{s}", 1, 2, (3, 4)) for s in range(12)]
    graphs = [g for g in graphs if all(v.valence == 4 for v in g.vertices) and g.vertices]
    assert len(graphs) >= 3
    for g in graphs:
        for mode in ("all", "generating"):
            assert count_colourings(g, data, mode) == brute_force_count(g, data, mode), (g, mode)


def test_inverses_are_built_only_for_ends_whose_arc_a_vertex_meets_once():
    # each muf vertex meets one arc at two ends and arc 1 at its middle end
    data = system("s3point")
    ctx = ColouringContext(diagram("muf"), data)
    assert [ctx.vertex_rule(v)[1] for v in diagram("muf").vertices] == [[1, 2], [1, 2]]
    assert set(data._gamma_inverses) == {(2, 1)}


def test_a_forced_end_satisfies_the_vertex_rule():
    # every end a rule fixes, taken back into the colouring, makes it proper
    ctx = ColouringContext(diagram("theta"), S3_POINT)
    for v in diagram("theta").vertices:
        solve, forcing = ctx.vertex_rule(v)
        assert forcing == [0, 1, 2]
        for colours in itertools.product(range(6), repeat=3):
            for i in forcing:
                fixed = list(colours)
                fixed[i] = solve(colours, i)
                assert 0 <= fixed[i] < 6
                assert solve(fixed, 2) == fixed[2]
                assert (fixed == list(colours)) == (solve(colours, 2) == colours[2])


def disjoint_union(d, e):
    shift = d.arc_count
    moved = tuple(
        Crossing(c.over + shift, c.under_in + shift, c.under_out + shift, c.sign)
        for c in e.crossings
    )
    return Diagram(d.arc_count + e.arc_count, d.crossings + moved, ())


def test_generating_counts_are_invariant_under_link_moves():
    # random link diagrams: random walks of link moves from the trefoil
    # and from the trefoil beside a Hopf link
    rng = random.Random(7)
    starts = [diagram("trefoil"), disjoint_union(diagram("trefoil"), diagram("hopf"))]
    systems = (system("r3"), S3_POINT, T3R3)
    nonzero = 0
    for walk in range(12):
        d = starts[walk % 2]
        want = [count_colourings(d, sys_, "generating") for sys_ in systems]
        nonzero += sum(w > 0 for w in want)
        for _ in range(4):
            candidates = list(candidate_moves(d, DEFAULT_MOVES["links"]))
            rng.shuffle(candidates)
            for spec in candidates:
                try:
                    d = apply_move(d, spec).diagram
                except InapplicableMoveError:
                    continue
                break
            got = [count_colourings(d, sys_, "generating") for sys_ in systems]
            assert got == want, (spec, d)
    assert nonzero >= 12


S4_POINT = g_family_system(tuple(trivial_quandle(1) for _ in range(24)), symmetric_group(4))
BUNDLED = ("t3r3z2", "t2t2z2", "r3", "s3point", "broken-tc4")


def plain_counts(d, sys_):
    """Both modes' counts from one plain search, each colouring counted
    once; images closed by ``generated_subalgebra``."""
    ctx = ColouringContext(d, sys_)
    generates: dict = {}
    counts = {"all": 0, "generating": 0}
    for colours in ctx.solutions():
        image = frozenset(colours)
        if image not in generates:
            generates[image] = len(generated_subalgebra(ctx.product, image)) == ctx.carrier
        counts["all"] += 1
        counts["generating"] += generates[image]
    return counts


def assert_orbit_sums_match(d, sys_, small):
    """count_colourings equals the plain search in both modes, and
    brute_force_count when the carrier^arcs assignments are few."""
    try:
        want = plain_counts(d, sys_)
    except ValueError:
        with pytest.raises(ValueError):
            count_colourings(d, sys_)
        return False
    for mode, count in want.items():
        assert count_colourings(d, sys_, mode) == count, (d, mode)
        if ColouringContext(d, sys_).carrier ** d.arc_count <= small:
            assert brute_force_count(d, sys_, mode) == count, (d, mode)
    return True


def test_orbit_sums_equal_plain_counts_on_fixtures():
    systems = [system(name) for name in BUNDLED] + [S3_POINT, S4_POINT]
    counted = 0
    for name in ("unknot", "trefoil", "hopf", "theta", "mlf", "muf", "mwf", "mwuf",
                 "athlete-happy", "athlete-unhappy"):
        for sys_ in systems:
            counted += assert_orbit_sums_match(diagram(name), sys_, 30_000)
    assert counted == 70


def test_orbit_sums_equal_plain_counts_on_random_diagrams():
    systems = (T3R3, system("t2t2z2"), system("s3point"), S3_POINT)
    orbit_sums = 0
    for i in range(200):
        d = random_diagram(f"orb-{i}", 6, 3)
        for sys_ in systems:
            assert assert_orbit_sums_match(d, sys_, 50_000)
            ctx = ColouringContext(d, sys_)
            orbit_sums += ctx.symmetry() is not None
    # t2t2z2 alone takes the plain path
    assert orbit_sums == 600


def s3_point_with_gamma3(t):
    """The S3 point family with Gamma_3(a, b, c) = a b c t."""
    mul = symmetric_group(3).table.entries
    gamma3 = tuple(mul[mul[mul[a][b]][c]][t] for a in range(6) for b in range(6) for c in range(6))
    return replace(S3_POINT, gamma=((3, gamma3),))


def test_translations_that_break_a_vertex_rule_take_the_plain_path(monkeypatch):
    # S3 point family with Gamma_3(a, b, c) = a b c t for a transposition t:
    # conjugation by an element that does not commute with t breaks it
    s3 = symmetric_group(3)
    mul = s3.table.entries
    t = next(g for g in range(6) if g != s3.identity and mul[g][g] == s3.identity)
    data = s3_point_with_gamma3(t)
    graphs = [random_diagram(f"valence-{s}", 1, 2, (3, 4)) for s in range(12)]
    graphs = [g for g in graphs if g.vertices and all(v.valence == 4 for v in g.vertices)]
    graphs.append(random_diagram("valence-58", 2, 2, (3, 4)))
    roots = recorded_roots(monkeypatch)
    for g in graphs:
        ctx = ColouringContext(g, data)
        assert ctx.symmetry() is None
        for mode in ("all", "generating"):
            assert count_colourings(g, data, mode) == brute_force_count(g, data, mode), (g, mode)
    assert len(roots) == 2 * len(graphs) and all(root is None for root in roots)
    # the orbit sum would miscount the last graph: 126 against 108
    ctx = ColouringContext(graphs[-1], data)
    a, weight = ctx.root_variable(), [1, 3, 0, 2, 0, 0]  # the components of Conj(S3)
    assert count_colourings(graphs[-1], data) == 108
    assert sum(weight[c[a]] for c in ctx.solutions() if c[a] in (0, 1, 3)) == 126
    # the same family with the central t = 1 counts by orbits
    central = s3_point_with_gamma3(s3.identity)
    ctx = ColouringContext(graphs[-1], central)
    assert ctx.symmetry() is not None
    assert ctx.count(ctx.symmetry()) == brute_force_count(graphs[-1], central)
    assert roots[-1] == (a, [0, 1, 3])


def test_the_symmetry_check_reads_x_parts_and_rho():
    ctx = ColouringContext(diagram("theta"), T3R3)
    assert ctx.respects_vertex_rules(tuple(range(6)))
    # (0, 0) <-> (1, 0) leaves every G part and rho alone, but sends the
    # pairs of X element 0 to different X elements
    assert not ctx.respects_vertex_rules((2, 1, 0, 3, 4, 5))
    # rho_2 swaps Z2 while rho_0 and rho_1 fix it: the translations by
    # (y, 1) move X element 2, so they do not commute with rho, and the
    # orbit sum would count 12 colourings of theta, not 8
    odd = replace(T3R3, rho=((0, 1), (0, 1), (1, 0)))
    ctx = ColouringContext(diagram("theta"), odd)
    assert ctx.symmetry() is None
    for mode in ("all", "generating"):
        assert count_colourings(diagram("theta"), odd, mode) == brute_force_count(
            diagram("theta"), odd, mode)
    assert count_colourings(diagram("theta"), odd) == 8


# two trivalent and two four-valent vertices: the rules read Gamma_2 and Gamma_3
MIXED = random_diagram("mixed-1", 1, 4, (3, 4))


def plain_respects(ctx, sigma):
    """``respects_vertex_rules`` as its docstring says it, element by
    element: sigma keeps X blocks whole, commutes with the flattened rho,
    and its G part at each x commutes with every Gamma the rules read."""
    data, n = ctx.system, ctx.g_size
    if any(sigma[p] // n != sigma[p - p % n] // n for p in range(ctx.carrier)):
        return False
    rho = data.flat_rho
    if any(sigma[rho[p]] != rho[sigma[p]] for p in range(ctx.carrier)):
        return False
    for x in range(data.x_size):
        s = [sigma[x * n + g] % n for g in range(n)]
        for k in ctx.arities:
            flat = data.gamma_table(k)
            for gs in itertools.product(range(n), repeat=k):
                at = image = 0
                for g in gs:
                    at, image = at * n + g, image * n + s[g]
                if flat[image] != s[flat[at]]:
                    return False
    return True


def rho_respecting(data, rng):
    """A permutation of the carrier that keeps X blocks whole and commutes
    with the flattened rho, or None where the rho_x it would have to match
    have different numbers of fixed points."""
    n, m = data.g_size, data.x_size
    tau = rng.sample(range(m), m)
    sigma = []
    for x in range(m):
        src, dst = data.rho[x], data.rho[tau[x]]
        fixed = [[g for g in range(n) if r[g] == g] for r in (src, dst)]
        pairs = [[g for g in range(n) if r[g] > g] for r in (src, dst)]
        if len(fixed[0]) != len(fixed[1]):
            return None
        rng.shuffle(fixed[1])
        rng.shuffle(pairs[1])
        s = dict(zip(*fixed))
        for g, h in zip(*pairs):
            h = dst[h] if rng.random() < 0.5 else h
            s[g], s[src[g]] = h, dst[h]
        sigma += [tau[x] * n + s[g] for g in range(n)]
    return tuple(sigma)


@settings(max_examples=150, deadline=None)
@given(st.integers(-1, 5), st.integers(0, 2), st.integers(0, 10**6))
def test_the_symmetry_check_equals_a_plain_check_of_its_conditions(t, kind, seed):
    from quandlekit import tables

    # t3r3z2 on theta (three X blocks, Gamma_2), or the S3 point family
    # with Gamma_3(a, b, c) = a b c t on MIXED (Gamma_2 and Gamma_3)
    d, data = (diagram("theta"), T3R3) if t < 0 else (MIXED, s3_point_with_gamma3(t))
    ctx = ColouringContext(d, data)
    assert ctx.arities == ({2} if t < 0 else {2, 3})
    rng = random.Random(seed)
    sigma = None
    if kind == 0:
        # a right translation of the product, as ``symmetry`` checks them
        sigma = ctx.product.columns[rng.randrange(ctx.carrier)]
    elif kind == 1:
        sigma = rho_respecting(data, rng)
    if sigma is None:
        sigma = tuple(rng.sample(range(ctx.carrier), ctx.carrier))
    want = plain_respects(ctx, sigma)
    # lines composed as tuples and as bytes
    for limit in (0, tables.BYTE_LINES_UP_TO):
        with mock.patch.object(tables, "BYTE_LINES_UP_TO", limit):
            assert ctx.respects_vertex_rules(sigma) == want, (t, sigma)


def test_singleton_components_take_the_plain_path(monkeypatch):
    t2 = system("t2t2z2")
    assert associated_quandle(t2)[0].components == (0, 1, 2, 3)
    roots = recorded_roots(monkeypatch)
    for name in ("theta", "mwuf", "athlete-happy"):
        d = diagram(name)
        assert ColouringContext(d, t2).symmetry() is None
        assert count_colourings(d, t2) == brute_force_count(d, t2)
    assert roots == [None] * 3
    # by the S3 point family, the root arc goes over one element a component
    count_colourings(diagram("theta"), S3_POINT)
    assert roots[-1] == (ColouringContext(diagram("theta"), S3_POINT).root_variable(), [0, 1, 3])


def test_the_symmetry_translates_by_the_subquandle_the_generators_generate():
    def closure(table, seeds):
        members = set(seeds)
        while True:
            more = {table[a][b] for a in members for b in members} - members
            if not more:
                return tuple(sorted(members))
            members |= more

    cases = [(diagram("theta"), system(name)) for name in list_systems()]
    for data in (S3_POINT, S4_POINT):
        cases += [(diagram("theta"), data), (MIXED, gamma_from_oplus(data, 3)[0])]
    plain = 0
    for d, data in cases:
        ctx = ColouringContext(d, data)
        symmetry = ctx.symmetry()
        if symmetry is None:  # every component is one element
            assert max(ctx.product.components) + 1 == ctx.carrier
            plain += 1
            continue
        product = ctx.product
        assert symmetry == (product, closure(product.entries, product.generators)), data
    assert plain == 1  # t2t2z2


def test_one_element_g_vertex_counts_are_pinned():
    # the ends of a vertex share their whole colour: counts in both modes,
    # and the nodes and leaves of the chain count
    want = {
        "r3": {
            "theta": (3, 0, 1, 1), "mlf": (3, 0, 1, 1), "muf": (3, 0, 1, 1),
            "mwf": (3, 0, 2, 1), "mwuf": (9, 6, 1, 1), "athlete-happy": (3, 0, 2, 1),
            "athlete-unhappy": (3, 0, 2, 1),
        },
        "conj-s4": {
            "theta": (24, 0, 1, 5), "mlf": (24, 0, 1, 5), "muf": (24, 0, 1, 5),
            "mwf": (120, 0, 6, 22), "mwuf": (576, 0, 1, 5), "athlete-happy": (120, 0, 6, 22),
            "athlete-unhappy": (120, 0, 6, 22),
        },
    }
    systems = {"r3": system("r3"),
               "conj-s4": quandle_system(conjugation_quandle(symmetric_group(4)))}
    for key, data in systems.items():
        assert data.g_size == 1
        for name, pinned in want[key].items():
            d = diagram(name)
            ctx = ColouringContext(d, data)
            got = ctx.count(ctx.symmetry())
            assert (got, count_colourings(d, data, "generating"), ctx.nodes, ctx.leaves) == pinned
            assert count_colourings(d, data) == got, (key, name)


def test_one_system_validates_its_product_once(monkeypatch):
    # counting, enumerating, verifying and checking a fuzz scope all read
    # the product the system keeps
    data = system("t3r3z2")
    product = associated_quandle(system("t3r3z2"))[0]  # equal, not the same
    validated = []

    def recording(table, *args, **kwargs):
        validated.append(table == product)
        return validate_axioms(table, *args, **kwargs)

    monkeypatch.setattr("quandlekit.systems.validate_axioms", recording)
    d = diagram("theta")
    assert count_colourings(d, data) == 12
    assert count_colourings(d, data, "generating") == 0
    assert len(enumerate_colourings(d, data, 4)) == 4
    assert verify_colouring(d, data, Colouring((0, 0, 0))).valid
    assert validate_scope(data, "handlebody") == []
    assert sum(validated) == 1


def test_a_system_that_shares_a_product_checks_its_own_rho(monkeypatch):
    # the same product as t3r3z2, whose translations respect its rho but
    # not this one: the count takes the plain path right after t3r3z2's
    # orbit sum
    odd = replace(T3R3, rho=((0, 1), (0, 1), (1, 0)))
    roots = recorded_roots(monkeypatch)
    assert count_colourings(diagram("theta"), T3R3) == 12
    assert count_colourings(diagram("theta"), odd) == 8
    assert roots[0] is not None and roots[1] is None


def test_branching_over_row_factors_cuts_the_failed_tries():
    # branching over all 24 values of an arc that only crossings' over
    # positions constrain refused 2,760, 4,212 and 5,234 tries
    for name, count, most in (("mlf", 576, 0), ("mwf", 5088, 0), ("athlete-happy", 1608, 523)):
        ctx = ColouringContext(diagram(name), S4_POINT)
        assert ctx.count(ctx.symmetry()) == count
        assert ctx.failed <= most, name


# the first 50 colourings of athlete-happy by S3_POINT in the search order
# of branching over every value, one digit an arc
FIRST_50 = (
    "0000000 0001100 0002200 0003300 0004400 0005500 0000011 0001111 "
    "0000022 0002222 0000033 0003333 0004433 0000044 0003344 0004444 "
    "0000055 0005555 1100000 1101100 1102200 1103300 1104400 1105500 "
    "1100011 1101111 1531252 1241543 1242143 1245243 1531234 1532534 "
    "1535134 1241525 2200000 2201100 2202200 2203300 2204400 2205500 "
    "2542151 2200022 2202222 2541543 2542143 2545243 2131234 2132534 "
    "2135134 2132515"
)


def test_branching_over_row_factors_keeps_the_search_order():
    found = enumerate_colourings(diagram("athlete-happy"), S3_POINT, 50)
    assert ["".join(map(str, c.assignment)) for c in found] == FIRST_50.split()


# generating counts by the point families, as the plain search finds them
GENERATING_BY_S3 = {"muf": 12, "mwf": 60, "mwuf": 126, "athlete-happy": 12, "athlete-unhappy": 42}


def test_generating_counts_vanish_below_the_strand_classes(monkeypatch):
    # c(under_out) = R_c(over)(c(under_in)) keeps a strand class in one
    # component, so an image meets no more components than there are
    # classes, and with fewer classes none generates: no search is made
    roots = recorded_roots(monkeypatch)
    t2t2z2 = system("t2t2z2")
    knots = [random_diagram(f"knot-{s}", 3, 0) for s in range(30)]
    graphs = [random_diagram(f"vertex-{s}", c, 2) for s in range(30) for c in (1, 2)]
    below = 0
    for d, sys_ in itertools.chain(
        ((d, S3_POINT) for d in knots if d.arc_count <= 4),
        ((d, t2t2z2) for d in graphs if d.arc_count <= 4),
    ):
        searches = len(roots)
        count = count_colourings(d, sys_, "generating")
        assert count == brute_force_count(d, sys_, "generating"), d
        if len(compute_edges(d)) < component_count(sys_):
            assert count == 0 and len(roots) == searches, d
            below += d.arc_count >= component_count(sys_)
    # diagrams with as many arcs as components that the arc count let through
    assert below >= 50
    names = ("unknot", "trefoil", "hopf", "theta", "mlf", "muf", "mwf", "mwuf",
             "athlete-happy", "athlete-unhappy")
    for name in names:
        assert count_colourings(diagram(name), S3_POINT, "generating") == GENERATING_BY_S3.get(
            name, 0), name
        # Conj(S4) has 5 components, and no fixture more than 4 classes
        searches = len(roots)
        assert count_colourings(diagram(name), S4_POINT, "generating") == 0
        assert len(roots) == searches


# the vertex-breaking family of the test above, with a transposition t
BREAKING = s3_point_with_gamma3(next(
    g for g, row in enumerate(symmetric_group(3).table.entries) if g != 0 and row[g] == 0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 2), st.booleans())
def test_chain_counts_equal_brute_force_on_small_diagrams(seed, crossings, vertices, four):
    d = random_diagram(f"chain-{seed}", crossings, vertices, (3, 4) if four else (3,))
    assume(d.arc_count <= 5)
    arities = {v.valence - 1 for v in d.vertices}
    for sys_ in (T3R3, system("t2t2z2"), system("s3point"), S3_POINT, BREAKING):
        if any(sys_.gamma_table(k) is None for k in arities):
            continue
        for mode in ("all", "generating"):
            assert count_colourings(d, sys_, mode) == brute_force_count(d, sys_, mode), (
                d, mode)


def test_a_stabiliser_trivial_at_the_second_level_gives_the_one_level_count():
    # R_0 and R_1 are the identity and R_2 swaps 0 and 1: components {0, 1}
    # and {2}.  Only R_0 and R_1 fix 0, so the chain ends below the root,
    # and below 2 every translation fixes it: the chain keeps the root's
    # group, and the next level goes over {0, 2}
    q = OperationTable(3, ((0, 0, 1), (1, 1, 0), (2, 2, 2)))
    assert validate_axioms(q, "quandle").valid and q.weights == (2, 0, 1)
    top = q.stabiliser(range(3))
    assert top.child(0) is None and top.child(2) is top
    data = quandle_system(q)
    for name in ("trefoil", "hopf", "mlf", "mwf", "athlete-happy"):
        d = diagram(name)
        ctx = ColouringContext(d, data)
        a = ctx.root_variable()
        one_level = sum(q.weights[c[a]] for c in ctx.solutions() if c[a] in (0, 2))
        assert ctx.count(ctx.symmetry()) == one_level == brute_force_count(d, data), name


def test_chain_reaches_fewer_leaves_than_colourings():
    ctx = ColouringContext(diagram("theta"), S4_POINT)
    assert ctx.count() == 576 and ctx.leaves == 576 and ctx.nodes > 0
    assert ctx.count(ctx.symmetry()) == 576
    assert 0 < ctx.leaves < 120 and 0 < ctx.nodes < ctx.leaves


def test_homs_by_the_chain_equal_plain_counts_into_s4(monkeypatch):
    # every count into S4, checked against the same problem counted with
    # no symmetry
    s4 = symmetric_group(4)
    count, checked = Problem.count, []

    def checking(self, symmetry=None, keep=None):
        got = count(self, symmetry, keep)
        if symmetry is not None:
            checked.append(got)
            assert got == count(self, None, keep)
        return got

    monkeypatch.setattr(Problem, "count", checking)
    for name in ("unknot", "trefoil", "hopf", "theta", "mlf", "muf", "mwf", "mwuf",
                 "athlete-happy", "athlete-unhappy"):
        group_hom_count(wirtinger_presentation(diagram(name)), s4)
    conj4 = s4.conjugation
    for source in (ASSOC, associated_quandle(system("s3point"))[0], conj4):
        for onto in (False, True):
            hom_count(source, conj4, onto)
    assert len(checked) == 16 and min(checked[:10]) > 0
