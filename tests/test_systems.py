import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit.tables
from quandlekit import systems
from quandlekit.diagrams import parse_diagram, serialize_diagram
from quandlekit.fixtures import axet_z2_s3, diagram, list_diagrams, list_systems, system
from quandlekit.invariants import parse_presentation, serialize_presentation, wirtinger_presentation
from quandlekit.systems import (
    FAMILY_KINDS,
    AxetData,
    SystemData,
    associated_quandle,
    axet_to_system,
    check_lemma_for,
    g_family_system,
    gamma_from_oplus,
    general_product_quandle,
    parse_axet,
    parse_system,
    quandle_system,
    search_involutions,
    serialize_axet,
    serialize_system,
    validate_axet,
    validate_family,
    validate_involution,
)
from quandlekit.tables import (
    BYTE_LINES_UP_TO,
    AxiomReport,
    OperationTable,
    ParseError,
    ReportBuilder,
    _column_collision,
    _distributivity_misses,
    alexander_quandle,
    conjugation_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    group_from_table,
    klein_group,
    parse_group,
    parse_table,
    serialize_group,
    serialize_table,
    symmetric_group,
    table_from,
    takasaki_quandle,
    trivial_quandle,
    validate_axioms,
)

Z2 = cyclic_group(2)
T2 = trivial_quandle(2)
T3 = trivial_quandle(3)
R3 = dihedral_quandle(3)


def test_t2t2z2_is_g_family():
    assert validate_family(system("t2t2z2"), "g_family").valid


def test_t3r3z2_is_g_family():
    assert validate_family(system("t3r3z2"), "g_family").valid


def test_swapped_family_fails_unit_axiom():
    bad = g_family_system((R3, T3), Z2)  # *_e must be trivial
    report = validate_family(bad, "g_family")
    assert not report.valid
    assert "gf2-unit" in report.axioms_violated()


def test_g_family_as_trivalent_compatible():
    data = system("t3r3z2")
    assert validate_family(data, "trivalent_compatible").valid
    assert validate_family(data, "associative_composition").valid
    assert validate_family(data, "fw_system").valid
    assert validate_family(data, "gsf_family").valid


def test_f_depending_on_first_argument_fails_condition_two():
    base = system("t3r3z2")
    bad = SystemData(
        x_size=base.x_size,
        g_size=base.g_size,
        star=base.star,
        f_map=((0, 0), (1, 1)),  # f(g, h) = g
        otimes=base.otimes,
        group=base.group,
        oplus=base.oplus,
        rho=base.rho,
    )
    report = validate_family(bad, "trivalent_compatible")
    assert not report.valid
    assert "tc2" in report.axioms_violated()


def test_missing_fields_raise():
    data = SystemData(x_size=2, g_size=1, star=(trivial_quandle(2),))
    with pytest.raises(ValueError):
        validate_family(data, "trivalent_compatible")
    with pytest.raises(ValueError):
        validate_family(data, "g_family")


def test_q_family_validation():
    # a quandle-indexed family: Q = R3 acting trivially on X
    data = SystemData(
        x_size=2,
        g_size=3,
        star=(T2, T2, T2),
        otimes=R3,
    )
    assert validate_family(data, "q_family").valid
    shift = table_from(2, lambda i, j: (i + 1) % 2)
    bad = SystemData(x_size=2, g_size=3, star=(shift, T2, T2), otimes=R3)
    report = validate_family(bad, "q_family")
    assert not report.valid
    assert "qf1" in report.axioms_violated()


# --- lemma ------------------------------------------------------------


def test_lemma_holds_for_conjugation_twist():
    assert check_lemma_for(system("t3r3z2")).valid


def test_lemma_holds_for_trivial_quandle_twist_on_abelian_group():
    data = SystemData(
        x_size=3,
        g_size=2,
        star=(T3, R3),
        f_map=((0, 1), (0, 1)),  # f(g, h) = h
        otimes=T2,  # trivial quandle structure on G
        group=Z2,
    )
    assert validate_family(data, "gsf_family").valid
    assert check_lemma_for(data).valid


def test_invalid_twist_found_by_exhaustive_loop():
    data = SystemData(
        x_size=3,
        g_size=2,
        star=(T3, R3),
        f_map=((0, 0), (1, 1)),  # f(g, h) = g breaks the twisted distributivity
        otimes=T2,
        group=Z2,
    )
    report = validate_family(data, "gsf_family")
    assert not report.valid
    assert "gsf3" in report.axioms_violated()
    with pytest.raises(ValueError):
        check_lemma_for(data)


def enumerate_gsf_families(x_size, group, g_quandle):
    """All families over the given carriers, by brute force."""
    n = group.size
    ops = [
        OperationTable(x_size, rows)
        for rows in itertools.product(
            itertools.product(range(x_size), repeat=x_size), repeat=x_size
        )
    ]
    for star in itertools.product(ops, repeat=n):
        base = SystemData(x_size=x_size, g_size=n, star=star, otimes=g_quandle, group=group)
        for f_flat in itertools.product(range(n), repeat=n * n):
            f_map = tuple(tuple(f_flat[i * n : (i + 1) * n]) for i in range(n))
            data = SystemData(
                x_size=x_size,
                g_size=n,
                star=star,
                f_map=f_map,
                otimes=g_quandle,
                group=group,
            )
            if validate_family(data, "gsf_family").valid:
                yield data


def test_lemma_is_implied_for_all_tiny_families():
    found = 0
    for x_size in (1, 2):
        for group, gq in ((cyclic_group(1), trivial_quandle(1)), (Z2, T2)):
            for data in enumerate_gsf_families(x_size, group, gq):
                found += 1
                assert check_lemma_for(data).valid
    assert found > 0


def test_lemma_on_sampled_larger_twists():
    # the f-map space over |G| in {3, 4} is too big to exhaust; sample it
    import random

    rng = random.Random(20240817)
    z3 = cyclic_group(3)
    t3g = trivial_quandle(3)
    star = (T2, T2, T2)
    hits = 0
    for _ in range(300):
        f_map = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        data = SystemData(x_size=2, g_size=3, star=star, f_map=f_map, otimes=t3g, group=z3)
        if validate_family(data, "gsf_family").valid:
            hits += 1
            assert check_lemma_for(data).valid
    assert hits > 0


def test_lemma_on_z4_family_with_three_point_carrier():
    # a genuine |X| = 3, |G| = 4 family: Z4 acts through its parity
    z4 = cyclic_group(4)
    conj = trivial_quandle(4)  # conjugation quandle of an abelian group
    star = (T3, R3, T3, R3)
    f_map = tuple(tuple(h for h in range(4)) for _ in range(4))
    data = SystemData(x_size=3, g_size=4, star=star, f_map=f_map, otimes=conj, group=z4)
    assert validate_family(data, "gsf_family").valid
    assert check_lemma_for(data).valid


def test_valid_twisted_families_are_idempotent_and_right_invertible():
    # consequence check: each *_g idempotent, each *_{f(g,h)} column a permutation
    samples = [system("t3r3z2")]
    samples += list(enumerate_gsf_families(2, Z2, T2))[:40]
    for data in samples:
        if data.f_map is None:
            continue
        assert validate_family(data, "gsf_family").valid
        for g in range(data.g_size):
            op = data.star[g]
            for x in range(data.x_size):
                assert op.entries[x][x] == x
            for h in range(data.g_size):
                table = data.star[data.f_at(g, h)]
                for y in range(data.x_size):
                    assert sorted(table.columns[y]) == list(range(data.x_size))


# --- associated quandles ----------------------------------------------


def test_associated_quandle_of_t2t2z2_is_trivial():
    assoc, report = associated_quandle(system("t2t2z2"))
    assert report.valid
    assert assoc.entries == trivial_quandle(4).entries


def test_associated_quandle_of_t3r3z2():
    assoc, report = associated_quandle(system("t3r3z2"))
    assert report.valid
    assert assoc.size == 6


def test_associated_matches_conjugation_formula_pointwise():
    data = system("t3r3z2")
    assoc, _ = associated_quandle(data)
    grp, n = data.group, 2
    for x in range(3):
        for g in range(n):
            for y in range(3):
                for h in range(n):
                    p, q = x * n + g, y * n + h
                    expect = data.star[h].entries[x][y] * n + grp.conjugate(g, h)
                    assert assoc.entries[p][q] == expect


def test_associated_dual_matches_inverse_formula():
    from quandlekit.tables import dual_operation

    data = system("t3r3z2")
    assoc, _ = associated_quandle(data)
    dual = dual_operation(assoc)
    grp, n = data.group, 2
    for x, g, y, h in itertools.product(range(3), range(n), range(3), range(n)):
        p, q = x * n + g, y * n + h
        hinv = grp.inverse[h]
        expect = data.star[hinv].entries[x][y] * n + grp.mul(grp.mul(h, g), hinv)
        assert dual.entries[p][q] == expect


def test_singleton_x_family_gives_conjugation_quandle():
    s3 = symmetric_group(3)
    data = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), s3)
    assoc, report = associated_quandle(data)
    assert report.valid
    assert assoc.entries == conjugation_quandle(s3, 1).entries


def test_fw_theorem_associated_quandle_is_valid():
    # every tiny system passing the base axioms with a quandle on G yields
    # a quandle on the product
    ops = [
        OperationTable(2, rows)
        for rows in itertools.product(itertools.product(range(2), repeat=2), repeat=2)
    ]
    checked = 0
    for star in itertools.product(ops, repeat=2):
        for f_flat in itertools.product(range(2), repeat=4):
            f_map = (tuple(f_flat[:2]), tuple(f_flat[2:]))
            data = SystemData(x_size=2, g_size=2, star=star, f_map=f_map, otimes=T2)
            if validate_family(data, "fw_system").valid:
                checked += 1
                _, report = associated_quandle(data)
                assert report.valid
    assert checked > 0


# --- fully general products -------------------------------------------


def test_general_product_trivial_components():
    f_maps = tuple(tuple(trivial_quandle(2) for _ in range(3)) for _ in range(3))
    g_maps = tuple(tuple(trivial_quandle(3) for _ in range(2)) for _ in range(2))
    assoc, report = general_product_quandle(f_maps, g_maps)
    assert report.valid
    assert assoc.entries == trivial_quandle(6).entries


def test_general_product_recovers_family_product():
    data = system("t3r3z2")
    grp = data.group
    f_maps = tuple(tuple(data.star[t] for t in range(2)) for _ in range(2))
    conj_tables = tuple(
        tuple(table_from(2, grp.conjugate) for _ in range(3)) for _ in range(3)
    )
    assoc, report = general_product_quandle(f_maps, conj_tables)
    assert report.valid
    expected, _ = associated_quandle(data)
    assert assoc.entries == expected.entries


def test_general_product_condition_one_failure_is_named():
    swap = table_from(2, lambda x, y: (x + 1) % 2)  # f(x, x) != x
    f_maps = ((swap, trivial_quandle(2)), (trivial_quandle(2), trivial_quandle(2)))
    g_maps = ((trivial_quandle(2), trivial_quandle(2)), (trivial_quandle(2), trivial_quandle(2)))
    assoc, report = general_product_quandle(f_maps, g_maps)
    assert not report.valid
    assert "bp1-f" in report.axioms_violated()
    assert not validate_axioms(assoc, "quandle").valid


def test_general_product_conditions_match_quandle_axioms():
    import random

    rng = random.Random(7)
    for _ in range(40):
        f_maps = tuple(
            tuple(
                table_from(2, lambda x, y, r=[rng.randrange(2) for _ in range(4)]: r[2 * x + y])
                for _ in range(2)
            )
            for _ in range(2)
        )
        g_maps = tuple(
            tuple(
                table_from(2, lambda s, t, r=[rng.randrange(2) for _ in range(4)]: r[2 * s + t])
                for _ in range(2)
            )
            for _ in range(2)
        )
        assoc, report = general_product_quandle(f_maps, g_maps)
        assert report.valid == validate_axioms(assoc, "quandle").valid


def reference_general_product_report(f_maps, g_maps) -> AxiomReport:
    """The bp1 to bp3 scan element by element, each side of each condition
    evaluated from the component maps."""
    s_size, x_size = len(f_maps), len(g_maps)

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
    return rb.report()


def test_general_product_reports_equal_the_reference_scan():
    import random

    rng = random.Random(12)
    idempotent = [trivial_quandle(3), dihedral_quandle(3)]

    def random_table(n):
        # mostly quandles, so that bp2 and bp3 are reached with few hits,
        # otherwise any operation
        if n == 3 and rng.random() < 0.6:
            return rng.choice(idempotent)
        flat = [rng.randrange(n) for _ in range(n * n)]
        return table_from(n, lambda a, b: flat[a * n + b])

    reports = []
    for trial in range(60):
        m, n = rng.choice([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
        f_maps = tuple(tuple(random_table(m) for _ in range(n)) for _ in range(n))
        g_maps = tuple(tuple(random_table(n) for _ in range(m)) for _ in range(m))
        assoc, report = general_product_quandle(f_maps, g_maps)
        assert report == reference_general_product_report(f_maps, g_maps), trial
        reports.append(report)
    data = system("t3r3z2")
    f_maps = tuple(tuple(data.star[t] for t in range(2)) for _ in range(2))
    g_maps = tuple(tuple(data.group.conjugation for _ in range(3)) for _ in range(3))
    report = general_product_quandle(f_maps, g_maps)[1]
    assert report.valid and report == reference_general_product_report(f_maps, g_maps)
    # the random inputs reach every condition's failure
    hit = {axiom for r in reports for axiom in r.axioms_violated()}
    assert hit == {"bp1-f", "bp1-g", "bp2", "bp3-f", "bp3-g"}


# --- involutions -------------------------------------------------------


def test_inversion_is_good_on_family_products():
    for name in ("t3r3z2", "t2t2z2"):
        data = system(name)
        assoc, _ = associated_quandle(data)
        assert validate_involution(assoc, data.flat_rho).valid


def test_identity_good_on_kei_not_on_conjugation():
    assert validate_involution(R3, (0, 1, 2)).valid
    conj = conjugation_quandle(symmetric_group(3), 1)
    report = validate_involution(conj, tuple(range(6)))
    assert not report.valid
    u, v = next(w for axiom, w in report.violations if axiom == "inv2")
    assert conj.entries[conj.entries[u][v]][v] != u


def test_search_involutions_on_trivial_quandle():
    found = search_involutions(T3)
    assert found == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
    assert found == sorted(found)


def test_search_involutions_contains_family_inversion():
    data = system("t3r3z2")
    assoc, _ = associated_quandle(data)
    assert data.flat_rho in search_involutions(assoc)
    assert (0, 1, 2) in search_involutions(R3)


def reference_good_involutions(q: OperationTable) -> list[tuple[int, ...]]:
    """The good involutions of q, from itertools and inline inv1 to inv3
    loops: no code shared with systems.py."""
    e, n = q.entries, q.size
    found = []
    for rho in itertools.permutations(range(n)):
        if any(rho[rho[u]] != u for u in range(n)):
            continue
        if all(e[e[u][v]][rho[v]] == u and e[rho[u]][v] == rho[e[u][v]]
               for u in range(n) for v in range(n)):
            found.append(rho)
    return found


def test_search_involutions_equals_the_reference():
    groups = [cyclic_group(n) for n in range(1, 7)] + [klein_group(), symmetric_group(3)]
    quandles = [maker(n) for n in range(1, 7) for maker in (trivial_quandle, dihedral_quandle)]
    quandles += [conjugation_quandle(g, k) for g in groups for k in (1, 2)]
    quandles += [takasaki_quandle(g) for g in groups[:-1]]
    quandles += [alexander_quandle(g, tuple(g.inverse)) for g in groups[:-1]]
    quandles += [dihedral_quandle(8), dihedral_quandle(9), trivial_quandle(8),
                 conjugation_quandle(dihedral_group(4), 1)]
    quandles += [associated_quandle(system(name))[0] for name in list_systems()]
    checked = 0
    for q in quandles:
        if validate_axioms(q, "quandle").valid:
            assert search_involutions(q) == reference_good_involutions(q), q.entries
            checked += 1
    assert checked >= 30


def test_two_axiom_variants_agree_on_random_involutions():
    import random

    rng = random.Random(99)
    tables = [T3, R3, conjugation_quandle(symmetric_group(3), 1), trivial_quandle(4)]
    for table in tables:
        n = table.size
        for _ in range(30):
            perm = list(range(n))
            rng.shuffle(perm)
            # symmetrise into an involution
            rho = [0] * n
            seen = set()
            for i in perm:
                if i in seen:
                    continue
                j = perm[i]
                if j in seen or j == i:
                    rho[i] = i
                    seen.add(i)
                else:
                    rho[i], rho[j] = j, i
                    seen.update((i, j))
            validate_involution(table, tuple(rho))  # asserts agreement internally


# --- axets --------------------------------------------------------------


def test_axet_example_validates_and_converts():
    axet = axet_z2_s3()
    assert validate_axet(axet).valid
    data, report = axet_to_system(axet)
    assert report.valid
    assert data.star[0].entries == T3.entries
    assert data.star[1].entries == R3.entries
    assert validate_family(data, "fw_system").valid
    assert validate_family(data, "trivalent_compatible").valid
    assert validate_family(data, "associative_composition").valid


def test_axet_with_trivial_tau_gives_trivial_family():
    axet = axet_z2_s3()
    trivial_tau = tuple((0, 0) for _ in range(3))
    flat = AxetData(axet.s_group, axet.g_group, axet.action, trivial_tau)
    assert validate_axet(flat).valid
    data, report = axet_to_system(flat)
    assert report.valid
    for op in data.star:
        assert op.entries == T3.entries


def test_axet_equivariance_violation_is_detected():
    axet = axet_z2_s3()
    tau = [list(r) for r in axet.tau]
    tau[0][1] = tau[1][1]  # no longer conjugation-equivariant
    broken = AxetData(axet.s_group, axet.g_group, axet.action, tuple(tuple(r) for r in tau))
    report = validate_axet(broken)
    assert not report.valid
    assert set(report.axioms_violated()) & {"axet1", "axet3"}
    with pytest.raises(ValueError):
        axet_to_system(broken)


# --- composition tables --------------------------------------------------


def test_gamma_fold_over_z2_family():
    data, report = gamma_from_oplus(system("t3r3z2"), 3)
    assert report.valid
    oplus = data.oplus.entries
    flat = data.gamma_table(3)
    for idx, gs in enumerate(itertools.product(range(2), repeat=3)):
        assert flat[idx] == oplus[oplus[gs[0]][gs[1]]][gs[2]]


def test_gamma_arity_two_matches_trivalent_verdict():
    data, report = gamma_from_oplus(system("t3r3z2"), 2)
    assert report.valid == validate_family(data, "trivalent_compatible").valid


def test_gamma_on_axet_system_arity_four():
    data, _ = axet_to_system(axet_z2_s3())
    out, report = gamma_from_oplus(data, 4)
    assert report.valid


def test_gamma_fold_over_z3_point_family():
    z3 = cyclic_group(3)
    data = g_family_system(tuple(trivial_quandle(1) for _ in range(3)), z3)
    _, report = gamma_from_oplus(data, 3)
    assert report.valid


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gamma_inverses_solve_each_argument_gamma_is_a_bijection_of(data):
    n = data.draw(st.integers(1, 3))
    arity = data.draw(st.integers(2, 3))
    cells = list(itertools.product(range(n), repeat=arity))
    # a linear table mod n, a bijection of each argument of unit weight,
    # with up to two cells changed
    weights = data.draw(st.lists(st.integers(0, n), min_size=arity, max_size=arity))
    flat = [sum(w * g for w, g in zip(weights, gs)) % n for gs in cells]
    for cell in data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=2)):
        flat[cell] = data.draw(st.integers(0, n - 1))
    base = system("t3r3z2") if n == 2 else g_family_system(
        tuple(trivial_quandle(1) for _ in range(n)), cyclic_group(n))
    sys_ = replace(base, oplus=None, group=None, gamma=((arity, tuple(flat)),))
    for i in range(arity):
        inverse = sys_.gamma_inverse(arity, i)
        assert inverse is sys_.gamma_inverse(arity, i)
        solved = {}  # (the other arguments, value) -> arguments at place i
        for gs, v in zip(cells, flat):
            solved.setdefault((gs[:i] + gs[i + 1 :], v), []).append(gs[i])
        bijective = all(len(solved.get((rest, v), ())) == 1
                        for rest in itertools.product(range(n), repeat=arity - 1)
                        for v in range(n))
        assert (inverse is not None) == bijective
        for idx, gs in enumerate(cells) if inverse is not None else ():
            assert solved[(gs[:i] + gs[i + 1 :], gs[i])] == [inverse[idx]]

def test_gamma_rejects_broken_precondition():
    with pytest.raises(ValueError):
        gamma_from_oplus(system("broken-tc4"), 3)


# --- files ----------------------------------------------------------------


def test_system_file_roundtrip():
    for name in ("t3r3z2", "t2t2z2", "broken-tc4", "r3"):
        data = system(name)
        text = serialize_system(data)
        again = parse_system(text)
        assert serialize_system(again) == text
        assert again.x_size == data.x_size and again.g_size == data.g_size


def test_system_file_roundtrip_with_gamma():
    data, _ = gamma_from_oplus(system("t3r3z2"), 3)
    text = serialize_system(data)
    again = parse_system(text)
    assert again.gamma_table(3) == data.gamma_table(3)
    assert serialize_system(again) == text


def test_a_gamma_2_that_is_not_the_group_product_is_refused():
    with pytest.raises(ValueError, match="arity-2 gamma must agree with oplus"):
        replace(system("t3r3z2"), oplus=None, gamma=((2, (0, 0, 0, 0)),))


def test_f_maps_built_in_code_are_checked_once_per_row_object():
    base = system("t3r3z2")
    shared = (0, 1)
    data = replace(base, f_map=[shared, shared])  # rows given as a list, one row object
    assert data.f_map == ((0, 1), (0, 1)) and data.f_map[0] is shared
    assert replace(base, f_map=[[0, 1], [1, 1]]).f_map == ((0, 1), (1, 1))
    for f_map in ([shared, (0, 2)], [(0, 1), (-1, 0)], [(2, 0)] * 2):
        with pytest.raises(ValueError, match="f_map entries out of range"):
            replace(base, f_map=f_map)
    for f_map in ([shared], [(0, 1, 0)] * 2, [shared, (0,)]):
        with pytest.raises(ValueError, match="f_map must be g_size x g_size"):
            replace(base, f_map=f_map)


def test_a_group_supplies_otimes_and_oplus():
    s3 = symmetric_group(3)
    fields = dict(x_size=2, g_size=6, star=tuple(trivial_quandle(2) for _ in range(6)),
                  f_map=tuple(tuple(range(6)) for _ in range(6)))
    bare = SystemData(**fields, group=s3)
    assert bare.otimes == s3.conjugation and bare.oplus == s3.table
    assert bare == SystemData(**fields, otimes=s3.conjugation, group=s3, oplus=s3.table)
    assert parse_system(serialize_system(bare)) == bare


def test_serialize_refuses_a_group_whose_product_is_not_oplus():
    data = replace(system("t3r3z2"), oplus=OperationTable(2, ((0, 0), (0, 1))))
    assert validate_family(data, "g_family").valid
    with pytest.raises(ValueError, match="not oplus"):
        serialize_system(data)


def test_axet_file_roundtrip():
    axet = axet_z2_s3()
    text = serialize_axet(axet)
    again = parse_axet(text)
    assert serialize_axet(again) == text
    assert validate_axet(again).valid


def test_quandle_system_wraps_bare_quandle():
    data = quandle_system(R3)
    assoc, report = associated_quandle(data)
    assert report.valid
    assert assoc.entries == R3.entries


@st.composite
def serializable_systems(draw):
    """Arbitrary systems that a file carries whole: a group's product is
    the stored (+), since ``serialize_system`` refuses any other."""
    data = draw(arbitrary_systems())
    if data.group is not None:
        data = replace(data, oplus=data.group.table)
    return data


@settings(max_examples=100, deadline=None)
@given(serializable_systems())
def test_system_files_round_trip(data):
    text = serialize_system(data)
    again = parse_system(text)
    assert again == data
    assert serialize_system(again) == text


SYSTEM_TEXTS = [serialize_system(system(name)) for name in list_systems()] + [
    serialize_system(gamma_from_oplus(system("t3r3z2"), k)[0]) for k in (2, 3)
]
MUTANTS = st.sampled_from(
    ["", "x", "=", "star", "rho", "gamma", "group", "f", "oplus", "identity=0", "inverse=0"]
) | st.integers(-2, 12).map(str)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SYSTEM_TEXTS), st.data())
def test_single_token_mutations_parse_or_raise_parse_error_with_a_line(text, data):
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = data.draw(st.sampled_from(spots))
    lines[i][j] = data.draw(MUTANTS)
    try:
        parse_system("\n".join(" ".join(toks) for toks in lines))
    except ParseError as exc:
        assert exc.line is not None


def test_group_record_entries_must_be_in_range():
    text = serialize_system(system("t3r3z2"))
    assert "group identity=0 inverse=0 1\n" in text
    for bad in ("group identity=7 inverse=0 1", "group identity=0 inverse=0 9"):
        with pytest.raises(ParseError) as exc:
            parse_system(text.replace("group identity=0 inverse=0 1", bad))
        assert exc.value.line == 4


def test_a_group_record_whose_oplus_is_not_a_group_is_a_parse_error_at_its_line():
    text = serialize_system(system("t3r3z2"))
    assert "oplus\n0 1\n1 0\n" in text
    with pytest.raises(ParseError, match="not a group") as exc:
        parse_system(text.replace("oplus\n0 1\n1 0\n", "oplus\n0 0\n0 0\n"))
    assert exc.value.line == 4
    # the identity the record names must be the product's
    with pytest.raises(ParseError, match="not a group") as exc:
        parse_system(text.replace("identity=0", "identity=1"))
    assert exc.value.line == 4


def test_a_group_record_whose_inverse_is_not_the_products_is_a_parse_error_at_its_line():
    text = serialize_system(system("t3r3z2"))
    with pytest.raises(ParseError, match="inverse") as exc:
        parse_system(text.replace("inverse=0 1", "inverse=1 0"))
    assert exc.value.line == 4


SYSTEM_RECORDS = ("group", "otimes", "oplus", "f", "star", "rho", "gamma")


def record_spans(lines):
    """(first, end) line indices of each record of a system file, with the
    matrix rows that follow its head."""
    heads = [i for i, line in enumerate(lines) if line.split()[0] in SYSTEM_RECORDS]
    return list(zip(heads, heads[1:] + [len(lines)]))


@pytest.mark.parametrize("text", SYSTEM_TEXTS)
def test_a_repeated_record_is_a_parse_error_at_the_repeat(text):
    lines = text.splitlines()
    for first, end in record_spans(lines):
        repeated = lines[:end] + lines[first:end] + lines[end:]
        with pytest.raises(ParseError, match="repeated") as exc:
            parse_system("\n".join(repeated) + "\n")
        assert (exc.value.line, exc.value.column) == (end + 1, 1), lines[first]


@pytest.mark.parametrize("text", SYSTEM_TEXTS)
def test_star_and_rho_indices_out_of_range_are_parse_errors_at_their_line(text):
    lines = text.splitlines()
    sizes = {"rho": int(lines[1].split()[1]), "star": int(lines[2].split()[1])}  # X, G
    for first, _ in record_spans(lines):
        head, *toks = lines[first].split()
        if head not in sizes:
            continue
        for bad in (sizes[head], sizes[head] + 5, -1):
            renumbered = lines.copy()
            renumbered[first] = " ".join([head, str(bad), *toks[1:]])
            with pytest.raises(ParseError, match=f"{head} {bad} out of range") as exc:
                parse_system("\n".join(renumbered) + "\n")
            assert (exc.value.line, exc.value.column) == (first + 1, len(head) + 2)


@st.composite
def renumbered_groups(draw):
    """Groups of order 1 to 6 with their elements renumbered, so that the
    identity may be any element."""
    g = draw(st.sampled_from(
        [cyclic_group(n) for n in range(1, 5)] + [klein_group(), symmetric_group(3)]))
    new = draw(st.permutations(range(g.size)))  # element a becomes new[a]
    old = {b: a for a, b in enumerate(new)}
    e = g.table.entries
    rows = tuple(tuple(new[e[old[i]][old[j]]] for j in range(g.size)) for i in range(g.size))
    return group_from_table(OperationTable(g.size, rows), identity=new[g.identity])


@st.composite
def axets(draw):
    """Axets whose groups, action permutations and tau are arbitrary; the
    file format does not require the stabiliser axioms."""
    s_group, g_group = draw(renumbered_groups()), draw(renumbered_groups())
    m = draw(st.integers(1, 4))
    action = draw(st.lists(st.permutations(range(m)).map(tuple), min_size=g_group.size,
                           max_size=g_group.size))
    row = st.lists(st.integers(0, g_group.size - 1), min_size=s_group.size, max_size=s_group.size)
    tau = draw(st.lists(row.map(tuple), min_size=m, max_size=m))
    return AxetData(s_group, g_group, tuple(action), tuple(tau))


@settings(max_examples=100, deadline=None)
@given(axets())
def test_axet_files_round_trip(axet):
    text = serialize_axet(axet)
    again = parse_axet(text)
    assert again == axet
    assert serialize_axet(again) == text


AXET_MUTANTS = st.sampled_from(
    ["", "x", "=", "action", "tau", "identity", "X", "S", "G", "axet"]
) | st.integers(-2, 12).map(str)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_token_axet_mutations_parse_or_raise_parse_error_with_a_line(data):
    lines = [line.split() for line in serialize_axet(axet_z2_s3()).splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = data.draw(st.sampled_from(spots))
    lines[i][j] = data.draw(AXET_MUTANTS)
    try:
        parse_axet("\n".join(" ".join(toks) for toks in lines))
    except ParseError as exc:
        assert exc.line is not None


def test_axet_errors_name_their_line():
    text = serialize_axet(axet_z2_s3())
    lines = text.splitlines()
    cases = {
        # an action row that is not a permutation of X
        "action 1 = 0 2 1": ("action 1 = 0 2 2", 16),
        # an identity outside G
        "identity 0\naction": ("identity 7\naction", 14),
        # a G table that is not a group: its first row repeats 1
        "0 1 2 3 4 5": ("0 1 1 3 4 5", 14),
    }
    assert lines[15] == "action 1 = 0 2 1"
    for old, (new, line) in cases.items():
        assert old in text
        with pytest.raises(ParseError) as exc:
            parse_axet(text.replace(old, new, 1))
        assert exc.value.line == line, old



def test_a_repeated_action_line_is_a_parse_error_at_the_repeat():
    lines = serialize_axet(axet_z2_s3()).splitlines()
    actions = [i for i, line in enumerate(lines) if line.startswith("action")]
    assert len(actions) == 6
    for i in actions:
        # the same line again, and the same g with another permutation
        g = lines[i].split()[1]
        for repeat in (lines[i], f"action {g} = 0 1 2"):
            with pytest.raises(ParseError, match=f"repeated 'action {g}'") as exc:
                parse_axet("\n".join(lines[: i + 1] + [repeat] + lines[i + 1 :]) + "\n")
            assert (exc.value.line, exc.value.column) == (i + 2, 1)

# --- validate_family against element-by-element loops -------------------
#
# The oracle below is the loop code that validate_family and
# check_lemma_for ran before their checks compared whole tables, kept
# verbatim but for the names, the checks for missing fields, and the
# lemma's precondition.  It shares only the report assembly
# (ReportBuilder), validate_axioms for the gq-/qq- merges and
# _column_collision for the first repeat in a column.


def _ref_check_fw(data: SystemData, rb: ReportBuilder) -> None:
    m, n = data.x_size, data.g_size
    f = data.f_at
    star = data.star
    otimes = data.otimes.entries
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


def _ref_check_oplus_def(data: SystemData, rb: ReportBuilder) -> None:
    m, n = data.x_size, data.g_size
    oplus = data.oplus.entries
    for g in range(n):
        for h in range(n):
            lhs_g, lhs_h = data.star[g].entries, data.star[h].entries
            rhs = data.star[oplus[g][h]].entries
            for x in range(m):
                for y in range(m):
                    if lhs_h[lhs_g[x][y]][y] != rhs[x][y]:
                        rb.hit("oplus-def", (x, y, g, h))


def _ref_check_trivalent(data: SystemData, rb: ReportBuilder) -> None:
    m, n = data.x_size, data.g_size
    otimes = data.otimes.entries
    oplus = data.oplus.entries
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


def _ref_check_n_compatible(data: SystemData, rb: ReportBuilder, arity: int) -> None:
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

    otimes = data.otimes.entries
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


def reference_family_report(data, kind, arities=()):
    rb = ReportBuilder()
    m, n = data.x_size, data.g_size

    if kind == "g_family":
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
        grp = data.group
        rb.merge(validate_axioms(data.otimes, "quandle"), prefix="gq-")
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
        otimes = data.otimes.entries
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
        rb.merge(validate_axioms(data.otimes, "quandle"), prefix="qq-")
        for a in range(n):
            op = data.star[a]
            for x in range(m):
                if op.entries[x][x] != x:
                    rb.hit("qf1", (x, a))
            for x in range(m):
                collision = _column_collision(op, x)
                if collision is not None:
                    rb.hit("qf2", (a, x, collision[0], collision[1]))
        circ = data.otimes.entries
        for a in range(n):
            for b in range(n):
                sa, sb = data.star[a].entries, data.star[b].entries
                sc = data.star[circ[a][b]].entries
                for x, y, z in itertools.product(range(m), repeat=3):
                    if sb[sa[x][y]][z] != sc[sb[x][z]][sb[y][z]]:
                        rb.hit("qf3", (x, y, z, a, b))

    elif kind == "fw_system":
        _ref_check_fw(data, rb)

    elif kind == "trivalent_compatible":
        _ref_check_fw(data, rb)
        _ref_check_oplus_def(data, rb)
        _ref_check_trivalent(data, rb)

    elif kind == "associative_composition":
        oplus = data.oplus.entries
        for g in range(n):
            for h in range(n):
                for q in range(n):
                    if oplus[g][oplus[h][q]] != oplus[oplus[g][h]][q]:
                        rb.hit("assoc", (g, h, q))

    elif kind == "n_compatible":
        if not arities:
            raise ValueError("n_compatible requires a list of arities")
        for arity in arities:
            _ref_check_n_compatible(data, rb, arity)

    elif kind == "lemma":
        m, n = data.x_size, data.g_size
        otimes = data.otimes.entries
        f = data.f_at
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

    else:
        raise ValueError(f"unknown family kind {kind!r}")

    return rb.report()


NEEDS = {
    "g_family": ("group",),
    "gsf_family": ("group", "f_map", "otimes"),
    "q_family": ("otimes",),
    "fw_system": ("f_map", "otimes"),
    "trivalent_compatible": ("f_map", "otimes", "oplus", "rho"),
    "associative_composition": ("oplus",),
    "n_compatible": ("f_map", "otimes", "rho"),
    "lemma": ("group", "f_map", "otimes"),
}


def family_report(data, kind, arities=()):
    """validate_family, or check_lemma_for with its gsf_family
    precondition waived so that it runs on any system."""
    if kind != "lemma":
        return validate_family(data, kind, arities)
    with mock.patch.object(systems, "validate_family", return_value=AxiomReport(True, ())):
        return check_lemma_for(data)


def assert_family_reports_match(data, kinds=FAMILY_KINDS + ("lemma",)):
    """Every kind that data has the fields for reports what the loops do,
    n_compatible at each arity with a composition table."""
    compared = 0
    for kind in kinds:
        arities = ()
        if kind == "n_compatible":
            arities = [k for k in (2, 3, 4) if data.gamma_table(k) is not None]
            if not arities:
                continue
        if all(getattr(data, field) is not None for field in NEEDS[kind]):
            want = reference_family_report(data, kind, arities)
            assert family_report(data, kind, arities) == want, kind
            compared += 1
    return compared


def point_family(group):
    """The family of one-point quandles over a group: its product is the
    conjugation quandle of the group."""
    return g_family_system(tuple(trivial_quandle(1) for _ in range(group.size)), group)


P4 = point_family(symmetric_group(4))
BUNDLED = [system(name) for name in list_systems()] + [
    axet_to_system(axet_z2_s3())[0],
    gamma_from_oplus(system("t3r3z2"), 3)[0],
    gamma_from_oplus(axet_to_system(axet_z2_s3())[0], 4)[0],
]


DISTRIBUTIVITY_POOL = {n: [trivial_quandle(n), dihedral_quandle(n), table_from(n, lambda i, j: (i + 1) % n),
                          table_from(n, lambda i, j: (i * j + 1) % n)] for n in (1, 2, 3, 8, 9)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DISTRIBUTIVITY_POOL)).flatmap(
    lambda n: st.lists(st.sampled_from(DISTRIBUTIVITY_POOL[n]), min_size=5, max_size=5)))
def test_whole_row_distributivity_agrees_with_a_scan(tables):
    # b[a[x][y]][z] = d[c[x][z]][e[y][z]], compared a whole column at a
    # time and element by element: every witness, in scan order
    def scan(a, b, c, d, e):
        a, b, c, d, e = (t.entries for t in (a, b, c, d, e))
        r = range(len(a))
        return [(x, y, z) for x in r for y in r for z in r if b[a[x][y]][z] != d[c[x][z]][e[y][z]]]

    table = tables[0]
    # lines composed as bytes and as tuples
    for limit in (0, BYTE_LINES_UP_TO):
        with mock.patch.object(quandlekit.tables, "BYTE_LINES_UP_TO", limit):
            assert list(_distributivity_misses(*tables)) == scan(*tables)
            # Q3 of one table whose columns permute: only a generating set
            # of the good z is checked
            if all(len(set(col)) == table.size for col in table.columns):
                assert list(_distributivity_misses(*(table,) * 5, True)) == scan(*(table,) * 5)


def test_bundled_systems_match_the_reference():
    compared = sum(assert_family_reports_match(data) for data in BUNDLED + [P4])
    assert compared >= 40


def tables(size):
    row = st.lists(st.integers(0, size - 1), min_size=size, max_size=size).map(tuple)
    rows = st.lists(row, min_size=size, max_size=size).map(tuple)
    return rows.map(lambda r: OperationTable(size, r))


def relabelled_groups(n):
    """Z_n, the one group of each order n <= 3, with its elements relabelled
    by a drawn permutation p: label p[k] stands for k."""
    return st.permutations(range(n)).map(lambda p: group_from_table(
        table_from(n, lambda a, b: p[(p.index(a) + p.index(b)) % n])))


@st.composite
def arbitrary_systems(draw):
    """Systems with |X| <= 3 and |G| <= 3 whose tables, f, rho and arity-3
    composition table are arbitrary and whose group is a relabelled Z_n,
    each field present or not."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g_index = st.integers(0, n - 1)
    maybe = lambda strategy: st.none() | strategy  # noqa: E731
    group = maybe(relabelled_groups(n))
    rho = st.lists(st.permutations(range(n)).map(tuple), min_size=m, max_size=m).map(tuple)
    gamma3 = st.lists(g_index, min_size=n**3, max_size=n**3).map(lambda flat: ((3, tuple(flat)),))
    return SystemData(
        x_size=m,
        g_size=n,
        star=tuple(draw(st.lists(tables(m), min_size=n, max_size=n))),
        f_map=draw(maybe(st.lists(
            st.lists(g_index, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n))),
        otimes=draw(maybe(tables(n))),
        group=draw(group),
        oplus=draw(maybe(tables(n))),
        gamma=draw(st.just(()) | gamma3),
        rho=draw(maybe(rho)),
    )


@settings(max_examples=200, deadline=None)
@given(arbitrary_systems())
def test_arbitrary_systems_match_the_reference(data):
    assert_family_reports_match(data)


@settings(max_examples=150, deadline=None)
@given(arbitrary_systems())
def test_associated_product_matches_its_formula_on_arbitrary_systems(data):
    if data.f_map is None or data.otimes is None:
        return
    assoc, report = associated_quandle(data)
    want = product_by_definition(data)
    assert assoc.entries == want.entries
    assert report == validate_axioms(want, "quandle")


def product_by_definition(data):
    """The product of ``data`` entry by entry: (x, g) . (y, h) is
    (x *_{f(g,h)} y, g (x) h), the pair (x, g) at index x * g_size + g."""
    m, n = data.x_size, data.g_size
    star, f, otimes = data.star, data.f_map, data.otimes.entries
    rows = [[0] * (m * n) for _ in range(m * n)]
    for x, g, y, h in itertools.product(range(m), range(n), range(m), range(n)):
        rows[x * n + g][y * n + h] = star[f[g][h]].entries[x][y] * n + otimes[g][h]
    return OperationTable(m * n, tuple(map(tuple, rows)))


S5 = symmetric_group(5)
# swap: idempotency fails at both elements, so the report names witnesses
SWAP = OperationTable(2, ((1, 0), (0, 1)))
PRODUCT_CASES = {
    **{f"bundled-{i}": data for i, data in enumerate(BUNDLED)},
    **{f"point-s{k}": point_family(symmetric_group(k)) for k in (3, 4, 5)},
    # X has one element and (x) is the group product, not a quandle
    "point-s3-product": replace(point_family(symmetric_group(3)), otimes=symmetric_group(3).table),
    **{f"quandle-{name}": quandle_system(table) for name, table in (
        ("t1", trivial_quandle(1)), ("t2", T2), ("t3", T3), ("r3", R3), ("r4", dihedral_quandle(4)),
        ("takasaki-z5", takasaki_quandle(cyclic_group(5))), ("swap", SWAP),
        ("conj-s5", conjugation_quandle(S5)))},
}


@pytest.mark.parametrize("data", PRODUCT_CASES.values(), ids=PRODUCT_CASES)
def test_the_product_is_its_definition_and_a_one_element_carrier_gives_its_own_table(data):
    assoc, report = associated_quandle(data)
    want = product_by_definition(data)
    assert assoc.entries == want.entries
    assert report == validate_axioms(want, "quandle")
    if data.x_size == 1:
        assert assoc is data.otimes
    elif data.g_size == 1:
        assert assoc is data.star[0]


def line_mutants(text, rng, count):
    """``count`` copies of ``text``, each with one line deleted, one line
    copied to another place, or two tokens swapped."""
    lines = text.splitlines()
    spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]
    for _ in range(count):
        out, kind, i = list(lines), rng.randrange(3), rng.randrange(len(lines))
        if kind == 0:
            del out[i]
        elif kind == 1:
            out.insert(rng.randrange(len(out) + 1), out[i])
        else:
            toks = [line.split() for line in out]
            (a, b), (c, d) = rng.sample(spots, 2)
            toks[a][b], toks[c][d] = toks[c][d], toks[a][b]
            out = [" ".join(t) for t in toks]
        yield "\n".join(out) + "\n"


def mutable_files():
    """(parse, serialize, text) for the bundled systems, their star
    tables and products, groups, and the fixtures' diagrams and Wirtinger
    presentations."""
    bundled = [system(name) for name in list_systems()]
    tables = {op for data in bundled for op in data.star} | {associated_quandle(data)[0] for data in bundled}
    for data in bundled:
        yield parse_system, serialize_system, serialize_system(data)
    for table in sorted(tables, key=lambda t: (t.size, t.entries)):
        yield parse_table, serialize_table, serialize_table(table)
    for group in (Z2, klein_group(), symmetric_group(3)):
        yield parse_group, serialize_group, serialize_group(group)
    for name in list_diagrams():
        yield parse_diagram, serialize_diagram, serialize_diagram(diagram(name))
        presentation = wirtinger_presentation(diagram(name))
        yield parse_presentation, serialize_presentation, serialize_presentation(presentation)


def test_line_mutants_of_the_bundled_files_raise_parse_error_or_round_trip():
    # 36 files, 25,200 mutants, about 6,000 of them parse
    rng = random.Random("line mutants")
    parsed = set()
    for parse, serialize, text in mutable_files():
        for mutant in line_mutants(text, rng, 700):
            try:
                value = parse(mutant)
            except ParseError:
                continue
            parsed.add(parse)
            assert parse(serialize(value)) == value
            if parse is parse_system:  # the product, shortcut or not
                assoc, report = associated_quandle(value)
                want = product_by_definition(value)
                assert (assoc.entries, report) == (want.entries, validate_axioms(want, "quandle"))
    assert len(parsed) == 5  # every format has mutants that parse


def mutated(data, field, draw):
    """data with one entry of star, f, otimes, oplus or a stored Gamma_k
    of arity 3 or more changed, or two entries of one rho_x exchanged;
    None when the field has no entry that can change.  A stored Gamma_2
    is left alone: it must equal (+)."""
    m, n = data.x_size, data.g_size
    if field == "gamma":
        arities = [k for k, _ in data.gamma if k > 2]
        if n == 1 or not arities:
            return None
        k = draw(st.sampled_from(arities))
        flat = list(dict(data.gamma)[k])
        i = draw(st.integers(0, len(flat) - 1))
        flat[i] = draw(st.integers(0, n - 1).filter(lambda v: v != flat[i]))
        return replace(data, gamma=tuple((a, tuple(flat) if a == k else t) for a, t in data.gamma))
    if field == "star":
        if m == 1:
            return None
        g, x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows = [list(row) for row in data.star[g].entries]
        rows[x][y] = draw(st.integers(0, m - 1).filter(lambda v: v != rows[x][y]))
        star = list(data.star)
        star[g] = OperationTable(m, tuple(map(tuple, rows)))
        return replace(data, star=tuple(star))
    if n == 1 or getattr(data, "f_map" if field == "f" else field) is None:
        return None
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if field == "rho":
        x, k = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1).filter(lambda k: k != i))
        perm = list(data.rho[x])
        perm[i], perm[k] = perm[k], perm[i]
        return replace(data, rho=data.rho[:x] + (tuple(perm),) + data.rho[x + 1 :])
    rows = [list(row) for row in (data.f_map if field == "f" else getattr(data, field).entries)]
    rows[i][j] = draw(st.integers(0, n - 1).filter(lambda v: v != rows[i][j]))
    rows = tuple(map(tuple, rows))
    if field == "f":
        return replace(data, f_map=rows)
    return replace(data, **{field: OperationTable(n, rows)}, gamma=())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLED), st.sampled_from(["star", "f", "otimes", "oplus", "rho"]), st.data())
def test_single_entry_mutations_match_the_reference(data, field, draw):
    changed = mutated(data, field, draw.draw)
    if changed is not None:
        assert_family_reports_match(changed)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["f", "otimes", "oplus", "rho"]), st.data())
def test_single_entry_mutations_of_the_s4_point_family_match_the_reference(field, draw):
    assert_family_reports_match(mutated(P4, field, draw.draw))


def q_family(star, circ):
    return SystemData(x_size=star[0].size, g_size=len(star), star=tuple(star), otimes=circ)


def trivalent(rho, oplus):
    """t3r3z2 with rho and (+) replaced."""
    return replace(system("t3r3z2"), rho=rho, oplus=oplus, group=None)


def test_axioms_scanned_side_by_side_enter_the_report_at_their_first_witness():
    shift = table_from(2, lambda i, j: 1 - i)  # not idempotent, columns permute
    const = table_from(2, lambda i, j: i * j)  # idempotent, column 0 repeats
    # qf1 and qf2 are checked for each a in turn
    for star, order in (((const, shift), ("qf2", "qf1")), ((shift, const), ("qf1", "qf2"))):
        data = q_family(star, T2)
        report = validate_family(data, "q_family")
        assert report == reference_family_report(data, "q_family")
        assert report.axioms_violated()[:2] == order
    # tc6a and tc6b are checked for each (x, g, h) in turn
    swap = ((1, 0), (1, 0), (1, 0))
    for oplus, first in ((OperationTable(2, ((0, 1), (1, 1))), "tc6a"),
                         (OperationTable(2, ((0, 1), (0, 0))), "tc6b")):
        data = trivalent(swap, oplus)
        report = validate_family(data, "trivalent_compatible")
        assert report == reference_family_report(data, "trivalent_compatible")
        tc6 = [axiom for axiom in report.axioms_violated() if axiom.startswith("tc6")]
        assert tc6[0] == first, tc6


def test_duplicate_arities_are_checked_once():
    data = system("broken-tc4")
    once = validate_family(data, "n_compatible", [2])
    assert not once.valid
    assert validate_family(data, "n_compatible", [2, 2]) == once
    data3, _ = gamma_from_oplus(system("t3r3z2"), 3)
    assert validate_family(data3, "n_compatible", [3, 2, 3, 2]) == reference_family_report(
        data3, "n_compatible", [3, 2])


P5 = point_family(symmetric_group(5))


def test_every_kind_over_the_s5_point_family_is_quick_and_valid():
    # P5 meets every axiom, so each report is empty, as the loops found
    from test_acceptance import Timer

    for kind in FAMILY_KINDS:
        with Timer(2.0):
            assert validate_family(P5, kind, [2]) == AxiomReport(True, ())
    with Timer(2.0):
        assert check_lemma_for(P5) == AxiomReport(True, ())


def test_s5_point_family_with_one_entry_changed_matches_the_reference():
    # (x) changed at one entry: gq- and several tc and nc axioms fail
    rows = [list(row) for row in P5.otimes.entries]
    rows[7][90] = (rows[7][90] + 1) % 120
    data = replace(P5, otimes=OperationTable(120, tuple(map(tuple, rows))))
    for kind in FAMILY_KINDS + ("lemma",):
        arities = [2] if kind == "n_compatible" else ()
        report = family_report(data, kind, arities)
        assert report == reference_family_report(data, kind, arities), kind
    assert not validate_family(data, "trivalent_compatible").valid


S3_GAMMA3 = gamma_from_oplus(point_family(symmetric_group(3)), 3)[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_single_entry_mutations_of_an_arity_3_gamma_match_the_reference(draw):
    # Gamma_3 of the S3 point family, the left fold of (+), with one entry
    # changed: the checks at arity 3 against the loops, entry by entry
    changed = mutated(S3_GAMMA3, "gamma", draw.draw)
    assert changed.gamma_table(3) != S3_GAMMA3.gamma_table(3)
    report = validate_family(changed, "n_compatible", [3])
    assert report == reference_family_report(changed, "n_compatible", [3])
    assert not report.valid


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BUNDLED + [S3_GAMMA3]),
       st.sampled_from(["star", "f", "otimes", "oplus", "rho", "gamma"]), st.data())
def test_single_entry_mutations_match_the_reference_with_lines_as_tuples(data, field, draw):
    # the lines of tables of more than BYTE_LINES_UP_TO elements are tuples
    changed = mutated(data, field, draw.draw) or data
    with mock.patch.object(quandlekit.tables, "BYTE_LINES_UP_TO", 0):
        assert_family_reports_match(changed)


def test_each_slow_kind_over_a_fresh_s5_point_family_takes_under_a_fifth_of_a_second():
    from test_acceptance import Timer

    for kind in ("gsf_family", "fw_system", "trivalent_compatible", "n_compatible", "lemma"):
        data = point_family(symmetric_group(5))  # built afresh, outside the timer
        with Timer(0.2):
            report = family_report(data, kind, [2]) if kind != "lemma" else check_lemma_for(data)
        assert report == AxiomReport(True, ()), kind


def reference_argument_inverse(flat, n, stride):
    """The inverse of a flat table in its digit of weight ``stride``, one
    fibre at a time through a dict, or None if a fibre is not a
    permutation."""
    inv = [0] * len(flat)
    block, digits = n * stride, range(n)
    for start in range(0, len(flat), block):
        for s in range(start, start + stride):
            digit_of = dict(zip(flat[s : s + block : stride], digits))
            if len(digit_of) < n:
                return None
            inv[s : s + block : stride] = map(digit_of.__getitem__, digits)
    return tuple(inv)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 6]), st.sampled_from([2, 3]), st.data())
def test_argument_inverses_equal_a_dict_per_fibre(n, arity, data):
    cells = list(itertools.product(range(n), repeat=arity))
    if data.draw(st.booleans()):  # linear mod n, a bijection of each argument of unit weight
        weights = data.draw(st.lists(st.integers(0, n), min_size=arity, max_size=arity))
        flat = [sum(w * g for w, g in zip(weights, gs)) % n for gs in cells]
        for cell in data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=2)):
            flat[cell] = data.draw(st.integers(0, n - 1))
    else:
        flat = data.draw(st.lists(st.integers(0, n - 1), min_size=len(cells), max_size=len(cells)))
    flat = tuple(flat)
    for limit in (0, BYTE_LINES_UP_TO):  # fibres as tuples and as bytes
        with mock.patch.object(quandlekit.tables, "BYTE_LINES_UP_TO", limit):
            for i in range(arity):
                stride = n ** (arity - 1 - i)
                want = reference_argument_inverse(flat, n, stride)
                assert systems._argument_inverse(flat, n, stride) == want


# *_g = R3 for odd g in S3 and trivial for even g, a G-family pulled back
# along the sign map: two star tables on six elements, so fw3, gsf3 and
# the lemma first test the 32 keys made of the two star indices that f
# takes, 32 being under 6 ** 2
ODD = [sum(p[i] > p[j] for i, j in itertools.combinations(range(3), 2)) % 2
       for p in sorted(itertools.permutations(range(3)))]
SIGN_S3 = g_family_system(tuple(R3 if odd else T3 for odd in ODD), symmetric_group(3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["star", "f", "otimes", "oplus", "rho"]), st.data())
def test_single_entry_mutations_of_the_sign_family_over_s3_match_the_reference(field, draw):
    assert validate_family(SIGN_S3, "g_family").valid
    assert_family_reports_match(mutated(SIGN_S3, field, draw.draw))
