import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.fixtures import axet_z2_s3, list_systems, system
from quandlekit.systems import (
    AxetData,
    SystemData,
    associated_quandle,
    axet_to_system,
    check_lemma_for,
    flatten_rho,
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
    OperationTable,
    ParseError,
    conjugation_quandle,
    cyclic_group,
    dihedral_quandle,
    symmetric_group,
    table_from,
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
                    assert sorted(table.column(y)) == list(range(data.x_size))


# --- associated quandles ----------------------------------------------


def test_associated_quandle_of_t2t2z2_is_trivial():
    assoc, report = associated_quandle(system("t2t2z2"))
    assert report.valid
    assert assoc.table.entries == trivial_quandle(4).entries


def test_associated_quandle_of_t3r3z2():
    assoc, report = associated_quandle(system("t3r3z2"))
    assert report.valid
    assert assoc.table.size == 6


def test_associated_matches_conjugation_formula_pointwise():
    data = system("t3r3z2")
    assoc, _ = associated_quandle(data)
    grp = data.group
    for x in range(3):
        for g in range(2):
            for y in range(3):
                for h in range(2):
                    p = assoc.pair_index(x, g)
                    q = assoc.pair_index(y, h)
                    expect = assoc.pair_index(
                        data.star[h].entries[x][y], grp.conjugate(g, h)
                    )
                    assert assoc.table.entries[p][q] == expect


def test_associated_dual_matches_inverse_formula():
    from quandlekit.tables import dual_operation

    data = system("t3r3z2")
    assoc, _ = associated_quandle(data)
    dual = dual_operation(assoc.table)
    grp = data.group
    for x, g, y, h in itertools.product(range(3), range(2), range(3), range(2)):
        p, q = assoc.pair_index(x, g), assoc.pair_index(y, h)
        hinv = grp.inverse[h]
        expect = assoc.pair_index(
            data.star[hinv].entries[x][y], grp.mul(grp.mul(h, g), hinv)
        )
        assert dual.entries[p][q] == expect


def test_singleton_x_family_gives_conjugation_quandle():
    s3 = symmetric_group(3)
    data = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), s3)
    assoc, report = associated_quandle(data)
    assert report.valid
    assert assoc.table.entries == conjugation_quandle(s3, 1).entries


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
    assert assoc.table.entries == trivial_quandle(6).entries


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
    assert assoc.table.entries == expected.table.entries


def test_general_product_condition_one_failure_is_named():
    swap = table_from(2, lambda x, y: (x + 1) % 2)  # f(x, x) != x
    f_maps = ((swap, trivial_quandle(2)), (trivial_quandle(2), trivial_quandle(2)))
    g_maps = ((trivial_quandle(2), trivial_quandle(2)), (trivial_quandle(2), trivial_quandle(2)))
    assoc, report = general_product_quandle(f_maps, g_maps)
    assert not report.valid
    assert "bp1-f" in report.axioms_violated()
    assert not validate_axioms(assoc.table, "quandle").valid


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
        assert report.valid == validate_axioms(assoc.table, "quandle").valid


# --- involutions -------------------------------------------------------


def test_inversion_is_good_on_family_products():
    for name in ("t3r3z2", "t2t2z2"):
        data = system(name)
        assoc, _ = associated_quandle(data)
        assert validate_involution(assoc.table, flatten_rho(data)).valid


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
    assert flatten_rho(data) in search_involutions(assoc.table)
    assert (0, 1, 2) in search_involutions(R3)


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
    oplus = data.eff_oplus().entries
    for gs in itertools.product(range(2), repeat=3):
        assert data.gamma_at(3, gs) == oplus[oplus[gs[0]][gs[1]]][gs[2]]


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
    assert assoc.table.entries == R3.entries


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
