import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from searches import recorded_roots

from quandlekit.systems import g_family_system, parse_system, serialize_system
from quandlekit.tables import (
    OperationTable,
    ParseError,
    _read_matrix,
    alexander_quandle,
    conjugation_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    dual_operation,
    generated_subalgebra,
    group_exponent,
    group_from_table,
    hom_count,
    klein_group,
    parse_group,
    parse_table,
    serialize_group,
    serialize_table,
    standard_quandle,
    symmetric_group,
    table_from,
    takasaki_quandle,
    trivial_quandle,
    validate_axioms,
)

R3 = dihedral_quandle(3)
T3 = trivial_quandle(3)
S3 = symmetric_group(3)


def test_dihedral_is_quandle():
    assert validate_axioms(R3, "quandle").valid


def test_trivial_is_quandle():
    for n in (1, 2, 5):
        assert validate_axioms(trivial_quandle(n), "quandle").valid


def test_trivial_quandle_is_the_checked_table_of_i_times_j_equals_i():
    for n in range(1, 9):
        assert trivial_quandle(n) == table_from(n, lambda i, j: i)
    with pytest.raises(ValueError, match="positive"):
        trivial_quandle(0)


def test_corrupted_dihedral_reports_column_violation():
    rows = [list(r) for r in R3.entries]
    rows[0][1] = 0  # column 1 now repeats 0
    bad = OperationTable(3, tuple(tuple(r) for r in rows))
    report = validate_axioms(bad, "quandle")
    assert not report.valid
    q2 = [w for axiom, w in report.violations if axiom == "Q2"]
    assert q2 and q2[0][0] == 1
    # the witness re-evaluates: two rows collide in column 1
    j, i1, i2 = q2[0]
    assert bad.entries[i1][j] == bad.entries[i2][j] and i1 != i2


def test_witness_reevaluates_for_q1_and_q3():
    rows = [list(r) for r in T3.entries]
    rows[2][2] = 0
    bad = OperationTable(3, tuple(tuple(r) for r in rows))
    report = validate_axioms(bad, "quandle")
    kinds = report.axioms_violated()
    assert "Q1" in kinds
    for axiom, witness in report.violations:
        if axiom == "Q1":
            (i,) = witness
            assert bad.entries[i][i] != i
        elif axiom == "Q3":
            i, j, k = witness
            e = bad.entries
            assert e[e[i][j]][k] != e[e[i][k]][e[j][k]]


def test_kei_profile():
    assert validate_axioms(R3, "kei").valid
    conj = conjugation_quandle(S3, 1)
    assert validate_axioms(conj, "quandle").valid
    assert not validate_axioms(conj, "kei").valid


def test_rack_drops_idempotency():
    # constant-shift rack on Z3: i * j = i + 1
    shift = table_from(3, lambda i, j: (i + 1) % 3)
    assert validate_axioms(shift, "rack").valid
    assert not validate_axioms(shift, "quandle").valid


def test_group_profile():
    assert validate_axioms(S3.table, "group").valid
    assert not validate_axioms(R3, "group").valid


def test_standard_quandles():
    assert standard_quandle("trivial", 3).entries == T3.entries
    z3 = cyclic_group(3)
    assert takasaki_quandle(z3).entries == R3.entries
    assert standard_quandle("takasaki", z3).entries == R3.entries
    conj = standard_quandle("conj", S3, 1)
    assert conj.size == 6
    assert validate_axioms(conj, "quandle").valid


def test_conjugation_exponent_reduction():
    exp = group_exponent(S3)
    assert conjugation_quandle(S3, 1).entries == conjugation_quandle(S3, 1 + exp).entries
    assert conjugation_quandle(S3, 0).entries == trivial_quandle(6).entries


def test_takasaki_requires_abelian():
    with pytest.raises(ValueError):
        takasaki_quandle(S3)


def test_alexander_quandle():
    z5 = cyclic_group(5)
    negate = tuple((-a) % 5 for a in range(5))
    table = alexander_quandle(z5, negate)
    assert validate_axioms(table, "quandle").valid
    # x -> x + 1 is not an automorphism of (Z5, +)
    with pytest.raises(ValueError):
        alexander_quandle(z5, tuple((a + 1) % 5 for a in range(5)))


def test_groups():
    assert S3.size == 6
    assert dihedral_group(4).size == 8
    assert klein_group().size == 4
    assert group_exponent(klein_group()) == 2
    assert group_exponent(cyclic_group(6)) == 6


def test_dual_examples():
    assert dual_operation(R3).entries == R3.entries
    assert dual_operation(trivial_quandle(4)).entries == trivial_quandle(4).entries
    conj = conjugation_quandle(S3, 1)
    dual = dual_operation(conj)
    # independent oracle: a dual b = b a b^-1 written in the group
    oracle = table_from(6, lambda a, b: S3.mul(S3.mul(b, a), S3.inverse[b]))
    assert dual.entries == oracle.entries
    assert dual_operation(dual).entries == conj.entries


def test_dual_requires_permutation_columns():
    bad = table_from(3, lambda i, j: 0)
    with pytest.raises(ValueError):
        dual_operation(bad)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_dual_is_involution_on_column_permutation_tables(seed, n):
    import random

    rng = random.Random(seed)
    cols = [rng.sample(range(n), n) for _ in range(n)]
    table = table_from(n, lambda i, j: cols[j][i])
    assert dual_operation(dual_operation(table)).entries == table.entries


def loop_dual(table):
    """Reference: a dual b is the i with i * b = a, filled in by a loop."""
    n = table.size
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for b in range(n):
            rows[table.entries[i][b]][b] = i
    return tuple(map(tuple, rows))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), min_size=n, max_size=n),
    st.none() | st.tuples(
        st.integers(0, n - 1), st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))))
def test_dual_matches_a_loop_built_inverse(drawn):
    from quandlekit import tables

    # columns that are permutations, and now and then one arbitrary column
    cols, other = drawn
    if other is not None:
        j, col = other
        cols[j] = col
    n = len(cols)
    table = OperationTable(n, tuple(zip(*cols)))
    bad = [j for j, col in enumerate(cols) if len(set(col)) < n]
    # lines composed as tuples and as bytes
    for limit in (0, tables.BYTE_LINES_UP_TO):
        with mock.patch.object(tables, "BYTE_LINES_UP_TO", limit):
            if bad:
                with pytest.raises(ValueError, match=f"column {bad[0]} is not a permutation"):
                    dual_operation(table)
            else:
                assert dual_operation(table).entries == loop_dual(table)


def test_generated_subalgebra_examples():
    assert generated_subalgebra(R3, [0]) == (0,)
    assert generated_subalgebra(R3, [0, 1]) == (0, 1, 2)


def test_generated_subalgebra_of_family_product_pair():
    # closure of {(x0, e), (x1, g)} inside the 6-element product of the
    # Z2 family of T3 and R3: a 3-element subquandle (not the 6 elements a
    # naive reading of its products would suggest)
    from quandlekit.fixtures import system
    from quandlekit.systems import associated_quandle

    assoc, _ = associated_quandle(system("t3r3z2"))
    n = 2  # the pair (x, g) is at x * n + g
    seeds = {0 * n + 0, 1 * n + 1}
    closure = generated_subalgebra(assoc, seeds)
    assert closure == (0 * n + 0, 1 * n + 1, 2 * n + 0)
    # and the product of the two seeds lands on the third element
    a, b = sorted(seeds)
    assert assoc.entries[a][b] == 2 * n + 0


def test_generated_subalgebra_monotone_idempotent():
    conj = conjugation_quandle(S3, 1)
    for seeds in ([0], [1, 2], [3], [0, 5]):
        closure = generated_subalgebra(conj, seeds)
        assert set(seeds) <= set(closure)
        assert generated_subalgebra(conj, closure) == closure
        bigger = generated_subalgebra(conj, list(seeds) + [4])
        assert set(closure) <= set(bigger)


def closure_under_both(table, seeds):
    """Independent oracle: close under * and its inverse, read off the dual."""
    dual = dual_operation(table).entries
    members = set(seeds)
    while True:
        more = {op[a][b] for op in (table.entries, dual) for a in members for b in members}
        if more <= members:
            return tuple(sorted(members))
        members |= more


def test_generated_subalgebra_equals_the_closure_under_both_operations():
    # x * y = x + 1 mod 5 is a rack that is not a quandle
    shift = table_from(5, lambda x, y: (x + 1) % 5)
    tables = [dihedral_quandle(6), takasaki_quandle(cyclic_group(7)),
              conjugation_quandle(dihedral_group(4), 1), conjugation_quandle(symmetric_group(4), 1),
              alexander_quandle(cyclic_group(7), tuple(3 * a % 7 for a in range(7))), shift]
    assert validate_axioms(shift, "rack").valid and not validate_axioms(shift, "quandle").valid
    for table in tables:
        for seeds in itertools.combinations(range(table.size), 2):
            assert generated_subalgebra(table, seeds) == closure_under_both(table, seeds)
        assert generated_subalgebra(table, [1]) == closure_under_both(table, [1])
    assert generated_subalgebra(shift, [2]) == tuple(range(5))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), min_size=n, max_size=n),
    st.sets(st.integers(0, n - 1), min_size=1))))
def test_generated_subalgebra_equals_the_closure_when_columns_permute(drawn):
    from quandlekit import tables

    # no rack axiom holds, so a closure that reads only a*b, or only
    # b*a, of a new element a and the members b falls short
    cols, seeds = drawn
    table = table_from(len(cols), lambda i, j: cols[j][i])
    want = closure_under_both(table, seeds)
    # lines composed as tuples and as bytes
    for limit in (0, tables.BYTE_LINES_UP_TO):
        with mock.patch.object(tables, "BYTE_LINES_UP_TO", limit):
            assert generated_subalgebra(table, seeds) == want


def test_generated_subalgebra_needs_right_translations_that_are_permutations():
    with pytest.raises(ValueError, match="column 0 is not a permutation"):
        generated_subalgebra(table_from(3, lambda x, y: 0), [0])


def brute_hom_count(source, target, surjective_only=False):
    """Independent oracle: scan all |target|^|source| maps."""
    n, m = source.size, target.size
    count = 0
    for phi in itertools.product(range(m), repeat=n):
        if surjective_only and set(phi) != set(range(m)):
            continue
        if all(
            phi[source.entries[a][b]] == target.entries[phi[a]][phi[b]]
            for a in range(n)
            for b in range(n)
        ):
            count += 1
    return count


def test_hom_count_examples():
    assert hom_count(trivial_quandle(2), T3) == 9
    assert hom_count(R3, R3) == brute_hom_count(R3, R3) == 9
    assert hom_count(R3, T3, surjective_only=True) == brute_hom_count(R3, T3, True) == 0


def test_hom_count_matches_brute_force_on_mixed_pairs():
    conj = conjugation_quandle(S3, 1)
    pairs = [(R3, conj), (T3, R3), (conj, R3)]
    for a, b in pairs:
        assert hom_count(a, b) == brute_hom_count(a, b)


def test_orbit_weights_are_class_sizes_at_least_elements():
    conj = conjugation_quandle(S3, 1)
    assert conj.components == (0, 1, 1, 2, 2, 1)
    assert conj.weights == (1, 3, 0, 2, 0, 0)
    s4 = conjugation_quandle(symmetric_group(4), 1)
    assert sorted(w for w in s4.weights if w) == [1, 3, 6, 6, 8]
    assert dihedral_quandle(4).weights == (2, 2, 0, 0)
    assert trivial_quandle(3).weights == (1, 1, 1)


def test_hom_count_by_components_into_quandles(monkeypatch):
    conj = conjugation_quandle(S3, 1)
    pairs = [(R3, R3), (R3, conj), (conj, R3), (T3, R3), (R3, T3), (trivial_quandle(2), conj),
             (dihedral_quandle(4), dihedral_quandle(4))]
    roots = recorded_roots(monkeypatch)
    for a, b in pairs:
        for onto in (False, True):
            assert hom_count(a, b, onto) == brute_hom_count(a, b, onto), (a, b, onto)
    assert all(root is not None for root in roots)
    # R4 has components {0, 2} and {1, 3}: one representative each
    assert roots[-1][1] == [0, 1]
    assert hom_count(R3, R3, surjective_only=True) == 6


def test_hom_count_into_non_quandles_takes_the_plain_path(monkeypatch):
    shift = table_from(3, lambda i, j: (i + 1) % 3)  # a rack, not a quandle
    meet = table_from(3, min)  # not right-invertible
    swap = OperationTable(2, ((1, 1), (0, 0)))
    pairs = [(R3, shift), (trivial_quandle(2), shift), (shift, shift), (R3, meet),
             (meet, meet), (T3, swap), (swap, swap)]
    roots = recorded_roots(monkeypatch)
    for a, b in pairs:
        for onto in (False, True):
            assert hom_count(a, b, onto) == brute_hom_count(a, b, onto), (a, b, onto)
    assert roots == [None] * 2 * len(pairs)


def test_constant_maps_to_idempotents():
    one = trivial_quandle(1)
    shift = table_from(3, lambda i, j: (i + 1) % 3)  # rack without idempotents
    assert hom_count(one, shift) == 0
    assert hom_count(one, R3) == 3


def test_table_file_roundtrip():
    text = "# a comment\nmagma 3\n0 2 1\n2 1 0\n1 0 2   \n"
    table = parse_table(text)
    assert table.entries == R3.entries
    canonical = serialize_table(table)
    assert parse_table(canonical).entries == table.entries
    assert serialize_table(parse_table(canonical)) == canonical


def test_group_file_roundtrip():
    text = serialize_group(S3)
    again = parse_group(text)
    assert again.table.entries == S3.table.entries
    assert again.identity == S3.identity
    assert serialize_group(again) == text


def test_parse_errors_carry_location():
    from quandlekit.tables import ParseError

    with pytest.raises(ParseError) as err:
        parse_table("magma 2\n0 x\n1 0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_table("magma 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_table("wrong 2\n")


def test_every_valid_quandle_has_permutation_columns():
    for table in (R3, T3, conjugation_quandle(S3, 1), takasaki_quandle(cyclic_group(5))):
        assert validate_axioms(table, "quandle").valid
        for j in range(table.size):
            assert sorted(table.columns[j]) == list(range(table.size))


def test_violation_report_is_capped():
    bad = table_from(8, lambda i, j: 0)
    report = validate_axioms(bad, "quandle")
    q1 = [w for axiom, w in report.violations if axiom == "Q1"]
    assert len(q1) <= 16


# --- validate_axioms against a plain scan --------------------------------


def reference_report(entries, profile, identity=None):
    """Independent oracle: an element-by-element scan of every element,
    pair and triple, in lexicographic order, keeping the first 16
    witnesses of each axiom.  It shares no code with quandlekit.tables."""
    e, n = entries, len(entries)
    order, hits = [], {}

    def hit(axiom, witness):
        if axiom not in hits:
            order.append(axiom)
            hits[axiom] = []
        hits[axiom].append(witness)

    if profile in ("quandle", "kei"):
        for i in range(n):
            if e[i][i] != i:
                hit("Q1", (i,))
    if profile in ("quandle", "rack", "kei"):
        for j in range(n):
            first_row = {}
            for i in range(n):
                if e[i][j] in first_row:
                    hit("Q2", (j, first_row[e[i][j]], i))
                    break
                first_row[e[i][j]] = i
        for i, j, k in itertools.product(range(n), repeat=3):
            if e[e[i][j]][k] != e[e[i][k]][e[j][k]]:
                hit("Q3", (i, j, k))
        if profile == "kei":
            for i, j in itertools.product(range(n), repeat=2):
                if e[e[i][j]][j] != i:
                    hit("K4", (i, j))
    else:
        for a, b, c in itertools.product(range(n), repeat=3):
            if e[e[a][b]][c] != e[a][e[b][c]]:
                hit("assoc", (a, b, c))
        if identity is None:
            for c in range(n):
                if all(e[c][g] == g and e[g][c] == g for g in range(n)):
                    identity = c
                    break
        if identity is None:
            hit("identity", ())
        else:
            for g in range(n):
                if e[identity][g] != g or e[g][identity] != g:
                    hit("identity", (g,))
            for g in range(n):
                if not any(e[g][h] == identity and e[h][g] == identity for h in range(n)):
                    hit("inverse", (g,))
    violations = tuple((axiom, w) for axiom in order for w in hits[axiom][:16])
    return not order, violations


PROFILES = ("quandle", "rack", "kei", "group")


def assert_matches_reference(table, profiles=PROFILES, identities=(None,)):
    """validate_axioms agrees with the plain scan, with lines composed as
    bytes and as tuples."""
    from quandlekit import tables

    for profile in profiles:
        for identity in identities if profile == "group" else (None,):
            want = reference_report(table.entries, profile, identity)
            for limit in (0, tables.BYTE_LINES_UP_TO):
                with mock.patch.object(tables, "BYTE_LINES_UP_TO", limit):
                    report = validate_axioms(table, profile, identity=identity)
                assert (report.valid, report.violations) == want, (profile, identity, limit)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_axiom_reports_match_a_plain_scan_on_arbitrary_tables(rows):
    table = OperationTable(len(rows), tuple(map(tuple, rows)))
    assert_matches_reference(table, identities=(None, 0, len(rows) - 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=n, max_size=n)))
def test_axiom_reports_match_a_plain_scan_when_columns_permute(columns):
    n = len(columns)
    table = table_from(n, lambda i, j: columns[j][i])
    assert_matches_reference(table)


REAL_QUANDLES = [
    dihedral_quandle(3),
    dihedral_quandle(5),
    dihedral_quandle(6),
    trivial_quandle(4),
    conjugation_quandle(S3, 1),
    conjugation_quandle(dihedral_group(4), 1),
    takasaki_quandle(cyclic_group(7)),
    alexander_quandle(cyclic_group(7), tuple(3 * a % 7 for a in range(7))),
    conjugation_quandle(symmetric_group(4), 1),
]
REAL_GROUPS = [
    cyclic_group(5).table,
    klein_group().table,
    S3.table,
    dihedral_group(4).table,
    dihedral_group(5).table,
    symmetric_group(4).table,
]


def swap_in_column(table, j, i1, i2):
    """The table with entries (i1, j) and (i2, j) exchanged: column j stays
    a permutation, so Q2 still holds wherever it held."""
    rows = [list(row) for row in table.entries]
    rows[i1][j], rows[i2][j] = rows[i2][j], rows[i1][j]
    return OperationTable(table.size, tuple(map(tuple, rows)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(REAL_QUANDLES + REAL_GROUPS), st.data())
def test_axiom_reports_match_a_plain_scan_on_swapped_columns(table, data):
    n = table.size
    j, i1, i2 = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    mutated = swap_in_column(table, j, i1, i2)
    assert_matches_reference(mutated, identities=(None, data.draw(st.integers(0, n - 1))))


def test_real_quandles_and_groups_pass_and_a_swap_is_caught():
    for table in REAL_QUANDLES:
        assert validate_axioms(table, "quandle").valid
    for table in REAL_GROUPS:
        assert validate_axioms(table, "group").valid
    # one swap in one column leaves Q2 intact and breaks Q3 at a few triples
    bad = swap_in_column(conjugation_quandle(symmetric_group(4), 1), 5, 1, 2)
    report = validate_axioms(bad, "quandle")
    assert report.axioms_violated() == ("Q3",)
    assert (report.valid, report.violations) == reference_report(bad.entries, "quandle")


def test_conjugation_quandle_of_s5_and_s5_match_a_plain_scan():
    s5 = symmetric_group(5)
    conj = conjugation_quandle(s5, 1)
    assert_matches_reference(conj, profiles=("quandle", "rack", "kei"))
    assert validate_axioms(conj, "quandle").valid
    assert not validate_axioms(conj, "kei").valid
    assert_matches_reference(s5.table, profiles=("group",))
    assert validate_axioms(s5.table, "group").valid
    broken = swap_in_column(conj, 7, 3, 90)
    assert_matches_reference(broken, profiles=("quandle",))
    assert not validate_axioms(broken, "quandle").valid
    broken = swap_in_column(s5.table, 7, 3, 90)
    assert_matches_reference(broken, profiles=("group",))
    assert not validate_axioms(broken, "group").valid


def test_tables_too_large_for_byte_lines_are_checked_as_tuples():
    from quandlekit import tables

    n = 263
    assert n > tables.BYTE_LINES_UP_TO
    table = dihedral_quandle(n)
    assert validate_axioms(table, "quandle").valid
    assert validate_axioms(table, "kei").valid
    assert validate_axioms(cyclic_group(n).table, "group").valid
    # one swap in one column keeps it a permutation and breaks Q3
    swapped = swap_in_column(table, 7, 3, 90)
    report = validate_axioms(swapped, "quandle")
    assert report.axioms_violated() == ("Q3",)
    e = swapped.entries
    assert all(e[e[i][j]][k] != e[e[i][k]][e[j][k]] for _, (i, j, k) in report.violations)
    dual = dual_operation(swapped).entries
    assert all(dual[e[i][j]][j] == i for i in range(n) for j in range(n))


def test_identity_out_of_range_is_refused():
    for identity in (-1, 6, 7):
        with pytest.raises(ValueError):
            validate_axioms(S3.table, "group", identity=identity)
    from quandlekit.tables import ParseError

    with pytest.raises(ParseError) as err:
        parse_group("magma 3\nidentity 7\n0 1 2\n1 2 0\n2 0 1\n")
    assert err.value.line == 2


def test_a_table_that_is_not_a_group_is_a_parse_error_at_its_identity_or_header_line():
    from quandlekit.tables import ParseError

    for text, line in (
        ("magma 3\n0 1 2\n1 1 0\n2 0 1\n", 1),  # not associative, no identity line
        ("# Z3 with the wrong identity\n\nmagma 3\nidentity 1\n0 1 2\n1 2 0\n2 0 1\n", 4),
        ("magma 2\nidentity 0\n0 1\n1 1\n", 2),  # no inverse of 1
    ):
        with pytest.raises(ParseError, match="not a group") as err:
            parse_group(text)
        assert err.value.line == line, text


# --- the table file reader -------------------------------------------------


def square_tables(max_size=7):
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
        min_size=n, max_size=n).map(lambda rows: OperationTable(n, tuple(rows))))


@settings(max_examples=200, deadline=None)
@given(square_tables())
def test_table_files_round_trip(table):
    text = serialize_table(table)
    again = parse_table(text)
    assert again == table
    assert serialize_table(again) == text


TABLE_TEXTS = [serialize_table(t) for t in (R3, T3, conjugation_quandle(S3, 1))] + [
    serialize_group(S3), serialize_group(cyclic_group(4))]
TABLE_MUTANTS = st.sampled_from(
    ["", "x", "magma", "identity", "1.5", "0x1", "-0", "+1", "=", "9" * 30]
) | st.integers(-2, 9).map(str)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_TEXTS), st.data())
def test_single_token_table_mutations_parse_or_raise_parse_error_with_a_line(text, data):
    from quandlekit.tables import ParseError

    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = data.draw(st.sampled_from(spots))
    lines[i][j] = data.draw(TABLE_MUTANTS)
    try:
        parse_table("\n".join(" ".join(toks) for toks in lines))
    except ParseError as exc:
        assert exc.line is not None


def test_table_entry_errors_name_their_line_and_column():
    from quandlekit.tables import ParseError

    for bad, line, column in (
        ("magma 3\n0 2 1\n2 1 0\n1 0 5\n", 4, 5),  # out of range
        ("magma 3\n0 2 1\n2 y 0\n1 0 2\n", 3, 3),  # not an integer
        ("magma 3\n0 2 1\n2 1 -1\n1 0 2\n", 3, 5),  # negative
        ("magma 3\n0 2 1\n2 1\n1 0 2\n", 3, 1),  # too short
    ):
        with pytest.raises(ParseError) as err:
            parse_table(bad)
        assert (err.value.line, err.value.column) == (line, column), bad


def test_operation_tables_refuse_entries_out_of_range_or_not_integers():
    for rows, bad in ((((0, 1), (1, 2)), "2"), (((0, 1), (-1, 0)), "-1"), (((0, 1.0), (1, 0)), "1.0")):
        with pytest.raises(ValueError, match=f"entry {bad} out of range 0..1"):
            OperationTable(2, rows)


def read_by_token(lines, rows, cols, bound, what):
    """Reference for ``_read_matrix``: ``int`` on every token of a row, then
    the range of every entry, one at a time."""
    label = f"{what}: " if what else ""
    out = []
    for lineno, line in lines[:rows]:
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(f"{label}expected {cols} entries", lineno, 1)
        row = []
        for t in toks:
            try:
                row.append(int(t))
            except ValueError:
                raise ParseError(f"expected integer, got {t!r}", lineno, line.find(t) + 1)
        for t, v in zip(toks, row):
            if not 0 <= v < bound:
                span = f" 0..{bound - 1}" if what else ""
                raise ParseError(f"{label}entry {v} out of range{span}", lineno, line.find(t) + 1)
        out.append(tuple(row))
    if len(out) < rows:
        raise ParseError(f"unexpected end of file in {what} block", lines[-1][0])
    return tuple(out)


def matrix_tokens(bound):
    """Mostly plain decimals in range, with zero-padded, signed, non-ASCII,
    out-of-range and non-integer tokens among them."""
    plain = st.integers(0, bound - 1).map(str)
    odd = st.sampled_from(["-0", "+0", "00", "x", "1.0", "0x1", "1_0", "\u0663"]) | st.one_of(
        st.integers(0, bound - 1).map(lambda v: f"00{v}"),
        st.integers(0, bound - 1).map(lambda v: f"+{v}"),
        st.integers(bound, bound + 20).map(str),
        st.integers(-5, -1).map(str),
    )
    return st.one_of(plain, plain, plain, odd)


@st.composite
def matrix_blocks(draw):
    bound, rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    widths = st.sampled_from([cols, cols, cols, cols, cols + 1, max(cols - 1, 1)])
    tokens = matrix_tokens(bound)
    present = draw(st.integers(max(rows - 1, 1), rows))
    texts = ["  ".join(draw(st.lists(tokens, min_size=w, max_size=w)))
             for w in draw(st.lists(widths, min_size=present, max_size=present))]
    for r in range(1, present):
        if draw(st.booleans()):  # a line read before, good or bad, again
            texts[r] = texts[draw(st.integers(0, r - 1))]
    lines = [(3 + 2 * r, text) for r, text in enumerate(texts)]
    return lines, rows, cols, bound, draw(st.sampled_from([None, "star 1"]))


@settings(max_examples=400, deadline=None)
@given(matrix_blocks())
def test_read_matrix_agrees_with_int_on_every_token(block):
    lines, rows, cols, bound, what = block
    try:
        want = read_by_token(lines, rows, cols, bound, what)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _read_matrix(lines, 0, rows, cols, bound, what)
        assert (str(got.value), got.value.line, got.value.column) == (
            str(exc), exc.line, exc.column)
    else:
        got, pos = _read_matrix(lines, 0, rows, cols, bound, what)
        assert (got, pos) == (want, rows)
        assert all(type(v) is int for row in got for v in row)


def test_a_repeated_row_is_read_once_and_a_bad_one_fails_at_its_first_line():
    lines = [(2, "0 1 2"), (3, "2 0 1"), (4, "0 1 2"), (5, "0 1 2")]
    rows, _ = _read_matrix(lines, 0, 4, 3, 3, "f")
    assert rows == ((0, 1, 2), (2, 0, 1), (0, 1, 2), (0, 1, 2))
    assert rows[0] is rows[2] is rows[3]
    lines = [(2, "0 1 2"), (4, "0 5 1"), (5, "0 5 1")]
    with pytest.raises(ParseError) as exc:
        _read_matrix(lines, 0, 3, 3, 3, "f")
    assert str(exc.value) == "f: entry 5 out of range 0..2 (line 4, column 3)"
    assert (exc.value.line, exc.value.column) == (4, 3)


def test_a_g_family_over_s5_round_trips_with_its_f_rows():
    s5 = symmetric_group(5)
    p5 = g_family_system(tuple(trivial_quandle(1) for _ in range(s5.size)), s5)
    again = parse_system(serialize_system(p5))
    assert again == p5
    assert again.f_map == p5.f_map == (tuple(range(120)),) * 120
    assert len(set(map(id, again.f_map))) == 1
