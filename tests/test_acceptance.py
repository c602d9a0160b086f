"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py``)."""

import contextlib
import io
import itertools
import time

from quandlekit.cli import main
from quandlekit.coloring import brute_force_count, count_colourings
from quandlekit.fixtures import axet_z2_s3, diagram, system
from quandlekit.invariants import (
    hom_fingerprint,
    kauffman_summary,
    serialize_presentation,
    wirtinger_presentation,
)
from quandlekit.moves import fuzz_invariance, random_diagram
from quandlekit.systems import (
    SystemData,
    associated_quandle,
    axet_to_system,
    check_lemma_for,
    g_family_system,
    gamma_from_oplus,
    search_involutions,
    validate_axet,
    validate_family,
    validate_involution,
)
from quandlekit.tables import (
    OperationTable,
    alexander_quandle,
    conjugation_quandle,
    cyclic_group,
    dihedral_quandle,
    klein_group,
    serialize_group,
    symmetric_group,
    takasaki_quandle,
    trivial_quandle,
    validate_axioms,
)


class Timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.bound, f"took {self.elapsed:.1f}s, bound {self.bound}s"
        return False


def report(n, message, timer):
    print(f"criterion {n}: PASS ({timer.elapsed:.2f}s) {message}")


def test_criterion_1_g_family_and_six_element_product():
    with Timer(1.0) as t:
        data = system("t3r3z2")
        assert validate_family(data, "g_family").valid
        assoc, rep = associated_quandle(data)
        assert assoc.size == 6
        assert rep.valid
        assert validate_axioms(assoc, "quandle").valid
    report(1, "Z2 family of T3/R3 validates; product quandle has 6 elements", t)


def test_criterion_2_four_element_trivial_product():
    with Timer(1.0) as t:
        data = system("t2t2z2")
        assoc, rep = associated_quandle(data)
        assert rep.valid
        assert assoc.size == 4
        for p in range(4):
            for q in range(4):
                assert assoc.entries[p][q] == p
        assert assoc.entries == trivial_quandle(4).entries
    report(2, "T2/T2 over Z2 yields the 4-element trivial quandle pointwise", t)


def _all_tiny_twisted_families():
    groups = ((cyclic_group(1), trivial_quandle(1)), (cyclic_group(2), trivial_quandle(2)))
    for x_size in (1, 2):
        ops = [
            OperationTable(x_size, rows)
            for rows in itertools.product(
                itertools.product(range(x_size), repeat=x_size), repeat=x_size
            )
        ]
        for group, gq in groups:
            n = group.size
            for star in itertools.product(ops, repeat=n):
                for f_flat in itertools.product(range(n), repeat=n * n):
                    f_map = tuple(tuple(f_flat[i * n : (i + 1) * n]) for i in range(n))
                    data = SystemData(
                        x_size=x_size,
                        g_size=n,
                        star=star,
                        f_map=f_map,
                        otimes=gq,
                        group=group,
                    )
                    if validate_family(data, "gsf_family").valid:
                        yield data


def test_criterion_3_lemma_for_all_tiny_families():
    with Timer(60.0) as t:
        found = 0
        for data in _all_tiny_twisted_families():
            found += 1
            assert check_lemma_for(data).valid, (data.x_size, data.g_size, data.f_map)
        assert found > 0
    report(3, f"composition identity holds for all {found} families with |X|<=2, |G|<=2", t)


def _standard_quandles_up_to_six():
    quandles = []
    for n in range(1, 7):
        quandles.append(trivial_quandle(n))
        quandles.append(dihedral_quandle(n))
    groups = [cyclic_group(n) for n in range(1, 7)] + [klein_group(), symmetric_group(3)]
    for g in groups:
        if g.size <= 6:
            for n in (1, 2):
                quandles.append(conjugation_quandle(g, n))
    for g in [cyclic_group(n) for n in range(1, 7)] + [klein_group()]:
        if g.size <= 6:
            quandles.append(takasaki_quandle(g))
            negate = tuple(g.inverse)
            quandles.append(alexander_quandle(g, negate))
    return quandles


def _involutions(n):
    return [p for p in itertools.permutations(range(n)) if all(p[p[i]] == i for i in range(n))]


def test_criterion_4_good_involutions_and_axiom_variant_agreement():
    with Timer(30.0) as t:
        for name in ("t3r3z2", "t2t2z2"):
            data = system(name)
            assoc, _ = associated_quandle(data)
            assert validate_involution(assoc, data.flat_rho).valid
        checked = 0
        for table in _standard_quandles_up_to_six():
            if not validate_axioms(table, "quandle").valid:
                continue
            for rho in _involutions(table.size):
                validate_involution(table, rho)  # asserts variant agreement internally
                checked += 1
        assert checked > 100
    report(4, f"inversion is good on both family products; {checked} variant agreements", t)


def test_criterion_4_inversion_is_the_one_good_involution_of_conj_s4_and_conj_s5():
    # S4 and S5 have trivial centres, so inv2 leaves rho(v) = v^-1 alone
    with Timer(1.0) as t:
        s4, s5 = symmetric_group(4), symmetric_group(5)
        assert search_involutions(conjugation_quandle(s4, 1)) == [tuple(s4.inverse)]
        p5 = g_family_system([trivial_quandle(1)] * s5.size, s5)
        assert search_involutions(associated_quandle(p5)[0]) == [tuple(s5.inverse)]
    report(4, "Conj(S4) and the S5 one-point product each have one good involution", t)


def test_criterion_5_headline_distinction():
    with Timer(10.0) as t:
        data = system("t3r3z2")
        generating_flat = count_colourings(diagram("mwuf"), data, "generating")
        generating_linked = count_colourings(diagram("mwf"), data, "generating")
        assert generating_flat == 18  # golden value from the backtracking oracle
        assert generating_linked == 0
        assert generating_flat > 0
    report(5, "generating colourings: flat watch 18 > 0, linked watch 0", t)


def test_criterion_6_move_invariance_fuzz():
    with Timer(60.0) as t:
        rep = fuzz_invariance(
            system("t3r3z2"), trials=200, seed="acceptance-6", scope="handlebody"
        )
        assert len(rep.trials) == 200
        assert rep.mismatches == []
    report(6, "200 handlebody-move trials, zero count mismatches", t)


def test_criterion_7_backtracking_matches_brute_force():
    with Timer(60.0) as t:
        data = system("t3r3z2")
        found = 0
        seed = 0
        while found < 50:
            d = random_diagram(f"acc7-{seed}", 2, 2)
            seed += 1
            if d.arc_count > 5:
                continue
            found += 1
            assert count_colourings(d, data) == brute_force_count(d, data)
    report(7, "50 random diagrams with <=5 arcs: counts equal the brute-force oracle", t)


def test_criterion_8_kauffman_and_wirtinger_cross_checks():
    with Timer(10.0) as t:
        linked = kauffman_summary(diagram("mlf"), "linking")
        assert any(any(abs(v) == 1 for v in values) for values in linked)
        flat = kauffman_summary(diagram("muf"), "linking")
        assert all(all(v == 0 for v in values) for values in flat)
        panel = (cyclic_group(2), cyclic_group(3), symmetric_group(3))
        fp_linked = hom_fingerprint(wirtinger_presentation(diagram("mlf")), panel)
        fp_flat = hom_fingerprint(wirtinger_presentation(diagram("muf")), panel)
        assert fp_linked == fp_flat
    report(8, "constituent linking distinguishes the finger pairs; group fingerprints agree", t)


def test_criterion_9_axet_pipeline():
    with Timer(5.0) as t:
        axet = axet_z2_s3()
        assert validate_axet(axet).valid
        data, rep = axet_to_system(axet)
        assert rep.valid
        assert validate_family(data, "fw_system").valid
        assert validate_family(data, "trivalent_compatible").valid
        assert validate_family(data, "associative_composition").valid
        _, gamma_rep = gamma_from_oplus(data, 3)
        assert gamma_rep.valid
    report(9, "axet converts and passes every structural validation incl. arity 3", t)


def test_criterion_10_negative_control():
    with Timer(60.0) as t:
        broken = system("broken-tc4")
        rep = validate_family(broken, "trivalent_compatible")
        assert not rep.valid
        assert "tc4" in rep.axioms_violated()
        fuzz = fuzz_invariance(
            broken,
            trials=30,
            seed="break",
            move_set=("tr2_slide",),
            scope="trivalent",
            force=True,
        )
        assert fuzz.mismatches
    report(10, "condition-4 violation is rejected and breaks a slide-move count", t)


def test_criterion_11_homs_of_every_fixture_into_s5(tmp_path):
    # the counts of the plain search, which took 13.5 s for mwf alone
    want = {"athlete-happy": 28680, "athlete-unhappy": 100800, "hopf": 840, "mlf": 14400,
            "muf": 14400, "mwf": 184800, "mwuf": 1728000, "theta": 14400, "trefoil": 600,
            "unknot": 120}
    group = tmp_path / "s5.magma"
    group.write_text(serialize_group(symmetric_group(5)), encoding="utf-8")
    for name in want:
        text = serialize_presentation(wirtinger_presentation(diagram(name)))
        (tmp_path / f"{name}.pres").write_text(text, encoding="utf-8")
    got = {}
    with Timer(5.0) as t:
        for name in want:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["homs", str(tmp_path / f"{name}.pres"), str(group)]) == 0
            got[name] = int(out.getvalue())
    assert got == want
    report(11, "homs of the ten fixtures into S5, counted by conjugacy classes", t)
