import hashlib
import random
from dataclasses import replace

import pytest

from quandlekit.coloring import count_colourings
from quandlekit import diagrams
from quandlekit.diagrams import (
    Diagram,
    Vertex,
    _crossing,
    compute_edges,
    delete_edges,
    parse_diagram,
    serialize_diagram,
    validate_diagram,
)
from quandlekit import moves
from quandlekit.fixtures import diagram, list_diagrams, system
from quandlekit.moves import (
    DEFAULT_MOVES,
    MOVE_KINDS,
    SCOPES,
    InapplicableMoveError,
    MoveSpec,
    ScopeError,
    applicable_moves,
    apply_move,
    candidate_moves,
    draw_trial,
    fuzz_invariance,
    random_diagram,
    validate_scope,
)
from quandlekit.systems import gamma_from_oplus, quandle_system
from quandlekit.tables import OperationTable

T3R3 = system("t3r3z2")


def vertex_cyclic_words(d):
    out = []
    for v in d.vertices:
        rotations = [v.ends[k:] + v.ends[:k] for k in range(len(v.ends))]
        out.append(min(rotations))
    return sorted(out)


def crossing_keys(d):
    return sorted((c.over, c.under_in, c.under_out, c.sign) for c in d.crossings)


def same_up_to_rotation(d1, d2):
    return (
        d1.arc_count == d2.arc_count
        and crossing_keys(d1) == crossing_keys(d2)
        and vertex_cyclic_words(d1) == vertex_cyclic_words(d2)
    )


def test_r1_insert_on_unknot_preserves_counts():
    d = diagram("unknot")
    for sign in (1, -1):
        for over_first in (False, True):
            res = apply_move(
                d, MoveSpec("r1_insert", 0, params={"sign": sign, "over_first": over_first})
            )
            assert len(res.diagram.crossings) == 1
            for sys_ in (T3R3, system("r3")):
                assert count_colourings(res.diagram, sys_) == count_colourings(d, sys_)


def test_r1_roundtrip():
    d = diagram("trefoil")
    res = apply_move(d, MoveSpec("r1_insert", 1, params={"sign": -1}))
    back = apply_move(res.diagram, res.inverse)
    assert same_up_to_rotation(back.diagram, d)


def test_r2_roundtrip_and_counts():
    d = diagram("theta")
    res = apply_move(d, MoveSpec("r2_insert", 0, params={"other": 2, "sign": 1}))
    assert len(res.diagram.crossings) == 2
    assert count_colourings(res.diagram, T3R3) == 12
    back = apply_move(res.diagram, res.inverse)
    assert same_up_to_rotation(back.diagram, d)


def test_tr1_insert_adds_one_crossing_and_preserves_counts():
    d = diagram("theta")
    for sign in (1, -1):
        res = apply_move(d, MoveSpec("tr1_insert", 0, params={"pos": 0, "sign": sign}))
        assert len(res.diagram.crossings) == 1
        assert len(res.diagram.vertices) == 2
        assert count_colourings(res.diagram, T3R3) == 12
        back = apply_move(res.diagram, res.inverse)
        assert same_up_to_rotation(back.diagram, d)


def test_tr2_both_variants_preserve_counts():
    d = random_diagram("tr2-variants", 4, 2)
    base = count_colourings(d, T3R3)
    moves = applicable_moves(d, ("tr2_slide",))
    assert moves
    for m in moves:
        res = apply_move(d, m)
        assert count_colourings(res.diagram, T3R3) == base
        back = apply_move(res.diagram, res.inverse)
        assert count_colourings(back.diagram, T3R3) == base


def tr2_candidates():
    """Every tr2_slide spec on the fixtures and on random trivalent
    diagrams of up to 10 crossings and 6 vertices, with its diagram."""
    diagrams = [diagram(name) for name in list_diagrams()] + [
        random_diagram(f"tr2:{s}", crossings, vertices)
        for s in range(150)
        for crossings, vertices in ((4, 2), (6, 2), (8, 4), (10, 6))
    ]
    for d in diagrams:
        for spec in candidate_moves(d, ("tr2_slide",)):
            yield d, spec


def test_tr2_slide_outcomes_stay_the_same_across_versions():
    # per candidate: refused, or the moved diagram, its arc map, created
    # arcs, inverse kind and site, and the diagram the inverse gives back
    digest = hashlib.sha256()
    candidates = applied = 0
    for d, spec in tr2_candidates():
        candidates += 1
        try:
            res = apply_move(d, spec)
        except InapplicableMoveError:
            digest.update(b"refused\n")
            continue
        applied += 1
        back = apply_move(res.diagram, res.inverse).diagram
        digest.update(repr((
            serialize_diagram(res.diagram), sorted(res.arc_map.items()), res.created,
            res.inverse.kind, res.inverse.site, serialize_diagram(back),
        )).encode())
    assert (candidates, applied) == (8456, 794)
    assert digest.hexdigest() == (
        "29ef39472ecc36c730e529a18dfee8a8cacb7cf25ae1798e92ffc3ce734d0478"
    )


def test_tr2_slide_removes_the_crossings_it_is_given():
    # the inverse names the crossings the slide appended; given crossings,
    # a slide removes those and keeps the others, in their order, over the
    # same arcs
    checked = 0
    for d, spec in tr2_candidates():
        try:
            res = apply_move(d, spec)
        except InapplicableMoveError:
            continue
        inverse, n = res.inverse, len(res.diagram.crossings)
        added = 2 if spec.params["direction"] == "expand" else 1
        assert inverse.params["crossings"] == tuple(range(n - added, n)), spec
        for given in (inverse.params["crossings"], tuple(range(added))):
            params = {**inverse.params, "crossings": given}
            try:
                back = apply_move(res.diagram, replace(inverse, params=params))
            except InapplicableMoveError:
                assert given != inverse.params["crossings"], spec
                continue
            # a split at the vertex may give a kept crossing a new under-arc
            kept = [
                (back.arc_map[c.over], c.sign)
                for i, c in enumerate(res.diagram.crossings)
                if i not in given
            ]
            now = [(c.over, c.sign) for c in back.diagram.crossings]
            assert now[: len(kept)] == kept, (spec, given)
            checked += 1
    assert checked > 794


def relabel(d, mapping):
    from quandlekit.diagrams import Crossing, Diagram, Vertex

    return Diagram(
        d.arc_count,
        tuple(
            Crossing(mapping[c.over], mapping[c.under_in], mapping[c.under_out], c.sign)
            for c in d.crossings
        ),
        tuple(
            Vertex(tuple((mapping[a], direction) for a, direction in v.ends))
            for v in d.vertices
        ),
    )


def test_sr_forward_backward_identity_up_to_relabelling():
    d = diagram("theta")
    for move in applicable_moves(d, ("sr_forward",)):
        res = apply_move(d, move)
        assert count_colourings(res.diagram, T3R3) == 12
        back = apply_move(res.diagram, res.inverse)
        # compose the recorded relabellings (the bar is replaced twice)
        map1 = dict(res.arc_map)
        map1[move.site] = res.created[0]
        map2 = dict(back.arc_map)
        map2[res.inverse.site] = back.created[0]
        composed = {a: map2[b] for a, b in map1.items()}
        assert same_up_to_rotation(relabel(d, composed), back.diagram)


def test_sr_requires_bar_between_distinct_vertices():
    d = diagram("mwuf")  # loops at single vertices, bridge arc 1
    with pytest.raises(InapplicableMoveError):
        apply_move(d, MoveSpec("sr_forward", 0))
    res = apply_move(d, MoveSpec("sr_forward", 1))
    assert count_colourings(res.diagram, T3R3) == 72


def test_vertex_rotate_roundtrip():
    d = diagram("theta")
    res = apply_move(d, MoveSpec("vertex_rotate", 0, params={"direction": 1}))
    assert count_colourings(res.diagram, T3R3) == 12
    back = apply_move(res.diagram, res.inverse)
    assert same_up_to_rotation(back.diagram, d)


def test_inapplicable_moves_raise():
    d = diagram("trefoil")
    with pytest.raises(InapplicableMoveError):
        apply_move(d, MoveSpec("tr1_insert", 0, params={"pos": 0}))  # no vertices
    with pytest.raises(InapplicableMoveError):
        apply_move(d, MoveSpec("r1_delete", 0))  # crossing 0 is not a kink
    with pytest.raises(InapplicableMoveError):
        apply_move(diagram("unknot"), MoveSpec("reverse_arc", 5))


def test_apply_move_refuses_a_parameter_its_kind_does_not_declare():
    d = random_diagram("tr2:3", 8, 4)
    slide = {"direction": "expand", "variant": "strand"}
    apply_move(d, MoveSpec("tr2_slide", 1, params=slide))
    # `crossing` is the parameter the strand slide read before `crossings`
    for kind, params, name in (
        ("tr2_slide", {**slide, "crossing": 99}, "crossing"),
        ("tr2_slide", {**slide, "bogus": 1}, "bogus"),
        ("r2_insert", {"other": 1, "sign": 1, "moving_over": True}, "moving_over"),
        ("reverse_arc", {"sign": 1}, "sign"),
    ):
        with pytest.raises(ValueError, match=f"{kind} has no parameter '{name}'") as refused:
            apply_move(d, MoveSpec(kind, 1, params=params))
        assert not isinstance(refused.value, InapplicableMoveError)
    for crossings in (5, [0], ("0",)):
        with pytest.raises(InapplicableMoveError, match="not a tuple of crossing indices"):
            apply_move(d, MoveSpec("tr2_slide", 1, params={**slide, "crossings": crossings}))


def test_apply_move_refuses_a_sign_or_rotation_other_than_plus_or_minus_one():
    d = diagram("theta")
    for kind, params, name in (
        ("vertex_rotate", {"direction": 0}, "direction"),
        ("vertex_rotate", {"direction": 2}, "direction"),
        ("tr1_insert", {"pos": 0, "sign": 0}, "sign"),
        ("tr1_insert", {"pos": 0, "sign": -3}, "sign"),
        ("tr1_insert", {"pos": 0, "sign": 2}, "sign"),
        ("r1_insert", {"sign": 0}, "sign"),
        ("r1_insert", {"sign": 2, "over_first": True}, "sign"),
        ("r2_insert", {"other": 2, "sign": 0}, "sign"),
        ("r2_insert", {"other": 2, "sign": -2}, "sign"),
    ):
        refusal = f"{kind} parameter '{name}' must be 1 or -1"
        with pytest.raises(ValueError, match=refusal) as refused:
            apply_move(d, MoveSpec(kind, 0, params=params))
        assert not isinstance(refused.value, InapplicableMoveError)


def test_every_recorded_vertex_rotation_inverse_restores_the_diagram():
    diagrams = [diagram(name) for name in list_diagrams()]
    diagrams += [random_diagram(f"rotate:{i}", 4, 3) for i in range(50)]
    restored = 0
    for d in diagrams:
        for vi in range(len(d.vertices)):
            for direction in (1, -1):
                try:
                    res = apply_move(
                        d, MoveSpec("vertex_rotate", vi, params={"direction": direction}))
                except InapplicableMoveError:
                    continue
                assert res.inverse.params == {"direction": -direction}
                assert apply_move(res.diagram, res.inverse).diagram == d
                restored += 1
    assert restored >= 100


def test_sr_refuses_a_bar_at_a_vertex_that_is_not_trivalent():
    # vertex 0 is 4-valent: bar 0 runs from it to trivalent vertex 1, and
    # bar 1 back; bar 4 joins the two trivalent vertices
    d = parse_diagram(
        "arcs 5\nvertex ends=0:out,1:in,2:in,3:out\nvertex ends=0:in,1:out,4:out\n"
        "vertex ends=3:in,2:out,4:in\n")
    for kind in ("sr_forward", "sr_backward"):
        for bar in (0, 1):
            with pytest.raises(InapplicableMoveError, match="sr needs trivalent vertices"):
                apply_move(d, MoveSpec(kind, bar))
        apply_move(d, MoveSpec(kind, 4))


def test_r2_delete_refuses_a_middle_arc_over_one_crossing():
    # the pair under free loop 3 cancels but for crossing 2, where the
    # middle arc 1 passes over the strand's own last arc
    d = parse_diagram(
        "arcs 4\ncrossing over=3 under_in=0 under_out=1 sign=+\n"
        "crossing over=3 under_in=1 under_out=2 sign=-\n"
        "crossing over=1 under_in=2 under_out=0 sign=+\n")
    with pytest.raises(InapplicableMoveError, match="middle arc passes over other crossings"):
        apply_move(d, MoveSpec("r2_delete", 0, params={"second": 1}))


def test_tr1_insert_builds_the_curl_of_its_sign():
    # the positive curl passes the first in-arc under the second, the
    # negative one the second under the first
    d = diagram("theta")
    for sign, text in (
        (1, "arcs 4\ncrossing over=1 under_in=0 under_out=3 sign=+\n"
            "vertex ends=1:in,3:in,2:out\nvertex ends=1:out,0:out,2:in\n"),
        (-1, "arcs 4\ncrossing over=0 under_in=1 under_out=3 sign=-\n"
             "vertex ends=3:in,0:in,2:out\nvertex ends=1:out,0:out,2:in\n"),
    ):
        res = apply_move(d, MoveSpec("tr1_insert", 0, params={"pos": 0, "sign": sign}))
        assert serialize_diagram(res.diagram) == text


def test_a_move_without_a_sign_builds_positive_crossings():
    d = diagram("theta")
    for kind, params, signs in (
        ("r1_insert", {}, [1]),
        ("r1_insert", {"over_first": True}, [1]),
        ("r2_insert", {"other": 2}, [1, -1]),
        ("tr1_insert", {"pos": 0}, [1]),
    ):
        res = apply_move(d, MoveSpec(kind, 0, params=params))
        assert [c.sign for c in res.diagram.crossings] == signs, kind
    assert apply_move(d, MoveSpec("tr1_insert", 0)).diagram == apply_move(
        d, MoveSpec("tr1_insert", 0, params={"sign": 1})).diagram


def test_random_diagram_trivial_budget_is_unknot():
    d = random_diagram(0, 0, 0)
    assert d.arc_count == 1 and not d.crossings and not d.vertices


def test_random_diagram_deterministic_and_valid():
    for seed in (42, "text-seed", 7):
        d1 = random_diagram(seed, 4, 2)
        d2 = random_diagram(seed, 4, 2)
        assert d1 == d2
        assert validate_diagram(d1).valid
    d = random_diagram(42, 4, 2, valences=(3,))
    assert all(v.valence == 3 for v in d.vertices)


def test_random_diagram_refuses_bad_valences_before_drawing():
    for valences in ((), (2,), (3, 1)):
        for vertices in (0, 2):
            with pytest.raises(ValueError) as refused:
                random_diagram(0, 2, vertices, valences)
            assert str(refused.value).startswith(f"valences {valences} "), vertices


def test_random_diagrams_stay_the_same_across_versions():
    # a seed names the same diagrams in every version: the fuzz report
    # promises it, and reports are compared across versions
    digest = hashlib.sha256()
    for s in range(60):
        for crossings, vertices in ((4, 2), (2, 1), (6, 3), (0, 4), (3, 0)):
            for valences in ((3,), (4,), (3, 4), (4, 5)):
                d = random_diagram(f"pin-{s}", crossings, vertices, valences)
                digest.update(serialize_diagram(d).encode())
    assert digest.hexdigest() == (
        "6e0fdf21490103d65cb2ffea5ccaf7726f4a288af591d33afd0ab07d6ef5dac5"
    )


def test_fuzz_links_scope_with_bare_quandle():
    report = fuzz_invariance(system("r3"), trials=25, seed="links", scope="links")
    assert report.ok
    assert len(report.trials) == 25


def test_fuzz_handlebody_scope():
    report = fuzz_invariance(T3R3, trials=40, seed="hb", scope="handlebody")
    assert report.ok
    kinds = {t.move.split("@")[0].rstrip("'") for t in report.trials}
    assert len(kinds) >= 3  # a real mix of moves was exercised
    line = report.trials[0].line()
    assert line.startswith("trial 0 seed ") and line.endswith("OK")


def test_fuzz_refuses_broken_system_without_force():
    with pytest.raises(ScopeError):
        fuzz_invariance(system("broken-tc4"), trials=5, seed="x", scope="trivalent")


def test_validate_scope_lists_a_non_quandle_product_at_every_scope():
    data = quandle_system(OperationTable(2, ((0, 0), (0, 0))))
    for scope in SCOPES:
        problems = validate_scope(data, scope)
        assert problems[0].startswith("associated product is not a quandle")
        assert not any("involution" in p for p in problems)


def test_validate_scope_lists_a_missing_oplus():
    data = replace(T3R3, oplus=None, group=None)
    assert validate_scope(data, "links") == []
    for scope in ("trivalent", "handlebody"):
        assert validate_scope(data, scope) == ["scope needs the composition oplus"]
        with pytest.raises(ScopeError, match="oplus"):
            fuzz_invariance(data, trials=1, seed="x", scope=scope)


def test_fuzz_finds_tr2_mismatch_on_broken_system():
    report = fuzz_invariance(
        system("broken-tc4"),
        trials=30,
        seed="break",
        move_set=("tr2_slide",),
        scope="trivalent",
        force=True,
    )
    assert report.mismatches
    bad = report.mismatches[0]
    assert bad.before != bad.after
    assert "FAIL" in bad.line()


def test_fuzz_n_valent_scope():
    from quandlekit.systems import gamma_from_oplus

    data, _ = gamma_from_oplus(T3R3, 3)
    report = fuzz_invariance(data, trials=15, seed="nv", scope="n_valent")
    assert report.ok


def test_fuzz_n_valent_scope_with_gamma_3_alone():
    # no (+) and no group, so no arity-2 Gamma: every vertex, handcuffs
    # included, must have valence 4
    from quandlekit.moves import validate_scope
    from quandlekit.systems import gamma_from_oplus

    data = replace(gamma_from_oplus(T3R3, 3)[0], oplus=None, group=None)
    assert data.gamma_table(2) is None and data.gamma_table(3) is not None
    assert validate_scope(data, "n_valent") == []
    report = fuzz_invariance(data, trials=15, seed="nv", scope="n_valent")
    assert report.ok and report.trials
    for i in range(30):
        d = random_diagram(f"valence-4-{i}", 2, 4, (4,))
        assert all(v.valence == 4 for v in d.vertices)


def test_default_move_sets_cover_scope_moves():
    assert "sr_forward" in DEFAULT_MOVES["handlebody"]
    assert "sr_forward" not in DEFAULT_MOVES["trivalent"]
    assert "tr2_slide" not in DEFAULT_MOVES["links"]


def test_default_move_sets_in_order():
    links = ("r1_insert", "r1_delete", "r2_insert", "r2_delete")
    graph = ("tr1_insert", "tr1_delete", "tr2_slide", "vertex_rotate", "reverse_arc")
    assert DEFAULT_MOVES == {
        "links": links,
        "trivalent": links + graph,
        "handlebody": links + graph + ("sr_forward", "sr_backward"),
        "n_valent": links + ("vertex_rotate", "reverse_arc"),
    }


def test_every_applicable_move_has_an_applicable_inverse():
    trivalent = [
        diagram(name)
        for name in list_diagrams()
        if all(v.valence == 3 for v in diagram(name).vertices)
    ]
    applied = set()
    for d in trivalent + [random_diagram(f"inv-{i}", 4, 2) for i in range(90)]:
        base = count_colourings(d, T3R3)
        for spec in applicable_moves(d, MOVE_KINDS):
            res = apply_move(d, spec)
            back = apply_move(res.diagram, res.inverse).diagram
            assert back.arc_count == d.arc_count, (spec, res.inverse)
            assert len(back.crossings) == len(d.crossings), (spec, res.inverse)
            assert back == d or count_colourings(back, T3R3) == base, (spec, res.inverse)
            for m in (spec, res.inverse):
                applied.add((m.kind, m.params.get("direction"), m.params.get("variant")))
    tr2_forms = {
        ("tr2_slide", direction, variant)
        for direction in ("expand", "contract")
        for variant in ("vertex", "strand")
    }
    assert tr2_forms | {("r2_delete", None, None)} <= applied


def test_fuzz_draws_among_the_applicable_moves():
    moves = DEFAULT_MOVES["handlebody"]
    report = fuzz_invariance(T3R3, trials=20, seed="draw", scope="handlebody")
    assert len(report.trials) == 20
    for t in report.trials:
        d, spec, _ = draw_trial(t.seed, moves, 4, 2, (3,))
        assert str(spec) == t.move
        assert spec in applicable_moves(d, moves)


# Each kind's site type and the parameter dicts of its candidates at a
# site, built in full as the fuzzer did before it counted candidates and
# decoded them by index.
REFERENCE_CANDIDATES = {
    "r1_insert": ("arc", lambda d, a: [
        {"sign": sign, **extra} for sign in (1, -1) for extra in ({}, {"over_first": True})
    ]),
    "r1_delete": ("crossing", lambda d, ci: [{}]),
    "r2_insert": ("arc", lambda d, a: [
        {"other": o, "sign": sign} for o in range(d.arc_count) if o != a for sign in (1, -1)
    ]),
    "r2_delete": ("crossing", lambda d, ci: [
        {"second": c} for c in range(len(d.crossings)) if c != ci
    ]),
    "tr1_insert": ("vertex", lambda d, vi: [
        {"pos": pos, "sign": sign} for pos in range(d.vertices[vi].valence) for sign in (1, -1)
    ]),
    "tr1_delete": ("vertex", lambda d, vi: [{"pos": pos} for pos in range(d.vertices[vi].valence)]),
    "tr2_slide": ("vertex", lambda d, vi: [
        {"direction": direction, "variant": variant}
        for direction in ("expand", "contract")
        for variant in ("vertex", "strand")
    ]),
    "sr_forward": ("arc", lambda d, a: [{}]),
    "sr_backward": ("arc", lambda d, a: [{}]),
    "vertex_rotate": ("vertex", lambda d, vi: [{"direction": 1}, {"direction": -1}]),
    "reverse_arc": ("arc", lambda d, a: [{}]),
}


def reference_candidate_moves(d, kinds):
    sites = {"arc": d.arc_count, "crossing": len(d.crossings), "vertex": len(d.vertices)}
    for kind in MOVE_KINDS:
        if kind in kinds:
            site, candidates = REFERENCE_CANDIDATES[kind]
            for s in range(sites[site]):
                for params in candidates(d, s):
                    yield MoveSpec(kind, s, params=params)


def reference_draw_trial(trial_seed, move_set, crossings_max, vertices_max, valences):
    """The draw that builds and shuffles every candidate spec."""
    rng = random.Random(trial_seed)
    for attempt in range(8):
        diagram = random_diagram(f"{trial_seed}#{attempt}", crossings_max, vertices_max, valences)
        candidates = list(reference_candidate_moves(diagram, move_set))
        rng.shuffle(candidates)
        for spec in candidates:
            try:
                return diagram, spec, apply_move(diagram, spec)
            except InapplicableMoveError:
                continue
    return None


def test_candidate_moves_equal_the_reference_lists_in_order():
    diagrams = [diagram(name) for name in list_diagrams()] + [
        random_diagram(f"cands-{i}", i % 9, i % 5, ((3,), (3, 4), (4,))[i % 3]) for i in range(100)
    ]
    assert any(v.valence == 4 for d in diagrams for v in d.vertices)
    for d in diagrams:
        for kinds in [MOVE_KINDS, *DEFAULT_MOVES.values(), *((k,) for k in MOVE_KINDS)]:
            got = list(candidate_moves(d, kinds))
            assert got == list(reference_candidate_moves(d, kinds)), (serialize_diagram(d), kinds)
            # params compare as dicts; their order is the reference's too
            assert [list(m.params) for m in got] == [
                list(m.params) for m in reference_candidate_moves(d, kinds)
            ]


def test_draw_trial_equals_the_reference_draw():
    move_sets = [*DEFAULT_MOVES.values(), *((k,) for k in MOVE_KINDS)]
    draws = nones = 0
    for si, move_set in enumerate(move_sets):
        for crossings in range(4, 9):
            for vertices in range(3):
                for valences in ((3,), (3, 4)):
                    for k in range(5):
                        args = (f"ref-{si}-{crossings}-{vertices}-{valences}/{k}", move_set,
                                crossings, vertices, valences)
                        got, want = draw_trial(*args), reference_draw_trial(*args)
                        assert got == want, args
                        if got is not None:
                            assert list(got[1].params) == list(want[1].params), args
                        draws += 1
                        nones += got is None
    assert draws >= 2000 and 0 < nones < draws


def test_a_draw_builds_only_the_specs_it_tries(monkeypatch):
    moves_ = DEFAULT_MOVES["handlebody"]
    big = random_diagram("spy", 80, 4)
    assert len(big.crossings) == 80
    assert sum(1 for _ in candidate_moves(big, moves_)) > 20000
    built, applied = [], []

    class CountedSpec(MoveSpec):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    def counted_apply(d, spec):
        applied.append(spec)
        return apply_move(d, spec)

    monkeypatch.setattr(moves, "random_diagram", lambda *args: big)
    monkeypatch.setattr(moves, "apply_move", counted_apply)
    monkeypatch.setattr(moves, "MoveSpec", CountedSpec)
    assert draw_trial("spy", moves_, 80, 4, (3,)) is not None
    # one spec decoded per try, and the inverse a move builds
    assert 1 <= len(applied) and len(built) <= 3 * len(applied), (len(built), len(applied))


def test_a_move_set_names_known_kinds_and_is_not_a_string():
    d = diagram("theta")
    calls = (
        lambda kinds: list(candidate_moves(d, kinds)),
        lambda kinds: applicable_moves(d, kinds),
        lambda kinds: draw_trial("x", kinds, 4, 2, (3,)),
        lambda kinds: fuzz_invariance(T3R3, 0, "x", move_set=kinds),
    )
    for call in calls:
        for kinds in (("bogus",), ("r1_insert", "bogus")):
            with pytest.raises(ValueError, match="unknown move kind 'bogus'"):
                call(kinds)
        # "tr1_insert" holds "r1_insert" as a substring, and "x" nothing
        for kinds in ("tr1_insert", "x"):
            with pytest.raises(TypeError, match="not the string"):
                call(kinds)


def reference_finalize(self):
    """``_Work.finalize`` renumbering every result, whatever the edit."""
    tokens = sorted(t for t in self.alive if t < self.original)
    tokens += filter(self.alive.__contains__, self.created)
    index = dict(zip(tokens, range(len(tokens))))
    number = index.__getitem__
    *arcs, signs = zip(*self.crossings) if self.crossings else ((),) * 4
    return Diagram(
        arc_count=len(tokens),
        crossings=tuple(map(_crossing, zip(*(map(number, col) for col in arcs), signs))),
        vertices=tuple(
            Vertex(tuple((index[a], direction) for a, direction in ends))
            for ends in self.vertices
        ),
    ), index


def kept_numbering_outcomes():
    """Every move of every kind on the fixtures, on random diagrams of 2 to
    8 crossings and 0 to 4 vertices and on the fixtures with a curl at a
    vertex (no random diagram has one for tr1_delete), the random diagrams
    themselves, the deletion of each edge of the fixtures with vertices,
    and four fuzz runs."""
    fixtures = [diagram(name) for name in list_diagrams()]
    drawn = [random_diagram(f"keep:{i}", 2 + i % 7, i % 5) for i in range(100)]
    curled = [apply_move(d, spec).diagram for d in fixtures
              for spec in applicable_moves(d, ("tr1_insert",))]
    out = {"random": drawn, "moves": [], "deleted": [], "fuzz": []}
    for d in fixtures + drawn + curled:
        for spec in candidate_moves(d, MOVE_KINDS):
            try:
                r = apply_move(d, spec)
            except InapplicableMoveError:
                out["moves"].append((spec, None))
                continue
            out["moves"].append((spec, (r.diagram, r.arc_map, r.created, r.inverse)))
    for d in (d for d in fixtures if d.vertices):
        for e in range(len(compute_edges(d))):
            try:
                out["deleted"].append(delete_edges(d, [e]))
            except ValueError as exc:
                out["deleted"].append(str(exc))
    gamma3 = gamma_from_oplus(T3R3, 3)[0]
    for sys_, scope in ((system("r3"), "links"), (system("t2t2z2"), "trivalent"),
                        (T3R3, "handlebody"), (gamma3, "n_valent")):
        out["fuzz"].append(fuzz_invariance(sys_, 100, "keep", scope=scope).text())
    return out


def test_kept_numbering_equals_the_renumbering(monkeypatch):
    got = kept_numbering_outcomes()
    monkeypatch.setattr(diagrams._Work, "finalize", reference_finalize)
    want = kept_numbering_outcomes()
    assert got["random"] == want["random"]
    assert len(got["moves"]) == len(want["moves"])
    for (spec, outcome), (_, wanted) in zip(got["moves"], want["moves"]):
        assert outcome == wanted, spec
    kinds = {spec.kind for spec, outcome in got["moves"] if outcome is not None}
    assert kinds == set(MOVE_KINDS)
    assert got["deleted"] == want["deleted"]
    assert any(isinstance(d, Diagram) for d in got["deleted"])
    assert got["fuzz"] == want["fuzz"]
