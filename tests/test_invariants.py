import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from searches import recorded_roots

from quandlekit import diagrams
from quandlekit.diagrams import parse_diagram, serialize_diagram
from quandlekit.fixtures import DIAGRAMS, diagram
from quandlekit.invariants import (
    GroupPresentation,
    group_hom_count,
    hom_fingerprint,
    kauffman_constituents,
    kauffman_summary,
    linking_matrix,
    parse_presentation,
    serialize_presentation,
    wirtinger_presentation,
)
from quandlekit.moves import MoveSpec, apply_move, applicable_moves, random_diagram
from quandlekit.tables import (
    ParseError,
    cyclic_group,
    group_from_table,
    klein_group,
    symmetric_group,
    table_from,
)

S3 = symmetric_group(3)
PANEL = (cyclic_group(2), cyclic_group(3), S3)


def brute_hom_count(p, g):
    """Independent oracle: scan all |g|^generators assignments."""
    count = 0
    for phi in itertools.product(range(g.size), repeat=p.generator_count):
        ok = True
        for rel in p.relators:
            acc = g.identity
            for gen, s in rel:
                v = phi[gen]
                acc = g.mul(acc, v if s > 0 else g.inverse[v])
            if acc != g.identity:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_wirtinger_unknot():
    p = wirtinger_presentation(diagram("unknot"))
    assert p.generator_count == 1 and p.relators == ()


def test_wirtinger_trefoil_shape():
    p = wirtinger_presentation(diagram("trefoil"))
    assert p.generator_count == 3 and len(p.relators) == 3
    assert p.relators[0] == ((0, -1), (1, 1), (0, 1), (2, -1))


def test_wirtinger_mlf_reproduces_known_relations():
    p = wirtinger_presentation(diagram("mlf"))
    assert p.generator_count == 5
    assert set(p.relators) == {
        ((2, -1), (0, 1), (2, 1), (3, -1)),  # a c = c d
        ((3, -1), (2, 1), (3, 1), (4, -1)),  # c d = d f
        ((0, -1), (3, 1), (1, -1)),  # d = a b
        ((1, 1), (4, 1), (2, -1)),  # c = b f
    }


def test_wirtinger_mwf_reproduces_known_relations():
    p = wirtinger_presentation(diagram("mwf"))
    assert p.generator_count == 7
    assert set(p.relators) == {
        ((2, -1), (0, 1), (2, 1), (3, -1)),  # a c = c d
        ((3, -1), (2, 1), (3, 1), (4, -1)),  # c d = d f
        ((6, -1), (1, 1), (6, 1), (5, -1)),  # b h = h g
        ((1, -1), (6, 1), (1, 1), (6, -1)),  # h b = b h
        ((0, -1), (3, 1), (1, -1)),  # d = a b
        ((5, 1), (4, 1), (2, -1)),  # c = g f
    }


def test_wirtinger_mwuf_vertex_relations():
    p = wirtinger_presentation(diagram("mwuf"))
    assert p.generator_count == 4
    assert set(p.relators) == {
        ((0, 1), (1, 1), (0, -1)),  # a b = a
        ((1, -1), (2, 1), (2, -1)),  # b^-1 c = c
    }


def test_hom_count_free_rank_two():
    p = GroupPresentation(2, ())
    assert group_hom_count(p, S3) == 36


def test_hom_count_torsion_relation():
    p = GroupPresentation(1, (((0, 1), (0, 1)),))  # a^2 = 1
    assert group_hom_count(p, cyclic_group(3)) == 1


def test_hom_counts_match_brute_force():
    for name in ("mlf", "muf", "trefoil", "mwuf"):
        p = wirtinger_presentation(diagram(name))
        for g in PANEL:
            assert group_hom_count(p, g) == brute_hom_count(p, g), (name, g.size)


def relabelled(g, shift):
    """g with every element a relabelled a + shift mod |g|."""
    back = [(a - shift) % g.size for a in range(g.size)]
    mul = g.table.entries
    return group_from_table(table_from(g.size, lambda a, b: (mul[back[a]][back[b]] + shift) % g.size))


def test_class_representative_counts_match_brute_force_on_fixtures():
    s4 = relabelled(symmetric_group(4), 5)
    assert s4.identity == 5
    for name in sorted(DIAGRAMS):
        p = wirtinger_presentation(diagram(name))
        groups = [S3, klein_group(), cyclic_group(3)] + [s4] * (p.generator_count <= 4)
        for g in groups:
            assert group_hom_count(p, g) == brute_hom_count(p, g), (name, g.size)


def test_homs_rooted_at_a_generator_forced_to_the_identity(monkeypatch):
    # rel +0 forces generator 0 to the identity before any branching, and
    # it is the generator in the fewest relator slots
    p = parse_presentation("gens 3\nrel +0\nrel -1 +2 +1 -2\nrel +1 +2 -1 -2 +0\n")
    s4 = relabelled(symmetric_group(4), 7)
    roots = recorded_roots(monkeypatch)
    for g in (S3, s4, klein_group()):
        assert group_hom_count(p, g) == brute_hom_count(p, g), g.size
    assert [root[0] for root in roots] == [0, 0, 0]
    assert s4.identity == 7 and 7 in roots[1][1]  # a class of its own


def test_homs_with_a_generator_in_no_relator(monkeypatch):
    trefoil = wirtinger_presentation(diagram("trefoil"))
    p = GroupPresentation(4, trefoil.relators)
    roots = recorded_roots(monkeypatch)
    for g in (S3, klein_group(), cyclic_group(3)):
        assert group_hom_count(p, g) == brute_hom_count(p, g) == g.size * group_hom_count(
            trefoil, g)
    # the free generator is never the root
    assert all(root[0] != 3 for root in roots)
    # with every generator free, the count is |G| per generator, with
    # no branching
    assert group_hom_count(GroupPresentation(2, ()), S3) == 36
    assert roots[-1] is None


def test_homs_build_the_conjugation_tables_once_per_group(monkeypatch):
    from quandlekit.tables import OperationTable

    built = []
    init, trusted = OperationTable.__init__, OperationTable._trusted

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["size"])
        init(self, *args, **kwargs)

    # tables derived from a checked table skip __init__
    def counted_trusted(cls, size, rows):
        built.append(size)
        return trusted(size, rows)

    g = symmetric_group(4)
    trefoil = wirtinger_presentation(diagram("trefoil"))
    expected = brute_hom_count(trefoil, g)
    monkeypatch.setattr(OperationTable, "__init__", counted)
    monkeypatch.setattr(OperationTable, "_trusted", classmethod(counted_trusted))
    p = wirtinger_presentation(diagram("mwf"))
    first = group_hom_count(p, g)
    assert built == [24, 24]  # the conjugation table and its dual
    assert group_hom_count(p, g) == first
    assert group_hom_count(trefoil, g) == expected
    assert built == [24, 24]


def test_homs_of_no_generators():
    for g in (S3, cyclic_group(3)):
        assert group_hom_count(GroupPresentation(0, ()), g) == brute_hom_count(
            GroupPresentation(0, ()), g) == 1
        assert group_hom_count(GroupPresentation(0, ((),)), g) == 1


def test_mlf_and_muf_fingerprints_agree():
    fp_linked = hom_fingerprint(wirtinger_presentation(diagram("mlf")), PANEL)
    fp_flat = hom_fingerprint(wirtinger_presentation(diagram("muf")), PANEL)
    assert fp_linked == fp_flat == (4, 9, 36)  # both present a rank-2 free group


def test_presentation_file_roundtrip():
    p = wirtinger_presentation(diagram("mwf"))
    text = serialize_presentation(p)
    again = parse_presentation(text)
    assert again == p
    assert serialize_presentation(again) == text


def test_a_negative_generator_count_is_refused():
    with pytest.raises(ParseError, match="non-negative") as err:
        parse_presentation("# no generators\ngens -2\n")
    assert (err.value.line, err.value.column) == (2, 6)
    with pytest.raises(ValueError, match="non-negative"):
        GroupPresentation(-1, ())


def test_a_letter_out_of_range_or_with_a_bad_sign_is_refused():
    with pytest.raises(ValueError, match="generator 2 out of range"):
        GroupPresentation(2, (((0, 1), (1, -1)), ((0, 1), (2, 1))))
    with pytest.raises(ValueError, match=r"letter signs must be \+1 or -1"):
        GroupPresentation(2, (((0, 1), (1, 2), (0, 1)),))


def presentations():
    def with_count(n):
        letters = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
        relators = st.lists(st.lists(letters, max_size=6).map(tuple), max_size=5)
        return relators.map(lambda rels: GroupPresentation(n, tuple(rels)))

    return st.integers(1, 6).flatmap(with_count) | st.just(GroupPresentation(0, ((),)))


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_presentation_files_round_trip(p):
    text = serialize_presentation(p)
    again = parse_presentation(text)
    assert again == p
    assert serialize_presentation(again) == text


PRESENTATION_TEXTS = [
    serialize_presentation(wirtinger_presentation(diagram(name))) for name in sorted(DIAGRAMS)
]
PRESENTATION_MUTANTS = st.sampled_from(
    ["", "x", "gens", "rel", "+", "-", "+-1", "--1", "+x", "1.5", "99"]
) | st.integers(-2, 9).map(lambda k: f"{'+-'[k % 2]}{k}") | st.integers(-2, 9).map(str)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRESENTATION_TEXTS), st.data())
def test_single_token_presentation_mutations_parse_or_raise_parse_error_with_a_line(text, data):
    """A presentation that parses has exactly one homomorphism into the
    trivial group."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = data.draw(st.sampled_from(spots))
    lines[i][j] = data.draw(PRESENTATION_MUTANTS)
    try:
        p = parse_presentation("\n".join(" ".join(toks) for toks in lines))
    except ParseError as exc:
        assert exc.line is not None
    else:
        assert group_hom_count(p, cyclic_group(1)) == 1


def test_linking_examples():
    hopf = linking_matrix(diagram("hopf"))
    assert hopf.component_count == 2 and hopf.matrix[0][1] == 1
    unlink = linking_matrix(parse_diagram("arcs 2\n"))
    assert unlink.off_diagonal() == (0,)
    trefoil = linking_matrix(diagram("trefoil"))
    assert trefoil.component_count == 1 and trefoil.matrix == ((0,),)
    # components are numbered by their smallest arc: a Hopf link on arcs 1
    # and 3 beside free loops 0 and 2
    split = linking_matrix(parse_diagram(
        "arcs 4\ncrossing over=1 under_in=3 under_out=3 sign=-\n"
        "crossing over=3 under_in=1 under_out=1 sign=-\n"))
    assert split.matrix == ((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, -1, 0, 0))


def test_linking_requires_vertex_free():
    with pytest.raises(ValueError):
        linking_matrix(diagram("theta"))


def test_kauffman_theta_three_unknots():
    pieces = kauffman_constituents(diagram("theta"))
    assert len(pieces) == 3
    for piece in pieces:
        assert piece.arc_count == 1 and not piece.crossings
    assert kauffman_summary(diagram("theta")) == [(), (), ()]


def test_kauffman_mlf_contains_hopf_and_muf_is_flat():
    linked = kauffman_summary(diagram("mlf"))
    assert any(1 in (abs(v) for v in values) for values in linked)
    flat = kauffman_summary(diagram("muf"))
    assert all(all(v == 0 for v in values) for values in flat)


def test_kauffman_athletes_differ():
    happy = kauffman_summary(diagram("athlete-happy"))
    unhappy = kauffman_summary(diagram("athlete-unhappy"))
    assert happy == [(0, 1, 1)]
    assert unhappy == [(0, 0, 1)]
    assert happy != unhappy


def test_athletes_differ_as_handlebody_links():
    # the group of the exterior is a handlebody-link invariant, and s3point
    # is valid for the handlebody scope, so both tell the athletes apart
    from quandlekit.coloring import count_colourings
    from quandlekit.fixtures import system
    from quandlekit.systems import validate_family

    s3point = system("s3point")
    for kind in ("trivalent_compatible", "associative_composition"):
        assert validate_family(s3point, kind).valid
    counts = {}
    for name in ("athlete-happy", "athlete-unhappy"):
        d = diagram(name)
        p = wirtinger_presentation(d)
        counts[name] = (
            group_hom_count(p, S3), group_hom_count(p, symmetric_group(4)),
            count_colourings(d, s3point))
    assert counts == {"athlete-happy": (96, 1608, 96), "athlete-unhappy": (108, 2880, 108)}


def test_kauffman_colour_summary():
    from quandlekit.fixtures import system

    values = kauffman_summary(diagram("mwf"), "colour_count", sys=system("t3r3z2"))
    assert len(values) == 1 and values[0] > 0


def test_kauffman_constituents_reverse_a_strand_that_passes_under_crossings(monkeypatch):
    reverse = diagrams._Work.reverse_strand
    under = []

    def spy(work, a):
        chain = work.strand(a)
        under.append(sum(c.under_in in chain for c in work.crossings))
        reverse(work, a)

    monkeypatch.setattr(diagrams._Work, "reverse_strand", spy)
    pieces = kauffman_constituents(random_diagram("k8", 6, 2))
    assert max(under) > 0
    assert [serialize_diagram(d) for d in pieces] == [
        "arcs 4\n"
        "crossing over=2 under_in=1 under_out=0 sign=-\n"
        "crossing over=1 under_in=3 under_out=1 sign=-\n"
        "crossing over=0 under_in=0 under_out=2 sign=+\n"
        "crossing over=0 under_in=2 under_out=3 sign=+\n",
        "arcs 2\n"
        "crossing over=1 under_in=1 under_out=0 sign=+\n"
        "crossing over=0 under_in=0 under_out=1 sign=-\n",
        "arcs 5\n"
        "crossing over=0 under_in=2 under_out=1 sign=-\n"
        "crossing over=2 under_in=4 under_out=2 sign=-\n"
        "crossing over=1 under_in=0 under_out=3 sign=+\n"
        "crossing over=0 under_in=3 under_out=4 sign=-\n"
        "crossing over=0 under_in=1 under_out=0 sign=-\n",
    ]


def test_kauffman_rejects_higher_valence():
    d = parse_diagram(
        "arcs 4\n"
        "vertex ends=0:in,1:in,2:in,3:out\n"
        "vertex ends=3:in,0:out,1:out,2:out\n"
    )
    with pytest.raises(ValueError):
        kauffman_constituents(d)


def test_hom_counts_invariant_under_moves():
    moves = ("r1_insert", "r1_delete", "r2_insert", "r2_delete", "tr1_insert", "tr2_slide")
    import random

    rng = random.Random(11)
    for seed in range(8):
        d = random_diagram(f"wi-{seed}", 3, 2)
        pres = wirtinger_presentation(d)
        base = tuple(group_hom_count(pres, g) for g in PANEL[:2] + (S3,))
        options = applicable_moves(d, moves)
        if not options:
            continue
        m = options[rng.randrange(len(options))]
        moved = apply_move(d, m).diagram
        after = tuple(group_hom_count(wirtinger_presentation(moved), g) for g in PANEL[:2] + (S3,))
        assert base == after, (seed, str(m))


def test_linking_invariant_under_r_moves():
    import random

    rng = random.Random(13)
    for seed in range(10):
        d = random_diagram(f"lk-{seed}", 4, 0)
        base = sorted(linking_matrix(d).off_diagonal())
        options = applicable_moves(d, ("r1_insert", "r1_delete", "r2_insert", "r2_delete"))
        m = options[rng.randrange(len(options))]
        moved = apply_move(d, m).diagram
        assert sorted(linking_matrix(moved).off_diagonal()) == base
