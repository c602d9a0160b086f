from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import diagrams
from quandlekit.coloring import count_colourings
from quandlekit.diagrams import (
    Crossing,
    Diagram,
    Vertex,
    compute_edges,
    delete_edges,
    parse_diagram,
    serialize_diagram,
    validate_diagram,
)
from quandlekit.fixtures import DIAGRAMS, diagram, system
from quandlekit.invariants import linking_matrix, wirtinger_presentation
from quandlekit.moves import MoveSpec, apply_move, random_diagram
from quandlekit.tables import ParseError


def test_parse_unknot():
    d = parse_diagram("arcs 1\n")
    assert d.arc_count == 1 and not d.crossings and not d.vertices
    assert validate_diagram(d).valid


def test_parse_trefoil():
    d = diagram("trefoil")
    assert d.arc_count == 3 and len(d.crossings) == 3 and not d.vertices
    assert d.crossings[0] == Crossing(0, 1, 2, 1)
    assert validate_diagram(d).valid


def test_parse_theta():
    d = diagram("theta")
    assert d.arc_count == 3 and not d.crossings and len(d.vertices) == 2
    assert validate_diagram(d).valid


def test_loop_annotation_is_accepted():
    d = parse_diagram("arcs 2\nloop 0\nloop 1\n")
    assert d.arc_count == 2
    assert serialize_diagram(d) == "arcs 2\n"


def test_a_loop_annotation_on_an_arc_with_an_end_is_a_parse_error_at_its_line():
    for text, line in (
        ("arcs 1\ncrossing over=0 under_in=0 under_out=0 sign=+\nloop 0\n", 3),
        ("arcs 2\nloop 1\ncrossing over=1 under_in=0 under_out=0 sign=+\nloop 0\n", 4),
        ("arcs 3\nloop 2\nvertex ends=0:out,1:in,2:in\nvertex ends=0:in,1:out,2:out\n", 2),
    ):
        with pytest.raises(ParseError, match="no free loop") as err:
            parse_diagram(text)
        assert err.value.line == line, text
    # an arc that only passes over crossings is still a free loop
    d = parse_diagram("arcs 2\ncrossing over=1 under_in=0 under_out=0 sign=+\nloop 1\n")
    assert serialize_diagram(d) == "arcs 2\ncrossing over=1 under_in=0 under_out=0 sign=+\n"


def test_parse_errors_report_location():
    with pytest.raises(ParseError) as err:
        parse_diagram("arcs 2\nwidget over=0\n")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_diagram("arcs 1\ncrossing over=0 under_in=3 under_out=0 sign=+\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_diagram("arcs 1\ncrossing over=0 under_in=0 under_out=0 sign=*\n")
    with pytest.raises(ParseError):
        parse_diagram("arcs 2\nvertex ends=0:in,1:sideways,0:out\n")


def test_a_repeated_crossing_field_is_a_parse_error_at_its_column():
    for text, column in (
        ("arcs 2\ncrossing over=0 under_in=1 under_out=0 sign=+ over=1\n", 47),
        ("arcs 2\ncrossing over=0 over=0 under_in=1 under_out=0 sign=+\n", 17),
        ("arcs 2\ncrossing sign=- under_in=1 under_out=0 over=1 sign=-\n", 47),
    ):
        with pytest.raises(ParseError, match="repeated crossing field") as err:
            parse_diagram(text)
        assert (err.value.line, err.value.column) == (2, column), text



def test_an_unknown_crossing_field_is_a_parse_error_at_its_column():
    for text, column in (
        ("arcs 1\ncrossing over=0 under_in=0 under_out=0 sign=+ colour=red\n", 47),
        ("arcs 2\ncrossing ovr=0 under_in=1 under_out=0 sign=+\n", 10),
        ("arcs 2\ncrossing over=0 under_in=1 =0 under_out=0 sign=+\n", 28),
    ):
        with pytest.raises(ParseError, match="unknown crossing field") as err:
            parse_diagram(text)
        assert (err.value.line, err.value.column) == (2, column), text


def test_a_crossing_field_without_an_equals_sign_is_a_parse_error_at_its_column():
    for text, column in (
        ("arcs 2\ncrossing sign over=0 under_in=1 under_out=0 sign=+\n", 10),
        ("arcs 2\ncrossing over=0 under_in=1 under_in under_out=0 sign=+\n", 28),
        ("arcs 2\ncrossing over=0 under_in=1 under_out=0 sign=+ +\n", 47),
    ):
        with pytest.raises(ParseError, match="bad crossing field") as err:
            parse_diagram(text)
        assert (err.value.line, err.value.column) == (2, column), text


DIAGRAM_MUTANTS = st.sampled_from([
    "", "x", "=", "arcs", "crossing", "vertex", "loop", "over=0", "over=9", "under_in=1",
    "under_out=-1", "sign=+", "sign=*", "sign=", "ends=0:in,1:out,2:in", "ends=0:in",
    "ends=", "ends=0:up,1:in,2:out", "0:in",
]) | st.integers(-2, 9).map(str)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DIAGRAMS)), st.data())
def test_single_token_diagram_mutations_parse_or_raise_parse_error_with_a_line(name, data):
    lines = [line.split() for line in DIAGRAMS[name].splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = data.draw(st.sampled_from(spots))
    mutant = data.draw(DIAGRAM_MUTANTS)
    # replace the token, or insert the mutant after it
    lines[i][j : j + 1] = data.draw(st.sampled_from([[mutant], [lines[i][j], mutant]]))
    try:
        parse_diagram("\n".join(" ".join(toks) for toks in lines))
    except ParseError as exc:
        assert exc.line is not None


def test_validate_rejects_double_consumption():
    with pytest.raises(ValueError, match=r"'arc-consumers', \(1,\)"):
        Diagram(
            3,
            (Crossing(0, 1, 2, 1),),
            (Vertex(((1, "in"), (2, "out"), (0, "in"))),),
        )


def test_a_negative_arc_count_is_refused():
    with pytest.raises(ValueError, match=r"'arc-count', \(-1,\)"):
        Diagram(-1, (), ())


def test_structural_violations_are_parse_errors_at_the_header_line():
    for text, axiom in (
        # arc 0 consumed by both crossings
        (
            "arcs 2\ncrossing over=1 under_in=0 under_out=1 sign=+\n"
            "crossing over=1 under_in=0 under_out=1 sign=-\n",
            r"'arc-consumers', \(0,\)",
        ),
        # arc 1 produced but never consumed
        ("arcs 2\ncrossing over=1 under_in=0 under_out=1 sign=+\n", r"'arc-producers', \(1,\)"),
    ):
        with pytest.raises(ParseError, match=axiom) as err:
            parse_diagram(text)
        assert err.value.line == 1, text
        with pytest.raises(ParseError) as err:
            parse_diagram("# a comment\n\n" + text)
        assert err.value.line == 3, text


def test_a_built_diagram_is_trusted_and_only_an_edit_result_is_checked():
    d = diagram("theta")
    t3r3 = system("t3r3z2")
    with mock.patch.object(
        diagrams, "validate_diagram", wraps=diagrams.validate_diagram
    ) as spy:
        count_colourings(d, t3r3)
        wirtinger_presentation(d)
        serialize_diagram(d)
        compute_edges(d)
        assert spy.call_count == 0
        out = apply_move(d, MoveSpec("vertex_rotate", 0, params={"direction": 1})).diagram
        assert spy.call_count == 1
        assert spy.call_args.args == (out,)


def test_all_fixtures_are_valid():
    for name in DIAGRAMS:
        assert validate_diagram(diagram(name)).valid, name


def test_serialize_unknot_and_trefoil():
    assert serialize_diagram(diagram("unknot")) == "arcs 1\n"
    text = serialize_diagram(diagram("trefoil"))
    assert text == DIAGRAMS["trefoil"]
    assert len(text.strip().splitlines()) == 4


def test_roundtrip_on_random_diagrams():
    for seed in range(100):
        d = random_diagram(seed, seed % 5, (seed // 3) % 3)
        assert validate_diagram(d).valid
        text = serialize_diagram(d)
        again = parse_diagram(text)
        assert again == d
        assert serialize_diagram(again) == text


def test_edges_unknot_theta_trefoil():
    assert [e.arcs for e in compute_edges(diagram("unknot"))] == [(0,)]
    theta_edges = compute_edges(diagram("theta"))
    assert len(theta_edges) == 3
    assert all(len(e.endpoints) == 2 for e in theta_edges)
    trefoil_edges = compute_edges(diagram("trefoil"))
    assert len(trefoil_edges) == 1
    assert len(trefoil_edges[0].arcs) == 3
    assert trefoil_edges[0].endpoints == ()


def test_edges_partition_all_arcs():
    for seed in range(30):
        d = random_diagram(seed, 4, 2)
        edges = compute_edges(d)
        counted = [a for e in edges for a in e.arcs]
        assert sorted(counted) == list(range(d.arc_count))


def test_mlf_edge_structure():
    d = diagram("mlf")
    edges = compute_edges(d)
    arc_sets = sorted(tuple(sorted(e.arcs)) for e in edges)
    assert arc_sets == [(0, 3), (1,), (2, 4)]


def test_delete_theta_edge_gives_unknot():
    d = diagram("theta")
    out = delete_edges(d, [0])
    assert out.arc_count == 1 and not out.crossings and not out.vertices


def test_delete_bridge_of_mlf_gives_hopf():
    d = diagram("mlf")
    edges = compute_edges(d)
    bridge = next(i for i, e in enumerate(edges) if e.arcs == (1,))
    out = delete_edges(d, [bridge])
    assert not out.vertices and len(out.crossings) == 2
    lk = linking_matrix(out)
    assert lk.component_count == 2
    assert abs(lk.matrix[0][1]) == 1


def test_delete_bridge_of_muf_gives_unlink():
    d = diagram("muf")
    edges = compute_edges(d)
    bridge = next(i for i, e in enumerate(edges) if e.arcs == (1,))
    out = delete_edges(d, [bridge])
    assert not out.vertices and not out.crossings and out.arc_count == 2
    assert linking_matrix(out).off_diagonal() == (0,)


def test_delete_preserves_validity():
    for name in ("theta", "mlf", "muf", "mwf", "mwuf"):
        d = diagram(name)
        edges = compute_edges(d)
        for i, e in enumerate(edges):
            doomed = set(e.arcs)
            survivors_ok = True
            for vi, v in enumerate(d.vertices):
                left = [a for a, _ in v.ends if a not in doomed]
                if len(left) != 2:
                    survivors_ok = False
            if survivors_ok:
                out = delete_edges(d, [i])
                assert validate_diagram(out).valid


def test_delete_rejects_bad_requests():
    d = diagram("theta")
    with pytest.raises(ValueError):
        delete_edges(d, [99])
    with pytest.raises(ValueError):
        delete_edges(d, [0, 1])  # would leave 1-valent vertices
