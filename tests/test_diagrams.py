import functools
import random
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from braids import closed_braid
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import diagrams
from quandlekit.coloring import count_colourings
from quandlekit.diagrams import (
    IN,
    OUT,
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
from quandlekit.tables import ParseError, ReportBuilder
from test_acceptance import Timer


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


def test_the_diagram_refuses_a_bad_sign_valence_or_direction():
    for arcs, crossings, vertices, axiom in (
        (1, (Crossing(0, 0, 0, 2),), (), r"'crossing-sign', \(0, 2\)"),
        (1, (), (Vertex(((0, "in"), (0, "out"))),), r"'vertex-valence', \(0, 2\)"),
        (
            3,
            (),
            (
                Vertex(((0, "in"), (1, "in"), (2, "up"))),
                Vertex(((0, "out"), (1, "out"), (2, "in"))),
            ),
            r"'vertex-direction', \(0, 2\)",
        ),
    ):
        with pytest.raises(ValueError, match=axiom):
            Diagram(arcs, crossings, vertices)
    # the records themselves are plain tuples and check nothing
    assert Crossing(0, 0, 0, 2) == (0, 0, 0, 2)


def reversed_strand(d, a):
    work = diagrams._Work(d)
    work.reverse_strand(a)
    return work.finalize()[0]


def test_reversing_a_component_that_passes_under_crossings():
    # T(2,6) with a kink on arc 1: the components {0, 3, 5} and
    # {1, 2, 4, 6} each pass under the other three times, and the second
    # passes under itself at the kink
    link = apply_move(closed_braid(2, [1] * 6), MoveSpec("r1_insert", 1, params={"sign": -1}))
    link = link.diagram
    flipped = reversed_strand(link, 1)
    assert linking_matrix(link).matrix == ((0, 3), (3, 0))
    assert linking_matrix(flipped).matrix == ((0, -3), (-3, 0))
    # the kink keeps its sign; its under-arcs swap
    assert flipped.crossings[6] == Crossing(6, 6, 1, -1)
    r3 = system("r3")
    assert count_colourings(flipped, r3) == count_colourings(link, r3) == 9
    assert reversed_strand(flipped, 1) == link
    assert reversed_strand(flipped, 6) == link


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


@functools.lru_cache(maxsize=None)
def random_diagrams():
    """200 random diagrams of up to 8 crossings and 3 vertex pairs."""
    return tuple(random_diagram(f"columns{seed}", seed % 9, seed % 4) for seed in range(200))


def fixtures_and_random_diagrams():
    return [diagram(name) for name in sorted(DIAGRAMS)] + list(random_diagrams())


# ---------------------------------------------------------------------------
# parsing: canonical records are read at once, every other spelling field
# by field


def respelled(text, rng, share=1.0):
    """text with a share of its crossing records written another way:
    fields shuffled, runs of blanks and tabs, leading zeros, and comments
    and blank lines in between.  No re-spelled record is canonical."""

    def zeros(m):
        return "=" + "0" * rng.randrange(3) + m[1]

    lines = []
    for line in text.splitlines():
        if line.startswith("crossing") and rng.random() < share:
            fields = line.split()[1:]
            rng.shuffle(fields)
            fields = [re.sub(r"=(\d+)$", zeros, f) for f in fields]
            # the first separator is never a single blank
            seps = [rng.choice(("  ", "\t", " \t "))]
            seps += [rng.choice((" ", "   ", "\t")) for _ in fields[1:]]
            line = "crossing" + "".join(map("".join, zip(seps, fields)))
            line = rng.choice(("", " ", "\t")) + line + rng.choice(("", " ", "\t"))
        lines.append(line)
        if rng.random() < 0.3:
            lines.append(rng.choice(("", "# a comment", "   ", "\t# crossing over=0")))
    return "\n".join(lines) + "\n"


def test_every_spelling_of_a_crossing_record_parses_to_the_same_diagram():
    rng = random.Random("respell")
    for d in fixtures_and_random_diagrams():
        text = serialize_diagram(d)
        for share in (1.0, 0.5):
            other = respelled(text, rng, share)
            assert parse_diagram(other) == d, other


def test_non_ascii_decimal_digits_still_parse_as_with_int():
    arabic = "arcs 2\ncrossing over=\u0661 under_in=\u0660 under_out=\u0661 sign=+\n"
    canonical = "arcs 2\ncrossing over=1 under_in=0 under_out=1 sign=+\n"
    tail = "crossing over=1 under_in=1 under_out=0 sign=-\n"
    assert parse_diagram(arabic + tail) == parse_diagram(canonical + tail)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        # a canonical record with an index equal to the arc count
        (
            "arcs 2\ncrossing over=1 under_in=0 under_out=2 sign=+\n",
            "arc index 2 out of range",
            2,
            38,
        ),
        (
            "arcs 2\ncrossing over=2 under_in=0 under_out=1 sign=+\n",
            "arc index 2 out of range",
            2,
            15,
        ),
        # a canonical record before the header
        (
            "# a comment\ncrossing over=1 under_in=0 under_out=1 sign=+\narcs 2\n",
            "expected header 'arcs <N>'",
            2,
            1,
        ),
        # a digit that is not a decimal one, and a decimal one out of range
        (
            "arcs 2\ncrossing over=1 under_in=0 under_out=\u00b2 sign=+\n",
            "bad arc index '\u00b2' for under_out",
            2,
            38,
        ),
        (
            "arcs 2\ncrossing over=\u0665 under_in=0 under_out=1 sign=+\n",
            "arc index 5 out of range",
            2,
            15,
        ),
        # arc 0 consumed twice and arc 1 produced twice: at the header line
        (
            "\n# two\narcs 2\ncrossing over=1 under_in=0 under_out=1 sign=+\n"
            "crossing over=1 under_in=0 under_out=1 sign=-\n",
            "invalid diagram: (('arc-consumers', (0,)), ('arc-producers', (1,)))",
            3,
            None,
        ),
    ],
)
def test_canonical_looking_records_fail_as_before(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    where = f"line {line}" + (f", column {column}" if column is not None else "")
    assert str(err.value) == f"{message} ({where})"
    assert (err.value.line, err.value.column) == (line, column)


# ---------------------------------------------------------------------------
# the whole-column check against the arc-by-arc scan


def reference_diagram_report(d):
    """The Diagram check arc by arc, as it was before whole columns."""
    rb = ReportBuilder()
    n = d.arc_count
    if n < 0:
        rb.hit("arc-count", (n,))
    producers = [0] * n
    consumers = [0] * n

    def check_range(a, site):
        if not 0 <= a < n:
            rb.hit("arc-range", (a, site))
            return False
        return True

    for ci, (over, under_in, under_out, sign) in enumerate(d.crossings):
        for a in (over, under_in, under_out):
            check_range(a, ci)
        if sign not in (1, -1):
            rb.hit("crossing-sign", (ci, sign))
        if 0 <= under_in < n:
            consumers[under_in] += 1
        if 0 <= under_out < n:
            producers[under_out] += 1
    for vi, v in enumerate(d.vertices):
        if len(v.ends) < 3:
            rb.hit("vertex-valence", (vi, len(v.ends)))
        for a, direction in v.ends:
            if direction not in (IN, OUT):
                rb.hit("vertex-direction", (vi, a))
            elif check_range(a, vi):
                (consumers if direction == IN else producers)[a] += 1
    for a in range(n):
        if producers[a] > 1 or (producers[a] == 1 and consumers[a] == 0):
            rb.hit("arc-producers", (a,))
        if consumers[a] > 1 or (consumers[a] == 1 and producers[a] == 0):
            rb.hit("arc-consumers", (a,))
    return rb.report()


def single_field_mutants(d):
    """(arc count, crossings, vertices) with one field changed: a sign of 0
    or 2, an index of -1 or n or one its column already holds, a vertex of
    valence 2, or an end direction "up"."""
    n = d.arc_count
    crossings, vertices = list(d.crossings), list(d.vertices)
    columns = list(zip(*crossings)) or [()] * 4
    end_arcs = {a for v in vertices for a, _ in v.ends}

    def with_crossing(ci, **change):
        changed = crossings[:ci] + [crossings[ci]._replace(**change)] + crossings[ci + 1 :]
        return n, changed, vertices

    def with_vertex(vi, ends):
        return n, crossings, vertices[:vi] + [Vertex(tuple(ends))] + vertices[vi + 1 :]

    for ci in range(len(crossings)):
        for sign in (0, 2):
            yield with_crossing(ci, sign=sign)
        for k, field in enumerate(("over", "under_in", "under_out")):
            for a in sorted({-1, n, *columns[k]}):
                yield with_crossing(ci, **{field: a})
    for vi, v in enumerate(vertices):
        yield with_vertex(vi, v.ends[:2])
        for pos, (a, direction) in enumerate(v.ends):
            ends = list(v.ends)
            for b in sorted({-1, n, *columns[1 if direction == IN else 2], *end_arcs}):
                ends[pos] = (b, direction)
                yield with_vertex(vi, ends)
            ends[pos] = (a, "up")
            yield with_vertex(vi, ends)


def test_the_column_check_reports_as_the_arc_by_arc_scan():
    checked = invalid = 0
    for d in fixtures_and_random_diagrams():
        assert validate_diagram(d) == reference_diagram_report(d)
        for n, crossings, vertices in single_field_mutants(d):
            mutant = SimpleNamespace(
                arc_count=n, crossings=tuple(crossings), vertices=tuple(vertices)
            )
            want = reference_diagram_report(mutant)
            assert validate_diagram(mutant) == want, mutant
            # the Diagram refuses exactly what the scan reports
            if want.valid:
                Diagram(n, crossings, vertices)
            else:
                invalid += 1
                with pytest.raises(ValueError) as err:
                    Diagram(n, crossings, vertices)
                assert str(err.value) == f"invalid diagram: {want.violations[:4]}"
            checked += 1
    assert invalid > checked // 2 and checked - invalid > 1000


def test_an_arc_consumed_twice_and_another_produced_twice_is_refused():
    # consumed 0, 0, 1 and produced 0, 1, 1: the same arcs, as many ends
    d = SimpleNamespace(
        arc_count=2,
        crossings=(Crossing(0, 0, 0, 1), Crossing(0, 0, 1, 1), Crossing(0, 1, 1, 1)),
        vertices=(),
    )
    want = reference_diagram_report(d)
    assert want.violations == (("arc-consumers", (0,)), ("arc-producers", (1,)))
    assert validate_diagram(d) == want
    with pytest.raises(ValueError, match="arc-consumers"):
        Diagram(d.arc_count, d.crossings, d.vertices)


def test_a_count_or_index_that_is_not_an_int_is_left_to_the_scan():
    # 1.0 and 0.0 pass the column ranges, but the scan sizes and indexes
    # lists by them
    for arcs, crossings, vertices in (
        (1, (Crossing(0, 0.0, 0, 1),), ()),
        (3, (), (Vertex(((0, IN), (1.0, IN), (2, OUT))), Vertex(((0, OUT), (1, OUT), (2, IN))))),
        (1.0, (Crossing(0, 0, 0, 1),), ()),
    ):
        with pytest.raises(TypeError):
            Diagram(arcs, crossings, vertices)


# ---------------------------------------------------------------------------
# edges


def reference_compute_edges(d):
    """compute_edges as it was, with a list test for a repeated arc."""
    next_arc = {c.under_in: c.under_out for c in d.crossings}
    vertex_end = {}
    for vi, v in enumerate(d.vertices):
        for pos, (a, direction) in enumerate(v.ends):
            vertex_end.setdefault(a, []).append((vi, pos, direction))

    def end_of(a, direction):
        for vi, pos, dd in vertex_end.get(a, ()):
            if dd == direction:
                return (vi, pos)
        return None

    edges = []
    used = set()
    starts = []
    for vi, v in enumerate(d.vertices):
        for pos, (a, direction) in enumerate(v.ends):
            if direction == OUT:
                starts.append((vi, pos, a))
    for vi, pos, a in starts:
        if a in used:
            continue
        chain = [a]
        used.add(a)
        cur = a
        while end_of(cur, IN) is None:
            cur = next_arc[cur]
            if cur in chain:
                break
            chain.append(cur)
            used.add(cur)
        edges.append(diagrams.Edge(tuple(chain), ((vi, pos), end_of(chain[-1], IN))))
    for a in range(d.arc_count):
        if a in used:
            continue
        chain = [a]
        used.add(a)
        cur = next_arc.get(a)
        while cur is not None and cur != a:
            chain.append(cur)
            used.add(cur)
            cur = next_arc.get(cur)
        k = chain.index(min(chain))
        chain = chain[k:] + chain[:k]
        edges.append(diagrams.Edge(tuple(chain), ()))
    edges.sort(key=lambda e: (len(e.endpoints) == 0, e.endpoints if e.endpoints else e.arcs))
    return edges


def test_edges_are_as_before_on_the_fixtures_and_random_diagrams():
    for d in fixtures_and_random_diagrams():
        assert compute_edges(d) == reference_compute_edges(d)


def test_a_long_kinked_edge_is_walked_in_linear_time():
    # a theta whose first edge runs through 20,000 R1 kinks
    k = 20_000
    theta = Diagram(
        k + 3,
        tuple(Crossing(i, i, i + 1, 1) for i in range(k)),
        (
            Vertex(((0, OUT), (k + 1, OUT), (k + 2, IN))),
            Vertex(((k, IN), (k + 1, IN), (k + 2, OUT))),
        ),
    )
    with Timer(1.0):
        edges = compute_edges(theta)
    assert edges[0] == diagrams.Edge(tuple(range(k + 1)), ((0, 0), (1, 0)))
    assert [e.arcs for e in edges[1:]] == [(k + 1,), (k + 2,)]
