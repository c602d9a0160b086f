"""Diagram moves and colouring-count invariance fuzzing.

All rewrites are combinatorial: a move is applicable when its colour
equations are exactly those of the corresponding picture, so splits keep
the original arc as the piece nearest its producer, and arcs whose colour
would change may not serve as over-arcs elsewhere.

Supported kinds: r1_insert/r1_delete, r2_insert/r2_delete,
tr1_insert/tr1_delete, tr2_slide, sr_forward/sr_backward, vertex_rotate,
reverse_arc.  The delete kinds are the reverse directions of the
corresponding insertions; every result records the inverse move and an
arc relabelling map.  Each move edits the ``Crossing`` records of a
``diagrams._Work`` copy, and the result checks itself as it is built.
``_MOVES`` declares each kind's parameter axes; ``apply_move`` refuses others.

tr2_slide is one slide with two variants: a strand passes over the
vertex arcs next to the vertex (``variant="vertex"``) or under them
(``variant="strand"``).  Expanding moves its crossing from the out-arc
to each in-arc, and contracting moves them back.  ``crossings``, when
given, is the tuple of crossing indices the slide removes; the inverse
names the crossings the slide added.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .coloring import ScopeError, count_colourings
from .diagrams import IN, OUT, Diagram, InapplicableMoveError, _Work
from .systems import (
    SystemData,
    associated_quandle,
    validate_family,
    validate_involution,
)

SCOPES = ("links", "trivalent", "handlebody", "n_valent")


@dataclass
class MoveSpec:
    kind: str
    site: int
    params: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.kind}@{self.site}"


@dataclass
class MoveResult:
    diagram: Diagram
    arc_map: dict[int, int]  # original arc -> new index, for survivors
    created: tuple[int, ...]  # new indices of arcs the move created
    inverse: MoveSpec


def _rotated(ends, pattern):
    """First rotation offset whose directions match pattern, or None."""
    v = len(ends)
    for k in range(v):
        if all(ends[(k + i) % v][1] == want for i, want in enumerate(pattern)):
            return k
    return None


def _sign(m: MoveSpec) -> int:
    return m.params.get("sign", 1)


def _reverse_arc_tokens(work: _Work, a: int) -> None:
    """Reverse the formal orientation of an arc whose endpoints are vertex
    ends (or a free loop): flip its end directions and the sign of every
    crossing it passes over."""
    for slot in (work.slot(a, IN), work.slot(a, OUT)):
        if slot is not None and slot[0] == "c":
            raise InapplicableMoveError(f"arc {a} ends at a crossing; cannot reverse alone")
    work.reverse_strand(a)


# Each move edits a _Work at the site of its spec and returns the inverse
# move, naming arcs by token; apply_move numbers them.


def _r1_insert(work: _Work, m: MoveSpec) -> MoveSpec:
    a = m.site
    if work.slot(a, IN) is None:
        over = b = a
    else:
        b = work.split(a)
        over = a if m.params.get("over_first", False) else b
    work.cross(over, a, b, _sign(m))
    return MoveSpec("r1_delete", len(work.crossings) - 1)


def _r1_delete(work: _Work, m: MoveSpec) -> MoveSpec:
    c = work.crossings[m.site]
    if c.over not in (c.under_in, c.under_out):
        raise InapplicableMoveError(f"crossing {m.site} is not a kink")
    del work.crossings[m.site]
    work.merge(c.under_in, c.under_out)
    params = {"sign": c.sign, "over_first": c.over == c.under_in}
    return MoveSpec("r1_insert", c.under_in, params=params)


def _r2_insert(work: _Work, m: MoveSpec) -> MoveSpec:
    a, o = m.site, m.params.get("other")
    if o not in work.alive or a == o:
        raise InapplicableMoveError("r2_insert needs two distinct arcs")
    sign = _sign(m)
    work.pass_under(a, (o, sign), (o, -sign))
    n = len(work.crossings)
    return MoveSpec("r2_delete", n - 2, params={"second": n - 1})


def _r2_delete(work: _Work, m: MoveSpec) -> MoveSpec:
    c1i, c2i = m.site, m.params.get("second", -1)
    if not 0 <= c2i < len(work.crossings) or c1i == c2i:
        raise InapplicableMoveError("r2_delete needs two crossings")
    c1, c2 = work.crossings[c1i], work.crossings[c2i]
    mid = c1.under_out
    if (
        c1.over != c2.over
        or c2.under_in != mid
        or c1.sign != -c2.sign
        or c1.over in (mid, c1.under_in, c2.under_out)
    ):
        raise InapplicableMoveError("crossings do not form a cancelling pair")
    if work.over_count(mid) > 0:
        raise InapplicableMoveError("middle arc passes over other crossings")
    first = c1.under_in
    work.delete_crossings(c1i, c2i)
    work.merge(first, mid)
    work.merge(first, c2.under_out)
    return MoveSpec("r2_insert", first, params={"other": c1.over, "sign": c1.sign})


def _tr1_insert(work: _Work, m: MoveSpec) -> MoveSpec:
    ends = work.vertices[m.site]
    v = len(ends)
    pos = m.params.get("pos", 0) % v
    (p, pd), (q, qd) = ends[pos], ends[(pos + 1) % v]
    if pd != IN or qd != IN or p == q:
        raise InapplicableMoveError("tr1_insert needs two distinct in-ends")
    if _sign(m) > 0:
        b = work.split(p)  # p: producer -> C, b: C -> vertex
        work.cross(q, p, b, 1)
        ends[pos], ends[(pos + 1) % v] = (q, IN), (b, IN)
    else:
        b = work.split(q)
        work.cross(p, q, b, -1)
        ends[pos], ends[(pos + 1) % v] = (b, IN), (p, IN)
    return MoveSpec("tr1_delete", m.site, params={"pos": pos})


def _tr1_delete(work: _Work, m: MoveSpec) -> MoveSpec:
    ends = work.vertices[m.site]
    v = len(ends)
    pos = m.params.get("pos", 0) % v
    (r, rd), (s, sd) = ends[pos], ends[(pos + 1) % v]
    if rd != IN or sd != IN:
        raise InapplicableMoveError("tr1_delete needs two in-ends")
    for ci, c in enumerate(work.crossings):
        if c.under_out == s and c.over == r and c.sign > 0:
            curl, sign = s, 1
        elif c.under_out == r and c.over == s and c.sign < 0:
            curl, sign = r, -1
        else:
            continue
        if work.over_count(curl) > 0:
            raise InapplicableMoveError("curl arc passes over other crossings")
        t = c.under_in
        del work.crossings[ci]
        work.merge(t, curl)
        ends[pos], ends[(pos + 1) % v] = ((t, IN), (r, IN)) if sign > 0 else ((s, IN), (t, IN))
        return MoveSpec("tr1_insert", m.site, params={"pos": pos, "sign": sign})
    raise InapplicableMoveError("no curl at this vertex position")


def _tr2_slide(work: _Work, m: MoveSpec) -> MoveSpec:
    ends = work.vertices[m.site]
    if len(ends) != 3:
        raise InapplicableMoveError("tr2_slide needs a trivalent vertex")
    k = _rotated(ends, (IN, IN, OUT))
    if k is None:
        raise InapplicableMoveError("vertex has no in,in,out rotation")
    direction = m.params.get("direction", "expand")
    variant = m.params.get("variant", "vertex")
    if direction not in ("expand", "contract") or variant not in ("vertex", "strand"):
        raise InapplicableMoveError(f"unknown tr2 form {direction!r}/{variant!r}")
    expand = direction == "expand"
    *ins, out = (arc for arc, _ in ends[k:] + ends[:k])
    away, onto = ((out,), ins) if expand else (ins, (out,))
    wanted = m.params.get("crossings")
    if wanted is not None and not (
        isinstance(wanted, tuple) and all(isinstance(ci, int) for ci in wanted)
    ):
        raise InapplicableMoveError(f"crossings {wanted!r} is not a tuple of crossing indices")
    if variant == "vertex":
        _slide_over(work, away, onto, expand, wanted)
    else:
        _slide_under(work, away, onto, wanted)
    n = len(work.crossings)
    params = {
        "direction": "contract" if expand else "expand",
        "variant": variant,
        "crossings": tuple(range(n - len(onto), n)),
    }
    return MoveSpec("tr2_slide", m.site, params=params)


# The two variants of the slide.  Expanding moves the slid crossings from
# the out-arc to the in-arcs, and contracting moves them back: each variant
# removes the crossings at the ``away`` arcs (those ``wanted`` when given)
# and appends one crossing at each ``onto`` arc.


def _slide_over(work: _Work, away, onto, expand, wanted) -> None:
    """A strand passes over the vertex arcs next to the vertex: over the
    out-arc, or over every in-arc with one sign."""
    slots = [work.slot(a, IN if expand else OUT) for a in away]
    if any(slot is None or slot[0] != "c" for slot in slots):
        raise InapplicableMoveError("no crossing next to the vertex to slide")
    found = tuple(slot[1] for slot in slots)
    slid = [work.crossings[ci] for ci in found]
    over, sign = slid[0].over, slid[0].sign
    if any(c.over != over or c.sign != sign for c in slid) or wanted not in (None, found):
        raise InapplicableMoveError("no slidable crossings at this vertex")
    if any(work.over_count(a) for a in away):
        raise InapplicableMoveError("vertex arcs pass over other crossings")
    # an over-arc that is a vertex arc or a slid under-arc (a kink) would be merged
    if over in {*away, *onto} | {a for c in slid for a in (c.under_in, c.under_out)}:
        raise InapplicableMoveError("slide arcs are not independent")
    work.delete_crossings(*found)
    for c in slid:
        work.merge(c.under_in, c.under_out)
    for a in onto:
        a = work.find(a)
        work.cross(over, a, work.split(a), sign)


def _slide_under(work: _Work, away, onto, wanted) -> None:
    """A strand passes under the vertex arcs: under the out-arc, or under
    every in-arc in turn with one sign, in the in-ends' order when the sign
    is positive and reversed when it is negative."""
    run = next((run for run in _runs_under(work, away) if wanted in (None, run)), None)
    if run is None:
        raise InapplicableMoveError("no strand passes under the vertex arcs")
    slid = [work.crossings[ci] for ci in run]
    first, last, sign = slid[0].under_in, slid[-1].under_out, slid[0].sign
    middle = [c.under_out for c in slid[:-1]]
    if any(work.over_count(a) for a in middle):
        raise InapplicableMoveError("middle arc passes over other crossings")
    if {first, last} & {*away, *onto}:
        raise InapplicableMoveError("slide arcs are not independent")
    work.delete_crossings(*run)
    for a in middle:
        work.drop(a)
    arcs = [first, *(work.fresh() for _ in onto[1:]), last]
    for over, a, b in zip(onto if sign > 0 else onto[::-1], arcs, arcs[1:]):
        work.cross(over, a, b, sign)


def _runs_under(work: _Work, overs):
    """The crossing indices of each run along one strand, of one sign,
    under the arcs ``overs`` in turn (reversed when the sign is negative),
    in the order of their first crossings."""
    crossings = work.crossings
    consumer = {c.under_in: i for i, c in enumerate(crossings)}
    for start, c in enumerate(crossings):
        run, ci = [], start
        for over in overs if c.sign > 0 else overs[::-1]:
            step = crossings[ci]
            if ci in run or step.over != over or step.sign != c.sign:
                break
            run.append(ci)
            # an arc no crossing consumes leads back to the start, which ends the run
            ci = consumer.get(step.under_out, start)
        else:
            yield tuple(run)


def _sr(work: _Work, m: MoveSpec) -> MoveSpec:
    bar = m.site
    prod = work.slot(bar, OUT)
    cons = work.slot(bar, IN)
    if prod is None or cons is None or prod[0] != "v" or cons[0] != "v":
        raise InapplicableMoveError("sr needs an edge joining two vertices")
    v1, v2 = prod[1], cons[1]
    if v1 == v2:
        raise InapplicableMoveError("sr bar must join distinct vertices")
    if len(work.vertices[v1]) != 3 or len(work.vertices[v2]) != 3:
        raise InapplicableMoveError("sr needs trivalent vertices")
    if work.over_count(bar) > 0:
        raise InapplicableMoveError("bar passes over other crossings")
    e1 = work.vertices[v1]
    e2 = work.vertices[v2]
    k1 = next(i for i, (a, dd) in enumerate(e1) if a == bar and dd == OUT)
    k2 = next(i for i, (a, dd) in enumerate(e2) if a == bar and dd == IN)
    s1, s2 = e1[(k1 + 1) % 3], e1[(k1 + 2) % 3]
    t1, t2 = e2[(k2 + 1) % 3], e2[(k2 + 2) % 3]
    work.drop(bar)
    nb = work.fresh()
    if m.kind == "sr_forward":
        work.vertices[v1] = [s2, t1, (nb, OUT)]
        work.vertices[v2] = [(nb, IN), t2, s1]
    else:
        work.vertices[v1] = [t2, s1, (nb, OUT)]
        work.vertices[v2] = [(nb, IN), s2, t1]
    return MoveSpec("sr_backward" if m.kind == "sr_forward" else "sr_forward", nb)


def _vertex_rotate(work: _Work, m: MoveSpec) -> MoveSpec:
    direction = m.params.get("direction", 1)
    ends = work.vertices[m.site]
    if direction >= 0:
        wrapped = ends[0][0]
        work.vertices[m.site] = ends[1:] + ends[:1]
    else:
        wrapped = ends[-1][0]
        work.vertices[m.site] = ends[-1:] + ends[:-1]
    _reverse_arc_tokens(work, wrapped)
    return MoveSpec("vertex_rotate", m.site, params={"direction": -direction})


def _reverse_arc(work: _Work, m: MoveSpec) -> MoveSpec:
    _reverse_arc_tokens(work, m.site)
    return MoveSpec("reverse_arc", m.site)


_SIGNS = (1, -1)
_POSITIONS = lambda d, vi: range(d.vertices[vi].valence)  # noqa: E731
_OTHER_ARCS = lambda d, a: [*range(a), *range(a + 1, d.arc_count)]  # noqa: E731
_OTHER_CROSSINGS = lambda d, ci: [*range(ci), *range(ci + 1, len(d.crossings))]  # noqa: E731
_TR2_FORMS = ("direction", ("expand", "contract")), ("variant", ("vertex", "strand"))

# kind -> (site type, move, the axes of its candidates at a site).  An axis
# is a parameter name and its values, or a function of the diagram and the
# site giving them; None leaves the parameter out.  The axes name every
# parameter of the kind, and their product, the last axis fastest, lists a
# site's candidates, as many at every arc or crossing.
_MOVES = {
    "r1_insert": ("arc", _r1_insert, (("sign", _SIGNS), ("over_first", (None, True)))),
    "r1_delete": ("crossing", _r1_delete, ()),
    "r2_insert": ("arc", _r2_insert, (("other", _OTHER_ARCS), ("sign", _SIGNS))),
    "r2_delete": ("crossing", _r2_delete, (("second", _OTHER_CROSSINGS),)),
    "tr1_insert": ("vertex", _tr1_insert, (("pos", _POSITIONS), ("sign", _SIGNS))),
    "tr1_delete": ("vertex", _tr1_delete, (("pos", _POSITIONS),)),
    "tr2_slide": ("vertex", _tr2_slide, (*_TR2_FORMS, ("crossings", (None,)))),
    "sr_forward": ("arc", _sr, ()),
    "sr_backward": ("arc", _sr, ()),
    "vertex_rotate": ("vertex", _vertex_rotate, (("direction", _SIGNS),)),
    "reverse_arc": ("arc", _reverse_arc, ()),
}

MOVE_KINDS = tuple(_MOVES)
# kind -> (site type, the product of its value axes' lengths, its function axes)
_SIZES = {kind: (site, math.prod(len(v) for _, v in axes if not callable(v)),
                 [v for _, v in axes if callable(v)]) for kind, (site, _, axes) in _MOVES.items()}


def _site_counts(d: Diagram) -> dict[str, int]:
    return {"arc": d.arc_count, "crossing": len(d.crossings), "vertex": len(d.vertices)}


def apply_move(d: Diagram, m: MoveSpec) -> MoveResult:
    """Apply the move at its site; raises InapplicableMoveError when the
    site does not carry the move's pattern, and ValueError for an unknown
    kind, a parameter the kind does not declare, or a ``sign`` or
    ``vertex_rotate`` direction other than 1 and -1.  The move function of
    the kind edits a copy and names the inverse's arcs by token; they are
    numbered here, as are the arc map and the created arcs."""
    if m.kind not in _MOVES:
        raise ValueError(f"unknown move kind {m.kind!r}")
    site, move, axes = _MOVES[m.kind]
    names = [name for name, _ in axes]
    for name, value in m.params.items():
        if name not in names:
            raise ValueError(f"{m.kind} has no parameter {name!r}")
        # a crossing sign, or the way a vertex turns
        if (name == "sign" or m.kind == "vertex_rotate") and value not in (1, -1):
            raise ValueError(f"{m.kind} parameter {name!r} must be 1 or -1, not {value!r}")
    if not 0 <= m.site < _site_counts(d)[site]:
        raise InapplicableMoveError(f"no {site} {m.site}")
    work = _Work(d)
    inverse = move(work, m)
    out, index = work.finalize()
    number = lambda token: index[work.find(token)]  # noqa: E731
    params = dict(inverse.params)
    if "other" in params:
        params["other"] = number(params["other"])
    inverse_site = number(inverse.site) if _MOVES[inverse.kind][0] == "arc" else inverse.site
    if type(index) is range:  # nothing merged or dropped: each arc keeps its number
        arc_map = dict(zip(range(d.arc_count), index))
    else:  # an arc merged into another takes its number
        tokens = map(work.find, range(d.arc_count)) if work.rename else range(d.arc_count)
        arc_map = {a: index[t] for a, t in enumerate(tokens) if t in index}
    created = tuple(index[t] for t in work.created)
    return MoveResult(out, arc_map, created, MoveSpec(inverse.kind, inverse_site, params=params))


# ---------------------------------------------------------------------------
# applicability scanning


def _check_kinds(kinds) -> None:
    if isinstance(kinds, str):
        raise TypeError(f"a move set is a collection of kinds, not the string {kinds!r}")
    for kind in kinds:
        if kind not in _MOVES:
            raise ValueError(f"unknown move kind {kind!r}")


def _candidates(d: Diagram, kinds):
    """The number of candidate specs of the given kinds in d, and a function
    that builds the i-th of them alone, in ``candidate_moves`` order."""
    _check_kinds(kinds)
    n_sites, blocks = _site_counts(d), []
    for kind in (kind for kind in MOVE_KINDS if kind in kinds):
        site, fixed, varying = _SIZES[kind]
        n = n_sites[site]
        size = lambda s: fixed * math.prod(len(v(d, s)) for v in varying)  # noqa: E731
        if site == "vertex" and varying:  # positions, as many as the valence
            sizes = [size(s) for s in range(n)]
        else:  # as many at every site
            sizes = size(0) if n and varying else fixed
        blocks.append((kind, sum(sizes) if isinstance(sizes, list) else n * sizes, sizes))

    def decode(i: int) -> MoveSpec:
        for kind, count, sizes in blocks:
            if i < count:
                break
            i -= count
        if isinstance(sizes, int):
            s, i = divmod(i, sizes)
        else:
            s = 0
            while i >= sizes[s]:
                i, s = i - sizes[s], s + 1
        picked = {}
        for name, values in reversed(_MOVES[kind][2]):
            values = values(d, s) if callable(values) else values
            i, k = divmod(i, len(values))
            picked[name] = values[k]
        params = {name: v for name, v in reversed(picked.items()) if v is not None}
        return MoveSpec(kind, s, params=params)

    return sum(count for _, count, _ in blocks), decode


def candidate_moves(d: Diagram, kinds):
    """Every spec of the given kinds with a site in d, applicable or not:
    the kinds in MOVE_KINDS order, then the sites, then the product of the
    kind's axes.  ValueError for an unknown kind, TypeError for a string."""
    count, decode = _candidates(d, kinds)
    return map(decode, range(count))


def applicable_moves(d: Diagram, kinds) -> list[MoveSpec]:
    """Deterministic enumeration of applicable move specs of the given
    kinds.  Applicability is verified by actually applying each candidate."""
    usable = []
    for spec in candidate_moves(d, kinds):
        try:
            apply_move(d, spec)
        except InapplicableMoveError:
            continue
        usable.append(spec)
    return usable


# ---------------------------------------------------------------------------
# random diagrams


_ONE_LOOP = Diagram(1, (), ())  # what every random diagram grows from


def random_diagram(seed, crossings_max: int, vertices_max: int, valences=(3,)) -> Diagram:
    """Reproducible random diagram grown from free loops by kinks, pokes,
    vertex-pair insertions and threads under vertex in-arcs.  Theta pairs
    take their valence from ``valences``; handcuff pairs, which are
    trivalent, are drawn only when 3 is among them."""
    if crossings_max < 0 or vertices_max < 0:
        raise ValueError("bounds must be non-negative")
    if not valences or min(valences) < 3:
        raise ValueError(f"valences {tuple(valences)} must be non-empty and each at least 3")
    rng = random.Random(repr(seed))
    # nothing is merged or dropped, so the tokens are 0, 1, ... and
    # finalize keeps them as the arc numbers
    work = _Work(_ONE_LOOP)
    vertex_budget = vertices_max
    crossing_budget = crossings_max

    while True:
        ops = []
        if vertex_budget >= 2:
            ops += ["theta", "handcuff"] if 3 in valences else ["theta"]
        if crossing_budget >= 1:
            ops.append("kink")
        if crossing_budget >= 2 and work.next_token >= 2:
            ops.append("poke")
        if crossing_budget >= 2 and work.vertices:
            ops.append("thread")
        if not ops:
            break
        op = rng.choice(ops)
        if op in ("theta", "handcuff"):
            free = [a for a in range(work.next_token) if work.slot(a, IN) is None]
            if not free:
                free = [work.fresh()]
            a = rng.choice(free)
            if op == "theta":
                valence = rng.choice(sorted(valences))
                b, *extra = (work.fresh() for _ in range(valence - 1))
                work.vertices.append([(b, IN), (a, OUT)] + [(x, OUT) for x in extra])
                work.vertices.append([(a, IN)] + [(x, IN) for x in extra] + [(b, OUT)])
            else:
                mth, b = work.fresh(), work.fresh()
                work.vertices.append([(a, IN), (mth, OUT), (a, OUT)])
                work.vertices.append([(b, IN), (mth, IN), (b, OUT)])
            vertex_budget -= 2
        elif op == "kink":
            a = rng.randrange(work.next_token)
            params = {"sign": rng.choice((1, -1)), "over_first": rng.random() < 0.5}
            _r1_insert(work, MoveSpec("r1_insert", a, params=params))
            crossing_budget -= 1
        elif op == "poke":
            a = rng.randrange(work.next_token)
            o = rng.choice([x for x in range(work.next_token) if x != a])
            params = {"other": o, "sign": rng.choice((1, -1))}
            _r2_insert(work, MoveSpec("r2_insert", a, params=params))
            crossing_budget -= 2
        elif op == "thread":
            sites = []
            for vi, ends in enumerate(work.vertices):
                k = _rotated(ends, (IN, IN, OUT)) if len(ends) == 3 else None
                if k is None:
                    continue
                incident = {e for e, _ in ends}
                for t in range(work.next_token):
                    if t not in incident:
                        sites.append((vi, k, t))
            if not sites:
                crossing_budget -= 1
                continue
            vi, k, t = sites[rng.randrange(len(sites))]
            ends = work.vertices[vi]
            b1, b2 = ends[k][0], ends[(k + 1) % 3][0]
            sign = rng.choice((1, -1))
            mu1, mu2 = (b1, b2) if sign > 0 else (b2, b1)
            work.pass_under(t, (mu1, sign), (mu2, sign))
            crossing_budget -= 2
        if crossing_budget <= 0 and vertex_budget <= 1:
            break
    return work.finalize()[0]


# ---------------------------------------------------------------------------
# invariance fuzzing


_LINK_MOVES = ("r1_insert", "r1_delete", "r2_insert", "r2_delete")
_GRAPH_MOVES = ("tr1_insert", "tr1_delete", "tr2_slide", "vertex_rotate", "reverse_arc")
DEFAULT_MOVES = {
    "links": _LINK_MOVES,
    "trivalent": _LINK_MOVES + _GRAPH_MOVES,
    "handlebody": _LINK_MOVES + _GRAPH_MOVES + ("sr_forward", "sr_backward"),
    "n_valent": _LINK_MOVES + ("vertex_rotate", "reverse_arc"),
}


@dataclass
class FuzzTrial:
    index: int
    seed: str
    move: str
    before: int
    after: int

    @property
    def ok(self) -> bool:
        return self.before == self.after

    def line(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"trial {self.index} seed {self.seed} move {self.move} "
            f"before {self.before} after {self.after} {status}"
        )


@dataclass
class FuzzReport:
    trials: list[FuzzTrial]
    skipped: int

    @property
    def mismatches(self) -> list[FuzzTrial]:
        return [t for t in self.trials if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def text(self) -> str:
        return "".join(t.line() + "\n" for t in self.trials)


def draw_trial(trial_seed: str, move_set, crossings_max: int, vertices_max: int, valences):
    """The diagram, move and moved result of one fuzz trial, or None.

    The diagram is the first of eight random ones with an applicable move
    of ``move_set``.  The trial's rng shuffles its candidates' indices (kinds
    in MOVE_KINDS order, then sites, then the product of the kind's axes);
    the specs they name are built and applied in turn until one applies."""
    rng = random.Random(trial_seed)
    for attempt in range(8):
        diagram = random_diagram(f"{trial_seed}#{attempt}", crossings_max, vertices_max, valences)
        count, decode = _candidates(diagram, move_set)
        order = list(range(count))
        rng.shuffle(order)
        for spec in map(decode, order):
            try:
                return diagram, spec, apply_move(diagram, spec)
            except InapplicableMoveError:
                continue
    return None


def validate_scope(sys: SystemData, scope: str) -> list[str]:
    """Check the theorem hypotheses behind a fuzzing scope; returns a list
    of human-readable problems (empty when the scope is justified).  The
    system keeps them per scope, so it is checked once."""
    kept = sys.scope_problems
    if scope not in kept:
        kept[scope] = tuple(_scope_problems(sys, scope))
    return list(kept[scope])


def _scope_problems(sys: SystemData, scope: str) -> list[str]:
    problems = []
    product, report = associated_quandle(sys)
    if not report.valid:
        problems.append(f"associated product is not a quandle: {report.violations[:2]}")
    if scope == "links":
        return problems
    if sys.rho is None:
        problems.append("scope needs the involution rho")
        return problems
    # validate_involution needs the dual of a quandle; a non-quandle is listed above
    if report.valid:
        inv = validate_involution(product, sys.flat_rho)
        if not inv.valid:
            problems.append(f"rho is not a good involution: {inv.violations[:2]}")
    if scope in ("trivalent", "handlebody"):
        if sys.oplus is None:
            problems.append("scope needs the composition oplus")
            return problems
        tc = validate_family(sys, "trivalent_compatible")
        if not tc.valid:
            problems.append(f"not trivalent compatible: {tc.violations[:2]}")
    if scope == "handlebody":
        ac = validate_family(sys, "associative_composition")
        if not ac.valid:
            problems.append(f"composition not associative: {ac.violations[:2]}")
    if scope == "n_valent":
        if not sys.gamma_arities:
            problems.append("scope needs composition tables")
        else:
            nc = validate_family(sys, "n_compatible", sys.gamma_arities)
            if not nc.valid:
                problems.append(f"not n-compatible: {nc.violations[:2]}")
    return problems


def fuzz_invariance(
    sys: SystemData,
    trials: int,
    seed,
    move_set=None,
    scope: str = "handlebody",
    force: bool = False,
    crossings_max: int = 4,
    vertices_max: int = 2,
) -> FuzzReport:
    """Per trial: a random scope-appropriate diagram, one random applicable
    move, and a before/after colouring-count comparison.

    Refuses to run when the system fails the scope's theorem hypotheses
    unless ``force`` is set (deliberately broken systems are fuzzed that
    way to exhibit mismatches).
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    for name, value in (("trials", trials), ("crossings_max", crossings_max),
                        ("vertices_max", vertices_max)):
        if value < 0:
            raise ValueError(f"{name} must not be negative, got {value}")
    problems = validate_scope(sys, scope)
    if problems and not force:
        raise ScopeError("; ".join(problems))
    if move_set is None:
        move_set = DEFAULT_MOVES[scope]
    _check_kinds(move_set)
    vertices_max = 0 if scope == "links" else vertices_max
    valences = (tuple(k + 1 for k in sys.gamma_arities) or (3,)) if scope == "n_valent" else (3,)

    out: list[FuzzTrial] = []
    for i in range(trials):
        trial_seed = f"{seed}/{i}"
        drawn = draw_trial(trial_seed, move_set, crossings_max, vertices_max, valences)
        if drawn is None:
            continue
        diagram, spec, moved = drawn
        before = count_colourings(diagram, sys, "all")
        after = count_colourings(moved.diagram, sys, "all")
        out.append(FuzzTrial(i, trial_seed, str(spec), before, after))
    return FuzzReport(out, trials - len(out))
