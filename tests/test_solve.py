"""The counting engine on its own, and diagrams of a thousand arcs or more
counted through it under the default recursion limit."""

import heapq
import itertools
import math
import sys

from braids import closed_braid, longer_words, measured_words
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import Timer

from quandlekit.coloring import ColouringContext, brute_force_count, count_colourings
from quandlekit.diagrams import Crossing, Diagram
from quandlekit.fixtures import diagram, list_diagrams, system
from quandlekit.invariants import group_hom_count, wirtinger_presentation
from quandlekit.moves import random_diagram
from quandlekit.solve import Problem
from quandlekit.systems import g_family_system, quandle_system
from quandlekit.tables import (
    OperationTable,
    conjugation_quandle,
    dihedral_quandle,
    hom_count,
    symmetric_group,
    trivial_quandle,
)

R3 = system("r3")
S3 = symmetric_group(3)
S3_POINT = g_family_system(tuple(trivial_quandle(1) for _ in range(6)), S3)


def kink_chain(n, over):
    """An unknot with n R1 kinks; kink i turns arc i into arc i+1 and
    passes over arc over(i), which is i or i+1."""
    return Diagram(n, tuple(Crossing(over(i), i, (i + 1) % n, 1) for i in range(n)), ())


def torus(n):
    """The closed 2-braid sigma_1^n."""
    return Diagram(n, tuple(Crossing((i - 1) % n, (i - 2) % n, i, 1) for i in range(n)), ())


def test_free_variables_and_empty_problem():
    assert len(list(Problem(3, 4).solutions())) == 64
    assert list(Problem(0, 4).solutions()) == [()]


def test_table_constraint_with_inverse_forces_both_ways():
    r3 = dihedral_quandle(3)
    p = Problem(3, 3)
    p.add_table(0, 1, 2, r3, r3)  # z = x * y, x = z * y in a kei
    p.add_table(2, 1, 0, r3, r3)
    assert sorted(p.solutions()) == [(x, y, (2 * y - x) % 3) for x in range(3) for y in range(3)]


def rooted_problem():
    """A dihedral-quandle problem in which variable 3 is in the fewest
    constraint slots and variable 4 in none."""
    r3 = dihedral_quandle(3)
    p = Problem(5, 3)
    p.add_table(0, 1, 2, r3, r3)
    p.add_table(2, 1, 0, r3, r3)
    p.add_table(1, 2, 3, r3)
    return p


def test_the_root_is_the_lowest_variable_in_the_fewest_slots_but_not_in_none():
    assert rooted_problem().root_variable() == 3
    # with every variable in no constraint, the lowest
    assert Problem(3, 4).root_variable() == 0


def test_count_without_weights_is_the_number_of_solutions():
    p = rooted_problem()
    assert p.count() == len(list(p.solutions())) == 27
    assert Problem(3, 4).count() == 64


def test_count_sums_the_root_weight_over_the_solutions():
    p = rooted_problem()
    plain = list(p.solutions())
    # R3 is one component of 3 elements, and its translations map solutions
    # to solutions: the root goes over one representative weighted by 3
    r3 = dihedral_quandle(3)
    assert p.count((r3, range(3))) == len(plain) == 27
    # below the root at 0 only R_0 fixes it, and R_0 swaps 1 and 2; below
    # a second value the chain ends.  A leaf's weight is the product of
    # its orbit sizes: 3 for the root's component, then 1 or 2
    below = r3.stabiliser(range(3)).child(0)
    assert below.fixers == (0,) and below.representatives(range(3)) == (0, 1)
    leaves = list(p.solutions(r3.stabiliser(range(3)), (4,)))
    assert leaves == [(3, (0, 0, 0, 0, -1)), (6, (0, 1, 2, 0, -1))]
    # the free variable 4, left unskipped, is branched below the chain's end
    leaves = list(p.solutions(r3.stabiliser(range(3))))
    assert sum(w for w, _ in leaves) == 27 and len(leaves) == 5


def test_count_with_the_root_fixed_before_any_branching():
    # a one-variable rule fixes variable 0 to 1, and so variable 1 too;
    # variable 2 is free
    p = Problem(3, 3)
    p.add_rule([0], lambda values, i: 1, [0])
    p.add_table(0, 0, 1, dihedral_quandle(3))
    assert p.root_variable() == 1
    assert p.count() == 3 and p.leaves == 1
    # the free variable is searched only when keep reads it
    assert p.count(keep=lambda s: s[2] != 1) == 2 and p.leaves == 3
    # Conj(S3), with variable 0 fixed to the identity, a class of one: the
    # rule commutes with conjugation, as the symmetry must
    conj = conjugation_quandle(S3)
    p = Problem(2, 6)
    p.add_rule([0], lambda values, i: S3.identity, [0])
    p.add_table(0, 0, 1, conj)
    assert p.root_variable() == 1
    assert p.count((conj, range(6))) == p.count() == 1


def test_zero_variables_count_one():
    assert Problem(0, 4).count() == 1
    assert Problem(0, 4).count((dihedral_quandle(4), range(4))) == 1
    assert Problem(0, 4).count(keep=lambda s: s == ()) == 1
    assert Problem(0, 4).count(keep=lambda s: False) == 0


def test_keep_filters_the_solutions():
    assert Problem(3, 4).count(keep=lambda s: s[0] == s[1]) == 16
    p = rooted_problem()
    plain = list(p.solutions())
    keep = lambda s: s[4] != s[0]  # noqa: E731
    assert p.count(keep=keep) == sum(map(keep, plain)) == 18
    # keep is read on full assignments: the free variable 4 is branched
    # over, and R3's translations keep s[4] != s[0]
    assert p.count((dihedral_quandle(3), range(3)), keep) == 18


def test_free_variables_are_a_factor_and_not_searched():
    p = rooted_problem()
    assert p.count() == 27 and p.leaves == 9
    p.count(keep=lambda s: True)
    assert p.leaves == 27
    assert Problem(3, 4).count() == 64 and Problem(3, 4).leaves == 0
    # mwuf's arc 3 is a free circle, and generating mode reads every arc,
    # so it searches that circle
    mwuf = diagram("mwuf")
    for mode in ("all", "generating"):
        assert count_colourings(mwuf, S3_POINT, mode) == brute_force_count(mwuf, S3_POINT, mode)
    # by P5, arcs 0 to 2 alone have 14,400 colourings, each met 120 times
    # when the circle is branched over
    ctx = ColouringContext(mwuf, p5())
    assert ctx.count(ctx.symmetry()) == 1728000 and ctx.leaves < 14400


@st.composite
def problems(draw):
    """A Problem of 2 to 5 variables over 2 to 4 values, with the checks of
    its constraints on a full assignment.  Tables are arbitrary, so a
    value occurs 0, 1 or several times in a row, or have permutations for
    columns, and then may carry their dual as x_from; x == y and y == z
    are drawn often.  Rules are a sum over units mod m, which fixes every
    position, and equality, which fails where the others disagree."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    p, checks = Problem(n, m), []
    variables, elements = st.integers(0, n - 1), st.integers(0, m - 1)
    for _ in range(draw(st.integers(0, 4))):
        x, z = draw(variables), draw(variables)
        y = draw(st.one_of(st.just(x), st.just(z), variables))
        x_from = None
        if draw(st.booleans()):
            columns = [draw(st.permutations(range(m))) for _ in range(m)]
            op = OperationTable(m, tuple(zip(*columns)))
            x_from = op.dual if draw(st.booleans()) else None
        else:
            row = st.lists(elements, min_size=m, max_size=m).map(tuple)
            op = OperationTable(m, tuple(draw(row) for _ in range(m)))
        p.add_table(x, y, z, op, x_from)
        checks.append(lambda s, x=x, y=y, z=z, op=op.entries: s[z] == op[s[x]][s[y]])
    for _ in range(draw(st.integers(0, 2))):
        vs = draw(st.lists(variables, min_size=1, max_size=4))
        forcing = draw(st.lists(st.integers(0, len(vs) - 1), unique=True))
        if len(vs) > 1 and draw(st.booleans()):

            def solve(values, i, vs=vs):
                others = {values[v] for j, v in enumerate(vs) if j != i}
                return others.pop() if len(others) == 1 else -1

            checks.append(lambda s, vs=vs: len({s[v] for v in vs}) == 1)
        else:
            units = [c for c in range(1, m) if math.gcd(c, m) == 1]
            cs = draw(st.lists(st.sampled_from(units), min_size=len(vs), max_size=len(vs)))
            target = draw(elements)

            def solve(values, i, vs=vs, cs=cs, target=target):
                rest = sum(c * values[v] for j, (c, v) in enumerate(zip(cs, vs)) if j != i)
                return (target - rest) * pow(cs[i], -1, m) % m

            checks.append(lambda s, vs=vs, cs=cs, target=target: (
                sum(c * s[v] for c, v in zip(cs, vs)) % m == target))
        p.add_rule(vs, solve, forcing)
    return p, checks


@settings(max_examples=300, deadline=None)
@given(problems())
def test_solutions_are_the_assignments_that_satisfy_every_constraint(problem):
    p, checks = problem
    found = list(p.solutions())
    assert len(set(found)) == len(found)
    want = {
        s for s in itertools.product(range(p.m), repeat=p.n) if all(check(s) for check in checks)
    }
    assert set(found) == want
    # the translations of a trivial quandle are the identity, so a chain of
    # them starts at root_variable(), over every value, then searches plainly
    chain = trivial_quandle(p.m).stabiliser(range(p.m))
    assert sorted(p.solutions(chain)) == sorted((1, s) for s in found)


@st.composite
def table_columns(draw):
    """The variable count, the domain and the columns (xs, ys, zs, ops,
    x_froms) of 0 to 8 table constraints.  Variables repeat within and
    across constraints; the ops are two tables with permutations for
    columns and one arbitrary table, and x_from is the op's dual or left
    out."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    variables = st.integers(0, n - 1)
    ops = [
        OperationTable(m, tuple(zip(*(draw(st.permutations(range(m))) for _ in range(m)))))
        for _ in range(2)
    ]
    row = st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(tuple)
    loose = OperationTable(m, tuple(draw(row) for _ in range(m)))
    columns = ([], [], [], [], [])
    for _ in range(draw(st.integers(0, 8))):
        x, z = draw(variables), draw(variables)
        y = draw(st.one_of(st.just(x), st.just(z), variables))
        op = draw(st.sampled_from(ops + [loose]))
        x_from = op.dual if op is not loose and draw(st.booleans()) else None
        for column, value in zip(columns, (x, y, z, op, x_from)):
            column.append(value)
    return n, m, columns


@settings(max_examples=300, deadline=None)
@given(table_columns())
def test_adding_table_constraints_whole_equals_adding_them_one_by_one(case):
    n, m, columns = case
    whole, one_by_one = Problem(n, m), Problem(n, m)
    whole.add_tables(*columns)
    for constraint in zip(*columns):
        one_by_one.add_table(*constraint)
    assert whole.table_watch == one_by_one.table_watch
    assert whole.slots == one_by_one.slots
    assert whole.root_variable() == one_by_one.root_variable()
    # the chain need not be a symmetry of these constraints: both
    # searches go down it alike all the same
    for chain in (None, dihedral_quandle(m).stabiliser(range(m))):
        found = []
        for p in (whole, one_by_one):
            found.append((list(p.solutions(chain)), p.nodes, p.leaves, p.tried, p.failed, p.depth))
        assert found[0] == found[1]


def test_depth_is_the_number_of_levels_the_last_search_planned():
    # propagation from the root completes the kink chain, so its one
    # level is the root's; T(2,1250) branches once more below it
    for d, depth in ((kink_chain(2000, lambda i: (i + 1) % 2000), 1), (torus(1250), 2)):
        ctx = ColouringContext(d, S3_POINT)
        assert ctx.depth == 0
        assert ctx.count(ctx.symmetry()) == count_colourings(d, S3_POINT)
        assert ctx.depth == depth
    p = Problem(2, 3)
    assert len(list(p.solutions())) == 9 and p.depth == 2
    # count leaves variables in no constraint out of the search
    assert p.count() == 9 and p.depth == 0


def test_long_kink_chain_counts():
    assert sys.getrecursionlimit() <= 1000
    d = kink_chain(1100, lambda i: i)
    with Timer(10.0):
        assert count_colourings(d, R3) == 3
        assert count_colourings(d, S3_POINT) == 6


def test_long_torus_link_counts():
    with Timer(10.0):
        assert count_colourings(torus(1250), R3) == 3


def test_wirtinger_homs_of_long_chain_over_outgoing_arcs():
    pres = wirtinger_presentation(kink_chain(2000, lambda i: (i + 1) % 2000))
    with Timer(10.0):
        assert group_hom_count(pres, S3) == 6


def test_each_depth_plans_its_propagation_once_and_replays_it(monkeypatch):
    # propagation fixes the same variables whatever their values, so a
    # search works out one plan for the initial propagation and one per
    # depth, and every value tried replays its depth's plan.  Both counts
    # by Conj(S3) go over its 3 classes at the root of T(2,1250) and over
    # 3 or 4 orbit representatives of each root's centraliser below it:
    # 14 values, of which 3 are refused at the closure
    problems = []
    plan = Problem._plan

    def recording(self, known, queue):
        problems.append(self)
        return plan(self, known, queue)

    monkeypatch.setattr(Problem, "_plan", recording)
    counts = (lambda d: count_colourings(d, S3_POINT),
              lambda d: group_hom_count(wirtinger_presentation(d), S3))
    for d, want, plans, tried, failed in (
        (torus(1250), 18, 3, 14, 3),
        # propagation from the root completes the chain: one depth
        (kink_chain(2000, lambda i: (i + 1) % 2000), 6, 2, 3, 0),
    ):
        for count in counts:
            problems.clear()
            assert count(d) == want
            assert len(problems) == plans and len(set(problems)) == 1
            assert (problems[0].tried, problems[0].failed) == (tried, failed)


def test_kink_chain_alternating_its_over_arc():
    d = kink_chain(200, lambda i: i if i % 2 == 0 else (i + 1) % 200)
    with Timer(5.0):
        assert count_colourings(d, R3) == 3


def test_handcuff_graphs_by_the_conjugation_quandle_of_s5():
    # a vertex shares its X part, so with a one-element G it fixes every end
    conj_s5 = quandle_system(conjugation_quandle(symmetric_group(5)))
    with Timer(10.0):
        assert count_colourings(diagram("mwf"), conj_s5) == 840
        assert count_colourings(diagram("athlete-happy"), conj_s5) == 840


def p5():
    """P5, the G-family of one-point trivial quandles over S5, whose
    product is Conj(S5)."""
    s5 = symmetric_group(5)
    return g_family_system(tuple(trivial_quandle(1) for _ in range(s5.size)), s5)


def test_one_point_family_over_s5():
    # P5: its product is Conj(S5), which has 7 components, so a diagram of
    # fewer arcs has no generating colouring and no search is made
    data = p5()
    with Timer(3.0):
        assert count_colourings(diagram("athlete-happy"), data) == 28680
    # counted down the chain of centralisers from the root arc's class
    with Timer(3.0):
        assert count_colourings(diagram("mwf"), data) == 184800
    with Timer(3.0):
        assert count_colourings(diagram("mwf"), data, "generating") == 0
    for name in ("mwuf", "theta", "athlete-unhappy"):
        with Timer(0.1):
            assert count_colourings(diagram(name), data, "generating") == 0


def test_closed_braids_by_the_one_point_family_over_s5():
    # the 24-crossing closed 4- and 5-braids of ROADMAP.md's "Measured
    # state", counted down the chain of centralisers in S5
    data = p5()
    _, (k4, word4), (k5, word5) = measured_words()
    with Timer(5.0):
        assert count_colourings(closed_braid(k4, word4), data) == 275520
        assert count_colourings(closed_braid(k5, word5), data) == 34920


def test_longer_closed_braids_by_the_one_point_family_over_s5():
    # the longer braids of ROADMAP.md's "Measured state": branching nodes
    # are few, but at each almost every value tried is refused at the
    # closure, so what a try costs decides the time
    data, s5 = p5(), symmetric_group(5)
    words = longer_words()
    for (k, word), want in ((words[3], 792000), (words[5], 218400)):
        d = closed_braid(k, word)
        assert count_colourings(d, data) == want
        assert group_hom_count(wirtinger_presentation(d), s5) == want
    # 1,745,750 values tried
    with Timer(5.0):
        assert count_colourings(closed_braid(*words[0]), data) == 7440


# ---------------------------------------------------------------------------
# the search against the one it replaced, which resumed a generator per
# value tried and per leaf, called ``Problem._replay`` per value, and
# picked branch variables from a lazy heap over every variable, kept as
# it was with the Problem passed as ``self``.  The two must agree on every
# yield, in order, every count and all five counters


def reference_count(self, symmetry=None, keep=None):
    free = () if keep is not None else tuple(v for v, s in enumerate(self.slots) if not s)
    factor = self.m ** len(free)
    if symmetry is None or len(free) == self.n:
        leaves = reference_solutions(self, None, free)
        return factor * sum(1 for s in leaves if keep is None or keep(s))
    table, ys = symmetry
    leaves = reference_solutions(self, table.stabiliser(ys), free)
    return factor * sum(w for w, s in leaves if keep is None or keep(s))


def reference_solutions(self, chain=None, skip=()):
    n, m, replay = self.n, self.m, self._replay
    val, known = [-1] * n, bytearray(n)
    # nothing is known, so only a rule of arity 1 can fire (a table
    # constraint needs its y, any other rule a second variable), and
    # the rule-watched variables before the first one's fire nothing
    queue = [v for v in range(self.first_unit, n) if self.rule_watch[v]]
    seen, steps = self._plan(known, queue)
    nodes = leaves = tried = self.depth = 0
    failed = 0 if replay(val, steps) else 1
    order: list[int] = []
    # per depth: a table constraint z = x * y on the branch variable y
    # with x and z known, the source of the only values that can
    # succeed, its row factors; None to go over every value
    sources: list[tuple | None] = []
    plans: list[list[tuple]] = []  # per depth: the steps of a value of its variable
    if chain is not None and not known[root := self.root_variable()]:
        order.append(root)
        sources.append(None)
    slots, goal, skipped = self.slots, n - len(skip), set(skip)
    score, pending = [0] * n, [None] * n
    heap, scored = None, 0  # the first ``scored`` of ``seen`` have raised the scores
    # per depth: the group of the chain there, None below its end, and
    # the product of the orbit sizes of the values chosen above it
    groups, weights = [chain] + [None] * n, [1] * (n + 1)
    k, arrived = -failed, True  # nothing to search below a refused initial replay
    while k >= 0:
        if arrived:
            arrived = False
            chained = k and chain is not None
            if chained:
                group, w = groups[k - 1], val[order[k - 1]]
                weights[k] = weights[k - 1] * (1 if group is None else group.weight[w])
            if k == len(plans) and len(seen) == goal:  # every variable is known
                leaves += 1
                self.nodes, self.leaves, self.tried, self.failed = nodes, leaves, tried, failed
                yield tuple(val) if chain is None else (weights[k], tuple(val))
                k -= 1
                continue
            nodes += 1
            if chained:
                groups[k] = group and group.child(w)
            if k == len(plans):
                if k == len(order):
                    if heap is None:  # a lazy max-heap, first needed here
                        heap = [(0, -slots[v], v) for v in range(n) if v not in skipped]
                        heapq.heapify(heap)
                    fresh, scored = seen[scored:], len(seen)
                    raised = [u for v in fresh for c in self.table_watch[v] for u in c[:3]]
                    raised += [u for v in fresh for c in self.rule_watch[v] for u in c[0]]
                    for u in (u for u in raised if not known[u]):
                        score[u] += 1
                        heapq.heappush(heap, (-score[u], -slots[u], u))
                    while known[heap[0][2]] or -heap[0][0] != score[heap[0][2]]:
                        heapq.heappop(heap)
                    v = heapq.heappop(heap)[2]
                    order.append(v)
                    sources.append(next((
                        (x, z, op) for x, y, z, _, _, op, _ in self.table_watch[v]
                        if y == v and known[x] and known[z]), None))
                v = order[k]
                known[v] = True
                fixed, steps = self._plan(known, [v])
                seen += [v, *fixed]
                plans.append(steps)
                self.depth = len(plans)  # per level planned, not per try or leaf
            source = sources[k]
            if source is None:
                candidates = range(m)
            else:
                x, z, op = source
                candidates = op.row_factors(val[x])[val[z]]
            if groups[k] is not None:
                candidates = groups[k].representatives(candidates)
            pending[k] = iter(candidates)
        w = next(pending[k], -1)
        if w < 0:
            k -= 1
            continue
        tried += 1
        val[order[k]] = w
        if replay(val, plans[k]):
            k += 1
            arrived = True
        else:
            failed += 1
    self.nodes, self.leaves, self.tried, self.failed = nodes, leaves, tried, failed


def counters(p):
    return p.nodes, p.leaves, p.tried, p.failed, p.depth


def assert_agrees_with_the_reference(p, symmetry=None, keep=None):
    """The yields of ``solutions``, plain and down the chain of
    ``symmetry``, with and without the variables in no constraint
    skipped, and ``count`` with and without ``symmetry`` and ``keep``,
    each with the counters after it, equal the reference's."""
    free = tuple(v for v, s in enumerate(p.slots) if not s)
    chains = [None] if symmetry is None else [None, symmetry[0].stabiliser(symmetry[1])]
    for chain in chains:
        for skip in ((), free):
            want = list(reference_solutions(p, chain, skip)), counters(p)
            assert (list(p.solutions(chain, skip)), counters(p)) == want
    for sym in {None, symmetry}:
        for k in {None, keep}:
            want = reference_count(p, sym, k), counters(p)
            assert (p.count(sym, k), counters(p)) == want


def distinct(colours):
    """More than one colour: a keep that every translation respects."""
    return len(set(colours)) > 1


def test_colourings_agree_with_the_reference_search():
    s4 = symmetric_group(4)
    s4_point = g_family_system(tuple(trivial_quandle(1) for _ in range(s4.size)), s4)
    systems = [system(name) for name in ("t3r3z2", "t2t2z2", "s3point", "r3", "broken-tc4")]
    diagrams = [diagram(name) for name in list_diagrams()]
    diagrams += [random_diagram(f"ctr:{i}", 3 + i % 9, i % 3) for i in range(60)]
    for d in diagrams:
        for data in systems + [S3_POINT, s4_point]:
            ctx = ColouringContext(d, data)
            assert_agrees_with_the_reference(ctx, ctx.symmetry(), distinct)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_problems_agree_with_the_reference_search(problem):
    # the dihedral chain need not be a symmetry of these constraints, nor
    # the keep respect it: both searches go down it alike all the same
    p, _ = problem
    assert_agrees_with_the_reference(p, (dihedral_quandle(p.m), range(p.m)), lambda s: s[0] != s[-1])


def test_table_homs_agree_with_the_reference_count(monkeypatch):
    count, checked = Problem.count, []

    def checking(self, symmetry=None, keep=None):
        want = reference_count(self, symmetry, keep), counters(self)
        got = count(self, symmetry, keep), counters(self)
        assert got == want
        checked.append(got)
        return got[0]

    monkeypatch.setattr(Problem, "count", checking)
    s3 = conjugation_quandle(S3)
    for source in (trivial_quandle(3), dihedral_quandle(3), dihedral_quandle(5), s3):
        for target in (dihedral_quandle(3), dihedral_quandle(5), s3, trivial_quandle(2)):
            for onto in (False, True):
                hom_count(source, target, onto)
    assert len(checked) == 32 and any(leaves for _, (_, leaves, *_) in checked)
