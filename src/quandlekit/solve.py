"""The one counting engine: the assignments of n variables over the
values 0..m-1 that satisfy every constraint, each of which is

* a table constraint ``z = op[x][y]``, optionally with a table ``x_from``
  giving ``x = x_from[z][y]``; or
* a rule over a tuple of variables, where ``solve(values, i)`` is the value
  position ``i`` must take when the other positions hold ``values``, or -1
  if none fits.  It fixes a position listed in ``forcing`` once all other
  variables are known, and is checked at its last position once all are.

Each assignment propagates through a worklist over per-variable watch
lists, and backtracking keeps an explicit stack and a trail, so size is
limited by time, not by the recursion limit.  Propagation fixes the same
variables whatever their values, so the branch variable chosen on the
first arrival at a depth serves every path: the unknown variable sharing
the most constraint slots with known ones.

A search may be given a root restriction ``(v, values)``: v is branched
on first, over ``values`` in their order, and only the assignments with v
in ``values`` are yielded; the variables after it are chosen as above.
Rooted at the variable the plain search branches on first, with values
in ascending order, it yields the plain search's assignments in the plain
order, less those with v outside ``values``.  If propagation fixes v
before any branching, the search is the plain one, or yields nothing when
v's value is not in ``values``.

``count`` is the one counting loop.  Given weights over the values, it
roots the search at ``root_variable()`` over the values of nonzero weight
and sums the root's weight over the solutions.  That equals the number of
solutions whenever the weights are the sizes of the orbits of some group
of value permutations that maps solutions to solutions, each at the
orbit's least element: the solutions with the root at one value are then
as many as at any other value of its orbit.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence


class Problem:
    def __init__(self, variables: int, domain: int) -> None:
        self.n, self.m = variables, domain
        # the constraints on each variable: (x, y, z, op, x_from) for tables,
        # (variables, forcing flags, solve) for rules
        self.table_watch: list[list[tuple]] = [[] for _ in range(variables)]
        self.rule_watch: list[list[tuple]] = [[] for _ in range(variables)]

    def add_table(self, x: int, y: int, z: int, op, x_from=None) -> None:
        for v in {x, y, z}:
            self.table_watch[v].append((x, y, z, op, x_from))

    def add_rule(self, variables, solve, forcing) -> None:
        variables = tuple(variables)
        # a variable met twice cannot be solved for from the others
        flags = tuple(i in forcing and variables.count(v) == 1 for i, v in enumerate(variables))
        for v in set(variables):
            self.rule_watch[v].append((variables, flags, solve))

    def _propagate(self, val: list[int], trail: list[int], queue: list[int]) -> bool:
        """Apply every constraint watching a variable in ``queue``, and those
        of every variable this fixes; False on a violated constraint."""
        while queue:
            v = queue.pop()
            for x, y, z, op, x_from in self.table_watch[v]:
                vx, vy, vz = val[x], val[y], val[z]
                if vy < 0:
                    continue
                if vx >= 0:
                    if vz < 0:
                        val[z] = op[vx][vy]
                        trail.append(z)
                        queue.append(z)
                    elif vz != op[vx][vy]:
                        return False
                elif vz >= 0 and x_from is not None:
                    val[x] = x_from[vz][vy]
                    trail.append(x)
                    queue.append(x)
            for variables, flags, solve in self.rule_watch[v]:
                values = [val[u] for u in variables]
                missing = [i for i, w in enumerate(values) if w < 0]
                if not missing:
                    if solve(values, len(values) - 1) != values[-1]:
                        return False
                elif len(missing) == 1 and flags[missing[0]]:
                    w = solve(values, missing[0])
                    if w < 0:
                        return False
                    u = variables[missing[0]]
                    val[u] = w
                    trail.append(u)
                    queue.append(u)
        return True

    def _slots(self, v: int) -> list[int]:
        """The variables of every constraint slot on v, v's own included."""
        return [u for c in self.table_watch[v] for u in c[:3]] + [
            u for c in self.rule_watch[v] for u in c[0]
        ]

    def root_variable(self) -> int:
        """The variable an orbit sum branches on first: the lowest of those
        in the fewest constraint slots, leaving out variables in none.  Its
        value is the least determined by the others, so the solutions spread
        the most evenly over the orbits.  A variable in no constraint comes
        last: as the root it would repeat the search of the others for every
        representative, where the plain search branches on it once a
        solution."""
        slots = [len(self._slots(v)) for v in range(self.n)]
        return min(range(self.n), key=lambda v: (not slots[v], slots[v], v))

    def count(self, weight: Sequence[int] | None = None, keep=None) -> int:
        """The number of solutions that ``keep`` accepts (all of them when
        it is None), counted as the sum of ``weight[s[r]]`` over the
        solutions s with ``r = root_variable()`` in the values of nonzero
        weight.  ``weight=None``, or no variables, counts each solution once
        in the plain search."""
        root = None
        if weight is not None and self.n:
            r = self.root_variable()
            root = (r, [value for value, w in enumerate(weight) if w])
        solutions = self.solutions(root)  # looked up on self, so wrappers see it
        if keep is not None:
            solutions = filter(keep, solutions)
        if root is None:
            return sum(1 for _ in solutions)
        return sum(weight[s[r]] for s in solutions)

    def solutions(self, root: tuple[int, Sequence[int]] | None = None):
        """Yield every satisfying assignment as a tuple, in search order;
        with ``root = (v, values)``, only those with v in ``values``."""
        n, m = self.n, self.m
        val = [-1] * n
        trail: list[int] = []
        if not self._propagate(val, trail, list(range(n))):
            return
        order: list[int] = []
        firsts: Sequence[int] = range(m)  # the values tried at depth 0
        if root is not None:
            v, values = root
            if val[v] < 0:
                order.append(v)
                firsts = values
            elif val[v] not in values:
                return
        width = len(firsts)
        slots = [self._slots(v) for v in range(n)]
        score = [0] * n
        heap = [(0, -len(slots[v]), v) for v in range(n)]  # lazy max-heap
        heapq.heapify(heap)
        scored = 0  # the first ``scored`` trail entries have raised the scores
        marks, tries = [0] * n, [0] * n
        k, arrived = 0, True
        while k >= 0:
            if arrived:
                arrived = False
                if len(trail) == n:
                    yield tuple(val)
                    k -= 1
                    continue
                if k == len(order):
                    for u in (u for v in trail[scored:] for u in slots[v] if val[u] < 0):
                        score[u] += 1
                        heapq.heappush(heap, (-score[u], -len(slots[u]), u))
                    scored = len(trail)
                    while val[heap[0][2]] >= 0 or -heap[0][0] != score[heap[0][2]]:
                        heapq.heappop(heap)
                    order.append(heapq.heappop(heap)[2])
                marks[k], tries[k] = len(trail), 0
            while len(trail) > marks[k]:
                val[trail.pop()] = -1
            t = tries[k]
            if t == (m if k else width):
                k -= 1
                continue
            tries[k] = t + 1
            v = order[k]
            val[v] = t if k else firsts[t]
            trail.append(v)
            if self._propagate(val, trail, [v]):
                k += 1
                arrived = True
