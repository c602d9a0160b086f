"""The one counting engine: the assignments of n variables over the
values 0..m-1 that satisfy every constraint, each of which is

* a table constraint ``z = op[x][y]`` over an ``OperationTable`` op,
  optionally with its column inverse ``x_from``, giving
  ``x = x_from[z][y]``; or
* a rule over a tuple of variables, where ``solve(val, i)`` is the value
  position ``i`` must take when the others hold their values in the
  search's assignment ``val``, which the rule reads itself, or -1 if none
  fits.  It fixes a position listed in ``forcing`` once all other
  variables are known, and is checked at its last position once all are.

The search keeps an explicit stack, so size is limited by time, not by
the recursion limit.  Set-up is the watch lists and a count per variable
of the constraint slots on it; ``add_tables`` takes table constraints
whole, as columns, and only a variable that a rule names gets a rule
list.  Propagation fixes the same variables whatever their values:
whether a constraint fires depends only on which of its variables are
known.  So on its first arrival at a depth the search works out a plan
(``_plan``) on the mask of known variables alone: the variables that the
branch variable's value fixes, and one step per constraint or rule this
resolves, in dependency order, each setting a variable from known ones
or checking a constraint.  Every value tried there, the first included,
only replays the steps, as does the initial propagation (``_replay``),
which starts at the first variable of a rule of arity 1: only such a rule
can fire with nothing known.  Each constraint is resolved at exactly one
depth, so all plans together hold one step per constraint.  A path reads
no variable that it has not set, so backtracking unwinds nothing.  This
is the "macro expansion" of a backtrack program to its search order
(Bitner and Reingold, CACM 18, 1975).  A depth tries its values in one
loop, the replay written into it (Knuth, TAOCP 4B, 7.2.2, Algorithm B),
and the depth whose plan completes the assignment takes its leaves there.

For the same reason the branch variable chosen on that first arrival
serves every path: the unknown variable sharing the most constraint slots
with known ones, then in the most slots, then the lowest, taken from the
set of those sharing any, or from all where none does.  A chain count
branches first on ``root_variable()`` instead.

So does the source of the values it is branched over, picked on that
first arrival too.  Where the variable is y, and neither x nor z, in a
table constraint ``z = op[x][y]`` whose x and z are known, only the y
with ``op[x][y] == z`` can succeed: the search branches over those,
``op.row_factors(x)[z]``, and over all m values elsewhere and at a chain
count's root.  The replay would refuse every other y at once, and the
factors come in ascending order, so the search yields what branching
over all m values yields, in the same order, without the failed tries.

``count`` is the one counting loop, and it counts down a chain of
stabilisers (Sims 1970; Seress, *Permutation Group Algorithms*, 2003).
It is given a quandle table and a set Y of elements whose right
translations R_y map solutions to solutions, and solutions ``keep``
accepts to solutions it accepts.  Let G_0 be the group they generate,
and G_k the group generated by the R_y, y in Y, that fix the values
branched at the first k levels, that is with r * y = r for each such r.
Every element of G_k fixes those values, so it maps the solutions below
a prefix with one value t at the next level onto those with any other
value of t's G_k-orbit, equal in number.  So an orbit with solutions lies
whole inside the candidates of its level, and level k goes over the
least value of each G_k-orbit among its candidates; each leaf is
weighted by the product of the sizes of the orbits chosen above it, and
the weights sum to the number of solutions.  Y must generate the
components, so the root, ``root_variable()``, goes over one value per
component.  Where every R_y of G_k fixes the value chosen, G_{k+1} is
G_k, and the chain ends where every R_y left is the identity, below
which the search is the plain one.

For a conjugation quandle, with Y the whole group, G_k is the whole
centraliser of the values chosen, the stabiliser in Inn (Joyce 1982).
Elsewhere the R_y that fix the prefix generate a subgroup of that
stabiliser, which is still a symmetry of the solutions.  The table keeps
each group, with the orbits found so far, per set of fixing elements
(``tables.Stabiliser``), so a search pays for an orbit once.

Without ``keep``, a variable that no constraint names multiplies the
count by m and is not branched over.
"""

from __future__ import annotations

from collections.abc import Sequence


class Problem:
    def __init__(self, variables: int, domain: int) -> None:
        self.n, self.m = variables, domain
        # the constraints on each variable: (x, y, z, op rows, x_from rows,
        # op, index) for tables, (variables, forcing flags, solve, index)
        # for rules, numbered in the order they were added; a variable's rules
        # are a tuple, copied per rule added: a vertex names an arc once or twice
        self.table_watch: list[list[tuple]] = [[] for _ in range(variables)]
        self.rule_watch: list[tuple] = [()] * variables
        self.slots = [0] * variables  # per variable: 3 per table constraint, the arity per rule
        self.first_unit = variables  # the least variable of a rule of arity 1, or n
        self._added = 0
        self.nodes = self.leaves = self.tried = self.failed = self.depth = 0

    def add_table(self, x: int, y: int, z: int, op, x_from=None) -> None:
        """Constrain z = x * y in the ``OperationTable`` op, and, with
        x_from, the column inverse of op as a table, x = x_from[z][y]."""
        self.add_tables((x,), (y,), (z,), (op,), (x_from,))

    def add_tables(self, xs, ys, zs, ops, x_froms) -> None:
        """``add_table`` of each (x, y, z, op, x_from) of the zipped columns, in order."""
        table_watch, slots, i = self.table_watch, self.slots, self._added
        for x, y, z, op, x_from in zip(xs, ys, zs, ops, x_froms):
            c = (x, y, z, op.entries, x_from and x_from.entries, op, i)
            i += 1
            table_watch[x].append(c)
            slots[x] += 3
            if y != x:
                table_watch[y].append(c)
                slots[y] += 3
            if z != x and z != y:
                table_watch[z].append(c)
                slots[z] += 3
        self._added = i

    def add_rule(self, variables, solve, forcing) -> None:
        """Constrain ``variables`` by ``solve(val, i)``, the value of
        ``variables[i]`` that the others call for in ``val``, or -1."""
        variables = tuple(variables)
        # a variable met twice cannot be solved for from the others
        flags = tuple([i in forcing and variables.count(v) == 1 for i, v in enumerate(variables)])
        c = (variables, flags, solve, self._added)
        self._added += 1
        if len(variables) == 1:
            self.first_unit = min(self.first_unit, variables[0])
        for v in set(variables):
            self.rule_watch[v] += (c,)
            self.slots[v] += len(variables)

    def _plan(self, known: bytearray, queue: list[int]) -> tuple[list[int], list[tuple]]:
        """The propagation of knowing the variables in ``queue``, worked out
        on the mask ``known``, which it extends: the variables it fixes, in
        order, and the steps a replay runs.  A step (t, rows, a, b) sets
        variable t, or checks ~t for t < 0, to rows[val[a]][val[b]] for a
        table, and to a(val, b) for a rule, a = solve and b = i."""
        table_watch, rule_watch = self.table_watch, self.rule_watch
        steps: list[tuple] = []
        resolved: set[int] = set()
        start = len(queue)
        for v in queue:  # which grows by each variable fixed
            for x, y, z, op, x_from, _, c in table_watch[v]:
                if not known[y] or c in resolved:
                    continue
                if known[x]:
                    t, rows, a = z, op, x
                elif known[z] and x_from is not None:
                    t, rows, a = x, x_from, z
                else:
                    continue
                resolved.add(c)
                if known[t]:
                    steps.append((~t, rows, a, y))
                else:
                    known[t] = True
                    queue.append(t)
                    steps.append((t, rows, a, y))
            for variables, flags, solve, c in rule_watch[v]:
                if c in resolved:
                    continue
                missing = [i for i, u in enumerate(variables) if not known[u]]
                if len(missing) > 1 or missing and not flags[missing[0]]:
                    continue
                resolved.add(c)
                i = missing[0] if missing else len(variables) - 1
                t = variables[i]
                if missing:
                    known[t] = True
                    queue.append(t)
                steps.append((t if missing else ~t, None, solve, i))
        return queue[start:], steps

    @staticmethod
    def _replay(val: list[int], steps: list[tuple]) -> bool:
        """Run a plan's steps on the values ``val``: False at the first
        violated check, or at a rule that finds no value."""
        for t, rows, a, b in steps:
            if rows is not None:
                w = rows[val[a]][val[b]]
            else:
                w = a(val, b)
                if w < 0:
                    return False
            if t >= 0:
                val[t] = w
            elif val[~t] != w:
                return False
        return True

    def root_variable(self) -> int:
        """The variable a chain count branches on first: the lowest of
        those in the fewest constraint slots, leaving out variables in
        none.  Its value is the least determined by the others, so the
        solutions spread the most evenly over the orbits.  A variable in no
        constraint comes last: as the root it would repeat the search of
        the others for every representative."""
        return self.slots.index(min(filter(None, self.slots), default=0))

    def count(self, symmetry=None, keep=None) -> int:
        """The number of solutions that ``keep`` accepts (all of them when
        it is None).

        With ``symmetry = (table, ys)``, the right translations R_y of the
        quandle ``table``, y in ys, must map solutions to solutions and
        solutions ``keep`` accepts to solutions it accepts, and generate
        the components of the table.  The search then starts at
        ``root_variable()`` and goes down the chain of stabilisers from
        ``table.stabiliser(ys)``, and the count is the sum of the weights
        of its leaves.  Without, or with no variables, it counts the plain
        search.  Without ``keep``, a variable in no constraint is not
        branched over: it multiplies the count by m, and the search builds
        no assignment."""
        free = () if keep is not None else tuple(v for v, s in enumerate(self.slots) if not s)
        plain = symmetry is None or len(free) == self.n
        chain = None if plain else symmetry[0].stabiliser(symmetry[1])
        # looked up on self, so wrappers see every search
        if keep is None:
            return self.m ** len(free) * sum(self.solutions(chain, free, True))
        if plain:
            return sum(1 for s in self.solutions(None, free) if keep(s))
        return sum(w for w, s in self.solutions(chain, free) if keep(s))

    def solutions(self, chain=None, skip: Sequence[int] = (), _tally: bool = False):
        """Yield every satisfying assignment as a tuple, in search order.

        The variables in ``skip``, which no constraint may name, are left
        at -1 and never branched over.  With ``chain``, a
        ``tables.Stabiliser`` whose translations map solutions to
        solutions, the search branches first on ``root_variable()``, over
        every value, unless propagation alone fixes it.  Every level goes
        over the least value of each orbit among its candidates, of the
        group generated by the translations of ``chain`` that fix every
        value branched above it, and each leaf is yielded as a pair
        (weight, assignment), where weight is the product of those orbits'
        sizes.  With ``_tally``, ``count``'s own, it yields instead the sum
        of the weights (1 without a chain) of each sweep's leaves.
        ``nodes``, ``leaves``, ``tried`` and ``failed`` count the branching
        nodes, the leaves, the values assigned and the replays that
        refused of the last search, and ``depth`` the levels it planned."""
        n, m = self.n, self.m
        val, known = [-1] * n, bytearray(n)
        # nothing is known, so only a rule of arity 1 can fire (a table
        # constraint needs its y, any other rule a second variable), and
        # the rule-watched variables before the first one's fire nothing
        queue = [v for v in range(self.first_unit, n) if self.rule_watch[v]]
        seen, steps = self._plan(known, queue)
        nodes = leaves = tried = total = self.depth = 0
        failed = 0 if self._replay(val, steps) else 1
        goal, skipped = n - len(skip), set(skip)
        if failed or len(seen) == goal:  # nothing to search below a refused replay or a full one
            self.nodes, self.leaves, self.tried, self.failed = 0, 1 - failed, 0, failed
            if not failed:
                yield 1 if _tally else tuple(val) if chain is None else (1, tuple(val))
            return
        table_watch, rule_watch, slots = self.table_watch, self.rule_watch, self.slots
        order: list[int] = []
        # per depth: a table constraint z = x * y on the branch variable y
        # with x and z known, the source of the only values that can
        # succeed, by ``op.row_factors``; None to go over every value
        sources: list[tuple | None] = []
        plans: list[list[tuple]] = []  # per depth: the steps of a value of its variable
        if chain is not None and not known[root := self.root_variable()]:
            order.append(root)
            sources.append(None)
        # raised: the unknown variables of scores above 0, which the first
        # ``scored`` of ``seen`` have raised by the slots they share
        score, raised, scored, pending = [0] * n, set(), 0, [None] * n
        # per depth: the group of the chain there, None below its end, and
        # the product of the orbit sizes of the values chosen above it
        groups, weights, ones = [chain] + [None] * n, [1] * (n + 1), [1] * m
        k, last = 0, n  # last: the depth whose plan completes the assignment
        while k >= 0:  # arrived at depth k
            nodes += 1
            if k and chain is not None:
                group, w = groups[k - 1], val[order[k - 1]]
                weights[k] = weights[k - 1] * (1 if group is None else group.weight[w])
                groups[k] = group and group.child(w)
            if k == len(plans):
                if k == len(order):
                    fresh, scored = seen[scored:], len(seen)
                    raised.difference_update(fresh)
                    for u in [u for v in fresh for c in table_watch[v] for u in c[:3]] + [
                            u for v in fresh for c in rule_watch[v] for u in c[0]]:
                        if not known[u]:
                            score[u] += 1
                            raised.add(u)
                    if raised:
                        v = max(raised, key=lambda u: (score[u], slots[u], -u))
                    else:  # no unknown variable shares a slot with a known one
                        v = max((u for u in range(n) if not known[u] and u not in skipped),
                                key=lambda u: (slots[u], -u))
                    order.append(v)
                    sources.append(next((
                        (x, z, op.row_factors) for x, y, z, _, _, op, _ in table_watch[v]
                        if y == v and known[x] and known[z]), None))
                v = order[k]
                known[v] = True
                fixed, steps = self._plan(known, [v])
                seen += [v, *fixed]
                plans.append(steps)
                self.depth = len(plans)  # per level planned, not per try or leaf
                if len(seen) == goal:
                    last = k
            source = sources[k]
            candidates = range(m) if source is None else source[2](val[source[0]])[val[source[1]]]
            group = groups[k]
            if group is not None:
                candidates = group.representatives(candidates)
            pending[k] = iter(candidates)
            if k == last:
                base, weigh = weights[k], ones if group is None else group.weight
            while k >= 0:  # try the values left at depth k
                v, steps = order[k], plans[k]
                for w in pending[k]:
                    tried += 1
                    val[v] = w
                    for t, rows, a, b in steps:  # the replay of the plan
                        if rows is not None:
                            u = rows[val[a]][val[b]]
                        else:
                            u = a(val, b)
                            if u < 0:
                                break
                        if t >= 0:
                            val[t] = u
                        elif val[~t] != u:
                            break
                    else:
                        if k < last:
                            break
                        leaves += 1
                        if _tally:
                            total += weigh[w]
                        else:
                            self.nodes, self.leaves = nodes, leaves
                            self.tried, self.failed = tried, failed
                            yield tuple(val) if chain is None else (base * weigh[w], tuple(val))
                        continue
                    failed += 1
                else:
                    if total:  # the sweep of the last level is done
                        yield base * total
                        total = 0
                    k -= 1
                    continue
                k += 1
                break
        self.nodes, self.leaves, self.tried, self.failed = nodes, leaves, tried, failed
