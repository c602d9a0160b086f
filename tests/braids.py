"""Closed braids, the generalisation of the closed 2-braid
``bench/workloads.torus_diagram`` to k strands, and the random words of
the measured braid closures in ROADMAP.md."""

import random

from quandlekit.diagrams import Crossing, Diagram


def closed_braid(k, word):
    """The closure of a braid on k strands.  Letter +i (i in 1..k-1) takes
    the strand at position i over the one at i+1, with sign +1; letter -i
    takes the strand at i+1 over, with sign -1.  The under strand starts a
    new arc, and the two strands swap positions.  Each bottom arc is then
    the top arc at its position."""
    at = list(range(k))  # the arc at each position
    arcs, raw = k, []
    for letter in word:
        i = abs(letter) - 1
        over, under = (i, i + 1) if letter > 0 else (i + 1, i)
        raw.append((at[over], at[under], arcs, 1 if letter > 0 else -1))
        at[under] = arcs
        arcs += 1
        at[i], at[i + 1] = at[i + 1], at[i]
    parent = list(range(arcs))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for top, bottom in enumerate(at):
        parent[find(bottom)] = find(top)
    # the classes numbered in order of their least arc
    number: dict[int, int] = {}
    for a in range(arcs):
        number.setdefault(find(a), len(number))
    crossings = tuple(
        Crossing(*(number[find(a)] for a in (o, u, w)), s) for o, u, w, s in raw)
    return Diagram(len(number), crossings, ())


def random_words(seed, shapes):
    """Words drawn in order from ``random.Random(seed)``, one per (k,
    length) of ``shapes``.  Each letter is ``rng.choice([1, -1]) *
    rng.randrange(1, k)``."""
    rng = random.Random(seed)
    return [(k, [rng.choice([1, -1]) * rng.randrange(1, k) for _ in range(length)])
            for k, length in shapes]


def measured_words():
    """The words of ROADMAP.md's "Measured state": 20 and then 24 letters
    on 4 strands, then 24 on 5."""
    return random_words(7, ((4, 20), (4, 24), (5, 24)))


def longer_words():
    """The longer words of ROADMAP.md's "Measured state", as (strands,
    word): 32 and 40 letters on 4 strands, 32 and 40 on 5, 30 and 36 on 6,
    and 36 on 7."""
    return random_words(11, ((4, 32), (4, 40), (5, 32), (5, 40), (6, 30), (6, 36), (7, 36)))
