"""The four workloads: inputs built from a seed, the operations of one
round, and the expected result of every operation.

A workload object is built in two steps.  The constructor is the set-up
that ``setup_s`` times: it builds every input through the library, as a
user would.  ``prepare()`` then computes what each operation must return
with the independent code in ``oracles`` (or states the property the
result must have); it is not timed.  ``ops`` lists the operations of one
round, in the order they run in every round.

Operations call the library through module attributes looked up at call
time (``lib.coloring.count_colourings``), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import oracles


class Mismatch(Exception):
    """An operation returned a result that its check rejects."""


class Op:
    """One timed call.  ``check(result)`` raises Mismatch on a wrong
    result.  ``kept_fault`` names an exception type that this operation
    raises every time because of a known fault; it is counted as failed
    without making the run incorrect."""

    def __init__(self, name, run, check, arcs=0, kept_fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.arcs = arcs
        self.kept_fault = kept_fault


def expect_equal(want):
    def check(got):
        if got != want:
            raise Mismatch(f"expected {want!r}, got {got!r}")

    return check


def expect_at_most(bound):
    def check(got):
        if not (isinstance(got, int) and 0 <= got <= bound):
            raise Mismatch(f"expected a count in 0..{bound}, got {got!r}")

    return check


# ---------------------------------------------------------------------------
# conversions from library objects to the plain data the oracles read


def plain_diagram(d):
    return (
        d.arc_count,
        tuple((c.over, c.under_in, c.under_out, c.sign) for c in d.crossings),
        tuple(tuple((a, direction == "in") for a, direction in v.ends) for v in d.vertices),
    )


def plain_system(s) -> oracles.System:
    group = s.group
    if s.otimes is not None:
        otimes = s.otimes.entries
    else:
        ref = oracles.Group(group.table.entries, group.inverse, group.identity)
        otimes = oracles.conjugation_table(ref)
    if s.oplus is not None:
        oplus = s.oplus.entries
    else:
        oplus = group.table.entries if group is not None else None
    gamma = {k: flat for k, flat in s.gamma if k != 2}
    star = tuple(t.entries for t in s.star)
    return oracles.System(s.x_size, s.g_size, star, s.f_map, otimes, oplus, s.rho, gamma)


# ---------------------------------------------------------------------------
# inputs


def relabelled_symmetric(lib, n: int, rng: random.Random):
    """S_n with its elements numbered in a seeded order, as an oracle
    group and as the library's group on the same labels.  Counts and the
    work a search does are the same under any labelling; the tables the
    library reads are not."""
    order = list(range(len(oracles.symmetric_group(n).mul)))
    rng.shuffle(order)
    ref = oracles.symmetric_group(n, order)
    table = lib.tables.OperationTable(len(ref.mul), ref.mul)
    return ref, lib.tables.group_from_table(table, ref.identity)


def relabelled_t3r3z2(lib, rng: random.Random):
    """The t3r3z2 system (the Z2 family of the trivial and the dihedral
    3-element quandles) with X and G relabelled in a seeded order."""
    t = lib.tables
    sigma, tau = rng.sample(range(3), 3), rng.sample(range(2), 2)

    def moved(table):
        rows = [[0] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                rows[sigma[a]][sigma[b]] = sigma[table.entries[a][b]]
        return t.OperationTable(3, tuple(map(tuple, rows)))

    z2 = [[0, 0], [0, 0]]
    for a in range(2):
        for b in range(2):
            z2[tau[a]][tau[b]] = tau[(a + b) % 2]
    group = t.group_from_table(t.OperationTable(2, tuple(map(tuple, z2))), tau[0])
    star = [None, None]
    star[tau[0]] = moved(t.trivial_quandle(3))
    star[tau[1]] = moved(t.dihedral_quandle(3))
    return lib.systems.g_family_system(tuple(star), group)


def point_system(lib, group):
    """The G-family of one-point trivial quandles over a library group."""
    ones = tuple(lib.tables.trivial_quandle(1) for _ in range(group.size))
    return lib.systems.g_family_system(ones, group)


def torus_diagram(lib, n: int):
    """The closed 2-braid sigma_1^n, the (2, n) torus knot (n odd) or
    link (n even): crossing i has over-arc i-1 and under-arcs i-2 -> i."""
    dg = lib.diagrams
    crossings = tuple(dg.Crossing((i - 1) % n, (i - 2) % n, i, 1) for i in range(n))
    return dg.Diagram(n, crossings, ())


def kink_chain(lib, n: int, signs, over_first: bool):
    """An unknot with n R1 kinks in a row.  Kink i turns arc i into arc
    i+1 and passes over arc i (``over_first``) or arc i+1, the two forms
    ``r1_insert`` makes."""
    dg = lib.diagrams
    crossings = tuple(
        dg.Crossing(i if over_first else (i + 1) % n, i, (i + 1) % n, signs[i]) for i in range(n)
    )
    return dg.Diagram(n, crossings, ())


def cli_call(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def read_table(path: Path) -> list[list[int]]:
    """Rows of a ``magma`` table file, read without the library."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines if line.strip() and not line.startswith("#")]
    if not rows or rows[0][0] != "magma":
        raise Mismatch(f"{path.name} is not a table file")
    return [[int(v) for v in r] for r in rows[1:] if r[0] != "identity"]


FIXTURES = (
    "athlete-happy",
    "athlete-unhappy",
    "hopf",
    "mlf",
    "muf",
    "mwf",
    "mwuf",
    "theta",
    "trefoil",
    "unknot",
)


# ---------------------------------------------------------------------------
# search


class Search:
    """count_colourings where the backtracking search does the work: the
    fixtures by the point G-families over S3 and S4, the two watch
    fixtures by t3r3z2, and random handlebody diagrams of 8 to 16
    crossings by t3r3z2, each in ``all`` and ``generating`` mode.

    Calls of half a second or more are left out of the rounds, so that a
    round takes 2 to 3 s and every operation is timed eight times or
    more a run: mwf by S4, the generating mode of the two athlete fixtures by S4,
    and random diagram 7.  mwf by S4 in ``all`` mode is in ``once``: it
    runs once a run, untimed, so that the point-family identity is still
    checked on all ten fixtures over S4.

    The seed relabels the elements of S3, S4 and t3r3z2.  The random
    diagrams come from fixed random_diagram seeds: their search costs
    range from milliseconds to seconds, so diagrams drawn from the
    workload seed would make the figures depend on which seed was run.
    """

    RANDOM_CROSSINGS = tuple(range(8, 17))
    RANDOM_LEFT_OUT = (7,)  # 15 crossings: 0.8 s a call in either mode
    S4_LEFT_OUT = ("mwf",)  # 1.1 s in all mode, 1.7 s in generating mode
    S4_ALL_ONLY = ("athlete-happy", "athlete-unhappy")  # 0.6 s in generating mode

    def __init__(self, lib, seed: int, workdir: Path):
        rng = random.Random(f"search:{seed}")
        self.lib = lib
        self.groups = {n: relabelled_symmetric(lib, n, rng) for n in (3, 4)}
        self.points = {n: point_system(lib, grp) for n, (_, grp) in self.groups.items()}
        self.t3r3z2 = relabelled_t3r3z2(lib, rng)
        self.fixtures = {name: lib.fixtures.diagram(name) for name in FIXTURES}
        self.random = [
            (i, lib.moves.random_diagram(f"search:{i}", c, 2))
            for i, c in enumerate(self.RANDOM_CROSSINGS)
            if i not in self.RANDOM_LEFT_OUT
        ]

    def prepare(self):
        lib = self.lib
        ops = []
        self.once = []

        def count(name, d, sys_, all_check, generating_check, all_only=False):
            modes = (("all", all_check),) if all_only else (
                ("all", all_check), ("generating", generating_check))
            for mode, check in modes:
                run = lambda mode=mode: lib.coloring.count_colourings(d, sys_, mode)  # noqa: E731
                ops.append(Op(f"{name}/{mode}", run, check, d.arc_count))

        for name, d in self.fixtures.items():
            pd = plain_diagram(d)
            for n, (ref, _) in self.groups.items():
                # colourings by the point G-family are the homomorphisms
                # of the Wirtinger group into G
                homs = oracles.hom_count(pd[0], oracles.wirtinger_relators(pd), ref)
                if n == 4 and name in self.S4_LEFT_OUT:
                    run = lambda d=d, s=self.points[4]: (  # noqa: E731
                        lib.coloring.count_colourings(d, s, "all"))
                    self.once.append(Op(f"{name}/S4/all", run, expect_equal(homs), d.arc_count))
                    continue
                all_only = n == 4 and name in self.S4_ALL_ONLY
                count(f"{name}/S{n}", d, self.points[n], expect_equal(homs), expect_at_most(homs),
                      all_only)
        t3 = plain_system(self.t3r3z2)
        # hand-stated in the README: the flat watch has 18 generating
        # colourings and the linked watch none
        for name, stated in (("mwuf", 18), ("mwf", 0)):
            d = self.fixtures[name]
            total = oracles.colour_count(plain_diagram(d), t3)
            if stated > total:
                raise Mismatch(f"{name}: stated generating count {stated} exceeds {total}")
            count(f"{name}/t3r3z2", d, self.t3r3z2, expect_equal(total), expect_equal(stated))
        for i, d in self.random:
            total = oracles.colour_count(plain_diagram(d), t3)
            count(f"random{i}/t3r3z2", d, self.t3r3z2, expect_equal(total), expect_at_most(total))
        self.ops = ops

    def inputs(self):
        lib = self.lib
        files = {f"{name}.diagram": d for name, d in self.fixtures.items()}
        files.update({f"random{i}.diagram": d for i, d in self.random})
        files = {fname: lib.diagrams.serialize_diagram(d) for fname, d in files.items()}
        for n, s in self.points.items():
            files[f"point-s{n}.system"] = lib.systems.serialize_system(s)
        files["t3r3z2.system"] = lib.systems.serialize_system(self.t3r3z2)
        return files


# ---------------------------------------------------------------------------
# fuzz


class Fuzz:
    """One-trial fuzz_invariance calls, each on its own seed, for three
    systems that satisfy their scope's hypotheses, plus the broken-tc4
    negative control on its fixed seed."""

    SYSTEMS = (("t3r3z2", "handlebody"), ("t2t2z2", "trivalent"), ("r3", "links"))
    TRIALS = 40
    once = ()  # operations run once a run, untimed

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.systems = {name: lib.fixtures.system(name) for name, _ in self.SYSTEMS}
        self.broken = lib.fixtures.system("broken-tc4")

    def trial_seeds(self):
        for k in range(self.TRIALS):
            for name, scope in self.SYSTEMS:
                yield name, scope, f"fuzz:{self.seed}:{name}:{k}"

    def prepare(self):
        fuzz = self.lib.moves.fuzz_invariance
        random_diagram = self.lib.moves.random_diagram
        ops = []

        def trial_check(got):
            # the theorem: counts by a system meeting the scope's
            # hypotheses are invariant under the scope's moves
            if len(got.trials) + got.skipped != 1:
                raise Mismatch(f"{len(got.trials)} trials run, {got.skipped} skipped")
            for t in got.trials:
                if t.before != t.after or t.before < 1:
                    raise Mismatch(f"trial {t.line()}")

        for name, scope, trial_seed in self.trial_seeds():
            vertices = 0 if scope == "links" else 2
            # arcs of the trial's diagram, regenerated the way the fuzzer
            # derives it; they weigh arcs_per_s only
            arcs = random_diagram(f"{trial_seed}/0#0", 4, vertices).arc_count
            sys_ = self.systems[name]
            run = lambda s=sys_, sc=scope, ts=trial_seed: fuzz(s, 1, ts, scope=sc)  # noqa: E731
            ops.append(Op(trial_seed, run, trial_check, arcs))

        def control_check(got):
            if not got.mismatches:
                raise Mismatch("broken-tc4 reported no FAIL on seed 'break'")

        def control():
            return fuzz(
                self.broken, 30, "break", move_set=("tr2_slide",), scope="trivalent", force=True
            )

        ops.append(Op("broken-tc4/break", control, control_check))
        self.ops = ops

    def inputs(self):
        serialize = self.lib.systems.serialize_system
        files = {f"{name}.system": serialize(s) for name, s in self.systems.items()}
        files["broken-tc4.system"] = serialize(self.broken)
        files["trial-seeds.txt"] = "".join(f"{n} {sc} {ts}\n" for n, sc, ts in self.trial_seeds())
        return files


# ---------------------------------------------------------------------------
# long


class Long:
    """Diagrams of 500 to 2000 arcs: (2, n) torus knots and links and R1
    kink chains on the unknot.  The two diagrams of 1000 or more arcs do
    not depend on the seed; count_colourings raises RecursionError on
    them, a kept fault, so those four operations fail in every round."""

    once = ()

    def __init__(self, lib, seed: int, workdir: Path):
        rng = random.Random(f"long:{seed}")
        self.lib = lib
        self.s3_ref, self.s3 = relabelled_symmetric(lib, 3, rng)
        self.r3 = lib.fixtures.system("r3")
        self.point = point_system(lib, self.s3)
        torus_n = 640 + rng.randrange(8)
        self.diagrams = {
            f"torus{torus_n}": torus_diagram(lib, torus_n),
            "torus1250": torus_diagram(lib, 1250),
            "kinks700": kink_chain(lib, 700, [rng.choice((1, -1)) for _ in range(700)], True),
            "kinks2000": kink_chain(lib, 2000, [(-1) ** (i // 3) for i in range(2000)], True),
            # kinks over their outgoing arc, the form r1_insert makes by default
            "kinks500-out": kink_chain(lib, 500, [rng.choice((1, -1)) for _ in range(500)], False),
        }
        self.moves = {}
        for name, d in self.diagrams.items():
            n = d.arc_count
            a = rng.randrange(n)
            if rng.random() < 0.5:
                params = {"sign": rng.choice((1, -1)), "over_first": rng.random() < 0.5}
                self.moves[name] = lib.moves.MoveSpec("r1_insert", a, params=params)
            else:
                params = {"other": (a + 1 + rng.randrange(n - 1)) % n, "sign": rng.choice((1, -1))}
                self.moves[name] = lib.moves.MoveSpec("r2_insert", a, params=params)

    def prepare(self):
        lib = self.lib
        ops = []
        point_ref = oracles.point_family(self.s3_ref)
        for name, d in self.diagrams.items():
            pd = plain_diagram(d)
            n = d.arc_count
            fox = oracles.fox_count(pd, 3)
            closed = oracles.torus_r3_count(n) if name.startswith("torus") else 3
            if fox != closed:
                raise Mismatch(f"{name}: Fox count {fox}, closed form {closed}")
            homs = oracles.hom_count(n, oracles.wirtinger_relators(pd), self.s3_ref)
            if name.startswith("kinks") and homs != self.s3_ref.size:
                raise Mismatch(f"{name}: an unknot has |G| homomorphisms, oracle gives {homs}")
            if n < 1000 and oracles.colour_count(pd, point_ref) != homs:
                raise Mismatch(f"{name}: point-family colourings differ from homomorphisms")
            kept = RecursionError if n >= 1000 else None
            spec = self.moves[name]

            def round_trip(d=d):
                return lib.diagrams.parse_diagram(lib.diagrams.serialize_diagram(d))

            def same_diagram(got, pd=pd):
                if plain_diagram(got) != pd:
                    raise Mismatch("round trip changed the diagram")

            def count(sys_, d=d):
                return lambda: lib.coloring.count_colourings(d, sys_, "all")

            def homs_s3(d=d):
                return lib.invariants.group_hom_count(
                    lib.invariants.wirtinger_presentation(d), self.s3
                )

            def move(d=d, spec=spec):
                return lib.moves.apply_move(d, spec)

            grow = 1 if spec.kind == "r1_insert" else 2
            ops += [
                Op(f"{name}/round-trip", round_trip, same_diagram, n),
                Op(f"{name}/r3", count(self.r3), expect_equal(fox), n, kept),
                Op(f"{name}/point-S3", count(self.point), expect_equal(homs), n, kept),
                Op(f"{name}/homs-S3", homs_s3, expect_equal(homs), n),
                Op(f"{name}/{spec}", move, moved_check(n, len(d.crossings), grow, fox), n),
            ]
        self.ops = ops

    def inputs(self):
        lib = self.lib
        files = {
            f"{name}.diagram": lib.diagrams.serialize_diagram(d)
            for name, d in self.diagrams.items()
        }
        files["moves.txt"] = "".join(
            f"{name} {spec} {spec.params}\n" for name, spec in self.moves.items()
        )
        files["point-s3.system"] = lib.systems.serialize_system(self.point)
        return files


def moved_check(arcs: int, crossings: int, grow: int, fox: int):
    """An R1 or R2 insertion adds ``grow`` arcs and crossings, leaves a
    well-formed diagram and keeps the Fox 3-colouring count."""

    def check(got):
        pd = plain_diagram(got.diagram)
        n, cs, vs = pd
        if n != arcs + grow or len(cs) != crossings + grow or vs:
            raise Mismatch(f"move gave {n} arcs and {len(cs)} crossings")
        produced, consumed = [0] * n, [0] * n
        for over, a, b, sign in cs:
            if not (0 <= over < n and 0 <= a < n and 0 <= b < n) or sign not in (1, -1):
                raise Mismatch("move left an arc index out of range")
            consumed[a] += 1
            produced[b] += 1
        if any(p != 1 or c != 1 for p, c in zip(produced, consumed)):
            raise Mismatch("move left an arc without exactly one producer and consumer")
        if oracles.fox_count(pd, 3) != fox:
            raise Mismatch("move changed the Fox 3-colouring count")

    return check


# ---------------------------------------------------------------------------
# carriers


class Carriers:
    """In-process ``cli.main`` calls on files that set-up writes: systems,
    tables and groups over S5 (120 elements) and S4, diagrams and
    Wirtinger presentations of the fixtures.

    ``check-system`` and the generating ``color`` run on the point family
    over S4: over S5 one call takes 0.9 to 3.4 s, and a round stays at
    2 to 3 s only so, with every operation timed eight times or more a
    run.  For
    the same reason ``homs`` leaves out athlete-happy (1.7 s)."""

    KINDS = (
        "g_family",
        "gsf_family",
        "q_family",
        "fw_system",
        "trivalent_compatible",
        "associative_composition",
        "n_compatible",
    )
    COLOURED = ("unknot", "hopf", "muf")
    HOMS_LEFT_OUT = ("athlete-happy",)
    once = ()

    def __init__(self, lib, seed: int, workdir: Path):
        rng = random.Random(f"carriers:{seed}")
        self.lib = lib
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.s5_ref, s5 = relabelled_symmetric(lib, 5, rng)
        self.s4_ref, s4 = relabelled_symmetric(lib, 4, rng)
        t, systems, inv = lib.tables, lib.systems, lib.invariants
        conj5 = t.conjugation_quandle(s5)
        files = {
            "point-s5.system": systems.serialize_system(point_system(lib, s5)),
            "point-s4.system": systems.serialize_system(point_system(lib, s4)),
            "conj-s5.system": systems.serialize_system(systems.quandle_system(conj5)),
            "conj-s5.table": t.serialize_table(conj5),
            "s5.group": t.serialize_group(s5),
            "s4.group": t.serialize_group(s4),
            # idempotency fails at both elements
            "swap.table": "magma 2\n1 0\n0 1\n",
        }
        for name in FIXTURES:
            d = lib.fixtures.diagram(name)
            files[f"{name}.diagram"] = lib.diagrams.serialize_diagram(d)
            presentation = inv.wirtinger_presentation(d)
            files[f"{name}.presentation"] = inv.serialize_presentation(presentation)
        for fname, text in files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        self.files = files

    def path(self, fname: str) -> str:
        return str(self.dir / fname)

    def prepare(self):
        lib = self.lib
        path = self.path
        ops = []
        s5, s4 = self.s5_ref, self.s4_ref
        conj5 = oracles.conjugation_table(s5)
        systems = {
            "point-s5": oracles.point_family(s5),
            "conj-s5": oracles.quandle_as_system(conj5),
        }
        diagrams = {name: lib.fixtures.diagram(name) for name in FIXTURES}
        closed = {
            ("unknot", "point-s5"): s5.size,
            ("unknot", "conj-s5"): s5.size,
            # Hom(Z^2, G) = |G| k(G)
            ("hopf", "point-s5"): s5.size * oracles.class_count(s5),
            ("hopf", "conj-s5"): s5.size * oracles.class_count(s5),
            # the handcuff group is free of rank 2
            ("muf", "point-s5"): s5.size**2,
            # every arc meets a vertex, so all share one X element
            ("muf", "conj-s5"): s5.size,
        }

        def printed(want: int):
            def check(got):
                rc, out, err = got
                if rc != 0 or out.strip() != str(want):
                    raise Mismatch(f"expected {want}, got exit {rc}: {out[:80]} {err[:200]}")

            return check

        def verdict(valid: bool, axiom: str | None = None):
            want = (0, ["valid"]) if valid else (1, ["invalid"])

            def check(got):
                rc, out, err = got
                words = out.split()
                if (rc, words[:1]) != want:
                    raise Mismatch(f"expected {want}, got exit {rc}: {out[:200]} {err[:200]}")
                if axiom is not None and axiom not in words:
                    raise Mismatch(f"{axiom} is not among the reported violations")

            return check

        def cli(*argv):
            return lambda: cli_call(lib, argv)

        for sname, sys_ in systems.items():
            for dname in self.COLOURED:
                want = oracles.colour_count(plain_diagram(diagrams[dname]), sys_)
                closed_form = closed[(dname, sname)]
                if want != closed_form:
                    raise Mismatch(f"{dname} by {sname}: {want}, closed form {closed_form}")
                run = cli("color", path(f"{dname}.diagram"), path(f"{sname}.system"))
                arcs = diagrams[dname].arc_count
                ops.append(Op(f"color {dname} {sname}", run, printed(want), arcs))
        # a one-arc colouring's image is one element, which generates
        # only itself
        run = cli("color", path("unknot.diagram"), path("point-s4.system"), "--mode=generating")
        ops.append(Op("color unknot point-s4 generating", run, printed(0), 1))
        # a group family on a one-point X satisfies every family axiom
        for kind in self.KINDS:
            extra = ("--arities=2",) if kind == "n_compatible" else ()
            run = cli("check-system", path("point-s4.system"), f"--kind={kind}", *extra)
            ops.append(Op(f"check-system {kind}", run, verdict(True)))
        assoc_out = path("associated.table")
        want_assoc = oracles.product_table(systems["point-s5"])

        def associated_check(got):
            verdict(True)(got)
            if read_table(Path(assoc_out)) != want_assoc:
                raise Mismatch("associated table differs from Conj(S5)")

        run = cli("associated", path("point-s5.system"), "-o", assoc_out)
        ops.append(Op("associated point-s5", run, associated_check))
        swap = read_table(Path(path("swap.table")))
        idempotent = all(swap[a][a] == a for a in range(len(swap)))
        swap_check = verdict(oracles.is_quandle(swap), None if idempotent else "Q1")
        ops += [
            Op("check-table conj-s5", cli("check-table", path("conj-s5.table")),
               verdict(oracles.is_quandle(conj5))),
            Op("check-table s5 group", cli("check-table", path("s5.group"), "--profile=group"),
               verdict(True)),
            Op("check-table swap", cli("check-table", path("swap.table")), swap_check),
        ]
        for name in FIXTURES:
            if name in self.HOMS_LEFT_OUT:
                continue
            pd = plain_diagram(diagrams[name])
            want = oracles.hom_count(pd[0], oracles.wirtinger_relators(pd), s4)
            run = cli("homs", path(f"{name}.presentation"), path("s4.group"))
            ops.append(Op(f"homs {name} S4", run, printed(want)))
        self.ops = ops

    def inputs(self):
        return dict(self.files)


WORKLOADS = {"search": Search, "fuzz": Fuzz, "long": Long, "carriers": Carriers}
