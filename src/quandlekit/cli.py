"""Command-line surface.

Exit codes: 0 success/valid, 1 axiom failure or fuzz mismatch, 2 usage or
parse errors.  ``fixtures:NAME`` and ``systems:NAME`` resolve to bundled
resources; plain paths read the filesystem.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures
from .coloring import count_colourings
from .diagrams import Diagram, parse_diagram, serialize_diagram
from .invariants import (
    group_hom_count,
    kauffman_summary,
    parse_presentation,
    serialize_presentation,
    wirtinger_presentation,
)
from .moves import MOVE_KINDS, SCOPES, ScopeError, fuzz_invariance
from .systems import (
    FAMILY_KINDS,
    SystemData,
    associated_quandle,
    parse_system,
    search_involutions,
    validate_family,
)
from .tables import (
    AxiomReport,
    ParseError,
    _parse_magma,
    parse_group,
    parse_table,
    serialize_table,
    validate_axioms,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")


def resolve_diagram(spec: str) -> Diagram:
    if spec.startswith("fixtures:"):
        try:
            return fixtures.diagram(spec[len("fixtures:") :])
        except KeyError as exc:
            raise ParseError(str(exc.args[0]))
    return parse_diagram(_read(spec))


def resolve_system(spec: str) -> SystemData:
    if spec.startswith("systems:"):
        try:
            return fixtures.system(spec[len("systems:") :])
        except KeyError as exc:
            raise ParseError(str(exc.args[0]))
    return parse_system(_read(spec))


def _report_payload(report: AxiomReport) -> dict:
    return {
        "valid": report.valid,
        "violations": [
            {"axiom": axiom, "witness": list(witness)} for axiom, witness in report.violations
        ],
    }


def _emit_report(report: AxiomReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(_report_payload(report)))
    else:
        if report.valid:
            print("valid")
        else:
            print("invalid")
            for axiom, witness in report.violations:
                print(f"  {axiom} witness {list(witness)}")
    return 0 if report.valid else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quandlekit", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-table", help="validate a table file against a profile")
    p.add_argument("file")
    p.add_argument("--profile", choices=("quandle", "rack", "kei", "group"), default="quandle")

    p = sub.add_parser("check-system", help="validate a system file against a structure kind")
    p.add_argument("file")
    p.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p.add_argument("--arities", default="", help="comma list for n_compatible")

    p = sub.add_parser("associated", help="build and validate the product quandle")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("involutions", help="list the good involutions of a quandle table")
    p.add_argument("file")

    p = sub.add_parser("color", help="count proper colourings of a diagram by a system")
    p.add_argument("diagram")
    p.add_argument("system")
    p.add_argument("--mode", choices=("all", "generating"), default="all")

    p = sub.add_parser("fuzz", help="random-move colouring-count invariance trials")
    p.add_argument("system")
    p.add_argument("--scope", choices=SCOPES, default="handlebody")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", default="0")
    p.add_argument("--moves", default="", help="comma list of move kinds")
    p.add_argument("--force", action="store_true", help="run even if the scope hypotheses fail")
    p.add_argument("--crossings-max", type=int, default=4)
    p.add_argument("--vertices-max", type=int, default=2)

    p = sub.add_parser("wirtinger", help="write the Wirtinger presentation of a diagram")
    p.add_argument("diagram")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("homs", help="count homomorphisms of a presentation into a group")
    p.add_argument("presentation")
    p.add_argument("group")

    p = sub.add_parser("kauffman", help="summarise the constituent links of a trivalent graph")
    p.add_argument("diagram")
    p.add_argument("--invariant", default="linking", help="linking or colour:SYSTEM")

    p = sub.add_parser("fixtures", help="list or show bundled diagrams")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    fmt = args.format
    try:
        return _dispatch(args, fmt)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, fmt: str) -> int:
    if args.command == "check-table":
        text = _read(args.file)
        if args.profile == "group":
            # the file's identity line, when present, pins the identity
            table, identity = _parse_magma(text)
            report = validate_axioms(table, "group", identity=identity)
        else:
            report = validate_axioms(parse_table(text), args.profile)
        return _emit_report(report, fmt)

    if args.command == "check-system":
        data = resolve_system(args.file)
        arities = [int(a) for a in args.arities.split(",") if a] or [2]
        if args.kind == "n_compatible":
            report = validate_family(data, args.kind, arities)
        else:
            report = validate_family(data, args.kind)
        return _emit_report(report, fmt)

    if args.command == "associated":
        data = resolve_system(args.file)
        assoc, report = associated_quandle(data)
        text = serialize_table(assoc.table)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif fmt == "text":
            sys.stdout.write(text)
        if fmt == "json":
            payload = _report_payload(report)
            payload["size"] = assoc.table.size
            print(json.dumps(payload))
            return 0 if report.valid else 1
        return _emit_report(report, fmt)

    if args.command == "involutions":
        table = parse_table(_read(args.file))
        report = validate_axioms(table, "quandle")
        if not report.valid:
            return _emit_report(report, fmt)
        involutions = search_involutions(table)
        if fmt == "json":
            print(json.dumps([list(r) for r in involutions]))
        else:
            for rho in involutions:
                print(" ".join(str(v) for v in rho))
        return 0

    if args.command == "color":
        d = resolve_diagram(args.diagram)
        data = resolve_system(args.system)
        count = count_colourings(d, data, args.mode)
        if fmt == "json":
            print(json.dumps({"count": count, "mode": args.mode}))
        else:
            print(count)
        return 0

    if args.command == "fuzz":
        data = resolve_system(args.system)
        move_set = tuple(m for m in args.moves.split(",") if m) or None
        if move_set:
            unknown = [m for m in move_set if m not in MOVE_KINDS]
            if unknown:
                raise ParseError(f"unknown move kinds {unknown}")
        report = fuzz_invariance(
            data,
            trials=args.trials,
            seed=args.seed,
            move_set=move_set,
            scope=args.scope,
            force=args.force,
            crossings_max=args.crossings_max,
            vertices_max=args.vertices_max,
        )
        if fmt == "json":
            print(
                json.dumps(
                    {
                        "trials": [
                            {
                                "index": t.index,
                                "seed": t.seed,
                                "move": t.move,
                                "before": t.before,
                                "after": t.after,
                                "ok": t.ok,
                            }
                            for t in report.trials
                        ],
                        "skipped": report.skipped,
                        "mismatches": len(report.mismatches),
                    }
                )
            )
        else:
            sys.stdout.write(report.text())
        return 0 if report.ok else 1

    if args.command == "wirtinger":
        d = resolve_diagram(args.diagram)
        pres = wirtinger_presentation(d)
        text = serialize_presentation(pres)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "homs":
        pres = parse_presentation(_read(args.presentation))
        group = parse_group(_read(args.group))
        count = group_hom_count(pres, group)
        if fmt == "json":
            print(json.dumps({"count": count}))
        else:
            print(count)
        return 0

    if args.command == "kauffman":
        d = resolve_diagram(args.diagram)
        if args.invariant == "linking":
            values = kauffman_summary(d, "linking")
        elif args.invariant.startswith("colour:") or args.invariant.startswith("color:"):
            data = resolve_system(args.invariant.split(":", 1)[1])
            values = kauffman_summary(d, "colour_count", sys=data)
        else:
            raise ParseError(f"unknown invariant {args.invariant!r}")
        if fmt == "json":
            print(json.dumps([list(v) if isinstance(v, tuple) else v for v in values]))
        else:
            for v in values:
                if isinstance(v, tuple):
                    print("[" + " ".join(str(x) for x in v) + "]")
                else:
                    print(v)
        return 0

    if args.command == "fixtures":
        if args.action == "list":
            for name in fixtures.list_diagrams():
                print(name)
            return 0
        if not args.name:
            raise ParseError("fixtures show needs a name")
        try:
            text = fixtures.DIAGRAMS[args.name]
        except KeyError:
            raise ParseError(f"no bundled diagram {args.name!r}")
        sys.stdout.write(text)
        return 0

    raise ParseError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
