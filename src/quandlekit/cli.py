"""Command-line surface.

Exit codes: 0 success/valid, 1 axiom failure or fuzz mismatch, 2 usage or
parse errors.  ``fixtures:NAME`` and ``systems:NAME`` resolve to bundled
resources; plain paths read the filesystem.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fixtures
from .coloring import count_colourings
from .diagrams import parse_diagram
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


def resolve(spec: str, prefix: str):
    """The bundled resource that ``prefix`` + NAME names, else the file at
    ``spec`` read as that kind: a diagram for ``fixtures:``, a system for
    ``systems:``."""
    # the parsers are looked up on each call, so a rebound module name is seen
    bundled, parse = {
        "fixtures:": (fixtures.diagram, parse_diagram),
        "systems:": (fixtures.system, parse_system),
    }[prefix]
    if spec.startswith(prefix):
        try:
            return bundled(spec[len(prefix) :])
        except KeyError as exc:
            raise ParseError(str(exc.args[0]))
    return parse(_read(spec))


def _write(path: str | None, text: str) -> str:
    """Write ``text`` to the ``-o`` file when one is given; return what is
    left for stdout."""
    if not path:
        return text
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}")
    return ""


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


# Each handler returns (JSON payload, text, exit code).  A payload of None
# means the command prints its text under --format json as well.


def _report(report: AxiomReport):
    violations = [{"axiom": axiom, "witness": list(w)} for axiom, w in report.violations]
    lines = [f"  {v['axiom']} witness {v['witness']}" for v in violations]
    text = _lines(["valid" if report.valid else "invalid", *lines])
    return {"valid": report.valid, "violations": violations}, text, 0 if report.valid else 1


def _check_table(args):
    text = _read(args.file)
    if args.profile == "group":
        # the file's identity line, when present, pins the identity
        table, identity = _parse_magma(text)
        return _report(validate_axioms(table, "group", identity=identity))
    return _report(validate_axioms(parse_table(text), args.profile))


def _check_system(args):
    data = resolve(args.file, "systems:")
    arities = [int(a) for a in args.arities.split(",") if a] or [2]
    return _report(validate_family(data, args.kind, arities))


def _associated(args):
    product, report = associated_quandle(resolve(args.file, "systems:"))
    payload, text, code = _report(report)
    payload["size"] = product.size
    return payload, _write(args.output, serialize_table(product)) + text, code


def _involutions(args):
    table = parse_table(_read(args.file))
    report = validate_axioms(table, "quandle")
    if not report.valid:
        return _report(report)
    involutions = [list(rho) for rho in search_involutions(table)]
    return involutions, _lines(" ".join(map(str, rho)) for rho in involutions), 0


def _color(args):
    d = resolve(args.diagram, "fixtures:")
    count = count_colourings(d, resolve(args.system, "systems:"), args.mode)
    return {"count": count, "mode": args.mode}, f"{count}\n", 0


def _fuzz(args):
    data = resolve(args.system, "systems:")
    move_set = tuple(m for m in args.moves.split(",") if m) or None
    unknown = [m for m in move_set or () if m not in MOVE_KINDS]
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
    fields = ("index", "seed", "move", "before", "after", "ok")
    trials = [{k: getattr(t, k) for k in fields} for t in report.trials]
    payload = {"trials": trials, "skipped": report.skipped, "mismatches": len(report.mismatches)}
    return payload, report.text(), 0 if report.ok else 1


def _wirtinger(args):
    pres = wirtinger_presentation(resolve(args.diagram, "fixtures:"))
    return None, _write(args.output, serialize_presentation(pres)), 0


def _homs(args):
    pres = parse_presentation(_read(args.presentation))
    count = group_hom_count(pres, parse_group(_read(args.group)))
    return {"count": count}, f"{count}\n", 0


def _kauffman(args):
    d = resolve(args.diagram, "fixtures:")
    if args.invariant == "linking":
        values = kauffman_summary(d, "linking")
    elif args.invariant.startswith(("colour:", "color:")):
        data = resolve(args.invariant.split(":", 1)[1], "systems:")
        values = kauffman_summary(d, "colour_count", sys=data)
    else:
        raise ParseError(f"unknown invariant {args.invariant!r}")
    values = [list(v) if isinstance(v, tuple) else v for v in values]
    text = _lines(f"[{' '.join(map(str, v))}]" if isinstance(v, list) else v for v in values)
    return values, text, 0


def _fixtures(args):
    if args.action == "list":
        return None, _lines(fixtures.list_diagrams()), 0
    if not args.name:
        raise ParseError("fixtures show needs a name")
    try:
        return None, fixtures.DIAGRAMS[args.name], 0
    except KeyError:
        raise ParseError(f"no bundled diagram {args.name!r}")


_COMMANDS = {
    "check-table": _check_table,
    "check-system": _check_system,
    "associated": _associated,
    "involutions": _involutions,
    "color": _color,
    "fuzz": _fuzz,
    "wirtinger": _wirtinger,
    "homs": _homs,
    "kauffman": _kauffman,
    "fixtures": _fixtures,
}


def _emit(result, fmt: str) -> int:
    """Print a handler's result, as JSON when asked for and the command has
    a payload, else as its text; return its exit code."""
    payload, text, code = result
    if fmt == "json" and payload is not None:
        print(json.dumps(payload))
    else:
        sys.stdout.write(text)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls."""
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
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _emit(_COMMANDS[args.command](args), args.format)
    except (ValueError, KeyError) as exc:  # ParseError and ScopeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ScopeError) else 2


if __name__ == "__main__":
    sys.exit(main())
