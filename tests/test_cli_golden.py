"""Byte-for-byte pins of the command line.

``cli_golden.json`` holds the input files and, for every command line
below in text and in JSON format, the exit code, stdout, stderr and every
file the command wrote.  The expected values were recorded with the
``if args.command`` dispatcher that the per-command handlers replaced,
and those of ``homs`` into S5 with the plain search that counting by
conjugacy classes replaced; running this file as a script prints the
record for the code on the path.

Argparse writes its own usage and help text, which differs across Python
versions, so for the ``USAGE`` lines only the exit code is pinned.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from quandlekit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    # fixtures
    "fixtures list",
    "fixtures list trefoil",
    "fixtures show trefoil",
    "fixtures show",
    "fixtures show nope",
    # color
    "color fixtures:mwuf systems:t3r3z2 --mode=generating",
    "color fixtures:mwf systems:t3r3z2 --mode=generating",
    "color fixtures:theta systems:t3r3z2",
    "color fixtures:theta t3r3z2.system",
    "color trefoil.diagram systems:r3",
    "color fixtures:nope systems:t3r3z2",
    "color fixtures:unknot systems:nope",
    "color systems:t3r3z2 fixtures:theta",
    "color missing.diagram systems:t3r3z2",
    "color broken.diagram systems:t3r3z2",
    "color fixtures:unknot swap.system",
    "color fixtures:theta broken.system",
    # check-table
    "check-table r3.magma",
    "check-table r3.magma --profile=kei",
    "check-table t3.magma --profile=rack",
    "check-table swap.magma",
    "check-table broken.magma",
    "check-table missing.magma",
    "check-table s3.magma --profile=group",
    "check-table r3.magma --profile=group",
    "check-table z3-id1.magma --profile=group",
    "check-table bad-identity.magma --profile=group",
    # check-system
    "check-system systems:t3r3z2 --kind=g_family",
    "check-system systems:broken-tc4 --kind=trivalent_compatible",
    "check-system systems:broken-tc4 --kind=n_compatible --arities=2,2",
    "check-system systems:t3r3z2 --kind=n_compatible --arities=2,x",
    "check-system systems:t3r3z2 --kind=n_compatible --arities=2,3",
    "check-system t3r3z2.system --kind=fw_system",
    "check-system broken.system --kind=g_family",
    "check-system systems:nope --kind=g_family",
    # associated
    "associated systems:t3r3z2",
    "associated systems:t3r3z2 -o product.magma",
    "associated swap.system",
    "associated swap.system -o product.magma",
    # involutions
    "involutions t3.magma",
    "involutions r3.magma",
    "involutions swap.magma",
    "involutions broken.magma",
    # fuzz
    "fuzz systems:t3r3z2 --trials=5 --seed=cli",
    "fuzz systems:broken-tc4 --scope=trivalent --moves=tr2_slide --force --trials=30 --seed=break",
    "fuzz systems:broken-tc4 --scope=trivalent --trials=2 --seed=x",
    "fuzz systems:t3r3z2 --moves=r1_insert,nope,bogus --trials=2",
    "fuzz systems:t3r3z2 --scope=links --trials=3 --seed=7 --crossings-max=2 --vertices-max=1",
    # wirtinger and homs
    "wirtinger fixtures:mlf",
    "wirtinger fixtures:mlf -o mlf-out.pres",
    "wirtinger broken.diagram",
    "homs mlf.pres s3.magma",
    "homs broken.pres s3.magma",
    "homs mlf.pres broken.magma",
    "homs mlf.pres bad-identity.magma",
    "homs missing.pres s3.magma",
    "homs mwf.pres s5.magma",
    "homs athlete-happy.pres s5.magma",
    # kauffman
    "kauffman fixtures:mlf --invariant=linking",
    "kauffman fixtures:mlf",
    "kauffman fixtures:trefoil --invariant=linking",
    "kauffman fixtures:hopf --invariant=linking",
    "kauffman fixtures:theta --invariant=linking",
    "kauffman fixtures:theta --invariant=colour:systems:t3r3z2",
    "kauffman fixtures:theta --invariant=color:t3r3z2.system",
    "kauffman fixtures:theta --invariant=colour:swap.system",
    "kauffman fixtures:theta --invariant=colour:systems:nope",
    "kauffman fixtures:theta --invariant=bogus",
    "kauffman fixtures:nope --invariant=bogus",
]

USAGE = [
    "",
    "no-such-command",
    "--help",
    "--format xml fixtures list",
    "color fixtures:theta",
    "color fixtures:theta systems:t3r3z2 --mode=some",
    "check-system systems:t3r3z2",
    "check-table r3.magma --profile=loop",
    "fuzz systems:t3r3z2 --trials=many",
    "fuzz systems:t3r3z2 --scope=knot",
    "fixtures remove",
    "homs mlf.pres",
] + [f"{command} --help" for command in (
    "check-table", "check-system", "associated", "involutions", "color", "fuzz",
    "wirtinger", "homs", "kauffman", "fixtures")]

FORMATS = ([], ["--format", "json"])


def input_files() -> dict[str, str]:
    """The files the command lines read, as recorded."""
    from quandlekit import fixtures
    from quandlekit.invariants import serialize_presentation, wirtinger_presentation
    from quandlekit.systems import quandle_system, serialize_system
    from quandlekit.tables import OperationTable, serialize_group, symmetric_group

    swap = quandle_system(OperationTable(2, ((1, 1), (0, 0))))
    return {
        "r3.magma": "magma 3\n0 2 1\n2 1 0\n1 0 2\n",
        "t3.magma": "magma 3\n0 0 0\n1 1 1\n2 2 2\n",
        "swap.magma": "magma 2\n1 1\n0 0\n",
        "broken.magma": "magma 3\n0 1\n",
        "s3.magma": serialize_group(symmetric_group(3)),
        "z3-id1.magma": "magma 3\nidentity 1\n0 1 2\n1 2 0\n2 0 1\n",
        "bad-identity.magma": "magma 3\nidentity 7\n0 1 2\n1 2 0\n2 0 1\n",
        "t3r3z2.system": serialize_system(fixtures.system("t3r3z2")),
        "swap.system": serialize_system(swap),
        "broken.system": "system\nX 2\nG 1\nstar 0\n0 1\n",
        "trefoil.diagram": fixtures.DIAGRAMS["trefoil"],
        "broken.diagram": "arcs 2\ncrossing over=0 under_in=1 under_out=5 sign=+\n",
        "mlf.pres": serialize_presentation(wirtinger_presentation(fixtures.diagram("mlf"))),
        "mwf.pres": serialize_presentation(wirtinger_presentation(fixtures.diagram("mwf"))),
        "athlete-happy.pres": serialize_presentation(
            wirtinger_presentation(fixtures.diagram("athlete-happy"))),
        "s5.magma": serialize_group(symmetric_group(5)),
        "broken.pres": "gens 2\nrel +0 +x\n",
    }


def run(argv: list[str], files: dict[str, str], where: Path) -> dict:
    """Run ``main(argv)`` in ``where`` holding ``files``; its exit code,
    stdout, stderr and the files it wrote."""
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(where.iterdir())
        if p.name not in files
    }
    for name in written:
        (where / name).unlink()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


def argvs():
    for command in COMMANDS:
        for fmt in FORMATS:
            yield fmt + command.split(), True
    for command in USAGE:
        yield command.split(), False


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_record_covers_every_command_line(golden):
    assert [case["argv"] for case in golden["cases"]] == [argv for argv, _ in argvs()]
    commands = {case["argv"][2 if case["argv"][:1] == ["--format"] else 0]
                for case in golden["cases"] if case["argv"]}
    assert {"check-table", "check-system", "associated", "involutions", "color", "fuzz",
            "wirtinger", "homs", "kauffman", "fixtures"} <= commands


@pytest.mark.parametrize("index", range(len(COMMANDS) * len(FORMATS) + len(USAGE)))
def test_command_line_matches_the_record(golden, index, tmp_path):
    case = golden["cases"][index]
    got = run(case["argv"], golden["files"], tmp_path)
    if case["pinned"]:
        assert got == {k: case[k] for k in ("code", "stdout", "stderr", "written")}, case["argv"]
    else:
        assert got["code"] == case["code"], case["argv"]


def record(where: Path) -> dict:
    files = input_files()
    cases = []
    for argv, pinned in argvs():
        got = run(argv, files, where)
        if not pinned:
            got = {"code": got["code"]}
        cases.append({"argv": argv, "pinned": pinned, **got})
    return {"files": files, "cases": cases}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(record(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
