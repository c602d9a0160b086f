import json

import pytest

from quandlekit.cli import main
from quandlekit.fixtures import DIAGRAMS
from quandlekit.systems import quandle_system, serialize_system
from quandlekit.tables import (
    OperationTable,
    parse_table,
    serialize_group,
    serialize_table,
    symmetric_group,
)
from quandlekit import fixtures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_color_mwuf_generating(capsys):
    code, out, _ = run(capsys, "color", "fixtures:mwuf", "systems:t3r3z2", "--mode=generating")
    assert code == 0
    assert out.strip() == "18"


def test_color_mwf_generating_zero_still_succeeds(capsys):
    code, out, _ = run(capsys, "color", "fixtures:mwf", "systems:t3r3z2", "--mode=generating")
    assert code == 0
    assert out.strip() == "0"


def test_color_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "color", "fixtures:theta", "systems:t3r3z2")
    assert code == 0
    assert json.loads(out) == {"count": 12, "mode": "all"}


def test_check_table_valid_and_invalid(tmp_path, capsys):
    good = tmp_path / "r3.magma"
    good.write_text("magma 3\n0 2 1\n2 1 0\n1 0 2\n")
    code, out, _ = run(capsys, "check-table", str(good), "--profile=quandle")
    assert code == 0 and out.strip() == "valid"

    bad = tmp_path / "bad.magma"
    bad.write_text("magma 2\n0 0\n0 0\n")
    code, out, _ = run(capsys, "check-table", str(bad), "--profile=quandle")
    assert code == 1 and out.startswith("invalid")


def test_check_table_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "broken.magma"
    bad.write_text("magma 3\n0 1\n")
    code, _, err = run(capsys, "check-table", str(bad))
    assert code == 2 and "error" in err


def test_check_table_group_profile(tmp_path, capsys):
    path = tmp_path / "s3.magma"
    path.write_text(serialize_group(symmetric_group(3)))
    code, out, _ = run(capsys, "check-table", str(path), "--profile=group")
    assert code == 0 and out.strip() == "valid"


def test_check_table_group_profile_uses_the_recorded_identity(tmp_path, capsys):
    # Z3 under addition, with the identity line naming 1 instead of 0
    path = tmp_path / "z3.magma"
    path.write_text("magma 3\nidentity 1\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run(capsys, "--format", "json", "check-table", str(path), "--profile=group")
    assert code == 1
    axioms = {v["axiom"] for v in json.loads(out)["violations"]}
    assert "identity" in axioms and "assoc" not in axioms
    pres = tmp_path / "unknot.pres"
    assert run(capsys, "wirtinger", "fixtures:unknot", "-o", str(pres))[0] == 0
    code, _, err = run(capsys, "homs", str(pres), str(path))
    assert code == 2 and "not a group" in err and "(line 2)" in err


def test_identity_line_out_of_range_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.magma"
    path.write_text("magma 3\nidentity 7\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, err = run(capsys, "check-table", str(path), "--profile=group")
    assert code == 2 and out == "" and "line 2" in err
    pres = tmp_path / "unknot.pres"
    assert run(capsys, "wirtinger", "fixtures:unknot", "-o", str(pres))[0] == 0
    code, out, err = run(capsys, "homs", str(pres), str(path))
    assert code == 2 and out == "" and "line 2" in err


def test_homs_refuses_a_negative_generator_count(tmp_path, capsys):
    pres = tmp_path / "negative.pres"
    pres.write_text("gens -2\n")
    group = tmp_path / "s3.magma"
    group.write_text(serialize_group(symmetric_group(3)))
    code, out, err = run(capsys, "homs", str(pres), str(group))
    assert code == 2 and out == ""
    assert err == "error: generator count must be non-negative (line 1, column 6)\n"


def test_check_system_kinds(capsys):
    code, out, _ = run(capsys, "check-system", "systems:t3r3z2", "--kind=g_family")
    assert code == 0
    code, out, _ = run(
        capsys, "check-system", "systems:broken-tc4", "--kind=trivalent_compatible"
    )
    assert code == 1 and "tc4" in out
    code, out, _ = run(
        capsys, "--format", "json", "check-system", "systems:t3r3z2",
        "--kind=n_compatible", "--arities=2",
    )
    assert code == 0 and json.loads(out)["valid"]
    # an arity given twice is checked once: broken-tc4 fails nc5[2] at 4 pairs
    for arities in ("2", "2,2"):
        code, out, _ = run(
            capsys, "--format", "json", "check-system", "systems:broken-tc4",
            "--kind=n_compatible", f"--arities={arities}",
        )
        assert code == 1 and len(json.loads(out)["violations"]) == 4, arities


def test_associated_writes_table(tmp_path, capsys):
    out_path = tmp_path / "assoc.magma"
    code, out, _ = run(capsys, "associated", "systems:t3r3z2", "-o", str(out_path))
    assert code == 0
    table = parse_table(out_path.read_text())
    assert table.size == 6


def test_output_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.txt"
    for command, source in (("associated", "systems:t3r3z2"), ("wirtinger", "fixtures:mlf")):
        code, out, err = run(capsys, command, source, "-o", str(missing))
        assert code == 2 and out == "", command
        assert err.startswith(f"error: cannot write {missing}: "), (command, err)
    assert not missing.parent.exists()


def test_involutions_lists_good_ones(tmp_path, capsys):
    path = tmp_path / "t3.magma"
    path.write_text("magma 3\n0 0 0\n1 1 1\n2 2 2\n")
    code, out, _ = run(capsys, "involutions", str(path))
    assert code == 0
    assert out.splitlines() == ["0 1 2", "0 2 1", "1 0 2", "2 1 0"]


def test_fuzz_cli_ok_and_failure(capsys):
    code, out, _ = run(
        capsys, "fuzz", "systems:t3r3z2", "--scope=handlebody", "--trials=5", "--seed=cli"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5 and all(line.endswith("OK") for line in lines)

    code, out, _ = run(
        capsys,
        "fuzz", "systems:broken-tc4", "--scope=trivalent", "--trials=30",
        "--seed=break", "--moves=tr2_slide", "--force",
    )
    assert code == 1
    assert any(line.endswith("FAIL") for line in out.splitlines())


def test_fuzz_refuses_scope_mismatch(capsys):
    code, _, err = run(
        capsys, "fuzz", "systems:broken-tc4", "--scope=trivalent", "--trials=2", "--seed=x"
    )
    assert code == 1 and "error" in err


def test_fuzz_by_a_non_quandle_system_exits_1_with_and_without_force(tmp_path, capsys):
    path = tmp_path / "not-a-quandle.system"
    path.write_text(serialize_system(quandle_system(OperationTable(2, ((0, 0), (0, 0))))))
    for force in ((), ("--force",)):
        code, out, err = run(
            capsys, "fuzz", str(path), "--scope=trivalent", "--trials=2", "--seed=x", *force
        )
        assert code == 1 and out == "" and "not a quandle" in err


def test_fuzz_refuses_negative_counts(capsys):
    for flags in (("--trials=-3",), ("--trials=0", "--crossings-max=-1"),
                  ("--trials=0", "--vertices-max=-1")):
        code, out, err = run(capsys, "fuzz", "systems:t3r3z2", *flags)
        assert code == 2 and out == "" and "must not be negative" in err


def test_fuzz_with_no_trials_prints_nothing(capsys):
    code, out, _ = run(capsys, "fuzz", "systems:t3r3z2", "--trials=0")
    assert code == 0 and out == ""


def test_wirtinger_and_homs(tmp_path, capsys):
    pres = tmp_path / "mlf.pres"
    code, _, _ = run(capsys, "wirtinger", "fixtures:mlf", "-o", str(pres))
    assert code == 0
    group = tmp_path / "s3.magma"
    group.write_text(serialize_group(symmetric_group(3)))
    code, out, _ = run(capsys, "homs", str(pres), str(group))
    assert code == 0 and out.strip() == "36"


def test_kauffman_cli(capsys):
    code, out, _ = run(capsys, "kauffman", "fixtures:mlf", "--invariant=linking")
    assert code == 0 and out.strip() == "[1]"
    code, out, _ = run(capsys, "kauffman", "fixtures:theta", "--invariant=colour:systems:t3r3z2")
    assert code == 0 and out.split() == ["6", "6", "6"]


def test_counts_by_a_non_quandle_system_exit_1(tmp_path, capsys):
    path = tmp_path / "not-a-quandle.system"
    path.write_text(serialize_system(quandle_system(OperationTable(2, ((1, 1), (0, 0))))))
    code, out, err = run(capsys, "color", "fixtures:unknot", str(path))
    assert code == 1 and out == "" and "not a quandle" in err
    code, out, err = run(capsys, "kauffman", "fixtures:theta", f"--invariant=colour:{path}")
    assert code == 1 and out == "" and "not a quandle" in err


def test_fixtures_list_and_show(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    assert set(out.split()) == set(DIAGRAMS)
    code, out, _ = run(capsys, "fixtures", "show", "trefoil")
    assert code == 0 and out == DIAGRAMS["trefoil"]
    code, _, err = run(capsys, "fixtures", "show", "nope")
    assert code == 2


def test_system_file_path_input(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(serialize_system(fixtures.system("t3r3z2")))
    code, out, _ = run(capsys, "color", "fixtures:theta", str(path))
    assert code == 0 and out.strip() == "12"


def test_resolve_calls_the_parser_bound_at_call_time(tmp_path, monkeypatch):
    from quandlekit import cli

    path = tmp_path / "sys.txt"
    path.write_text(serialize_system(fixtures.system("t3r3z2")))
    seen = []
    monkeypatch.setattr(cli, "parse_system", lambda text: seen.append(text) or "parsed")
    assert cli.resolve(str(path), "systems:") == "parsed"
    assert seen == [path.read_text()]


def test_color_of_a_diagram_with_an_arc_consumed_twice_is_a_parse_error(tmp_path, capsys):
    broken = tmp_path / "broken.diagram"
    broken.write_text(
        "arcs 2\n"
        "crossing over=1 under_in=0 under_out=1 sign=+\n"
        "crossing over=1 under_in=0 under_out=1 sign=-\n"
    )
    code, out, err = run(capsys, "color", str(broken), "systems:t3r3z2")
    assert code == 2 and not out
    assert "arc-consumers" in err and "line 1" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_outputs_are_stable(capsys):
    first = run(capsys, "fuzz", "systems:t3r3z2", "--trials=4", "--seed=55")
    second = run(capsys, "fuzz", "systems:t3r3z2", "--trials=4", "--seed=55")
    assert first == second


def test_the_parser_built_once_keeps_no_state_between_calls(capsys):
    from quandlekit import cli

    calls = [
        ("color", "fixtures:mwuf", "systems:t3r3z2", "--mode=generating"),
        ("color", "fixtures:mwuf", "systems:t3r3z2"),
        ("--format", "json", "color", "fixtures:theta", "systems:t3r3z2", "--mode=generating"),
        ("color", "fixtures:theta", "systems:t3r3z2"),
        ("color", "fixtures:theta", "systems:t3r3z2", "--mode=none"),
        ("check-system", "systems:t3r3z2", "--kind=n_compatible", "--arities=2,3"),
        ("check-system", "systems:t3r3z2", "--kind=n_compatible"),
        ("fixtures", "show", "theta"),
        ("fixtures", "list"),
    ]
    # each call alone, with a parser built for it
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 2, 2, 0, 0, 0]
    # then in turn, twice over, on the one kept parser
    for _ in range(2):
        assert [run(capsys, *argv)[:2] for argv in calls] == [(code, out) for code, out, _ in alone]
