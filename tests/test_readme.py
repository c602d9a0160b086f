"""The README "Command line" block, run line by line through
``python -m quandlekit``."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import quandlekit
from quandlekit.tables import serialize_group, symmetric_group

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines():
    """(argv, comment) for each line of the block.  A comment is the
    line's stdout, or ``exit N`` for a non-zero exit code."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        yield shlex.split(command), comment.strip()


def test_readme_command_lines_run_as_documented(tmp_path):
    (tmp_path / "s3.magma").write_text(serialize_group(symmetric_group(3)), encoding="utf-8")
    src = str(Path(quandlekit.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    lines = list(command_lines())
    assert len(lines) >= 10 and all(argv[0] == "quandlekit" for argv, _ in lines)
    for argv, comment in lines:
        done = subprocess.run(
            [sys.executable, "-m", "quandlekit", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        if comment.startswith("exit "):
            assert done.returncode == int(comment.split()[1]), (argv, done.stderr)
        else:
            assert done.returncode == 0, (argv, done.stderr)
            if comment:
                assert done.stdout.strip() == comment, argv
        assert "Traceback" not in done.stderr, argv
