"""The README's examples run as written, and the package's declared
version is the one every row records."""

import re
import shlex
from pathlib import Path

import mixlab as mx
from mixlab import cli

ROOT = Path(__file__).resolve().parents[1]


def _code_block(heading: str) -> str:
    """The first fenced code block of the README section ``## heading``."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n")[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def test_the_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_code_block("Library quickstart"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("q = ")


def test_each_command_line_example_runs(tmp_path, monkeypatch, capsys):
    """Each ``mixlab`` line of the "Command line" block, through
    ``cli.main`` in a fresh working directory, in the order given."""
    monkeypatch.chdir(tmp_path)
    text = _code_block("Command line").replace("\\\n", " ")
    calls = [shlex.split(line)[1:] for line in text.splitlines()
             if line.startswith("mixlab ")]
    assert [argv[0] for argv in calls] == [
        "simulate", "mix-rate", "ed-sweep", "verify-bound", "report"]
    for argv in calls:
        assert cli.main(argv) == 0, argv
        assert "warning" not in capsys.readouterr().out, argv


def test_pyproject_declares_the_version_rows_record():
    """pyproject.toml's version (read by a regex: Python 3.10 has no
    tomllib) is ``mixlab.__version__``, which rows and traces record in
    ``meta.versions``."""
    found = re.findall(r'^version = "([^"]*)"$',
                       (ROOT / "pyproject.toml").read_text(), re.M)
    assert found == [mx.__version__]
