"""The README's Python examples and CLI block run as written."""

import re
import shlex
from pathlib import Path

import pytest

from cpgames import serialize_game
from cpgames.cli import load_game, run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name, equilibria", [("bos_extended", 3), ("leduc_empirical", 1)])
def test_python_blocks_run_on_a_bundled_game(name, equilibria, tmp_path, monkeypatch, capsys):
    # each block reads `game.json` from the working directory: bos_extended
    # is non-square and degenerate, so the `table=` example stops at the
    # verdict; leduc_empirical is square and not, so it decomposes
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    (tmp_path / "game.json").write_text(serialize_game(load_game(name)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    reports = []
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        reports.append(namespace.get("report"))
    table_example, sketch = reports
    assert (table_example is None) == (name == "bos_extended")
    assert len(sketch.reconstructed) == equilibria
    # one line per equilibrium, then the classification
    assert capsys.readouterr().out.count("\n") == equilibria + 1


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each `cpg` line of the sh block under "## CLI", continuation lines
    # joined and comments dropped, exits 0, and writes what it names
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)[1]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 10 and all(argv[0] == "cpg" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
        for flag in ("--out", "--report"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).exists(), argv
