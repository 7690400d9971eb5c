"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

from cpgames import serialize_game
from cpgames.cli import load_game

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
