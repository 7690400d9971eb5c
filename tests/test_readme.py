"""The README's Python examples and CLI block run as written, its CLI block
shows what each command prints, and every test and module name it cites
exists."""

import ast
import functools
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cpgames
from cpgames import serialize_game
from cpgames.cli import _COMMANDS, load_game, run_cli

README = Path(__file__).resolve().parent.parent / "README.md"
TESTS = Path(__file__).resolve().parent


def section(title):
    """The README's text under `## title`, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return text.split("\n## ", 1)[0]


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
    # each `$ cpg` line of the console block under "## CLI", continuation
    # lines joined, exits 0, prints the lines that follow it up to the next
    # `$ ` and nothing on stderr, and writes what it names.  Trailing blanks
    # are ignored: the decompose table pads its last column.  Every
    # subcommand appears
    block = re.search(r"^```console\n(.*?)^```$", section("CLI"), re.DOTALL | re.MULTILINE)[1]
    runs = [chunk.partition("\n") for chunk in
            re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.MULTILINE)[1:]]
    commands = [shlex.split(command) for command, _, _ in runs]
    assert all(argv[0] == "cpg" for argv in commands)
    assert {argv[1] for argv in commands} == set(_COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv, (_, _, shown) in zip(commands, runs):
        assert run_cli(argv[1:]) == 0, argv
        out, err = capsys.readouterr()
        assert [line.rstrip() for line in out.splitlines()] == shown.splitlines(), argv
        assert err == "", argv
        for flag in ("--out", "--report"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).exists(), argv


def defined_tests():
    """Every test class `TestX`, test function `test_x` and method
    `TestX::test_x` under tests/, and each acceptance criterion's number."""
    names, criteria = set(), set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
                if m := re.fullmatch(r"test_criterion_(\d+)_\w+", node.name):
                    criteria.add(m[1])
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
                names.update(f"{node.name}::{f.name}" for f in node.body
                             if isinstance(f, ast.FunctionDef))
                names.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
    return names, criteria


CITED = r"`((?:Test\w+::)?test_\w+|Test\w+)`"


def test_readme_cites_only_defined_tests():
    # a renamed or deleted test breaks the README's trace to it here; each
    # statement of "The method" names a test or says that it is unchecked
    text = README.read_text(encoding="utf-8")
    names, criteria = defined_tests()
    cited = set(re.findall(CITED, text))
    assert len(cited) > 10
    assert cited <= names, sorted(cited - names)
    numbers = set(re.findall(r"\b[Cc]riterion (\d+)", text))
    assert numbers and numbers <= criteria, sorted(numbers - criteria)
    statements = re.findall(r"^- (.*?)(?=^- |^\S|\Z)", section("The method"), re.DOTALL | re.MULTILINE)
    assert len(statements) >= 8
    for statement in statements:
        assert re.search(CITED, statement) or re.search(r"\b(?:Unchecked|Not\s+yet\s+checked)\b", statement), \
            statement


MODULES = {m.name: importlib.import_module(f"cpgames.{m.name}")
           for m in pkgutil.iter_modules(cpgames.__path__) if not m.name.startswith("_")}


def resolves(dotted):
    """Whether a dotted name the README cites names something: `<module>.<NAME>`
    in that module of cpgames, any other name in the package or one of its
    modules."""
    head, *rest = dotted.split(".")
    if head in MODULES and rest:
        owners, parts = [MODULES[head]], rest
    else:
        owners, parts = [cpgames, *MODULES.values()], [head, *rest]
    for owner in owners:
        try:
            functools.reduce(getattr, parts, owner)
            return True
        except AttributeError:
            pass
    return False


def test_readme_module_names_resolve():
    # every backticked `<module>.<NAME>` resolves, except the removed name
    # that a "Removed from the public API" bullet leads with, which must not;
    # a bullet that leads with a kept name followed by " of" or "'s" names a
    # removed form of it (`export_csv` of a list of field samples), and that
    # name must resolve
    text = README.read_text(encoding="utf-8")
    removed = section("Library sketch").split("\n### Removed from the public API\n", 1)[1]
    bullets = re.findall(r"^- (.*?)(?=^- |\Z)", removed, re.DOTALL | re.MULTILINE)
    assert len(bullets) > 10
    for bullet in bullets:
        m = re.match(r"`(([\w.]+)(?:\([^`]*\))?)`('s\b| of\b)?", bullet)
        assert resolves(m[2]) == bool(m[3]), bullet
        text = text.replace(f"\n- `{m[1]}`", "\n- ", 1)
    cited = re.findall(rf"`((?:{'|'.join(MODULES)})\.\w+)(?:\([^`]*\))?`", text)
    assert len(cited) > 5
    assert [name for name in cited if not resolves(name)] == []
