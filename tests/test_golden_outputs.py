"""Byte-identity of the CLI's outputs: every subcommand on every bundled game,
with small settings, against the SHA-256 digests in golden_outputs.json.

Each command runs through `run_cli` in a fresh temporary directory, and the
digests cover its exit code, stdout, stderr and every file it writes.  A
change meant to leave outputs alone must pass this unchanged.  A change meant
to alter outputs re-records the file with `python tests/test_golden_outputs.py`
(with `src` on the path) and says which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cpgames.cli import BUNDLED_GAMES, load_game, run_cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _init(n: int) -> str:
    """A start on the simplex with n components, exact in float64."""
    return {2: "0.5,0.5", 3: "0.2,0.3,0.5"}[n]


def game_commands(name: str) -> list[list[str]]:
    """Every subcommand on the bundled game `name`, each plot kind the game
    allows among them.  Output files are named relative to the working
    directory, so stdout does not depend on it."""
    g = load_game(name)
    n = max(g.n_rows, g.n_cols)
    commands = [["solve", name, *flags] for flags in ([], ["--json"], ["--float"], ["--float", "--json"])]
    commands += [["decompose", name, "--report", "report.json"], ["decompose", name, "--no-verify"],
                 ["restpoints", name, "--counterpart", "1"], ["restpoints", name, "--counterpart", "2"],
                 ["counterparts", name]]
    inits = {"coupled": f"{_init(g.n_rows)};{_init(g.n_cols)}", "cp1": _init(n), "cp2": _init(n)}
    commands += [["dynamics", name, "--system", system, "--init", init, "--t-max", "2", "--out", "traj.csv"]
                 for system, init in inits.items()]
    kinds = (["square"] if (g.n_rows, g.n_cols) == (2, 2) else []) + (["cp1", "cp2"] if n == 3 else [])
    commands += [["plot", name, "--kind", kind, "--grid", "7", "--out", "plot.svg"] for kind in kinds]
    return commands


def verify_commands() -> list[list[str]]:
    return [["verify", "--trials", "20", "--seed", "3", "--size", str(size)] for size in (2, 3, 4)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(commands, tmp_root: Path) -> dict:
    """{command line: digests} of each command, run in its own empty
    directory under `tmp_root`: the exit code and the digests of stdout,
    stderr and each file written there, by name."""
    here, recorded = os.getcwd(), {}
    try:
        for i, argv in enumerate(commands):
            workdir = tmp_root / str(i)
            workdir.mkdir()
            os.chdir(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            doc = {"exit": code, "stdout": _sha(out.getvalue().encode()), "stderr": _sha(err.getvalue().encode())}
            for path in sorted(workdir.iterdir()):
                doc[path.name] = _sha(path.read_bytes())
            recorded[" ".join(argv)] = doc
    finally:
        os.chdir(here)
    return recorded


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [*BUNDLED_GAMES, "verify"])
def test_outputs_match_golden(name, golden, tmp_path):
    commands = verify_commands() if name == "verify" else game_commands(name)
    assert record(commands, tmp_path) == {" ".join(argv): golden[" ".join(argv)] for argv in commands}


def test_golden_file_covers_exactly_these_commands(golden):
    commands = [argv for name in BUNDLED_GAMES for argv in game_commands(name)] + verify_commands()
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands)


if __name__ == "__main__":
    commands = [argv for name in BUNDLED_GAMES for argv in game_commands(name)] + verify_commands()
    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(commands, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(recorded)} commands)", file=sys.stderr)
