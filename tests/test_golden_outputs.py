"""Byte-identity of the CLI's outputs: every subcommand on every bundled game,
with small settings, against the SHA-256 digests in golden_outputs.json.

Each command runs through `run_cli` in a fresh temporary directory, and the
digests cover its exit code, stdout, stderr and every file it writes.  The
file also pins the enumerations at sizes no CLI run reaches: the JSON of
`enumerate_nash_bimatrix` and of both padded counterparts'
`enumerate_rest_points` on seeded 5x5, 5x6 and 6x6 games, wide and narrow
(see `enumeration_game`), under the key "enumerate <game>".  A change meant
to leave outputs alone must pass this unchanged.  A change meant
to alter outputs re-records the file with `python tests/test_golden_outputs.py`
(with `src` on the path) and says which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from cpgames.cli import BUNDLED_GAMES, load_game, run_cli
from cpgames.games import counterpart_games, fraction_str, make_bimatrix, pad_to_square
from cpgames.solver import candidate_json, enumerate_nash_bimatrix, enumerate_rest_points

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


# (rows, cols, kind, payoff bound, index): the wide bound of 1000 draws
# generic games, the narrow bound of 5 mostly degenerate ones, as
# decomposition.random_game does
ENUMERATION_SIZES = [(rows, cols, kind, bound, index)
                     for rows, cols in ((5, 5), (5, 6), (6, 6))
                     for kind, bound in (("wide", 1000), ("narrow", 5))
                     for index in range(2)]


def enumeration_game(rows: int, cols: int, kind: str, bound: int, index: int):
    """A seeded rows x cols game with integer payoffs in [-bound, bound]."""
    name = f"{rows}x{cols}-{kind}-{index}"
    rng = random.Random(f"golden-{name}")
    a, b = ([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)] for _ in range(2))
    return make_bimatrix(name, [f"R{i}" for i in range(rows)], [f"C{j}" for j in range(cols)], a, b)


def enumeration_digests(g) -> dict:
    """Digests of the game's equilibria and of both padded counterparts'
    rest points, each as canonical JSON."""
    def sha_json(doc) -> str:
        return _sha(json.dumps(doc, sort_keys=True).encode())

    padded, _ = pad_to_square(g)
    doc = {"equilibria": sha_json([candidate_json(c) for c in enumerate_nash_bimatrix(g)])}
    for i, s in enumerate(counterpart_games(padded), 1):
        doc[f"rest_points_{i}"] = sha_json([
            {"point": rp.point.to_jsonable(), "support": list(rp.support), "nash": rp.is_nash,
             "payoff": fraction_str(rp.common_payoff), "continuum": rp.continuum}
            for rp in enumerate_rest_points(s)])
    return doc


def enumeration_key(g) -> str:
    return f"enumerate {g.name}"


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


@pytest.mark.parametrize("size", ENUMERATION_SIZES, ids=lambda size: "{}x{}-{}-{}-{}".format(*size))
def test_enumerations_match_golden(size, golden):
    g = enumeration_game(*size)
    assert enumeration_digests(g) == golden[enumeration_key(g)]


def test_golden_file_covers_exactly_these_commands(golden):
    commands = [argv for name in BUNDLED_GAMES for argv in game_commands(name)] + verify_commands()
    enumerations = [enumeration_key(enumeration_game(*size)) for size in ENUMERATION_SIZES]
    assert sorted(golden) == sorted([" ".join(argv) for argv in commands] + enumerations)


if __name__ == "__main__":
    commands = [argv for name in BUNDLED_GAMES for argv in game_commands(name)] + verify_commands()
    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(commands, Path(tmp))
    for size in ENUMERATION_SIZES:
        g = enumeration_game(*size)
        recorded[enumeration_key(g)] = enumeration_digests(g)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(recorded)} commands)", file=sys.stderr)
