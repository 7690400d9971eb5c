#!/usr/bin/env python3
"""Record the expected outputs of every pooled benchmark input.

    python3 perfbench/record.py                      # all parts, into reference.json
    python3 perfbench/record.py --parts solve --out /tmp/solve.json

The benchmark compares each operation's output with these digests, so a
change that alters any printed digit, byte of SVG/CSV or equilibrium set
fails the run.  Re-record only when an output change is intended, and say so
where the change is described.  Recording all parts takes about ten minutes
on one core.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def record_roundtrip(cp) -> dict:
    pool = {}
    for size, count in w.ROUNDTRIP_POOL.items():
        digests = {}
        for i in range(count):
            g = w.roundtrip_game(cp, size, i)
            if cp.solver.detect_degeneracy(g).degenerate:
                continue
            report = cp.decomposition.decompose(g, verify=True)
            if report.agreement is not True or not all(
                    cp.games.is_nash_bimatrix(g, c.x, c.y, tol=0.0) for c in report.reconstructed):
                raise SystemExit(f"roundtrip game {size}/{i} fails its own check")
            digests[str(i)] = w.digest(w.equilibria_doc(cp, report.reconstructed))
        pool[str(size)] = {"count": count, "digests": digests}
        print(f"roundtrip size {size}: {count - len(digests)} of {count} degenerate", file=sys.stderr)
    return {"pool": pool}


def record_solve(cp) -> dict:
    strata, skipped = {}, {}
    for key, (size, _) in w.SOLVE_STRATA.items():
        rows, cols, kind = key
        entries, index, rejected = [], 0, 0
        while len(entries) < size:
            g = w.solve_game(cp, rows, cols, kind, index)
            if cp.solver.detect_degeneracy(g).degenerate == (kind == "wide"):
                rejected += 1  # wide games must be generic, narrow ones degenerate
            else:
                eqs = cp.solver.enumerate_nash_bimatrix(g)
                padded, _ = cp.games.pad_to_square(g)
                cp1, cp2 = cp.games.counterpart_games(padded)
                rests = [w.rest_points_doc(cp, cp.solver.enumerate_rest_points(s)) for s in (cp1, cp2)]
                entries.append({"index": index, "equilibria": w.digest(w.equilibria_doc(cp, eqs)),
                                "rest_points": w.digest(rests)})
            index += 1
        strata[w.stratum_name(key)] = entries
        skipped[w.stratum_name(key)] = rejected
        print(f"solve {w.stratum_name(key)}: {rejected} rejected", file=sys.stderr)
    return {"strata": strata, "rejected": skipped}


def record_portrait(cp) -> dict:
    square, triangle = {}, {}
    for key in w.SQUARE_GAMES:
        g = w.portrait_game(cp, key, 2)
        traj = cp.dynamics.integrate("coupled", g, w.portrait_start(key, (2, 2)))
        square[key] = {"svg": w.digest(cp.viz.plot_unit_square(g)),
                       "csv": w.digest(cp.viz.export_csv(traj))}
    for key in w.TRIANGLE_GAMES:
        padded, _ = cp.games.pad_to_square(w.portrait_game(cp, key, 3))
        cp1, cp2 = cp.games.counterpart_games(padded)
        traj = cp.dynamics.integrate("cp1", padded, w.portrait_start(key, (3,)))
        triangle[key] = {"svg_cp1": w.digest(cp.viz.plot_simplex(cp1)),
                         "svg_cp2": w.digest(cp.viz.plot_simplex(cp2)),
                         "csv": w.digest(cp.viz.export_csv(traj))}
    return {"square": square, "triangle": triangle}


def record_cli(cp) -> dict:
    runner = w.Cli(cp, {"cli": {}}, 0)
    runner.in_process = False  # references come from real `python -m cpgames` processes
    commands = {}
    try:
        for seed in w.CLI_VERIFY_SEEDS:
            for argv in w.cli_commands(seed):
                key = " ".join(argv)
                if key in commands:
                    continue
                code, out, workdir = runner.invoke(argv)
                if code != 0:
                    raise SystemExit(f"cpg {key} exited with {code}")
                commands[key] = {"stdout": w.digest(out), "files": w.snapshot(workdir)}
    finally:
        runner.close()
    return {"commands": commands}


PARTS = {"roundtrip": record_roundtrip, "solve": record_solve,
         "portrait": record_portrait, "cli": record_cli}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parts", nargs="+", choices=tuple(PARTS), default=list(PARTS))
    p.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = p.parse_args()
    cp = w.import_program(ROOT / "src")
    ref = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    for part in args.parts:
        t0 = time.perf_counter()
        ref[part] = PARTS[part](cp)
        ref[part]["recorded"] = {"python": platform.python_version(),
                                 "numpy": sys.modules["numpy"].__version__,
                                 "seconds": round(time.perf_counter() - t0, 1)}
        print(f"recorded {part} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    args.out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
