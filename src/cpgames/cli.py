"""Command-line interface: parse -> pad -> solve -> decompose -> integrate ->
classify -> plot, with JSON/CSV/SVG outputs and deterministic exit codes.

Exit codes: 0 success, 1 usage error, 2 input parse/validation error,
3 numerical failure, 4 counterpart-correspondence violation.  Each code, and
the category on the stderr line, is set on the error class (`cpgames.errors`).

`run_cli` builds only the parser of the subcommand it runs (the whole parser
only for top-level help and usage errors) and reads its game afresh on every
call; a game path that names an existing file wins over a bundled game of the
same name.  Help returns 0 from `run_cli` instead of exiting the process.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .errors import CpgError, ParseError, TheoremViolation, ValidationError
from .games import (
    FLOAT_SUPPORT_EPS,
    BimatrixGame,
    MixedStrategy,
    counterpart_games,
    fraction_str,
    parse_game,
    serialize_single,
)
from .solver import candidate_json, enumerate_nash_bimatrix, enumerate_rest_points
from .decomposition import decompose, report_json, verify_roundtrip
from .dynamics import _float_matrix, integrate
from .viz import PlotSpec, export_csv, plot_simplex, plot_unit_square

BUNDLED_GAMES = ("pd", "bos", "rps", "bos_extended", "leduc_empirical", "fullsupport")

EXIT_OK = 0

_FLOAT_PIVOT_EPS = 1e-11


class UsageError(CpgError):
    """Bad command line: unknown subcommand or option, missing argument."""

    exit_code = 1
    category = "usage"


class _ParserExit(SystemExit):
    """Where argparse exits (after printing help): `run_cli` returns the
    status, any other caller exits as argparse would."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)


def load_game(spec: str) -> BimatrixGame:
    """Load a game from a file path, or from the bundled set by name.  An
    existing file wins over a bundled game of the same name; a directory
    does not."""
    path = Path(spec)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"game file is not UTF-8: {exc}") from exc
        return parse_game(text)
    name = spec[:-5] if spec.endswith(".json") else spec
    if name in BUNDLED_GAMES:
        text = resources.files("cpgames").joinpath("data", f"{name}.json").read_text(encoding="utf-8")
        return parse_game(text)
    raise ParseError(f"no such game file or bundled game: {spec}")


def _parse_init(text: str, dims: tuple[int, ...]):
    """Parse --init values: components comma-separated, populations separated
    by a semicolon, e.g. "0.9,0.1;0.2,0.8"."""
    groups = text.split(";")
    if len(groups) != len(dims):
        raise ValidationError(f"--init has {len(groups)} population(s), expected {len(dims)}")
    states = []
    for group, dim in zip(groups, dims):
        try:
            vals = [float(v) for v in group.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--init component is not a number: {group!r}") from exc
        if len(vals) != dim:
            raise ValidationError(f"--init population has {len(vals)} components, expected {dim}")
        states.append(vals)  # `integrate` checks that each is on the simplex
    return states if len(dims) == 2 else states[0]


def _format_candidate(idx: int, cand) -> str:
    doc = candidate_json(cand)
    def fmt_vec(v):
        return "(" + ", ".join(str(c) for c in v) + ")"
    parts = [f"{idx}. x={fmt_vec(doc['x'])}"]
    if "y" in doc:
        parts.append(f"y={fmt_vec(doc['y'])}")
    parts.append(f"supports={list(cand.support_x)}" +
                 (f"/{list(cand.support_y)}" if cand.support_y is not None else ""))
    parts.append(f"strict={'true' if cand.is_strict else 'false'}")
    pay = doc["payoffs"]
    parts.append(f"payoffs={fmt_vec(pay) if isinstance(pay, list) else pay}")
    return "  ".join(parts)


def _float_gauss_jordan(aug):
    """The unique solution of a square augmented float64 system, or None:
    Gauss–Jordan elimination with partial pivoting, where a pivot must exceed
    1e-11 times the largest entry (at least 1)."""
    eps = _FLOAT_PIVOT_EPS * max(1.0, max(abs(v) for row in aug for v in row))
    for c in range(len(aug)):
        pivot, best = None, 0.0
        for i in range(c, len(aug)):
            if abs(aug[i][c]) > best:
                pivot, best = i, abs(aug[i][c])
        if pivot is None or best <= eps:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        prow = aug[c] = [v / pv for v in aug[c]]
        for i, row in enumerate(aug):
            if i != c and abs(row[c]) > eps:
                f = row[c]
                aug[i] = [vi - f * vr for vi, vr in zip(row, prow)]
    return [row[-1] for row in aug]


def _float_mix(mat, rows, cols, exact: MixedStrategy) -> MixedStrategy:
    """The mix on `cols` that makes `rows` indifferent in the float64 matrix
    `mat`, solved and renormalised in float64; the rounded exact mix when
    that solve finds no unique positive mix."""
    aug = [[mat[i][j] for j in cols] + [-1.0, 0.0] for i in rows]
    aug.append([1.0] * len(cols) + [0.0, 1.0])
    sol = _float_gauss_jordan(aug)
    if sol is None or not all(v > FLOAT_SUPPORT_EPS for v in sol[:-1]):
        return MixedStrategy.from_floats(exact.probs)
    values = dict(zip(cols, sol[:-1]))
    total = sum(values.values())  # renormalise away elimination roundoff
    return MixedStrategy.from_floats(values.get(j, 0.0) / total for j in range(len(exact)))


def _render_float(g: BimatrixGame, eqs) -> list:
    """The exact equilibria of `g` in float64, for `solve --float`: each mix
    re-solved on its exact supports, the payoffs evaluated at the float mixes
    as numpy products x @ A @ y."""
    import numpy as np

    a, b = _float_matrix(g.row_payoffs), _float_matrix(g.col_payoffs)
    a_rows, bt_rows = a.tolist(), b.T.tolist()
    rendered = []
    for c in eqs:
        x = _float_mix(bt_rows, c.support_y, c.support_x, c.x)
        y = _float_mix(a_rows, c.support_x, c.support_y, c.y)
        xa, ya = np.array(x.probs), np.array(y.probs)
        rendered.append(replace(c, x=x, y=y, payoffs=(float(xa @ a @ ya), float(xa @ b @ ya))))
    return rendered


def _cmd_solve(args) -> int:
    g = load_game(args.game)
    mode = "float" if args.float else "exact"
    eqs = enumerate_nash_bimatrix(g)
    if args.float:
        eqs = _render_float(g, eqs)
    if args.json:
        print(json.dumps([candidate_json(c) for c in eqs], indent=2))
    else:
        print(f"{g.name}: {len(eqs)} equilibria ({mode} mode)")
        for i, c in enumerate(eqs, 1):
            print(_format_candidate(i, c))
    return EXIT_OK


def _cmd_counterparts(args) -> int:
    cp1, cp2 = counterpart_games(load_game(args.game))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = Path(args.game).stem if Path(args.game).is_file() else args.game.removesuffix(".json")
    for tag, cp in (("cp1", cp1), ("cp2", cp2)):
        path = out / f"{base}_{tag}.json"
        path.write_text(serialize_single(cp), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = load_game(args.game)
    report = decompose(g, verify=not args.no_verify)
    pad = report.padding
    if pad.padded:
        print(f"padded {pad.original_dims[0]}x{pad.original_dims[1]} -> "
              f"{max(pad.original_dims)} actions ({pad.added_count} dummy on {pad.player} side, "
              f"payoff {fraction_str(pad.dummy_payoff)})")
    print(f"degenerate: {'true' if report.degeneracy.degenerate else 'false'}")
    print("permutation  cp1-eqs  cp2-eqs  matched")
    for entry in report.per_permutation:
        print(f"{str(list(entry.permutation)):<12} {len(entry.cp1_equilibria):^8} "
              f"{len(entry.cp2_equilibria):^8} {len(entry.matched_pairs):^7}")
    print(f"reconstructed equilibria: {len(report.reconstructed)}")
    for i, c in enumerate(report.reconstructed, 1):
        print(_format_candidate(i, c))
    if report.agreement is None:
        print("agreement: skipped")
    else:
        print(f"agreement: {'true' if report.agreement else 'false'}")
    if args.report:
        Path(args.report).write_text(json.dumps(report_json(report), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.report}")
    return EXIT_OK


def _cmd_restpoints(args) -> int:
    s = counterpart_games(load_game(args.game))[args.counterpart - 1]
    points = enumerate_rest_points(s)
    print(f"{s.name}: {len(points)} rest points")
    for i, rp in enumerate(points, 1):
        vec = "(" + ", ".join(str(v) for v in rp.point.to_jsonable()) + ")"
        labels = ",".join(s.actions[k] for k in rp.support)
        flags = "nash" if rp.is_nash else "not-nash"
        if rp.continuum:
            flags += ",continuum"
        print(f"{i}. x={vec}  support=[{labels}]  {flags}  payoff={fraction_str(rp.common_payoff)}")
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    g = load_game(args.game)
    dims = (g.n_rows, g.n_cols) if args.system == "coupled" else (max(g.n_rows, g.n_cols),)
    init = _parse_init(args.init, dims)
    traj = integrate(args.system, g, init, dt=args.dt, t_max=args.t_max)
    Path(args.out).write_text(export_csv(traj), encoding="utf-8")
    print(f"wrote {args.out} ({traj.n_states} states, t_max={traj.times[-1]:g})")
    return EXIT_OK


def _cmd_plot(args) -> int:
    g = load_game(args.game)
    starts = args.trajectories
    if args.kind == "square":
        spec = PlotSpec(kind="square", grid_resolution=args.grid,
                        trajectory_starts=_parse_plot_starts(starts, (g.n_rows, g.n_cols)))
        svg = plot_unit_square(g, spec)
    else:
        s = counterpart_games(g)[args.kind == "cp2"]
        spec = PlotSpec(kind="simplex", grid_resolution=args.grid,
                        trajectory_starts=_parse_plot_starts(starts, (s.n,)))
        svg = plot_simplex(s, spec)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_plot_starts(starts, dims):
    if starts in (None, "lattice"):
        return starts
    parsed = []
    for item in starts.split(";"):
        try:
            vals = [float(v) for v in item.split(",")]
        except ValueError as exc:
            raise ValidationError(f"trajectory start is not numeric: {item!r}") from exc
        if len(dims) == 2:
            if len(vals) != dims[0] + dims[1]:
                raise ValidationError(f"trajectory start needs {dims[0] + dims[1]} components: {item!r}")
            parsed.append((vals[:dims[0]], vals[dims[0]:]))
        else:
            if len(vals) != dims[0]:
                raise ValidationError(f"trajectory start needs {dims[0]} components: {item!r}")
            parsed.append(vals)
    return parsed


def _cmd_verify(args) -> int:
    report = verify_roundtrip(args.trials, args.size, args.seed)
    print(f"trials={report.trials} size={report.size} seed={report.seed}")
    print(f"tested={report.tested} discarded_degenerate={report.discarded_degenerate}")
    if report.passed:
        print("pass (0 counterexamples)")
        return EXIT_OK
    print("FAIL")
    print(json.dumps(report.counterexample, indent=2))
    return TheoremViolation.exit_code


# each subcommand's help line and handler, in the order `cpg --help` lists them
_COMMANDS = {
    "solve": ("enumerate all Nash equilibria", _cmd_solve),
    "counterparts": ("write the two counterpart games", _cmd_counterparts),
    "decompose": ("reconstruct equilibria from the counterparts", _cmd_decompose),
    "restpoints": ("list replicator rest points of a counterpart", _cmd_restpoints),
    "dynamics": ("integrate replicator dynamics to CSV", _cmd_dynamics),
    "plot": ("render a phase portrait to SVG", _cmd_plot),
    "verify": ("randomized decomposition round-trip check", _cmd_verify),
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """Give `p`, the parser of subcommand `command`, its arguments and handler."""
    if command == "solve":
        p.add_argument("game")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true", default=True)
        mode.add_argument("--float", action="store_true",
                          help="print the exact equilibria in float64, each mix from a float64 "
                               "re-solve of its support system")
        p.add_argument("--json", action="store_true")
    elif command == "counterparts":
        p.add_argument("game")
        p.add_argument("--out", default=".")
    elif command == "decompose":
        p.add_argument("game")
        p.add_argument("--no-verify", action="store_true")
        p.add_argument("--report")
    elif command == "restpoints":
        p.add_argument("game")
        p.add_argument("--counterpart", type=int, choices=(1, 2), required=True)
    elif command == "dynamics":
        p.add_argument("game")
        p.add_argument("--system", choices=("coupled", "cp1", "cp2"), required=True)
        p.add_argument("--init", required=True)
        p.add_argument("--dt", type=float, default=0.01)
        p.add_argument("--t-max", type=float, default=50.0)
        p.add_argument("--out", required=True)
    elif command == "plot":
        p.add_argument("game")
        p.add_argument("--kind", choices=("square", "cp1", "cp2"), required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--grid", type=int)
        p.add_argument("--trajectories", default="lattice")
    elif command == "verify":
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--size", type=int, default=3)
        p.add_argument("--seed", type=int, default=42)
    p.set_defaults(command=command, fn=_COMMANDS[command][1])


def build_parser() -> argparse.ArgumentParser:
    """The whole `cpg` parser: the top level and every subcommand."""
    parser = _Parser(prog="cpg", description="Analyse two-player games through "
                     "their single-population counterpart decomposition.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), command)
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse `argv` as `build_parser()` does, but build only the parser that
    reads it: argv that starts with a subcommand goes to that subcommand alone,
    which is where the whole parser would send every remaining argument."""
    argv = list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"cpg {argv[0]}")  # the prog `add_parser` gives it
        _add_arguments(parser, argv[0])
        return parser.parse_args(argv[1:])
    return build_parser().parse_args(argv)


def run_cli(argv) -> int:
    try:
        args = _parse(argv)
        return args.fn(args)
    except _ParserExit as exc:
        return exc.code
    except CpgError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {CpgError.category}: {exc}", file=sys.stderr)
        return CpgError.exit_code


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
