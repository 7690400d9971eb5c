"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one caller: the next operation starts
when the last one has finished.  Inputs come from fixed pools whose expected
outputs were recorded once by `record.py` into `reference.json`; the run's
seed shuffles each pool and deals its games into *cycles*.  A cycle holds a
fixed number of games from every stratum (size, degeneracy, plot kind), so
two seeds run different games in the same proportions.  A run measures whole
cycles only, which keeps medians and throughput independent of where the
time limit falls inside a cycle.

The harness reaches the program only through module attributes
(`cp.solver.detect_degeneracy(...)`), so the traced run's wrappers see every
call an operation makes.  Checks run outside operations, while the tracer
records nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

NAMES = ("roundtrip", "solve", "portrait", "cli")

# Pool sizes recorded in reference.json.
ROUNDTRIP_POOL = {3: 1000, 4: 1600}
ROUNDTRIP_PER_SIZE = 40  # games of each size in one cycle
# Per cycle: 7 generic and 7 degenerate games.  The 5x5 games outnumber the
# others so that the median falls among games of similar cost.
SOLVE_STRATA = {  # (rows, cols, payoff kind) -> (pool size, games per cycle)
    (5, 5, "wide"): (30, 4),
    (5, 5, "narrow"): (30, 4),
    (5, 6, "wide"): (30, 2),
    (5, 6, "narrow"): (30, 2),
    (6, 6, "wide"): (16, 1),
    (6, 6, "narrow"): (16, 1),
}
WIDE_PAYOFF = 1000  # wide-range payoffs in [-1000, 1000]: generic games
NARROW_PAYOFF = 5  # payoffs in [-5, 5], as decomposition.random_game draws
SQUARE_GAMES = ["bundled:pd", "bundled:bos"] + [f"random:{i}" for i in range(14)]
TRIANGLE_GAMES = ["bundled:rps", "bundled:bos_extended", "bundled:leduc_empirical",
                  "bundled:fullsupport"] + [f"random:{i}" for i in range(12)]
PORTRAIT_TRIANGLE_GAMES_PER_CYCLE = 3
CLI_GAMES = ("pd", "bos", "rps", "bos_extended", "leduc_empirical", "fullsupport")
CLI_DYNAMICS = {  # game -> (system, --init); --t-max is CLI_T_MAX
    "pd": ("coupled", "0.3,0.7;0.6,0.4"),
    "bos": ("coupled", "0.55,0.45;0.35,0.65"),
    "rps": ("cp1", "0.2,0.3,0.5"),
    "bos_extended": ("coupled", "0.4,0.6;0.2,0.3,0.5"),
    "leduc_empirical": ("cp2", "0.6,0.3,0.1"),
    "fullsupport": ("cp1", "0.1,0.2,0.7"),
}
CLI_T_MAX = "2"
CLI_VERIFY_SEEDS = tuple(range(1, 9))
CLI_VERIFY_ARGS = ("--trials", "10", "--size", "3")


def digest(data) -> str:
    """SHA-256 of bytes, of text, or of the canonical JSON form of a value."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def import_program(src: Path) -> SimpleNamespace:
    """Import cpgames from `src` and return its modules by layer name."""
    sys.path.insert(0, str(src))
    import cpgames  # noqa: F401  (binds the package the submodules live in)
    from cpgames import cli, decomposition, dynamics, games, linsolve, solver, stability, viz

    if Path(cpgames.__file__).resolve().parent != (src / "cpgames").resolve():
        raise RuntimeError(f"cpgames imported from {cpgames.__file__}, not from {src}")
    return SimpleNamespace(package=cpgames, games=games, linsolve=linsolve, solver=solver,
                           decomposition=decomposition, dynamics=dynamics,
                           stability=stability, viz=viz, cli=cli)


@dataclass
class Op:
    """One operation: `run` is timed; `check` returns an error or None.

    `run` is one callable, or a tuple of stages run in order; a staged
    operation's result is the list of its stage results.  run.py times each
    stage and runs its reference loop between stages, outside the timing.
    The label reads "<kind>#<input>".
    """

    label: str
    run: Callable[[], object] | tuple[Callable[[], object], ...]
    check: Callable[[object], str | None]

    @property
    def kind(self) -> str:
        return self.label.partition("#")[0]


# ---------------------------------------------------------------- game inputs

def roundtrip_game(cp, size: int, index: int):
    name = f"roundtrip-{size}-{index}"
    return cp.decomposition.random_game(random.Random(name), size, name=name)


def solve_game(cp, rows: int, cols: int, kind: str, index: int):
    name = f"solve-{rows}x{cols}-{kind}-{index}"
    rng = random.Random(name)
    bound = WIDE_PAYOFF if kind == "wide" else NARROW_PAYOFF
    a = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    b = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return cp.games.make_bimatrix(name, [f"R{i + 1}" for i in range(rows)],
                                  [f"C{j + 1}" for j in range(cols)], a, b)


def bundled_game(cp, name: str):
    text = (Path(cp.package.__file__).parent / "data" / f"{name}.json").read_text(encoding="utf-8")
    return cp.games.parse_game(text)


def portrait_game(cp, key: str, size: int):
    """A bundled game, or a seeded random square game with payoffs in [-5, 5]."""
    kind, _, ident = key.partition(":")
    if kind == "bundled":
        return bundled_game(cp, ident)
    name = f"portrait-{size}x{size}-{ident}"
    return cp.decomposition.random_game(random.Random(name), size, name=name)


def portrait_start(key: str, dims: tuple[int, ...]):
    """Seeded interior start for the game's CSV trajectory (tenths)."""
    rng = random.Random(f"portrait-start-{key}-{dims}")
    states = []
    for d in dims:
        while True:
            cuts = sorted(rng.sample(range(1, 10), d - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [10])]
            if all(p > 0 for p in parts):
                break
        states.append(tuple(p / 10 for p in parts))
    return tuple(states) if len(dims) == 2 else states[0]


# ------------------------------------------------------------ output digests

def equilibria_doc(cp, eqs) -> list:
    return [cp.solver.candidate_json(c) for c in eqs]


def rest_points_doc(cp, points) -> list:
    fs = cp.games.fraction_str
    return [{"point": rp.point.to_jsonable(), "support": list(rp.support), "nash": rp.is_nash,
             "payoff": fs(rp.common_payoff), "continuum": rp.continuum} for rp in points]


# ------------------------------------------------------------------ workloads

class Dealer:
    """Deals pool items in seeded order, reshuffling when a pool runs out."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.queue: list = []

    def take(self, count: int) -> list:
        out = []
        while len(out) < count:
            if not self.queue:
                self.queue = list(self.items)
                self.rng.shuffle(self.queue)
            out.append(self.queue.pop())
        return out


class Workload:
    name = ""
    trace_cycles = 1  # cycles in the traced run's fixed operation list

    def __init__(self, cp, ref: dict, seed: int):
        self.cp = cp
        self.ref = ref[self.name]
        self.rng = random.Random(f"{self.name}-{seed}")
        self.cycles: list[list[Op]] = []

    def cycle(self, k: int) -> list[Op]:
        """Operations of cycle k; built on first use, in seeded order."""
        while len(self.cycles) <= k:
            ops = self.build_cycle()
            self.rng.shuffle(ops)
            self.cycles.append(ops)
        return self.cycles[k]

    def build_cycle(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Small operations on inputs outside the pools, run before timing."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Roundtrip(Workload):
    """detect_degeneracy, then decompose(verify=True) on non-degenerate games."""

    name = "roundtrip"
    trace_cycles = 2

    def __init__(self, cp, ref, seed):
        super().__init__(cp, ref, seed)
        # Warm up on the first non-degenerate 3x3 game, kept out of the cycles.
        self.warm_index = min(map(int, self.ref["pool"]["3"]["digests"]))
        self.dealers = {}
        self.per_cycle = {}
        for size in ROUNDTRIP_POOL:
            pool = self.ref["pool"][str(size)]
            nondeg = set(map(int, pool["digests"])) - {self.warm_index if size == 3 else None}
            deg_items = [i for i in range(pool["count"]) if str(i) not in pool["digests"]]
            n_deg = round(ROUNDTRIP_PER_SIZE * len(deg_items) / pool["count"])
            self.per_cycle[size] = (n_deg, ROUNDTRIP_PER_SIZE - n_deg)
            self.dealers[(size, True)] = Dealer(deg_items, self.rng)
            self.dealers[(size, False)] = Dealer(sorted(nondeg), self.rng)

    def degenerate_share(self) -> dict:
        return {f"size{s}": d / (d + n) for s, (d, n) in self.per_cycle.items()}

    def build_cycle(self):
        ops = []
        for size, (n_deg, n_nd) in self.per_cycle.items():
            for degenerate, count in ((True, n_deg), (False, n_nd)):
                for index in self.dealers[(size, degenerate)].take(count):
                    ops.append(self.op(size, index))
        return ops

    def warmup(self):
        return [self.op(3, self.warm_index)]

    def op(self, size: int, index: int) -> Op:
        cp = self.cp
        g = roundtrip_game(cp, size, index)
        expected = self.ref["pool"][str(size)]["digests"].get(str(index))

        def run():
            if cp.solver.detect_degeneracy(g).degenerate:
                return None
            return cp.decomposition.decompose(g, verify=True)

        def check(report):
            if report is None:
                return None if expected is None else "reported degenerate, recorded non-degenerate"
            if expected is None:
                return "reported non-degenerate, recorded degenerate"
            if report.agreement is not True:
                return f"agreement is {report.agreement!r}"
            for c in report.reconstructed:
                if not cp.games.is_nash_bimatrix(g, c.x, c.y, tol=0.0):
                    return f"reconstructed {c.key()} is not an equilibrium"
            got = digest(equilibria_doc(cp, report.reconstructed))
            return None if got == expected else "reconstructed equilibria differ from reference"

        kind = "nondegenerate" if expected else "degenerate"
        return Op(f"{size}x{size}-{kind}#{index}", run, check)


class Solve(Workload):
    """Direct enumeration plus the rest points of both padded counterparts."""

    name = "solve"

    def __init__(self, cp, ref, seed):
        super().__init__(cp, ref, seed)
        self.dealers = {key: Dealer(range(len(self.ref["strata"][stratum_name(key)])), self.rng)
                        for key in SOLVE_STRATA}

    def build_cycle(self):
        ops = []
        for key, (_, per_cycle) in SOLVE_STRATA.items():
            for slot in self.dealers[key].take(per_cycle):
                ops.append(self.op(key, self.ref["strata"][stratum_name(key)][slot]))
        return ops

    def warmup(self):
        cp = self.cp
        g = cp.decomposition.random_game(random.Random("solve-warmup"), 3, name="solve-warmup")
        return [Op("warmup#3x3", self.stages(g), lambda result: None)]

    def stages(self, g):
        """Equilibria, then the rest points of each padded counterpart."""
        cp = self.cp
        counterparts = []

        def rest_points_1():
            padded, _ = cp.games.pad_to_square(g)
            counterparts.extend(cp.games.counterpart_games(padded))
            return cp.solver.enumerate_rest_points(counterparts[0])

        return (lambda: cp.solver.enumerate_nash_bimatrix(g), rest_points_1,
                lambda: cp.solver.enumerate_rest_points(counterparts[1]))

    def op(self, key, entry: dict) -> Op:
        cp = self.cp
        g = solve_game(cp, *key, entry["index"])

        def check(result):
            eqs, rp1, rp2 = result
            for c in eqs:
                if c.x.mode != "exact" or not cp.games.is_nash_bimatrix(g, c.x, c.y, tol=0.0):
                    return f"equilibrium {c.key()} fails the exact check"
            if digest(equilibria_doc(cp, eqs)) != entry["equilibria"]:
                return "candidate_json output differs from reference"
            if digest([rest_points_doc(cp, rp1), rest_points_doc(cp, rp2)]) != entry["rest_points"]:
                return "rest points differ from reference"
            return None

        return Op(f"{stratum_name(key)}#{entry['index']}", self.stages(g), check)


def stratum_name(key) -> str:
    rows, cols, kind = key
    return f"{rows}x{cols}-{kind}"


class Portrait(Workload):
    """Square and triangle phase portraits, plus one CSV trajectory per game."""

    name = "portrait"

    def __init__(self, cp, ref, seed):
        super().__init__(cp, ref, seed)
        self.squares = Dealer(SQUARE_GAMES, self.rng)
        self.triangles = Dealer(TRIANGLE_GAMES, self.rng)

    def build_cycle(self):
        ops = []
        for key in self.squares.take(1):
            g = portrait_game(self.cp, key, 2)
            ref = self.ref["square"][key]
            ops.append(self.svg_op(f"square#{key}", lambda g=g: self.cp.viz.plot_unit_square(g),
                                   ref["svg"]))
            ops.append(self.csv_op(f"csv-coupled#{key}", "coupled", g, portrait_start(key, (2, 2)),
                                   ref["csv"]))
        for key in self.triangles.take(PORTRAIT_TRIANGLE_GAMES_PER_CYCLE):
            padded, _ = self.cp.games.pad_to_square(portrait_game(self.cp, key, 3))
            ref = self.ref["triangle"][key]
            for tag, s in zip(("cp1", "cp2"), self.cp.games.counterpart_games(padded)):
                ops.append(self.svg_op(f"triangle#{tag}:{key}", lambda s=s: self.cp.viz.plot_simplex(s),
                                       ref[f"svg_{tag}"]))
            ops.append(self.csv_op(f"csv-cp1#{key}", "cp1", padded, portrait_start(key, (3,)), ref["csv"]))
        return ops

    def warmup(self):
        cp = self.cp
        pd = bundled_game(cp, "pd")
        cp1, _ = cp.games.counterpart_games(bundled_game(cp, "rps"))

        def run():
            cp.viz.plot_unit_square(pd, cp.viz.PlotSpec(kind="square", trajectory_starts=None))
            cp.viz.plot_simplex(cp1, cp.viz.PlotSpec(kind="simplex", trajectory_starts=None))
            cp.viz.export_csv(cp.dynamics.integrate("coupled", pd, ((0.5, 0.5), (0.5, 0.5)), t_max=1.0))

        return [Op("warmup#pd,rps", run, lambda result: None)]

    @staticmethod
    def svg_op(label, run, expected) -> Op:
        return Op(label, run, lambda svg: None if digest(svg) == expected else "SVG differs from reference")

    def csv_op(self, label, system, game, start, expected) -> Op:
        cp = self.cp

        def run():
            return cp.viz.export_csv(cp.dynamics.integrate(system, game, start))

        return Op(label, run, lambda csv: None if digest(csv) == expected else "CSV differs from reference")


def cli_commands(verify_seed: int) -> list[list[str]]:
    """Every command of one cli cycle, in canonical order."""
    cmds = []
    for game in CLI_GAMES:
        system, init = CLI_DYNAMICS[game]
        cmds += [
            ["solve", game],
            ["solve", game, "--float", "--json"],
            ["counterparts", game, "--out", "cp"],
            ["decompose", game, "--report", "report.json"],
            ["restpoints", game, "--counterpart", "1"],
            ["restpoints", game, "--counterpart", "2"],
            ["dynamics", game, "--system", system, "--init", init, "--t-max", CLI_T_MAX,
             "--out", "traj.csv"],
        ]
    cmds.append(["verify", *CLI_VERIFY_ARGS, "--seed", str(verify_seed)])
    return cmds


def snapshot(workdir: Path) -> dict:
    """Digest of every file a command wrote, by path relative to its directory."""
    return {p.relative_to(workdir).as_posix(): digest(p.read_bytes())
            for p in sorted(workdir.rglob("*")) if p.is_file()}


class Cli(Workload):
    """`cpg` commands over the bundled games.

    Timed operations call `cli.run_cli` in-process, in a fresh directory, and
    compare stdout and written files with the references.  Interpreter start
    and imports are part of set-up, which runs in fresh processes.
    `subprocess_checks` runs one game's commands as `python -m cpgames`
    subprocesses, untimed, for their exit codes, bytes and peak memory.
    """

    name = "cli"

    def __init__(self, cp, ref, seed):
        super().__init__(cp, ref, seed)
        self.in_process = True
        self.verify_seeds = Dealer(CLI_VERIFY_SEEDS, self.rng)
        self.check_game = self.rng.choice(CLI_GAMES)
        src = Path(cp.package.__file__).resolve().parents[1]
        self.work = src.parent / "perfbench" / "out" / f"cli-work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.count = 0
        self.child_peak_kb = 0

    def build_cycle(self):
        return [self.op(argv) for argv in cli_commands(self.verify_seeds.take(1)[0])]

    def warmup(self):
        return [self.op(["solve", "pd"])]

    def subprocess_checks(self) -> list[Op]:
        """The commands of one seeded game, each in a `python -m cpgames` subprocess."""
        self.in_process = False
        return [self.op(argv, "subprocess ") for argv in cli_commands(0) if self.check_game in argv]

    def op(self, argv: list[str], tag: str = "") -> Op:
        expected = self.ref["commands"][" ".join(argv)]

        def check(result):
            code, out, workdir = result
            files = snapshot(workdir)
            shutil.rmtree(workdir)
            if code != 0:
                return f"exit code {code}"
            if digest(out) != expected["stdout"]:
                return "stdout differs from reference"
            if files != expected["files"]:
                return "written files differ from reference"
            return None

        kind = tag + argv[0] + (" --float" if "--float" in argv else "")
        return Op(f"{kind}#{' '.join(argv)}", lambda: self.invoke(argv), check)

    def invoke(self, argv):
        """Run one command in a fresh directory: (exit code, stdout bytes, directory)."""
        self.count += 1
        workdir = self.work / str(self.count)
        workdir.mkdir(parents=True)
        if self.in_process:
            code, out = self.run_in_process(argv, workdir)
        else:
            code, out = self.run_subprocess(argv, workdir)
        return code, out, workdir

    def run_subprocess(self, argv, workdir):
        out_path = workdir.parent / f"{workdir.name}.stdout"
        with open(out_path, "wb") as out_file:
            proc = subprocess.Popen([sys.executable, "-m", "cpgames", *argv], cwd=workdir,
                                    env=self.env, stdout=out_file, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        out = out_path.read_bytes()
        out_path.unlink()
        return proc.returncode, out

    def run_in_process(self, argv, workdir):
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cp.cli.run_cli(argv)
        finally:
            os.chdir(here)
        return code, out.getvalue().encode("utf-8")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def import_probe(root: Path, repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters that only run `import cpgames.cli`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cpgames.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


WORKLOADS = {w.name: w for w in (Roundtrip, Solve, Portrait, Cli)}
