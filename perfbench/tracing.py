"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function defined in each layer module
(`games`, `linsolve`, `solver`, `decomposition`, `dynamics`, `stability`,
`viz`, `cli`) and rebinds the wrapper in every `cpgames` namespace that holds
the function, so `cpgames.solver.solve_linear` and
`cpgames.linsolve.solve_linear` both record.  A wrapper records a span (its
operation, parent span, name, start and end) only while an operation runs;
outside operations it calls straight through.  A layer's self time is its
spans' duration minus the time of the wrapped calls made inside them.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("games", "linsolve", "solver", "decomposition", "dynamics", "stability", "viz", "cli")

# Per-layer metrics of the traced run: name -> (unit, end-to-end metrics it
# should move).  Counts marked EXACT must repeat exactly for a seed.
PER_LAYER = {
    "linsolve.solve_linear.calls": ("count", "ops_per_s on roundtrip and solve; flat on portrait"),
    "linsolve.solve_linear.self_s": ("s", "ops_per_s on roundtrip and solve; flat on portrait"),
    "linsolve.us_per_call": ("us", "ops_per_s on roundtrip and solve; flat on portrait"),
    "linsolve.distinct_ratio": ("ratio", "ops_per_s on roundtrip much more than on solve"),
    "linsolve.unique_ratio": ("ratio", "ops_per_s on roundtrip much more than on solve"),
    "solver.detect_degeneracy.calls": ("count", "ops_per_s on roundtrip and solve"),
    "solver.detect_degeneracy.self_s": ("s", "ops_per_s on roundtrip and solve"),
    "solver.enumerate_nash_single.calls": ("count", "ops_per_s on roundtrip and solve"),
    "solver.enumerate_nash_single.self_s": ("s", "ops_per_s on roundtrip and solve"),
    "solver.enumerate_nash_bimatrix.self_s": ("s", "ops_per_s on roundtrip and solve"),
    "solver.enumerate_rest_points.self_s": ("s", "ops_per_s on roundtrip and solve"),
    "solver.degenerate_ratio": ("ratio", "ops_per_s on roundtrip and solve"),
    "decomposition.decompose.self_s": ("s", "op_s_p50 on roundtrip"),
    "decomposition.permutations": ("count", "op_s_p50 on roundtrip"),
    "decomposition.dedup_ratio": ("ratio", "op_s_p50 on roundtrip"),
    "games.is_nash_bimatrix.calls": ("count", "roundtrip and cli"),
    "games.is_nash_bimatrix.self_s": ("s", "roundtrip and cli"),
    "games.permute_columns.calls": ("count", "roundtrip and cli"),
    "games.counterpart_games.self_s": ("s", "roundtrip and cli"),
    "games.parse_game.self_s": ("s", "roundtrip and cli"),
    "dynamics.integrate.self_s": ("s", "op_s_p50 on portrait; less on cli (dynamics)"),
    "dynamics.rk4_steps": ("count", "op_s_p50 on portrait; less on cli (dynamics)"),
    "dynamics.us_per_step": ("us", "op_s_p50 on portrait; less on cli (dynamics)"),
    "dynamics.sample_field_grid.self_s": ("s", "op_s_p50 on portrait"),
    "stability.classify_rest_point.calls": ("count", "op_s_p50 on portrait"),
    "stability.classify_rest_point.self_s": ("s", "op_s_p50 on portrait"),
    "viz.plot.self_s": ("s", "op_s_p50 on portrait"),
    "viz.export_csv.self_s": ("s", "op_s_p50 on portrait"),
    "viz.svg_bytes": ("bytes", "op_s_p50 on portrait"),
    "cli.import_s": ("s", "op_s_p50 on cli only"),
    "cli.run_cli_s": ("s", "op_s_p50 on cli only"),
    "cli.startup_share": ("ratio", "op_s_p50 on cli only"),
    "trace.overhead_ratio": ("ratio", "none: traced wall time over untraced wall time"),
}
EXACT = ("linsolve.solve_linear.calls", "decomposition.permutations", "dynamics.rk4_steps",
         "solver.degenerate_ratio", "solver.detect_degeneracy.calls",
         "solver.enumerate_nash_single.calls", "games.is_nash_bimatrix.calls",
         "games.permute_columns.calls", "stability.classify_rest_point.calls",
         "linsolve.distinct_ratio", "linsolve.unique_ratio", "decomposition.dedup_ratio",
         "viz.svg_bytes")


class Tracer:
    def __init__(self):
        self.op = None  # index of the running operation; None records nothing
        self.spans: list[tuple] = []  # (op, span, parent, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds spent in child spans]
        self._systems: set = set()
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- wrapping
    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append([span, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = self._stack.pop()
                duration = end - start
                self.spans[span] = (self.op, span, parent, name, start, end)
                self.calls[name] += 1
                self.self_s[name] += duration - child
                if self._stack:
                    self._stack[-1][1] += duration
            if observe is not None:
                observe(self, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ operations
    def begin(self, op: int) -> None:
        self.op = op
        self._systems = set()

    def end(self) -> None:
        self.counts["linsolve.distinct"] += len(self._systems)
        self.op = None

    # --------------------------------------------------------------- results
    def metrics(self) -> dict:
        c, s, n = self.calls, self.self_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        solves = c["linsolve.solve_linear"]
        m = {
            "linsolve.solve_linear.calls": solves,
            "linsolve.solve_linear.self_s": s["linsolve.solve_linear"],
            "linsolve.us_per_call": 1e6 * ratio(s["linsolve.solve_linear"], solves),
            "linsolve.distinct_ratio": ratio(n["linsolve.distinct"], solves),
            "linsolve.unique_ratio": ratio(n["linsolve.unique"], solves),
            "solver.degenerate_ratio": ratio(n["solver.degenerate"], c["solver.detect_degeneracy"]),
            "decomposition.permutations": n["decomposition.permutations"],
            "decomposition.dedup_ratio": ratio(n["decomposition.reconstructed"],
                                               n["decomposition.matched"]),
            "dynamics.rk4_steps": n["dynamics.rk4_steps"],
            "dynamics.us_per_step": 1e6 * ratio(s["dynamics.integrate"], n["dynamics.rk4_steps"]),
            "viz.plot.self_s": s["viz.plot_unit_square"] + s["viz.plot_simplex"],
            "viz.svg_bytes": n["viz.svg_bytes"],
        }
        for name in PER_LAYER:
            layer, _, rest = name.partition(".")
            func, _, kind = rest.rpartition(".")
            if name not in m and kind in ("calls", "self_s") and func:
                table = c if kind == "calls" else s
                m[name] = table[f"{layer}.{func}"]
        return m

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"fields": ["op", "span", "parent", "name", "start", "end"],
                       "spans": self.spans}, f)


def _solve_linear(tr: Tracer, result, args) -> None:
    matrix, rhs = args[0], args[1]
    tr._systems.add((tuple(map(tuple, matrix)), tuple(rhs)))
    if result.status == "unique":
        tr.counts["linsolve.unique"] += 1


def _detect_degeneracy(tr: Tracer, result, args) -> None:
    tr.counts["solver.degenerate"] += bool(result.degenerate)


def _decompose(tr: Tracer, result, args) -> None:
    tr.counts["decomposition.permutations"] += len(result.per_permutation)
    tr.counts["decomposition.matched"] += sum(len(e.matched_pairs) for e in result.per_permutation)
    tr.counts["decomposition.reconstructed"] += len(result.reconstructed)


def _integrate(tr: Tracer, result, args) -> None:
    tr.counts["dynamics.rk4_steps"] += result.n_states - 1


def _plot(tr: Tracer, result, args) -> None:
    tr.counts["viz.svg_bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "linsolve.solve_linear": _solve_linear,
    "solver.detect_degeneracy": _detect_degeneracy,
    "decomposition.decompose": _decompose,
    "dynamics.integrate": _integrate,
    "viz.plot_unit_square": _plot,
    "viz.plot_simplex": _plot,
}
