#!/usr/bin/env python3
"""cpgames benchmark: four seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): `roundtrip`, `solve`, `portrait`
and `cli`; `all` runs each in its own process and prints every result.

With `--trace 0` the run measures whole cycles of operations for about
`--seconds` seconds (at least two cycles) and reports the end-to-end metrics: ops_per_s, op_s_p50,
op_s_tail, setup_s and peak_rss_mb (failed_ratio is reported beside them and
in the result's `failed`/`attempted` counts).  Times are normalised to host
speed: before every operation the run times a fixed reference loop that runs
no cpgames code, and each operation's seconds are scaled by REFERENCE_S over
the median reference time around it (see `host_scale`).  The raw wall-clock
values are in the run record.  With `--trace 1` it runs a
fixed list of operations twice, untraced in a fresh child process and traced
here, and reports the per-layer metrics of tracing.PER_LAYER together with
the tracing overhead.  Exact work counters are compared with the previous
traced run of the same seed and source, and any difference fails the run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Run records, span files and
temporary directories go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# numpy is a dependency of cpgames, not part of it.  Its import time swings
# with the host's state much more than the reference loop does (0.1-0.2 s),
# so it is paid here, before any set-up is timed.
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# op_s_tail percentile per workload, fixed so that a faster or slower change is
# compared at the same percentile.  Each has at least ten samples beyond it in
# a run of this commit at --seconds 30, and none sits on the edge between two
# groups of operations of different cost, where it would jump (README.md).
TAIL_PCT = {"roundtrip": 97, "solve": 50, "portrait": 50, "cli": 95}
# Whole cycles a run measures at least, however slow the host: with one cycle
# a slow run would cover fewer inputs than a fast one (on `solve` and
# `portrait` a cycle takes 10-16 s).
MIN_CYCLES = 2
SETUP_PROBES = 8  # fresh processes that time set-up, besides the run's own
IMPORT_PROBES = 5
EXIT_BAD_TREE = 2
# Host-speed normalisation.  The host's speed drifts by up to 2x over tens of
# seconds; the reference loop slows down with it, so dividing by its time
# cancels the drift while a change to cpgames moves only the operation.
REFERENCE_S = 7.5e-4  # nominal reference-loop seconds: about its median on a 2-vCPU VM
REFERENCE_WINDOW = 2  # a stage is scaled by the reference samples of stages j-2 .. j+2
# Reference-loop time after a stage, as a share of the stage's own time: a
# long stage averages the host's speed over its length, so its reference
# sample must average over a comparable stretch.
REFERENCE_SHARE = 0.1
SETUP_REFERENCE_S = 0.1  # reference-loop time after a set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, used by the run for its own child processes.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------- host normalisation

def reference_loop() -> float:
    """Seconds of a fixed loop (Fraction, small numpy and dict work), GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 80):
            s += Fraction(i, i + 7) * Fraction(3, i + 1)
        m = np.array([[0.0, 2.0, -1.0], [-1.0, 0.0, 2.0], [2.0, -1.0, 0.0]])
        x = np.array([0.2, 0.3, 0.5])
        for _ in range(50):
            f = m @ x
            x = x + 0.01 * x * (f - x @ f)
        d = {}
        for i in range(350):
            d[str(i)] = i * 0.5
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_time(after: float = 0.0) -> tuple[float, int]:
    """Time the reference loop for about REFERENCE_SHARE × `after` seconds.

    Returns (seconds, loops), at least one loop.  An untimed run goes first:
    the first run after an operation is about 10% slower, as it refills the
    caches the operation used, and the operation's own cache footprint must
    not move the normalisation.
    """
    reference_loop()
    seconds, loops = reference_loop(), 1
    while seconds < REFERENCE_SHARE * after:
        seconds += reference_loop()
        loops += 1
    return seconds, loops


def host_scale(reference: list[tuple[float, int]]) -> list[float]:
    """Per-stage factor REFERENCE_S / mean reference-loop time of the nearby samples."""
    w = REFERENCE_WINDOW
    scale = []
    for j in range(len(reference)):
        near = reference[max(0, j - w):j + w + 1]
        scale.append(REFERENCE_S * sum(n for _, n in near) / sum(t for t, _ in near))
    return scale


# --------------------------------------------------------------- set-up

def setup(name: str, seed: int, fixed_list: bool):
    """Import, input generation and warm-up.

    Returns the workload, the seconds taken and the warm-up outcomes as
    (label, error or None) pairs; warm-up operations count as attempted.
    """
    t0 = time.perf_counter()
    cp = workloads.import_program(ROOT / "src")
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[name](cp, ref, seed)
    for k in range(wl.trace_cycles if fixed_list else 1):
        wl.cycle(k)
    warm = [(f"warmup {op.label}", execute(op)[1]) for op in wl.warmup()]
    return wl, time.perf_counter() - t0, warm


def normalised_setup(name: str, seed: int):
    """Set-up as in `setup`, plus its seconds scaled by reference loops run after it."""
    wl, seconds, warm = setup(name, seed, fixed_list=False)
    (scale,) = host_scale([reference_time(SETUP_REFERENCE_S / REFERENCE_SHARE)])
    return wl, seconds, seconds * scale, warm


def execute(op, tracer=None, index=0, reference=None, last=0.0):
    """Run one operation and check its output.

    Returns (seconds of each stage, error or None).  With a `reference` list,
    a `reference_time` sample is appended to it before every stage, sized by
    the stage before (`last` seconds for the first).
    """
    staged = isinstance(op.run, tuple)
    results, seconds = [], []
    if tracer is not None:
        tracer.begin(index)
    try:
        for stage in op.run if staged else (op.run,):
            if reference is not None:
                reference.append(reference_time(seconds[-1] if seconds else last))
            t0 = time.perf_counter()
            try:
                results.append(stage())
            finally:
                seconds.append(time.perf_counter() - t0)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return seconds, f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.end()
    try:
        return seconds, op.check(results if staged else results[0])
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return seconds, f"check raised {exc!r}"


def child_json(*extra: str, seed: int, name: str) -> dict:
    """Run this script in a fresh process and return its last output line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- untraced run

def timed_loop(wl, seconds: float):
    """Whole cycles, closed loop, until the next cycle would pass `seconds`
    and at least MIN_CYCLES have run.

    A reference loop runs before each stage of an operation, outside its
    timing; `stages` holds each operation's stage seconds.
    """
    stages, reference, labels, failures = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        cycle_start = time.perf_counter()
        for op in wl.cycle(k):
            last = stages[-1][-1] if stages and stages[-1] else 0.0
            took, error = execute(op, reference=reference, last=last)
            stages.append(took)
            labels.append(op.label)
            if error:
                failures.append((op.label, error))
        wl.cycles[k] = []  # release the cycle's inputs
        k += 1
        now = time.perf_counter()
        if k >= MIN_CYCLES and (now - start) + (now - cycle_start) > seconds:
            return stages, reference, labels, failures, k, now - start


def latency_values(durations: list[float], ok: int, rank: int) -> dict:
    ordered = sorted(durations)
    return {"ops_per_s": ok / sum(durations), "op_s_p50": statistics.median(durations),
            "op_s_tail": ordered[rank - 1]}


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    wl, own_setup, own_setup_norm, warm = normalised_setup(name, seed)
    try:
        stages, reference, labels, loop_failures, cycles, wall = timed_loop(wl, seconds)
        untimed = warm
        if name == "cli":  # whole `python -m cpgames` processes
            untimed += [(op.label, execute(op)[1]) for op in wl.subprocess_checks()]
    finally:
        wl.close()
    failures = [u for u in untimed if u[1]] + loop_failures
    probes = [child_json("--setup-probe", seed=seed, name=name) for _ in range(SETUP_PROBES)]
    setups = [own_setup_norm] + [p["setup_s"] for p in probes]
    setups_wall = [own_setup] + [p["setup_wall_s"] for p in probes]
    scale = iter(host_scale(reference))
    durations = [sum(t * next(scale) for t in ts) for ts in stages]
    wall_s = [sum(ts) for ts in stages]
    n = len(durations)
    pct = TAIL_PCT[name]
    rank = max(1, math.ceil(pct / 100 * n))
    peak_kb = wl.child_peak_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {**latency_values(durations, n - len(loop_failures), rank),
              "setup_s": statistics.median(setups), "peak_rss_mb": peak_kb / 1024}
    kinds = {}
    for label, took in zip(labels, durations):
        kinds.setdefault(label.partition("#")[0], []).append(took)
    detail = {
        "samples": {"ops": n, "cycles": cycles, "setup": len(setups),
                    "by_kind": {k: len(ts) for k, ts in sorted(kinds.items())}},
        "op_s_p50_by_kind": {k: statistics.median(ts) for k, ts in sorted(kinds.items())},
        "op_s_tail": {"percentile": pct, "samples_beyond": n - rank,
                      "enough_samples": n - rank >= 10},
        "failed_ratio": len(failures) / (n + len(untimed)),
        "wall_clock": {**latency_values(wall_s, n - len(loop_failures), rank),
                       "setup_s": statistics.median(setups_wall)},
        "reference_loop_s": {"nominal": REFERENCE_S,
                             "median": statistics.median(t / n for t, n in reference)},
        "measured_wall_s": wall,
        "setup_s_samples": setups,
        "peak_rss_of": "largest cpg child process" if name == "cli" else "benchmark process",
        "op_seconds": [{"op": lb, "s": t, "stage_wall_s": ts}
                       for lb, t, ts in zip(labels, durations, stages)],
        "reference_s": reference,
    }
    if name == "roundtrip":
        detail["input"] = {"degenerate_share": wl.degenerate_share()}
    return {"attempted": n + len(untimed), "failures": failures, "values": values, "units": END_TO_END,
            "detail": detail}


# --------------------------------------------------------------- traced run

def fixed_pass(name: str, seed: int, tracer=None):
    """The traced run's fixed operation list, run once.

    Returns each operation's normalised seconds, the failures and the count
    attempted.
    """
    wl, _, warm = setup(name, seed, fixed_list=True)
    ops = [op for k in range(wl.trace_cycles) for op in wl.cycle(k)]
    stages, reference, failures = [], [], [w for w in warm if w[1]]
    if tracer is not None:
        tracer.install(wl.cp.package)
    try:
        for i, op in enumerate(ops):
            last = stages[-1][-1] if stages and stages[-1] else 0.0
            took, error = execute(op, tracer, i, reference=reference, last=last)
            stages.append(took)
            if error:
                failures.append((op.label, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
    scale = iter(host_scale(reference))
    durations = [sum(t * next(scale) for t in ts) for ts in stages]
    return durations, failures, len(ops) + len(warm)


def run_traced(name: str, seed: int) -> dict:
    untraced = child_json("--untraced-pass", seed=seed, name=name)
    tracer = tracing.Tracer()
    durations, failures, attempted = fixed_pass(name, seed, tracer)
    failures += [tuple(f) for f in untraced["failures"]]
    values = dict.fromkeys(tracing.PER_LAYER, 0.0)
    values.update(tracer.metrics())
    # Normalised and paired by operation, so that a change of host speed
    # between or within the passes does not move it.
    values["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(durations, untraced["durations"]))
    detail = {"samples": {"ops": len(durations)},
              "traced_s": sum(durations), "untraced_s": sum(untraced["durations"])}
    if name == "cli":
        imports = workloads.import_probe(ROOT, IMPORT_PROBES)
        values["cli.import_s"] = statistics.median(imports)
        values["cli.run_cli_s"] = statistics.mean(untraced["durations"])
        values["cli.startup_share"] = values["cli.import_s"] / (values["cli.import_s"] + values["cli.run_cli_s"])
        detail["samples"]["import"] = len(imports)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.json.gz")
    mismatches = compare_counters(name, seed, values)
    failures += [("exact counters", f"{k}: {old} before, {new} now") for k, old, new in mismatches]
    detail["counters_repeat"] = "mismatch" if mismatches else "ok"
    units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    return {"attempted": attempted, "failures": failures, "values": values, "units": units,
            "detail": detail}


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted(HERE.glob("*.py")) + [HERE / "reference.json"]
    for p in files:
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def compare_counters(name: str, seed: int, values: dict) -> list:
    """Compare exact counters with the last traced run of this seed and source."""
    path = OUT / f"counters-{name}-seed{seed}.json"
    current = {"source": source_digest(), "counters": {k: values[k] for k in tracing.EXACT}}
    mismatches = []
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["source"] == current["source"]:
            mismatches = [(k, previous["counters"].get(k), v) for k, v in current["counters"].items()
                          if previous["counters"].get(k) != v]
    path.write_text(json.dumps(current, indent=1), encoding="utf-8")
    return mismatches


# ------------------------------------------------------------------- output

def environment(seed: int, seconds: float, trace: int) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        sha = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        sha = None
    numpy = sys.modules.get("numpy")
    return {"git_sha": sha, "source_digest": source_digest(), "python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", None), "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": seed, "seconds": seconds, "trace": trace}


def report(name: str, seed: int, seconds: float, trace: int, res: dict) -> dict:
    failed = len(res["failures"])
    metrics = {k: {"value": v, "unit": res["units"][k]} for k, v in res["values"].items()}
    for label, error in res["failures"][:20]:
        print(f"FAILED {name} {label}: {error}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"{name:9s} {k:40s} {m['value']:.6g} {m['unit']}")
    print(f"{name:9s} {'failed_ratio':40s} {failed / max(1, res['attempted']):.6g} ratio "
          f"({failed} of {res['attempted']})")
    record = {"workload": name, **environment(seed, seconds, trace), "metrics": metrics,
              "attempted": res["attempted"], "failed": failed, "failures": res["failures"],
              **res["detail"]}
    if trace:
        record["layer_to_metric"] = {k: moves for k, (_, moves) in tracing.PER_LAYER.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "cpgames" / "__init__.py").is_file():
        print(f"error: no cpgames source under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_BAD_TREE
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        wl, seconds, normalised, _ = normalised_setup(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": normalised, "setup_wall_s": seconds}))
        return 0
    if args.untraced_pass:
        durations, failures, _ = fixed_pass(args.workload, args.seed)
        print(json.dumps({"durations": durations, "failures": failures}))
        return 0
    if args.trace:
        res = run_traced(args.workload, args.seed)
    else:
        res = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args.seed, args.seconds, args.trace, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
