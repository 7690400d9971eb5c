"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from cpgames import (
    MixedStrategy,
    SupportTable,
    classify_rest_point,
    counterpart_games,
    decompose,
    detect_degeneracy,
    enumerate_nash_bimatrix,
    enumerate_nash_single,
    enumerate_rest_points,
    integrate,
    integrate_batch,
    pad_to_square,
    rd_coupled_field,
    rd_jacobian,
    rd_single_field,
    two_species_ess_check,
)
import cpgames.solver
from cpgames.cli import main
from cpgames.decomposition import random_game
from conftest import count_calls


def F(s):
    return Fraction(s)


def profiles(cands):
    return {(c.x.probs, c.y.probs) for c in cands}


def points(cands):
    return {c.x.probs for c in cands}


def report(line):
    print(f"\n{line}")


def test_criterion_1_bos_equilibria(bos):
    eqs = enumerate_nash_bimatrix(bos)
    assert profiles(eqs) == {
        ((F(1), F(0)), (F(1), F(0))),
        ((F(0), F(1)), (F(0), F(1))),
        ((F("3/5"), F("2/5")), (F("2/5"), F("3/5"))),
    }
    cp1, cp2 = counterpart_games(bos)
    cp1_points = points(enumerate_nash_single(cp1))
    cp2_points = points(enumerate_nash_single(cp2))
    assert (F("2/5"), F("3/5")) in cp1_points
    assert (F("3/5"), F("2/5")) in cp2_points
    assert cp1_points == {(F(1), F(0)), (F(0), F(1)), (F("2/5"), F("3/5"))}
    assert cp2_points == {(F(1), F(0)), (F(0), F(1)), (F("3/5"), F("2/5"))}
    report("criterion 1 (BoS equilibria and counterparts): PASS")


def test_criterion_2_pd_unique_and_absorbing(pd):
    eqs = enumerate_nash_bimatrix(pd)
    assert profiles(eqs) == {((F(0), F(1)), (F(0), F(1)))}
    starts = [([i / 6, 1 - i / 6], [j / 6, 1 - j / 6]) for i in range(1, 6) for j in range(1, 6)]
    final = integrate_batch("coupled", pd, starts, dt=0.01, t_max=50, stride=5000)[-1]
    assert final.shape == (25, 4)
    assert np.abs(final - [0.0, 1.0, 0.0, 1.0]).max() < 1e-3  # (x, y) of every start
    report("criterion 2 (PD unique equilibrium absorbs 25 lattice starts): PASS")


def test_criterion_3_extended_bos(bos_extended):
    rep = decompose(bos_extended)
    assert profiles(rep.reconstructed) == {
        ((F(1), F(0)), (F(1), F(0), F(0))),
        ((F(0), F(1)), (F(0), F(0), F(1))),
        ((F("3/5"), F("2/5")), (F("2/5"), F(0), F("3/5"))),
    }
    by_perm = {e.permutation: e for e in rep.per_permutation}
    assert profiles(by_perm[(0, 1, 2)].matched_pairs) == {
        ((F(1), F(0), F(0)), (F(1), F(0), F(0)))}
    swap_pairs = profiles(by_perm[(0, 2, 1)].matched_pairs)
    assert ((F("3/5"), F("2/5"), F(0)), (F("2/5"), F(0), F("3/5"))) in swap_pairs
    assert ((F(0), F(1), F(0)), (F(0), F(0), F(1))) in swap_pairs

    padded, _ = pad_to_square(bos_extended)
    _, cp2 = counterpart_games(padded)
    non_nash = [r for r in enumerate_rest_points(cp2) if not r.is_nash]
    assert len(non_nash) == 2
    # Both sit on the closed O-R face: the interior edge point and the R vertex.
    assert {r.point.probs for r in non_nash} == {
        (F("11/41"), F("30/41"), F(0)),
        (F(0), F(1), F(0)),
    }
    report("criterion 3 (extended BoS decomposition and CP2 rest points): PASS")


def test_criterion_4_leduc(leduc):
    rep = decompose(leduc)
    assert profiles(rep.reconstructed) == {
        ((F("29/35"), F(0), F("6/35")), (F("9/28"), F(0), F("19/28")))}
    (eq,) = rep.reconstructed
    rounded_x = np.array([0.83, 0.0, 0.17])
    rounded_y = np.array([0.32, 0.0, 0.68])
    assert np.abs(np.array(eq.x.probs, dtype=float) - rounded_x).max() <= 5e-3
    assert np.abs(np.array(eq.y.probs, dtype=float) - rounded_y).max() <= 5e-3
    _, cp2 = counterpart_games(leduc)
    cp2_points = points(enumerate_nash_single(cp2))
    assert (F(1), F(0), F(0)) in cp2_points  # pure at D
    assert (F(0), F(0), F(1)) in cp2_points  # pure at F
    xs = {c.x.probs for c in rep.reconstructed}
    assert (F(1), F(0), F(0)) not in xs and (F(0), F(0), F(1)) not in xs
    report("criterion 4 (Leduc empirical game equilibrium): PASS")


def test_criterion_5_fullsupport(fullsupport):
    cp1, cp2 = counterpart_games(fullsupport)
    assert points(enumerate_nash_single(cp1)) == {
        (F("2/7"), F("3/7"), F("2/7")), (F(0), F(1), F(0)), (F("1/2"), F(0), F("1/2"))}
    assert points(enumerate_nash_single(cp2)) == {
        (F("1/3"), F("1/3"), F("1/3")), (F(0), F(0), F(1)), (F("1/2"), F("1/2"), F(0))}
    rep = decompose(fullsupport)
    assert profiles(rep.reconstructed) == {
        ((F("1/3"), F("1/3"), F("1/3")), (F("2/7"), F("3/7"), F("2/7")))}
    for s, point in ((cp1, [2 / 7, 3 / 7, 2 / 7]), (cp2, [1 / 3, 1 / 3, 1 / 3])):
        cls = classify_rest_point("single", s, point, nash_status=True)
        assert cls.local_type != "sink"
    report("criterion 5 (full-support game decomposition and instability): PASS")


def test_criterion_6_roundtrip_200_games(monkeypatch):
    # besides the time gate, a machine-independent work gate: the verdict
    # stops at the first witness, so the degenerate games drawn cost few
    # solved halves
    halves = count_calls(monkeypatch, cpgames.solver.HalfTable, "_solve")
    t0 = time.perf_counter()
    targets = {2: 67, 3: 67, 4: 66}
    tested = 0
    for size, target in targets.items():
        rng = random.Random(42)
        done = 0
        while done < target:
            g = random_game(rng, size)
            table = SupportTable(g)
            if detect_degeneracy(g, table=table).degenerate:
                continue
            rep = decompose(g, verify=True, table=table)
            assert rep.agreement is True, f"disagreement on size-{size} game {g}"
            for c in rep.direct_solution:
                assert len(c.support_x) == len(c.support_y)
            done += 1
            tested += 1
    elapsed = time.perf_counter() - t0
    assert tested == 200
    assert len(halves) <= 17986, f"round-trip suite solved {len(halves)} halves"
    assert elapsed < 60.0, f"round-trip suite took {elapsed:.1f}s"
    report(f"criterion 6 (200 random non-degenerate games agree, {elapsed:.1f}s): PASS")


def test_criterion_7_dynamics_invariants(bos, rps, all_games):
    # tangency on 1e4 random states spread across the bundled games
    rng = np.random.default_rng(2024)
    games = list(all_games.values())
    per_game = 10_000 // (2 * len(games))
    checked = 0
    for g in games:
        square = g if g.is_square else pad_to_square(g)[0]
        cp1, cp2 = counterpart_games(square)
        for _ in range(per_game):
            x = rng.dirichlet(np.ones(g.n_rows))
            y = rng.dirichlet(np.ones(g.n_cols))
            vx, vy = rd_coupled_field(g, x, y)
            assert abs(vx.sum()) <= 1e-12 and abs(vy.sum()) <= 1e-12
            s = rng.dirichlet(np.ones(cp1.n))
            assert abs(rd_single_field(cp1, s).sum()) <= 1e-12
            assert abs(rd_single_field(cp2, s).sum()) <= 1e-12
            checked += 4
    assert checked >= 10_000

    # RK4 order: halving dt cuts the error by at least 12x (nominal 16x)
    start = ([0.60001, 0.39999], [0.40001, 0.59999])
    ref = integrate("coupled", bos, start, dt=0.001, t_max=10)
    ref_final = np.concatenate([ref.xs[-1], ref.ys[-1]])
    errs = {}
    for dt in (0.02, 0.01):
        t = integrate("coupled", bos, start, dt=dt, t_max=10)
        errs[dt] = np.abs(np.concatenate([t.xs[-1], t.ys[-1]]) - ref_final).max()
    ratio = errs[0.02] / errs[0.01]
    assert ratio >= 12.0, f"order ratio {ratio:.2f}"

    # conserved quantity of the cycling dynamics
    traj = integrate("cp1", rps, [0.5, 0.3, 0.2], dt=0.01, t_max=100)
    q = np.log(traj.xs).mean(axis=1)
    drift = np.abs(q - q[0]).max()
    assert drift < 1e-6, f"conservation drift {drift:.2e}"
    report(f"criterion 7 (tangency, RK4 order {ratio:.1f}x, drift {drift:.1e}): PASS")


def test_criterion_8_stability(all_games, bos, rps):
    def fd(f, z, h=1e-6):
        z = np.asarray(z, dtype=float)
        jac = np.empty((f(z).shape[0], z.shape[0]))
        for j in range(z.shape[0]):
            dz = np.zeros(z.shape[0])
            dz[j] = h
            jac[:, j] = (f(z + dz) - f(z - dz)) / (2 * h)
        return jac

    for g in all_games.values():
        square = g if g.is_square else pad_to_square(g)[0]
        for s in counterpart_games(square):
            for rp in enumerate_rest_points(s):
                x = np.array(rp.point.probs, dtype=float)
                analytic = rd_jacobian("single", s, x)
                oracle = fd(lambda z: rd_single_field(s, z), x)
                assert np.abs(analytic - oracle).max() < 1e-5
        for c in enumerate_nash_bimatrix(g):
            x, y = np.array(c.x.probs, dtype=float), np.array(c.y.probs, dtype=float)
            n = g.n_rows

            def coupled_flat(z):
                vx, vy = rd_coupled_field(g, z[:n], z[n:])
                return np.concatenate([vx, vy])

            analytic = rd_jacobian("coupled", g, (x, y))
            oracle = fd(coupled_flat, np.concatenate([x, y]))
            assert np.abs(analytic - oracle).max() < 1e-5

    for pure in ([1, 0], [0, 1]):
        ms = MixedStrategy.exact(pure)
        cls = classify_rest_point("coupled", bos, (ms, ms), True)
        assert cls.category == "ess_stable" and cls.two_species_ess
        assert two_species_ess_check(bos, ms, ms)
    mixed = (MixedStrategy.exact(["3/5", "2/5"]), MixedStrategy.exact(["2/5", "3/5"]))
    cls = classify_rest_point("coupled", bos, mixed, True)
    assert cls.category == "nash_not_ess" and cls.local_type == "saddle"
    cp1, _ = counterpart_games(rps)
    cls = classify_rest_point("single", cp1, [1 / 3, 1 / 3, 1 / 3], True)
    assert cls.category == "nash_not_ess" and cls.local_type == "center"
    report("criterion 8 (Jacobians vs finite differences, classifications): PASS")


def test_criterion_9_cli_determinism(tmp_path):
    def run_capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        assert code == 0, argv
        return buf.getvalue()

    stdout_invocations = [
        ["solve", "pd", "--json"],
        ["solve", "bos", "--json"],
        ["solve", "rps", "--json"],
        ["solve", "bos_extended", "--json"],
        ["solve", "leduc_empirical", "--json"],
        ["solve", "fullsupport", "--json"],
        ["decompose", "bos_extended"],
        ["decompose", "leduc_empirical"],
        ["restpoints", "bos_extended", "--counterpart", "2"],
        ["verify", "--trials", "10", "--size", "2", "--seed", "5"],
    ]
    for argv in stdout_invocations:
        assert run_capture(argv) == run_capture(argv), argv

    file_invocations = [
        (["counterparts", "fullsupport", "--out", None], "fullsupport_cp1.json"),
        (["dynamics", "pd", "--system", "coupled", "--init", "0.9,0.1;0.9,0.1",
          "--t-max", "5", "--out", None], None),
        (["plot", "bos", "--kind", "square", "--trajectories",
          "0.9,0.1,0.2,0.8;0.3,0.7,0.6,0.4", "--out", None], None),
        (["plot", "leduc_empirical", "--kind", "cp1", "--out", None], None),
        (["plot", "fullsupport", "--kind", "cp2", "--out", None], None),
    ]
    for argv, inner in file_invocations:
        outputs = []
        for tag in ("a", "b"):
            target = tmp_path / f"{tag}-{argv[0]}-{hash(tuple(argv)) & 0xffff}"
            if argv[0] == "counterparts":
                target.mkdir(exist_ok=True)
                final = [a if a is not None else str(target) for a in argv]
                run_capture(final)
                outputs.append((target / inner).read_bytes())
            else:
                final = [a if a is not None else str(target) for a in argv]
                run_capture(final)
                outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], argv
    report("criterion 9 (CLI outputs byte-identical across runs): PASS")
