"""CLI behaviour: subcommands, exit codes, output determinism."""

import dataclasses
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cpgames.decomposition
from cpgames import (CpgError, DomainEscape, MixedStrategy, NotRestPoint, PlotSpec, TheoremViolation,
                     cli, counterpart_games, export_csv, integrate, is_nash_bimatrix, pad_to_square,
                     parse_game, plot_simplex)
from cpgames.cli import BUNDLED_GAMES, main, run_cli
from cpgames.decomposition import MAX_TRIALS
from conftest import HOSTILE_DOCUMENTS, game_text


# a 2x2 game whose square plot's field grid overflows float64
GRID_OVERFLOW = json.dumps({"name": "t", "row_actions": ["a", "b"], "col_actions": ["c", "d"],
                            "row_payoffs": [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]],
                            "col_payoffs": [[1, 0], [0, 1]]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_bos_human(self, capsys):
        code, out, err = run(capsys, "solve", "bos")
        assert code == 0 and err == ""
        assert "3 equilibria" in out
        assert "x=(3/5, 2/5)" in out and "y=(2/5, 3/5)" in out

    def test_pd_json(self, capsys):
        code, out, _ = run(capsys, "solve", "pd", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 1
        assert doc[0]["x"] == ["0", "1"] and doc[0]["y"] == ["0", "1"]
        assert doc[0]["strict"] is True

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "solve", "bos", "--float", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 3
        mixed = [e for e in doc if len(e["support_x"]) == 2][0]
        assert abs(mixed["x"][0] - 0.6) < 1e-9

    def test_float_digits_on_bos(self, capsys):
        # --float renders with float64 elimination, not float() of the exact
        # values: the mixed equilibrium's 3/5 prints as 0.6000000000000001
        code, out, _ = run(capsys, "solve", "bos", "--float", "--json")
        assert code == 0
        mixed = json.loads(out)[2]
        assert mixed["x"] == [0.6000000000000001, 0.4]
        assert mixed["y"] == [0.4, 0.6000000000000001]
        assert mixed["payoffs"] == [1.2000000000000004, 1.2000000000000004]

    def test_missing_game(self, capsys):
        code, _, err = run(capsys, "solve", "nonexistent.json")
        assert code == 2
        assert err.startswith("error: input:")


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and err.startswith("error: usage:")

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "solve", "bos", "--bogus")
        assert code == 1 and err.startswith("error: usage:")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1


class TestDecompose:
    def test_bos_agreement(self, capsys):
        code, out, _ = run(capsys, "decompose", "bos")
        assert code == 0
        assert "reconstructed equilibria: 3" in out
        assert "agreement: true" in out

    def test_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "decompose", "leduc_empirical", "--report", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["agreement"] is True
        assert len(doc["reconstructed"]) == 1
        assert doc["reconstructed"][0]["x"] == ["29/35", "0", "6/35"]
        assert doc["reconstructed"][0]["y"] == ["9/28", "0", "19/28"]

    def test_no_verify(self, capsys):
        code, out, _ = run(capsys, "decompose", "pd", "--no-verify")
        assert code == 0 and "agreement: skipped" in out

    def test_bundled_games_never_exit_theorem(self, capsys):
        for name in ("pd", "bos", "rps", "bos_extended", "leduc_empirical", "fullsupport"):
            code, _, err = run(capsys, "decompose", name)
            assert code == 0, (name, err)

    def test_theorem_violation_exit_code(self, capsys, monkeypatch):
        # a matched pair that fails exact verification ends in exit code 4
        monkeypatch.setattr("cpgames.decomposition.is_nash_bimatrix", lambda *a, **k: False)
        code, out, err = run(capsys, "decompose", "bos_extended")
        assert code == 4
        assert err.startswith("error: theorem: ") and "original game" in err
        assert out == ""


class TestCounterparts:
    def test_writes_single_games(self, tmp_path, capsys):
        code, out, _ = run(capsys, "counterparts", "bos", "--out", str(tmp_path))
        assert code == 0
        cp1 = json.loads((tmp_path / "bos_cp1.json").read_text())
        cp2 = json.loads((tmp_path / "bos_cp2.json").read_text())
        assert cp1["payoffs"] == [[3, 0], [0, 2]]
        assert cp2["payoffs"] == [[2, 0], [0, 3]]
        assert cp2["actions"] == ["O", "M"]


class TestRestpoints:
    def test_extended_bos_cp2(self, capsys):
        code, out, _ = run(capsys, "restpoints", "bos_extended", "--counterpart", "2")
        assert code == 0
        assert "4 rest points" in out
        assert out.count("not-nash") == 2

    def test_continuum_flag(self, tmp_path, capsys):
        cases = [
            # counterpart 1 is [[1, 1], [1, 1]], so every mix is a rest point
            ([[1, 1], [1, 1]], "3. x=(1/2, 1/2)  support=[a,b]  nash,continuum  payoff=1"),
            # rows a and c tie against every mix on {a, c}: the positive segment
            # of that solution line has the midpoint (1/2, 0, 1/2), and
            # elimination's particular solution, (0, 0, 1), is one of its ends
            ([[1, 1, 0], [2, 2, 1], [1, -1, 0]],
             "4. x=(1/2, 0, 1/2)  support=[a,c]  not-nash,continuum  payoff=1/2"),
        ]
        for payoffs, last in cases:
            actions = list("abc"[:len(payoffs)])
            path = tmp_path / "flat.json"
            path.write_text(json.dumps({"name": "flat", "row_actions": actions, "col_actions": actions,
                                        "row_payoffs": payoffs, "col_payoffs": payoffs}))
            code, out, err = run(capsys, "restpoints", str(path), "--counterpart", "1")
            assert code == 0 and err == ""
            assert out.endswith(last + "\n")

    def test_requires_counterpart(self, capsys):
        code, _, err = run(capsys, "restpoints", "bos_extended")
        assert code == 1


class TestDynamics:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "dynamics", "pd", "--system", "coupled",
                           "--init", "0.9,0.1;0.9,0.1", "--dt", "0.01",
                           "--t-max", "1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,y1,y2" and len(lines) == 102

    def test_cp_system(self, tmp_path, capsys):
        out_path = tmp_path / "cp.csv"
        code, _, _ = run(capsys, "dynamics", "rps", "--system", "cp1",
                         "--init", "0.5,0.3,0.2", "--t-max", "1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("t,x1,x2,x3\n")

    @pytest.mark.parametrize("system", ["cp1", "cp2"])
    def test_cp_system_of_non_square_game(self, tmp_path, capsys, system):
        # bos_extended is 2x3, so its counterparts are those of the padded 3x3 game
        padded, _ = pad_to_square(cli.load_game("bos_extended"))
        out_path = tmp_path / "cp.csv"
        code, _, err = run(capsys, "dynamics", "bos_extended", "--system", system,
                           "--init", "0.4,0.4,0.2", "--t-max", "2", "--out", str(out_path))
        assert code == 0 and err == ""
        traj = integrate(system, padded, [0.4, 0.4, 0.2], t_max=2)
        assert out_path.read_bytes() == export_csv(traj).encode("utf-8")
        code, _, err = run(capsys, "dynamics", "bos_extended", "--system", system,
                           "--init", "0.5,0.5", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err == "error: input: --init population has 2 components, expected 3\n"

    def test_bad_init_exits_2(self, tmp_path, capsys):
        for bad in ("0.5,0.6;0.5,0.5", "0.9,0.1", "-0.1,1.1;0.5,0.5", "a,b;0.5,0.5", "nan,1;0.5,0.5"):
            code, _, err = run(capsys, "dynamics", "pd", "--system", "coupled",
                               f"--init={bad}", "--out", str(tmp_path / "x.csv"))
            assert code == 2, bad
            assert err.startswith("error: input:")

    @pytest.mark.parametrize("argv", [("--t-max", "inf"), ("--t-max", "nan"), ("--dt", "nan"),
                                      ("--t-max", "1e300", "--dt", "1e-300")])
    def test_non_finite_time_exits_2(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, "dynamics", "pd", "--system", "coupled",
                           "--init", "0.5,0.5;0.5,0.5", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err.startswith("error: input:")
        assert not (tmp_path / "x.csv").exists()


    def test_record_over_cap_exits_2(self, tmp_path, capsys):
        # 1e302 steps: the record's size is refused before numpy sees it
        code, _, err = run(capsys, "dynamics", "pd", "--system", "coupled",
                           "--init", "0.5,0.5;0.5,0.5", "--t-max", "1e300",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.startswith("error: input: RK4 record of") and "cap of 50000000 values" in err
        assert not (tmp_path / "x.csv").exists()


class TestPlot:
    def test_square_and_simplex(self, tmp_path, capsys):
        sq = tmp_path / "pd.svg"
        code, _, _ = run(capsys, "plot", "pd", "--kind", "square", "--out", str(sq),
                         "--trajectories", "0.9,0.1,0.9,0.1")
        assert code == 0 and sq.read_text().startswith("<svg")
        tri = tmp_path / "cp1.svg"
        code, _, _ = run(capsys, "plot", "leduc_empirical", "--kind", "cp1",
                         "--out", str(tri))
        assert code == 0
        svg = tri.read_text()
        assert svg.count('<circle class="marker-nash-stable"') == 1

    @pytest.mark.parametrize("kind", ["cp1", "cp2"])
    def test_simplex_of_non_square_game(self, tmp_path, capsys, kind):
        padded, _ = pad_to_square(cli.load_game("bos_extended"))
        out_path = tmp_path / "cp.svg"
        code, _, err = run(capsys, "plot", "bos_extended", "--kind", kind, "--out", str(out_path))
        assert code == 0 and err == ""
        svg = plot_simplex(counterpart_games(padded)[kind == "cp2"], PlotSpec(kind="simplex"))
        assert out_path.read_bytes() == svg.encode("utf-8")

    def test_simplex_trajectories(self, tmp_path, capsys):
        out_path = tmp_path / "cp.svg"
        code, _, err = run(capsys, "plot", "rps", "--kind", "cp1", "--out", str(out_path),
                           "--trajectories", "0.2,0.3,0.5;0.6,0.1,0.3")
        assert code == 0 and err == ""
        cp1 = counterpart_games(cli.load_game("rps"))[0]
        svg = plot_simplex(cp1, PlotSpec(kind="simplex", trajectory_starts=[[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]))
        assert out_path.read_bytes() == svg.encode("utf-8")

    def test_square_on_3x3_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "plot", "rps", "--kind", "square",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2

    def test_nan_trajectory_start_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "plot", "bos", "--kind", "square", "--out", str(tmp_path / "x.svg"),
                           "--trajectories", "nan,1,0.5,0.5")
        assert code == 2 and err.startswith("error: input:")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("game, kind, starts, message", [
        ("bos", "square", "0.5,x,0.5,0.5", "trajectory start is not numeric: '0.5,x,0.5,0.5'"),
        ("bos", "square", "0.5,0.5", "trajectory start needs 4 components: '0.5,0.5'"),
        ("rps", "cp1", "0.5,0.5", "trajectory start needs 3 components: '0.5,0.5'")])
    def test_malformed_trajectories_exit_2(self, tmp_path, capsys, game, kind, starts, message):
        code, out, err = run(capsys, "plot", game, "--kind", kind, "--out", str(tmp_path / "x.svg"),
                             "--trajectories", starts)
        assert (code, out, err) == (2, "", f"error: input: {message}\n")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("game, kind", [("bos", "square"), ("rps", "cp1")])
    def test_grid_zero_exits_2(self, tmp_path, capsys, game, kind):
        code, out, err = run(capsys, "plot", game, "--kind", kind, "--grid", "0",
                             "--out", str(tmp_path / "x.svg"))
        assert code == 2 and out == ""
        assert err == "error: input: resolution must be at least 2\n"
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("game, kind, res, largest", [("bos", "square", 502, 501), ("rps", "cp1", 481, 480)])
    def test_grid_below_one_px_exits_2(self, tmp_path, capsys, game, kind, res, largest):
        code, out, err = run(capsys, "plot", game, "--kind", kind, "--grid", str(res),
                             "--out", str(tmp_path / "x.svg"))
        assert code == 2 and out == ""
        assert err == (f"error: input: grid resolution {res} puts arrows less than 1 px apart; "
                       f"at most {largest} fits this plot\n")
        assert not (tmp_path / "x.svg").exists()


class TestVerify:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "15", "--size", "2", "--seed", "3")
        assert code == 0
        assert "pass (0 counterexamples)" in out

    def test_disagreement_fails_with_counterexample(self, capsys, monkeypatch):
        # a round trip whose decomposition disagrees with the direct solver
        # stops there: exit 4, FAIL, and the game with both equilibrium
        # lists as JSON, each equilibrium an exact profile of that game
        decompose = cpgames.decomposition.decompose
        monkeypatch.setattr(cpgames.decomposition, "decompose",
                            lambda *a, **k: dataclasses.replace(decompose(*a, **k), agreement=False))
        code, out, err = run(capsys, "verify", "--trials", "10", "--size", "2", "--seed", "5")
        assert code == 4 and err == ""
        head, _, body = out.partition("FAIL\n")
        assert head.startswith("trials=10 size=2 seed=5\ntested=1 ")
        doc = json.loads(body)
        assert set(doc) == {"game", "reconstructed", "direct_solution"}
        game = parse_game(json.dumps(doc["game"]))
        assert doc["direct_solution"] and doc["direct_solution"] == doc["reconstructed"]
        for eq in doc["direct_solution"]:
            x, y = MixedStrategy.exact(eq["x"]), MixedStrategy.exact(eq["y"])
            assert is_nash_bimatrix(game, x, y, tol=0.0)

    @pytest.mark.parametrize("argv", [("--trials", "-3"), ("--size", "0"), ("--size", "6"),
                                      ("--trials", "99999999999999999999")])
    def test_arguments_it_cannot_honour_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: input:")

    def test_trials_capped_before_any_draw(self, capsys, monkeypatch):
        # one past the cap is refused before a game is drawn; the cap itself
        # reaches the first draw, which here stops the run
        class Drawn(Exception):
            pass

        def draw(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(cpgames.decomposition, "random_game", draw)
        code, out, err = run(capsys, "verify", "--trials", str(MAX_TRIALS + 1), "--size", "2")
        assert (code, out) == (2, "")
        assert err == f"error: input: round-trip check capped at {MAX_TRIALS} trials\n"
        with pytest.raises(Drawn):
            run_cli(["verify", "--trials", str(MAX_TRIALS), "--size", "2"])


class TestDeterminism:
    def test_stdout_byte_identical(self, capsys):
        for argv in (["solve", "bos", "--json"],
                     ["decompose", "bos_extended"],
                     ["restpoints", "fullsupport", "--counterpart", "1"],
                     ["verify", "--trials", "10", "--size", "2", "--seed", "5"]):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2, argv

    def test_files_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run(capsys, "plot", "bos", "--kind", "square", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        for path in (c, d):
            run(capsys, "dynamics", "bos", "--system", "coupled",
                "--init", "0.7,0.3;0.2,0.8", "--t-max", "2", "--out", str(path))
        assert c.read_bytes() == d.read_bytes()


class TestParser:
    """Each command builds only its own subcommand's parser, and parses as the
    whole `cpg` parser would; commands in one process share no state."""

    # valid and invalid argv for every subcommand, plus the top level
    ARGVS = (
        ["solve", "pd"], ["solve", "bos", "--float", "--json"], ["solve", "bos", "--exact"],
        ["solve", "bos", "--float", "--exact"], ["solve", "--", "pd"], ["solve", "pd", "extra"],
        ["counterparts", "pd"], ["counterparts", "pd", "--out", "cp"],
        ["decompose", "bos", "--no-verify", "--report", "r.json"], ["decompose", "--report"],
        ["restpoints", "bos", "--counterpart", "2"], ["restpoints", "bos", "--counterpart", "3"],
        ["restpoints", "bos"],
        ["dynamics", "rps", "--system", "cp1", "--init", "a", "--dt", "0.1", "--t-max", "2",
         "--out", "x.csv"],
        ["dynamics", "rps", "--system", "cp3", "--init", "a", "--out", "x"],
        ["dynamics", "rps", "--system", "cp1", "--init", "a", "--dt", "fast", "--out", "x"],
        ["plot", "bos", "--kind", "square", "--grid", "7", "--out", "a.svg", "--trajectories", "0.5,0.5"],
        ["plot", "bos", "--kind", "square", "--grid", "x", "--out", "a.svg"], ["plot", "bos"],
        ["verify"], ["verify", "--trials", "5", "--size", "4", "--seed", "9"], ["verify", "--bogus"],
        [], ["bogus"], ["--bogus", "solve", "pd"],
    )

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_parse_as_whole_parser(self, argv):
        try:
            expected = vars(cli.build_parser().parse_args(argv))
        except cli.UsageError as exc:
            expected = f"usage error: {exc}"
        try:
            got = vars(cli._parse(argv))
        except cli.UsageError as exc:
            got = f"usage error: {exc}"
        assert got == expected

    @pytest.mark.parametrize("argv", [["-h"], *([c, "-h"] for c in cli._COMMANDS),
                                      ["solve", "pd", "--help"]], ids=" ".join)
    def test_same_help_as_whole_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as expected:
            cli.build_parser().parse_args(argv)
        help_text = capsys.readouterr().out
        with pytest.raises(SystemExit) as got:
            cli._parse(argv)
        assert expected.value.code == got.value.code == 0
        assert capsys.readouterr().out == help_text

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "-h"]], ids=" ".join)
    def test_run_cli_returns_on_help(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        help_text = capsys.readouterr().out
        assert cli.run_cli(argv) == 0
        out, err = capsys.readouterr()
        assert out == help_text and out.startswith("usage: cpg") and err == ""

    def test_only_the_command_parser_is_built(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert run(capsys, "solve", "pd")[0] == 0
        assert built == ["cpg solve"]
        built.clear()
        assert run(capsys, "bogus")[0] == 1
        assert len(built) == 8  # cpg and its 7 subcommands, for the usage error

    def test_flags_do_not_leak(self, capsys):
        _, out, _ = run(capsys, "solve", "pd", "--json")
        assert json.loads(out)[0]["x"] == ["0", "1"]
        code, out, _ = run(capsys, "solve", "pd")
        assert code == 0
        assert out.startswith("Prisoner's Dilemma: 1 equilibria (exact mode)\n")
        _, out, _ = run(capsys, "solve", "bos", "--float")
        assert "(float mode)" in out
        _, out, _ = run(capsys, "solve", "bos")
        assert "(exact mode)" in out and "x=(3/5, 2/5)" in out

    def test_recovery_after_errors(self, tmp_path, capsys):
        argv = ("dynamics", "rps", "--system", "cp1", "--init", "0.2,0.3,0.5",
                "--t-max", "1", "--out", str(tmp_path / "a.csv"))
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        csv = (tmp_path / "a.csv").read_bytes()
        errors = (
            # usage error inside the subcommand: the required --init and --out are missing
            (1, "error: usage:", ("dynamics", "rps", "--system", "cp1")),
            # input error after the bundled game was loaded
            (2, "error: input:", ("dynamics", "rps", "--system", "cp1", "--init", "0.5,0.6,0.1",
                                  "--out", str(tmp_path / "b.csv"))),
        )
        for want, prefix, bad in errors:
            code, out, err = run(capsys, *bad)
            assert code == want and out == "" and err.startswith(prefix)
            (tmp_path / "a.csv").unlink()
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (0, expected, "")
            assert (tmp_path / "a.csv").read_bytes() == csv

    def test_file_shadows_bundled_name(self, tmp_path, capsys, monkeypatch):
        _, out, _ = run(capsys, "solve", "pd")
        assert out.startswith("Prisoner's Dilemma: 1 equilibria")
        monkeypatch.chdir(tmp_path)
        for name in ("shadow", "reread"):
            # a coordination game with 3 equilibria, under the bundled game's name
            (tmp_path / "pd").write_text(
                json.dumps({"name": name, "row_actions": ["a", "b"], "col_actions": ["c", "d"],
                            "row_payoffs": [[1, 0], [0, 1]], "col_payoffs": [[1, 0], [0, 1]]}))
            code, out, _ = run(capsys, "solve", "pd")
            assert code == 0 and out.startswith(f"{name}: 3 equilibria")
        (tmp_path / "pd").unlink()
        _, out, _ = run(capsys, "solve", "pd")
        assert out.startswith("Prisoner's Dilemma: 1 equilibria")

    def test_directory_does_not_shadow_bundled_name(self, tmp_path, capsys, monkeypatch):
        _, expected, _ = run(capsys, "solve", "pd")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "counterparts", "pd", "--out", "pd")
        assert code == 0 and out == "wrote pd/pd_cp1.json\nwrote pd/pd_cp2.json\n"
        assert run(capsys, "solve", "pd") == (0, expected, "")


class Unforeseen(CpgError):
    """An error class that cli.py does not name."""


class TestFailurePath:
    """Every failure ends in one `error: <category>: <reason>` line and the
    exit code of its error class, never in a traceback."""

    @pytest.mark.parametrize("error, code, category", [
        (Unforeseen, 2, "input"), (DomainEscape, 3, "numeric"), (NotRestPoint, 3, "numeric"),
        (TheoremViolation, 4, "theorem")], ids=lambda v: getattr(v, "__name__", None))
    def test_code_and_category_come_from_the_class(self, capsys, monkeypatch, error, code, category):
        def fail(args):
            raise error("stubbed failure")

        monkeypatch.setitem(cli._COMMANDS, "solve", ("stubbed solve", fail))
        assert run(capsys, "solve", "pd") == (code, "", f"error: {category}: stubbed failure\n")

    # a 2x2 coordination game with 3,000-digit payoffs, under the bound, whose
    # mixed equilibrium has numerators and denominators of about 6,000 digits
    P, Q, R = "7" * 2999 + "1", "3" * 2999 + "1", "9" * 2999 + "7"
    HUGE_MIX = json.dumps({"name": "t", "row_actions": ["a", "b"], "col_actions": ["c", "d"],
                           "row_payoffs": [[f"{P}/{Q}", 0], [0, f"1/{R}"]],
                           "col_payoffs": [[f"{Q}/{R}", 0], [0, f"{R}/{P}"]]})

    CASES = [*((name, text, ("solve",)) for name, text in HOSTILE_DOCUMENTS.items()),
             ("non-utf8", b"\xff\xfe{}", ("solve",)),
             ("3000-digit-solve", HUGE_MIX, ("solve",)),
             ("3000-digit-decompose", HUGE_MIX, ("decompose",)),
             ("1e400-float", game_text("1e400"), ("solve", "--float")),
             ("1e400-dynamics", game_text("1e400"), ("dynamics", "--system", "coupled",
                                                     "--init", "0.5,0.5;0.5,0.5", "--out", "x.csv")),
             ("1e400-plot", game_text("1e400"), ("plot", "--kind", "square", "--out", "x.svg"))]

    @pytest.mark.parametrize("text, argv", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
    def test_hostile_game_file_exits_2(self, tmp_path, capsys, monkeypatch, text, argv):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "game.json"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert err.startswith("error: input: ") and err.count("\n") == 1 and err.endswith("\n")
        # only a value derived from the payoffs can fail after output has begun
        assert out == "" or argv == ("solve",) or argv == ("decompose",)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("argv", [
        ("dynamics", "--system", "coupled", "--init", "0.5,0.5;0.5,0.5", "--t-max", "1", "--out", "x.csv"),
        ("plot", "--kind", "square", "--out", "x.svg")], ids=lambda argv: argv[0])
    def test_float_overflow_exits_3(self, tmp_path, capsys, monkeypatch, argv):
        # a payoff of 1e300 is in float64's range, but the RK4 products
        # overflow it; the state turns NaN, which the simplex rule refuses
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "game.json"
        path.write_text(game_text("1e300"))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert err == "error: numeric: state component is not a number: the field overflowed float64\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_grid_overflow_exits_3(self, tmp_path, capsys, monkeypatch):
        # the grid's fitness differences overflow float64 before any RK4
        # step; the suite turns a numpy RuntimeWarning into a failure
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "game.json"
        path.write_text(GRID_OVERFLOW)
        code, out, err = run(capsys, "plot", str(path), "--kind", "square", "--out", "x.svg")
        assert (code, out) == (3, "")
        assert err == "error: numeric: field velocity is not finite: the field overflowed float64\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_os_error_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "dynamics", "pd", "--system", "coupled", "--init", "0.5,0.5;0.5,0.5",
                             "--t-max", "1", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: input: [Errno 2] No such file or directory: '{out_path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_exact_commands_run_past_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(game_text("1e400"))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 0 and err == "" and out.startswith("t: 3 equilibria (exact mode)\n")
        assert f"payoffs=(1{'0' * 400}, 1)" in out
        assert run(capsys, "decompose", str(path))[0] == 0


# the argv fuzz draws half its argv clean, each value from its option's
# well-formed values, and the other half with any value hostile at even odds:
# numbers that are empty, not finite, negative or huge, and paths that are
# empty, a directory or under a file.  --trials and --t-max are capped, so
# that an argv runs in milliseconds.  A plot that succeeds takes a quarter of
# a second, so --trajectories never plots the default start lattice, and its
# well-formed starts lie off the simplex: they pass the parser, the grid
# checks and the field sampling, and the first RK4 step refuses them
NUMBERS = ["", "nan", "inf", "-inf", "-1", "0", "1e400", "99999999999999999999"]
PATHS = ["", ".", "bad.json/x"]
OPTIONS = {  # name: (well-formed values, hostile values), or None for a flag
    "solve": {"--float": None, "--exact": None, "--json": None},
    "counterparts": {"--out": (["cp"], PATHS)},
    "decompose": {"--no-verify": None, "--report": (["r.json"], PATHS)},
    "restpoints": {"--counterpart": (["1", "2"], ["3", *NUMBERS])},
    "dynamics": {"--system": (["coupled", "cp1", "cp2"], ["cp3", ""]),
                 "--init": (["0.5,0.5;0.5,0.5", "0.9,0.1", "0.2,0.3,0.5"],
                            ["1,0;0", "nan,nan", "2,-1", ";", "a", "", "1e400,0"]),
                 "--dt": (["0.01", "0.25"], ["1e-300", "1e308", *NUMBERS]),
                 "--t-max": (["0.05", "1"], ["-1e400", *NUMBERS]),
                 "--out": (["a.csv"], PATHS)},
    "plot": {"--kind": (["square", "cp1", "cp2"], ["triangle", ""]),
             "--out": (["a.svg"], PATHS),
             "--grid": (["2", "3"], ["502", "100000", *NUMBERS]),
             "--trajectories": (["2,-1,0.5,0.5", "2,-1,0"],
                                ["0.2,0.3", "1,0;0", ";", "a,b", "2,-1,0,1", "1e400,0,0", "nan,nan,nan",
                                 "", "0.5,0.5;"])},
    "verify": {"--trials": (["1", "2"], ["2.5", *NUMBERS]),
               "--size": (["2", "4"], ["6", *NUMBERS]),
               "--seed": (["7"], NUMBERS)},
}
# the options each argv starts from: the required ones, which an argv may
# leave out, and the capped ones, which it never does
REQUIRED = {"restpoints": ["--counterpart"], "dynamics": ["--system", "--init", "--t-max", "--out"],
            "plot": ["--kind", "--out", "--trajectories"], "verify": ["--trials"]}
CAPPED = {"--t-max", "--trajectories", "--trials"}
# bad.json does not parse; big.json's RK4 products and grid.json's field
# grid overflow float64, which exits 3
GAMES = ([*BUNDLED_GAMES, "big.json", "grid.json"], ["bad.json", "nope", "", ".", "-", "--json"])


class TestArgvFuzz:
    """Every argv returns 0-3, and a non-zero exit writes exactly one
    `error: <category>:` line to stderr and nothing else.  Each test runs its
    argv in one directory, so a later argv may meet what an earlier one
    wrote."""

    @pytest.fixture
    def exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        (tmp_path / "big.json").write_text(game_text("1e300"), encoding="utf-8")
        (tmp_path / "grid.json").write_text(GRID_OVERFLOW, encoding="utf-8")

        def run_argv(argv):
            code = run_cli(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, code, err)
            if code:
                assert re.fullmatch(r"error: (usage|input|numeric): [^\n]*\n", err), (argv, err)
            else:
                assert err == "", (argv, err)
            return code

        return run_argv

    def test_each_hostile_value_alone(self, exit_code):
        # each subcommand with the first well-formed value of its game and of
        # every option that takes one, then with one of them hostile
        for command, options in OPTIONS.items():
            slots = [([name], pools) for name, pools in options.items() if pools is not None]
            if command != "verify":
                slots.insert(0, ([], GAMES))

            def argv(k=None, hostile=None):
                return [command, *(token for j, (head, pools) in enumerate(slots)
                                   for token in (*head, hostile if j == k else pools[0][0]))]

            assert exit_code(argv()) == (2 if command == "plot" else 0)
            for k, (_, pools) in enumerate(slots):
                for hostile in pools[1]:
                    exit_code(argv(k, hostile))

    def test_every_argv_ends_in_an_exit_code(self, exit_code):
        # options drawn in any order and number, a required option or the
        # game left out, and `--`, an unknown option or a dropped last token
        # put anywhere
        seen = set()

        @settings(derandomize=True, database=None, deadline=None, max_examples=200)
        @given(st.sampled_from([*OPTIONS, "bogus"]), st.booleans(), st.data())
        def check(command, hostile, data):
            def value(pools):
                return data.draw(st.sampled_from(pools[hostile and data.draw(st.booleans())]))

            def chance():
                return hostile and data.draw(st.integers(0, 3)) == 0

            options = OPTIONS.get(command, {})
            names = [name for name in REQUIRED.get(command, ()) if name in CAPPED or not chance()]
            if options:
                names += data.draw(st.lists(st.sampled_from(sorted(set(options) - CAPPED)), max_size=2))
            groups = [[name] if options[name] is None else [name, value(options[name])] for name in names]
            if command != "verify" and not chance():
                groups.append([value(GAMES)])
            argv = [token for group in data.draw(st.permutations(groups)) for token in group]
            for extra in ("--", "--bogus"):
                if chance():
                    argv.insert(data.draw(st.integers(0, len(argv))), extra)
            if argv and chance():
                argv.pop()
            seen.add((command, exit_code([command, *argv])))

        check()
        assert {code for _, code in seen} >= {0, 1, 2}
        assert {command for command, code in seen if code == 0} == set(OPTIONS) - {"plot"}


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "cpgames", "solve", "pd", "--json"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["x"] == ["0", "1"]

    def test_parse_game_file_from_disk(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text('{"name": "t", "row_actions": ["a", "b"], "col_actions": ["c", "d"],'
                        '"row_payoffs": [[1, 0], [0, 1]], "col_payoffs": [[1, 0], [0, 1]]}')
        proc = subprocess.run([sys.executable, "-m", "cpgames", "solve", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and "3 equilibria" in proc.stdout
