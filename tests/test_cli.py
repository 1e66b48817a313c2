import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from coopbc import oracle, regions
from coopbc.becbsc import BecBscBC, becbsc_family
from coopbc.channel import AuxiliaryJoint, make_bec, make_bsc
from coopbc.cli import build_parser, main
from coopbc.numerics import LogBase
from coopbc.regions import _fmt, boundary_from_csv, boundary_from_json

# channel pairs that exist but are not ordered as the bounds need (C2 < C1)
UNORDERED = [("gaussian", 0.5, 5.0), ("becbsc", 0.8, 0.2), ("becbsc", 0.1, 0.5)]


def run(args):
    return main([str(a) for a in args])


class TestRegion:
    def test_gaussian_summary_and_files(self, tmp_path, capsys):
        code = run(["region", "gaussian", 5, 0.5, "--c12", 0.5, "--out", tmp_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "alpha_th = 0.25" in out
        inner = boundary_from_csv((tmp_path / "inner.csv").read_text())
        outer = boundary_from_csv((tmp_path / "outer.csv").read_text())
        assert np.all(np.diff(inner.r1) > 0)
        assert np.all(outer.interp_r2(inner.r1) >= inner.r2 - 1e-12)

    def test_stdout_text(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["region", "gaussian", 5, 0.5, "--c12", 0.2, "--grid", 11, "--out", "o"]) == 0
        assert capsys.readouterr().out == (
            "C1 = 1.29248125036 bits\n"
            "C2 = 0.292481250361 bits\n"
            "alpha_th = 0.583027521095\n"
            "r1_th = 0.98453150743 bits\n"
            "wrote o/inner.csv\n"
            "wrote o/outer.csv\n"
        )

    def test_becbsc_rejects_large_c12(self, tmp_path, capsys):
        code = run(["region", "becbsc", 0.1, 0.2, "--c12", 1.0, "--out", tmp_path])
        assert code == 2
        assert "C1 - C2" in capsys.readouterr().err

    def test_threshold_rate_finite_at_the_largest_snr(self, tmp_path, capsys):
        code = run(["region", "gaussian", 1.7976931348623157e308, 1, "--c12", 0,
                    "--grid", 11, "--out", tmp_path])
        assert code == 0
        assert "alpha_th = 1\nr1_th = 512 bits\n" in capsys.readouterr().out

    def test_gaussian_rejects_bad_order(self, tmp_path):
        assert run(["region", "gaussian", 0.5, 5, "--c12", 0.1, "--out", tmp_path]) == 2

    def test_json_format(self, tmp_path):
        code = run(["region", "gaussian", 5, 0.5, "--c12", 0.25, "--which", "inner",
                    "--format", "json", "--out", tmp_path, "--grid", 101])
        assert code == 0
        boundary = boundary_from_json((tmp_path / "inner.json").read_text())
        assert len(boundary) > 10

    def test_nats_base_keeps_threshold_split(self, tmp_path, capsys):
        code = run(["region", "gaussian", 5, 0.5, "--c12", 0.5 * np.log(2),
                    "--base", "nats", "--out", tmp_path])
        assert code == 0
        assert "alpha_th = 0.25" in capsys.readouterr().out


class TestFig:
    def test_fig2_default(self, tmp_path):
        code = run(["fig2", "--out", tmp_path, "--grid", 401])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("fig2_c12_*.csv"))
        assert len(files) == 5
        diamonds = (tmp_path / "diamonds.csv").read_text().strip().split("\n")
        assert diamonds[0] == "c12,r1,r2"
        assert len(diamonds) == 6
        # diamond points sit on the sum-rate line
        c1 = 1.292481250360578
        for row in diamonds[1:]:
            _, r1, r2 = (float(v) for v in row.split(","))
            assert r1 + r2 == pytest.approx(c1, abs=1e-9)

    def test_fig3_custom_list(self, tmp_path):
        code = run(["fig3", "--c12", "0,0.2,0.4", "--out", tmp_path, "--grid", 401])
        assert code == 0
        assert len(list(tmp_path.glob("fig3_c12_*.csv"))) == 3

    def test_fig2_rejects_overlarge_c12(self, tmp_path):
        assert run(["fig2", "--c12", "2.0", "--out", tmp_path]) == 2
        # every rate is checked before the first file is written
        assert run(["fig2", "--c12", "0,2.0", "--out", tmp_path]) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("rates", ["0.1,0.1", "0.1,0.1000000000001", "0,0.2,0.1,0.1"])
    def test_rates_sharing_a_file_name_rejected(self, tmp_path, capsys, rates):
        # two rates with one 12-digit text would write one frontier file twice
        out = tmp_path / "out"
        err = assert_clean_exit_2(["fig3", "--c12", rates, "--out", out, "--grid", 11], capsys)
        assert "both write fig3_c12_0.1.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("which, count", [("fig2", 5), ("fig3", 4)])
    def test_default_rates_in_nats(self, tmp_path, which, count):
        # the default rates are bit values, scaled into the run's base
        diamonds = {}
        for base in ("bits", "nats"):
            out = tmp_path / base
            assert run([which, "--base", base, "--grid", 101, "--out", out]) == 0
            assert len(list(out.glob(f"{which}_c12_*.csv"))) == count
            rows = (out / "diamonds.csv").read_text().strip().split("\n")[1:]
            diamonds[base] = np.array([[float(v) for v in row.split(",")] for row in rows])
        bits, nats = diamonds["bits"], diamonds["nats"]
        assert nats == pytest.approx(bits * np.log(2), abs=1e-9)
        c1 = bits[0, 1] * np.log(2)  # at c12 = 0 the diamond is (C1, 0)
        assert nats[:, 1] + nats[:, 2] == pytest.approx(np.full(count, c1), abs=1e-9)


class TestCheckMc:
    def test_becbsc_holds(self, capsys):
        assert run(["check-mc", "becbsc", 0.1, 0.2]) == 0
        assert "holds" in capsys.readouterr().out

    def test_reversed_matrices_violated(self, tmp_path, capsys):
        good = tmp_path / "strong.json"
        bad = tmp_path / "weak.json"
        good.write_text(make_bsc(0.1).to_json())
        bad.write_text(make_bsc(0.2).to_json())
        code = run(["check-mc", "json", bad, good, "--resolution", 2000])
        out = capsys.readouterr().out
        assert code == 1
        assert "violated" in out and "P_X" in out

    def test_identical_matrices_hold(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(make_bec(0.3).to_json())
        assert run(["check-mc", "json", a, a, "--resolution", 500]) == 0

    def test_bad_params(self, capsys):
        assert "zero" in assert_clean_exit_2(["check-mc", "becbsc", "zero", "och"], capsys)

    def test_unordered_pair_reported_violated(self, capsys):
        assert run(["check-mc", "becbsc", 0.8, 0.2]) == 1
        assert "violated" in capsys.readouterr().out

    @pytest.mark.parametrize("params", [(0, 0), (0.1, 0.5)])
    def test_equal_or_useless_weak_channel_holds(self, params, capsys):
        assert run(["check-mc", "becbsc", *params]) == 0
        assert "holds" in capsys.readouterr().out

    def test_gaussian_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check-mc", "gaussian", 5, 0.5])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_rejected(self, resolution, capsys):
        assert run(["check-mc", "becbsc", 0.1, 0.2, "--resolution", resolution]) == 2
        assert "resolution" in capsys.readouterr().err


class TestSweep:
    def test_gaussian_endpoints(self, tmp_path):
        code = run(["sweep", "gaussian", 5, 0.5, "--points", 11, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "thresholds.csv").read_text().strip().split("\n")
        assert lines[0] == "c12,alpha_th,r1_th,r2_at_th"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[1] == pytest.approx(1.0, abs=1e-6)
        assert first[2] == pytest.approx(1.292481250360578, abs=1e-6)
        assert last[1] == pytest.approx(0.0, abs=1e-6)
        assert last[2] == pytest.approx(0.0, abs=1e-6)

    def test_becbsc_decreasing(self, tmp_path):
        code = run(["sweep", "becbsc", 0.1, 0.2, "--points", 12, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "thresholds.csv").read_text().strip().split("\n")[1:]
        qth = [float(ln.split(",")[1]) for ln in lines]
        assert all(b < a for a, b in zip(qth, qth[1:]))

    def test_single_point(self, tmp_path):
        code = run(["sweep", "becbsc", 0.1, 0.2, "--c12", "0", "--out", tmp_path])
        assert code == 0
        row = (tmp_path / "thresholds.csv").read_text().strip().split("\n")[1]
        vals = [float(v) for v in row.split(",")]
        assert vals[1] == pytest.approx(0.5, abs=1e-6)
        assert vals[2] == pytest.approx(0.9, abs=1e-6)

    # valid neighbouring rates whose thresholds tie within the bisection width
    @pytest.mark.parametrize("family, params, grid", [
        ("becbsc", (0.1, 0.2), "0,1e-12"),
        ("becbsc", (0.1, 0.2), "0.1,0.1000000000001"),
        ("gaussian", (5, 0.5), "0.1,0.1000000000001"),
    ])
    def test_unresolved_grid_is_invalid_input(self, tmp_path, capsys, family, params, grid):
        argv = ["sweep", family, *params, "--c12", grid, "--out", tmp_path]
        err = assert_clean_exit_2(argv, capsys)
        a, b = (float(v) for v in grid.split(","))
        assert f"c12 = {a} and c12 = {b} tie within the bisection width 1e-10" in err
        assert not (tmp_path / "thresholds.csv").exists()

    # neighbouring rates within 1e-9 of one range end, so both snap to it
    @pytest.mark.parametrize("family, params, grid, admitted", [
        ("gaussian", (5, 0.5), "-5e-10,-1e-10", 0.0),
        ("gaussian", (5, 0.5), "-5e-10,0", 0.0),
        ("gaussian", (5, 0.5), "1.0000000001,1.0000000005", 1.0),
        ("becbsc", (0.1, 0.2), "-5e-10,-1e-10", 0.0),
    ])
    def test_rates_admitted_as_one_are_invalid_input(self, tmp_path, capsys, family, params,
                                                     grid, admitted):
        argv = ["sweep", family, *params, f"--c12={grid}", "--out", tmp_path]
        err = assert_clean_exit_2(argv, capsys)
        a, b = (float(v) for v in grid.split(","))
        assert f"c12 = {a} and c12 = {b} are both admitted as c12 = {admitted}" in err
        assert not (tmp_path / "thresholds.csv").exists()

    def test_broken_family_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # every rate builds the same family, so the thresholds do not fall
        monkeypatch.setattr(BecBscBC, "family", lambda bc, c12, base: becbsc_family(bc, 0.1, base))
        code = run(["sweep", "becbsc", 0.1, 0.2, "--points", 3, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("check failed: alpha_th is not strictly decreasing")
        assert "Traceback" not in err
        assert not (tmp_path / "thresholds.csv").exists()


    @pytest.mark.parametrize("points", [0, -3])
    def test_points_below_one_rejected(self, tmp_path, capsys, points):
        code = run(["sweep", "becbsc", 0.1, 0.2, "--points", points, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "thresholds.csv").exists()


class TestOracleCompare:
    def test_gaussian_is_not_a_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["oracle-compare", "gaussian", 5, 0.5, "--c12", 0.1, "--out", tmp_path])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_small_grid_one_sided(self, tmp_path, capsys):
        # coarse grids deviate more than the release budget; pass a loose one.
        # Every frontier file reads back and re-emits byte-identically: grid
        # corners whose r1 share one 12-digit text are written once.
        readers = {"csv": (regions.boundary_from_csv, regions.boundary_to_csv),
                   "json": (regions.boundary_from_json, regions.boundary_to_json)}
        for u_size in (2, 3):
            for fmt, (read, write) in readers.items():
                out = tmp_path / f"u{u_size}-{fmt}"
                code = run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2, "--steps", 20,
                            "--u-size", u_size, "--budget", 0.5, "--format", fmt, "--out", out])
                assert code == 0
                meta = json.loads((out / "meta.json").read_text())
                assert meta["steps"] == 20 and meta["u_cardinality"] == u_size
                for kind in ("oracle", "parametric"):
                    for side in ("inner", "outer"):
                        text = (out / f"{kind}_{side}.{fmt}").read_text()
                        assert write(read(text)) == text, (u_size, fmt, kind, side)

    def test_deviation_and_dominance_in_meta(self, tmp_path, capsys):
        code = run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2, "--steps", 20,
                    "--u-size", 2, "--grid", 101, "--budget", 0.5, "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        meta = json.loads((tmp_path / "meta.json").read_text())
        bc = BecBscBC(0.1, 0.2)
        fam = bc.family(0.2, LogBase.BITS)
        grids = oracle.oracle_both(bc.pair(), fam.c12, oracle.GridSpec(steps=20, u_cardinality=2),
                                   LogBase.BITS)
        params = (regions.inner_boundary(fam, 101), regions.outer_boundary(fam, 101))
        for side, grid, param in zip(("inner", "outer"), grids, params):
            dev, dom = meta[f"{side}_deviation"], meta[f"{side}_dominance"]
            assert dev == oracle.frontier_deviation(grid, param) <= 0.5
            assert dom == oracle.frontier_dominance(grid, param) >= 0
            assert f"{side} deviation = {_fmt(dev)} bits, dominance = {_fmt(dom)} bits" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_meta_key_order_and_frontier_files(self, tmp_path, capsys, fmt):
        code = run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2, "--steps", 8,
                    "--grid", 101, "--budget", 1, "--format", fmt, "--out", tmp_path])
        assert code == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert list(meta) == ["u_cardinality", "steps", "evaluations", "runtime_seconds",
                              "inner_deviation", "outer_deviation",
                              "inner_dominance", "outer_dominance"]
        frontiers = [f"{kind}_{side}.{fmt}" for kind in ("oracle", "parametric")
                     for side in ("inner", "outer")]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*frontiers, "meta.json"])

    def test_budget_failure_exit(self, tmp_path):
        code = run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                    "--steps", 20, "--u-size", 2, "--budget", 1e-6, "--out", tmp_path])
        assert code == 1

    def test_huge_u_size_refused_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        err = assert_clean_exit_2(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                                   "--u-size", 10**8, "--out", tmp_path], capsys)
        assert time.perf_counter() - start < 1.0
        assert "over the budget" in err

    def test_u_size_past_the_float_range_is_invalid_input(self, tmp_path, capsys):
        assert_clean_exit_2(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                             "--u-size", 10**400, "--out", tmp_path], capsys)

    def test_bad_grid_refused_before_the_scan(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("the grid oracle ran")

        monkeypatch.setattr(oracle, "oracle_both", no_scan)
        err = assert_clean_exit_2(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                                   "--grid", 1, "--out", tmp_path], capsys)
        assert "grid_size must be >= 2" in err

    def test_deviation_decreases(self, tmp_path, capsys):
        devs = []
        for steps in (20, 40):
            run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                 "--steps", steps, "--u-size", 2, "--budget", 1.0,
                 "--out", tmp_path / str(steps)])
            out = capsys.readouterr().out
            line = [ln for ln in out.split("\n") if ln.startswith("inner deviation")][0]
            devs.append(float(line.split("=")[1].split()[0]))
        assert devs[1] < devs[0]


class TestSimulate:
    def law_file(self, tmp_path):
        law = AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[0.84, 0.16], [0.16, 0.84]]))
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law.as_dict()))
        return path

    def test_becbsc_run_and_rerun_identical(self, tmp_path, capsys):
        law = self.law_file(tmp_path)
        args = ["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                "--n", 10, "--r1", 0.3, "--r2", 0.2, "--c12", 0.2,
                "--trials", 300, "--seed", 9, "--input-law", law, "--out", tmp_path]
        assert run(args) == 0
        first = json.loads((tmp_path / "report.json").read_text())
        assert run(args) == 0
        second = json.loads((tmp_path / "report.json").read_text())
        assert first == second
        rows = (tmp_path / "sim_sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # header + two appended rows
        assert rows[0] == ("channel,n,r1,r2,c12,trials,seed,user1_joint_errors,user2_errors,"
                           "error_events,p_e_estimate,p_e_half_width")
        assert rows[1] == rows[2]

    def test_gaussian_needs_power_split(self, tmp_path):
        code = run(["simulate", "--channel", "gaussian", "--params", 5, 0.5,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2,
                    "--trials", 50, "--out", tmp_path])
        assert code == 2

    def test_gaussian_run(self, tmp_path):
        code = run(["simulate", "--channel", "gaussian", "--params", 5, 0.5,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2,
                    "--trials", 50, "--power-split", 0.5, "--out", tmp_path])
        assert code == 0

    @pytest.mark.parametrize("rates", [("0.6", "0.1"), ("inf", "0.1"), ("0.1", "nan")])
    def test_oversize_or_non_finite_rates_exit_2(self, tmp_path, capsys, rates):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 2000, "--r1", rates[0], "--r2", rates[1], "--c12", 0.1,
                    "--trials", 10, "--input-law", law, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2, "--trials", 10,
                    "--input-law", law, "--seed", -1, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "report.json").exists()

    def test_negative_rate_exit_2(self, tmp_path, capsys):
        law = self.law_file(tmp_path)
        err = assert_clean_exit_2(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                                   "--n", 8, "--r1=-0.1", "--r2", 0.2, "--c12", 0.2,
                                   "--trials", 10, "--input-law", law, "--out", tmp_path], capsys)
        assert err == "error: rates must be nonnegative\n"
        assert not (tmp_path / "report.json").exists()

    def test_link_wider_than_the_float_range(self, tmp_path):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 2000, "--r1", 0.001, "--r2", 0.001, "--c12", 0.6,
                    "--trials", 10, "--input-law", law, "--out", tmp_path])
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["trials"] == 10

    def test_rates_are_bits_only(self, tmp_path, capsys):
        # code sizes are ceil(2**(n*r)), so simulate does not register --base
        law = self.law_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                 "--n", 10, "--r1", 0.3, "--r2", 0.2, "--c12", 0.2,
                 "--trials", 10, "--input-law", law, "--base", "nats", "--out", tmp_path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --base nats" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_becbsc_needs_law(self, tmp_path):
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2,
                    "--trials", 50, "--out", tmp_path])
        assert code == 2

    def test_becbsc_rejects_power_split(self, tmp_path, capsys):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2, "--trials", 50,
                    "--input-law", law, "--power-split", 0.5, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.json").exists()

    def test_gaussian_rejects_input_law(self, tmp_path, capsys):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "gaussian", "--params", 5, 0.5,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2, "--trials", 50,
                    "--input-law", law, "--power-split", 0.5, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("family, a, b", UNORDERED)
    def test_unordered_pair_runs(self, tmp_path, family, a, b):
        law = ["--input-law", self.law_file(tmp_path)] if family == "becbsc" else []
        split = ["--power-split", 0.5] if family == "gaussian" else []
        code = run(["simulate", "--channel", family, "--params", a, b,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2, "--trials", 20,
                    *law, *split, "--out", tmp_path])
        assert code == 0


class TestUnorderedPairs:
    @pytest.mark.parametrize("family, a, b", UNORDERED)
    def test_bounds_commands_exit_2(self, tmp_path, capsys, family, a, b):
        commands = [["region", family, a, b, "--c12", 0.0], ["sweep", family, a, b]]
        if family == "becbsc":
            commands.append(["oracle-compare", family, a, b, "--c12", 0.0, "--steps", 4])
        for argv in commands:
            assert run(argv + ["--out", tmp_path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "0 < C2 < C1" in err
        assert not any(tmp_path.iterdir())


# the figure pairs; C1 - C2 is 1 bit for the Gaussian pair
EDGE_TOPS = {"gaussian": 1.0, "becbsc": BecBscBC(0.1, 0.2).cap1() - BecBscBC(0.1, 0.2).cap2()}
EDGE_COMMANDS = [
    ("gaussian", ["region", "gaussian", 5, 0.5, "--grid", 101]),
    ("gaussian", ["fig2", "--grid", 101]),
    ("gaussian", ["sweep", "gaussian", 5, 0.5]),
    ("becbsc", ["region", "becbsc", 0.1, 0.2, "--grid", 101]),
    ("becbsc", ["fig3", "--grid", 101]),
    ("becbsc", ["sweep", "becbsc", 0.1, 0.2]),
    ("becbsc", ["oracle-compare", "becbsc", 0.1, 0.2, "--steps", 8, "--budget", 1, "--grid", 101]),
]


def run_labelled(argv, c12, out, capsys):
    """Exit code, stdout and every file the command wrote, with what names the
    requested rate taken out: the rate in file names, the c12 column of csv
    tables, and meta.json's runtime."""
    code = run(argv + [f"--c12={c12!r}", "--out", out])
    label = f"_c12_{_fmt(c12)}."
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.name == "meta.json":
            text = {k: v for k, v in json.loads(text).items() if k != "runtime_seconds"}
        elif text.startswith("c12,"):
            text = [line.split(",", 1)[1] for line in text.splitlines()]
        files[path.relative_to(out).as_posix().replace(label, "_c12_C12.")] = text
    stdout = capsys.readouterr().out.replace(str(out), "OUT").replace(label, "_c12_C12.")
    return code, stdout, files


class TestEdgeRates:
    """A rate within 1e-9 outside [0, C1 - C2] gives the results of the
    nearest end of the range."""

    @pytest.mark.parametrize("end", ["zero", "top"])
    @pytest.mark.parametrize("family, argv", EDGE_COMMANDS)
    def test_same_output_as_the_range_end(self, tmp_path, capsys, family, argv, end):
        at = 0.0 if end == "zero" else EDGE_TOPS[family]
        near = -5e-10 if end == "zero" else at + 5e-10
        code, stdout, files = run_labelled(argv, near, tmp_path / "near", capsys)
        assert code == 0
        assert (code, stdout, files) == run_labelled(argv, at, tmp_path / "at", capsys)
        assert files


NON_FINITE_ARGV = {
    "region": lambda family, params, law: ["region", family, *params, "--c12", 0.1],
    "sweep": lambda family, params, law: ["sweep", family, *params, "--points", 3],
    "simulate": lambda family, params, law: [
        "simulate", "--channel", family, "--params", *params, "--n", 8, "--r1", 0.2,
        "--r2", 0.2, "--c12", 0.2, "--trials", 5,
        *(["--input-law", law] if family == "becbsc" else ["--power-split", 0.5]),
    ],
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_ARGV))
@pytest.mark.parametrize("family, params, slot", [
    ("gaussian", (5.0, 0.5), 0), ("gaussian", (5.0, 0.5), 1),
    ("becbsc", (0.1, 0.2), 0), ("becbsc", (0.1, 0.2), 1),
])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_channel_parameter_exits_2(tmp_path, capsys, command, family, params,
                                              slot, value):
    law = TestSimulate().law_file(tmp_path)
    params = [repr(p) for p in params]
    params[slot] = value
    argv = NON_FINITE_ARGV[command](family, params, law) + ["--out", tmp_path / "out"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def assert_clean_exit_2(argv, capsys) -> str:
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


SIMULATE_BECBSC = ["simulate", "--channel", "becbsc", "--params", 0.1, 0.2, "--n", 8,
                   "--r1", 0.2, "--r2", 0.2, "--c12", 0.2, "--trials", 5]
# malformed input files: name -> text, or None for a directory
MALFORMED_LAWS = {
    "list": "[0.5, 0.5]",
    "missing_rows": '{"u_size": 2, "p_u": [0.5, 0.5]}',
    "not_json": "p_u = 0.5",
    "nan_entry": '{"u_size": 2, "p_u": [0.5, 0.5], "p_x_given_u": [[NaN, 1.0], [0.5, 0.5]]}',
    "directory": None,
}
MALFORMED_CHANNELS = {
    "missing_size": '{"rows": [[1.0, 0.0], [0.0, 1.0]], "output_size": 2}',
    "list": "[[1.0, 0.0], [0.0, 1.0]]",
    "nan_entry": '{"input_size": 2, "output_size": 2, "rows": [[NaN, 1.0], [0.0, 1.0]]}',
    "directory": None,
}


def malformed_file(tmp_path, name, text):
    path = tmp_path / name
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    return path


class TestMalformedInputFiles:
    @pytest.mark.parametrize("name", sorted(MALFORMED_LAWS))
    def test_simulate_input_law(self, tmp_path, capsys, name):
        law = malformed_file(tmp_path, name, MALFORMED_LAWS[name])
        assert_clean_exit_2(SIMULATE_BECBSC + ["--input-law", law, "--out", tmp_path / "out"],
                            capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(MALFORMED_CHANNELS))
    def test_check_mc_json(self, tmp_path, capsys, name):
        bad = malformed_file(tmp_path, name, MALFORMED_CHANNELS[name])
        good = tmp_path / "good.json"
        good.write_text(make_bsc(0.1).to_json())
        assert_clean_exit_2(["check-mc", "json", bad, good], capsys)
        assert_clean_exit_2(["check-mc", "json", good, bad], capsys)

    def test_simulate_law_above_128_symbols(self, tmp_path, capsys):
        law = tmp_path / "law.json"
        law.write_text(json.dumps(AuxiliaryJoint(np.full(200, 1 / 200),
                                                 np.full((200, 2), 0.5)).as_dict()))
        argv = SIMULATE_BECBSC + ["--input-law", law, "--out", tmp_path / "out"]
        assert "limited to 128 symbols" in assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path, capsys):
        assert_clean_exit_2(SIMULATE_BECBSC + ["--input-law", tmp_path / "absent.json",
                                               "--out", tmp_path], capsys)


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["region", "becbsc", 0.1, 0.2, "--c12", 0.2],
        ["sweep", "becbsc", 0.1, 0.2, "--points", 3],
        ["check-mc", "becbsc", 0.1, 0.2],
        ["fig3", "--grid", 11],
    ])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, argv, tol):
        assert_clean_exit_2(argv + ["--tol", tol, "--out", tmp_path / "out"], capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_oracle_budget_must_be_finite_and_nonnegative(self, tmp_path, capsys, budget):
        argv = ["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2, "--steps", 10,
                "--budget", budget, "--out", tmp_path / "out"]
        assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()

    def test_oracle_budget_zero_is_a_failed_check(self, tmp_path, capsys):
        argv = ["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2, "--steps", 10,
                "--budget", 0, "--out", tmp_path]
        assert run(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["oracle-compare", "simulate"])
    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one(self, tmp_path, capsys, command, threads):
        argv = SUBCOMMAND_ARGV[command] + ["--threads", threads, "--out", tmp_path / "out"]
        assert "threads must be >= 1" in assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["oracle-compare", "simulate"])
    def test_threads_above_the_ceiling(self, tmp_path, capsys, command):
        argv = SUBCOMMAND_ARGV[command] + ["--threads", 257, "--out", tmp_path / "out"]
        assert "threads must be <= 256" in assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()


class TestFailureContract:
    """Input that a solver cannot meet or that does not fit in memory is
    invalid input: exit 2 with an ``error:`` line, and no file written."""

    # 200 bisection steps cannot narrow a bracket to 1e-300
    @pytest.mark.parametrize("argv", [
        ["region", "becbsc", 0.1, 0.2, "--c12", 0.2],
        ["sweep", "gaussian", 5, 0.5, "--points", 3],
        ["fig3", "--grid", 11],
    ])
    def test_unreachable_tol(self, tmp_path, capsys, argv):
        err = assert_clean_exit_2(argv + ["--tol", "1e-300", "--out", tmp_path / "out"], capsys)
        assert "did not reach" in err
        assert not (tmp_path / "out").exists()

    # a failed allocation is injected: a real one may succeed on an
    # overcommitting host
    @pytest.mark.parametrize("command, module, name", [
        ("region", "coopbc.regions", "inner_boundary"),
        ("check-mc", "coopbc.cli", "is_more_capable"),
        ("simulate", "coopbc.dnfsim", "build_superposition_codebook"),
    ])
    def test_failed_allocation(self, tmp_path, capsys, monkeypatch, command, module, name):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(f"{module}.{name}", out_of_memory)
        argv = SUBCOMMAND_ARGV[command] + ["--out", tmp_path / "out"]
        assert "Unable to allocate" in assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()

    def test_blocklength_past_the_float_range(self, tmp_path, capsys):
        argv = ["simulate", "--channel", "gaussian", "--params", 5, 0.5, "--n", "1" + "0" * 400,
                "--r1", 0, "--r2", 0, "--c12", 0, "--trials", 1, "--power-split", 0.5,
                "--out", tmp_path / "out"]
        assert "blocklength must be <= 2**53" in assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()

    def test_region_prints_nothing_on_invalid_grid(self, tmp_path, capsys):
        code = run(["region", "gaussian", 5, 0.5, "--c12", 0.2, "--grid", 1,
                    "--out", tmp_path / "out"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_region_prints_nothing_on_unwritable_out(self, tmp_path, capsys):
        # the frontier files are written before the summary is printed
        afile = tmp_path / "afile"
        afile.write_text("")
        code = run(["region", "gaussian", 5, 0.5, "--c12", 0.2, "--grid", 11, "--out", afile])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_budget_past_the_float_range(self, tmp_path, capsys):
        # log2 of the budget is 1329, so 2**1200 passes the budget check
        law = tmp_path / "law.json"
        law.write_text(json.dumps(AuxiliaryJoint(np.array([1.0]),
                                                 np.array([[0.5, 0.5]])).as_dict()))
        argv = ["simulate", "--channel", "becbsc", "--params", 0.1, 0.2, "--n", 2000,
                "--r1", 0.6, "--r2", 0, "--c12", 0, "--trials", 1, "--input-law", law,
                "--codeword-budget", 10 ** 400, "--out", tmp_path / "out"]
        assert "past the float range" in assert_clean_exit_2(argv, capsys)
        assert not (tmp_path / "out").exists()


SUBCOMMAND_ARGV = {
    "region": ["region", "gaussian", 5, 0.5, "--c12", 0.5],
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "check-mc": ["check-mc", "becbsc", 0.1, 0.2],
    "oracle-compare": ["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2],
    "sweep": ["sweep", "becbsc", 0.1, 0.2],
    "simulate": ["simulate", "--channel", "gaussian", "--params", 5, 0.5, "--n", 8,
                 "--r1", 0.2, "--r2", 0.2, "--c12", 0.2, "--trials", 5, "--power-split", 0.5],
}
FLAG_VALUES = {"--threads": 2, "--seed": 3, "--grid": 101, "--format": "json", "--tol": 1e-6}
# each subcommand registers only the flags it reads
IGNORED_FLAGS = [
    ("region", "--threads"), ("region", "--seed"),
    ("fig2", "--threads"), ("fig2", "--seed"), ("fig2", "--tol"),
    ("fig3", "--threads"), ("fig3", "--seed"),
    ("check-mc", "--threads"), ("check-mc", "--seed"), ("check-mc", "--grid"),
    ("check-mc", "--format"),
    ("oracle-compare", "--seed"), ("oracle-compare", "--tol"),
    ("sweep", "--threads"), ("sweep", "--seed"), ("sweep", "--grid"), ("sweep", "--format"),
    ("simulate", "--tol"), ("simulate", "--grid"), ("simulate", "--format"),
]
READ_FLAGS = [
    ("region", "--grid"), ("region", "--format"), ("region", "--tol"),
    ("fig2", "--grid"), ("fig2", "--format"),
    ("fig3", "--grid"), ("fig3", "--format"), ("fig3", "--tol"),
    ("check-mc", "--tol"),
    ("oracle-compare", "--grid"), ("oracle-compare", "--format"), ("oracle-compare", "--threads"),
    ("sweep", "--tol"),
    ("simulate", "--threads"), ("simulate", "--seed"),
]


class TestFlags:
    @pytest.mark.parametrize("command, flag", IGNORED_FLAGS)
    def test_flag_the_subcommand_ignores_exits_2(self, tmp_path, capsys, command, flag):
        argv = SUBCOMMAND_ARGV[command] + [flag, FLAG_VALUES[flag], "--out", tmp_path]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag", READ_FLAGS)
    def test_flag_the_subcommand_reads_parses(self, command, flag):
        argv = [str(a) for a in SUBCOMMAND_ARGV[command] + [flag, FLAG_VALUES[flag]]]
        args = build_parser().parse_args(argv)
        assert str(getattr(args, flag[2:])) == str(FLAG_VALUES[flag])

    def test_tol_sets_the_becbsc_threshold_width(self, tmp_path, capsys):
        argv = ["region", "becbsc", 0.1, 0.2, "--c12", 0.2, "--grid", 101, "--out", tmp_path]
        printed = []
        for extra in ([], ["--tol", 1e-4]):
            assert run(argv + extra) == 0
            out = capsys.readouterr().out
            printed.append([ln for ln in out.splitlines() if ln.startswith("alpha_th")][0])
        assert printed[0] != printed[1]
        default, coarse = (float(p.split("=")[1]) for p in printed)
        assert abs(default - coarse) <= 1e-4

    def test_tol_reaches_fig3_diamonds(self, tmp_path):
        texts = []
        for extra in ([], ["--tol", 1e-4]):
            assert run(["fig3", "--c12", "0.2", "--grid", 101, "--out", tmp_path] + extra) == 0
            texts.append((tmp_path / "diamonds.csv").read_text())
        assert texts[0] != texts[1]


class TestRoundTrips:
    def test_emitted_csv_reparses_byte_identical(self, tmp_path):
        run(["region", "gaussian", 5, 0.5, "--c12", 0.5, "--which", "inner",
             "--out", tmp_path, "--grid", 301])
        text = (tmp_path / "inner.csv").read_text()
        from coopbc.regions import boundary_to_csv

        assert boundary_to_csv(boundary_from_csv(text)) == text

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coopbc.cli", "check-mc", "becbsc", "0.1", "0.2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "holds" in proc.stdout
