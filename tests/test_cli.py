import json
import subprocess
import sys

import numpy as np
import pytest

from coopbc.channel import AuxiliaryJoint, make_bec, make_bsc
from coopbc.cli import build_parser, main
from coopbc.regions import boundary_from_csv, boundary_from_json


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

    def test_becbsc_rejects_large_c12(self, tmp_path, capsys):
        code = run(["region", "becbsc", 0.1, 0.2, "--c12", 1.0, "--out", tmp_path])
        assert code == 2
        assert "C1 - C2" in capsys.readouterr().err

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

    def test_bad_params(self):
        assert run(["check-mc", "becbsc", "zero", "och"]) == 2

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


    @pytest.mark.parametrize("points", [0, -3])
    def test_points_below_one_rejected(self, tmp_path, capsys, points):
        code = run(["sweep", "becbsc", 0.1, 0.2, "--points", points, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "thresholds.csv").exists()


class TestOracleCompare:
    def test_small_grid_one_sided(self, tmp_path, capsys):
        # coarse grids deviate more than the release budget; pass a loose one
        code = run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                    "--steps", 20, "--u-size", 2, "--budget", 0.5, "--out", tmp_path])
        assert code == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["steps"] == 20 and meta["u_cardinality"] == 2
        assert (tmp_path / "oracle_inner.csv").exists()

    def test_budget_failure_exit(self, tmp_path):
        code = run(["oracle-compare", "becbsc", 0.1, 0.2, "--c12", 0.2,
                    "--steps", 20, "--u-size", 2, "--budget", 1e-6, "--out", tmp_path])
        assert code == 1

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

    def test_link_wider_than_the_float_range(self, tmp_path):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 2000, "--r1", 0.001, "--r2", 0.001, "--c12", 0.6,
                    "--trials", 10, "--input-law", law, "--out", tmp_path])
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["trials"] == 10

    def test_rates_are_bits_only(self, tmp_path, capsys):
        law = self.law_file(tmp_path)
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 10, "--r1", 0.3, "--r2", 0.2, "--c12", 0.2,
                    "--trials", 10, "--input-law", law, "--base", "nats", "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.json").exists()

    def test_becbsc_needs_law(self, tmp_path):
        code = run(["simulate", "--channel", "becbsc", "--params", 0.1, 0.2,
                    "--n", 8, "--r1", 0.2, "--r2", 0.2, "--c12", 0.2,
                    "--trials", 50, "--out", tmp_path])
        assert code == 2


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
