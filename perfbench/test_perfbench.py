"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(run.source_dir(ROOT)))
    import workloads

    return workloads


def _assert_metrics(result, wanted):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and np.isfinite(entry["value"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(name, trace, workloads):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=trace, root=ROOT, tiny=True)
    problems = [p for r in record["operations"] for p in r["problems"]]
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, SPEC["per_layer"] if trace else SPEC["end_to_end"])
    if trace:
        assert record["absent_hooks"] == []
        m = result["metrics"]
        assert m["bench.self_s"]["value"] <= run.UNATTRIBUTED_MAX * m["trace.wall_s"]["value"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_trace_counts_repeat(workloads):
    counts = []
    for _ in range(2):
        result, _ = run.run_workload("sim_many_trials", seed=5, seconds=0, trace=1, root=ROOT,
                                     tiny=True)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "ops", "bytes", "bytes_computed")})
    assert counts[0] == counts[1]
    assert counts[0]["dnfsim.user1_scores"] > 0


def test_injected_check_failure_is_counted(workloads, monkeypatch):
    monkeypatch.setattr(workloads, "_frontier_roundtrip", lambda name, data: ["injected"])
    result, record = run.run_workload("bounds", seed=1, seconds=0, trace=0, root=ROOT, tiny=True)
    # region x4, fig2 and fig3 emit frontier files; sweeps and check-mc do not
    assert result["failed"] == 6
    assert result["attempted"] == 12
    assert result["correct"] is False
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_raising_operation_is_counted(workloads, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.dnfsim, "simulate", broken)
    result, record = run.run_workload("sim_large_book", seed=1, seconds=0, trace=0, root=ROOT,
                                      tiny=True)
    assert result["failed"] == result["attempted"] == 3
    assert "injected" in record["operations"][0]["problems"][0]


def test_missing_hook_reported_absent(workloads, monkeypatch):
    from coopbc import _accel

    monkeypatch.delattr(_accel, "corner_scan")
    result, record = run.run_workload("bounds", seed=1, seconds=0, trace=1, root=ROOT, tiny=True)
    assert result["correct"]
    assert record["absent_hooks"] == ["coopbc._accel.corner_scan"]
    assert result["metrics"]["accel.corner_scan_calls"]["value"] == 0


def test_unattributed_time_fails_the_traced_run(workloads, monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "HOOKS", ())
    result, record = run.run_workload("sim_many_trials", seed=1, seconds=0, trace=1, root=ROOT,
                                      tiny=True)
    assert result["failed"] == 0
    assert result["correct"] is False
    assert "is in no layer" in record["run_problems"][0]


def test_seeds_change_bounds_inputs(workloads):
    def argvs(seed):
        cycle = workloads.bounds_cycle(np.random.default_rng(seed))
        return [op.inputs for op in cycle]

    assert argvs(1) == argvs(1)
    assert argvs(1) != argvs(2)
    assert sorted(a[0] for a in argvs(1)) == sorted(a[0] for a in argvs(2))


def test_no_source_tree_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "bounds", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
