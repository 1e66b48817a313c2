"""Benchmark of the coopbc bounds, grid-oracle and simulator paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

Workloads: ``bounds``, ``oracle``, ``sim_large_book``, ``sim_many_trials``
(see ``workloads.py``).  Each is a closed loop: one client in one process
calls the package, single-threaded, and starts the next operation when the
previous one returns.

``--trace 0`` measures for ``--seconds`` seconds without any tracing and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of
cycles, so its counts repeat exactly for a seed; each operation runs once
untraced and once traced (alternating which goes first), the traced run
gives the per-layer metrics, and the gap between the two is reported as the
tracing overhead.  Outputs of the two runs must match.

A traced run fails when more than 1% of its wall time falls in no layer
(``bench.self_s``, the operations' root spans minus the hooked calls).

The last line of standard output is the result object; the line before it
holds the environment record, the untraced rate in the workload's own unit
(``work_per_s``: commands, nominal grid joints or requested trials; a fixed
multiple of ``cmds_per_s``), absent trace hooks and a digest of every
output (emitted files, printed results, oracle frontiers, ``SimReport``s) of
the run's operations in order.  Digests of ``--trace 1`` runs cover a fixed
operation list, so two commits can be compared for byte-identical outputs.
The same record, with per-operation inputs, timings, digests and the spans
of a traced run, is written under ``.perfbench/results/``.  The program is imported from
``./src``; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import ROOT, Hooks, NullTracer, Tracer, layer_metrics

SETUP_REPEATS = 7
# Share of a traced run's wall time that may fall outside every hooked call
UNATTRIBUTED_MAX = 0.01
SETUP_CODE = "import coopbc.cli; coopbc.cli.build_parser(); print('ready', flush=True)"
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cmds_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
}


def source_dir(root: Path) -> Path:
    """The package source this benchmark measures; raises if it is missing."""
    src = root / "src"
    if not (src / "coopbc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no coopbc package under {src}")
    return src


def measure_setup(src: Path) -> float:
    """Median wall time from process start to coopbc imported and the CLI
    parser built, over fresh interpreter processes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                                env=env, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
    return statistics.median(times)


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from coopbc import _accel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": getattr(_accel, "USING_NUMBA", "absent"),
        "COOPBC_NO_NUMBA": os.environ.get("COOPBC_NO_NUMBA"),
        "threads": 1,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _execute(op, workdir: Path, tracer):
    """Run and check one operation; returns (seconds, problems, digest).

    Only the call is timed, and only the call sits in the root span."""
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        try:
            with tracer.span(ROOT):
                result = op.run(workdir, tracer)
        except Exception:
            return time.perf_counter() - t0, [traceback.format_exc()], ""
        elapsed = time.perf_counter() - t0
        try:
            problems, digest = op.check(result, workdir)
        except Exception:
            return elapsed, [f"check raised: {traceback.format_exc()}"], ""
        return elapsed, problems, digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _record(op, elapsed, problems, digest) -> dict:
    return {"label": op.label, "inputs": op.inputs, "work": op.work, "seconds": elapsed,
            "problems": problems, "digest": digest}


def run_untraced(workload, seed: int, seconds: float, workdir: Path, tiny: bool = False):
    """Whole cycles until the next one would end after ``seconds``; at least one."""
    tracer = NullTracer()
    records = []
    start = time.perf_counter()
    for n_cycles, cycle in enumerate(workload.cycles(seed, tiny), start=1):
        for op in cycle:
            records.append(_record(op, *_execute(op, workdir / f"op{len(records)}", tracer)))
        elapsed = time.perf_counter() - start
        if elapsed * (n_cycles + 1) / n_cycles > seconds:
            break
    # Every metric comes from one cycle with each operation timed at the upper
    # quartile of its samples.  On a shared host the CPU speed can switch
    # between two levels for stretches of seconds (about 1.6x apart on a
    # 2-vCPU VM, seen in the time order of one run's samples); percentiles
    # over all samples then follow the share of the run spent fast, while the
    # upper quartile reads the usual speed unless the fast share passes 3/4.
    by_label = defaultdict(list)
    for r in records:
        by_label[r["label"]].append(r["seconds"])
    cycle = [float(np.percentile(v, 75)) for v in by_label.values()]
    cycle_s = sum(cycle)
    cycle_work = sum({r["label"]: r["work"] for r in records}.values())
    metrics = {
        "cmds_per_s": len(cycle) / cycle_s,
        "cmd_p50_ms": 1e3 * float(np.percentile(cycle, 50)),
        "cmd_p90_ms": 1e3 * float(np.percentile(cycle, 90)),
    }
    # The same rate in the workload's own unit, a fixed multiple of cmds_per_s
    return records, metrics, cycle_work / cycle_s


def run_traced(workload, seed: int, workdir: Path, tiny: bool = False):
    """Fixed cycles; each operation runs untraced and traced, in alternating order."""
    tracer = Tracer()
    hooks = Hooks(tracer)
    untraced_s = 0.0
    records = []
    ops = itertools.chain.from_iterable(
        itertools.islice(workload.cycles(seed, tiny), workload.trace_cycles)
    )
    for i, op in enumerate(ops):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            target = workdir / f"op{i}-{int(traced)}"
            if traced:
                with hooks:
                    runs[traced] = _execute(op, target, tracer)
            else:
                runs[traced] = _execute(op, target, NullTracer())
                untraced_s += runs[traced][0]
        elapsed, problems, digest = runs[True]
        problems = problems + runs[False][1]
        if digest != runs[False][2]:
            problems.append("traced and untraced runs gave different outputs")
        records.append(_record(op, elapsed, problems, digest))
    metrics = layer_metrics(tracer, untraced_s)
    wall, unattributed = metrics["trace.wall_s"][0], metrics["bench.self_s"][0]
    problems = []
    if unattributed > UNATTRIBUTED_MAX * wall:
        problems.append(f"{unattributed:.4f} s of the traced {wall:.4f} s is in no layer")
    return records, metrics, tracer, sorted(hooks.absent), problems


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path,
                 tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, record written next to it)."""
    src = source_dir(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    record = {"environment": environment(name, seed, seconds, trace), "work_unit": workload.unit}
    run_problems = []
    try:
        if trace:
            records, layer, tracer, absent, run_problems = run_traced(workload, seed, workdir, tiny)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            record["absent_hooks"] = absent
            record["spans"] = tracer.as_records()
        else:
            setup = measure_setup(src)
            records, e2e, record["work_per_s"] = run_untraced(workload, seed, seconds, workdir,
                                                              tiny)
            e2e["setup_s"] = setup
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0 and not run_problems, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    record["digest"] = hashlib.sha256("".join(r["digest"] for r in records).encode()).hexdigest()
    record["run_problems"] = run_problems
    record["operations"] = records
    record["result"] = result
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bounds", "oracle", "sim_large_book", "sim_many_trials"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        source_dir(root)
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the repository root", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
    for r in record["operations"]:
        for problem in r["problems"]:
            print(f"FAILED {r['label']}: {problem}", file=sys.stderr)
    for problem in record["run_problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    summary = {k: record.get(k) for k in ("environment", "work_unit", "work_per_s", "digest")}
    summary["operations"] = len(record["operations"])
    summary["absent_hooks"] = record.get("absent_hooks", [])
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
