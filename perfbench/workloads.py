"""The four benchmark workloads: seeded inputs, the timed call, the output checks.

Every operation is one call into a public entry point of the package:
``coopbc.cli.main(argv)``, ``oracle.oracle_both`` or ``dnfsim.simulate``,
always at one thread.  Inputs are drawn from the workload seed before the
call; the program sees only the generated arguments.  A workload is an
endless sequence of cycles, each a fixed mix of operations with fresh draws,
so every run of every seed does the same kinds of work in the same
proportions.

Checks run after the timed call and never inside it.  An operation fails
when its exit code is wrong, it raises, or one of these invariants breaks:

* frontier files re-parse and re-emit byte-identical;
* closed-form and bisection thresholds agree to 1e-9;
* diamonds and threshold rows lie on r1 + r2 = C1 to 1e-9;
* the grid oracle stays within its grid's deviation budget of the parametric
  frontiers (5e-3 on the acceptance grid) and never above them by more
  than 1e-9;
* ``SimReport`` tallies are consistent, and converse cells give p_e >= 0.3.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from coopbc import becbsc, cli, dnfsim, gaussian, oracle, regions
from coopbc.channel import AuxiliaryJoint, ChannelPair, make_bec, make_bsc
from coopbc.numerics import LogBase, Tolerance, bisect_monotone

LINE_TOL = 1e-9
THRESHOLD_TOL = 1e-9
ONE_SIDED_TOL = 1e-9
CONVERSE_MIN_PE = 0.3


@dataclass(frozen=True)
class Op:
    """One timed call.  ``run(workdir, tracer)`` is timed; ``check(result,
    workdir)`` is not and returns (problems, digest of the outputs).
    ``inputs`` records the generated arguments."""

    label: str
    inputs: tuple
    work: float
    run: Callable[[Path, object], object]
    check: Callable[[object, Path], tuple[list[str], str]]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str          # what one unit of ``Op.work`` is
    trace_cycles: int  # cycles a traced run executes, so its counts repeat
    cycles: Callable[[int, bool], Iterator[list[Op]]]


def _h2(p: float) -> float:
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# bounds: CLI commands that never reach the oracle or a decoder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _call_cli(argv: list[str], workdir: Path) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + ["--out", str(workdir)])
    return CliResult(code, out.getvalue(), err.getvalue())


def _files(workdir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(workdir)): p.read_bytes()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }


def _frontier_roundtrip(name: str, data: bytes) -> list[str]:
    text = data.decode()
    if name.endswith(".json"):
        again = regions.boundary_to_json(regions.boundary_from_json(text))
    else:
        again = regions.boundary_to_csv(regions.boundary_from_csv(text))
    return [] if again == text else [f"{name} does not re-emit byte-identical"]


def _stdout_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split()[2])
    raise ValueError(f"no '{key} =' line in the command output")


def _family(kind: str, params: tuple[float, float], c12: float):
    if kind == "gaussian":
        return gaussian.gaussian_family(gaussian.GaussianBC(*params), c12)
    return becbsc.becbsc_family(becbsc.BecBscBC(*params), c12)


def _closed_threshold(kind: str, params: tuple[float, float], c12: float) -> float:
    if kind == "gaussian":
        return gaussian.alpha_th_closed(gaussian.GaussianBC(*params), c12)
    return becbsc.q_threshold(becbsc.BecBscBC(*params), c12)


def _cli_op(label: str, argv: list[str], inspect: Callable[[CliResult, dict], list[str]]) -> Op:
    def check(res: CliResult, workdir: Path):
        files = _files(workdir)
        printed = [ln for ln in res.stdout.splitlines() if not ln.startswith("wrote ")]
        digest = _digest(
            str(res.code).encode(), "\n".join(printed).encode(),
            *(part for name, data in files.items() for part in (name.encode(), data)),
        )
        if res.code != cli.EXIT_OK:
            return [f"exit code {res.code}: {res.stderr.strip()}"], digest
        return inspect(res, files), digest

    return Op(label, tuple(argv), 1.0, lambda workdir, _tracer: _call_cli(argv, workdir), check)


def _region_op(kind, params, c12, fmt, grid):
    def inspect(res, files):
        problems = []
        for which in ("inner", "outer"):
            name = f"{which}.{fmt}"
            if name not in files:
                problems.append(f"missing {name}")
            else:
                problems += _frontier_roundtrip(name, files[name])
        printed = _stdout_value(res.stdout, "alpha_th")
        bisected = regions.threshold_alpha(_family(kind, params, c12))
        if abs(printed - bisected) > THRESHOLD_TOL:
            problems.append(f"closed-form alpha_th {printed!r} vs bisection {bisected!r}")
        return problems

    argv = ["region", kind, *map(repr, params), "--c12", repr(c12), "--format", fmt]
    return _cli_op(f"region {kind} {fmt}", argv + ["--grid", str(grid)], inspect)


def _fig_op(which, c12s, c1, grid):
    def inspect(res, files):
        problems = []
        frontiers = [n for n in files if n.startswith(f"{which}_c12_")]
        if len(frontiers) != len(c12s):
            problems.append(f"{len(frontiers)} frontier files for {len(c12s)} rates")
        for name in frontiers:
            problems += _frontier_roundtrip(name, files[name])
        rows = files.get("diamonds.csv", b"").decode().strip().split("\n")[1:]
        if len(rows) != len(c12s):
            problems.append(f"{len(rows)} diamonds for {len(c12s)} rates")
        for row in rows:
            _, r1, r2 = (float(v) for v in row.split(","))
            if abs(r1 + r2 - c1) > LINE_TOL:
                problems.append(f"diamond {row} off r1 + r2 = C1 by {abs(r1 + r2 - c1):.3e}")
        return problems

    argv = [which, "--c12", ",".join(map(repr, c12s)), "--grid", str(grid)]
    return _cli_op(which, argv, inspect)


def _sweep_op(kind, params, points, label=""):
    c1 = _family_caps(kind, params)[0]

    def inspect(res, files):
        rows = files.get("thresholds.csv", b"").decode().strip().split("\n")[1:]
        problems = [] if len(rows) == points else [f"{len(rows)} rows for {points} points"]
        for row in rows:
            c12, alpha, r1, r2 = (float(v) for v in row.split(","))
            closed = _closed_threshold(kind, params, c12)
            if abs(alpha - closed) > THRESHOLD_TOL:
                problems.append(f"c12={c12}: bisection alpha_th {alpha!r} vs closed {closed!r}")
            if abs(r1 + r2 - c1) > LINE_TOL:
                problems.append(f"c12={c12}: threshold row off r1 + r2 = C1")
        return problems

    argv = ["sweep", kind, *map(repr, params), "--points", str(points)]
    return _cli_op(f"sweep {kind}{label}", argv, inspect)


def _check_mc_op(params, resolution, label):
    def inspect(res, files):
        return [] if res.stdout.startswith("holds") else [f"ordering not confirmed: {res.stdout!r}"]

    argv = ["check-mc", "becbsc", *map(repr, params), "--resolution", str(resolution)]
    return _cli_op(f"check-mc becbsc {label}", argv, inspect)


def _family_caps(kind: str, params: tuple[float, float]) -> tuple[float, float]:
    """(C1, C1 - C2) in bits, computed here so input draws need no package code."""
    if kind == "gaussian":
        s1, s2 = params
        return 0.5 * math.log2(1 + s1), 0.5 * math.log2((1 + s1) / (1 + s2))
    tau1, p2 = params
    return 1 - tau1, _h2(p2) - tau1


def _draw_pair(rng: np.random.Generator, kind: str) -> tuple[float, float]:
    if kind == "gaussian":
        s2 = float(rng.uniform(0.3, 2.0))
        return s2 * float(rng.uniform(3.0, 20.0)), s2
    # tau1 below H_b(p2) (ordering) and below 4 p2 (1 - p2) (family contract)
    p2 = float(rng.uniform(0.08, 0.35))
    return float(rng.uniform(0.05, 0.8)) * min(_h2(p2), 4 * p2 * (1 - p2)), p2


def _draw_c12(rng: np.random.Generator, kind: str, params) -> float:
    return float(rng.uniform(0.05, 0.95)) * _family_caps(kind, params)[1]


def bounds_cycle(rng: np.random.Generator, tiny: bool = False) -> list[Op]:
    """Twelve commands in seeded order: region for both families in csv and
    json, fig2, fig3, a 50-point sweep per family and an ordering scan.

    The becbsc sweep runs twice and the scan three times, which keeps the
    cycle's 50th and 90th latency percentiles away from the widest gaps
    between command types, so they do not jump with the seeded parameters."""
    grid, points, resolution = (101, 5, 100) if tiny else (2001, 50, 10_000)
    ops = []
    for kind in ("gaussian", "becbsc"):
        for fmt in ("csv", "json"):
            params = _draw_pair(rng, kind)
            ops.append(_region_op(kind, params, _draw_c12(rng, kind, params), fmt, grid))
    fig2_c1, fig2_top = _family_caps("gaussian", (5.0, 0.5))
    fig3_c1, fig3_top = _family_caps("becbsc", (0.1, 0.2))
    ops.append(_fig_op("fig2", sorted(rng.uniform(0, fig2_top, 5).tolist()), fig2_c1, grid))
    ops.append(_fig_op("fig3", sorted(rng.uniform(0, fig3_top, 4).tolist()), fig3_c1, grid))
    for kind, label in (("gaussian", ""), ("becbsc", " a"), ("becbsc", " b")):
        ops.append(_sweep_op(kind, _draw_pair(rng, kind), points, label))
    for label in ("a", "b", "c"):
        ops.append(_check_mc_op(_draw_pair(rng, "becbsc"), resolution, label))
    return [ops[i] for i in rng.permutation(len(ops))]


def _bounds(seed: int, tiny: bool) -> Iterator[list[Op]]:
    rng = np.random.default_rng(seed)
    while True:
        yield bounds_cycle(rng, tiny)


# ---------------------------------------------------------------------------
# oracle: exhaustive grid scan, Pareto filtering and the frontier comparison
# ---------------------------------------------------------------------------

ORACLE_TAU1, ORACLE_P2 = 0.1, 0.2
# (steps, |U|, deviation budget).  The first full grid is the acceptance grid;
# the coarse |U| = 3 grid sits 8.78e-3 below the frontier from its step size,
# at every c12 of the drawn range [0, C1 - C2] (161-point sweep; steps 200,
# |U| 2 gives 2.64e-3 on the same range).
ORACLE_GRIDS = ((200, 2, 5e-3), (16, 3, 1e-2))
ORACLE_GRIDS_TINY = ((40, 2, 1e-2), (8, 3, 2.5e-2))


def nominal_joints(steps: int, u_size: int) -> int:
    """Joints of the requested binary-input grid: cloud laws times row choices."""
    return math.comb(steps + u_size - 1, u_size - 1) * (steps + 1) ** u_size


def _exact_r2(fam, r1: float, tight: Tolerance) -> float:
    if r1 >= fam.c1:
        return fam.c12
    q = bisect_monotone(fam.f1, 0.0, fam.b, max(r1, 0.0), "increasing", tight)
    return fam.f2(q)


def _oracle_op(c12: float, steps: int, u_size: int, budget: float) -> Op:
    pair = ChannelPair(make_bec(ORACLE_TAU1), make_bsc(ORACLE_P2))
    bc = becbsc.BecBscBC(ORACLE_TAU1, ORACLE_P2)
    spec = oracle.GridSpec(steps=steps, u_cardinality=u_size)

    def run(_workdir, tracer):
        grid_inner, grid_outer = oracle.oracle_both(pair, c12, spec, LogBase.BITS, threads=1)
        with tracer.span("oracle.deviation"):
            fam = becbsc.becbsc_family(bc, c12)
            dev_inner = oracle.frontier_deviation(grid_inner, regions.inner_boundary(fam))
            dev_outer = oracle.frontier_deviation(grid_outer, regions.outer_boundary(fam))
        return grid_inner, grid_outer, dev_inner, dev_outer

    def check(res, _workdir):
        grid_inner, grid_outer, dev_inner, dev_outer = res
        digest = _digest(regions.boundary_to_csv(grid_inner).encode(),
                         regions.boundary_to_csv(grid_outer).encode())
        problems = []
        if max(dev_inner, dev_outer) > budget:
            problems.append(f"deviation {max(dev_inner, dev_outer):.3e} over {budget:.0e}")
        fam = becbsc.becbsc_family(bc, c12)
        tight = Tolerance(1e-12, 400)
        over_out = max(float(r2) - _exact_r2(fam, float(r1), tight)
                       for r1, r2 in zip(grid_outer.r1, grid_outer.r2))
        over_in = max(float(r2) - min(_exact_r2(fam, float(r1), tight), fam.c1 - float(r1))
                      for r1, r2 in zip(grid_inner.r1, grid_inner.r2))
        if max(over_out, over_in) > ONE_SIDED_TOL:
            problems.append(f"oracle above the parametric frontier by {max(over_out, over_in):.3e}")
        return problems, digest

    return Op(f"oracle steps={steps} u={u_size}", (c12, steps, u_size),
              float(nominal_joints(steps, u_size)), run, check)


def _oracle(seed: int, tiny: bool) -> Iterator[list[Op]]:
    rng = np.random.default_rng(seed)
    top = _family_caps("becbsc", (ORACLE_TAU1, ORACLE_P2))[1]
    while True:
        yield [_oracle_op(float(rng.uniform(0.0, top)), steps, u, budget)
               for steps, u, budget in (ORACLE_GRIDS_TINY if tiny else ORACLE_GRIDS)]


# ---------------------------------------------------------------------------
# simulator cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    label: str
    channels: object
    config: dict       # CodeConfig fields other than the seed
    trials: int
    converse: bool = False


def _criterion8_cells() -> tuple[dict, dict, dnfsim.BecBsc]:
    """Rates and input law of the simulator acceptance cells at C12 = 0.2."""
    bc = becbsc.BecBscBC(0.1, 0.2)
    c12 = 0.2
    qth = becbsc.q_threshold(bc, c12)
    top, c1 = becbsc.r1_th(bc, c12), bc.cap1()
    law = AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[1 - qth, qth], [qth, 1 - qth]]))
    achievable = dict(r1=0.7 * top, r2=0.7 * (c1 - top), c12=c12, input_law=law)
    converse = dict(r1=1.2 * top, r2=1.2 * (c1 - top), c12=c12, input_law=law,
                    codeword_budget=262144)
    return achievable, converse, dnfsim.BecBsc(0.1, 0.2)


def large_book_cells(tiny: bool = False) -> list[Cell]:
    """Few trials against big codebooks: user-1 exhaustive decode dominates.

    The Gaussian cell runs twice at half the converse cell's time, so the
    cycle's median latency is a Gaussian cell's, not a gap between cells."""
    _, converse, chan = _criterion8_cells()
    scale = 0.1 if tiny else 1.0
    gaussian_cell = dict(n=12, r1=1.0, r2=0.3, c12=0.25, power_split=0.35)
    return [
        Cell("becbsc n=16 converse", chan, dict(n=16, **converse), int(150 * scale), True),
        Cell("gaussian n=12 r1=1.0 a", dnfsim.Gaussian(5.0, 0.5), gaussian_cell, int(250 * scale)),
        Cell("gaussian n=12 r1=1.0 b", dnfsim.Gaussian(5.0, 0.5), gaussian_cell, int(250 * scale)),
    ]


def many_trials_cells(tiny: bool = False) -> list[Cell]:
    """Many trials against small codebooks: per-trial draws and user-2 decode
    matter.  The n=12 cell runs twice so the cycle's median latency is an
    n=12 cell's, not a gap between cells."""
    achievable, _, chan = _criterion8_cells()
    trials = 200 if tiny else 5000
    cells = [Cell(f"becbsc n={n} achievable{tag}", chan, dict(n=n, **achievable), trials)
             for n, tag in ((8, ""), (12, " a"), (12, " b"), (16, ""))]
    cells.append(Cell("gaussian n=12 r1=0.4", dnfsim.Gaussian(5.0, 0.5),
                      dict(n=12, r1=0.4, r2=0.3, c12=0.25, power_split=0.35), trials))
    return cells


def _report_problems(rep: dnfsim.SimReport, cell: Cell) -> list[str]:
    problems = []
    u1, u2, ev, t = rep.user1_joint_errors, rep.user2_errors, rep.error_events, rep.trials
    if t != cell.trials:
        problems.append(f"report counts {t} trials, {cell.trials} requested")
    if not (0 <= max(u1, u2) <= ev <= min(t, u1 + u2)):
        problems.append(f"inconsistent tallies u1={u1} u2={u2} events={ev} trials={t}")
    if rep.p_e_estimate != ev / t or rep.p_e_half_width != dnfsim.SimReport.half_width(ev, t):
        problems.append("p_e estimate or half-width does not match the tallies")
    if cell.converse and rep.p_e_estimate < CONVERSE_MIN_PE:
        problems.append(f"converse cell p_e {rep.p_e_estimate:.3f} < {CONVERSE_MIN_PE}")
    return problems


def _sim_op(cell: Cell, seed: int) -> Op:
    cfg = dnfsim.CodeConfig(seed=seed, **cell.config)

    def run(_workdir, _tracer):
        return dnfsim.simulate(cfg, cell.channels, cell.trials, threads=1)

    def check(rep, _workdir):
        return _report_problems(rep, cell), _digest(rep.to_json().encode())

    return Op(cell.label, (seed, cell.trials), float(cell.trials), run, check)


def _sim(cells_of: Callable[[bool], list[Cell]]):
    def cycles(seed: int, tiny: bool) -> Iterator[list[Op]]:
        rng = np.random.default_rng(seed)
        cells = cells_of(tiny)
        while True:
            yield [_sim_op(cell, int(rng.integers(2**31))) for cell in cells]

    return cycles


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds", "command", 12, _bounds),
        Workload("oracle", "nominal grid joint", 1, _oracle),
        Workload("sim_large_book", "requested trial", 2, _sim(large_book_cells)),
        Workload("sim_many_trials", "requested trial", 2, _sim(many_trials_cells)),
    )
}
