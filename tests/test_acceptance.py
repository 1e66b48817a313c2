"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from coopbc import becbsc as becbsc_mod
from coopbc import dnfsim, gaussian
from coopbc.channel import AuxiliaryJoint, ChannelPair, is_more_capable, make_bec, make_bsc
from coopbc.cli import main as cli_main
from coopbc.numerics import Tolerance, bisect_monotone
from coopbc.oracle import GridSpec, frontier_deviation, oracle_both
from coopbc.regions import (
    boundary_from_csv,
    boundary_r2star,
    inner_boundary,
    outer_boundary,
    r1_threshold,
    sweep_thresholds,
    threshold_alpha,
)

GBC = gaussian.GaussianBC(5.0, 0.5)
BBC = becbsc_mod.BecBscBC(0.1, 0.2)
PAIR = ChannelPair(make_bec(0.1), make_bsc(0.2))


def report(num: int, ok: bool, dt: float, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gaussian_closed_form_threshold():
    t0 = time.perf_counter()
    closed_alpha = gaussian.alpha_th_closed(GBC, 0.5)
    closed_r1 = gaussian.r1_th_closed(GBC, 0.5)
    fam = gaussian.gaussian_family(GBC, 0.5)
    bisect_alpha = threshold_alpha(fam)
    bisect_r1 = r1_threshold(fam)
    dt = time.perf_counter() - t0
    ok = (
        abs(closed_alpha - 0.25) <= 1e-12
        and abs(closed_r1 - 0.5849625007211562) <= 1e-12
        and abs(closed_alpha - bisect_alpha) <= 1e-9
        and abs(closed_r1 - bisect_r1) <= 1e-9
        and dt < 1.0
    )
    report(1, ok, dt, f"alpha_th={closed_alpha!r}, r1_th={closed_r1!r}")


def test_criterion_2_threshold_sweep_monotone():
    t0 = time.perf_counter()
    failures = []
    for name, factory, b, c1, top in (
        ("gaussian", lambda c: gaussian.gaussian_family(GBC, c), 1.0,
         GBC.cap1(), GBC.cap1() - GBC.cap2()),
        ("becbsc", lambda c: becbsc_mod.becbsc_family(BBC, c), 0.5,
         BBC.cap1(), BBC.cap1() - BBC.cap2()),
    ):
        rows = sweep_thresholds(factory, np.linspace(0.0, top, 50))
        alphas = [r[1] for r in rows]
        r1s = [r[2] for r in rows]
        if not all(y < x for x, y in zip(alphas, alphas[1:])):
            failures.append(f"{name}: alpha_th not strictly decreasing")
        if not all(y < x for x, y in zip(r1s, r1s[1:])):
            failures.append(f"{name}: r1_th not strictly decreasing")
        if abs(alphas[0] - b) > 1e-6 or abs(r1s[0] - c1) > 1e-6:
            failures.append(f"{name}: start endpoint off ({alphas[0]}, {r1s[0]})")
        if abs(alphas[-1]) > 1e-6 or abs(r1s[-1]) > 1e-6:
            failures.append(f"{name}: end endpoint off ({alphas[-1]}, {r1s[-1]})")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 5.0
    report(2, ok, dt, "; ".join(failures) or "both families decrease to (0, 0)")


def test_criterion_3_boundary_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    cases = (
        ("gaussian", gaussian.gaussian_family(GBC, 0.5),
         lambda r1: gaussian.r2star_closed(GBC, 0.5, r1), GBC.cap1()),
        ("becbsc", becbsc_mod.becbsc_family(BBC, 0.2),
         lambda r1: becbsc_mod.r2star_closed(BBC, 0.2, r1), BBC.cap1()),
    )
    for name, fam, closed, c1 in cases:
        top = r1_threshold(fam)
        for r1 in rng.uniform(0.0, top, size=100):
            r1 = float(r1)
            a = closed(r1)
            b = boundary_r2star(fam, r1)
            if abs(a - b) > 1e-9:
                failures.append(f"{name}: route mismatch {abs(a - b):.2e} at r1={r1}")
                break
            if r1 + a > c1 + 1e-9:
                failures.append(f"{name}: sum-rate exceeded at r1={r1}")
                break
            if r1 < top - 1e-3 and r1 + a >= c1 - 1e-6:
                failures.append(f"{name}: equality away from the threshold at r1={r1}")
                break
        if abs(top + closed(top) - c1) > 1e-6:
            failures.append(f"{name}: no equality at the threshold")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 5.0
    report(3, ok, dt, "; ".join(failures) or "closed and parametric routes agree to 1e-9")


def test_criterion_4_region_coincidence():
    t0 = time.perf_counter()
    failures = []
    for name, fam, c12 in (
        ("gaussian", gaussian.gaussian_family(GBC, 0.5), 0.5),
        ("becbsc", becbsc_mod.becbsc_family(BBC, 0.2), 0.2),
    ):
        inner = inner_boundary(fam, 2001)
        outer = outer_boundary(fam, 2001)
        top = r1_threshold(fam)
        budget = 2.0 * (fam.c1 + fam.c2 + c12) / 2001
        grid = np.linspace(0.0, top, 1000)
        gap = float(np.max(np.abs(inner.interp_r2(grid) - outer.interp_r2(grid))))
        if gap > budget:
            failures.append(f"{name}: frontiers differ by {gap:.2e} below the threshold")
        beyond = inner.r1 > top + 1e-9
        line_err = float(np.max(np.abs(inner.r1[beyond] + inner.r2[beyond] - fam.c1)))
        if line_err > 1e-9:
            failures.append(f"{name}: sum-rate segment off the line by {line_err:.2e}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 10.0
    report(4, ok, dt, "; ".join(failures) or "inner=outer below threshold; line segment exact")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    spec = GridSpec(steps=200, u_cardinality=2)
    tight = Tolerance(1e-12, 400)
    failures = []
    for c12 in (0.0, 0.2):
        fam = becbsc_mod.becbsc_family(BBC, c12)
        grid_inner, grid_outer = oracle_both(PAIR, c12, spec)
        dev_inner = frontier_deviation(grid_inner, inner_boundary(fam, 2001))
        dev_outer = frontier_deviation(grid_outer, outer_boundary(fam, 2001))
        if max(dev_inner, dev_outer) > 5e-3:
            failures.append(f"c12={c12}: deviation {max(dev_inner, dev_outer):.2e} > 5e-3")

        def exact_r2(r1):
            if r1 >= fam.c1:
                return fam.c12
            q = bisect_monotone(fam.f1, 0.0, fam.b, max(r1, 0.0), "increasing", tight)
            return fam.f2(q)

        over_out = max(
            float(r2) - exact_r2(float(r1)) for r1, r2 in zip(grid_outer.r1, grid_outer.r2)
        )
        over_in = max(
            float(r2) - min(exact_r2(float(r1)), fam.c1 - float(r1))
            for r1, r2 in zip(grid_inner.r1, grid_inner.r2)
        )
        if max(over_out, over_in) > 1e-9:
            failures.append(f"c12={c12}: oracle above the parametric frontier")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 600.0
    report(5, ok, dt, "; ".join(failures) or "grid oracle within 5e-3, one-sided to 1e-9")


def test_criterion_6_convolution_entropy_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    # 10^4 joints with |U| from 1 to 4, stacked with zero-padded P_U
    p_u = np.zeros((10_000, 4))
    rows = np.full((10_000, 4, 2), 0.5)
    for j in range(10_000):
        m = int(rng.integers(1, 5))
        p_u[j, :m] = rng.dirichlet(np.ones(m))
        rows[j, :m] = rng.dirichlet(np.ones(2), size=m)
    worst = min(float(becbsc_mod.mgl_gap(p_u, rows, p2).min()) for p2 in (0.1, 0.2, 0.3))
    dt = time.perf_counter() - t0
    ok = worst >= -1e-12 and dt < 30.0
    report(6, ok, dt, f"min slack {worst:.3e} over 3x10^4 joints")


def test_criterion_7_more_capable_verdicts():
    t0 = time.perf_counter()
    holds = is_more_capable(PAIR)
    reversed_pair = ChannelPair(make_bsc(0.2), make_bsc(0.1))
    violated = is_more_capable(reversed_pair)
    witness_line = ""
    if not violated.holds:
        witness_line = "witness P_X = [" + ", ".join(
            f"{v:.6f}" for v in violated.witness.probs
        ) + f"], gap = {violated.min_gap:.3e}"
        print(witness_line)
    dt = time.perf_counter() - t0
    ok = holds.holds and not violated.holds and bool(witness_line) and dt < 10.0
    report(7, ok, dt, witness_line or "missing witness")


def test_criterion_8_simulator_trends():
    t0 = time.perf_counter()
    c12 = 0.2
    qth = becbsc_mod.q_threshold(BBC, c12)
    top = becbsc_mod.r1_th(BBC, c12)
    c1 = BBC.cap1()
    law = AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[1 - qth, qth], [qth, 1 - qth]]))
    chan = becbsc_mod.BecBscBC(0.1, 0.2)
    failures = []

    # achievable side: user 2 error nonincreasing in blocklength (within CIs)
    rates = (0.7 * top, 0.7 * (c1 - top))
    estimates = []
    for n in (8, 12, 16):
        cfg = dnfsim.CodeConfig(n=n, r1=rates[0], r2=rates[1], c12=c12,
                                seed=20240, input_law=law)
        rep = dnfsim.simulate(cfg, chan, 10_000)
        estimates.append((rep.user2_error_rate, rep.user2_half_width))
    for (e_a, h_a), (e_b, h_b) in zip(estimates, estimates[1:]):
        if e_b > e_a + h_a + h_b:
            failures.append(f"user-2 error rose beyond CI overlap: {e_a:.4f} -> {e_b:.4f}")

    # converse side: 20% beyond the strong user's capacity fails hard
    r1 = 1.2 * top
    r2 = 1.2 * (c1 - top)
    for n in (8, 12, 16):
        cfg = dnfsim.CodeConfig(n=n, r1=r1, r2=r2, c12=c12, seed=20241,
                                input_law=law, codeword_budget=262144)
        rep = dnfsim.simulate(cfg, chan, 10_000)
        if rep.p_e_estimate < 0.3:
            failures.append(f"n={n}: beyond-capacity error only {rep.p_e_estimate:.3f}")

    # determinism
    cfg = dnfsim.CodeConfig(n=12, r1=rates[0], r2=rates[1], c12=c12,
                            seed=77, input_law=law)
    if dnfsim.simulate(cfg, chan, 2000) != dnfsim.simulate(cfg, chan, 2000):
        failures.append("identical seeds gave different reports")

    dt = time.perf_counter() - t0
    ok = not failures and dt < 300.0
    trend = " -> ".join(f"{e:.4f}" for e, _ in estimates)
    report(8, ok, dt, "; ".join(failures) or f"user-2 error {trend}; converse >= 0.3")


def test_criterion_9_figure_data_qualitative(tmp_path):
    t0 = time.perf_counter()
    failures = []
    for cmd, c1 in (("fig2", GBC.cap1()), ("fig3", BBC.cap1())):
        out = tmp_path / cmd
        code = cli_main([cmd, "--out", str(out), "--grid", "2001"])
        if code != 0:
            failures.append(f"{cmd} exited {code}")
            continue
        for path in out.glob(f"{cmd}_c12_*.csv"):
            boundary = boundary_from_csv(path.read_text())
            if not (np.all(np.diff(boundary.r1) > 0) and np.all(np.diff(boundary.r2) <= 0)):
                failures.append(f"{path.name}: frontier not monotone")
        rows = (out / "diamonds.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            _, r1, r2 = (float(v) for v in row.split(","))
            if abs(r1 + r2 - c1) > 1e-9:
                failures.append(f"{cmd}: diamond off the sum-rate line by {abs(r1 + r2 - c1):.2e}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    report(9, ok, dt, "; ".join(failures) or "frontiers monotone, diamonds on the line")
