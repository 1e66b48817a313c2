import math
import warnings

import numpy as np
import pytest

from coopbc import oracle
from coopbc.becbsc import BecBscBC, becbsc_family
from coopbc.channel import (
    AuxiliaryJoint,
    ChannelPair,
    DiscreteChannel,
    _compositions,
    conditional_informations,
    make_bec,
    make_bsc,
)
from coopbc.numerics import LogBase, Tolerance, bisect_monotone
from coopbc.oracle import (
    BudgetExceededError,
    GridSpec,
    _general_scan_chunk,
    _row_tables,
    composition_count,
    evaluation_count,
    frontier_deviation,
    oracle_both,
)
from coopbc.regions import RateRegionBoundary, boundary_to_csv, inner_boundary, pareto_filter

PAIR = ChannelPair(make_bec(0.1), make_bsc(0.2))
BC = BecBscBC(0.1, 0.2)


def exact_outer_r2(fam, r1):
    """f2 at the f1-preimage, solved to 1e-12 (tight reference, not the grid)."""
    if r1 >= fam.c1:
        return fam.c12
    q = bisect_monotone(
        fam.f1, 0.0, fam.b, max(r1, 0.0), "increasing", Tolerance(1e-12, 400)
    )
    return fam.f2(q)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(steps=1)
        with pytest.raises(ValueError):
            GridSpec(steps=10, u_cardinality=0)

    def test_counts(self):
        assert composition_count(4, 2) == 5
        spec = GridSpec(steps=10, u_cardinality=2)
        assert evaluation_count(PAIR, spec) == 11 * 11 * 11

    def test_budget_guard(self):
        spec = GridSpec(steps=200, u_cardinality=3)
        with pytest.raises(BudgetExceededError):
            oracle_both(PAIR, 0.0, spec)


class TestConstantU:
    def test_outer_rectangle_corners(self):
        # |U| = 1 collapses to rectangles (I(X;Y1), c12) over the input grid
        spec = GridSpec(steps=64, u_cardinality=1)
        out = oracle_both(PAIR, 0.2, spec)[1]
        assert out.r2[-1] == pytest.approx(0.2, abs=1e-12)
        assert out.r1[-1] == pytest.approx(0.9, abs=1e-9)  # uniform input on the grid

    def test_inner_pentagon_corners(self):
        # the sum-rate cut bites: best corners are (I, 0) and (I - c12, c12)
        spec = GridSpec(steps=64, u_cardinality=1)
        inner = oracle_both(PAIR, 0.2, spec)[0]
        assert inner.r1[-1] == pytest.approx(0.9, abs=1e-9)
        assert inner.r2[-1] == pytest.approx(0.0, abs=1e-12)
        k = int(np.argmin(np.abs(inner.r1 - 0.7)))
        assert inner.r2[k] == pytest.approx(0.2, abs=1e-9)


class TestRestrictionWitness:
    def test_symmetric_joints_reproduce_family_corners(self):
        # uniform cloud + symmetric satellite layer evaluated exactly
        fam = becbsc_family(BC, 0.2)
        p_u = np.array([0.5, 0.5])
        t1 = PAIR.ch1.transitions
        t2 = PAIR.ch2.transitions
        ln2 = np.log(2.0)
        for q in np.linspace(0.0, 0.5, 100):
            # combinations run last-U fastest, so index 1 is rows (0, 1)
            rows = np.array([[1.0 - q, q], [q, 1.0 - q]])
            a, b, c = _general_scan_chunk(p_u, rows, *_row_tables(rows, t1, t2), t1)
            assert a[1] / ln2 == pytest.approx(fam.f1(q), abs=1e-12)
            assert b[1] / ln2 + 0.2 == pytest.approx(fam.f2(q), abs=1e-12)
            assert c[1] / ln2 == pytest.approx(0.9, abs=1e-12)


class TestAgainstParametric:
    def test_one_sided_below_exact_frontier(self):
        fam = becbsc_family(BC, 0.2)
        inner, outer = oracle_both(PAIR, 0.2, GridSpec(steps=40, u_cardinality=2))
        for r1, r2 in zip(outer.r1, outer.r2):
            assert r2 <= exact_outer_r2(fam, float(r1)) + 1e-9
        for r1, r2 in zip(inner.r1, inner.r2):
            cap = min(exact_outer_r2(fam, float(r1)), fam.c1 - float(r1))
            assert r2 <= cap + 1e-9

    def test_refinement_never_shrinks(self):
        # nested grids: every coarse corner stays dominated at double resolution
        coarse = oracle_both(PAIR, 0.2, GridSpec(steps=20, u_cardinality=2))[0]
        fine = oracle_both(PAIR, 0.2, GridSpec(steps=40, u_cardinality=2))[0]
        assert np.all(fine.interp_r2(coarse.r1) >= coarse.r2 - 1e-12)

    def test_deviation_shrinks_with_steps(self):
        fam = becbsc_family(BC, 0.2)
        param = inner_boundary(fam, 2001)
        dev = [
            frontier_deviation(
                oracle_both(PAIR, 0.2, GridSpec(steps=s, u_cardinality=2))[0], param
            )
            for s in (20, 40)
        ]
        assert dev[1] < dev[0]

    def test_outer_dominates_inner(self):
        inner, outer = oracle_both(PAIR, 0.2, GridSpec(steps=30, u_cardinality=2))
        assert np.all(outer.interp_r2(inner.r1) >= inner.r2 - 1e-12)

    def test_no_cooperation_matches_family(self):
        fam = becbsc_family(BC, 0.0)
        inner = oracle_both(PAIR, 0.0, GridSpec(steps=50, u_cardinality=2))[0]
        dev = frontier_deviation(inner, inner_boundary(fam, 2001))
        assert dev <= 1e-2

    def test_threads_are_deterministic(self, monkeypatch):
        calls = []

        def counted(r1, r2):
            calls.append(len(r1))
            return pareto_filter(r1, r2)

        monkeypatch.setattr(oracle, "pareto_filter", counted)
        for steps, u_size in ((60, 2), (12, 3)):
            spec = GridSpec(steps=steps, u_cardinality=u_size)
            runs = {}
            for threads in (1, 2, 4):
                calls.clear()
                runs[threads] = oracle_both(PAIR, 0.2, spec, threads=threads)
                # two filters per chunk, then the folds: more than the two final ones
                assert len(calls) - 2 * composition_count(steps, u_size) > 2
            for threads in (2, 4):
                for a, b in zip(runs[1], runs[threads]):
                    assert a.r1.tobytes() == b.r1.tobytes()
                    assert a.r2.tobytes() == b.r2.tobytes()
                    assert boundary_to_csv(a) == boundary_to_csv(b)

    def test_fold_equals_one_filter_over_every_corner(self):
        c12, spec = 0.2, GridSpec(steps=14, u_cardinality=3)
        t1, t2 = PAIR.ch1.transitions, PAIR.ch2.transitions
        rows = np.array([np.array(c) / spec.steps for c in _compositions(spec.steps, 2)])
        tables = _row_tables(rows, t1, t2)
        inner, outer = [], []
        for comp in _compositions(spec.steps, spec.u_cardinality):
            p_u = np.array(comp, dtype=np.float64) / spec.steps
            a, b, c = _general_scan_chunk(p_u, rows, *tables, t1)
            a, b, c = a / np.log(2.0), b / np.log(2.0) + c12, c / np.log(2.0)
            r1a = np.minimum(a, c)
            r2b = np.minimum(b, c)
            inner.append((r1a, np.maximum(np.minimum(b, c - r1a), 0.0)))
            inner.append((np.maximum(np.minimum(a, c - r2b), 0.0), r2b))
            outer.append((a, b))
        got = oracle_both(PAIR, c12, spec)
        for boundary, corners in zip(got, (inner, outer)):
            r1 = np.concatenate([p[0] for p in corners])
            r2 = np.concatenate([p[1] for p in corners])
            keep = pareto_filter(r1, r2)
            assert boundary.r1.tobytes() == r1[keep].tobytes()
            assert boundary.r2.tobytes() == r2[keep].tobytes()


def random_channel(rng, n_in, n_out):
    return DiscreteChannel(rng.dirichlet(np.ones(n_out), size=n_in))


@pytest.mark.parametrize("pair_name", ["becbsc", "ternary"])
def test_kernel_matches_conditional_informations(pair_name):
    """At the combination (0, 1, ..., m-1) of a row grid made of the joint's own
    rows, the scan kernel's triple is the one-joint reference triple."""
    rng = np.random.default_rng(17)
    if pair_name == "becbsc":
        pair = PAIR
    else:
        pair = ChannelPair(random_channel(rng, 3, 4), random_channel(rng, 3, 2))
    t1, t2 = pair.ch1.transitions, pair.ch2.transitions
    for _ in range(200):
        m = int(rng.integers(1, 4))
        joint = AuxiliaryJoint(
            rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(pair.input_size), size=m)
        )
        rows = joint.p_x_given_u
        a, b, c = _general_scan_chunk(joint.p_u, rows, *_row_tables(rows, t1, t2), t1)
        # combinations run with the last U coordinate fastest
        at = sum(u * m ** (m - 1 - u) for u in range(m))
        want = conditional_informations(joint, pair, LogBase.NATS)
        np.testing.assert_allclose((a[at], b[at], c[at]), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        oracle_both(PAIR, 0.2, GridSpec(steps=4, u_cardinality=2), threads=threads)


@pytest.mark.parametrize("c12", [math.nan, math.inf, -math.inf])
def test_cooperation_rate_must_be_finite_and_nonnegative(c12):
    with pytest.raises(ValueError, match="cooperation rate must be finite and nonnegative"):
        oracle_both(PAIR, c12, GridSpec(steps=4, u_cardinality=2))


class TestBinaryInput:
    def test_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle_both(PAIR, 0.2, GridSpec(steps=10, u_cardinality=2))


class TestTernaryInput:
    def test_general_path_with_warning(self):
        # noiseless ternary to user 1, useless channel to user 2
        strong = DiscreteChannel(np.eye(3))
        weak = DiscreteChannel(np.full((3, 3), 1.0 / 3.0))
        pair = ChannelPair(strong, weak)
        spec = GridSpec(steps=9, u_cardinality=2)
        with pytest.warns(UserWarning, match="3-ary") as record:
            inner, outer = oracle_both(pair, 0.3, spec)
        assert record[0].filename == __file__  # the warning names the caller
        log3 = np.log2(3.0)
        assert outer.r1[-1] == pytest.approx(log3, abs=1e-12)
        assert outer.r2[-1] == pytest.approx(0.3, abs=1e-12)
        assert inner.r1[-1] == pytest.approx(log3, abs=1e-12)
        assert inner.r2[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(outer.interp_r2(inner.r1) >= inner.r2 - 1e-12)


class TestFrontierDeviation:
    def make(self, r1, r2):
        n = len(r1)
        return RateRegionBoundary(
            np.asarray(r1, float), np.asarray(r2, float),
            np.full(n, np.nan), np.array(["proven"] * n),
        )

    def test_identical_is_zero(self):
        a = self.make([0.0, 0.5, 1.0], [1.0, 0.6, 0.0])
        assert frontier_deviation(a, a) == 0.0

    def test_vertical_shift(self):
        a = self.make([0.0, 0.5, 1.0], [1.0, 0.6, 0.3])
        b = self.make([0.0, 0.5, 1.0], [1.01, 0.61, 0.31])
        assert frontier_deviation(a, b) == pytest.approx(0.01, abs=1e-12)

    def test_symmetry(self):
        a = self.make([0.0, 1.0], [1.0, 0.0])
        b = self.make([0.0, 0.3, 1.0], [0.9, 0.8, 0.1])
        assert frontier_deviation(a, b) == pytest.approx(frontier_deviation(b, a))
