import itertools
import math
import threading
import time
import warnings

import numpy as np
import pytest

from coopbc import numerics, oracle
from coopbc.becbsc import BecBscBC, becbsc_family
from coopbc.channel import (
    AuxiliaryJoint,
    ChannelPair,
    DiscreteChannel,
    _compositions,
    _mi_batch_nats,
    _xlogx,
    conditional_informations,
    make_bec,
    make_bsc,
)
from coopbc.numerics import IterationLimitError, LogBase, Tolerance, bisect_monotone
from coopbc.oracle import (
    BudgetExceededError,
    GridSpec,
    _canonical_tuples,
    _general_scan_chunk,
    _Lattice,
    composition_count,
    evaluation_count,
    frontier_deviation,
    frontier_dominance,
    oracle_both,
)
from coopbc.regions import RateRegionBoundary, boundary_to_csv, inner_boundary, pareto_filter
from test_regions import ref_pareto_filter

PAIR = ChannelPair(make_bec(0.1), make_bsc(0.2))
BC = BecBscBC(0.1, 0.2)


def scan_tables(pair, row_grid, u_steps, m):
    """The kernel's per-scan inputs for integer rows over one lattice step
    count and a cloud law over ``u_steps``, as ``oracle_both`` builds them."""
    steps = int(row_grid[0].sum())
    lattice = _Lattice(steps * u_steps, pair.ch1.transitions, pair.ch2.transitions)
    rows_mi1, rows_h2 = lattice(row_grid[:, :-1] * u_steps)
    return _canonical_tuples(row_grid.shape[0], m), rows_mi1, rows_h2, lattice


def corners(a, b, c, c12):
    """Inner and outer corners of the triples, in bits, as oracle_both forms them."""
    a, b, c = a / np.log(2.0), b / np.log(2.0) + c12, c / np.log(2.0)
    r1a, r2b = np.minimum(a, c), np.minimum(b, c)
    inner = (np.concatenate([r1a, np.maximum(np.minimum(a, c - r2b), 0.0)]),
             np.concatenate([np.maximum(np.minimum(b, c - r1a), 0.0), r2b]))
    return inner, (a, b)


def frontier_of(parts):
    """One Pareto filter over every (r1, r2) part, in order, as a frontier."""
    r1 = np.concatenate([p[0] for p in parts])
    r2 = np.concatenate([p[1] for p in parts])
    keep = pareto_filter(r1, r2)
    n = keep.size
    return RateRegionBoundary(r1[keep], r2[keep], np.full(n, np.nan), np.array(["proven"] * n))


def exact_outer_r2(fam, r1):
    """f2 at the f1-preimage of every r1, solved to 1e-12 (tight reference, not the grid)."""
    q = bisect_monotone(
        fam.f1, 0.0, fam.b, np.clip(r1, 0.0, fam.c1), "increasing", Tolerance(1e-12, 400)
    )
    return np.where(r1 >= fam.c1, fam.c12, fam.f2(q))


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

    def test_huge_u_refused_at_once(self):
        # the exact count of this grid, 2**(7.65e8), has 230 million digits
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=r"2\*\*7\.65\d+e\+08 joints, over the budget"):
            oracle_both(PAIR, 0.2, GridSpec(steps=200, u_cardinality=10**8))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("field", ["steps", "u_cardinality"])
    @pytest.mark.parametrize("value", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_sizes_past_exact_floats_rejected(self, field, value):
        # 10**400 is past the float range: math.lgamma used to raise OverflowError
        with pytest.raises(ValueError, match=f"{field} must be <= 2\\*\\*53"):
            GridSpec(**{"steps": 200, "u_cardinality": 2, field: value})

    @pytest.mark.parametrize("field", ["steps", "u_cardinality"])
    def test_largest_sizes_reach_the_budget_refusal(self, field):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="over the budget"):
            oracle_both(PAIR, 0.2, GridSpec(**{"steps": 200, "u_cardinality": 2, field: 2**53}))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("spare", [0, -1])
    def test_exact_count_decides_at_the_budget(self, monkeypatch, spare):
        spec = GridSpec(steps=10, u_cardinality=2)
        monkeypatch.setattr(oracle, "EVAL_BUDGET", evaluation_count(PAIR, spec) + spare)
        if spare < 0:
            with pytest.raises(BudgetExceededError, match="over the budget of 1330"):
                oracle_both(PAIR, 0.2, spec)
        else:
            assert len(oracle_both(PAIR, 0.2, spec)[0]) > 0


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
        # uniform cloud + symmetric satellite layer evaluated exactly, q = i/S
        fam = becbsc_family(BC, 0.2)
        s = 198
        p_u = np.array([s // 2, s // 2])
        ln2 = np.log(2.0)
        for i in range(100):
            q = i / s
            rows = np.array([[s - i, i], [i, s - i]])
            tuples, *tables = scan_tables(PAIR, rows, s, 2)
            at = tuples.tolist().index([0, 1])
            a, b, c = _general_scan_chunk(p_u, rows, tuples, *tables)
            assert a[at] / ln2 == pytest.approx(fam.f1(q), abs=1e-12)
            assert b[at] / ln2 + 0.2 == pytest.approx(fam.f2(q), abs=1e-12)
            assert c[at] / ln2 == pytest.approx(0.9, abs=1e-12)


class TestAgainstParametric:
    def test_one_sided_below_exact_frontier(self):
        fam = becbsc_family(BC, 0.2)
        inner, outer = oracle_both(PAIR, 0.2, GridSpec(steps=40, u_cardinality=2))
        assert np.all(outer.r2 <= exact_outer_r2(fam, outer.r1) + 1e-9)
        cap = np.minimum(exact_outer_r2(fam, inner.r1), fam.c1 - inner.r1)
        assert np.all(inner.r2 <= cap + 1e-9)

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
        calls, scanned_in = [], []
        kernel = oracle._general_scan_chunk

        def counted(r1, r2):
            calls.append(len(r1))
            return pareto_filter(r1, r2)

        def recorded(*args):
            scanned_in.append(threading.get_ident())
            return kernel(*args)

        monkeypatch.setattr(oracle, "pareto_filter", counted)
        monkeypatch.setattr(oracle, "_general_scan_chunk", recorded)
        for steps, u_size in ((60, 2), (12, 3)):
            spec = GridSpec(steps=steps, u_cardinality=u_size)
            runs = {}
            for threads in (1, 2, 4):
                calls.clear()
                scanned_in.clear()
                runs[threads] = oracle_both(PAIR, 0.2, spec, threads=threads)
                # two filters per chunk, then the folds: more than the two final ones
                assert len(calls) - 2 * composition_count(steps, u_size) > 2
                assert len(scanned_in) == composition_count(steps, u_size)
                if threads == 1:
                    # a span-stack tracer needs one thread: no pool worker scans
                    assert set(scanned_in) == {threading.get_ident()}
            for threads in (2, 4):
                for a, b in zip(runs[1], runs[threads]):
                    assert a.r1.tobytes() == b.r1.tobytes()
                    assert a.r2.tobytes() == b.r2.tobytes()
                    assert boundary_to_csv(a) == boundary_to_csv(b)

    def test_frontiers_match_the_reference_filter(self, monkeypatch):
        # steps 30, |U| 2: chunks of 496 outer and 992 inner corners, above the
        # bucket prune's 64-point floor
        spec = GridSpec(steps=30, u_cardinality=2)
        got = oracle_both(PAIR, 0.2, spec)
        monkeypatch.setattr(oracle, "pareto_filter", ref_pareto_filter)
        for a, b in zip(got, oracle_both(PAIR, 0.2, spec)):
            assert a.r1.tobytes() == b.r1.tobytes()
            assert a.r2.tobytes() == b.r2.tobytes()
            np.testing.assert_array_equal(a.segment, b.segment)

    def test_fold_equals_one_filter_over_every_corner(self):
        c12, spec = 0.2, GridSpec(steps=14, u_cardinality=3)
        rows = np.array(list(_compositions(spec.steps, 2)))
        tables = scan_tables(PAIR, rows, spec.steps, spec.u_cardinality)
        parts = [
            corners(*_general_scan_chunk(np.array(comp), rows, *tables), c12)
            for comp in _compositions(spec.steps, spec.u_cardinality)
        ]
        for k, boundary in enumerate(oracle_both(PAIR, c12, spec)):
            want = frontier_of([p[k] for p in parts])
            assert boundary.r1.tobytes() == want.r1.tobytes()
            assert boundary.r2.tobytes() == want.r2.tobytes()


def random_channel(rng, n_in, n_out):
    return DiscreteChannel(rng.dirichlet(np.ones(n_out), size=n_in))


@pytest.mark.parametrize("pair_name", ["becbsc", "ternary"])
def test_kernel_matches_conditional_informations(pair_name):
    """At the combination (0, 1, ..., m-1) of a row grid made of a lattice
    joint's own rows, found at its canonical index, the scan kernel's triple
    is the one-joint reference triple."""
    rng = np.random.default_rng(17)
    if pair_name == "becbsc":
        pair = PAIR
    else:
        pair = ChannelPair(random_channel(rng, 3, 4), random_channel(rng, 3, 2))
    s, k = 24, pair.input_size
    for _ in range(200):
        m = int(rng.integers(1, 4))
        p_u = rng.multinomial(s, np.ones(m) / m)
        rows = rng.multinomial(s, np.ones(k) / k, size=m)
        tuples, *tables = scan_tables(pair, rows, s, m)
        at = tuples.tolist().index(list(range(m)))
        a, b, c = _general_scan_chunk(p_u, rows, tuples, *tables)
        want = conditional_informations(AuxiliaryJoint(p_u / s, rows / s), pair, LogBase.NATS)
        np.testing.assert_allclose((a[at], b[at], c[at]), want, rtol=0.0, atol=1e-12)


def reference_scan_chunk(p_u, row_grid, trans1, trans2):
    """The full-product kernel the lattice kernel replaced: every row
    combination, last U coordinate fastest, with I(X;Y1) and H(Y2) computed
    from P_X per joint.  ``p_u`` and ``row_grid`` are probabilities."""
    m = p_u.shape[0]
    idx = np.indices((row_grid.shape[0],) * m).reshape(m, -1).T
    rows_mi1 = _mi_batch_nats(row_grid, trans1)
    rows_py2 = row_grid @ trans2
    rows_h2 = -_xlogx(rows_py2).sum(axis=1)
    a = rows_mi1[idx] @ p_u
    px = np.einsum("jmx,m->jx", row_grid[idx], p_u)
    c = _mi_batch_nats(px, trans1)
    py2 = np.einsum("jmy,m->jy", rows_py2[idx], p_u)
    b = np.maximum(-_xlogx(py2).sum(axis=1) - rows_h2[idx] @ p_u, 0.0)
    return a, b, c


REFERENCE_PAIRS = {
    "bec0.1-bsc0.2": (PAIR, 0.1, 0.25),
    "bsc0.05-bsc0.2": (ChannelPair(make_bsc(0.05), make_bsc(0.2)), 0.05, 0.3),
    "bec0.3-bsc0.11": (ChannelPair(make_bec(0.3), make_bsc(0.11)), 0.0, 0.15),
    "ternary": (
        ChannelPair(
            random_channel(np.random.default_rng(5), 3, 3),
            random_channel(np.random.default_rng(6), 3, 2),
        ),
        0.0,
        0.2,
    ),
}


@pytest.mark.parametrize("u_size", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
def test_lattice_scan_matches_full_product_reference(name, u_size):
    """Every joint of the full product is scored, under its canonical row
    order, by the lattice kernel; and both frontiers agree with the
    reference kernel's to a dominance distance of 1e-15 at two c12.

    The frontiers alone would not notice tuples with a repeated row going
    missing: a zero P_U weight reaches the same triples.  The joint-by-joint
    check does."""
    pair, *c12s = REFERENCE_PAIRS[name]
    steps = {2: (60, 24, 10), 3: (12, 8, 5)}[pair.input_size][u_size - 1]
    u_steps = steps if u_size > 1 else 1
    t1, t2 = pair.ch1.transitions, pair.ch2.transitions
    rows = np.array(list(_compositions(steps, pair.input_size)))
    n = rows.shape[0]
    comps = np.array(list(_compositions(u_steps, u_size)))
    tables = scan_tables(pair, rows, u_steps, u_size)
    got = np.array([_general_scan_chunk(w, rows, *tables) for w in comps])
    # where the canonical order puts each cloud law and each sorted row tuple
    comp_at = np.zeros((u_steps + 1,) * u_size, dtype=np.intp)
    comp_at[tuple(comps.T)] = np.arange(len(comps))
    canonical = list(itertools.combinations_with_replacement(range(n), u_size))
    tuple_at = np.full((n,) * u_size, -1, dtype=np.intp)
    tuple_at[tuple(np.array(canonical).T)] = np.arange(len(canonical))
    assert got.shape == (len(comps), 3, len(canonical))

    full = np.indices((n,) * u_size).reshape(u_size, -1).T
    order = np.argsort(full, axis=1, kind="stable")
    at = tuple_at[tuple(np.take_along_axis(full, order, axis=1).T)]
    reference = {}
    for w in comps:
        ref = reference_scan_chunk(w / u_steps, rows / steps, t1, t2)
        reference[tuple(w)] = ref
        laws = comp_at[tuple(w[order].T)]
        np.testing.assert_allclose(got[laws, :, at], np.column_stack(ref), rtol=0.0, atol=1e-12)

    for c12 in c12s:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*-ary", category=UserWarning)
            lattice_fronts = oracle_both(pair, c12, GridSpec(steps, u_size))
        ref_parts = [corners(*reference[tuple(w)], c12) for w in comps]
        for k, grid in enumerate(lattice_fronts):
            ref = frontier_of([p[k] for p in ref_parts])
            assert frontier_dominance(grid, ref) <= 1e-15


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        oracle_both(PAIR, 0.2, GridSpec(steps=4, u_cardinality=2), threads=threads)


def test_threads_above_the_ceiling_rejected_before_any_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    monkeypatch.setattr(numerics, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="threads must be <= 256"):
        oracle_both(PAIR, 0.2, GridSpec(steps=4, u_cardinality=2), threads=10**6)


@pytest.mark.parametrize("c12", [math.nan, math.inf, -math.inf])
def test_cooperation_rate_must_be_finite_and_nonnegative(c12):
    with pytest.raises(ValueError, match="cooperation rate must be finite and nonnegative"):
        oracle_both(PAIR, c12, GridSpec(steps=4, u_cardinality=2))


def test_capacity_failure_stops_before_the_scan(monkeypatch):
    scanned = []

    def uncertified(*args, **kwargs):
        raise IterationLimitError("capacity not certified")

    monkeypatch.setattr(oracle, "capacity", uncertified)
    monkeypatch.setattr(oracle, "_general_scan_chunk", lambda *args: scanned.append(args))
    with pytest.raises(IterationLimitError, match="capacity not certified"):
        oracle_both(PAIR, 0.2, GridSpec(steps=4, u_cardinality=2))
    assert scanned == []


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


class TestFrontierDominance:
    make = TestFrontierDeviation.make

    def test_identical_is_zero(self):
        a = self.make([0.0, 0.5, 1.0], [1.0, 0.6, 0.0])
        assert frontier_dominance(a, a) == 0.0

    def test_shift_in_both_coordinates(self):
        a = self.make([0.0, 0.5, 1.0], [1.0, 0.6, 0.0])
        b = self.make([0.0, 0.5, 1.02], [1.01, 0.63, 0.0])
        # b's corners dominate a's; a's (1.0, 0.0) misses b's (1.02, 0.0) by 0.02
        assert frontier_dominance(a, b) == pytest.approx(0.03, abs=1e-15)
        assert frontier_dominance(b, a) == frontier_dominance(a, b)

    def test_dominated_corners_cost_nothing(self):
        a = self.make([0.0, 1.0], [1.0, 0.0])
        b = self.make([0.0, 0.4, 1.0], [1.0, 0.5, 0.0])
        # (0.4, 0.5) is dominated by neither of a's corners: (0.0, 1.0) is 0.4 left of it
        assert frontier_dominance(a, b) == pytest.approx(0.4, abs=1e-15)
        c = self.make([0.0, 0.4, 1.0], [1.0, 0.0, 0.0])
        assert frontier_dominance(a, c) == 0.0

    def test_step_moved_by_one_ulp(self):
        # a near-vertical step: interpolation reads the move as a large gap
        a = self.make([0.0, 0.5, 0.5 + 1e-12, 1.0], [1.0, 1.0, 0.0, 0.0])
        b = self.make([0.0, 0.5 - 1e-12, 0.5, 1.0], [1.0, 1.0, 0.0, 0.0])
        assert frontier_deviation(a, b) > 0.4
        assert frontier_dominance(a, b) == pytest.approx(1e-12, abs=1e-15)

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            fronts = []
            for _ in range(2):
                r1 = np.sort(rng.choice(rng.uniform(0, 1, 30), size=int(rng.integers(1, 20)),
                                        replace=False))
                fronts.append(self.make(r1, np.sort(rng.uniform(0, 1, r1.size))[::-1]))
            a, b = fronts
            want = max(
                max(0.0, max(min(max(p1 - q1, p2 - q2) for q1, q2 in zip(y.r1, y.r2))
                             for p1, p2 in zip(x.r1, x.r2)))
                for x, y in ((a, b), (b, a))
            )
            assert frontier_dominance(a, b) == want
