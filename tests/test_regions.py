import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from coopbc.becbsc import BecBscBC, becbsc_family
from coopbc.gaussian import GaussianBC, gaussian_family
from coopbc.numerics import LogBase
from coopbc.regions import (
    _BLOCK_ROWS,
    SEGMENT_CONJECTURED,
    SEGMENT_PROVEN,
    MonotonicityError,
    ParametricFamily,
    RateRegionBoundary,
    boundary_from_csv,
    boundary_from_json,
    boundary_r2star,
    boundary_to_csv,
    boundary_to_json,
    coincidence_check,
    inner_boundary,
    outer_boundary,
    pareto_filter,
    r1_threshold,
    sweep_thresholds,
    threshold_alpha,
    thresholds_to_csv,
)

BC = GaussianBC(5.0, 0.5)
C1 = BC.cap1()
C2 = BC.cap2()


def linear_family(c1=1.0, c2=0.4, c12=0.2, b=1.0):
    """Synthetic family with affine evaluators (simplest valid contract)."""
    return ParametricFamily(
        b=b,
        f1=lambda a: c1 * a / b,
        f2=lambda a: c2 + c12 - c2 * a / b,
        c1=c1,
        c2=c2,
        c12=c12,
    )


class TestFamilyValidation:
    def test_linear_family_passes(self):
        linear_family()

    def test_flat_f1_rejected(self):
        # the constant f1 is broadcast to the grid and fails the contract, not the call
        with pytest.raises(ValueError, match="f1 is not strictly increasing"):
            ParametricFamily(b=1.0, f1=lambda a: 0.0, f2=lambda a: 0.6 - 0.4 * a,
                             c1=0.0, c2=0.4, c12=0.2)

    def test_wrong_endpoint_rejected(self):
        with pytest.raises(ValueError, match="f1"):
            ParametricFamily(b=1.0, f1=lambda a: 0.5 * a, f2=lambda a: 0.6 - 0.4 * a,
                             c1=1.0, c2=0.4, c12=0.2)

    def test_increasing_f2_rejected(self):
        with pytest.raises(ValueError, match="f2"):
            ParametricFamily(b=1.0, f1=lambda a: a, f2=lambda a: 0.2 + 0.4 * a,
                             c1=1.0, c2=-0.4, c12=0.2)

    def test_flat_f2_rejected(self):
        # right endpoints and a rising sum, but f2 stalls at c12 past a = 1/2
        with pytest.raises(ValueError, match="f2 is not strictly decreasing"):
            ParametricFamily(b=1.0, f1=lambda a: a,
                             f2=lambda a: 0.6 - 0.4 * np.minimum(2.0 * a, 1.0),
                             c1=1.0, c2=0.4, c12=0.2)

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_nonpositive_endpoint_rejected(self, b):
        with pytest.raises(ValueError, match="endpoint b must be positive"):
            linear_family(b=b)

    def test_negative_c12_rejected(self):
        with pytest.raises(ValueError, match="cooperation"):
            linear_family(c12=-0.1)

    @pytest.mark.parametrize("at", [0.0, 0.5, 1.0])
    def test_nan_on_the_grid_rejected(self, at):
        # the grid is evaluated in one call; one NaN point must still fail the family
        with pytest.raises(ValueError, match="f1 is not finite"):
            ParametricFamily(b=1.0, f1=lambda a: np.where(a == at, np.nan, a),
                             f2=lambda a: 0.6 - 0.4 * a, c1=1.0, c2=0.4, c12=0.2)


def _families():
    for base in LogBase:
        one = base.one_bit()
        yield f"becbsc-{base.value}", becbsc_family(BecBscBC(0.1, 0.2), 0.2 * one, base)
        yield f"gaussian-{base.value}", gaussian_family(BC, 0.3 * one, base)


class TestArrayEvaluators:
    @pytest.mark.parametrize("name, fam", list(_families()))
    def test_grid_call_matches_point_calls(self, name, fam):
        grid = np.linspace(0.0, fam.b, 2001)
        for f in (fam.f1, fam.f2):
            got = f(grid)
            assert got.shape == grid.shape
            want = np.array([f(float(a)) for a in grid])
            # numpy's log and math's log may differ in the last bit
            np.testing.assert_array_max_ulp(got, want, maxulp=2)

    @pytest.mark.parametrize("name, fam", list(_families()))
    def test_float_call_returns_float(self, name, fam):
        for f in (fam.f1, fam.f2):
            assert type(f(0.25)) is float


class TestThreshold:
    def test_gaussian_c12_half(self):
        fam = gaussian_family(BC, 0.5)
        assert threshold_alpha(fam) == pytest.approx(0.25, abs=1e-9)

    def test_gaussian_endpoints(self):
        assert threshold_alpha(gaussian_family(BC, 0.0)) == pytest.approx(1.0, abs=1e-9)
        assert threshold_alpha(gaussian_family(BC, C1 - C2)) == pytest.approx(0.0, abs=1e-9)

    def test_precondition(self):
        # the family refuses c12 > c1 - c2, so no threshold is ever sought for one
        with pytest.raises(ValueError, match="C1 - C2"):
            linear_family(c1=1.0, c2=0.4, c12=0.7)

    def test_r1_threshold_values(self):
        assert r1_threshold(gaussian_family(BC, 0.0)) == pytest.approx(C1, abs=1e-9)
        assert r1_threshold(gaussian_family(BC, C1 - C2)) == pytest.approx(0.0, abs=1e-9)
        assert r1_threshold(gaussian_family(BC, 0.5)) == pytest.approx(
            0.5849625007211562, abs=1e-9
        )

    def test_uniqueness_by_sign_scan(self):
        fam = gaussian_family(BC, 0.5)
        alphas = np.linspace(0.0, 1.0, 10_001)
        sums = np.array([fam.f1(a) + fam.f2(a) - C1 for a in alphas])
        signs = np.sign(sums[sums != 0.0])
        assert np.count_nonzero(np.diff(signs)) == 1


@st.composite
def pairs_and_rates(draw):
    """An ordered pair inside its family's contract, a base, and a rate in
    [0, C1 - C2] that is often an end of the range or C1 - C2 computed another
    way, which can be an ulp above it.  Gaussian SNRs go down to 1e-6; much
    below, f1 + f2 steps less than the contract's 1e-12 per grid interval."""
    base = draw(st.sampled_from(list(LogBase)))
    if draw(st.booleans()):
        s2 = 10.0 ** draw(st.floats(-6.0, 3.0))
        bc = GaussianBC(s2 * (1.0 + 10.0 ** draw(st.floats(-2.0, 3.0))), s2)
        other_top = 0.5 * base.log((1.0 + bc.s1) / (1.0 + bc.s2))
    else:
        p2 = draw(st.floats(0.01, 0.49))
        h2 = -p2 * math.log2(p2) - (1.0 - p2) * math.log2(1.0 - p2)
        bc = BecBscBC(draw(st.floats(0.0, 0.99)) * min(h2, 4.0 * p2 * (1.0 - p2)), p2)
        other_top = (h2 - bc.tau1) * base.one_bit()
    top = bc.cap1(base) - bc.cap2(base)
    c12 = draw(st.sampled_from([0.0, top, other_top]) | st.floats(0.0, 1.0).map(lambda u: u * top))
    return bc, base, c12


class TestThresholdRange:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pairs_and_rates())
    def test_threshold_and_diamond_in_range(self, case):
        bc, base, c12 = case
        fam = bc.family(c12, base)
        t = bc.threshold(c12, base)
        assert 0.0 <= t <= fam.b
        r1 = fam.f1(t)
        assert r1 <= fam.c1
        assert fam.c1 - r1 >= 0.0  # the diamond's r2


class TestBoundaryR2Star:
    FAM = gaussian_family(BC, 0.5)

    def test_at_zero(self):
        assert boundary_r2star(self.FAM, 0.0) == pytest.approx(C2 + 0.5, abs=1e-9)

    def test_at_threshold(self):
        r1_th = r1_threshold(self.FAM)
        assert boundary_r2star(self.FAM, r1_th) == pytest.approx(C1 - r1_th, abs=1e-9)

    def test_interior_value(self):
        got = boundary_r2star(self.FAM, 0.5849625007211562)
        assert got == pytest.approx(0.7075187496394219, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_r2star(self.FAM, r1_threshold(self.FAM) + 0.05)

    def test_sum_rate_cap_with_strictness(self):
        rng = np.random.default_rng(21)
        r1_th = r1_threshold(self.FAM)
        for r1 in rng.uniform(0.0, r1_th, size=100):
            r2 = boundary_r2star(self.FAM, float(r1))
            assert r1 + r2 <= C1 + 1e-9
            if r1 < r1_th - 1e-3:
                assert r1 + r2 < C1 - 1e-6
        assert r1_th + boundary_r2star(self.FAM, r1_th) == pytest.approx(C1, abs=1e-6)


class TestBoundaries:
    FAM = gaussian_family(BC, 0.5)

    def test_inner_respects_sum_rate(self):
        boundary = inner_boundary(self.FAM, 2001)
        assert np.all(boundary.r1 + boundary.r2 <= C1 + 1e-9)

    def test_inner_follows_line_beyond_threshold(self):
        boundary = inner_boundary(self.FAM, 2001)
        r1_th = r1_threshold(self.FAM)
        beyond = boundary.r1 > r1_th + 1e-9
        assert np.any(beyond)
        np.testing.assert_allclose(
            boundary.r1[beyond] + boundary.r2[beyond], C1, atol=1e-9
        )

    def test_outer_single_point_grid_corner(self):
        boundary = outer_boundary(self.FAM, 2)
        assert boundary.r1[-1] == pytest.approx(C1, abs=1e-12)
        assert boundary.r2[-1] == pytest.approx(0.5, abs=1e-12)

    def test_outer_matches_r2star(self):
        boundary = outer_boundary(self.FAM, 2001)
        k = int(np.argmin(np.abs(boundary.r1 - 0.5849625007211562)))
        assert boundary.r2[k] == pytest.approx(0.7075187496394219, abs=1e-3)

    def test_outer_dominates_inner(self):
        inner = inner_boundary(self.FAM, 2001)
        outer = outer_boundary(self.FAM, 2001)
        assert np.all(outer.interp_r2(inner.r1) >= inner.r2 - 1e-12)

    def test_corner_monotonicity(self):
        outer = outer_boundary(self.FAM, 2001)
        assert np.all(np.diff(outer.r1) > 0)
        assert np.all(np.diff(outer.r2) < 0)

    def test_coincidence_below_threshold(self):
        inner = inner_boundary(self.FAM, 2001)
        outer = outer_boundary(self.FAM, 2001)
        r1_th = r1_threshold(self.FAM)
        grid = np.linspace(0.0, r1_th, 500)
        budget = 2.0 * (C1 + C2 + 0.5) / 2001
        assert np.max(np.abs(inner.interp_r2(grid) - outer.interp_r2(grid))) <= budget

    def test_degenerate_flat_f2(self):
        # near-constant f2: the frontier is the rectangle corner cut by the sum-rate line
        eps = 1e-6
        fam = ParametricFamily(
            b=1.0, f1=lambda a: a, f2=lambda a: 0.4 + eps * (1.0 - a),
            c1=1.0, c2=eps, c12=0.4,
        )
        boundary = inner_boundary(fam, 801)
        expect = np.minimum(0.4 + eps * (1.0 - boundary.alpha), 1.0 - boundary.r1)
        np.testing.assert_allclose(boundary.r2, expect, atol=1e-12)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            inner_boundary(self.FAM, 1)


class TestCoincidenceCheck:
    def test_gaussian_report(self):
        fam = gaussian_family(BC, 0.5)
        report = coincidence_check(fam, 2001)
        assert report.alpha_th == pytest.approx(0.25, abs=1e-9)
        assert report.max_violation <= 1e-9
        assert report.first_divergence_alpha is not None
        assert report.first_divergence_alpha > report.alpha_th

    def test_no_divergence_without_cooperation(self):
        report = coincidence_check(gaussian_family(BC, 0.0), 2001)
        assert report.first_divergence_alpha is None

    def test_sum_at_endpoint(self):
        fam = gaussian_family(BC, 0.5)
        assert fam.f1(1.0) + fam.f2(1.0) == pytest.approx(C1 + 0.5, abs=1e-12)


class TestSweep:
    def test_single_point(self):
        rows = sweep_thresholds(lambda c: gaussian_family(BC, c), [0.0])
        assert rows[0][1] == pytest.approx(1.0, abs=1e-9)
        assert rows[0][2] == pytest.approx(C1, abs=1e-9)

    def test_five_point_grid(self):
        rows = sweep_thresholds(
            lambda c: gaussian_family(BC, c), [0.0, 0.25, 0.5, 0.75, 1.0]
        )
        alphas = [r[1] for r in rows]
        assert alphas[0] == pytest.approx(1.0, abs=1e-9)
        assert alphas[-1] == pytest.approx(0.0, abs=1e-9)
        assert rows[2][1] == pytest.approx(0.25, abs=1e-9)
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_bad_grid_order(self):
        with pytest.raises(ValueError):
            sweep_thresholds(lambda c: gaussian_family(BC, c), [0.5, 0.25])

    def test_grid_order_checked_before_any_family(self):
        built = []

        def factory(c12):
            built.append(c12)
            return gaussian_family(BC, c12)

        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_thresholds(factory, [0.0, 0.5, 0.25])
        assert built == []

    def test_monotonicity_error_from_broken_factory(self):
        # same family for every c12 makes the thresholds constant, not decreasing
        with pytest.raises(MonotonicityError):
            sweep_thresholds(lambda c: gaussian_family(BC, 0.5), [0.4, 0.5])

    def test_unresolved_neighbours_are_invalid_input(self):
        # two admitted rates whose thresholds the bisection cannot order
        with pytest.raises(ValueError, match=r"c12 = 0\.1 and c12 = 0\.1000000000001 tie "
                                             r"within the bisection width 1e-10"):
            sweep_thresholds(lambda c: gaussian_family(BC, c), [0.0, 0.1, 0.1000000000001])

    @pytest.mark.parametrize("grid, a, b, admitted", [
        ([-5e-10, -1e-10, 0.5], "-5e-10", "-1e-10", "0.0"),
        ([0.0, 0.5, 1.0000000001, 1.0000000005], "1.0000000001", "1.0000000005", str(C1 - C2)),
    ])
    def test_rates_admitted_as_one_are_invalid_input(self, monkeypatch, grid, a, b, admitted):
        # both requests lie within 1e-9 of the range end they snap to; the pair is
        # found from the families alone, before any threshold is solved
        solved = []
        monkeypatch.setattr("coopbc.regions.threshold_alpha", lambda *args: solved.append(args))
        with pytest.raises(ValueError, match=re.escape(
                f"c12 = {a} and c12 = {b} are both admitted as c12 = {admitted}")):
            sweep_thresholds(lambda c: gaussian_family(BC, c), grid)
        assert solved == []

    def test_rise_beyond_the_width_is_a_broken_family(self):
        # the factory runs the rate backwards, so the threshold rises by far more than tol
        with pytest.raises(MonotonicityError, match="alpha_th"):
            sweep_thresholds(lambda c: gaussian_family(BC, 0.5 - c), [0.1, 0.2])


def ref_pareto_filter(r1, r2):
    """The per-point loop that the vectorized filter must match index for index."""
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    order = np.lexsort((-r2, -r1))  # r1 descending, then r2 descending
    keep = []
    best_r2 = -np.inf
    last_r1 = np.inf
    for idx in order:
        if r1[idx] == last_r1:
            continue  # dominated: same r1, smaller-or-equal r2
        last_r1 = r1[idx]
        if r2[idx] > best_r2:
            keep.append(idx)
            best_r2 = r2[idx]
    return np.array(keep[::-1], dtype=np.intp)


@st.composite
def tie_heavy_points(draw):
    """Rates on a k/K lattice plus signed zeros and infinities, with exact duplicates."""
    lattice = draw(st.integers(1, 6))
    coord = st.one_of(
        st.integers(0, lattice).map(lambda k: k / lattice),
        st.sampled_from([-0.0, 0.0, np.inf, -np.inf]),
    )
    pts = draw(st.lists(st.tuples(coord, coord), max_size=40))
    dups = draw(st.lists(st.integers(0, max(len(pts) - 1, 0)), max_size=10))
    pts += [pts[i] for i in dups if pts]
    perm = draw(st.permutations(range(len(pts))))
    pts = [pts[i] for i in perm]
    return (np.array([p[0] for p in pts], dtype=np.float64),
            np.array([p[1] for p in pts], dtype=np.float64))


@st.composite
def lattice_clouds(draw):
    """100 to 400 points, above the bucket prune's floor, on a k/K lattice plus
    signed zeros and infinities: many exact duplicates and ties, several r1
    values per bucket and some on bucket edges.  No r1 = -inf, which turns
    the prune off."""
    lattice = draw(st.integers(1, 48))
    grid = np.arange(lattice + 1) / lattice
    r1_values = np.append(grid, [-0.0, 0.0, np.inf])
    r2_values = np.append(grid, [-0.0, 0.0, np.inf, -np.inf])
    n = draw(st.integers(100, 400))
    r1, r2 = (values[draw(hnp.arrays(np.intp, n, elements=st.integers(0, values.size - 1),
                                     fill=st.nothing()))]
              for values in (r1_values, r2_values))
    return r1, r2


class TestParetoFilter:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(tie_heavy_points())
    def test_matches_reference_loop(self, pts):
        # identical indices, not just rates: _corner_sweep gathers alpha through them
        r1, r2 = pts
        got = pareto_filter(r1, r2)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, ref_pareto_filter(r1, r2))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(lattice_clouds())
    def test_bucket_prune_matches_reference_loop(self, pts):
        r1, r2 = pts
        np.testing.assert_array_equal(pareto_filter(r1, r2), ref_pareto_filter(r1, r2))

    @pytest.mark.parametrize("r1", [
        np.linspace(-1.0, 1.0, 101) * 1e308,  # max r1 - min r1 overflows
        np.full(101, 0.25),  # a zero-width r1 range
        np.append(-np.inf, np.linspace(0.0, 1.0, 100)),  # min r1 = -inf
        np.arange(101) % 2 * 5e-324,  # a subnormal r1 range
    ])
    def test_bucket_prune_edge_ranges(self, r1):
        r2 = np.arange(r1.size) * 3 % 7 / 7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pareto_filter(r1, r2)
        np.testing.assert_array_equal(got, ref_pareto_filter(r1, r2))

    def test_matches_reference_on_a_dense_cloud(self):
        rng = np.random.default_rng(5)
        r1 = rng.integers(0, 200, 20_000) / 200
        r2 = np.minimum(1.0 - r1**2 + rng.integers(0, 3, r1.size) / 200, 1.0)
        np.testing.assert_array_equal(pareto_filter(r1, r2), ref_pareto_filter(r1, r2))

    def test_empty_and_single(self):
        got = pareto_filter(np.empty(0), np.empty(0))
        assert got.dtype == np.intp and got.size == 0
        np.testing.assert_array_equal(pareto_filter([0.3], [0.4]), [0])

    def test_duplicates_keep_lowest_index(self):
        np.testing.assert_array_equal(pareto_filter([0.5, 0.5, 0.5], [0.2, 0.2, 0.2]), [0])
        np.testing.assert_array_equal(pareto_filter([0.0, -0.0], [0.1, 0.1]), [0])

    def test_infinities_keep_loop_behaviour(self):
        # r1 = +inf and r2 = -inf points are never kept; r2 = +inf wins its r1 group
        np.testing.assert_array_equal(pareto_filter([np.inf, 0.2], [1.0, 0.5]), [1])
        np.testing.assert_array_equal(pareto_filter([0.1, 0.9], [0.5, -np.inf]), [0])
        np.testing.assert_array_equal(pareto_filter([0.1, 0.2], [np.inf, 0.3]), [0, 1])

    @pytest.mark.parametrize(
        "r1, r2",
        [
            ([0.1, np.nan, 0.3], [0.5, 0.9, 0.1]),
            ([0.1, 0.2, 0.3], [0.5, 0.9, np.nan]),
            ([0.1, np.nan, 0.3], [0.5, 0.9, np.nan]),
        ],
    )
    def test_nan_rejected(self, r1, r2):
        with pytest.raises(ValueError, match="NaN"):
            pareto_filter(r1, r2)

    @pytest.mark.parametrize(
        "r1, r2",
        [
            ([0.1, 0.2], [0.5]),
            (np.zeros((2, 2)), np.zeros((2, 2))),
            (0.5, 0.5),
        ],
    )
    def test_shape_mismatch_rejected(self, r1, r2):
        with pytest.raises(ValueError, match="1-D"):
            pareto_filter(r1, r2)

    def test_removes_dominated(self):
        r1 = np.array([0.0, 0.5, 0.4, 1.0])
        r2 = np.array([1.0, 0.6, 0.5, 0.0])
        keep = pareto_filter(r1, r2)
        assert list(r1[keep]) == [0.0, 0.5, 1.0]

    def test_ties_keep_dominant(self):
        r1 = np.array([0.5, 0.5, 0.7])
        r2 = np.array([0.6, 0.9, 0.9])
        keep = pareto_filter(r1, r2)
        assert list(r1[keep]) == [0.7]


def ref_boundary_to_csv(boundary):
    """The per-point CSV writer that the column writer must match byte for byte."""
    lines = ["alpha,r1,r2,segment"]
    for a, r1, r2, seg in zip(boundary.alpha, boundary.r1, boundary.r2, boundary.segment):
        lines.append(f"{float(a):.12g},{float(r1):.12g},{float(r2):.12g},{seg}")
    return "\n".join(lines) + "\n"


def ref_boundary_to_json(boundary):
    """The per-point JSON writer that the column writer must match byte for byte."""
    points = [
        {
            "alpha": float(f"{float(a):.12g}"),
            "r1": float(f"{float(r1):.12g}"),
            "r2": float(f"{float(r2):.12g}"),
            "segment": str(seg),
        }
        for a, r1, r2, seg in zip(boundary.alpha, boundary.r1, boundary.r2, boundary.segment)
    ]
    return json.dumps({"points": points}, indent=2) + "\n"


def ref_distinct_r1(boundary):
    """The frontier without each row whose r1 has the 12-digit text of the row
    before it, by a plain loop over the texts."""
    text = [f"{v:.12g}" for v in boundary.r1.tolist()]
    keep = [i for i in range(len(text)) if i == 0 or text[i] != text[i - 1]]
    return RateRegionBoundary(boundary.r1[keep], boundary.r2[keep], boundary.alpha[keep],
                              boundary.segment[keep])


def assert_writers_match(boundary):
    distinct = ref_distinct_r1(boundary)
    assert boundary_to_csv(boundary) == ref_boundary_to_csv(distinct)
    assert boundary_to_json(boundary) == ref_boundary_to_json(distinct)


SPECIAL_VALUES = [1.0, 1e-05, 5e-324, 123456789.0]
rates = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(SPECIAL_VALUES))


@st.composite
def frontiers(draw):
    """Any valid frontier: strictly increasing r1, nonincreasing r2, any alpha."""
    r1 = np.unique(np.array(draw(st.lists(rates, min_size=1, max_size=30)), dtype=np.float64))
    r2 = np.sort(np.array(draw(st.lists(rates, min_size=r1.size, max_size=r1.size))))[::-1]
    alpha = draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES)),
                          min_size=r1.size, max_size=r1.size))
    segment = draw(st.lists(st.sampled_from([SEGMENT_PROVEN, SEGMENT_CONJECTURED]),
                            min_size=r1.size, max_size=r1.size))
    return RateRegionBoundary(r1, r2, np.array(alpha), np.array(segment))


class TestColumnWriters:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(frontiers())
    def test_match_point_writers(self, boundary):
        assert_writers_match(boundary)

    def test_nan_alpha_and_special_values(self):
        # oracle frontiers carry alpha = NaN, which json writes as NaN, not nan
        boundary = RateRegionBoundary(
            np.array([5e-324, 1e-05, 1.0, 123456789.0]),
            np.array([123456789.0, 1.0, 1e-05, 5e-324]),
            np.array([math.nan, math.inf, -math.inf, 1e-05]),
            np.array([SEGMENT_PROVEN, SEGMENT_PROVEN, SEGMENT_CONJECTURED, SEGMENT_CONJECTURED]),
        )
        assert_writers_match(boundary)
        text = boundary_to_json(boundary)
        assert '"alpha": NaN' in text and "nan" not in text
        assert "\nnan," in boundary_to_csv(boundary)

    def test_single_point(self):
        assert_writers_match(RateRegionBoundary([0.25], [0.5], [math.nan], [SEGMENT_PROVEN]))

    def test_longer_than_one_block(self):
        n = 2 * _BLOCK_ROWS + 3
        r1 = np.linspace(0.0, 1.0, n)
        segment = np.where(r1 < 0.6, SEGMENT_PROVEN, SEGMENT_CONJECTURED)
        boundary = RateRegionBoundary(r1, np.sqrt(1.0 - r1**2), r1 / 3.0, segment)
        assert_writers_match(boundary)

    @pytest.mark.parametrize("name, fam", list(_families()))
    def test_family_frontiers(self, name, fam):
        assert_writers_match(inner_boundary(fam, 2001))
        assert_writers_match(outer_boundary(fam, 2001))


# relative steps between neighbouring r1 values: None is 1 to 3 ulps; a step
# up to 1e-11 may or may not keep the 12-digit text, a larger one never does
CHAIN_STEPS = [None, 2e-13, 3e-12, 8e-12, 1.2e-11, 5e-11, 1e-3]


@st.composite
def near_chains(draw):
    """Frontiers whose r1 climbs in steps near the 12-digit resolution."""
    x = draw(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.1, 1.0, 1e-300, 9.9999999999e5])))
    r1 = [x]
    for _ in range(draw(st.integers(1, 40))):
        step = draw(st.sampled_from(CHAIN_STEPS))
        if step is None:
            for _ in range(draw(st.integers(1, 3))):
                x = float(np.nextafter(x, np.inf))
        else:
            x = max(float(np.nextafter(x, np.inf)), x + step * abs(x))
        r1.append(x)
    n = len(r1)
    segment = draw(st.lists(st.sampled_from([SEGMENT_PROVEN, SEGMENT_CONJECTURED]),
                            min_size=n, max_size=n))
    return RateRegionBoundary(r1, np.linspace(1.0, 0.0, n), np.linspace(0.0, 2.0, n),
                              np.array(segment))


def assert_reads_back(boundary):
    for write, read in ((boundary_to_csv, boundary_from_csv),
                        (boundary_to_json, boundary_from_json)):
        text = write(boundary)
        assert write(read(text)) == text


class TestRepeatedTexts:
    """The writers leave out each row whose r1 has the 12-digit text of the
    row before it, so every frontier they write reads back."""

    def test_runs_of_two_and_three(self):
        r1 = [0.1, 0.1 + 2e-13, 0.2, 0.3, 0.3 + 1e-13, 0.3 + 4e-13, 0.4]
        boundary = RateRegionBoundary(r1, np.linspace(1.0, 0.0, 7), np.arange(7.0),
                                      np.full(7, SEGMENT_PROVEN))
        assert_writers_match(boundary)
        assert_reads_back(boundary)
        for write, read in ((boundary_to_csv, boundary_from_csv),
                            (boundary_to_json, boundary_from_json)):
            again = read(write(boundary))
            np.testing.assert_array_equal(again.alpha, [0.0, 2.0, 3.0, 6.0])
            np.testing.assert_array_equal(again.r1, [0.1, 0.2, 0.3, 0.4])

    def test_run_across_a_block_edge(self):
        n = 2 * _BLOCK_ROWS
        r1 = np.linspace(0.0, 1.0, n)
        edge = r1[_BLOCK_ROWS - 1]
        r1[_BLOCK_ROWS] = np.nextafter(edge, 2.0)
        r1[_BLOCK_ROWS + 1] = np.nextafter(r1[_BLOCK_ROWS], 2.0)
        boundary = RateRegionBoundary(r1, 1.0 - r1, r1 / 3.0, np.full(n, SEGMENT_PROVEN))
        assert_writers_match(boundary)
        assert_reads_back(boundary)
        again = boundary_from_csv(boundary_to_csv(boundary))
        assert len(again) == n - 2 and again.r1[_BLOCK_ROWS - 1] == float(f"{edge:.12g}")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(near_chains())
    def test_near_chains_match_the_plain_loop(self, boundary):
        assert_writers_match(boundary)
        assert_reads_back(boundary)


class TestExports:
    FAM = gaussian_family(BC, 0.5)

    def test_csv_roundtrip_bytes(self):
        boundary = inner_boundary(self.FAM, 201)
        text = boundary_to_csv(boundary)
        again = boundary_to_csv(boundary_from_csv(text))
        assert text == again
        assert text.startswith("alpha,r1,r2,segment\n")
        assert "\r" not in text

    def test_json_roundtrip_bytes(self):
        boundary = outer_boundary(self.FAM, 201)
        text = boundary_to_json(boundary)
        again = boundary_to_json(boundary_from_json(text))
        assert text == again

    def test_segments_split_at_threshold(self):
        boundary = inner_boundary(self.FAM, 2001)
        a_th = threshold_alpha(self.FAM)
        proven = boundary.segment == "proven"
        assert np.all(boundary.alpha[proven] <= a_th + 1e-6)
        assert np.all(boundary.alpha[~proven] > a_th - 1e-6)

    @pytest.mark.parametrize("read, text", [
        (boundary_from_csv, ""),
        (boundary_from_csv, "alpha,r1,r2,segment\n0.1,0.2\n"),
        (boundary_from_json, "[]"),
        (boundary_from_json, '{"points": 3}'),
        (boundary_from_json, '{"pts": []}'),
        (boundary_from_json, '{"points": [{"alpha": 0.1, "r1": 0.2, "segment": "proven"}]}'),
        (boundary_from_csv, "alpha,r1,r2,segment\n0.1,0.2,0.3,bogus,7\n"),
        (boundary_from_csv, "alpha,r1,r2,segment\n0.1,0.2,0.3,proven,7\n"),
        (boundary_from_csv, "alpha,r1,r2,segment\n0.1,0.2,0.3,bogus\n"),
        (boundary_from_json,
         '{"points": [{"alpha": 0.1, "r1": 0.2, "r2": 0.3, "segment": "bogus"}]}'),
        (boundary_from_csv, "alpha,r1,r2,segment\n0,nan,0.5,proven\n"),
        (boundary_from_csv, "alpha,r1,r2,segment\n0,0.1,inf,proven\n"),
    ])
    def test_malformed_frontier_files_are_value_errors(self, read, text):
        with pytest.raises(ValueError):
            read(text)

    @pytest.mark.parametrize("read, text, problem", [
        (boundary_from_csv, "alpha,r1,r2,segment\n0.1,0.2,0.3,proven\n0.1,0.2,0.3,proven,7\n",
         "row 2 has 5 fields, expected 4"),
        (boundary_from_json, '{"points": [{"alpha": 0.1, "r1": 0.2, "r2": 0.3, "segment": "x"}]}',
         "segment label 'x'"),
    ])
    def test_reader_errors_name_the_problem(self, read, text, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            read(text)

    def test_thresholds_csv(self):
        rows = sweep_thresholds(lambda c: gaussian_family(BC, c), [0.0, 0.5])
        text = thresholds_to_csv(rows, C1)
        lines = text.strip().split("\n")
        assert lines[0] == "c12,alpha_th,r1_th,r2_at_th"
        assert len(lines) == 3


class TestRateRegionBoundary:
    @pytest.mark.parametrize("r1, r2", [
        ([0.1, math.nan, 0.5], [0.3, 0.2, 0.1]),  # passes the ordering checks
        ([math.nan], [0.5]),
        ([0.1, math.inf], [0.3, 0.1]),
        ([-math.inf, 0.1], [0.3, 0.1]),
        ([0.1, 0.5], [math.inf, 0.1]),
        ([0.1, 0.5], [0.3, math.nan]),
        ([0.1, 0.5], [0.3, -math.inf]),
    ])
    def test_rejects_nonfinite_rates(self, r1, r2):
        with pytest.raises(ValueError, match="must be finite"):
            RateRegionBoundary(np.array(r1), np.array(r2), np.full(len(r1), math.nan),
                               np.full(len(r1), SEGMENT_PROVEN))

    @pytest.mark.parametrize("r1, r2", [([], []), ([0.1, 0.2], [0.3]), ([[0.1]], [[0.3]])])
    def test_rejects_bad_shapes(self, r1, r2):
        with pytest.raises(ValueError, match="equal-length nonempty vectors"):
            RateRegionBoundary(np.array(r1), np.array(r2), np.empty(0), np.empty(0))

    @pytest.mark.parametrize("field", ["alpha", "segment"])
    def test_rejects_labels_that_do_not_parallel_the_rates(self, field):
        parts = dict(r1=np.array([0.1, 0.2]), r2=np.array([0.3, 0.1]),
                     alpha=np.array([0.0, 1.0]), segment=np.array([SEGMENT_PROVEN] * 2))
        parts[field] = parts[field][:1]
        with pytest.raises(ValueError, match="parallel the rate arrays"):
            RateRegionBoundary(**parts)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RateRegionBoundary(
                np.array([0.5, 0.2]), np.array([0.1, 0.6]),
                np.array([0.0, 1.0]), np.array(["proven", "proven"]),
            )

    def test_rejects_increasing_r2(self):
        with pytest.raises(ValueError):
            RateRegionBoundary(
                np.array([0.2, 0.5]), np.array([0.1, 0.6]),
                np.array([0.0, 1.0]), np.array(["proven", "proven"]),
            )
