import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coopbc.numerics import (
    BracketError,
    BudgetExceededError,
    IterationLimitError,
    LogBase,
    Tolerance,
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
    bisect_monotone,
    gaussian_cap,
    gaussian_cap_inv,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# evaluators that are NaN somewhere on [0, 1], a target, and where the NaN is met
NAN_EVALUATORS = [
    pytest.param(lambda v: v * math.nan, 0.5, "an endpoint", id="everywhere"),
    pytest.param(lambda v: np.where(v > 0.4, math.nan, v), 0.7, "an endpoint", id="above_0.4"),
    pytest.param(lambda v: np.where(abs(v - 0.5) < 0.05, math.nan, v), 0.7, "0.5", id="midpoint"),
]


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_deterministic_inputs(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_value(self):
        assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-15)

    def test_nats(self):
        assert binary_entropy(0.5, LogBase.NATS) == pytest.approx(math.log(2), abs=1e-15)

    @given(probs)
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_below_max(self, p):
        assert binary_entropy(p) <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestBinaryEntropyInv:
    def test_endpoints(self):
        assert binary_entropy_inv(0.0) == 0.0
        assert binary_entropy_inv(1.0) == 0.5

    def test_inverts_example(self):
        assert binary_entropy_inv(0.7219280948873623) == pytest.approx(0.2, abs=1e-9)

    def test_roundtrip_uniform_sample(self):
        # H(Hinv(h)) = h within 10x the solver tolerance
        rng = np.random.default_rng(11)
        hs = rng.uniform(0.0, 1.0, size=1000)
        tol = Tolerance()
        for h in hs:
            q = binary_entropy_inv(float(h), tol=tol)
            assert abs(binary_entropy(q) - h) <= 10 * tol.abs_tol

    def test_nats_roundtrip(self):
        h = 0.3 * math.log(2)
        q = binary_entropy_inv(h, LogBase.NATS)
        assert binary_entropy(q, LogBase.NATS) == pytest.approx(h, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy_inv(-0.1)
        with pytest.raises(ValueError):
            binary_entropy_inv(1.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            binary_entropy_inv(math.nan)

    def test_float_stays_float(self):
        # the range check and the clamp run on an array; a float comes back a float
        for h in (-1e-10, 0.0, 0.5, 1.0, 1.0 + 1e-10):
            assert type(binary_entropy_inv(h)) is float


class TestBinaryConvolution:
    def test_identity_element(self):
        for p in (0.0, 0.123, 0.5, 0.97):
            assert binary_convolution(p, 0.0) == p

    def test_absorbing_element(self):
        for p in (0.0, 0.3, 1.0):
            assert binary_convolution(p, 0.5) == 0.5

    def test_direct_value(self):
        assert binary_convolution(0.2, 0.1) == pytest.approx(0.26, abs=1e-15)

    @given(probs, probs)
    def test_commutative(self, p, q):
        assert binary_convolution(p, q) == pytest.approx(binary_convolution(q, p), abs=1e-15)

    @given(probs, probs, probs)
    def test_associative(self, p, q, r):
        left = binary_convolution(binary_convolution(p, q), r)
        right = binary_convolution(p, binary_convolution(q, r))
        assert left == pytest.approx(right, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_range_for_small_args(self, p, q):
        out = binary_convolution(p, q)
        assert max(p, q) - 1e-15 <= out <= 0.5 + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_convolution(-0.1, 0.2)
        with pytest.raises(ValueError):
            binary_convolution(0.2, 1.2)


class TestGaussianCap:
    def test_zero(self):
        assert gaussian_cap(0.0) == 0.0
        assert gaussian_cap_inv(0.0) == 0.0

    def test_half_bit_pair(self):
        assert gaussian_cap(1.0) == pytest.approx(0.5, abs=1e-15)
        assert gaussian_cap_inv(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_direct_values(self):
        assert gaussian_cap(5.0) == pytest.approx(1.292481250360578, abs=1e-14)
        assert gaussian_cap_inv(1.0) == pytest.approx(3.0, abs=1e-14)

    def test_roundtrip(self):
        for c in np.linspace(0.0, 5.0, 101):
            assert gaussian_cap(gaussian_cap_inv(float(c))) == pytest.approx(c, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 20.0, 500)
        vals = [gaussian_cap(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nats(self):
        assert gaussian_cap(1.0, LogBase.NATS) == pytest.approx(0.5 * math.log(2), abs=1e-15)
        assert gaussian_cap_inv(0.5 * math.log(2), LogBase.NATS) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_cap(-1.0)
        with pytest.raises(ValueError):
            gaussian_cap_inv(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("base", list(LogBase))
    def test_non_finite_rejected(self, bad, base):
        with pytest.raises(ValueError, match="SNR must be finite"):
            gaussian_cap(bad, base)
        with pytest.raises(ValueError, match="SNR must be finite"):
            gaussian_cap(np.array([1.0, bad]), base)
        with pytest.raises(ValueError, match="capacity must be finite"):
            gaussian_cap_inv(bad, base)

    @pytest.mark.parametrize("base", list(LogBase))
    def test_inverse_overflow_is_a_value_error(self, base):
        for big in (2000.0, 1e308, sys.float_info.max):
            with pytest.raises(ValueError, match="largest float"):
                gaussian_cap_inv(big, base)
        assert math.isfinite(gaussian_cap_inv(511.0 * base.one_bit(), base))

    @pytest.mark.parametrize("base", list(LogBase))
    def test_numpy_scalar_overflow_is_a_value_error_without_a_warning(self, base):
        # the suite turns RuntimeWarning into an error, so numpy's overflow
        # warning would fail this before the ValueError
        with pytest.raises(ValueError, match="largest float"):
            gaussian_cap_inv(np.float64(2000.0), base)
        assert gaussian_cap_inv(np.float64(0.5), LogBase.BITS) == gaussian_cap_inv(0.5)


class TestBisectMonotone:
    def test_identity(self):
        x = bisect_monotone(lambda v: v, 0.0, 1.0, 0.3)
        assert x == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_bracket_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="need lo < hi"):
            bisect_monotone(lambda v: v, lo, hi, 0.5)

    def test_matches_entropy_inverse(self):
        x = bisect_monotone(binary_entropy, 0.0, 0.5, 0.7219280948873623)
        assert x == pytest.approx(0.2, abs=1e-9)

    def test_matches_cap_inverse(self):
        x = bisect_monotone(gaussian_cap, 0.0, 10.0, 1.0)
        assert x == pytest.approx(3.0, abs=1e-8)

    def test_decreasing_direction(self):
        x = bisect_monotone(lambda v: 1.0 - v * v, 0.0, 1.0, 0.75, "decreasing")
        assert x == pytest.approx(0.5, abs=1e-9)

    def test_cubic_analytic_root(self):
        a = 0.7
        target = a**3 + a
        x = bisect_monotone(lambda v: v**3 + v, -1.0, 2.0, target)
        assert x == pytest.approx(a, abs=1e-9)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            bisect_monotone(lambda v: v, 0.0, 1.0, 2.0)

    def test_iteration_limit(self):
        tol = Tolerance(abs_tol=1e-300, max_iters=5)
        with pytest.raises(IterationLimitError):
            bisect_monotone(lambda v: v, 0.0, 1.0, 0.3, tol=tol)

    def test_input_caused_errors_are_value_errors(self):
        # an unreachable tolerance and an over-budget size are invalid input
        assert issubclass(IterationLimitError, ValueError)
        assert issubclass(BudgetExceededError, ValueError)

    def test_endpoint_clamps(self):
        assert bisect_monotone(lambda v: v, 0.0, 1.0, 0.0) == 0.0
        assert bisect_monotone(lambda v: v, 0.0, 1.0, 1.0) == 1.0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            bisect_monotone(lambda v: v, 0.0, 1.0, 0.5, "sideways")

    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_nan_target_rejected(self, direction):
        with pytest.raises(ValueError, match="NaN"):
            bisect_monotone(lambda v: v, 0.0, 1.0, math.nan, direction)

    @pytest.mark.parametrize("f, target, where", NAN_EVALUATORS)
    def test_nan_evaluator_rejected(self, f, target, where):
        with pytest.raises(ValueError, match=f"f is NaN at {where}"):
            bisect_monotone(f, 0.0, 1.0, target)


class TestBisectMonotoneArrays:
    """An ndarray target runs one bisection over every element, by the float path's rules."""

    TOL = Tolerance(abs_tol=1e-12, max_iters=400)

    @pytest.mark.parametrize(
        "f, lo, hi, direction, exact",
        [
            (lambda v: v, 0.0, 1.0, "increasing", True),
            (lambda v: 1.0 - v * v, 0.0, 1.0, "decreasing", True),
            (binary_entropy, 0.0, 0.5, "increasing", False),
            (lambda v: binary_entropy(v, LogBase.NATS), 0.0, 0.5, "increasing", False),
            (gaussian_cap, 0.0, 10.0, "increasing", False),
        ],
    )
    def test_each_element_matches_float_path(self, f, lo, hi, direction, exact):
        ends = sorted((f(lo), f(hi)))
        targets = np.linspace(ends[0], ends[1], 501)
        got = bisect_monotone(f, lo, hi, targets, direction, self.TOL)
        want = np.array([bisect_monotone(f, lo, hi, float(t), direction, self.TOL) for t in targets])
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            # numpy's log may flip a step where f(mid) is within ulps of the target
            np.testing.assert_allclose(got, want, rtol=0.0, atol=2 * self.TOL.abs_tol)

    def test_endpoint_values_are_scalar_calls(self):
        seen = []

        def f(v):
            seen.append(type(v))
            return v

        bisect_monotone(f, 0.0, 1.0, np.array([0.2, 0.7]))
        assert seen[:2] == [float, float]
        assert set(seen[2:]) == {np.ndarray}

    def test_zero_dimensional_target(self):
        x = bisect_monotone(lambda v: v, 0.0, 1.0, np.array(0.3))
        assert x.shape == () and x == bisect_monotone(lambda v: v, 0.0, 1.0, 0.3)

    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_endpoint_clamps_per_element(self, direction):
        tol = self.TOL.abs_tol
        f = (lambda v: v) if direction == "increasing" else (lambda v: 1.0 - v)
        targets = np.array([0.0, 0.5 * tol, 0.3, 1.0 - 0.5 * tol, 1.0])
        got = bisect_monotone(f, 0.0, 1.0, targets, direction, self.TOL)
        want = [bisect_monotone(f, 0.0, 1.0, float(t), direction, self.TOL) for t in targets]
        np.testing.assert_array_equal(got, want)
        edges = [0.0, 0.0, 1.0, 1.0] if direction == "increasing" else [1.0, 1.0, 0.0, 0.0]
        assert got[[0, 1, 3, 4]].tolist() == edges
        assert got[2] == pytest.approx(0.3 if direction == "increasing" else 0.7, abs=tol)

    def test_low_end_wins_where_both_clamps_apply(self):
        # f(hi) - f(lo) < 2 tol: every target is within tol of both endpoint values
        def flat(v):
            return 1e-11 * v

        targets = np.array([0.0, 5e-12, 1e-11])
        assert bisect_monotone(flat, 0.0, 1.0, targets).tolist() == [0.0, 0.0, 0.0]
        assert all(bisect_monotone(flat, 0.0, 1.0, float(t)) == 0.0 for t in targets)

    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_nan_element_rejected(self, direction):
        with pytest.raises(ValueError, match="NaN"):
            bisect_monotone(lambda v: v, 0.0, 1.0, np.array([0.3, math.nan]), direction)

    @pytest.mark.parametrize("f, target, where", NAN_EVALUATORS)
    def test_nan_evaluator_rejected(self, f, target, where):
        with pytest.raises(ValueError, match=f"f is NaN at {where}"):
            bisect_monotone(f, 0.0, 1.0, np.array([0.2, target]))

    @pytest.mark.parametrize("bad", [-0.5, 2.0])
    def test_out_of_bracket_element(self, bad):
        with pytest.raises(BracketError, match=f"target {bad} not enclosed"):
            bisect_monotone(lambda v: v, 0.0, 1.0, np.array([0.3, bad, 0.6]))

    def test_iteration_limit(self):
        tol = Tolerance(abs_tol=1e-300, max_iters=5)
        with pytest.raises(IterationLimitError):
            bisect_monotone(lambda v: v, 0.0, 1.0, np.array([0.3, 0.6]), tol=tol)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1e-10
        assert tol.max_iters == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(max_iters=0)

    @pytest.mark.parametrize("abs_tol", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_width_rejected(self, abs_tol):
        with pytest.raises(ValueError, match="finite and positive"):
            Tolerance(abs_tol=abs_tol)


class TestArrayArguments:
    """The entropy/capacity functions take whole grids; floats stay on math."""

    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("base", list(LogBase))
    def test_entropy_matches_scalars(self, base):
        got = binary_entropy(self.GRID, base)
        want = np.array([binary_entropy(float(p), base) for p in self.GRID])
        # np.log2/np.log and math.log2/math.log may differ in the last bit
        np.testing.assert_array_max_ulp(got, want, maxulp=2)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert not np.signbit(got[[0, -1]]).any()

    @pytest.mark.parametrize("base", list(LogBase))
    def test_capacity_matches_scalars(self, base):
        xs = 20.0 * self.GRID
        got = gaussian_cap(xs, base)
        want = np.array([gaussian_cap(float(x), base) for x in xs])
        np.testing.assert_array_max_ulp(got, want, maxulp=2)

    def test_convolution_matches_scalars(self):
        got = binary_convolution(0.2, self.GRID)
        want = np.array([binary_convolution(0.2, float(q)) for q in self.GRID])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(binary_convolution(self.GRID, 0.2), want)

    @pytest.mark.parametrize("base", list(LogBase))
    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-14])
    def test_entropy_inverse_matches_scalars(self, base, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        top = base.one_bit()
        hs = np.concatenate([binary_entropy(0.5 * self.GRID, base),
                             [-1e-10, 0.5 * abs_tol, top - 0.5 * abs_tol, top + 1e-10]])
        got = binary_entropy_inv(hs, base, tol)
        want = np.array([binary_entropy_inv(float(h), base, tol) for h in hs])
        # numpy's log may flip a step where H(mid) is within ulps of the
        # target; both answers then stay within the final bracket of that root
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2 * abs_tol)
        assert got[-4] == 0.0 and got[-3] == 0.0 and got[-2] == 0.5 and got[-1] == 0.5

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_entropy_inverse_array_domain(self, bad):
        with pytest.raises(ValueError, match="entropy value"):
            binary_entropy_inv(np.array([0.5, bad]))

    def test_float_argument_returns_float(self):
        # the scalar path must never go through numpy: bisection calls it per step
        for value in (
            binary_entropy(0.3),
            binary_entropy(0.3, LogBase.NATS),
            binary_convolution(0.2, 0.3),
            gaussian_cap(2.0),
        ):
            assert type(value) is float

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_array_domain(self, bad):
        grid = np.array([0.1, bad, 0.3])
        with pytest.raises(ValueError, match="probability"):
            binary_entropy(grid)
        with pytest.raises(ValueError, match="probability"):
            binary_convolution(0.2, grid)
        with pytest.raises(ValueError, match="probability"):
            binary_convolution(np.full(3, bad), 0.2)

    def test_array_snr_domain(self):
        with pytest.raises(ValueError, match="SNR"):
            gaussian_cap(np.array([1.0, -2.0]))
