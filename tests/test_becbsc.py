import math

import numpy as np
import pytest

from coopbc.becbsc import (
    BecBscBC,
    becbsc_family,
    mgl_gap,
    q_threshold,
    r1_th,
    r2star_closed,
)
from coopbc.channel import make_bec, make_bsc
from coopbc.numerics import (
    LogBase,
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
)
from coopbc.regions import (
    boundary_r2star,
    inner_boundary,
    outer_boundary,
    threshold_alpha,
)

BC = BecBscBC(0.1, 0.2)
C1 = BC.cap1()
C2 = BC.cap2()


def random_valid_pairs(rng, count):
    """Channel pairs inside the strict-monotonicity region of the family.

    The family contract needs (1 - tau1) > (1 - 2*p2)**2, i.e.
    tau1 < 4*p2*(1-p2), which is tighter than the ordering condition
    tau1 < H_b(p2); sampling respects the tighter bound.
    """
    pairs = []
    for _ in range(count):
        p2 = rng.uniform(0.05, 0.45)
        cap = min(binary_entropy(p2), 4.0 * p2 * (1.0 - p2))
        pairs.append(BecBscBC(rng.uniform(0.0, 0.95 * cap), p2))
    return pairs


class TestBecBscBC:
    def test_capacities(self):
        assert C1 == pytest.approx(0.9, abs=1e-15)
        assert C2 == pytest.approx(1.0 - binary_entropy(0.2), abs=1e-15)

    def test_ordering_constraint(self):
        # unordered pairs are channels (check-mc and the simulator take them),
        # but every bounds entry point refuses them
        unordered = (BecBscBC(0.8, 0.2), BecBscBC(0.1, 0.5))  # tau1 >= H_b(p2); C2 = 0
        for bc in unordered:
            for bound in (
                lambda: becbsc_family(bc, 0.0),
                lambda: q_threshold(bc, 0.0),
                lambda: r1_th(bc, 0.0),
                lambda: r2star_closed(bc, 0.0, 0.0),
                lambda: bc.family(0.0),
                lambda: bc.threshold(0.0),
            ):
                with pytest.raises(ValueError, match="0 < C2 < C1"):
                    bound()
        becbsc_family(BecBscBC(0.0, 0.2), 0.0)

    @pytest.mark.parametrize(
        "tau1, p2", [(1.2, 0.1), (-0.1, 0.2), (0.1, 0.6), (0.1, -0.1),
                     (math.nan, 0.2), (0.1, math.nan), (math.inf, 0.2), (0.1, math.inf)],
    )
    def test_parameter_ranges(self, tau1, p2):
        with pytest.raises(ValueError, match="must lie in"):
            BecBscBC(tau1, p2)

    def test_methods_call_the_module_functions(self):
        assert BC.family(0.2).f2(0.1) == becbsc_family(BC, 0.2).f2(0.1)
        assert BC.threshold(0.2) == q_threshold(BC, 0.2)
        pair = BC.pair()
        assert np.array_equal(pair.ch1.transitions, make_bec(0.1).transitions)
        assert np.array_equal(pair.ch2.transitions, make_bsc(0.2).transitions)

    def test_nonmonotone_sliver_rejected_by_family(self):
        # passes the ordering test but breaks the strict-increase contract
        bc = BecBscBC(0.78, 0.25)
        with pytest.raises(ValueError, match="strictly increasing"):
            becbsc_family(bc, 0.0)


class TestFamily:
    def test_endpoints(self):
        fam = becbsc_family(BC, 0.2)
        assert fam.f1(0.0) == 0.0
        assert fam.f2(0.0) == pytest.approx(C2 + 0.2, abs=1e-12)
        assert fam.f1(0.5) == pytest.approx(C1, abs=1e-12)
        assert fam.f2(0.5) == pytest.approx(0.2, abs=1e-12)

    def test_interior_point(self):
        fam = becbsc_family(BC, 0.2)
        assert fam.f1(0.1) == pytest.approx(0.9 * binary_entropy(0.1), abs=1e-12)
        assert fam.f2(0.1) == pytest.approx(1.2 - binary_entropy(0.26), abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ValueError, match="C1 - C2"):
            becbsc_family(BC, 0.7)


class TestQThreshold:
    def test_max_cooperation_endpoint(self):
        top = binary_entropy(0.2) - 0.1
        assert q_threshold(BC, top) == pytest.approx(0.0, abs=1e-9)

    def test_no_cooperation_endpoint(self):
        assert q_threshold(BC, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_against_sign_scan_oracle(self):
        # independent fine-grid scan of the defining equation
        qs = np.linspace(0.0, 0.5, 10**6 + 1)
        hb = lambda p: np.where(
            (p > 0) & (p < 1), -p * np.log2(np.maximum(p, 1e-300))
            - (1 - p) * np.log2(np.maximum(1 - p, 1e-300)), 0.0,
        )
        g = hb(0.2 * (1 - qs) + 0.8 * qs) - 0.9 * hb(qs)
        for c12, frozen in ((0.2, 0.1639360727775227), (0.3, 0.10240509065278675)):
            k = int(np.argmax(g <= c12 + 0.1))
            bracket = (qs[k - 1], qs[k])
            got = q_threshold(BC, c12)
            assert bracket[0] - 1e-12 <= got <= bracket[1] + 1e-12
            assert got == pytest.approx(frozen, abs=1e-9)

    def test_matches_parametric_route_default_pair(self):
        for c12 in np.linspace(0.0, C1 - C2, 50):
            direct = q_threshold(BC, float(c12))
            via_family = threshold_alpha(becbsc_family(BC, float(c12)))
            assert abs(direct - via_family) <= 1e-9

    def test_matches_parametric_route_random_pairs(self):
        rng = np.random.default_rng(41)
        for bc in random_valid_pairs(rng, 20):
            top = bc.cap1() - bc.cap2()
            for c12 in np.linspace(0.0, top, 50):
                direct = q_threshold(bc, float(c12))
                via_family = threshold_alpha(becbsc_family(bc, float(c12)))
                assert abs(direct - via_family) <= 1e-9

    def test_defining_function_decreases(self):
        qs = np.linspace(0.0, 0.5, 10_001)
        g = np.array(
            [
                binary_entropy(binary_convolution(0.2, float(q)))
                - 0.9 * binary_entropy(float(q))
                for q in qs
            ]
        )
        assert np.all(np.diff(g) <= 0)


class TestR2Star:
    def test_at_zero(self):
        assert r2star_closed(BC, 0.2, 0.0) == pytest.approx(C2 + 0.2, abs=1e-12)

    def test_at_threshold(self):
        top = r1_th(BC, 0.2)
        assert top == pytest.approx(0.579278955004626, abs=1e-9)
        assert r2star_closed(BC, 0.2, top) == pytest.approx(C1 - top, abs=1e-9)

    def test_interior_frozen_value(self):
        # q = Hinv(0.45/0.9) = Hinv(0.5), then one convolution step
        assert binary_entropy_inv(0.5) == pytest.approx(0.11002786443835955, abs=1e-9)
        got = r2star_closed(BC, 0.2, 0.45)
        assert got == pytest.approx(0.3643093717628157, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            r2star_closed(BC, 0.2, 0.8)

    def test_matches_parametric_route(self):
        fam = becbsc_family(BC, 0.2)
        rng = np.random.default_rng(42)
        top = r1_th(BC, 0.2)
        for r1 in rng.uniform(0.0, top, size=100):
            closed = r2star_closed(BC, 0.2, float(r1))
            parametric = boundary_r2star(fam, float(r1))
            assert abs(closed - parametric) <= 1e-9

    def test_sum_rate_strictness(self):
        top = r1_th(BC, 0.2)
        rng = np.random.default_rng(43)
        for r1 in rng.uniform(0.0, top, size=100):
            r2 = r2star_closed(BC, 0.2, float(r1))
            assert r1 + r2 <= C1 + 1e-9
            if r1 < top - 1e-3:
                assert r1 + r2 < C1 - 1e-6
        assert top + r2star_closed(BC, 0.2, top) == pytest.approx(C1, abs=1e-6)

    def test_nats(self):
        ln2 = math.log(2)
        got = r2star_closed(BC, 0.2 * ln2, 0.45 * ln2, LogBase.NATS)
        assert got == pytest.approx(0.3643093717628157 * ln2, abs=1e-9)


class TestMglGap:
    def test_single_conditional_is_tight(self):
        assert mgl_gap(np.array([1.0]), np.array([[0.7, 0.3]]), 0.2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_mirrored_conditionals_are_tight(self):
        q = 0.23
        gap = mgl_gap(
            np.array([0.5, 0.5]), np.array([[1 - q, q], [q, 1 - q]]), 0.2
        )
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_random_sweep_nonnegative(self):
        rng = np.random.default_rng(44)
        p_u, rows = np.zeros((2000, 4)), np.full((2000, 4, 2), 0.5)
        for j in range(2000):
            m = int(rng.integers(1, 5))
            p_u[j, :m] = rng.dirichlet(np.ones(m))
            rows[j, :m] = rng.dirichlet(np.ones(2), size=m)
        assert mgl_gap(p_u, rows, 0.2).min() >= -1e-12

    def test_batch_equals_one_joint_at_a_time(self):
        rng = np.random.default_rng(45)
        p_u, rows = np.zeros((100, 3)), np.full((100, 3, 2), 0.5)
        singles = []
        for j in range(100):
            m = int(rng.integers(1, 4))
            p_u[j, :m] = rng.dirichlet(np.ones(m))
            rows[j, :m] = rng.dirichlet(np.ones(2), size=m)
            singles.append(mgl_gap(p_u[j, :m], rows[j, :m], 0.2))
        assert all(type(g) is float for g in singles)
        # zero-padded U values add nothing, so padding changes no bit
        np.testing.assert_array_equal(mgl_gap(p_u, rows, 0.2), singles)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            mgl_gap(np.array([1.0]), np.array([[0.2, 0.3, 0.5]]), 0.2)
        with pytest.raises(ValueError):
            mgl_gap(np.array([0.5, 0.5]), np.array([[0.7, 0.3]]), 0.2)
        with pytest.raises(ValueError, match="one row per value of U"):
            mgl_gap(np.full((4, 2), 0.5), np.full((4, 3, 2), 0.5), 0.2)
        with pytest.raises(ValueError, match="one row per value of U"):
            mgl_gap(np.full((4, 2), 0.5), np.full((2, 2), 0.5), 0.2)

    @pytest.mark.parametrize("p_u, rows, match", [
        ([0.5, 0.5], [[np.nan, 1.0], [0.5, 0.5]], "entries"),
        ([0.5, 0.5], [[0.7, 0.7], [0.5, 0.5]], "sum to 1"),
        ([0.5, np.nan], [[0.7, 0.3], [0.5, 0.5]], "entries"),
    ])
    def test_rejects_invalid_laws(self, p_u, rows, match):
        with pytest.raises(ValueError, match=match):
            mgl_gap(np.array(p_u), np.array(rows), 0.2)


class TestEntropyChainBound:
    def test_induced_crossover_dominates_conditional_entropy(self):
        # Define q by matching the output conditional entropy to a single
        # convolution step; the input conditional entropy then may not exceed
        # the entropy of that crossover.
        rng = np.random.default_rng(45)
        p2 = 0.2
        for _ in range(500):
            m = int(rng.integers(1, 5))
            p_u = rng.dirichlet(np.ones(m))
            rows = rng.dirichlet(np.ones(2), size=m)
            h_x_u = float(p_u @ [binary_entropy(float(t)) for t in rows[:, 1]])
            h_y_u = float(
                p_u
                @ [
                    binary_entropy(binary_convolution(float(t), p2))
                    for t in rows[:, 1]
                ]
            )
            q = (binary_entropy_inv(h_y_u) - p2) / (1.0 - 2.0 * p2)
            assert h_x_u <= binary_entropy(max(min(q, 0.5), 0.0)) + 1e-9


class TestDiamondPoint:
    def test_on_both_frontiers(self):
        fam = becbsc_family(BC, 0.2)
        top = r1_th(BC, 0.2)
        diamond = (top, C1 - top)
        grid_tol = 2.0 * (C1 + C2 + 0.2) / 2001
        for boundary in (inner_boundary(fam, 2001), outer_boundary(fam, 2001)):
            assert abs(boundary.interp_r2(diamond[0]) - diamond[1]) <= grid_tol
