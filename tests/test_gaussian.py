import numpy as np
import pytest

from coopbc.gaussian import (
    GaussianBC,
    alpha_th_closed,
    gaussian_family,
    r1_th_closed,
    r2star_closed,
)
from coopbc.numerics import LogBase
from coopbc.regions import boundary_r2star, inner_boundary, outer_boundary, threshold_alpha

BC = GaussianBC(5.0, 0.5)
C1 = BC.cap1()
C2 = BC.cap2()


class TestGaussianBC:
    def test_capacities(self):
        assert C1 == pytest.approx(1.292481250360578, abs=1e-14)
        assert C2 == pytest.approx(0.2924812503605781, abs=1e-14)

    def test_ordering_required(self):
        # unordered pairs are channels (the simulator takes them), but every
        # bounds entry point refuses them
        for bc in (GaussianBC(0.5, 5.0), GaussianBC(1.0, 1.0)):
            for bound in (
                lambda: gaussian_family(bc, 0.0),
                lambda: alpha_th_closed(bc, 0.0),
                lambda: r1_th_closed(bc, 0.0),
                lambda: r2star_closed(bc, 0.0, 0.0),
                lambda: bc.family(0.0),
                lambda: bc.threshold(0.0),
            ):
                with pytest.raises(ValueError, match="0 < C2 < C1"):
                    bound()
        with pytest.raises(ValueError):
            GaussianBC(1.0, 0.0)

    @pytest.mark.parametrize("snrs", [(np.inf, 0.5), (5.0, np.inf), (np.nan, 0.5), (5.0, np.nan)])
    def test_non_finite_snr_rejected(self, snrs):
        with pytest.raises(ValueError, match="finite"):
            GaussianBC(*snrs)

    def test_methods_call_the_module_functions(self):
        assert BC.family(0.5).f2(0.25) == gaussian_family(BC, 0.5).f2(0.25)
        assert BC.threshold(0.5) == alpha_th_closed(BC, 0.5)


class TestFamily:
    def test_endpoints(self):
        fam = gaussian_family(BC, 0.5)
        assert fam.f1(0.0) == 0.0
        assert fam.f2(0.0) == pytest.approx(C2 + 0.5, abs=1e-12)
        assert fam.f1(1.0) == pytest.approx(C1, abs=1e-12)
        assert fam.f2(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_interior_point(self):
        fam = gaussian_family(BC, 0.5)
        assert fam.f1(0.25) == pytest.approx(0.5849625007211562, abs=1e-12)
        assert fam.f2(0.25) == pytest.approx(0.7075187496394219, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ValueError, match="C1 - C2"):
            gaussian_family(BC, 1.5)

    def test_sum_identity(self):
        # f1 + f2 collapses to the SNR-ratio form plus the constant shift
        fam = gaussian_family(BC, 0.5)
        for a in np.linspace(0.0, 1.0, 101):
            expect = 0.5 * np.log2((1 + a * 5.0) / (1 + a * 0.5)) + C2 + 0.5
            assert fam.f1(a) + fam.f2(a) == pytest.approx(expect, abs=1e-12)

    def test_sum_identity_harmonic_form(self):
        fam = gaussian_family(BC, 0.5)
        for a in np.linspace(1e-6, 1.0, 100):
            expect = 0.5 * np.log2(1 + (5.0 - 0.5) / (1.0 / a + 0.5))
            assert fam.f1(a) + fam.f2(a) - C2 - 0.5 == pytest.approx(expect, abs=1e-12)

    def test_sum_strictly_increasing(self):
        fam = gaussian_family(BC, 0.5)
        grid = np.linspace(0.0, 1.0, 10_001)
        sums = np.array([fam.f1(a) + fam.f2(a) for a in grid])
        assert np.all(np.diff(sums) > 0)


class TestAlphaThreshold:
    def test_limit_at_max_cooperation(self):
        assert alpha_th_closed(BC, C1 - C2) == 0.0

    def test_no_cooperation(self):
        assert alpha_th_closed(BC, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_bit(self):
        assert alpha_th_closed(BC, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_r1_th(self):
        assert r1_th_closed(BC, 0.5) == pytest.approx(0.5849625007211562, abs=1e-12)

    def test_cross_validation_against_bisection(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s2 = rng.uniform(0.05, 3.0)
            s1 = s2 + rng.uniform(0.1, 8.0)
            bc = GaussianBC(s1, s2)
            top = bc.cap1() - bc.cap2()
            for c12 in np.linspace(0.0, top, 50):
                closed = alpha_th_closed(bc, float(c12))
                bisected = threshold_alpha(gaussian_family(bc, float(c12)))
                assert abs(closed - bisected) <= 1e-9


class TestR2Star:
    def test_at_zero(self):
        assert r2star_closed(BC, 0.5, 0.0) == pytest.approx(C2 + 0.5, abs=1e-12)

    def test_interior(self):
        got = r2star_closed(BC, 0.5, 0.5849625007211562)
        assert got == pytest.approx(0.7075187496394219, abs=1e-12)

    def test_strict_below_sum_rate_inside(self):
        got = r2star_closed(BC, 0.5, 0.3)
        assert got + 0.3 < C1 - 1e-6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            r2star_closed(BC, 0.5, 0.7)

    def test_matches_parametric_route(self):
        fam = gaussian_family(BC, 0.5)
        rng = np.random.default_rng(32)
        r1_top = r1_th_closed(BC, 0.5)
        for r1 in rng.uniform(0.0, r1_top, size=100):
            closed = r2star_closed(BC, 0.5, float(r1))
            parametric = boundary_r2star(fam, float(r1))
            assert abs(closed - parametric) <= 1e-9

    def test_nats_consistency(self):
        # the threshold split is base-free; rates scale by ln 2
        assert alpha_th_closed(BC, 0.5 * np.log(2), LogBase.NATS) == pytest.approx(
            0.25, abs=1e-12
        )
        got = r2star_closed(BC, 0.5 * np.log(2), 0.3 * np.log(2), LogBase.NATS)
        assert got == pytest.approx(r2star_closed(BC, 0.5, 0.3) * np.log(2), abs=1e-12)


class TestDiamondPoint:
    def test_on_both_frontiers(self):
        fam = gaussian_family(BC, 0.5)
        r1_th = r1_th_closed(BC, 0.5)
        diamond = (r1_th, C1 - r1_th)
        grid_tol = 2.0 * (C1 + C2 + 0.5) / 2001
        for boundary in (inner_boundary(fam, 2001), outer_boundary(fam, 2001)):
            assert abs(boundary.interp_r2(diamond[0]) - diamond[1]) <= grid_tol
