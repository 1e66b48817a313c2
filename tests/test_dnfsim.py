import numpy as np
import pytest

from coopbc.becbsc import BecBscBC
from coopbc.channel import AuxiliaryJoint
from coopbc.dnfsim import (
    BudgetExceededError,
    CodeConfig,
    SimReport,
    bin_assignment,
    build_superposition_codebook,
    simulate,
)
from coopbc.gaussian import GaussianBC

UNIFORM_LAW = AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[0.5, 0.5], [0.5, 0.5]]))


def symmetric_law(q):
    return AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[1 - q, q], [q, 1 - q]]))


class TestCodeConfig:
    def test_counting(self):
        cfg = CodeConfig(n=8, r1=0.25, r2=0.25, c12=0.25, seed=0, input_law=UNIFORM_LAW)
        assert cfg.nu1 == 4 and cfg.nu2 == 4

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            CodeConfig(n=40, r1=0.5, r2=0.5, c12=0.0, seed=0, input_law=UNIFORM_LAW)

    def test_oversize_code_is_over_budget_not_overflow(self):
        # 2**(2000*0.6) overflows a float; the exponent check fires first
        with pytest.raises(BudgetExceededError):
            CodeConfig(n=2000, r1=0.6, r2=0.1, c12=0.0, seed=0, input_law=UNIFORM_LAW)

    def test_budget_edge_still_accepted(self):
        # n*(r1+r2) rounds to just above log2(budget); the exact count decides
        cfg = CodeConfig(n=10, r1=0.1, r2=0.2, c12=0.0, seed=0, input_law=UNIFORM_LAW,
                         codeword_budget=8)
        assert cfg.nu1 * cfg.nu2 == 8

    @pytest.mark.parametrize("field", ["r1", "r2", "c12"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rates_rejected(self, field, value):
        rates = dict(r1=0.1, r2=0.1, c12=0.1)
        rates[field] = value
        with pytest.raises(ValueError, match="finite"):
            CodeConfig(n=8, seed=0, input_law=UNIFORM_LAW, **rates)

    def test_exactly_one_law(self):
        with pytest.raises(ValueError):
            CodeConfig(n=4, r1=0.1, r2=0.1, c12=0.0, seed=0)
        with pytest.raises(ValueError):
            CodeConfig(
                n=4, r1=0.1, r2=0.1, c12=0.0, seed=0,
                input_law=UNIFORM_LAW, power_split=0.5,
            )

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            BecBscBC(1.2, 0.1)
        with pytest.raises(ValueError):
            BecBscBC(0.1, 0.6)
        with pytest.raises(ValueError):
            GaussianBC(0.0, 1.0)


class TestBinAssignment:
    def test_singletons_when_link_covers_rate(self):
        cfg = CodeConfig(n=8, r1=0.25, r2=0.25, c12=0.3, seed=0, input_law=UNIFORM_LAW)
        bins = bin_assignment(cfg)
        assert cfg.bin_size == 1
        np.testing.assert_array_equal(bins, np.arange(cfg.nu2))

    def test_single_bin_without_link(self):
        cfg = CodeConfig(n=8, r1=0.25, r2=0.25, c12=0.0, seed=0, input_law=UNIFORM_LAW)
        bins = bin_assignment(cfg)
        assert cfg.n_bins == 1
        assert np.all(bins == 0)

    def test_four_bins_of_four(self):
        cfg = CodeConfig(n=8, r1=0.0, r2=0.5, c12=0.25, seed=0, input_law=UNIFORM_LAW)
        assert cfg.nu2 == 16 and cfg.n_bins == 4 and cfg.bin_size == 4
        bins = bin_assignment(cfg)
        np.testing.assert_array_equal(np.bincount(bins), [4, 4, 4, 4])

    def test_link_wider_than_the_float_range(self):
        # 2**(2000*0.6) overflows a float, yet the code has 16 codewords
        cfg = CodeConfig(n=2000, r1=0.001, r2=0.001, c12=0.6, seed=0, input_law=UNIFORM_LAW)
        assert cfg.n_bins == 2**1200
        assert cfg.nu1 * cfg.nu2 == 16 and cfg.bin_size == 1

    def test_every_message_lands_in_a_valid_bin(self):
        cfg = CodeConfig(n=10, r1=0.1, r2=0.45, c12=0.2, seed=0, input_law=UNIFORM_LAW)
        bins = bin_assignment(cfg)
        assert bins.min() >= 0 and bins.max() < cfg.n_bins
        # bin consistency: the candidate set of bin(m2) always contains m2
        for m2 in range(cfg.nu2):
            assert bins[m2] == m2 // cfg.bin_size


class TestCodebook:
    def test_counting_trivial(self):
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, c12=0.0, seed=1, input_law=UNIFORM_LAW)
        book = build_superposition_codebook(cfg)
        assert book.clouds.shape == (1, 8)
        assert book.satellites.shape == (1, 1, 8)

    def test_satellite_cloud_hamming_fraction(self):
        q = 0.11
        cfg = CodeConfig(n=32, r1=0.125, r2=0.125, c12=0.125, seed=2,
                         input_law=symmetric_law(q))
        book = build_superposition_codebook(cfg)
        mismatch = book.satellites != book.clouds[None, :, :]
        frac = float(np.mean(mismatch))
        sigma = np.sqrt(q * (1 - q) / mismatch.size)
        assert abs(frac - q) <= 3 * sigma

    def test_cloud_law(self):
        law = AuxiliaryJoint(np.array([0.8, 0.2]), np.eye(2))
        cfg = CodeConfig(n=64, r1=0.0, r2=0.09, c12=0.09, seed=3, input_law=law)
        book = build_superposition_codebook(cfg)
        frac_ones = float(np.mean(book.clouds))
        sigma = np.sqrt(0.2 * 0.8 / book.clouds.size)
        assert abs(frac_ones - 0.2) <= 4 * sigma

    def test_gaussian_power_split(self):
        cfg = CodeConfig(n=64, r1=0.1, r2=0.1, c12=0.1, seed=4, power_split=0.3)
        book = build_superposition_codebook(cfg)
        assert not book.discrete
        cloud_power = float(np.mean(book.clouds**2))
        sat_power = float(np.mean(book.satellites**2))
        assert cloud_power == pytest.approx(0.7, abs=0.05)
        assert sat_power == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        cfg = CodeConfig(n=16, r1=0.2, r2=0.2, c12=0.2, seed=5, input_law=UNIFORM_LAW)
        b1 = build_superposition_codebook(cfg)
        b2 = build_superposition_codebook(cfg)
        np.testing.assert_array_equal(b1.satellites, b2.satellites)


class TestSimulate:
    def test_noiseless_zero_errors(self):
        # singleton bins + distinct codewords: both decoders must be exact
        cfg = CodeConfig(n=20, r1=0.2, r2=0.2, c12=0.2, seed=6, input_law=UNIFORM_LAW)
        book = build_superposition_codebook(cfg)
        flat = book.satellites.reshape(cfg.nu1 * cfg.nu2, cfg.n)
        assert len(np.unique(flat, axis=0)) == flat.shape[0]
        report = simulate(cfg, BecBscBC(0.0, 0.0), 400)
        assert report.error_events == 0

    def test_reproducible(self):
        cfg = CodeConfig(n=12, r1=0.3, r2=0.25, c12=0.2, seed=7,
                         input_law=symmetric_law(0.16))
        a = simulate(cfg, BecBscBC(0.1, 0.2), 1500)
        b = simulate(cfg, BecBscBC(0.1, 0.2), 1500)
        assert a == b

    def test_threads_match_serial(self):
        cfg = CodeConfig(n=12, r1=0.3, r2=0.25, c12=0.2, seed=8,
                         input_law=symmetric_law(0.16))
        serial = simulate(cfg, BecBscBC(0.1, 0.2), 1200)
        threaded = simulate(cfg, BecBscBC(0.1, 0.2), 1200, threads=4)
        assert serial == threaded

    def test_link_wider_than_the_float_range_runs(self):
        # only the bins in use are searched: a 2**1280-index link decodes like
        # one that just names every user-2 message
        def report(c12):
            cfg = CodeConfig(n=64, r1=2 / 64, r2=2 / 64, c12=c12, seed=4,
                             input_law=symmetric_law(0.16))
            return simulate(cfg, BecBscBC(0.6, 0.3), 300)

        assert report(20.0) == report(2 / 64)

    def test_gaussian_runs_and_reproduces(self):
        cfg = CodeConfig(n=10, r1=0.3, r2=0.2, c12=0.2, seed=9, power_split=0.6)
        a = simulate(cfg, GaussianBC(5.0, 0.5), 800)
        b = simulate(cfg, GaussianBC(5.0, 0.5), 800)
        assert a == b
        assert 0.0 <= a.p_e_estimate <= 1.0

    def test_cooperation_helps_user2(self):
        # same inside-region rate pair, with and without the link
        law = symmetric_law(0.16)
        with_link = simulate(
            CodeConfig(n=12, r1=0.25, r2=0.2, c12=0.2, seed=10, input_law=law),
            BecBscBC(0.1, 0.2), 4000,
        )
        without = simulate(
            CodeConfig(n=12, r1=0.25, r2=0.2, c12=0.0, seed=10, input_law=law),
            BecBscBC(0.1, 0.2), 4000,
        )
        slack = 2 * (with_link.user2_half_width + without.user2_half_width)
        assert with_link.user2_error_rate <= without.user2_error_rate + slack

    def test_degenerate_weak_channel(self):
        # useless channel to user 2: within the right bin only the tie-break
        # first candidate ever wins, so error = 1 - 1/bin_size
        cfg = CodeConfig(n=16, r1=0.125, r2=0.25, c12=0.125, seed=11,
                         input_law=symmetric_law(0.25))
        assert cfg.bin_size == 4
        report = simulate(cfg, BecBscBC(0.0, 0.5), 4000)
        expect = 1.0 - 1.0 / cfg.bin_size
        sigma = np.sqrt(expect * (1 - expect) / 4000)
        assert abs(report.user2_error_rate - expect) <= 3 * sigma

    def test_beyond_sum_capacity_fails_hard(self):
        law = symmetric_law(0.16)
        cfg = CodeConfig(n=12, r1=0.7, r2=0.38, c12=0.2, seed=12, input_law=law)
        report = simulate(cfg, BecBscBC(0.1, 0.2), 1500)
        assert report.p_e_estimate >= 0.3

    def test_report_json_fields(self):
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=13, input_law=UNIFORM_LAW)
        report = simulate(cfg, BecBscBC(0.1, 0.2), 200)
        as_json = report.to_json()
        for key in ("trials", "user1_joint_errors", "user2_errors", "p_e_estimate"):
            assert key in as_json

    def test_trials_validation(self):
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=14, input_law=UNIFORM_LAW)
        with pytest.raises(ValueError):
            simulate(cfg, BecBscBC(0.1, 0.2), 0)

    def test_law_channel_mismatch(self):
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=15, power_split=0.5)
        with pytest.raises(ValueError):
            simulate(cfg, BecBscBC(0.1, 0.2), 10)


class TestSimReport:
    def test_half_width(self):
        assert SimReport.half_width(0, 100) == 0.0
        assert SimReport.half_width(50, 100) == pytest.approx(1.96 * 0.05, abs=1e-12)

    def test_rates(self):
        report = SimReport(
            trials=200, user1_joint_errors=20, user2_errors=30,
            error_events=40, p_e_estimate=0.2, p_e_half_width=0.05,
        )
        assert report.user1_error_rate == pytest.approx(0.1)
        assert report.user2_error_rate == pytest.approx(0.15)
