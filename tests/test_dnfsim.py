import math
import re
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from coopbc.becbsc import BecBscBC
from coopbc.channel import AuxiliaryJoint
from coopbc import dnfsim, numerics
from coopbc.dnfsim import (
    BudgetExceededError,
    CodeConfig,
    SimReport,
    _bin_ranges,
    _codebook_rng,
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

    @pytest.mark.parametrize("r1, r2", [(0.6, 0.0), (0.0, 0.512), (0.1, 0.55)])
    def test_budget_past_the_float_range_is_over_budget_not_overflow(self, r1, r2):
        # the budget admits 2**1329 codewords, but 2.0**(n*r_k) overflows from 1024 up
        with pytest.raises(BudgetExceededError, match="past the float range"):
            CodeConfig(n=2000, r1=r1, r2=r2, c12=0.0, seed=0, input_law=UNIFORM_LAW,
                       codeword_budget=10 ** 400)

    def test_largest_code_below_the_float_range(self):
        r1 = math.nextafter(1024.0, 0.0)
        cfg = CodeConfig(n=1, r1=r1, r2=0.0, c12=0.0, seed=0, input_law=UNIFORM_LAW,
                         codeword_budget=2 ** 1024)
        assert cfg.nu1 == int(2.0 ** r1) and cfg.nu2 == 1

    def test_budget_edge_still_accepted(self):
        # n*(r1+r2) rounds to just above log2(budget); the exact count decides
        cfg = CodeConfig(n=10, r1=0.1, r2=0.2, c12=0.0, seed=0, input_law=UNIFORM_LAW,
                         codeword_budget=8)
        assert cfg.nu1 * cfg.nu2 == 8

    @pytest.mark.parametrize("n", [2**53 + 1, 10**400])
    def test_blocklength_past_exact_floats_rejected(self, n):
        # 10**400 is past the float range: n*(r1+r2) used to raise OverflowError
        with pytest.raises(ValueError, match="blocklength must be <= 2\\*\\*53"):
            CodeConfig(n=n, r1=0.0, r2=0.0, c12=0.0, seed=0, power_split=0.5)

    def test_largest_blocklength_accepted(self):
        cfg = CodeConfig(n=2**53, r1=0.0, r2=0.0, c12=0.0, seed=0, power_split=0.5)
        assert cfg.nu1 == cfg.nu2 == cfg.bin_size == 1

    @pytest.mark.parametrize("field", ["r1", "r2", "c12"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rates_rejected(self, field, value):
        rates = dict(r1=0.1, r2=0.1, c12=0.1)
        rates[field] = value
        with pytest.raises(ValueError, match="finite"):
            CodeConfig(n=8, seed=0, input_law=UNIFORM_LAW, **rates)

    @pytest.mark.parametrize("field", ["r1", "r2", "c12"])
    def test_negative_rates_rejected(self, field):
        rates = dict(r1=0.1, r2=0.1, c12=0.1)
        rates[field] = -0.1
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            CodeConfig(n=8, seed=0, input_law=UNIFORM_LAW, **rates)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            CodeConfig(n=8, r1=0.1, r2=0.1, c12=0.1, seed=-1, input_law=UNIFORM_LAW)

    @pytest.mark.parametrize("field, message", [
        ("n", "blocklength must be >= 1, got 0"),
        ("codeword_budget", "codeword budget must be >= 1, got 0"),
    ])
    def test_sizes_below_one_rejected(self, field, message):
        args = dict(n=8, r1=0.1, r2=0.1, c12=0.1, seed=0, input_law=UNIFORM_LAW)
        args[field] = 0
        with pytest.raises(ValueError, match=message):
            CodeConfig(**args)

    @pytest.mark.parametrize("split", [-0.1, 1.5, math.nan])
    def test_power_split_outside_the_unit_interval(self, split):
        with pytest.raises(ValueError, match="power split must lie in"):
            CodeConfig(n=8, r1=0.1, r2=0.1, c12=0.1, seed=0, power_split=split)

    def test_exact_count_over_budget(self):
        # 2**(1*(0.5+0.5)) = 2 passes the exponent check; the counts round up to 2*2
        with pytest.raises(BudgetExceededError, match=r"2\*2 codewords exceeds the budget of 2"):
            CodeConfig(n=1, r1=0.5, r2=0.5, c12=0, seed=0, power_split=0.5, codeword_budget=2)

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


def _bins_of(cfg):
    """Bin of each user-2 message, the one binning rule: m // bin_size."""
    return np.arange(cfg.nu2) // cfg.bin_size


def _link_indices(n, c12):
    """ceil(2**(n*c12)) as an exact integer, for the exact value of the float c12.

    A non-integer exponent gives an irrational power, so it is evaluated in
    decimal with enough digits that the ceiling is exact."""
    x = n * Fraction(c12)
    if x.denominator == 1:
        return 2**x.numerator
    with localcontext() as ctx:
        ctx.prec = 50 + int(x) // 3
        power = (Decimal(x.numerator) / x.denominator * Decimal(2).ln()).exp()
    return int(power.to_integral_value(rounding=ROUND_CEILING))


class TestBinAssignment:
    def test_singletons_when_link_covers_rate(self):
        cfg = CodeConfig(n=8, r1=0.25, r2=0.25, c12=0.3, seed=0, input_law=UNIFORM_LAW)
        starts, counts = _bin_ranges(cfg)
        assert cfg.bin_size == 1
        np.testing.assert_array_equal(starts, np.arange(cfg.nu2))
        np.testing.assert_array_equal(counts, np.ones(cfg.nu2))

    def test_single_bin_without_link(self):
        cfg = CodeConfig(n=8, r1=0.25, r2=0.25, c12=0.0, seed=0, input_law=UNIFORM_LAW)
        starts, counts = _bin_ranges(cfg)
        assert starts.tolist() == [0] and counts.tolist() == [cfg.nu2]
        assert np.all(_bins_of(cfg) == 0)

    def test_four_bins_of_four(self):
        cfg = CodeConfig(n=8, r1=0.0, r2=0.5, c12=0.25, seed=0, input_law=UNIFORM_LAW)
        assert cfg.nu2 == 16 and cfg.bin_size == 4
        np.testing.assert_array_equal(np.bincount(_bins_of(cfg)), [4, 4, 4, 4])
        assert _bin_ranges(cfg)[1].tolist() == [4, 4, 4, 4]

    def test_link_wider_than_the_float_range(self):
        # 2**(2000*0.6) overflows a float, yet the code has 16 codewords
        cfg = CodeConfig(n=2000, r1=0.001, r2=0.001, c12=0.6, seed=0, input_law=UNIFORM_LAW)
        assert cfg.nu1 * cfg.nu2 == 16 and cfg.bin_size == 1
        assert _bin_ranges(cfg)[0].size == cfg.nu2

    def test_every_message_lands_in_a_valid_bin(self):
        cfg = CodeConfig(n=10, r1=0.1, r2=0.45, c12=0.2, seed=0, input_law=UNIFORM_LAW)
        starts, counts = _bin_ranges(cfg)
        # bin consistency: the candidate range of bin(m2) always contains m2
        for m2 in range(cfg.nu2):
            b = m2 // cfg.bin_size
            assert 0 <= b < starts.size
            assert starts[b] <= m2 < starts[b] + counts[b]

    @pytest.mark.parametrize("n, r2, c12", [
        (8, 0.25, 0.3),     # singletons
        (8, 0.25, 0.0),     # one bin
        (8, 0.5, 0.25),     # four bins of four
        (10, 0.45, 0.2),    # 23 messages in bins of 6: the last holds 5
        (2000, 0.001, 0.6), # link wider than the float range
    ])
    def test_ranges_are_the_bins_of_the_assignment(self, n, r2, c12):
        cfg = CodeConfig(n=n, r1=0.0, r2=r2, c12=c12, seed=0, input_law=UNIFORM_LAW)
        bins = _bins_of(cfg)
        starts, counts = _bin_ranges(cfg)
        assert starts.size == counts.size == bins.max() + 1
        for b, (start, count) in enumerate(zip(starts, counts)):
            np.testing.assert_array_equal(np.flatnonzero(bins == b),
                                          np.arange(start, start + count))

    def test_bins_never_exceed_the_link_indices(self):
        # ceil(A) <= ceil(A/S) * ceil(S) with A = 2**(n*r2), S = 2**(n*(r2-c12)).
        # The bound needs the exact ceiling: the float 0.1 lies above 0.1, so at
        # n=20, r2=0.35000000000000003 (on the grid) 129 messages in bins of 32
        # use five bins of a five-index link, where ceil(2.0 ** (20 * 0.1)) is 4
        assert _link_indices(20, 0.1) == 5 and math.ceil(2.0 ** (20 * 0.1)) == 4
        assert _link_indices(8, 0.3) == 6  # 2**2.4 = 5.28
        assert 2**1199 < _link_indices(2000, 0.6) <= 2**1200  # the float 0.6 lies below 0.6
        for n in range(1, 21):
            for r2 in np.arange(0.0, 0.66, 0.05):
                for c12 in np.arange(0.0, 0.76, 0.05):
                    cfg = CodeConfig(n=n, r1=0.0, r2=float(r2), c12=float(c12), seed=0,
                                     input_law=UNIFORM_LAW)
                    used = _bin_ranges(cfg)[0].size
                    assert used == -(-cfg.nu2 // cfg.bin_size)
                    assert used <= _link_indices(n, float(c12)), (n, r2, c12)


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
        assert book.clouds.dtype == book.satellites.dtype == np.float64
        cloud_power = float(np.mean(book.clouds**2))
        sat_power = float(np.mean(book.satellites**2))
        assert cloud_power == pytest.approx(0.7, abs=0.05)
        assert sat_power == pytest.approx(1.0, abs=0.05)

    def test_last_of_128_cloud_symbols(self):
        # all mass on U = 127, which always sends X = 1
        p_u = np.zeros(128)
        p_u[-1] = 1.0
        p_x_given_u = np.tile([1.0, 0.0], (128, 1))
        p_x_given_u[-1] = [0.0, 1.0]
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=6,
                         input_law=AuxiliaryJoint(p_u, p_x_given_u))
        book = build_superposition_codebook(cfg)
        assert (book.clouds == 127).all() and (book.satellites == 1).all()

    @pytest.mark.parametrize("u_size, x_size", [(200, 2), (2, 129)])
    def test_alphabets_above_128_rejected(self, u_size, x_size):
        # int8 symbols once wrapped U = 150 of 200 to -106, drawing its
        # satellites from row 94's law
        law = AuxiliaryJoint(np.full(u_size, 1 / u_size), np.full((u_size, x_size), 1 / x_size))
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=6, input_law=law)
        message = f"limited to 128 symbols, got |U| = {u_size} and |X| = {x_size}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_superposition_codebook(cfg)

    def test_deterministic(self):
        cfg = CodeConfig(n=16, r1=0.2, r2=0.2, c12=0.2, seed=5, input_law=UNIFORM_LAW)
        b1 = build_superposition_codebook(cfg)
        b2 = build_superposition_codebook(cfg)
        np.testing.assert_array_equal(b1.satellites, b2.satellites)


def _reference_draw(cfg, rng):
    """The per-cloud searchsorted draw with a final clip that the threshold
    count replaced; returns (clouds, satellites, largest unclipped symbol)."""
    law = cfg.input_law
    clouds = rng.choice(law.u_size, size=(cfg.nu2, cfg.n), p=law.p_u).astype(np.int8)
    cum = np.cumsum(law.p_x_given_u, axis=1)
    draws = rng.random((cfg.nu1, cfg.nu2, cfg.n))
    satellites = np.empty((cfg.nu1, cfg.nu2, cfg.n), dtype=np.int8)
    for u in range(law.u_size):
        mask = clouds == u
        satellites[:, mask] = np.searchsorted(cum[u], draws[:, mask], side="right")
    top = int(satellites.max())
    np.clip(satellites, 0, law.x_size - 1, out=satellites)
    return clouds, satellites, top


def _random_law(rng):
    """|U| and |X| in 1..4; a third of the laws zero some entries, a fifth
    scale every row so that its float cumsum ends just below 1."""
    u_size, x_size = (int(v) for v in rng.integers(1, 5, size=2))
    p_x_given_u = rng.dirichlet(np.ones(x_size), size=u_size)
    kind = rng.integers(15)
    if kind % 3 == 0:
        p_x_given_u[rng.random(p_x_given_u.shape) < 0.4] = 0.0
        empty = p_x_given_u.sum(axis=1) == 0
        p_x_given_u[empty, rng.integers(x_size)] = 1.0
        p_x_given_u /= p_x_given_u.sum(axis=1, keepdims=True)
    if kind % 5 == 0:
        p_x_given_u *= 1.0 - 5e-13
    return AuxiliaryJoint(rng.dirichlet(np.ones(u_size)), p_x_given_u)


class _PickedDraws:
    """A codebook generator whose uniform draws are picked from ``values``."""

    def __init__(self, rng, values):
        self._rng, self._values = rng, values

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def random(self, size):
        return self._rng.choice(self._values, size=size)


class TestCodebookDraw:
    """The threshold-count draw gives the per-cloud loop's codebook exactly."""

    def assert_same_book(self, cfg, rng):
        clouds, satellites, top = _reference_draw(cfg, rng)
        book = build_superposition_codebook(cfg)
        assert book.clouds.dtype == book.satellites.dtype == np.int8
        np.testing.assert_array_equal(book.clouds, clouds)
        np.testing.assert_array_equal(book.satellites, satellites)
        return top

    def test_random_laws(self):
        rng = np.random.default_rng(2024)
        for i in range(400):
            cfg = CodeConfig(n=int(rng.integers(1, 10)), r1=float(rng.uniform(0, 0.6)),
                             r2=float(rng.uniform(0, 0.6)), c12=0.2, seed=i,
                             input_law=_random_law(rng))
            self.assert_same_book(cfg, _codebook_rng(cfg))

    @pytest.mark.parametrize("p_x_given_u", [
        [[0.3, 0.7 - 5e-13]],
        [[0.2, 0.0, 0.8 - 5e-13], [0.0, 1.0 - 5e-13, 0.0]],
        [[0.5, 0.5 - 5e-13, 0.0], [1.0 - 5e-13, 0.0, 0.0]],
        [[0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.0, 0.5]],
    ])
    def test_draws_on_and_past_the_thresholds(self, monkeypatch, p_x_given_u):
        # draws equal to a threshold, and draws past a row's last threshold,
        # the only ones the old clip acted on
        rows = len(p_x_given_u)
        law = AuxiliaryJoint(np.full(rows, 1.0 / rows), np.array(p_x_given_u))
        cum = np.cumsum(law.p_x_given_u, axis=1).ravel()
        values = np.append(cum[cum < 1.0], [0.0, np.nextafter(1.0, 0.0)])
        cfg = CodeConfig(n=16, r1=0.25, r2=0.25, c12=0.25, seed=9, input_law=law)

        def draws(c):
            return _PickedDraws(_codebook_rng(c), values)

        monkeypatch.setattr(dnfsim, "_codebook_rng", draws)
        top = self.assert_same_book(cfg, draws(cfg))
        if law.p_x_given_u.sum(axis=1).min() < 1.0:
            assert top == law.x_size  # the reference clipped at least one symbol


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

    @pytest.mark.parametrize("law, channels, message", [
        (AuxiliaryJoint([1.0], [[0.2, 0.3, 0.5]]), BecBscBC(0.1, 0.2), "binary input alphabet"),
        (UNIFORM_LAW, GaussianBC(5.0, 0.5), "require a power-split input law"),
        (None, "bsc", "unsupported channel family"),
        (None, BecBscBC(0.1, 0.2), "require a discrete input law"),
    ])
    def test_input_law_must_fit_the_family(self, monkeypatch, law, channels, message):
        # the law is checked before the codebook is drawn
        drawn = []
        monkeypatch.setattr(dnfsim, "build_superposition_codebook", drawn.append)
        cfg = CodeConfig(n=4, r1=0.25, r2=0.25, c12=0.25, seed=0, input_law=law,
                         power_split=None if law else 0.5)
        with pytest.raises(ValueError, match=message):
            simulate(cfg, channels, 5)
        assert drawn == []

    @pytest.mark.parametrize("n, drawn", [(2**24 + 1, False), (2**24, True)])
    def test_erasure_blocklength_checked_before_the_draw(self, monkeypatch, n, drawn):
        # one trial at n = 2**24 + 1 would draw about 268 MB before the decoder refused it
        def no_draw(cfg):
            raise AssertionError("the codebook was drawn")

        monkeypatch.setattr(dnfsim, "build_superposition_codebook", no_draw)
        cfg = CodeConfig(n=n, r1=0.0, r2=0.0, c12=0.0, seed=0, input_law=UNIFORM_LAW)
        error, message = (AssertionError, "drawn") if drawn else (ValueError, "2\\*\\*24")
        with pytest.raises(error, match=message):
            simulate(cfg, BecBscBC(0.1, 0.2), 1)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=8, input_law=UNIFORM_LAW)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            simulate(cfg, BecBscBC(0.1, 0.2), 10, threads=threads)

    def test_threads_above_the_ceiling_rejected_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(numerics, "ThreadPoolExecutor", no_pool)
        cfg = CodeConfig(n=8, r1=0.2, r2=0.2, c12=0.2, seed=8, input_law=UNIFORM_LAW)
        with pytest.raises(ValueError, match="threads must be <= 256"):
            simulate(cfg, BecBscBC(0.1, 0.2), 10, threads=10**6)

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


# Exact reports of small runs: both families; singleton, multi-bin and one-bin
# layouts; 2 trials against 3 threads in the one-bin cells.  Any drift in the
# codebook or trial streams, a decoder or the forwarded bin changes them.
SYM16 = symmetric_law(0.16)
PINNED = {
    "becbsc-singletons": (
        BecBscBC(0.1, 0.2), dict(n=10, r1=0.2, r2=0.2, c12=0.3, seed=31, input_law=SYM16),
        SimReport(300, 4, 3, 6, 0.02, 0.01584249138656333)),
    "becbsc-five-bins-last-short": (
        BecBscBC(0.1, 0.2), dict(n=12, r1=0.25, r2=0.35, c12=0.2, seed=32, input_law=SYM16),
        SimReport(300, 29, 100, 119, 0.39666666666666667, 0.05535883696059401)),
    "becbsc-one-bin": (
        BecBscBC(0.1, 0.2), dict(n=12, r1=0.3, r2=0.25, c12=0.0, seed=33, input_law=SYM16),
        SimReport(2, 1, 1, 2, 1.0, 0.0)),
    "gaussian-singletons": (
        GaussianBC(5.0, 0.5), dict(n=10, r1=0.3, r2=0.2, c12=0.3, seed=34, power_split=0.4),
        SimReport(200, 7, 2, 7, 0.035, 0.025470575179999372)),
    "gaussian-four-bins": (
        GaussianBC(5.0, 0.5), dict(n=12, r1=0.3, r2=0.4, c12=0.15, seed=35, power_split=0.35),
        SimReport(200, 8, 76, 79, 0.395, 0.06775124943497352)),
    "gaussian-one-bin": (
        GaussianBC(5.0, 0.5), dict(n=8, r1=0.4, r2=0.3, c12=0.0, seed=36, power_split=0.35),
        SimReport(2, 0, 2, 2, 1.0, 0.0)),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("label", list(PINNED))
def test_pinned_reports(label, threads):
    channels, config, expected = PINNED[label]
    assert simulate(CodeConfig(**config), channels, expected.trials, threads=threads) == expected


class TestSimReport:
    def test_half_width(self):
        assert SimReport.half_width(0, 100) == 0.0
        assert SimReport.half_width(50, 100) == pytest.approx(1.96 * 0.05, abs=1e-12)

    def test_json_text(self):
        report = SimReport(
            trials=7, user1_joint_errors=1, user2_errors=2,
            error_events=3, p_e_estimate=3 / 7, p_e_half_width=0.25,
        )
        assert report.to_json() == (
            '{\n  "trials": 7,\n  "user1_joint_errors": 1,\n  "user2_errors": 2,\n'
            '  "error_events": 3,\n  "p_e_estimate": 0.42857142857142855,\n'
            '  "p_e_half_width": 0.25\n}'
        )

    def test_rates(self):
        report = SimReport(
            trials=200, user1_joint_errors=20, user2_errors=30,
            error_events=40, p_e_estimate=0.2, p_e_half_width=0.05,
        )
        assert report.user1_error_rate == pytest.approx(0.1)
        assert report.user2_error_rate == pytest.approx(0.15)
