"""The bulk trial streams against numpy's own per-trial generators.

``dnfsim._draw_trials_*`` must return, for every trial t, exactly the draws
of ``np.random.default_rng((seed, 1, t))``: m1 = integers(nu1),
m2 = integers(nu2), then user 1's and user 2's n noise values.  These tests
call the draw functions on configurations whose codebooks are never built.
"""

import math

import numpy as np
import pytest

from coopbc import _streams, dnfsim

SEEDS = (0, 1, 2**31 - 1, 2**32 + 5, 2**64 + 3)
NUS = (1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1)
KINDS = {"discrete": (dnfsim._draw_trials_discrete, np.random.Generator.random),
         "gaussian": (dnfsim._draw_trials_gaussian, np.random.Generator.standard_normal)}


def _config(seed, nu1, nu2, n):
    """A code with these message counts; the draws read only seed, n, nu1 and nu2."""
    cfg = dnfsim.CodeConfig(n=n, r1=math.log2(nu1 - 0.5) / n if nu1 > 1 else 0.0,
                            r2=math.log2(nu2 - 0.5) / n if nu2 > 1 else 0.0,
                            c12=0.0, seed=seed, power_split=0.5, codeword_budget=2**70)
    assert (cfg.nu1, cfg.nu2) == (nu1, nu2)
    return cfg


def _numpy_rng(seed, t):
    return np.random.default_rng((seed, 1, t))


def _counting(calls, rng_of=_numpy_rng):
    def counted(seed, t):
        calls.append(t)
        return rng_of(seed, t)
    return counted


def _reference(cfg, trials, draw, rng_of=_numpy_rng):
    """The per-trial loop: one generator per trial, drawn in stream order."""
    nu1, nu2, n = cfg.nu1, cfg.nu2, cfg.n
    m1 = np.empty(trials, dtype=np.int64)
    m2 = np.empty(trials, dtype=np.int64)
    z1 = np.empty((trials, n))
    z2 = np.empty((trials, n))
    for t in range(trials):
        rng = rng_of(cfg.seed, t)
        m1[t] = rng.integers(nu1)
        m2[t] = rng.integers(nu2)
        z1[t] = draw(rng, n)
        z2[t] = draw(rng, n)
    return m1, m2, z1, z2


def _assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS + (2**100 + 7,))
def test_seeding_matches_seedsequence_and_pcg64(seed):
    # three seed words make a five-word entropy list, past the pool of four
    gens = _streams._Pcg64(seed, 40)
    for t in range(40):
        assert gens.state(t) == np.random.PCG64((seed, 1, t)).state
    raw = np.stack([gens.next64() for _ in range(3)], axis=1)
    for t in range(40):
        assert raw[t].tolist() == np.random.PCG64((seed, 1, t)).random_raw(3).tolist()


# 10**4 trials per seed and kind, 10**5 in all; (nu1, nu2, n) varies by seed.
# None of these counts rejects a draw at these seeds, so every trial but the
# guard's two comes from the bulk streams.
BULK_CASES = [(0, 3, 2, 16), (1, 2, 2**32 - 1, 8), (2**31 - 1, 1, 3, 1),
              (2**32 + 5, 2**32 - 1, 1, 16), (2**64 + 3, 3, 2, 8)]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("seed,nu1,nu2,n", BULK_CASES)
def test_bulk_draws_match_the_per_trial_loop(monkeypatch, seed, nu1, nu2, n, kind):
    trials = 10_000
    cfg = _config(seed, nu1, nu2, n)
    draw_trials, draw = KINDS[kind]
    want = _reference(cfg, trials, draw)
    calls = []
    monkeypatch.setattr(_streams, "_trial_rng", _counting(calls))
    _assert_same(draw_trials(cfg, trials), want)
    assert sorted(calls) == [0, trials - 1]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rejected_draws_come_from_their_own_generator(monkeypatch, kind):
    # nu = 2**31 + 1 rejects about half of its Lemire draws
    trials, n = 2000, 8
    cfg = _config(2**64 + 3, 3, 2**31 + 1, n)
    draw_trials, draw = KINDS[kind]
    want = _reference(cfg, trials, draw)
    m1, m2, z, flagged = _streams._bulk_draws(cfg.seed, trials, 3, 2**31 + 1, n, kind == "gaussian")
    assert 0.4 * trials < flagged.sum() < 0.6 * trials
    ok = ~flagged
    _assert_same((m1[ok], m2[ok], z[ok, :n], z[ok, n:]), [w[ok] for w in want])
    calls = []
    monkeypatch.setattr(_streams, "_trial_rng", _counting(calls))
    _assert_same(draw_trials(cfg, trials), want)
    drawn = np.flatnonzero(ok)
    assert sorted(calls) == sorted(np.flatnonzero(flagged).tolist() + [drawn[0], drawn[-1]])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_message_count_and_blocklength(seed):
    for nu1 in NUS:
        for nu2 in NUS:
            for n in (1, 8, 16):
                cfg = _config(seed, nu1, nu2, n)
                for draw_trials, draw in KINDS.values():
                    _assert_same(draw_trials(cfg, 6), _reference(cfg, 6, draw))


def test_counts_of_two_to_the_32_or_more_flag_every_trial():
    for nu1, nu2 in ((2**32, 1), (3, 2**32 + 1)):
        assert _streams._bulk_draws(1, 5, nu1, nu2, 2, False)[3].all()


@pytest.mark.parametrize("trials", [1, 2])
def test_one_or_two_trials(monkeypatch, trials):
    cfg = _config(7, 3, 5, 4)
    calls = []
    monkeypatch.setattr(_streams, "_trial_rng", _counting(calls))
    for draw_trials, draw in KINDS.values():
        _assert_same(draw_trials(cfg, trials), _reference(cfg, trials, draw))
    assert sorted(calls) == sorted(list(range(trials)) * 2)


@pytest.mark.parametrize("ends_flagged", [False, True])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_guard_redraws_every_trial_when_the_streams_differ(monkeypatch, kind, ends_flagged):
    def other(seed, t):
        return np.random.default_rng((seed, 2, t))

    # nu2 = 2**31 + 1 flags about half the trials: take a seed and a trial
    # count whose first and last trials are both flagged, or both drawn in
    # bulk, so the guard compares the end trials or the first and last
    # trials drawn in bulk
    nu2 = 2**31 + 1
    for seed in range(100):
        flagged = _streams._bulk_draws(seed, 300, 3, nu2, 8, False)[3]
        if flagged[0] == ends_flagged:
            break
    trials = np.flatnonzero(flagged == ends_flagged)[-1] + 1
    assert 0 < flagged[:trials].sum() < trials
    monkeypatch.setattr(_streams, "_trial_rng", other)
    cfg = _config(seed, 3, nu2, 8)
    draw_trials, draw = KINDS[kind]
    _assert_same(draw_trials(cfg, trials), _reference(cfg, trials, draw, rng_of=other))
