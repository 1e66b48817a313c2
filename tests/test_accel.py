"""Batched decoders against per-trial reference loops.

The references score one trial at a time, adding symbol by symbol, and take
numpy's first-index argmin/argmax.  The batched kernels must return exactly
the same indices, ties included, for any chunk and block size.
"""

import itertools
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopbc import _accel

# MISMATCH[c, y]: codeword bit c against received 0, 1 or erasure
MISMATCH = np.array([[0, 1, 0], [1, 0, 0]], dtype=np.int64)


def ref_decode_map_int(codebook, ys):
    n = codebook.shape[1]
    out = np.empty(ys.shape[0], dtype=np.int64)
    for t in range(ys.shape[0]):
        acc = np.zeros(codebook.shape[0], dtype=np.int64)
        y = ys[t]
        for i in range(n):
            acc += MISMATCH[codebook[:, i], y[i]]
        out[t] = np.argmin(acc)
    return out


def ref_decode_map_float(codebook, logscore, ys, cand_start, cand_count, cand_of):
    n = codebook.shape[1]
    out = np.empty(ys.shape[0], dtype=np.int64)
    for t in range(ys.shape[0]):
        b = cand_of[t]
        cands = np.arange(cand_start[b], cand_start[b] + cand_count[b])
        acc = np.zeros(cands.shape[0], dtype=np.float64)
        y = ys[t]
        sub = codebook[cands]
        for i in range(n):
            acc += logscore[sub[:, i], y[i]]
        out[t] = cands[np.argmax(acc)]
    return out


def ref_decode_sq(codebook, scale, ys):
    n = codebook.shape[1]
    out = np.empty(ys.shape[0], dtype=np.int64)
    for t in range(ys.shape[0]):
        acc = np.zeros(codebook.shape[0], dtype=np.float64)
        y = ys[t]
        for i in range(n):
            d = y[i] - scale * codebook[:, i]
            acc += d * d
        out[t] = np.argmin(acc)
    return out


def ref_decode_sq_restricted(codebook, scale, ys, cand_start, cand_count, cand_of):
    n = codebook.shape[1]
    out = np.empty(ys.shape[0], dtype=np.int64)
    for t in range(ys.shape[0]):
        b = cand_of[t]
        cands = np.arange(cand_start[b], cand_start[b] + cand_count[b])
        acc = np.zeros(cands.shape[0], dtype=np.float64)
        y = ys[t]
        sub = codebook[cands]
        for i in range(n):
            d = y[i] - scale * sub[:, i]
            acc += d * d
        out[t] = cands[np.argmin(acc)]
    return out


# (chunk budget, codeword block): one trial per chunk against blocks of 7
# codewords, a few trials per chunk against blocks of 64, the defaults
CHUNKINGS = ((1, 7), (4096, 64), (_accel.CHUNK_BYTES, _accel._CW_BLOCK))


@pytest.fixture(params=CHUNKINGS, ids=lambda c: f"chunk{c[0]}-block{c[1]}")
def chunking(request, monkeypatch):
    monkeypatch.setattr(_accel, "CHUNK_BYTES", request.param[0])
    monkeypatch.setattr(_accel, "_CW_BLOCK", request.param[1])
    return request.param


def binary_book(rng, m, n):
    book = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    book[m // 2] = book[1]  # a duplicate codeword forces exact ties
    return book


def bec_outputs(rng, book, trials, erase=0.4):
    sent = book[rng.integers(book.shape[0], size=trials)]
    flips = rng.random(sent.shape) < 0.1
    y = np.where(flips, 1 - sent, sent)
    return np.where(rng.random(sent.shape) < erase, _accel.ERASURE, y).astype(np.int8)


def permutation_book(seed, n=7):
    """Every ordering of n random values: the score terms of one trial are
    the same multiset for every codeword, so only the rounding of the
    left-to-right sum separates them."""
    v = np.random.default_rng(seed).standard_normal(n)
    return np.array(list(itertools.permutations(v)))


def expanded_scores(book, scale, ys):
    """|s*c|^2 - 2 y.(s*c) for every trial and codeword, formed as decode_sq's
    filter forms it: one float32 GEMM of the rows [-2y, 1] against the
    columns [s*c; |s*c|^2], both rounded to float32 from float64."""
    n = book.shape[1]
    cols = np.empty((n + 1, book.shape[0]))
    cols[:n] = (scale * book).T
    np.einsum("ij,ij->j", cols[:n], cols[:n], out=cols[n])
    rows = np.hstack([-2.0 * ys, np.ones((ys.shape[0], 1))])
    return rows.astype(np.float32) @ cols.astype(np.float32)


def default_step(n_cand, width):
    """Trials per chunk of ``_accel._first_min`` at the default sizes, for a
    kernel whose tile takes ``width`` bytes per trial and position: 4 for the
    user-1 decoders, 32 for the user-2 decoders."""
    return _accel.CHUNK_BYTES // (width * min(n_cand, _accel._CW_BLOCK))


def bins_for(m, bin_size, n_bins):
    """Bin of each of m codewords, and the bins as index ranges (starts,
    counts): consecutive blocks of bin_size, empty past the last codeword."""
    starts = np.arange(n_bins, dtype=np.int64) * bin_size
    counts = np.clip(m - starts, 0, bin_size)
    return (np.arange(m) // bin_size).astype(np.int64), (starts, counts)


class TestDecodeMapInt:
    @pytest.mark.parametrize("trials", [1, 37, 300])
    def test_random_books(self, chunking, trials):
        rng = np.random.default_rng(trials)
        book = binary_book(rng, 200, 12)
        ys = bec_outputs(rng, book, trials)
        np.testing.assert_array_equal(
            _accel.decode_map_int(book, ys), ref_decode_map_int(book, ys)
        )

    def test_erasure_free_words_score_hamming_distance(self, chunking):
        rng = np.random.default_rng(3)
        book = binary_book(rng, 150, 9)
        ys = bec_outputs(rng, book, 64, erase=0.0)
        ys[:3] = book[[1, 40, 75]]  # book[75] repeats book[1]: distance 0, first index
        got = _accel.decode_map_int(book, ys)
        np.testing.assert_array_equal(got, ref_decode_map_int(book, ys))
        hamming = (book[None, :, :] != ys[:, None, :]).sum(axis=2)
        np.testing.assert_array_equal(got, np.argmin(hamming, axis=1))
        np.testing.assert_array_equal(got[:3], [1, 40, 1])

    def test_all_erased_picks_index_zero(self, chunking):
        rng = np.random.default_rng(5)
        book = binary_book(rng, 64, 10)
        ys = np.full((25, 10), 2, dtype=np.int8)
        got = _accel.decode_map_int(book, ys)
        np.testing.assert_array_equal(got, np.zeros(25, dtype=np.int64))
        np.testing.assert_array_equal(got, ref_decode_map_int(book, ys))

    def test_crosses_default_chunk_and_block_boundaries(self):
        rng = np.random.default_rng(6)
        block = _accel._CW_BLOCK
        book = binary_book(rng, 2 * block + 5, 16)
        book[block + 3] = book[10]  # ties across codeword blocks keep the first
        book[2 * block + 1] = book[block + 7]
        step = default_step(book.shape[0], 4)
        ys = bec_outputs(rng, book, 2 * step + 3, erase=0.2)
        ys[:2] = book[[10, block + 7]]
        got = _accel.decode_map_int(book, ys)
        np.testing.assert_array_equal(got[:2], [10, block + 7])
        np.testing.assert_array_equal(got, ref_decode_map_int(book, ys))

    def test_blocklength_guard_at_float32_exactness(self):
        _accel.check_map_int_blocklength(1 << 24)
        with pytest.raises(ValueError, match="blocklength 16777217 exceeds 2\\*\\*24"):
            _accel.check_map_int_blocklength((1 << 24) + 1)

    def test_rejects_blocklengths_beyond_float32_exactness(self):
        # read-only broadcast views: the guard must fire before any allocation
        n = (1 << 24) + 1
        book = np.broadcast_to(np.int8(0), (2, n))
        ys = np.broadcast_to(np.int8(_accel.ERASURE), (1, n))
        with pytest.raises(ValueError, match="2\\*\\*24"):
            _accel.decode_map_int(book, ys)


class TestDecodeSq:
    @pytest.mark.parametrize("trials", [1, 37, 300])
    def test_random_books(self, chunking, trials):
        rng = np.random.default_rng(trials)
        book = rng.standard_normal((120, 12))
        book[60] = book[3]
        ys = 2.2 * book[rng.integers(120, size=trials)] + rng.standard_normal((trials, 12))
        np.testing.assert_array_equal(
            _accel.decode_sq(book, 2.2, ys), ref_decode_sq(book, 2.2, ys)
        )

    def test_exact_ties_pick_first_index(self, chunking):
        book = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        ys = np.array([[0.0, 0.0], [0.7, -0.7], [-0.7, 0.7]])
        got = _accel.decode_sq(book, 1.3, ys)
        np.testing.assert_array_equal(got, [0, 0, 1])
        np.testing.assert_array_equal(got, ref_decode_sq(book, 1.3, ys))

    def test_rounding_of_the_symbol_order_decides(self, chunking):
        book = permutation_book(4)
        ys = np.outer(np.random.default_rng(4).standard_normal(20), np.ones(7))
        got = _accel.decode_sq(book, 1.7, ys)
        np.testing.assert_array_equal(got, ref_decode_sq(book, 1.7, ys))
        assert np.any(got != ref_decode_sq(book[:, ::-1], 1.7, ys))

    def test_verify_decides_where_expanded_form_order_is_reversed(self, chunking):
        # two orderings of one vector whose expanded-form scores order them
        # one way and whose per-element scores the other: the filter's own
        # minimum is the wrong codeword, and the exact rescoring must win
        book, scale = permutation_book(4), 1.7
        for y0 in np.random.default_rng(4).standard_normal(20):
            ys = np.full((3, 7), y0)
            j = ref_decode_sq(book, scale, ys[:1])[0]
            a = expanded_scores(book, scale, ys[:1])[0]
            for k in np.flatnonzero(a < a[j])[:20]:
                pair = book[[k, j]]
                # per-element scores pick j strictly; the expanded form picks
                # k, at one and at three trials
                if ref_decode_sq(pair, scale, ys[:1])[0] == 1 and all(
                    np.all(np.diff(expanded_scores(pair, scale, ys[:t]), axis=1) > 0)
                    for t in (1, 3)
                ):
                    break
            else:
                continue
            break
        else:
            pytest.fail("no reversed pair among the permutation book's orderings")
        got = _accel.decode_sq(pair, scale, ys)
        np.testing.assert_array_equal(got, [1, 1, 1])
        np.testing.assert_array_equal(got, ref_decode_sq(pair, scale, ys))

    def test_verify_decides_where_float32_filter_order_is_reversed(self, chunking):
        # two codewords about 1e-6 apart: their per-element scores differ by
        # far more than float64 rounding and by less than the float32
        # filter's, which orders them the other way; the filter's own minimum
        # is the wrong codeword, and the exact rescoring must win
        rng = np.random.default_rng(41)
        scale = 1.3
        for _ in range(500):
            c = rng.standard_normal(8)
            pair = np.array([c, c + 1e-6 * rng.standard_normal(8)])
            ys = np.tile(scale * c + 0.5 * rng.standard_normal(8), (3, 1))
            if ref_decode_sq(pair, scale, ys[:1])[0] == 1 and all(
                np.all(np.diff(expanded_scores(pair, scale, ys[:t]), axis=1) > 0)
                for t in (1, 3)
            ):
                break
        else:
            pytest.fail("no pair whose float32 filter order is reversed")
        got = _accel.decode_sq(pair, scale, ys)
        np.testing.assert_array_equal(got, [1, 1, 1])
        np.testing.assert_array_equal(got, ref_decode_sq(pair, scale, ys))

    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_both_sides_of_the_filter_limit(self, chunking, side):
        # the largest |y|^2 and |s*c|^2 just below the limit (every tile
        # filtered in float32, where no conversion, product or sum may
        # overflow) and just above it (tiles holding it scored per element)
        rng = np.random.default_rng(34)
        book = 1.0 + 0.08 * rng.standard_normal((60, 12))
        book[30] = book[7]
        units = book[rng.integers(60, size=40)] + 0.05 * rng.standard_normal((40, 12))
        units[:3] = book[[7, 30, 59]]
        top = max(np.einsum("ij,ij->i", a, a).max() for a in (book, units))
        scale = np.sqrt(side * _accel._FILTER_LIMIT / top)
        ys = scale * units
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = ref_decode_sq(book, scale, ys)
            got = _accel.decode_sq(book, scale, ys)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[:3], [7, 7, 59])
        norms = [np.einsum("ij,ij->i", a, a).max() for a in (scale * book, ys)]
        assert (max(norms) <= _accel._FILTER_LIMIT) == (side < 1)

    @pytest.mark.parametrize("scale", [3e153, 1e154, 1e-160, 1e-170])
    def test_overflow_and_underflow_scales(self, chunking, scale):
        # codewords near one common point: at 3e153 and 1e154 the expanded
        # form overflows while every squared distance stays finite; at 1e-160
        # the products are subnormal, and at 1e-170 every score is 0
        rng = np.random.default_rng(31)
        book = 1.0 + 0.08 * rng.standard_normal((60, 12))
        book[30] = book[7]
        units = book[rng.integers(60, size=40)] + 0.05 * rng.standard_normal((40, 12))
        units[:3] = book[[7, 30, 59]]
        ys = scale * units
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = ref_decode_sq(book, scale, ys)
            got = _accel.decode_sq(book, scale, ys)
        np.testing.assert_array_equal(got, want)
        if scale > 1:  # these tiles take the per-element path
            assert np.einsum("ij,ij->i", ys, ys).min() > _accel._FILTER_LIMIT
        np.testing.assert_array_equal(got[:3], [0, 0, 0] if scale < 1e-165 else [7, 7, 59])

    @pytest.mark.parametrize("scale", [1e-161, 1e-162, 1e-21, 1e-22])
    def test_underflow_errors_are_covered_by_the_slack(self, chunking, scale):
        # every product is subnormal (in float32 at 1e-21 and 1e-22, in
        # float64 too at 1e-161 and 1e-162), so each carries an absolute
        # rounding error that no relative bound covers; among 1000 codewords
        # in four dimensions some lie within those errors of each trial's nearest
        rng = np.random.default_rng(33)
        book = rng.standard_normal((1000, 4))
        ys = scale * (book[rng.integers(1000, size=40)] + 0.5 * rng.standard_normal((40, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                _accel.decode_sq(book, scale, ys), ref_decode_sq(book, scale, ys)
            )

    def test_non_finite_received_words(self, chunking):
        rng = np.random.default_rng(32)
        book = rng.standard_normal((30, 6))
        ys = 1.2 * book[rng.integers(30, size=12)] + rng.standard_normal((12, 6))
        ys[2, 3], ys[5, 0], ys[9, 1] = np.nan, np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _accel.decode_sq(book, 1.2, ys)
            np.testing.assert_array_equal(got, ref_decode_sq(book, 1.2, ys))

    def test_non_finite_codewords(self, chunking):
        # a NaN score is below every number, as in numpy's argmin: the first
        # NaN codeword wins, in whichever block it lies
        rng = np.random.default_rng(33)
        book = rng.standard_normal((30, 6))
        book[11, 2], book[20, 0], book[25, 4] = np.inf, np.nan, np.nan
        ys = rng.standard_normal((9, 6))
        got = _accel.decode_sq(book, 1.2, ys)
        np.testing.assert_array_equal(got, ref_decode_sq(book, 1.2, ys))
        np.testing.assert_array_equal(got, 20)

    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 9),
           trials=st.integers(1, 30), scale=st.floats(1e-3, 1e3),
           noise=st.sampled_from([0.0, 1e-9, 0.1, 1.0, 10.0]))
    def test_random_books_and_scales(self, chunking, seed, m, n, trials, scale, noise):
        rng = np.random.default_rng(seed)
        book = rng.standard_normal((m, n))
        book[rng.integers(m, size=m // 4)] = book[0]  # exact duplicates tie
        ys = scale * book[rng.integers(m, size=trials)] + noise * rng.standard_normal((trials, n))
        np.testing.assert_array_equal(
            _accel.decode_sq(book, scale, ys), ref_decode_sq(book, scale, ys)
        )

    def test_exact_tie_across_a_block_boundary_picks_the_earlier_block(self, chunking):
        # under the block-7 chunking the two copies sit in different blocks
        rng = np.random.default_rng(9)
        book = rng.standard_normal((20, 5))
        book[9] = book[4]
        ys = 1.4 * book[[4, 4, 12]] + 0.05 * rng.standard_normal((3, 5))
        got = _accel.decode_sq(book, 1.4, ys)
        np.testing.assert_array_equal(got, [4, 4, 12])
        np.testing.assert_array_equal(got, ref_decode_sq(book, 1.4, ys))

    def test_crosses_default_chunk_boundary(self):
        rng = np.random.default_rng(8)
        m = _accel._CW_BLOCK + 300
        book = rng.standard_normal((m, 6))
        trials = 2 * default_step(m, 4) + 1
        ys = book[rng.integers(m, size=trials)] + 0.5 * rng.standard_normal((trials, 6))
        got = _accel.decode_sq(book, 1.0, ys)
        np.testing.assert_array_equal(got, ref_decode_sq(book, 1.0, ys))
        assert np.any(got >= _accel._CW_BLOCK)


class TestDecodeMapFloat:
    @pytest.mark.parametrize("trials", [1, 37, 300])
    def test_random_books(self, chunking, trials):
        rng = np.random.default_rng(trials)
        clouds = binary_book(rng, 96, 10)
        logscore = np.log(np.array([[0.8, 0.2], [0.3, 0.7]]))
        bins, cands = bins_for(96, 7, 14)  # the last bin holds 5, not 7
        ys = rng.integers(0, 2, size=(trials, 10)).astype(np.int8)
        cand_of = bins[rng.integers(96, size=trials)]
        np.testing.assert_array_equal(
            _accel.decode_map_float(clouds, logscore, ys, *cands, cand_of),
            ref_decode_map_float(clouds, logscore, ys, *cands, cand_of),
        )

    def test_minus_inf_scores(self, chunking):
        # a zero crossover gives log 0 = -inf; rows that are all -inf pick the bin's first member
        rng = np.random.default_rng(11)
        clouds = binary_book(rng, 64, 8)
        with np.errstate(divide="ignore"):
            logscore = np.log(np.array([[1.0, 0.0], [0.0, 1.0]]))
        bins, cands = bins_for(64, 8, 8)
        ys = rng.integers(0, 2, size=(80, 8)).astype(np.int8)
        ys[::3] = clouds[rng.integers(64, size=ys[::3].shape[0])]
        cand_of = bins[rng.integers(64, size=80)]
        got = _accel.decode_map_float(clouds, logscore, ys, *cands, cand_of)
        np.testing.assert_array_equal(
            got, ref_decode_map_float(clouds, logscore, ys, *cands, cand_of)
        )
        assert np.any(got == cands[0][cand_of])

    def test_rounding_of_the_symbol_order_decides(self, chunking):
        # all weight-5 words of length 12 score the same multiset of terms
        # against a constant received word; the sum's rounding picks the winner
        words = [w for w in itertools.product((0, 1), repeat=12) if sum(w) == 5]
        clouds = np.array(words, dtype=np.int8)
        logscore = np.log(np.array([[0.61, 0.39], [0.13, 0.87]]))
        bins, cands = bins_for(clouds.shape[0], 67, 12)
        ys = np.repeat(np.array([[0] * 12, [1] * 12], dtype=np.int8), 12, axis=0)
        cand_of = np.tile(np.arange(12), 2)
        got = _accel.decode_map_float(clouds, logscore, ys, *cands, cand_of)
        np.testing.assert_array_equal(
            got, ref_decode_map_float(clouds, logscore, ys, *cands, cand_of)
        )
        flipped = ref_decode_map_float(clouds[:, ::-1], logscore, ys, *cands, cand_of)
        assert np.any(got != flipped)

    def test_unused_bins(self, chunking):
        # ten bins offered, nine in use: the tenth is empty and never searched
        rng = np.random.default_rng(12)
        clouds = binary_book(rng, 27, 12)
        logscore = np.log(np.array([[0.75, 0.25], [0.25, 0.75]]))
        bins, cands = bins_for(27, 3, 10)
        assert cands[1][9] == 0
        ys = rng.integers(0, 2, size=(50, 12)).astype(np.int8)
        cand_of = bins[rng.integers(27, size=50)]
        np.testing.assert_array_equal(
            _accel.decode_map_float(clouds, logscore, ys, *cands, cand_of),
            ref_decode_map_float(clouds, logscore, ys, *cands, cand_of),
        )

    def test_crosses_default_chunk_boundary(self):
        # bins of a block and a half: a range spans two blocks of positions
        rng = np.random.default_rng(13)
        bin_size = _accel._CW_BLOCK * 3 // 2
        clouds = binary_book(rng, 2 * bin_size, 20)
        logscore = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        bins, cands = bins_for(2 * bin_size, bin_size, 2)
        trials = 2 * default_step(bin_size, 32) + 5
        ys = rng.integers(0, 2, size=(trials, 20)).astype(np.int8)
        cand_of = bins[rng.integers(2 * bin_size, size=trials)]
        got = _accel.decode_map_float(clouds, logscore, ys, *cands, cand_of)
        np.testing.assert_array_equal(
            got, ref_decode_map_float(clouds, logscore, ys, *cands, cand_of)
        )
        assert np.any(got - cands[0][cand_of] >= _accel._CW_BLOCK)


class TestDecodeSqRestricted:
    @pytest.mark.parametrize("trials", [1, 37, 300])
    def test_random_books(self, chunking, trials):
        rng = np.random.default_rng(trials)
        clouds = rng.standard_normal((90, 10))
        clouds[50] = clouds[48]
        bins, cands = bins_for(90, 4, 23)
        ys = 0.7 * clouds[rng.integers(90, size=trials)] + rng.standard_normal((trials, 10))
        cand_of = bins[rng.integers(90, size=trials)]
        np.testing.assert_array_equal(
            _accel.decode_sq_restricted(clouds, 0.7, ys, *cands, cand_of),
            ref_decode_sq_restricted(clouds, 0.7, ys, *cands, cand_of),
        )

    def test_rounding_of_the_symbol_order_decides(self, chunking):
        book = permutation_book(5)
        bins, cands = bins_for(book.shape[0], 700, 8)
        rng = np.random.default_rng(5)
        ys = np.outer(rng.standard_normal(30), np.ones(7))
        cand_of = bins[rng.integers(book.shape[0], size=30)]
        got = _accel.decode_sq_restricted(book, 0.9, ys, *cands, cand_of)
        np.testing.assert_array_equal(
            got, ref_decode_sq_restricted(book, 0.9, ys, *cands, cand_of)
        )
        assert np.any(got != ref_decode_sq_restricted(book[:, ::-1], 0.9, ys, *cands, cand_of))

    def test_unused_bins(self, chunking):
        rng = np.random.default_rng(21)
        clouds = rng.standard_normal((27, 8))
        bins, cands = bins_for(27, 3, 10)
        ys = rng.standard_normal((40, 8))
        cand_of = bins[rng.integers(27, size=40)]
        np.testing.assert_array_equal(
            _accel.decode_sq_restricted(clouds, 1.1, ys, *cands, cand_of),
            ref_decode_sq_restricted(clouds, 1.1, ys, *cands, cand_of),
        )

    def test_exact_tie_across_a_block_boundary_picks_the_earlier_block(self, chunking):
        # positions 4 and 9 of bin 1 repeat one codeword; under the block-7
        # chunking they sit in different blocks
        rng = np.random.default_rng(23)
        clouds = rng.standard_normal((40, 5))
        clouds[29] = clouds[24]
        bins, cands = bins_for(40, 20, 2)
        ys = 0.8 * clouds[[24, 24, 33]] + 0.05 * rng.standard_normal((3, 5))
        cand_of = np.array([1, 1, 1])
        got = _accel.decode_sq_restricted(clouds, 0.8, ys, *cands, cand_of)
        np.testing.assert_array_equal(got, [24, 24, 33])
        np.testing.assert_array_equal(
            got, ref_decode_sq_restricted(clouds, 0.8, ys, *cands, cand_of)
        )

    def test_crosses_default_chunk_boundary(self):
        rng = np.random.default_rng(22)
        bin_size = _accel._CW_BLOCK + 512
        clouds = rng.standard_normal((2 * bin_size, 5))
        bins, cands = bins_for(2 * bin_size, bin_size, 2)
        trials = 2 * default_step(bin_size, 32) + 7
        ys = rng.standard_normal((trials, 5))
        cand_of = bins[rng.integers(2 * bin_size, size=trials)]
        got = _accel.decode_sq_restricted(clouds, 1.0, ys, *cands, cand_of)
        np.testing.assert_array_equal(
            got, ref_decode_sq_restricted(clouds, 1.0, ys, *cands, cand_of)
        )
        assert np.any(got - cands[0][cand_of] >= _accel._CW_BLOCK)


class TestRestrictedRanges:
    """Both user-2 decoders where a trial's range is shorter than the longest
    one: positions past it must never pick a codeword outside it.  Some
    received words copy a codeword just past their trial's range, which a
    decoder that scored it would pick."""

    @pytest.fixture(params=["map_float", "sq_restricted"])
    def user2(self, request):
        """(book of m codewords, noiseless received words of the given
        codewords, batched decoder, reference decoder) of one kernel."""
        def make(m, n, seed):
            rng = np.random.default_rng(seed)
            if request.param == "map_float":
                logscore = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
                book = rng.integers(0, 2, size=(m, n)).astype(np.int8)
                return (book, lambda idx: book[idx],
                        partial(_accel.decode_map_float, book, logscore),
                        partial(ref_decode_map_float, book, logscore))
            book = rng.standard_normal((m, n))
            return (book, lambda idx: 0.8 * book[idx],
                    partial(_accel.decode_sq_restricted, book, 0.8),
                    partial(ref_decode_sq_restricted, book, 0.8))
        return make

    def test_last_member_repeats_an_earlier_one(self, chunking, user2):
        # bin 1 is 3..7, and its last member 7 copies member 4
        book, send, decode, ref = user2(24, 12, 41)
        book[7] = book[4]
        cands = np.array([0, 3, 8, 20]), np.array([3, 5, 12, 4])
        sent = np.array([4, 7, 3, 8, 8, 3, 20, 12, 23, 0])
        cand_of = np.array([1, 1, 1, 1, 0, 0, 2, 3, 3, 3])
        got = decode(send(sent), *cands, cand_of)
        np.testing.assert_array_equal(got, ref(send(sent), *cands, cand_of))
        np.testing.assert_array_equal(got[:3], [4, 4, 3])
        assert np.all((got >= cands[0][cand_of]) & (got < cands[0][cand_of] + cands[1][cand_of]))

    def test_range_longer_than_a_block_shares_tiles_with_one_member(self, chunking, user2):
        # one-member bins around a bin of _CW_BLOCK + 3: trials of both kinds
        # alternate, so they share every chunk of trials
        size = _accel._CW_BLOCK + 3
        book, send, decode, ref = user2(size + 2, 20, 42)
        cands = np.array([0, 1, size + 1]), np.array([1, size, 1])
        cand_of = np.tile([0, 1, 2, 1], 10)
        # bin 0 gets the long bin's first member, bin 2 its last, and the
        # long bin itself members spread over it, its last among them
        sent = np.where(cand_of == 1, 1 + np.arange(40) * (size // 40), 1)
        sent[2::4] = sent[3::4] = size
        got = decode(send(sent), *cands, cand_of)
        np.testing.assert_array_equal(got, ref(send(sent), *cands, cand_of))
        np.testing.assert_array_equal(got[cand_of != 1], cands[0][cand_of[cand_of != 1]])
        assert np.any(got[cand_of == 1] - 1 >= _accel._CW_BLOCK)

    def test_empty_range_inside_the_codebook_picks_its_start(self, chunking, user2):
        # bin 1 holds no codeword but starts at codeword 4, the first of bin 2;
        # the references cannot search it, so its trials are checked alone
        book, send, decode, ref = user2(12, 10, 43)
        cands = np.array([0, 4, 4, 9]), np.array([4, 0, 5, 3])
        sent = np.array([6, 1, 6, 8, 5, 10, 4])
        cand_of = np.array([1, 0, 2, 1, 2, 3, 1])
        got = decode(send(sent), *cands, cand_of)
        empty = cand_of == 1
        np.testing.assert_array_equal(got[empty], 4)
        np.testing.assert_array_equal(
            got[~empty], ref(send(sent[~empty]), *cands, cand_of[~empty])
        )

    def test_nan_member_before_a_finite_last_member(self, chunking):
        # bin 0's first member scores NaN and wins, as in numpy's argmin, in
        # every block after it too; bin 1 is long, so bin 0 has positions past it
        rng = np.random.default_rng(44)
        book = rng.standard_normal((14, 4))
        book[0, 1] = np.nan
        cands = np.array([0, 2]), np.array([2, 12])
        ys = book[[1, 1, 5]]
        cand_of = np.array([0, 0, 1])
        got = _accel.decode_sq_restricted(book, 1.0, ys, *cands, cand_of)
        np.testing.assert_array_equal(got, [0, 0, 5])
        np.testing.assert_array_equal(
            got, ref_decode_sq_restricted(book, 1.0, ys, *cands, cand_of)
        )
