"""The simulator's ML decoders in numpy; none runs a Python loop per trial.

Every decoder works on a chunk of trials at a time and keeps the arithmetic of
a per-trial loop: integer scores are exact, and floating scores are built from
the same per-element operations, added symbol by symbol left to right.  Each
decision is the first minimum of a cost sum (mismatches, squared distances or
negated log-scores), so it does not depend on the chunk size, on the number of
BLAS threads, or on how the caller splits trials.

Kernels:
  * decode_map_int   - fewest mismatches on unerased positions (erasure channels)
  * decode_map_float - highest log-score codeword over per-trial index ranges
  * decode_sq        - squared-distance nearest codeword (Gaussian channels)
  * decode_sq_restricted - squared distance over per-trial index ranges
"""

from __future__ import annotations

import numpy as np

# Bytes of score and scratch arrays one chunk of trials may hold.  Small
# enough that a chunk stays in cache and adds little to peak memory; a trial
# whose own scores exceed it is decoded alone.
CHUNK_BYTES = 1 << 20

# Largest integer magnitude below which every float32 integer sum is exact.
_F32_EXACT = 1 << 24

# Received symbol of an erased position in the words decode_map_int reads.
ERASURE = 2

# Codewords per GEMM block in decode_map_int: a chunk scores CHUNK_BYTES /
# (4 * _CW_BLOCK) trials against one block at a time, so a large codebook is
# read once per chunk rather than once per trial.
_CW_BLOCK = 4096


def _chunks(trials: int, row_bytes: int):
    """Consecutive slices of trials, each holding about CHUNK_BYTES of rows."""
    step = max(1, CHUNK_BYTES // row_bytes)
    for a in range(0, trials, step):
        yield slice(a, min(a + step, trials))


# ---------------------------------------------------------------------------
# codeword decoding over the whole codebook
# ---------------------------------------------------------------------------

def decode_map_int(codebook, ys):
    """Index of the first codeword with the fewest mismatches on unerased positions.

    codebook: (M, n) bits; ys: (T, n) received words over {0, 1, ERASURE}.
    A word without erasures is scored by its Hamming distance.  The mismatch
    count of codeword c is #{i: y_i = 1} + c . w(y) with w = +1, -1 and 0 for
    a received 0, 1 and erasure.  The first term is the same for every
    codeword and is dropped; the second is a float32 GEMM per chunk of trials
    and block of codewords.  Every partial sum is an integer of magnitude at
    most n, so for n <= 2**24 the GEMM is exact in any summation order and
    any number of BLAS threads.  Blocks merge by a strict "lower than", so
    the argmin (first index on ties) equals that of the integer counts.
    """
    n_cw, n = codebook.shape
    if n > _F32_EXACT:
        raise ValueError(f"blocklength {n} exceeds 2**24; float32 scores would round")
    bits = np.ascontiguousarray(codebook.T, dtype=np.float32)  # (n, M)
    weights = np.array([1.0, -1.0, 0.0], dtype=np.float32)[ys]  # (T, n): w(y)
    out = np.empty(ys.shape[0], dtype=np.int64)
    block = min(n_cw, _CW_BLOCK)
    for sl in _chunks(ys.shape[0], 4 * block):
        w, pick = weights[sl], out[sl]
        best = np.full(w.shape[0], np.inf, dtype=np.float32)
        for b in range(0, n_cw, block):
            scores = w @ bits[:, b : b + block]
            j = np.argmin(scores, axis=1)
            low = np.take_along_axis(scores, j[:, None], axis=1)[:, 0]
            better = low < best
            best[better] = low[better]
            pick[better] = j[better] + b
    return out


def decode_sq(codebook, scale, ys):
    """First-minimum squared-distance codeword per trial: sum_i (y_i - scale*c_i)^2.

    Each element is formed as d = y_i - scale*c_i, then acc += d*d, symbol by
    symbol, exactly as a per-trial loop would; no expansion of |y - c|^2.
    """
    scaled = np.ascontiguousarray((scale * codebook).T)  # (n, M)
    n, n_cw = scaled.shape
    out = np.empty(ys.shape[0], dtype=np.int64)
    for sl in _chunks(ys.shape[0], 16 * n_cw):
        y = ys[sl]
        acc = np.zeros((y.shape[0], n_cw))
        d = np.empty_like(acc)
        for i in range(n):
            np.subtract(y[:, i, None], scaled[i], out=d)
            np.multiply(d, d, out=d)
            acc += d
        out[sl] = np.argmin(acc, axis=1)
    return out


# ---------------------------------------------------------------------------
# codeword decoding over per-trial index ranges
# ---------------------------------------------------------------------------

def _restricted(codebook, ys, cand_start, cand_count, cand_of, score):
    """Shared driver for the restricted decoders.

    Trial t searches the codewords from cand_start[b] on, cand_count[b] of
    them, for b = cand_of[t].  Each chunk gathers its trials' ranges as a
    (T, K) block, K the largest count among them; padding repeats the range
    start and sits after the valid entries.  ``score(acc, column, y)`` adds
    symbol i's costs for candidate symbols ``column`` (T, K) and received
    symbols ``y`` (T, 1) into acc in place.  Padding costs +inf, so the
    first minimum falls on the same candidate as a loop over the range.
    """
    columns = np.ascontiguousarray(codebook.T)  # (n, nu2)
    out = np.empty(ys.shape[0], dtype=np.int64)
    k_max = int(cand_count[cand_of].max(initial=1))
    for sl in _chunks(ys.shape[0], 32 * k_max):
        counts = cand_count[cand_of[sl]]
        k = np.arange(int(counts.max()))
        valid = k < counts[:, None]
        starts = cand_start[cand_of[sl]][:, None]
        cands = np.where(valid, starts + k, starts)
        y = ys[sl]
        acc = np.zeros(cands.shape)
        for i in range(columns.shape[0]):
            score(acc, columns[i][cands], y[:, i, None])
        acc[~valid] = np.inf
        out[sl] = cands[np.arange(cands.shape[0]), np.argmin(acc, axis=1)]
    return out


def decode_map_float(codebook, logscore, ys, cand_start, cand_count, cand_of):
    """First-maximum log-score candidate per trial, over an index range per trial.

    Trial t searches the range of b = cand_of[t] (see ``_restricted``).
    Costs subtract logscore[c_i, y_i] symbol by symbol (-inf entries cost
    +inf); negation is exact, so every cost sum is the exact negative of the
    log-score sum.  Returns the chosen codeword index per trial.
    """
    def score(acc, column, y):
        acc -= logscore[column, y]

    return _restricted(codebook, ys, cand_start, cand_count, cand_of, score)


def decode_sq_restricted(codebook, scale, ys, cand_start, cand_count, cand_of):
    """First-minimum squared-distance candidate per trial, over an index range per trial.

    Ranges are given as for decode_map_float; each element is formed as
    d = y_i - scale*c_i, then acc += d*d, symbol by symbol.
    """
    def score(acc, column, y):
        d = y - scale * column
        acc += d * d

    return _restricted(codebook, ys, cand_start, cand_count, cand_of, score)
