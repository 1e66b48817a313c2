"""Hot numeric kernels in numpy; the decoders run no Python loop per trial.

Every decoder works on a chunk of trials at a time and keeps the arithmetic of
a per-trial loop: integer scores are exact, and floating scores are built from
the same per-element operations, added symbol by symbol left to right.  Decode
decisions (argmin/argmax with first-index ties) therefore do not depend on the
chunk size, on the number of BLAS threads, or on how the caller splits trials.

Kernels:
  * corner_scan      - per-joint mutual-information triples for the grid oracle
  * decode_map_int   - integer-penalty nearest codeword (erasure/flip channels)
  * decode_map_float - log-score nearest codeword over per-trial candidate sets
  * decode_sq        - squared-distance nearest codeword (Gaussian channels)
  * decode_sq_restricted - squared distance over per-trial candidate sets
"""

from __future__ import annotations

import numpy as np

# Bytes of score and scratch arrays one chunk of trials may hold.  Small
# enough that a chunk stays in cache and adds little to peak memory; a trial
# whose own scores exceed it is decoded alone.
CHUNK_BYTES = 1 << 20

# Largest integer magnitude below which every float32 integer sum is exact.
_F32_EXACT = 1 << 24

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
# oracle corner scan
# ---------------------------------------------------------------------------

def corner_scan(p_u, t_combos, trans1, trans2):
    """Mutual-information triples for every conditional-row combination.

    Inputs: p_u is a fixed cloud law of length m; t_combos has shape (J, m)
    with t_combos[j, u] = P(X=0 | U=u) for binary X; trans1/trans2 are the
    (2, n_y) channel matrices.  Returns three length-J arrays in nats:
    I(X;Y1|U), I(U;Y2), I(X;Y1).
    """
    t = np.asarray(t_combos, dtype=np.float64)
    p_u = np.asarray(p_u, dtype=np.float64)

    def xlogx(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a > 0.0, a * np.log(a), 0.0)

    h_rows1 = -xlogx(trans1).sum(axis=1)  # per-input conditional output entropies

    # channel 1, conditioned on U
    py1_u = t[:, :, None] * trans1[0] + (1.0 - t)[:, :, None] * trans1[1]  # (J, m, y1)
    h_y1_u = -xlogx(py1_u).sum(axis=2)
    h_y1_xu = t * h_rows1[0] + (1.0 - t) * h_rows1[1]
    i_x_y1_u = (h_y1_u - h_y1_xu) @ p_u

    # channel 1, marginal input
    px0 = t @ p_u
    py1 = px0[:, None] * trans1[0] + (1.0 - px0)[:, None] * trans1[1]
    i_x_y1 = -xlogx(py1).sum(axis=1) - (px0 * h_rows1[0] + (1.0 - px0) * h_rows1[1])

    # channel 2, from U
    py2_u = t[:, :, None] * trans2[0] + (1.0 - t)[:, :, None] * trans2[1]  # (J, m, y2)
    h_y2_u = (-xlogx(py2_u).sum(axis=2)) @ p_u
    py2 = np.einsum("jmy,m->jy", py2_u, p_u)
    i_u_y2 = -xlogx(py2).sum(axis=1) - h_y2_u

    clip = lambda a: np.maximum(a, 0.0)
    return clip(i_x_y1_u), clip(i_u_y2), clip(i_x_y1)


# ---------------------------------------------------------------------------
# codeword decoding over the whole codebook
# ---------------------------------------------------------------------------

def decode_map_int(codebook, penalty, ys):
    """Index of the first minimum-penalty codeword for each received word.

    codebook: (M, n) ints in [0, n_x); penalty: (n_x, n_y) integer per-symbol
    costs; ys: (T, n) ints in [0, n_y).  The score of codeword c is
    sum_i penalty[c_i, y_i] = sum_i penalty[0, y_i] + onehot(c) . dP(y), with
    dP[x, y] = penalty[x, y] - penalty[0, y] for x >= 1.  The first term is the
    same for every codeword and is dropped; the second is a float32 GEMM per
    chunk of trials and block of codewords.  Every product is an integer and
    every partial sum is at most n * max|dP| in magnitude, so while that bound
    is at most 2**24 the GEMM is exact in any summation order and any number
    of BLAS threads.  Blocks merge by a strict "lower than", so the argmin
    (first index on ties) equals that of the integer sums.
    """
    penalty = np.asarray(penalty, dtype=np.int64)
    n_cw, n = codebook.shape
    n_x = penalty.shape[0]
    delta = penalty[1:] - penalty[0]  # (n_x - 1, n_y)
    if n * int(np.abs(delta).max(initial=0)) > _F32_EXACT:
        raise ValueError(
            f"penalty sums over {n} symbols may exceed 2**24; float32 scores would round"
        )
    # onehot[i, x-1, c] = (codebook[c, i] == x), flattened to (n*(n_x-1), M)
    levels = np.arange(1, n_x).reshape(1, -1, 1)
    onehot = (codebook.T[:, None, :] == levels).astype(np.float32).reshape(-1, n_cw)
    # weights[t, i, x-1] = dP[x, y_ti], flattened to (T, n*(n_x-1))
    weights = delta.T.astype(np.float32)[ys].reshape(ys.shape[0], -1)
    out = np.empty(ys.shape[0], dtype=np.int64)
    block = min(n_cw, _CW_BLOCK)
    for sl in _chunks(ys.shape[0], 4 * block):
        w, pick = weights[sl], out[sl]
        best = np.full(w.shape[0], np.inf, dtype=np.float32)
        for b in range(0, n_cw, block):
            scores = w @ onehot[:, b : b + block]
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
# codeword decoding over per-trial candidate sets
# ---------------------------------------------------------------------------

def _restricted(codebook, ys, cand_flat, cand_start, cand_count, cand_of, score, pad):
    """Shared driver for the restricted decoders.

    Each chunk gathers its trials' candidates as a (T, K) block, K the
    largest bin among them; padding repeats the bin's first member and sits
    after the valid entries.  ``score(acc, column, y)`` adds symbol i's
    scores for candidate symbols ``column`` (T, K) and received symbols ``y``
    (T, 1) into acc in place.  Padding then gets ``pad``, the worst score
    (-inf: pick the argmax, +inf: the argmin), so first-index ties fall on
    the same candidate as a loop over the valid entries.
    """
    columns = np.ascontiguousarray(codebook.T)  # (n, nu2)
    out = np.empty(ys.shape[0], dtype=np.int64)
    k_max = int(cand_count[cand_of].max(initial=1))
    for sl in _chunks(ys.shape[0], 32 * k_max):
        counts = cand_count[cand_of[sl]]
        k = np.arange(int(counts.max()))
        valid = k < counts[:, None]
        starts = cand_start[cand_of[sl]][:, None]
        cands = cand_flat[np.where(valid, starts + k, starts)]
        y = ys[sl]
        acc = np.zeros(cands.shape)
        for i in range(columns.shape[0]):
            score(acc, columns[i][cands], y[:, i, None])
        acc[~valid] = pad
        pick = np.argmax(acc, axis=1) if pad < 0 else np.argmin(acc, axis=1)
        out[sl] = cands[np.arange(cands.shape[0]), pick]
    return out


def decode_map_float(codebook, logscore, ys, cand_flat, cand_start, cand_count, cand_of):
    """First-maximum log-score candidate per trial, over restricted candidate sets.

    Candidate lists are stored flattened: trial t searches
    cand_flat[cand_start[b] : cand_start[b] + cand_count[b]] for b = cand_of[t].
    Scores add logscore[c_i, y_i] symbol by symbol; -inf entries are allowed.
    Returns the chosen codeword index (a value from cand_flat) per trial.
    """
    def score(acc, column, y):
        acc += logscore[column, y]

    return _restricted(codebook, ys, cand_flat, cand_start, cand_count, cand_of, score, -np.inf)


def decode_sq_restricted(codebook, scale, ys, cand_flat, cand_start, cand_count, cand_of):
    """First-minimum squared-distance candidate per trial, over restricted sets.

    Candidates are stored as for decode_map_float; each element is formed as
    d = y_i - scale*c_i, then acc += d*d, symbol by symbol.
    """
    def score(acc, column, y):
        d = y - scale * column
        acc += d * d

    return _restricted(codebook, ys, cand_flat, cand_start, cand_count, cand_of, score, np.inf)
