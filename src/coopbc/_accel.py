"""The simulator's ML decoders in numpy; none runs a Python loop per trial.

Every decision is the first minimum of a cost sum (mismatches, squared
distances or negated log-scores), taken by one loop, ``_first_min``, over
tiles of a chunk of trials x a block of candidate positions.  A kernel only
scores its tiles, with the arithmetic of a per-trial loop: integer scores are
exact, and floating scores add the same per-element terms symbol by symbol.
Blocks merge in position order by a strict "lower than" and every pick starts
at position 0, so ties keep the first index and a row of all +inf keeps
position 0.  Decisions do not depend on the chunk or block size, on the
number of BLAS threads, or on how the caller splits trials.

Kernels:
  * decode_map_int   - fewest mismatches on unerased positions (erasure channels)
  * decode_map_float - highest log-score codeword over per-trial index ranges
  * decode_sq        - squared-distance nearest codeword (Gaussian channels)
  * decode_sq_restricted - squared distance over per-trial index ranges
"""

from __future__ import annotations

import numpy as np

# Bytes one tile may hold, at 32 per trial and position: about what a user-2
# tile and the arrays scoring it take.  Small enough that a tile stays in
# cache; a tile of one trial may exceed it.
CHUNK_BYTES = 1 << 20

# Largest integer magnitude below which every float32 integer sum is exact.
_F32_EXACT = 1 << 24

# Received symbol of an erased position in the words decode_map_int reads.
ERASURE = 2

# Candidate positions per tile.
_CW_BLOCK = 4096


def _first_min(trials: int, n_cand: int, tile) -> np.ndarray:
    """Position of each trial's first minimum cost among n_cand candidates.

    ``tile(sl, b, e)`` returns the costs of trials sl at positions b..e-1.
    Every chunk of trials is scored against one block before the next block
    starts, so each block of a large codebook is read once per call.
    """
    out, best = np.zeros(trials, dtype=np.int64), np.full(trials, np.inf)
    block = max(1, min(n_cand, _CW_BLOCK))
    step = max(1, CHUNK_BYTES // (32 * block))
    for b in range(0, n_cand, block):
        for a in range(0, trials, step):
            sl = slice(a, min(a + step, trials))
            costs = tile(sl, b, min(b + block, n_cand))
            j = np.argmin(costs, axis=1)
            low = np.take_along_axis(costs, j[:, None], axis=1)[:, 0]
            better = low < best[sl]
            best[sl][better] = low[better]
            out[sl][better] = j[better] + b
    return out


def decode_map_int(codebook, ys):
    """Index of the first codeword with the fewest mismatches on unerased positions.

    codebook: (M, n) bits; ys: (T, n) received words over {0, 1, ERASURE}.
    A word without erasures is scored by its Hamming distance.  The mismatch
    count of codeword c is #{i: y_i = 1} + c . w(y) with w = +1, -1 and 0 for
    a received 0, 1 and erasure.  The first term is the same for every
    codeword and is dropped; the second is a float32 GEMM per tile.  Every
    partial sum is an integer of magnitude at most n, so for n <= 2**24 the
    GEMM is exact in any summation order and any number of BLAS threads.
    """
    n_cw, n = codebook.shape
    if n > _F32_EXACT:
        raise ValueError(f"blocklength {n} exceeds 2**24; float32 scores would round")
    bits = np.ascontiguousarray(codebook.T, dtype=np.float32)  # (n, M)
    weights = np.array([1.0, -1.0, 0.0], dtype=np.float32)[ys]  # (T, n): w(y)
    return _first_min(ys.shape[0], n_cw, lambda sl, b, e: weights[sl] @ bits[:, b:e])


def decode_sq(codebook, scale, ys):
    """First-minimum squared-distance codeword per trial: sum_i (y_i - scale*c_i)^2.

    Each element is formed as d = y_i - scale*c_i, then acc += d*d, symbol by
    symbol, exactly as a per-trial loop would; no expansion of |y - c|^2.
    """
    scaled = np.ascontiguousarray((scale * codebook).T)  # (n, M)

    def tile(sl, b, e):
        y = ys[sl]
        acc = np.zeros((y.shape[0], e - b))
        d = np.empty_like(acc)
        for i in range(scaled.shape[0]):
            np.subtract(y[:, i, None], scaled[i, b:e], out=d)
            np.multiply(d, d, out=d)
            acc += d
        return acc

    return _first_min(ys.shape[0], scaled.shape[1], tile)


def _restricted(codebook, ys, cand_start, cand_count, cand_of, score):
    """Shared tile for the restricted decoders.

    Trial t searches the codewords from cand_start[b] on, cand_count[b] of
    them, for b = cand_of[t]: its position k is codeword cand_start[b] + k.
    ``score(acc, column, y)`` adds symbol i's costs for candidate symbols
    ``column`` and received symbols ``y`` (trials, 1) into acc in place.
    Positions past a range cost +inf, so the pick is that of a loop over the
    range, and an all-+inf range picks its start.
    """
    columns = np.ascontiguousarray(codebook.T)  # (n, nu2)
    starts, counts = cand_start[cand_of], cand_count[cand_of]

    def tile(sl, b, e):
        k = np.arange(b, e)
        valid = k < counts[sl, None]
        cands = np.where(valid, starts[sl, None] + k, starts[sl, None])
        y = ys[sl]
        acc = np.zeros(cands.shape)
        for i in range(columns.shape[0]):
            score(acc, columns[i][cands], y[:, i, None])
        acc[~valid] = np.inf
        return acc

    return starts + _first_min(ys.shape[0], int(counts.max(initial=0)), tile)


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
