"""The simulator's ML decoders in numpy; none runs a Python loop per trial.

Every decision is the first minimum of a cost sum (mismatches, squared
distances or negated log-scores), taken by one loop, ``_first_min``, over
tiles of a chunk of trials x a block of candidate positions.  A kernel scores
only real codewords (a user-2 position past a trial's range repeats its last
member) and returns each trial's first least position in its tile and that
cost; every cost that can decide is that of a per-trial loop: integer scores
are exact, and floating scores add the same per-element terms symbol by
symbol.  decode_sq filters first: a float32 expanded-form GEMM score with a
proven rounding bound rules positions out, and only the positions within that
bound of each trial's least score are scored exactly.  Blocks merge in
position order by a strict "lower than", a NaN below any number as in numpy's
argmin, and every pick starts at position 0, so ties keep the first index and
a row of all +inf keeps position 0.  Decisions do not depend on the chunk or
block size, on the number of BLAS threads, or on how the caller splits trials.

Kernels:
  * decode_map_int   - fewest mismatches on unerased positions (erasure channels)
  * decode_map_float - highest log-score codeword over per-trial index ranges
  * decode_sq        - squared-distance nearest codeword (Gaussian channels)
  * decode_sq_restricted - squared distance over per-trial index ranges
"""

from __future__ import annotations

import numpy as np

# Bytes one tile may hold.  Each kernel states the bytes its tile takes per
# trial and position: 4 for a user-1 tile of float32 scores, 32 for a user-2
# tile and the arrays scoring it.  Small enough that a tile stays in cache; a
# tile of one trial may exceed it.
CHUNK_BYTES = 1 << 20

# Largest integer magnitude below which every float32 integer sum is exact.
_F32_EXACT = 1 << 24

# Received symbol of an erased position in the words decode_map_int reads.
ERASURE = 2

# Candidate positions per tile.
_CW_BLOCK = 4096

# Largest |y|^2 and |s*c|^2 that decode_sq scores by its float32 filter.
_FILTER_LIMIT = 2.0**100


def _first_min(trials: int, n_cand: int, tile, width: int) -> np.ndarray:
    """Position of each trial's first minimum cost among n_cand candidates.

    ``tile(sl, b, e)`` returns, for trials sl, each one's first least
    position in b..e-1, relative to b, and its cost.  A chunk holds as many
    trials as keep a tile of ``width`` bytes per trial and position within
    CHUNK_BYTES.  Every chunk of trials is scored against one block before
    the next block starts, so each block of a large codebook is read once
    per call.
    """
    out, best = np.zeros(trials, dtype=np.int64), np.full(trials, np.inf)
    block = max(1, min(n_cand, _CW_BLOCK))
    step = max(1, CHUNK_BYTES // (width * block))
    for b in range(0, n_cand, block):
        for a in range(0, trials, step):
            sl = slice(a, min(a + step, trials))
            j, low = tile(sl, b, min(b + block, n_cand))
            better = (low < best[sl]) | (np.isnan(low) & ~np.isnan(best[sl]))
            best[sl][better] = low[better]
            out[sl][better] = j[better] + b
    return out


def _pick(costs):
    """Each row's first least position and the cost there."""
    j = np.argmin(costs, axis=1)
    return j, np.take_along_axis(costs, j[:, None], axis=1)[:, 0]


def check_map_int_blocklength(n: int) -> None:
    """decode_map_int's float32 scores are exact for blocklengths up to 2**24."""
    if n > _F32_EXACT:
        raise ValueError(f"blocklength {n} exceeds 2**24; float32 scores would round")


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
    check_map_int_blocklength(n)
    bits = np.ascontiguousarray(codebook.T, dtype=np.float32)  # (n, M)
    weights = np.array([1.0, -1.0, 0.0], dtype=np.float32)[ys]  # (T, n): w(y)
    return _first_min(ys.shape[0], n_cw, lambda sl, b, e: _pick(weights[sl] @ bits[:, b:e]), 4)


def _sq_dist(y, sc):
    """Squared distances sum_i (y[i] - sc[i])**2 over the first axis, the rest
    broadcast: d = y_i - sc_i and d*d for every symbol, then acc += d*d in
    symbol order, exactly as a per-trial loop would."""
    d = np.subtract(y, sc)
    d *= d
    acc = np.zeros(d.shape[1:])
    for d_i in d:
        acc += d_i
    return acc


def decode_sq(codebook, scale, ys):
    """First-minimum squared-distance codeword per trial: sum_i (y_i - scale*c_i)^2.

    Every decision is that of the per-element scores S = _sq_dist(y, sc) of
    the codewords sc = scale*c.  A tile of trials x positions computes S only
    where it can be least:

    * Filter.  A = |sc|^2 - 2 y.sc, in exact arithmetic S - |y|^2, is one
      float32 GEMM of the rows [-2y, 1] against the block's columns [sc; N],
      where N = |sc|^2 is computed in float64 and both operands are rounded
      to float32 once per call.
    * Verify.  Positions with A <= min A + 2 E get their S, with trial t's
      slack E >= |A - (S - |y|^2)|.  Let j attain the tile's least S and k
      its least A.  Then A_j <= S_j - |y|^2 + E <= S_k - |y|^2 + E <= A_k + 2 E.
      The bar is formed in float64 and rounded to float32, rounding is
      monotone and A_j is a float32, so j passes the computed bar too.
      Every position with the least S is scored, and the tile's first
      minimum and least cost, and so every decision, are those of scoring
      every position.  The passing positions come in trial, then position
      order, and each trial has one (its least A), so each trial's least S
      is a minimum over its run, and its pick the run's first position
      that attains it.

    The slack (Higham, Accuracy and Stability of Numerical Algorithms,
    sections 2.1-3.1).  Let u = 2**-24, g(k) = k u / (1 - k u), and
    h = 2**-150, the largest error of a float32 conversion or product that
    underflows; a sum that underflows is exact.  Rounding x to float32 gives
    x (1 + d) + e with |d| <= u and |e| <= h.  A sum of k products in any
    order, with or without FMA, is within g(k) sum|products| +
    k h (1 + g(k)) of its value.  Over the stored sc, with
    S* = sum (y_i - sc_i)^2, Q = 2 sum|y_i sc_i| and N* = |sc|^2, and the
    float64 figures u' = 2**-53, g' and h' = 2**-1075 for S and the norms:

    * |S - S*| <= g'(n+2) S* + n h' (1 + g'(n)): d enters squared, d*d is
      rounded once, and n terms take n - 1 additions;
    * the float32 operands r_i of -2 y_i and c_i of sc_i give
      |r_i c_i + 2 y_i sc_i| <= g(2) 2|y_i sc_i| + h (1 + u) (2|y_i| + |sc_i|)
      + h**2, each error of one factor times the other factor's magnitude;
    * the float32 N is within u N + h of the float64 N, which is within
      g'(n) N* + n h' (1 + g'(n)) of N*;
    * A sums n + 1 products, the last 1*N, so by g(a) (1 + g(b)) + g(b) <=
      g(a+b) and sum (2|y_i| + |sc_i|) <= sqrt(n) (2|y| + |sc|),
      |A - (N* - 2 y.sc)| <= g(n+3) (Q + N*) + h (1 + g(n+2)) (sqrt(n)
      (2|y| + |sc|) + n + 3), plus terms in h' of the float64 N.

    Q + N* and S* are at most sum (|y_i| + |sc_i|)^2 <= 2 (|y|^2 + |sc|^2),
    g(n+3) + g'(n+2) <= g(n+4), 2|y| + |sc| <= 2 + |y|^2 + |sc|^2, and
    g(n+2) <= 1 while n + 4 <= 2**23, so
    |A - (S - |y|^2)| <= 2 g(n+4) (|y|^2 + |sc|^2) +
    2 h (sqrt(n) (2 + |y|^2 + |sc|^2) + n + 3) + (terms in h').
    With the computed norms Y_t of y and N of sc, each within g'(n) and
    n h' (1 + g'(n)) of its value, the tile takes

        E = (4 g(n+4) + 4 h sqrt(n)) (Y_t + max_block N) + 4 h (2 sqrt(n) + n + 4),

    twice the relative and absolute terms: the margins cover the norms'
    errors, the terms in h' and the float64 rounding of E and of the bar
    before its one rounding to float32.  Nothing in it depends on the
    summation order, on FMA or on the number of BLAS threads.

    Past 2**23 - 4 symbols, or in a tile where some Y_t or max_block N
    exceeds 2**100 or is not finite (y or sc not finite, or a norm
    overflows), every position is scored by _sq_dist.  Below that limit no
    float32 conversion, product, partial sum or bar overflows: each is at
    most a few times 2**102.
    """
    ys = np.asarray(ys, dtype=np.float64)
    n_cw, n = codebook.shape
    unit = min(n + 4, 2**23) * 2.0**-24
    limit = _FILTER_LIMIT if n + 4 <= 2**23 else -1.0  # past it, g(n+4) > 1
    gap = 4 * unit / (1 - unit) + 2.0**-148 * n**0.5  # 4 g(n+4) + 4 h sqrt(n)
    floor = 2.0**-148 * (2 * n**0.5 + n + 4)
    cols = np.empty((n + 1, n_cw), dtype=np.float32)  # float32 sc as columns, N below
    with np.errstate(over="ignore"):  # an overflow only sends tiles to _sq_dist
        sc = scale * codebook
        norms = np.einsum("ij,ij->i", sc, sc)
        cols[:n], cols[n] = sc.T, norms
        del sc  # the verify scales only the codewords it scores
        y_norms = np.einsum("ij,ij->i", ys, ys)
        rows = np.hstack([-2.0 * ys, np.ones((ys.shape[0], 1))]).astype(np.float32)

    def tile(sl, b, e):
        y, top = ys[sl], norms[b:e].max()
        if not (y_norms[sl].max() <= limit and top <= limit):
            return _pick(_sq_dist(y.T[:, :, None], (scale * codebook[b:e]).T[:, None, :]))
        a = rows[sl] @ cols[:, b:e]
        bar = (a.min(axis=1) + 2 * (gap * (y_norms[sl] + top) + floor)).astype(np.float32)
        t, j = np.divmod(np.flatnonzero(a <= bar[:, None]), e - b)
        s = _sq_dist(y[t].T, (scale * codebook[b + j]).T)
        runs = np.searchsorted(t, np.arange(len(y)))
        low = np.minimum.reduceat(s, runs)
        hits = np.flatnonzero(s == low[t])
        return j[hits[np.searchsorted(t[hits], np.arange(len(y)))]], low

    return _first_min(ys.shape[0], n_cw, tile, 4)


def _restricted(codebook, ys, cand_start, cand_count, cand_of, score):
    """Shared tile for the restricted decoders.

    Trial t searches the codewords from cand_start[b] on, cand_count[b] of
    them, for b = cand_of[t]: its position k is codeword cand_start[b] + k.
    ``score(acc, column, y)`` adds symbol i's costs for candidate symbols
    ``column`` and received symbols ``y`` (trials, 1) into acc in place.
    A position past a range rescores its last member, so the pick is that
    of a loop over the range; an empty range, or one of infinite costs only,
    picks its start.
    """
    columns = np.ascontiguousarray(codebook.T)  # (n, nu2)
    starts, counts = cand_start[cand_of], cand_count[cand_of]
    last = np.maximum(counts - 1, 0)

    def tile(sl, b, e):
        cands = starts[sl, None] + np.minimum(np.arange(b, e), last[sl, None])
        y = ys[sl]
        acc = np.zeros(cands.shape)
        for i in range(columns.shape[0]):
            score(acc, columns[i][cands], y[:, i, None])
        return _pick(acc)

    return starts + _first_min(ys.shape[0], int(counts.max(initial=0)), tile, 32)


def decode_map_float(codebook, logscore, ys, cand_start, cand_count, cand_of):
    """First-maximum log-score candidate per trial, over an index range per trial.

    Trial t searches the range of b = cand_of[t] (see ``_restricted``).
    Costs subtract logscore[c_i, y_i] symbol by symbol, so only -inf entries
    cost +inf; negation is exact, so every cost sum is the exact negative of
    the log-score sum.  Returns the chosen codeword index per trial.
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
