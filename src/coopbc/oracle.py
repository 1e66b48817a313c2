"""Brute-force region recomputation by exhaustive grid over auxiliary joints.

This is the slow, auditable route: enumerate every cloud law P_U on a
simplex grid and every conditional row P_{X|U=u} on the input simplex grid,
evaluate the mutual-information triple for each joint with one kernel for
every input alphabet, collect the achievable corners, and Pareto-filter.
Whatever the parametric formulas claim, the grid can only produce points
inside the true region, so it one-sidedly validates them from below.

Two facts keep the scan cheap without changing what it covers.  P_U and
every row lie on the 1/steps grid, so P_X = sum_u P_U(u) P_{X|U=u} has
integer numerators over steps**2, and I(X;Y1) and H(Y2) depend on P_X
alone: they are looked up on that lattice, not recomputed per joint.  And
relabelling U permutes P_U and the rows together without changing the
triple, while P_U ranges over every composition, so only nondecreasing row
tuples i1 <= ... <= im are scored (50.2% of the joints at |U| = 2 on 201
rows).  Joint counts (``evaluation_count``, ``EVAL_BUDGET``, ``meta.json``)
stay nominal: cloud laws times every row choice.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelPair,
    _compositions,
    _mi_batch_nats,
    _xlogx,
    capacity,
    composition_count,
)
from .numerics import BudgetExceededError, LogBase, check_threads, map_in_order
from .regions import (
    SEGMENT_CONJECTURED,
    SEGMENT_PROVEN,
    RateRegionBoundary,
    pareto_filter,
)

# Most joints one scan may enumerate.
EVAL_BUDGET = 100_000_000


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry for the exhaustive scan.

    ``steps`` is the number of subdivisions per probability coordinate, so
    each 1-D grid has steps+1 points.  ``u_cardinality`` defaults to 3, which
    is |X| + 1 for binary inputs; the default does not follow the input
    alphabet.  ``oracle-compare --u-size`` defaults to 2, which is enough for
    the erasure/symmetric pair and much faster.  A scan may enumerate at most
    ``EVAL_BUDGET`` joints.
    """

    steps: int
    u_cardinality: int = 3

    def __post_init__(self):
        if self.u_cardinality < 1:
            raise ValueError(f"u_cardinality must be >= 1, got {self.u_cardinality}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")


def evaluation_count(pair: ChannelPair, spec: GridSpec) -> int:
    """Number of joints the scan will evaluate for this pair and grid."""
    m = spec.u_cardinality
    rows_per_u = composition_count(spec.steps, pair.input_size)
    return composition_count(spec.steps, m) * rows_per_u**m


class _Lattice:
    """I(X;Y1) and H(Y2), in nats, of the input laws on the 1/denom lattice.

    A law is given by the integer numerators over ``denom`` of every input
    symbol but the last, one row per law.  A binary input tabulates all
    denom + 1 laws once, so a lookup is one gather.  A larger alphabet's
    lattice grows as denom**(|X|-1), so each call evaluates only the
    distinct laws it is given, with ``np.unique`` mapping every row to its
    law.
    """

    def __init__(self, denom: int, trans1: np.ndarray, trans2: np.ndarray):
        self.denom, self.trans1, self.trans2 = denom, trans1, trans2
        binary = trans1.shape[0] == 2
        self.table = self._info(np.arange(denom + 1)[:, None]) if binary else None

    def _info(self, nums):
        px = np.column_stack([nums, self.denom - nums.sum(axis=1)]) / self.denom
        return _mi_batch_nats(px, self.trans1), -_xlogx(px @ self.trans2).sum(axis=1)

    def __call__(self, nums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.table is not None:
            mi1, h2 = self.table
            return mi1[nums[:, 0]], h2[nums[:, 0]]
        laws, at = np.unique(nums, axis=0, return_inverse=True)
        mi1, h2 = self._info(laws)
        return mi1[at], h2[at]


def _canonical_tuples(n_rows: int, m: int) -> np.ndarray:
    """Row-index tuples i1 <= ... <= im, one per multiset of rows, in
    lexicographic order: the row choices of one scan."""
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n_rows), m)
    )
    count = composition_count(m, n_rows) * m
    return np.fromiter(flat, dtype=np.intp, count=count).reshape(-1, m)


def _general_scan_chunk(p_u, row_grid, tuples, rows_mi1, rows_h2, lattice):
    """Mutual-information triples for one cloud law over the given row tuples.

    Works for any input alphabet.  ``p_u`` holds the cloud law's integer
    numerators and each row of ``row_grid`` a conditional row's, each over
    its own sum; ``rows_mi1`` and ``rows_h2`` are each row's I(X;Y1|U=u)
    and H(Y2|U=u).  A joint costs gathers and weighted sums: I(X;Y1) and
    H(Y2) come from ``lattice`` at the integer numerators of P_X, with no
    logarithm.  Returns the triple in nats for every tuple, in the order of
    ``tuples``.
    """
    weights = p_u / p_u.sum()
    a = rows_mi1[tuples] @ weights
    nums = np.einsum("tux,u->tx", row_grid[tuples, :-1], p_u)
    c, h_y2 = lattice(nums)
    b = np.maximum(h_y2 - rows_h2[tuples] @ weights, 0.0)
    return a, b, c


class _Fold:
    """Running Pareto frontier of the chunk survivors, folded in chunk order.

    Each added chunk must already be Pareto-filtered; the first one becomes
    the frontier as it is.  Later survivors wait in a pending list until they
    outnumber the frontier, then one filter merges them into it, so memory
    stays near two frontiers.  The frontier always precedes the pending
    points, which keeps the filter's lowest-index tie rule equal to one
    filter over every chunk in order.
    """

    def __init__(self):
        self.r1 = self.r2 = np.empty(0)
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, r1: np.ndarray, r2: np.ndarray) -> None:
        if self.r1.size == 0 and not self.pending:
            self.r1, self.r2 = r1, r2
            return
        self.pending.append((r1, r2))
        if sum(p[0].size for p in self.pending) > self.r1.size:
            self._fold()

    def _fold(self) -> None:
        r1 = np.concatenate([self.r1, *(p[0] for p in self.pending)])
        r2 = np.concatenate([self.r2, *(p[1] for p in self.pending)])
        self.pending = []
        keep = pareto_filter(r1, r2)
        self.r1, self.r2 = r1[keep], r2[keep]

    def frontier(self) -> tuple[np.ndarray, np.ndarray]:
        """Fold what is pending and return the frontier's (r1, r2)."""
        self._fold()
        return self.r1, self.r2


def oracle_both(
    pair: ChannelPair,
    c12: float,
    spec: GridSpec,
    base: LogBase = LogBase.BITS,
    threads: int = 1,
) -> tuple[RateRegionBoundary, RateRegionBoundary]:
    """One grid pass yielding both the cut (inner) and uncut (outer) frontiers.

    Work is partitioned by cloud-law composition, and each chunk scores the
    canonical row tuples (see the module docstring); each chunk is filtered
    locally and its survivors are folded into a running frontier in chunk
    order, so the result is independent of the thread count.  Corners within
    1e-9 of the sum-rate line r1 + r2 = C1, or above it, are labelled
    conjectured.
    """
    if not (math.isfinite(c12) and c12 >= 0):
        raise ValueError(f"cooperation rate must be finite and nonnegative, got {c12}")
    check_threads(threads)
    m, steps = spec.u_cardinality, spec.steps
    # log space first, as the exact count of a large |U| has millions of digits;
    # the slack covers lgamma's rounding, and inside it the exact count decides
    log2_total = m * math.log2(composition_count(steps, pair.input_size)) + (
        math.lgamma(steps + m) - math.lgamma(steps + 1) - math.lgamma(m)) / math.log(2)
    if log2_total > math.log2(EVAL_BUDGET) + 1e-3 or evaluation_count(pair, spec) > EVAL_BUDGET:
        raise BudgetExceededError(
            f"scan would evaluate 2**{log2_total:.6g} joints, over the budget of {EVAL_BUDGET}"
        )
    if pair.input_size > 2:
        warnings.warn(
            f"exhaustive scan over a {pair.input_size}-ary input: the row grid "
            "grows combinatorially, keep steps small",
            stacklevel=2,
        )
    # C1 only labels the corners, but a channel whose capacity cannot be
    # certified should fail before the scan, not after it
    c1, _ = capacity(pair.ch1, base=base)
    scale = base.ln_scale
    # a one-point U has the single cloud law (1); a finer P_U grid would only
    # scale every P_X numerator, and the lattice, by steps
    u_steps = steps if m > 1 else 1
    row_grid = _compositions(steps, pair.input_size)
    lattice = _Lattice(steps * u_steps, pair.ch1.transitions, pair.ch2.transitions)
    rows_mi1, rows_h2 = lattice(row_grid[:, :-1] * u_steps)
    tuples = _canonical_tuples(row_grid.shape[0], m)

    def scan_chunk(p_u):
        a, b, c = _general_scan_chunk(p_u, row_grid, tuples, rows_mi1, rows_h2, lattice)
        a = a / scale
        b = b / scale + c12
        c = c / scale
        # dominant corners of {r1 <= a, r2 <= b, r1 + r2 <= c}
        in_r1a = np.minimum(a, c)
        in_r2a = np.minimum(b, c - in_r1a)
        in_r2b = np.minimum(b, c)
        in_r1b = np.minimum(a, c - in_r2b)
        inner_r1 = np.concatenate([in_r1a, np.maximum(in_r1b, 0.0)])
        inner_r2 = np.concatenate([np.maximum(in_r2a, 0.0), in_r2b])
        ki = pareto_filter(inner_r1, inner_r2)
        ko = pareto_filter(a, b)
        return inner_r1[ki], inner_r2[ki], a[ko], b[ko]

    inner, outer = _Fold(), _Fold()
    chunks = map_in_order(scan_chunk, _compositions(u_steps, m), threads)
    for in_r1, in_r2, out_r1, out_r2 in chunks:
        inner.add(in_r1, in_r2)
        outer.add(out_r1, out_r2)

    return tuple(
        RateRegionBoundary(
            r1,
            r2,
            np.full(r1.shape, np.nan),
            np.where(r1 + r2 >= c1 - 1e-9, SEGMENT_CONJECTURED, SEGMENT_PROVEN),
        )
        for r1, r2 in (inner.frontier(), outer.frontier())
    )


def frontier_deviation(a: RateRegionBoundary, b: RateRegionBoundary) -> float:
    """Largest vertical distance between two frontiers over their sampled r1 values.

    Both curves are linearly interpolated between corners and held constant
    beyond their endpoints; the maximum of |r2_a - r2_b| is taken over the
    union of both r1 sample sets.
    """
    grid = np.union1d(a.r1, b.r1)
    return float(np.max(np.abs(a.interp_r2(grid) - b.interp_r2(grid))))


def _dominance_gap(a: RateRegionBoundary, b: RateRegionBoundary) -> float:
    """Smallest eps >= 0 such that every corner of ``a`` is dominated, after
    moving it down by eps in both coordinates, by a corner of ``b``."""
    # For a corner p, max(p1 - q1, p2 - q2) falls and then rises along b's
    # corners (r1 increasing, r2 nonincreasing); it crosses over where the
    # strictly increasing r1 - r2 of b reaches p1 - p2, so its minimum sits
    # at one of the two corners around that point.
    j = np.searchsorted(b.r1 - b.r2, a.r1 - a.r2)
    gaps = [
        np.maximum(a.r1 - b.r1[k], a.r2 - b.r2[k])
        for k in (np.minimum(j, len(b) - 1), np.maximum(j - 1, 0))
    ]
    return max(float(np.max(np.minimum(*gaps))), 0.0)


def frontier_dominance(a: RateRegionBoundary, b: RateRegionBoundary) -> float:
    """Dominance distance between two frontiers: the smallest eps >= 0 such
    that every corner of each lies at most eps below a corner of the other in
    both coordinates.

    Unlike ``frontier_deviation`` it does not interpolate, so two frontiers
    whose corners differ only in the last bits read as close even where a
    near-vertical step moves; it is 0 exactly when each frontier's corners
    are dominated by the other's.
    """
    return max(_dominance_gap(a, b), _dominance_gap(b, a))
