"""Brute-force region recomputation by exhaustive grid over auxiliary joints.

This is the slow, auditable route: enumerate every cloud law P_U on a
simplex grid and every conditional row P_{X|U=u} on the input simplex grid,
evaluate the mutual-information triple for each joint with one kernel for
every input alphabet, collect the achievable corners, and Pareto-filter.
Whatever the parametric formulas claim, the grid can only produce points
inside the true region, so it one-sidedly validates them from below.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelPair,
    _mi_batch_nats,
    _simplex_lattice,
    _xlogx,
    capacity,
)
from .numerics import BudgetExceededError, LogBase
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


def composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def evaluation_count(pair: ChannelPair, spec: GridSpec) -> int:
    """Number of joints the scan will evaluate for this pair and grid."""
    m = spec.u_cardinality
    rows_per_u = composition_count(spec.steps, pair.input_size)
    return composition_count(spec.steps, m) * rows_per_u**m


def _row_tables(row_grid, trans1, trans2):
    """Per-row I(X;Y1|U=u), P(Y2|U=u) and H(Y2|U=u) in nats, computed once per scan."""
    rows_py2 = row_grid @ trans2
    return _mi_batch_nats(row_grid, trans1), rows_py2, -_xlogx(rows_py2).sum(axis=1)


def _general_scan_chunk(p_u, row_grid, rows_mi1, rows_py2, rows_h2, trans1):
    """Mutual-information triples for one cloud law over all row combinations.

    Works for any input alphabet: per-row quantities against both channels
    are precomputed once, so a joint reduces to gathers and weighted sums.
    Returns the triple in nats for every combination, combinations ordered
    with the last U coordinate fastest.
    """
    m = p_u.shape[0]
    n_rows = row_grid.shape[0]
    idx = np.indices((n_rows,) * m).reshape(m, -1).T  # (J, m) row choice per U value
    a = rows_mi1[idx] @ p_u
    px = np.einsum("jmx,m->jx", row_grid[idx], p_u)
    c = _mi_batch_nats(px, trans1)
    h_y2_u = rows_h2[idx] @ p_u
    py2 = np.einsum("jmy,m->jy", rows_py2[idx], p_u)
    b = np.maximum(-_xlogx(py2).sum(axis=1) - h_y2_u, 0.0)
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

    Work is partitioned by cloud-law composition; each chunk is filtered
    locally and its survivors are folded into a running frontier in chunk
    order, so the result is independent of the thread count.  Corners within
    1e-9 of the sum-rate line r1 + r2 = C1, or above it, are labelled
    conjectured.
    """
    if not (math.isfinite(c12) and c12 >= 0):
        raise ValueError(f"cooperation rate must be finite and nonnegative, got {c12}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    total = evaluation_count(pair, spec)
    if total > EVAL_BUDGET:
        raise BudgetExceededError(
            f"scan would evaluate {total} joints, over the budget of {EVAL_BUDGET}"
        )
    if pair.input_size > 2:
        warnings.warn(
            f"exhaustive scan over a {pair.input_size}-ary input: the row grid "
            "grows combinatorially, keep steps small",
            stacklevel=2,
        )
    trans1 = pair.ch1.transitions
    scale = base.ln_scale
    row_grid = _simplex_lattice(pair.input_size, spec.steps)
    rows_mi1, rows_py2, rows_h2 = _row_tables(row_grid, trans1, pair.ch2.transitions)

    def scan_chunk(p_u):
        a, b, c = _general_scan_chunk(p_u, row_grid, rows_mi1, rows_py2, rows_h2, trans1)
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
    comps = _simplex_lattice(spec.u_cardinality, spec.steps)
    # a pool starts no thread before its first task, so threads=1 scans in this
    # one; it must, since a tracer that keeps one span stack sees worker-thread
    # spans close out of order
    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = pool.map(scan_chunk, comps) if threads > 1 else map(scan_chunk, comps)
        for in_r1, in_r2, out_r1, out_r2 in chunks:
            inner.add(in_r1, in_r2)
            outer.add(out_r1, out_r2)

    c1, _ = capacity(pair.ch1, base=base)
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
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot compare an empty frontier")
    grid = np.union1d(a.r1, b.r1)
    return float(np.max(np.abs(a.interp_r2(grid) - b.interp_r2(grid))))
