"""Parametric rate-region families: thresholds, boundary curves, and exports.

A family bundles two monotone evaluators f1 (rising, 0 to c1) and f2
(falling, c2+c12 to c12) over a parameter interval [0, b].  Sweeping the
parameter traces rectangles (outer form) or rectangles cut by the sum-rate
line r1 + r2 <= c1 (inner form); the upper-right frontier of their union is
the region boundary.  The threshold parameter, where f1 + f2 crosses c1, is
where the two frontiers separate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_TOL, LogBase, Tolerance, bisect_monotone

_STRICT_SLACK = 1e-12
_ENDPOINT_TOL = 1e-9
# intervals of the grid on which a family's contract is checked
_VALIDATION_POINTS = 1000

SEGMENT_PROVEN = "proven"
SEGMENT_CONJECTURED = "sumrate_conjectured"


class MonotonicityError(RuntimeError):
    """A sweep or family violated a monotonicity guarantee it was supposed to satisfy."""


@dataclass(frozen=True)
class ParametricFamily:
    """Monotone boundary evaluators for one channel family at one cooperation rate.

    ``f1`` and ``f2`` take a float (bisection) or a whole parameter grid as
    an ndarray (validation and sweeps); a constant may return a float for a
    grid, which is broadcast to the grid's shape.

    Construction re-checks the contract on a validation grid: f1 and f2
    finite, f1 strictly increasing from 0 to c1, f2 strictly decreasing from
    c2+c12 to c12, f1+f2 strictly increasing, and c12 <= c1 - c2.  These
    properties are what make the threshold solve well-posed, so a family that
    fails them is rejected outright.
    """

    b: float
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    c1: float
    c2: float
    c12: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"parameter endpoint b must be positive, got {self.b}")
        if self.c12 < 0:
            raise ValueError(f"cooperation rate must be nonnegative, got {self.c12}")
        _, v1, v2 = _sample(self, _VALIDATION_POINTS + 1)
        for name, v in (("f1", v1), ("f2", v2)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} is not finite on the validation grid")
        for name, got, want in (
            ("f1(0)", v1[0], 0.0),
            ("f1(b)", v1[-1], self.c1),
            ("f2(0)", v2[0], self.c2 + self.c12),
            ("f2(b)", v2[-1], self.c12),
        ):
            if abs(got - want) > _ENDPOINT_TOL:
                raise ValueError(f"{name} = {got}, expected {want}")
        if not np.all(np.diff(v1) > _STRICT_SLACK):
            raise ValueError("f1 is not strictly increasing on the validation grid")
        if not np.all(np.diff(v2) < -_STRICT_SLACK):
            raise ValueError("f2 is not strictly decreasing on the validation grid")
        if not np.all(np.diff(v1 + v2) > _STRICT_SLACK):
            raise ValueError("f1 + f2 is not strictly increasing on the validation grid")
        if self.c12 > self.c1 - self.c2:
            raise ValueError(
                f"requires C12 <= C1 - C2 (got C12={self.c12}, C1-C2={self.c1 - self.c2})"
            )


def _sample(fam: ParametricFamily, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, f1, f2) on ``points`` parameters evenly spaced over [0, b], each
    evaluator called once on the whole grid; a constant result is broadcast."""
    grid = np.linspace(0.0, fam.b, points)
    f1s, f2s = (
        np.broadcast_to(np.asarray(f(grid), dtype=np.float64), grid.shape)
        for f in (fam.f1, fam.f2)
    )
    return grid, f1s, f2s


def check_c12(bc, c12: float, base: LogBase) -> tuple[float, float, float]:
    """(C1, C2, c12) of a channel pair with ``cap1``/``cap2``, once 0 < C2 < C1
    and 0 <= c12 <= C1 - C2 to within 1e-9; the rate returned is c12 snapped
    into that range, and every family and closed form takes that one value.

    This is the one place the ordering the bounds assume is checked: user 1
    must be the strictly stronger receiver and user 2's channel must carry
    something.  For the Gaussian pair this is s1 > s2 > 0, for the BEC/BSC
    pair p2 < 1/2 and tau1 < H_b(p2).
    """
    c1, c2 = bc.cap1(base), bc.cap2(base)
    if not 0.0 < c2 < c1:
        raise ValueError(f"requires 0 < C2 < C1 (got C1={c1}, C2={c2} for {bc})")
    top = c1 - c2
    if not -_ENDPOINT_TOL <= c12 <= top + _ENDPOINT_TOL:
        raise ValueError(f"requires 0 <= C12 <= C1 - C2 (got C12={c12}, C1-C2={top})")
    return c1, c2, min(max(c12, 0.0), top)


def check_r1(r1: float, r1_th: float) -> float:
    """r1 snapped into [0, r1_th], where the boundary is proven, once within 1e-9 of it."""
    if not -_ENDPOINT_TOL <= r1 <= r1_th + _ENDPOINT_TOL:
        raise ValueError(f"r1 must lie in [0, {r1_th}], got {r1}")
    return min(max(r1, 0.0), r1_th)


@dataclass(frozen=True)
class RateRegionBoundary:
    """Pareto frontier of a 2-D rate region, sorted by increasing r1.

    Rates are finite.  ``alpha`` carries the family parameter that produced
    each corner (NaN when the frontier did not come from a parametric
    sweep).  ``segment`` marks corners whose full rectangle is a proven part
    of the capacity boundary versus corners that only sit on the conjectured
    sum-rate face.
    """

    r1: np.ndarray
    r2: np.ndarray
    alpha: np.ndarray
    segment: np.ndarray

    def __post_init__(self):
        r1 = np.asarray(self.r1, dtype=np.float64)
        r2 = np.asarray(self.r2, dtype=np.float64)
        if r1.shape != r2.shape or r1.ndim != 1 or r1.size == 0:
            raise ValueError("r1 and r2 must be equal-length nonempty vectors")
        if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
            raise ValueError("frontier r1 and r2 values must be finite")
        if np.any(np.diff(r1) <= 0):
            raise ValueError("frontier r1 values must be strictly increasing")
        if np.any(np.diff(r2) > 0):
            raise ValueError("frontier r2 values must be nonincreasing")
        alpha = np.asarray(self.alpha, dtype=np.float64)
        segment = np.asarray(self.segment)
        if alpha.shape != r1.shape or segment.shape != r1.shape:
            raise ValueError("alpha and segment must parallel the rate arrays")
        for name, arr in (("r1", r1), ("r2", r2), ("alpha", alpha), ("segment", segment)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.r1.size

    def interp_r2(self, r1: np.ndarray) -> np.ndarray:
        """r2 on the frontier at the given r1 values, linear between corners."""
        return np.interp(r1, self.r1, self.r2)


def _max_after(a: np.ndarray) -> np.ndarray:
    """Largest element after each position of ``a``; -inf after the last."""
    return np.append(np.maximum.accumulate(a[::-1])[-2::-1], -np.inf)


def pareto_filter(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated upper-right corners, sorted by increasing r1.

    A point is kept iff no other point is >= in both coordinates (and > in
    at least one).  Ties in r1 keep the largest r2; ties in r2 keep the
    largest r1; among exact duplicates the lowest index wins.  Points with
    r1 = +inf or r2 = -inf are never kept.  NaN raises ValueError.

    Two passes, no Python loop.  Bucket prune, without sorting (Bentley,
    Clarkson and Levine, "Fast linear expected-time algorithms for computing
    maxima and convex hulls", 1990), run from 64 points up when
    max r1 - min r1 is finite and positive: split [min r1, max r1] into
    K = floor(sqrt(N)) equal buckets by an index that never falls as r1
    rises, and drop every point whose r2 is strictly below the largest r2 of
    the buckets strictly above its own.  A bucket strictly above holds only
    larger r1, so a dropped point is beaten in both coordinates by some
    point, which also beats whatever the dropped point dominates: the answer
    is the same under every tie rule, and the points left keep their index
    order.  Sort and sweep (Kung, Luccio and Preparata, JACM 1975): sort the
    points left by r1, then r2, ascending, exact duplicates by descending
    index, and keep a point iff its r2 is strictly above the largest r2 after
    it.  Every point after p has a larger r1, or the same r1 and a larger r2,
    or is a duplicate of p with a lower index, so any of them with r2 >= p's
    beats p under the tie rules; no point before p can.  The points kept come
    out in increasing r1.  The sort is one stable argsort of the reversed
    points as complex numbers r1 + i*r2, which numpy orders by real part,
    then imaginary part; np.lexsort gives the same order from two stable
    sorts, about 1.4 times as long on an oracle scan's points (numpy 2.4,
    x86-64).
    """
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    if r1.ndim != 1 or r1.shape != r2.shape:
        raise ValueError(
            f"r1 and r2 must be equal-length 1-D arrays, got shapes {r1.shape} and {r2.shape}"
        )
    if np.isnan(r1).any() or np.isnan(r2).any():
        raise ValueError("pareto_filter got a NaN rate")
    # r1 = +inf points never survive and never dominate anything
    idx = np.flatnonzero(r1 < np.inf)
    if idx.size < r1.size:
        r1, r2 = r1[idx], r2[idx]
    else:
        idx = None
    if r1.size == 0:
        return np.empty(0, dtype=np.intp)
    # below 64 points there are fewer than 8 buckets, too few to drop much
    if r1.size >= 64:
        lo, hi = float(r1.min()), float(r1.max())
        width = hi - lo  # Python floats: a span past the float range is inf, with no warning
        if math.isfinite(width) and width > 0:
            k = math.isqrt(r1.size)
            # (r1 - lo) / width lies in [0, 1] and rounds monotonically
            bucket = np.minimum(((r1 - lo) / width * k).astype(np.intp), k - 1)
            top = np.full(k, -np.inf)
            np.maximum.at(top, bucket, r2)
            live = np.flatnonzero(r2 >= _max_after(top)[bucket])
            r1, r2 = r1[live], r2[live]
            idx = live if idx is None else idx[live]
    # stable on the reversed points, so exact duplicates come out by descending index
    z = np.stack((r1[::-1], r2[::-1]), axis=1).view(np.complex128).ravel()
    order = r1.size - 1 - np.argsort(z, kind="stable")
    s2 = r2[order]
    keep = order[s2 > _max_after(s2)]
    return keep if idx is None else idx[keep]


def threshold_alpha(fam: ParametricFamily, tol: Tolerance = DEFAULT_TOL) -> float:
    """Parameter value where f1 + f2 crosses c1 (unique by strict increase)."""
    return bisect_monotone(
        lambda a: fam.f1(a) + fam.f2(a), 0.0, fam.b, fam.c1, "increasing", tol
    )


def r1_threshold(fam: ParametricFamily, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest r1 for which the region boundary is a proven capacity boundary."""
    return fam.f1(threshold_alpha(fam, tol))


def boundary_r2star(fam: ParametricFamily, r1: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Best r2 on the boundary at rate r1, i.e. f2 at the f1-preimage of r1.

    Only defined up to the threshold rate; beyond it the boundary is no
    longer proven and this function refuses to extrapolate.
    """
    r1 = check_r1(r1, r1_threshold(fam, tol))
    alpha = bisect_monotone(fam.f1, 0.0, fam.b, r1, "increasing", tol)
    return fam.f2(alpha)


def _corner_sweep(fam: ParametricFamily, grid_size: int, sum_cut: bool) -> RateRegionBoundary:
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    alphas, f1s, f2s = _sample(fam, grid_size)
    r2s = np.minimum(f2s, fam.c1 - f1s) if sum_cut else f2s
    proven = f1s + f2s <= fam.c1 + _STRICT_SLACK
    keep = pareto_filter(f1s, r2s)
    segment = np.where(proven[keep], SEGMENT_PROVEN, SEGMENT_CONJECTURED)
    return RateRegionBoundary(f1s[keep], r2s[keep], alphas[keep], segment)


def inner_boundary(fam: ParametricFamily, grid_size: int = 2001) -> RateRegionBoundary:
    """Frontier of the union of sum-rate-cut rectangles over the parameter grid."""
    return _corner_sweep(fam, grid_size, sum_cut=True)


def outer_boundary(fam: ParametricFamily, grid_size: int = 2001) -> RateRegionBoundary:
    """Frontier of the union of plain rectangles over the parameter grid."""
    return _corner_sweep(fam, grid_size, sum_cut=False)


@dataclass(frozen=True)
class CoincidenceReport:
    """How far the inner and outer parametric slices agree below the threshold."""

    alpha_th: float
    max_violation: float
    first_divergence_alpha: Optional[float]


def coincidence_check(
    fam: ParametricFamily, grid_size: int = 2001, tol: Tolerance = DEFAULT_TOL
) -> CoincidenceReport:
    """Verify f1 + f2 <= c1 below the threshold and locate the first breach above it.

    Below the threshold the sum-rate cut is inactive, so the inner and outer
    slices are the same rectangle; ``max_violation`` reports how much (if at
    all) the sum exceeds c1 there.  ``first_divergence_alpha`` is the first
    grid parameter past the threshold where the cut strictly bites.
    """
    a_th = threshold_alpha(fam, tol)
    alphas, f1s, f2s = _sample(fam, grid_size)
    sums = f1s + f2s
    below = alphas <= a_th
    max_violation = float(np.max(sums[below] - fam.c1, initial=0.0))
    above = (alphas > a_th) & (sums > fam.c1 + tol.abs_tol)
    first = float(alphas[above][0]) if np.any(above) else None
    return CoincidenceReport(a_th, max_violation, first)


def sweep_thresholds(
    fam_factory: Callable[[float], ParametricFamily],
    c12_grid,
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple[float, float, float]]:
    """Threshold parameter and threshold rate for each cooperation rate in the grid.

    Returns rows (c12, alpha_th, r1_th).  Both thresholds must be strictly
    decreasing along an increasing grid; a violation raises
    MonotonicityError since it signals a broken family, not bad input.  The
    exception is two neighbouring rates that the families admit as
    different values but whose threshold parameters lie within the
    bisection width ``tol.abs_tol`` of each other: the grid asks for a
    resolution the solver does not have, which is a ValueError.  So are two
    neighbouring rates that both snap to one admitted value lying within
    1e-9 of each request; this is checked on every family before any
    threshold is solved.
    """
    c12s = [float(c12) for c12 in c12_grid]
    if any(b <= a for a, b in zip(c12s, c12s[1:])):
        raise ValueError("c12 grid must be strictly increasing")
    families = [fam_factory(c12) for c12 in c12s]
    admitted = [fam.c12 for fam in families]
    pairs = list(zip(c12s, admitted))
    for (a, got_a), (b, got_b) in zip(pairs, pairs[1:]):
        if got_a == got_b and max(abs(got_a - a), abs(got_b - b)) <= _ENDPOINT_TOL:
            raise ValueError(
                f"c12 = {a} and c12 = {b} are both admitted as c12 = {got_a}: "
                f"the grid asks for two rates where the family has one"
            )
    rows = []
    for c12, fam in zip(c12s, families):
        a_th = threshold_alpha(fam, tol)
        rows.append((c12, a_th, fam.f1(a_th)))
    ties = []
    for col, name in ((1, "alpha_th"), (2, "r1_th")):
        for i, (a, b) in enumerate(zip(rows, rows[1:])):
            if b[col] < a[col]:
                continue
            if abs(b[1] - a[1]) > tol.abs_tol or admitted[i] == admitted[i + 1]:
                raise MonotonicityError(f"{name} is not strictly decreasing along the c12 grid")
            ties.append(i)
    if ties:
        i = min(ties)
        raise ValueError(
            f"the thresholds at c12 = {rows[i][0]} and c12 = {rows[i + 1][0]} tie within "
            f"the bisection width {tol.abs_tol}: the grid is finer than the solver resolves"
        )
    return rows


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# Frontier writers format whole columns a block of rows at a time, which
# bounds the Python floats and strings alive at once on long oracle frontiers.
# "%.12g" % x is the same text as _fmt(x), and faster.
_BLOCK_ROWS = 4096
# two values with one 12-digit text lie within 1e-11 of the larger magnitude
_NEAR_TEXT = 2e-11
_CSV_ROW = "%.12g,%.12g,%.12g,%s\n"
_JSON_POINT = (
    '    {\n      "alpha": %s,\n      "r1": %s,\n      "r2": %s,\n      "segment": %s\n    }'
)
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _row_blocks(boundary: RateRegionBoundary):
    """(alpha, r1, r2, segment) slices of at most _BLOCK_ROWS rows, in order,
    without each row whose r1 has the 12-digit text of the row before it, so
    the file reads back; a run's first row has its largest r2.  Only
    neighbours within _NEAR_TEXT of each other are formatted to decide."""
    r1 = boundary.r1
    near = np.flatnonzero(np.diff(r1) <= _NEAR_TEXT * np.maximum(abs(r1[:-1]), abs(r1[1:])))
    drop = [i + 1 for i in near.tolist() if "%.12g" % r1[i] == "%.12g" % r1[i + 1]]
    columns = [np.delete(c, drop) for c in (boundary.alpha, r1, boundary.r2, boundary.segment)]
    for start in range(0, columns[1].size, _BLOCK_ROWS):
        yield tuple(c[start:start + _BLOCK_ROWS] for c in columns)


def boundary_to_csv(boundary: RateRegionBoundary) -> str:
    """CSV frontier export: header alpha,r1,r2,segment, LF endings, 12 digits,
    one row per 12-digit r1 text (see _row_blocks)."""
    parts = ["alpha,r1,r2,segment\n"]
    for alpha, r1, r2, seg in _row_blocks(boundary):
        rows = zip(alpha.tolist(), r1.tolist(), r2.tolist(), seg.tolist())
        parts.append("".join([_CSV_ROW % row for row in rows]))
    return "".join(parts)


def _boundary_from_points(points) -> RateRegionBoundary:
    """The frontier through ``points``, a list of mappings from alpha, r1 and r2
    to numbers and from segment to a label, as read from a frontier file.
    Anything else, an empty list or an unknown segment label included, is a
    ValueError."""
    try:
        alpha, r1, r2 = (np.array([float(p[k]) for p in points]) for k in ("alpha", "r1", "r2"))
        segment = np.array([str(p["segment"]) for p in points])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            "every frontier point needs a numeric alpha, r1 and r2 and a segment"
        ) from None
    unknown = set(segment.tolist()) - {SEGMENT_PROVEN, SEGMENT_CONJECTURED}
    if unknown:
        raise ValueError(
            f"unknown frontier segment label {sorted(unknown)[0]!r}; expected "
            f"{SEGMENT_PROVEN!r} or {SEGMENT_CONJECTURED!r}"
        )
    return RateRegionBoundary(r1, r2, alpha, segment)


def boundary_from_csv(text: str) -> RateRegionBoundary:
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0] if lines else ""
    if header != "alpha,r1,r2,segment":
        raise ValueError(f"unexpected frontier CSV header: {header!r}")
    fields = header.split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows, start=1):
        if len(row) != len(fields):
            raise ValueError(f"frontier CSV row {i} has {len(row)} fields, expected {len(fields)}")
    return _boundary_from_points([dict(zip(fields, row)) for row in rows])


def _json_numbers(column: np.ndarray) -> list[str]:
    """What ``json.dumps`` writes for each value of the column rounded to 12 digits."""
    text = [str(float("%.12g" % v)) for v in column.tolist()]
    if not np.isfinite(column).all():
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    return text


def boundary_to_json(boundary: RateRegionBoundary) -> str:
    """JSON frontier export: the text of ``json.dumps({"points": [...]}, indent=2)``
    with each point's alpha, r1 and r2 rounded to 12 digits, one point per
    12-digit r1 text (see _row_blocks)."""
    blocks = []
    for alpha, r1, r2, seg in _row_blocks(boundary):
        seg = seg.tolist()
        quoted = {s: json.dumps(s) for s in set(seg)}
        rows = zip(_json_numbers(alpha), _json_numbers(r1), _json_numbers(r2), seg)
        blocks.append(",\n".join([_JSON_POINT % (a, x, y, quoted[s]) for a, x, y, s in rows]))
    return '{\n  "points": [\n' + ",\n".join(blocks) + "\n  ]\n}\n"


def boundary_from_json(text: str) -> RateRegionBoundary:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ValueError('a frontier JSON file must be an object with a "points" list')
    return _boundary_from_points(doc["points"])


def thresholds_to_csv(rows: list[tuple[float, float, float]], c1: float) -> str:
    """CSV threshold-sweep export with the diamond-point r2 column."""
    lines = ["c12,alpha_th,r1_th,r2_at_th"]
    for c12, a_th, r1_th in rows:
        lines.append(f"{_fmt(c12)},{_fmt(a_th)},{_fmt(r1_th)},{_fmt(c1 - r1_th)}")
    return "\n".join(lines) + "\n"
