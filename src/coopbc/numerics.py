"""Entropy/capacity functions and a monotone bisection solver.

Everything in this module is a pure function of its arguments.  Rate-valued
quantities are expressed in a caller-chosen logarithm base (bits by default);
a single computation should stick to one base throughout.

``binary_entropy``, ``binary_entropy_inv``, ``binary_convolution``,
``gaussian_cap`` and the target of ``bisect_monotone`` take either a Python
float or an ndarray.  A float runs on ``math`` (numpy costs over ten times as
much per scalar call, and bisection makes thousands of them); an array runs
through numpy ufuncs, and ``bisect_monotone`` halves the brackets of every
target at once, one call of its function per step.  ``binary_entropy_inv``
is one ``bisect_monotone`` call for either kind.  The two kinds agree to
within a few ulp: ``np.log2`` and ``math.log2`` can differ in the last bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np


class LogBase(Enum):
    """Logarithm base shared by every entropy, capacity, and rate in a run."""

    BITS = "bits"
    NATS = "nats"

    def log(self, x: float) -> float:
        return math.log2(x) if self is _BITS else math.log(x)

    @property
    def log_ufunc(self) -> np.ufunc:
        """The numpy counterpart of :meth:`log`, for arrays."""
        return np.log2 if self is _BITS else np.log

    def power(self, y: float) -> float:
        """Inverse of :meth:`log`, i.e. base**y."""
        return 2.0 ** y if self is _BITS else math.exp(y)

    def one_bit(self) -> float:
        """The value of one bit in this base (the log of 2)."""
        return 1.0 if self is _BITS else math.log(2.0)

    @property
    def ln_scale(self) -> float:
        """Divide a natural-log quantity by this to convert into the base."""
        return math.log(2.0) if self is _BITS else 1.0


# The methods above compare with this alias: on Python 3.11 every
# ``LogBase.BITS`` lookup goes through an enum descriptor and costs about
# three times a math.log2 call, and bisection calls ``log`` thousands of times.
_BITS = LogBase.BITS


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance and iteration cap for iterative solvers."""

    abs_tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


DEFAULT_TOL = Tolerance()


class BracketError(ValueError):
    """The target value is not enclosed by the function values at the bracket ends."""


class IterationLimitError(ValueError):
    """An iterative solver exhausted its iteration budget before converging:
    the tolerance asked for is out of its reach."""


class BudgetExceededError(ValueError):
    """A grid scan or a codebook would exceed its configured work budget."""


# Most worker threads simulate and oracle_both accept: each is one OS thread,
# and a wider pool only asks the OS for threads that no core can run.
MAX_THREADS = 256


def check_threads(threads: int) -> None:
    """Refuse a worker count below 1 or above MAX_THREADS, before any pool starts."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads > MAX_THREADS:
        raise ValueError(f"threads must be <= {MAX_THREADS}, got {threads}")


def map_in_order(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(item) for every item, in order, on ``threads`` worker threads.  At one
    thread it is plain ``map`` and the pool starts no thread, so every call
    stays in the calling thread, as a tracer keeping one span stack needs."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from (pool.map if threads > 1 else map)(fn, items)


def _check_probabilities(p) -> None:
    p = np.asarray(p)
    bad = ~((p >= 0.0) & (p <= 1.0))  # NaN is bad too
    if bad.any():
        raise ValueError(f"probability must lie in [0, 1], got {p[bad].flat[0]}")


def binary_entropy(p, base: LogBase = LogBase.BITS):
    """Entropy of a Bernoulli(p) source, with 0*log(0) taken as 0.

    ``p`` is a float or an ndarray; an array is evaluated elementwise with
    the same operations in the same order as a float, on numpy's log.
    """
    if type(p) is not float and isinstance(p, np.ndarray):
        _check_probabilities(p)
        log = base.log_ufunc
        q = 1.0 - p
        # log only where the term is kept; a skipped term contributes 0.0
        t1 = p * log(p, out=np.zeros(p.shape), where=p > 0.0)
        t2 = q * log(q, out=np.zeros(p.shape), where=p < 1.0)
        return (0.0 - t1) - t2
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    h = 0.0
    if p > 0.0:
        h -= p * base.log(p)
    if p < 1.0:
        h -= (1.0 - p) * base.log(1.0 - p)
    return h


def binary_entropy_inv(
    h, base: LogBase = LogBase.BITS, tol: Tolerance = DEFAULT_TOL
):
    """The unique q in [0, 1/2] with binary_entropy(q) == h, by bisection.

    Accepts h up to 1e-9 outside [0, log 2] to absorb floating dust from
    upstream entropy arithmetic; anything further out is a domain error.
    ``h`` is a float or an ndarray; either is checked and clamped as an
    array and goes to one ``bisect_monotone`` call.
    """
    top = base.one_bit()
    values = np.asarray(h)
    bad = ~((values >= -1e-9) & (values <= top + 1e-9))  # NaN is bad too
    if bad.any():
        raise ValueError(
            f"entropy value must lie in [0, {top}] and not be NaN, got {values[bad].flat[0]}"
        )
    return bisect_monotone(
        lambda q: binary_entropy(q, base), 0.0, 0.5, np.clip(h, 0.0, top), "increasing", tol
    )


def binary_convolution(p, q):
    """Crossover probability of two cascaded symmetric binary flips (floats or ndarrays)."""
    if type(p) is float and type(q) is float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {q}")
    else:
        _check_probabilities(p)
        _check_probabilities(q)
    return p * (1.0 - q) + (1.0 - p) * q


def gaussian_cap(x, base: LogBase = LogBase.BITS):
    """Point-to-point AWGN capacity log(1 + x)/2 at SNR x (a float or an ndarray).

    A NaN, infinite or negative SNR is a ValueError.
    """
    if type(x) is not float and isinstance(x, np.ndarray):
        bad = ~((x >= 0.0) & (x < math.inf))  # NaN is bad too
        if bad.any():
            raise ValueError(f"SNR must be finite and nonnegative, got {x[bad].flat[0]}")
        return 0.5 * base.log_ufunc(1.0 + x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"SNR must be finite and nonnegative, got {x}")
    return 0.5 * base.log(1.0 + x)


def gaussian_cap_inv(c: float, base: LogBase = LogBase.BITS) -> float:
    """SNR achieving AWGN capacity c: base**(2c) - 1, exact inverse of gaussian_cap.

    A NaN, infinite or negative capacity is a ValueError, and so is one whose
    SNR is beyond the largest float.
    """
    c = float(c)  # numpy's power would warn on overflow rather than raise
    if not 0.0 <= c < math.inf:
        raise ValueError(f"capacity must be finite and nonnegative, got {c}")
    try:
        snr = base.power(2.0 * c) - 1.0
    except OverflowError:
        snr = math.inf
    if snr == math.inf:  # 2c itself may overflow to inf, which power passes through
        raise ValueError(f"capacity {c} needs an SNR beyond the largest float")
    return snr


def bisect_monotone(
    f: Callable,
    lo: float,
    hi: float,
    target,
    direction: str = "increasing",
    tol: Tolerance = DEFAULT_TOL,
):
    """Solve f(x) = target on [lo, hi] for a monotone f by bisection.

    The bracket is halved until its width falls below ``tol.abs_tol``, which
    keeps the returned point's position (not just its residual) pinned; this
    matters when two different algebraic routes to the same root are compared.
    Targets within ``tol.abs_tol`` of an endpoint value clamp to that
    endpoint (``lo`` where both apply): near a flat endpoint the root is too
    ill-conditioned for sign-based halving to do better, and exact analytic
    boundary cases come back exact.

    ``target`` is a float or an ndarray.  A float runs on Python floats.  An
    array runs one bisection over every target with the same rules: ``f``
    must then take an ndarray of midpoints (``f(lo)`` and ``f(hi)`` stay
    scalar calls), and every bracket halves from [lo, hi] on each pass until
    the widest one is within ``tol.abs_tol``, so each target gets the float
    path's answer up to the rounding differences between f's two forms.

    Raises ValueError for a NaN target or a NaN value of f at lo, hi or any
    midpoint, BracketError when a target is not between f(lo) and f(hi), and
    IterationLimitError if the brackets cannot be narrowed within
    ``tol.max_iters`` halvings.
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    array = type(target) is not float and isinstance(target, np.ndarray)
    if np.isnan(target).any() if array else math.isnan(target):
        raise ValueError("bisection target is NaN")
    sign = 1.0 if direction == "increasing" else -1.0
    f_lo = sign * f(lo)
    f_hi = sign * f(hi)
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise ValueError(f"f is NaN at an endpoint of [{lo}, {hi}]")
    t = sign * target
    outside = (t < f_lo - tol.abs_tol) | (t > f_hi + tol.abs_tol)
    if outside.any() if array else outside:
        bad = target[outside].flat[0] if array else target
        raise BracketError(
            f"target {bad} not enclosed: f({lo})={sign * f_lo}, f({hi})={sign * f_hi}"
        )
    at_lo = t <= f_lo + tol.abs_tol
    at_hi = t >= f_hi - tol.abs_tol
    if not array:
        if at_lo:
            return lo
        if at_hi:
            return hi
        a, b = lo, hi
        for _ in range(tol.max_iters):
            mid = 0.5 * (a + b)
            value = sign * f(mid)
            if math.isnan(value):
                raise ValueError(f"f is NaN at {mid}")
            if value < t:
                a = mid
            else:
                b = mid
            if b - a <= tol.abs_tol:
                return 0.5 * (a + b)
    else:
        a, b = np.full(t.shape, float(lo)), np.full(t.shape, float(hi))
        for _ in range(tol.max_iters):
            mid = 0.5 * (a + b)
            value = sign * f(mid)
            nan = np.isnan(value)
            if nan.any():
                raise ValueError(f"f is NaN at {mid[nan].flat[0]}")
            below = value < t
            a, b = np.where(below, mid, a), np.where(below, b, mid)
            if np.max(b - a, initial=0.0) <= tol.abs_tol:
                return np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a + b)))
    raise IterationLimitError(
        f"bisection did not reach width {tol.abs_tol} in {tol.max_iters} iterations"
    )
