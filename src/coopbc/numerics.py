"""Entropy/capacity functions and a monotone bisection solver.

Everything in this module is a pure function of its arguments.  Rate-valued
quantities are expressed in a caller-chosen logarithm base (bits by default);
a single computation should stick to one base throughout.

``binary_entropy``, ``binary_entropy_inv``, ``binary_convolution`` and
``gaussian_cap`` take either a Python float or an ndarray.  A float runs on
``math`` (numpy costs over ten times as much per scalar call, and bisection
makes thousands of them); an array runs through numpy ufuncs, with one call
per bisection step for every target at once.  The two agree to within a few
ulp: ``np.log2`` and ``math.log2`` can differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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
    ``h`` is a float or an ndarray.  An array runs one bisection over every
    target with the steps of ``bisect_monotone``: each bracket starts as
    [0, 1/2] and halves exactly, so all of them reach ``tol`` on the same
    pass, and each target gets the float path's answer up to the few-ulp
    difference of numpy's log.
    """
    top = base.one_bit()
    if type(h) is not float and isinstance(h, np.ndarray):
        bad = ~((h >= -1e-9) & (h <= top + 1e-9))  # NaN is bad too
        if bad.any():
            raise ValueError(f"entropy value must lie in [0, {top}], got {h[bad].flat[0]}")
        h = np.clip(h, 0.0, top)
        lo, hi = np.zeros(h.shape), np.full(h.shape, 0.5)
        for _ in range(tol.max_iters):
            mid = 0.5 * (lo + hi)
            below = binary_entropy(mid, base) < h
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            if np.max(hi - lo, initial=0.0) <= tol.abs_tol:
                q = 0.5 * (lo + hi)
                # targets within tol of an endpoint value clamp to it, as in bisect_monotone
                q[h >= binary_entropy(0.5, base) - tol.abs_tol] = 0.5
                q[h <= binary_entropy(0.0, base) + tol.abs_tol] = 0.0
                return q
        raise IterationLimitError(
            f"bisection did not reach width {tol.abs_tol} in {tol.max_iters} iterations"
        )
    if h < -1e-9 or h > top + 1e-9:
        raise ValueError(f"entropy value must lie in [0, {top}], got {h}")
    h = min(max(h, 0.0), top)
    return bisect_monotone(
        lambda q: binary_entropy(q, base), 0.0, 0.5, h, "increasing", tol
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
    """Point-to-point AWGN capacity log(1 + x)/2 at SNR x (a float or an ndarray)."""
    if type(x) is not float and isinstance(x, np.ndarray):
        if np.any(x < 0.0):
            raise ValueError(f"SNR must be nonnegative, got {x[x < 0.0].flat[0]}")
        return 0.5 * base.log_ufunc(1.0 + x)
    if x < 0.0:
        raise ValueError(f"SNR must be nonnegative, got {x}")
    return 0.5 * base.log(1.0 + x)


def gaussian_cap_inv(c: float, base: LogBase = LogBase.BITS) -> float:
    """SNR achieving AWGN capacity c: base**(2c) - 1, exact inverse of gaussian_cap."""
    if c < 0.0:
        raise ValueError(f"capacity must be nonnegative, got {c}")
    return base.power(2.0 * c) - 1.0


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    direction: str = "increasing",
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Solve f(x) = target on [lo, hi] for a monotone f by bisection.

    The bracket is halved until its width falls below ``tol.abs_tol``, which
    keeps the returned point's position (not just its residual) pinned; this
    matters when two different algebraic routes to the same root are compared.
    Targets within ``tol.abs_tol`` of an endpoint value clamp to that
    endpoint: near a flat endpoint the root is too ill-conditioned for
    sign-based halving to do better, and exact analytic boundary cases come
    back exact.

    Raises ValueError for a NaN target, BracketError when the target is not
    between f(lo) and f(hi), and IterationLimitError if the bracket cannot
    be narrowed within ``tol.max_iters`` halvings.
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if math.isnan(target):
        raise ValueError("bisection target is NaN")
    sign = 1.0 if direction == "increasing" else -1.0
    f_lo = sign * f(lo)
    f_hi = sign * f(hi)
    t = sign * target
    if t < f_lo - tol.abs_tol or t > f_hi + tol.abs_tol:
        raise BracketError(
            f"target {target} not enclosed: f({lo})={sign * f_lo}, f({hi})={sign * f_hi}"
        )
    if t <= f_lo + tol.abs_tol:
        return lo
    if t >= f_hi - tol.abs_tol:
        return hi
    a, b = lo, hi
    for _ in range(tol.max_iters):
        mid = 0.5 * (a + b)
        if sign * f(mid) < t:
            a = mid
        else:
            b = mid
        if b - a <= tol.abs_tol:
            return 0.5 * (a + b)
    raise IterationLimitError(
        f"bisection did not reach width {tol.abs_tol} in {tol.max_iters} iterations"
    )
