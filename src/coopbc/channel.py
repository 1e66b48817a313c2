"""Discrete memoryless channels, mutual information, capacity, and channel ordering.

Channels are row-stochastic matrices over finite alphabets.  All mutual
informations are computed in nats internally and converted to the requested
base on the way out.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import DEFAULT_TOL, IterationLimitError, LogBase, Tolerance

_ROW_SUM_TOL = 1e-12


def _xlogx(a: np.ndarray) -> np.ndarray:
    """Elementwise a*ln(a) with 0*ln(0) = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0.0, a * np.log(a), 0.0)


def _json_fields(d, what: str, arrays: tuple, sizes: tuple) -> list:
    """The float arrays under ``arrays`` and the values under ``sizes`` of a
    decoded JSON object that describes ``what``."""
    try:
        return [np.asarray(d[k], dtype=np.float64) for k in arrays] + [d[k] for k in sizes]
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"{what} must be a JSON object with numeric {', '.join(arrays + sizes)}"
        ) from None


def _validate_stochastic(mat, what: str, ndim: int = 2) -> np.ndarray:
    """``mat`` as a read-only float array, clipped to [0, 1], once it is a
    row-stochastic matrix (or, with ``ndim=1``, a probability vector, checked
    as one row).  The package checks every probability law here."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != ndim:
        shape = "vector" if ndim == 1 else "2-D matrix"
        raise ValueError(f"{what} must be a {shape}, got shape {mat.shape}")
    # written so that a NaN entry fails every check
    if not np.all((mat >= -_ROW_SUM_TOL) & (mat <= 1.0 + _ROW_SUM_TOL)):
        raise ValueError(f"{what} entries must lie in [0, 1]")
    rowsums = np.atleast_2d(mat).sum(axis=1)
    if not np.all(np.abs(rowsums - 1.0) <= _ROW_SUM_TOL):
        rows = "" if ndim == 1 else " rows"
        raise ValueError(f"{what}{rows} must sum to 1 within {_ROW_SUM_TOL}")
    mat = np.clip(mat, 0.0, 1.0)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic transition matrix from a finite input to a finite output."""

    transitions: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", _validate_stochastic(self.transitions, "transition matrix")
        )

    @property
    def input_size(self) -> int:
        return self.transitions.shape[0]

    @property
    def output_size(self) -> int:
        return self.transitions.shape[1]

    def as_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "output_size": self.output_size,
            "rows": [[float(v) for v in row] for row in self.transitions],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteChannel":
        rows, input_size, output_size = _json_fields(
            d, "a channel", ("rows",), ("input_size", "output_size")
        )
        ch = cls(rows)
        if ch.input_size != input_size or ch.output_size != output_size:
            raise ValueError("declared sizes do not match the row matrix")
        return ch

    @classmethod
    def from_json(cls, s: str) -> "DiscreteChannel":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class ChannelPair:
    """The two marginal channels of a broadcast setup, sharing one input alphabet."""

    ch1: DiscreteChannel
    ch2: DiscreteChannel

    def __post_init__(self):
        if self.ch1.input_size != self.ch2.input_size:
            raise ValueError(
                f"input alphabets differ: {self.ch1.input_size} vs {self.ch2.input_size}"
            )

    @property
    def input_size(self) -> int:
        return self.ch1.input_size


@dataclass(frozen=True)
class InputDistribution:
    """Probability vector over the channel input alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = _validate_stochastic(self.probs, "input distribution", ndim=1)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class AuxiliaryJoint:
    """A joint law (P_U, P_{X|U}) for an auxiliary variable over the channel input."""

    p_u: np.ndarray
    p_x_given_u: np.ndarray

    def __post_init__(self):
        pu = _validate_stochastic(self.p_u, "probability vector p_u", ndim=1)
        object.__setattr__(self, "p_u", pu)
        pxu = _validate_stochastic(self.p_x_given_u, "p_x_given_u")
        if pxu.shape[0] != pu.shape[0]:
            raise ValueError("p_x_given_u must have one row per value of U")
        object.__setattr__(self, "p_x_given_u", pxu)

    @property
    def u_size(self) -> int:
        return self.p_u.shape[0]

    @property
    def x_size(self) -> int:
        return self.p_x_given_u.shape[1]

    def as_dict(self) -> dict:
        return {
            "u_size": self.u_size,
            "p_u": [float(v) for v in self.p_u],
            "p_x_given_u": [[float(v) for v in row] for row in self.p_x_given_u],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AuxiliaryJoint":
        p_u, p_x_given_u, u_size = _json_fields(
            d, "an auxiliary joint", ("p_u", "p_x_given_u"), ("u_size",)
        )
        joint = cls(p_u, p_x_given_u)
        if joint.u_size != u_size:
            raise ValueError("declared u_size does not match p_u")
        return joint


def make_bsc(p: float) -> DiscreteChannel:
    """Binary symmetric channel with crossover probability p in [0, 1/2]."""
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"BSC crossover must lie in [0, 1/2], got {p}")
    return DiscreteChannel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def make_bec(tau: float) -> DiscreteChannel:
    """Binary erasure channel; outputs are ordered (0, 1, erasure)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {tau}")
    return DiscreteChannel(np.array([[1.0 - tau, 0.0, tau], [0.0, 1.0 - tau, tau]]))


def _mi_batch_nats(pxs: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """I(X;Y) in nats for a batch of input rows against one channel matrix."""
    pys = pxs @ transitions
    h_y = -_xlogx(pys).sum(axis=1)
    h_y_given_x = pxs @ (-_xlogx(transitions).sum(axis=1))
    return np.maximum(h_y - h_y_given_x, 0.0)


def mutual_information(px, ch: DiscreteChannel, base: LogBase = LogBase.BITS) -> float:
    """I(X;Y) between the given input law (an ``InputDistribution`` or a
    probability vector) and the channel output."""
    p = (px if isinstance(px, InputDistribution) else InputDistribution(px)).probs
    if p.shape != (ch.input_size,):
        raise ValueError(
            f"input distribution must have length {ch.input_size}, got shape {p.shape}"
        )
    i_nats = float(_mi_batch_nats(p[None, :], ch.transitions)[0])
    return i_nats / base.ln_scale


def capacity(
    ch: DiscreteChannel,
    tol: Tolerance = Tolerance(abs_tol=DEFAULT_TOL.abs_tol, max_iters=10_000),
    base: LogBase = LogBase.BITS,
) -> tuple[float, InputDistribution]:
    """Channel capacity by Blahut-Arimoto fixed-point iteration.

    Each pass computes the per-input divergences d_x = D(P(.|x) || p_Y); their
    input-weighted mean is an achievable rate and their maximum an upper
    bound on capacity, so iteration stops once max - mean <= tol.abs_tol
    (a certified two-sided gap).  Returns the achieved rate and the input
    law that achieves it.

    Convergence is linear, not quadratic, so the default iteration cap is
    much larger than the bisection default.
    """
    transitions = ch.transitions
    n_x = ch.input_size
    r = np.full(n_x, 1.0 / n_x)
    with np.errstate(divide="ignore"):
        log_t = np.where(transitions > 0.0, np.log(transitions), 0.0)
    gap_tol_nats = tol.abs_tol * base.ln_scale
    for _ in range(tol.max_iters):
        py = r @ transitions
        with np.errstate(divide="ignore", invalid="ignore"):
            log_py = np.where(py > 0.0, np.log(py), 0.0)
        d = (np.where(transitions > 0.0, transitions * (log_t - log_py), 0.0)).sum(axis=1)
        lower = float(r @ d)
        upper = float(d.max())
        if upper - lower <= gap_tol_nats:
            return lower / base.ln_scale, InputDistribution(r)
        r = r * np.exp(d - d.max())
        r = r / r.sum()
    raise IterationLimitError(
        f"capacity iteration gap did not reach {tol.abs_tol} in {tol.max_iters} passes"
    )


@dataclass(frozen=True)
class MoreCapableVerdict:
    """Outcome of the numerical channel-ordering scan.

    ``holds`` means I(X;Y1) - I(X;Y2) >= -abs_tol at every tested input law.
    When violated, ``witness`` is an input law with a strictly negative gap.
    The scan samples a finite set of inputs, so a ``holds`` verdict is
    numerical evidence, not a proof.
    """

    holds: bool
    min_gap: float
    witness: Optional[InputDistribution]
    note: str = "numerical scan, not a proof"


def _golden_refine(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    """Derivative-free minimizer of f on [lo, hi] (golden-section search)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    x = 0.5 * (a + b)
    return x, f(x)


def composition_count(total: int, parts: int) -> int:
    """How many nonnegative integer vectors of length `parts` sum to `total`."""
    return math.comb(total + parts - 1, parts - 1)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length `parts` summing to `total`, one
    per row of an int64 array, the first coordinate slowest: stars and bars,
    each row's bar positions from ``itertools.combinations`` in its order."""
    slots, bars = total + parts - 1, parts - 1
    count = composition_count(total, parts)
    flat = itertools.chain.from_iterable(itertools.combinations(range(slots), bars))
    at = np.fromiter(flat, dtype=np.int64, count=count * bars).reshape(count, bars)
    return np.diff(at, axis=1, prepend=-1, append=slots) - 1


def _simplex_lattice(k: int, steps: int) -> np.ndarray:
    """All probability vectors of length k with coordinates on a grid of 1/steps,
    one per row in the order of ``_compositions``."""
    return _compositions(steps, k) / steps


def is_more_capable(
    pair: ChannelPair,
    resolution: int = 10_000,
    base: LogBase = LogBase.BITS,
    tol: Tolerance = DEFAULT_TOL,
) -> MoreCapableVerdict:
    """Scan input laws for a violation of the ordering I(X;Y1) >= I(X;Y2).

    Binary inputs are scanned on a uniform grid of ``resolution``+1 points
    over P_X(0), and the grid minimum of the gap is polished with a
    derivative-free local search.  Larger alphabets use a simplex lattice
    (100 points per dimension) plus 10^5 seeded Dirichlet samples.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    n_x = pair.input_size
    t1, t2 = pair.ch1.transitions, pair.ch2.transitions
    if n_x == 2:
        p0 = np.linspace(0.0, 1.0, resolution + 1)
        pxs = np.stack([p0, 1.0 - p0], axis=1)
    else:
        lattice = _simplex_lattice(n_x, 100)
        rng = np.random.default_rng(0)
        pxs = np.vstack([lattice, rng.dirichlet(np.ones(n_x), size=100_000)])

    def gaps(pxs: np.ndarray) -> np.ndarray:
        return _mi_batch_nats(pxs, t1) - _mi_batch_nats(pxs, t2)

    gap = gaps(pxs)
    k = int(np.argmin(gap))
    min_gap = float(gap[k]) / base.ln_scale
    witness_p = pxs[k]

    if n_x == 2:
        # polish around the grid minimum; the gap is smooth in P_X(0)
        def gap_at(p: float) -> float:
            return float(gaps(np.array([[p, 1.0 - p]]))[0])

        h = 1.0 / resolution
        x, fx = _golden_refine(gap_at, max(0.0, p0[k] - h), min(1.0, p0[k] + h))
        if fx / base.ln_scale < min_gap:
            min_gap = fx / base.ln_scale
            witness_p = np.array([x, 1.0 - x])

    if min_gap < -tol.abs_tol:
        return MoreCapableVerdict(False, min_gap, InputDistribution(witness_p))
    return MoreCapableVerdict(True, min_gap, None)


def conditional_informations(
    joint: AuxiliaryJoint, pair: ChannelPair, base: LogBase = LogBase.BITS
) -> tuple[float, float, float]:
    """The triple (I(X;Y1|U), I(U;Y2), I(X;Y1)) induced by an auxiliary joint.

    I(X;Y1|U) averages the per-U mutual informations; I(U;Y2) treats the
    composition P_{X|U} followed by channel 2 as a channel from U; I(X;Y1)
    uses the induced marginal P_X.
    """
    if joint.x_size != pair.input_size:
        raise ValueError(
            f"joint X alphabet ({joint.x_size}) does not match channels ({pair.input_size})"
        )
    scale = base.ln_scale
    i_x_y1_given_u = float(joint.p_u @ _mi_batch_nats(joint.p_x_given_u, pair.ch1.transitions))
    u_to_y2 = joint.p_x_given_u @ pair.ch2.transitions
    i_u_y2 = float(_mi_batch_nats(joint.p_u[None, :], u_to_y2)[0])
    px = joint.p_u @ joint.p_x_given_u
    i_x_y1 = float(_mi_batch_nats(px[None, :], pair.ch1.transitions)[0])
    return i_x_y1_given_u / scale, i_u_y2 / scale, i_x_y1 / scale
