"""Erasure-to-strong / symmetric-to-weak binary broadcast pair.

User 1 sees a BEC(tau1), user 2 a BSC(p2).  The bounds need the pair to be
more capable, tau1 <= H_b(p2) (Nair 2010), and ``check_c12`` requires the
strict form through C2 < C1; ``coopbc check-mc`` scans any pair for the
ordering, and the simulator runs any pair.  The boundary family is
parameterized by the crossover q of the symmetric satellite layer:
f1(q) = (1-tau1)*H_b(q), f2(q) = log2 - H_b(p2*q) + c12 on [0, 1/2]
(* is binary convolution, log2 meaning the value of one bit in the base).
These two are written only in ``becbsc_family``; the closed forms evaluate
the family's f1 and f2 at the threshold crossover or the entropy inverse.
``q_threshold`` solves the paper's own threshold equation,
H_b(p2*q) - (1-tau1)*H_b(q) = C12 + tau1*log2, and is kept as the separate
route that the bisection of f1 + f2 = C1 is checked against.

A caution on parameter ranges: the family contract additionally needs f1+f2
strictly increasing, which near q = 1/2 amounts to 1 - tau1 > (1 - 2*p2)**2,
i.e. tau1 < 4*p2*(1-p2).  That bound is NOT implied by tau1 < H_b(p2), so a
small sliver of ordered channel pairs is rejected by the family validation
in :mod:`coopbc.regions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair, _validate_stochastic, make_bec, make_bsc
from .numerics import (
    DEFAULT_TOL,
    LogBase,
    Tolerance,
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
    bisect_monotone,
)
from .regions import ParametricFamily, check_c12, check_r1


@dataclass(frozen=True)
class BecBscBC:
    """Erasure probability tau1 in [0, 1] for user 1 and crossover p2 in
    [0, 1/2] for user 2."""

    tau1: float
    p2: float

    def __post_init__(self):
        self.pair()

    def cap1(self, base: LogBase = LogBase.BITS) -> float:
        return (1.0 - self.tau1) * base.one_bit()

    def cap2(self, base: LogBase = LogBase.BITS) -> float:
        return base.one_bit() - binary_entropy(self.p2, base)

    def family(self, c12: float, base: LogBase = LogBase.BITS) -> ParametricFamily:
        return becbsc_family(self, c12, base)

    def threshold(
        self, c12: float, base: LogBase = LogBase.BITS, tol: Tolerance = DEFAULT_TOL
    ) -> float:
        """Threshold crossover, bisected to ``tol``."""
        return q_threshold(self, c12, base, tol)

    def pair(self) -> ChannelPair:
        """The two marginal channels as transition matrices (oracle, ordering scan)."""
        return ChannelPair(make_bec(self.tau1), make_bsc(self.p2))


def becbsc_family(
    bc: BecBscBC, c12: float, base: LogBase = LogBase.BITS
) -> ParametricFamily:
    """The crossover-parameterized boundary family for this channel pair."""
    c1, c2, c12 = check_c12(bc, c12, base)
    one = base.one_bit()
    return ParametricFamily(
        b=0.5,
        f1=lambda q: (1.0 - bc.tau1) * binary_entropy(q, base),
        f2=lambda q: one - binary_entropy(binary_convolution(bc.p2, q), base) + c12,
        c1=c1,
        c2=c2,
        c12=c12,
    )


def q_threshold(
    bc: BecBscBC,
    c12: float,
    base: LogBase = LogBase.BITS,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Threshold crossover: the unique q in [0, 1/2] where the boundary meets
    the sum-rate line.

    Solves H_b(p2*q) - (1-tau1)*H_b(q) = C12 + tau1*log2, whose left side
    falls monotonically from H_b(p2) at q=0 to tau1*log2 at q=1/2; the
    admissible C12 range brackets the target, and boundary targets clamp to
    the exact endpoint.
    """
    c12 = check_c12(bc, c12, base)[2]
    target = c12 + bc.tau1 * base.one_bit()

    def g(q: float) -> float:
        return binary_entropy(binary_convolution(bc.p2, q), base) - (
            1.0 - bc.tau1
        ) * binary_entropy(q, base)

    return bisect_monotone(g, 0.0, 0.5, target, "decreasing", tol)


def r1_th(
    bc: BecBscBC,
    c12: float,
    base: LogBase = LogBase.BITS,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Threshold rate for user 1: f1 at the threshold crossover."""
    return becbsc_family(bc, c12, base).f1(q_threshold(bc, c12, base, tol))


def r2star_closed(
    bc: BecBscBC,
    c12: float,
    r1: float,
    base: LogBase = LogBase.BITS,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Best r2 at rate r1: f2 at the crossover Hinv(r1/(1-tau1)).

    The entropy inverse reuses the shared bisection so this closed form and
    the parametric route round identically.  Valid up to the threshold rate.
    """
    fam = becbsc_family(bc, c12, base)
    r1 = check_r1(r1, fam.f1(q_threshold(bc, c12, base, tol)))
    return fam.f2(binary_entropy_inv(r1 / (1.0 - bc.tau1), base, tol))


def mgl_gap(
    p_u, p_x_given_u, p2: float, base: LogBase = LogBase.BITS
) -> float | np.ndarray:
    """Slack in the binary-convolution entropy bound for a BSC(p2) stage.

    For binary X with conditional law P_{X|U} and Y2 the BSC(p2) output,
    returns H(Y2|U) - H_b(Hinv(H(X|U)) * p2), which is nonnegative: the
    mixture over U can only add output entropy relative to a single
    Bernoulli input with the same conditional entropy.  Zero when every
    conditional P_{X|U=u} has the same entropy.

    One joint (``p_u`` of shape (m,), ``p_x_given_u`` of shape (m, 2))
    gives a float.  A batch stacks joints on a first axis (shapes (J, m) and
    (J, m, 2)) and gives J slacks; a joint with fewer U values pads its P_U
    with zeros, and its rows with any law.

    The entropy inversion runs at 1e-14 bracket width; the looser default
    would leak solver noise of a few 1e-12 into a quantity whose sign is
    the whole point.
    """
    make_bsc(p2)
    p_u = np.asarray(p_u, dtype=np.float64)
    rows = np.asarray(p_x_given_u, dtype=np.float64)
    single = p_u.ndim == 1
    pu = _validate_stochastic(p_u, "probability vector p_u", ndim=1 if single else 2)
    if rows.shape[:-1] != pu.shape:
        raise ValueError("p_x_given_u must have one row per value of U")
    if rows.shape[-1] != 2:
        raise ValueError(f"X must be binary: p_x_given_u shape {rows.shape}")
    pu = np.atleast_2d(pu)
    x1 = _validate_stochastic(rows.reshape(-1, 2), "p_x_given_u")[:, 1].reshape(pu.shape)
    h_x_given_u = np.einsum("ju,ju->j", pu, binary_entropy(x1, base))
    h_y_given_u = np.einsum("ju,ju->j", pu, binary_entropy(binary_convolution(x1, p2), base))
    q = binary_entropy_inv(h_x_given_u, base, Tolerance(abs_tol=1e-14, max_iters=200))
    gap = h_y_given_u - binary_entropy(binary_convolution(q, p2), base)
    return float(gap[0]) if single else gap
