"""Closed forms for the scalar Gaussian broadcast pair with receiver cooperation.

User k observes sqrt(s_k)*X + Z_k with unit-variance noise.  The bounds need
user 1 to be the stronger receiver, s1 > s2, which ``check_c12`` checks as
C2 < C1; the simulator runs any pair of positive SNRs.  The boundary family
is parameterized by the share of input power carried by the private layer:
f1(a) = cap(a*s1), f2(a) = C2 + c12 - cap(a*s2) on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import DEFAULT_TOL, LogBase, Tolerance, gaussian_cap, gaussian_cap_inv
from .regions import ParametricFamily, check_c12

_SLACK = 1e-9


@dataclass(frozen=True)
class GaussianBC:
    """SNR pair of the two marginal channels, each finite and positive."""

    s1: float
    s2: float

    def __post_init__(self):
        if not all(math.isfinite(s) and s > 0 for s in (self.s1, self.s2)):
            raise ValueError(f"SNRs must be finite and positive, got s1={self.s1}, s2={self.s2}")

    def cap1(self, base: LogBase = LogBase.BITS) -> float:
        return gaussian_cap(self.s1, base)

    def cap2(self, base: LogBase = LogBase.BITS) -> float:
        return gaussian_cap(self.s2, base)

    def family(self, c12: float, base: LogBase = LogBase.BITS) -> ParametricFamily:
        return gaussian_family(self, c12, base)

    def threshold(
        self, c12: float, base: LogBase = LogBase.BITS, tol: Tolerance = DEFAULT_TOL
    ) -> float:
        """Threshold power split; closed-form, so ``tol`` is not used."""
        return alpha_th_closed(self, c12, base)


def gaussian_family(
    bc: GaussianBC, c12: float, base: LogBase = LogBase.BITS
) -> ParametricFamily:
    """The power-split boundary family for this SNR pair and cooperation rate."""
    c1, c2 = check_c12(bc, c12, base)
    return ParametricFamily(
        b=1.0,
        f1=lambda a: gaussian_cap(a * bc.s1, base),
        f2=lambda a: c2 + c12 - gaussian_cap(a * bc.s2, base),
        c1=c1,
        c2=c2,
        c12=max(c12, 0.0),
    )


def alpha_th_closed(bc: GaussianBC, c12: float, base: LogBase = LogBase.BITS) -> float:
    """Threshold power split in closed form: ((s1-s2)/capinv(C1-C2-C12) - s2)^-1.

    At C12 = C1 - C2 the inner expression blows up and the limit value 0 is
    returned directly.
    """
    c1, c2 = check_c12(bc, c12, base)
    delta = max(c1 - c2 - c12, 0.0)
    snr = gaussian_cap_inv(delta, base)
    if snr <= 0.0:
        return 0.0
    return 1.0 / ((bc.s1 - bc.s2) / snr - bc.s2)


def r1_th_closed(bc: GaussianBC, c12: float, base: LogBase = LogBase.BITS) -> float:
    """Threshold rate for user 1: cap at the threshold split times s1."""
    return gaussian_cap(alpha_th_closed(bc, c12, base) * bc.s1, base)


def r2star_closed(
    bc: GaussianBC,
    c12: float,
    r1: float,
    base: LogBase = LogBase.BITS,
) -> float:
    """Best r2 at rate r1 in closed form: C2 + C12 - cap(capinv(r1) * s2/s1).

    Valid for r1 up to the threshold rate; beyond it the curve is not a
    proven boundary and the call is rejected.
    """
    c1, c2 = check_c12(bc, c12, base)
    r1_th = r1_th_closed(bc, c12, base)
    if not -_SLACK <= r1 <= r1_th + _SLACK:
        raise ValueError(f"r1 must lie in [0, {r1_th}], got {r1}")
    r1 = max(r1, 0.0)
    return c2 + c12 - gaussian_cap(gaussian_cap_inv(r1, base) * bc.s2 / bc.s1, base)
