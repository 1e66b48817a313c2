"""Closed forms for the scalar Gaussian broadcast pair with receiver cooperation.

User k observes sqrt(s_k)*X + Z_k with unit-variance noise.  The bounds need
user 1 to be the stronger receiver, s1 > s2, which ``check_c12`` checks as
C2 < C1; the simulator runs any pair of positive SNRs.  The boundary family
is parameterized by the share of input power carried by the private layer:
f1(a) = cap(a*s1), f2(a) = C2 + c12 - cap(a*s2) on [0, 1].  These two are
written only in ``gaussian_family``; the closed forms evaluate the family's
f1 and f2 at the closed-form threshold or inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import DEFAULT_TOL, LogBase, Tolerance, gaussian_cap, gaussian_cap_inv
from .regions import ParametricFamily, check_c12, check_r1


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
    c1, c2, c12 = check_c12(bc, c12, base)
    return ParametricFamily(
        b=1.0,
        f1=lambda a: gaussian_cap(a * bc.s1, base),
        f2=lambda a: c2 + c12 - gaussian_cap(a * bc.s2, base),
        c1=c1,
        c2=c2,
        c12=c12,
    )


def alpha_th_closed(bc: GaussianBC, c12: float, base: LogBase = LogBase.BITS) -> float:
    """Threshold power split in closed form: ((s1-s2)/capinv(C1-C2-C12) - s2)^-1.

    With k = base**(-2*C12) that is ((1+s1)k - (1+s2)) / (s1 - s2 k + s1 s2 (1-k)),
    evaluated divided by s1 (no overflow) with k - 1 from expm1, so the
    numerator reads k - s2/s1 + (k-1)/s1: k - 1 formed from a rounded k would be
    magnified by 1/s1 at low SNR.  The first form cancels at high SNR
    (0.99999994 for the exact 1 at GaussianBC(1e9, 1e8), C12 = 0).
    Rounding is clamped into [0, 1]; the limit 0 at C12 = C1 - C2 is returned as is.
    """
    c1, c2, c12 = check_c12(bc, c12, base)
    if c12 >= c1 - c2:
        return 0.0
    log_k = -2.0 * c12 * base.ln_scale
    k, km1, s1, s2 = math.exp(log_k), math.expm1(log_k), bc.s1, bc.s2
    alpha = (k - s2 / s1 + km1 / s1) / (1.0 - s2 / s1 * k - s2 * km1)
    return min(max(alpha, 0.0), 1.0)


def r1_th_closed(bc: GaussianBC, c12: float, base: LogBase = LogBase.BITS) -> float:
    """Threshold rate for user 1: f1 at the closed-form threshold split."""
    return gaussian_family(bc, c12, base).f1(alpha_th_closed(bc, c12, base))


def r2star_closed(
    bc: GaussianBC,
    c12: float,
    r1: float,
    base: LogBase = LogBase.BITS,
) -> float:
    """Best r2 at rate r1 in closed form: f2 at the split capinv(r1)/s1.

    Valid for r1 up to the threshold rate; beyond it the curve is not a
    proven boundary and the call is rejected.
    """
    fam = gaussian_family(bc, c12, base)
    r1 = check_r1(r1, fam.f1(alpha_th_closed(bc, c12, base)))
    return fam.f2(gaussian_cap_inv(r1, base) / bc.s1)
