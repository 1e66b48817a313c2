"""Monte Carlo simulation of layered random coding with a decode-and-forward hop.

The transmitter superimposes a satellite codeword (user 1's message) on a
cloud center (user 2's message).  User 1 decodes both messages by exhaustive
maximum likelihood over the whole codebook and forwards the bin index
m2_hat // bin_size of its estimate of user 2's message over the rate-limited
link; user 2 then decodes by maximum likelihood over the cloud centers inside
that bin.

Everything is deterministic given the seed: the codebook derives its stream
from (seed, 0), and each trial draws from its own stream (``_streams``), so
reports are reproducible trial-by-trial regardless of batching or thread
count.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import _accel, _streams
from .becbsc import BecBscBC
from .channel import AuxiliaryJoint
from .gaussian import GaussianBC
from .numerics import BudgetExceededError, check_threads, map_in_order


# older names of the two family classes, still built by perfbench/workloads.py
BecBsc = BecBscBC
Gaussian = GaussianBC


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, rate pair, cooperation rate, input law, and seed for one code.

    Message counts round up: nu_k = ceil(2**(n*r_k)), and the cooperation
    link carries one of ceil(2**(n*c12)) bin indices.  Exactly one of
    ``input_law`` (discrete cloud/satellite law) or ``power_split``
    (Gaussian: fraction of unit power given to the satellite layer) must be
    set.  ``codeword_budget`` caps nu1*nu2.
    """

    n: int
    r1: float
    r2: float
    c12: float
    seed: int
    input_law: Optional[AuxiliaryJoint] = None
    power_split: Optional[float] = None
    codeword_budget: int = 65536

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.n}")
        # every exponent below is a float product n*r: refuse a blocklength
        # that no float holds exactly before it meets a rate
        if self.n > 2**53:
            raise ValueError("blocklength must be <= 2**53")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(math.isfinite(r) for r in (self.r1, self.r2, self.c12)):
            raise ValueError("rates must be finite")
        if self.r1 < 0 or self.r2 < 0 or self.c12 < 0:
            raise ValueError("rates must be nonnegative")
        if (self.input_law is None) == (self.power_split is None):
            raise ValueError("set exactly one of input_law or power_split")
        if self.power_split is not None and not 0.0 <= self.power_split <= 1.0:
            raise ValueError(f"power split must lie in [0, 1], got {self.power_split}")
        if self.codeword_budget < 1:
            raise ValueError(f"codeword budget must be >= 1, got {self.codeword_budget}")
        # nu1*nu2 >= 2**(n*(r1+r2)): compare exponents first so that oversize
        # codes never evaluate a power that overflows a float; the slack only
        # absorbs rounding in n*(r1+r2), the exact count is checked after it
        log2_size = self.n * (self.r1 + self.r2)
        if log2_size > math.log2(self.codeword_budget) + 1e-9:
            raise BudgetExceededError(
                f"codebook of 2**{log2_size:.6g} codewords exceeds the budget "
                f"of {self.codeword_budget}"
            )
        # a budget past 2**1024 admits codes whose 2.0**(n*r_k) overflows
        log2_nu = self.n * max(self.r1, self.r2)
        if log2_nu >= sys.float_info.max_exp:
            raise BudgetExceededError(f"2**{log2_nu:.6g} messages are past the float range")
        if self.nu1 * self.nu2 > self.codeword_budget:
            raise BudgetExceededError(
                f"codebook of {self.nu1}*{self.nu2} codewords exceeds the budget "
                f"of {self.codeword_budget}"
            )

    @property
    def nu1(self) -> int:
        return math.ceil(2.0 ** (self.n * self.r1))

    @property
    def nu2(self) -> int:
        return math.ceil(2.0 ** (self.n * self.r2))

    @property
    def bin_size(self) -> int:
        """ceil(2**(n*(r2-c12))) messages per bin, 1 when c12 >= r2.  The exponent
        is rounded in floating point: n = 20, r2 = 0.35000000000000003, c12 = 0.1
        give 32 where the exact power is 33.  Both fit the link; exact arithmetic
        would move the SimReports of such codes."""
        return math.ceil(2.0 ** (self.n * max(self.r2 - self.c12, 0.0)))


@dataclass(frozen=True)
class Codebook:
    clouds: np.ndarray      # (nu2, n)
    satellites: np.ndarray  # (nu1, nu2, n)


@dataclass(frozen=True)
class SimReport:
    """Error tallies for one simulated configuration.

    ``user1_joint_errors`` counts trials where user 1's joint decode missed
    its own message; ``user2_errors`` counts trials where user 2's final
    decision missed user 2's message; ``error_events`` counts trials where
    either happened, and ``p_e_estimate`` is that count over trials with a
    normal-approximation 95% half-width.
    """

    trials: int
    user1_joint_errors: int
    user2_errors: int
    error_events: int
    p_e_estimate: float
    p_e_half_width: float

    @staticmethod
    def half_width(k: int, n: int) -> float:
        p = k / n
        return 1.96 * math.sqrt(p * (1.0 - p) / n)

    @property
    def user1_error_rate(self) -> float:
        return self.user1_joint_errors / self.trials

    @property
    def user2_error_rate(self) -> float:
        return self.user2_errors / self.trials

    @property
    def user2_half_width(self) -> float:
        return self.half_width(self.user2_errors, self.trials)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


_MAX_SYMBOLS = np.iinfo(np.int8).max + 1  # codebook symbols are int8


def _codebook_rng(cfg: CodeConfig) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, 0))


def build_superposition_codebook(cfg: CodeConfig) -> Codebook:
    """Draw the layered random codebook for this configuration.

    Discrete: cloud symbols i.i.d. from P_U; each satellite symbol counts the
    CDF thresholds of P_{X|U=u}, all but the last, that its uniform draw
    reaches, u the cloud symbol at its position.  Gaussian: clouds are
    sqrt(1-split) times a standard normal block and satellites add
    sqrt(split) times an independent one, for unit average input power.
    Draw order is clouds first, then satellites.  Discrete symbols are int8,
    so neither alphabet may exceed 128 symbols.
    """
    rng = _codebook_rng(cfg)
    nu1, nu2, n = cfg.nu1, cfg.nu2, cfg.n
    if cfg.input_law is not None:
        law = cfg.input_law
        if max(law.u_size, law.x_size) > _MAX_SYMBOLS:
            raise ValueError(f"input law alphabets are limited to {_MAX_SYMBOLS} symbols, "
                             f"got |U| = {law.u_size} and |X| = {law.x_size}")
        clouds = rng.choice(law.u_size, size=(nu2, n), p=law.p_u).astype(np.int8)
        thresholds = np.cumsum(law.p_x_given_u, axis=1)[clouds, :-1]
        draws = rng.random((nu1, nu2, n))
        satellites = (draws[..., None] >= thresholds).sum(axis=-1, dtype=np.int8)
        return Codebook(clouds, satellites)
    split = cfg.power_split
    clouds = math.sqrt(1.0 - split) * rng.standard_normal((nu2, n))
    satellites = clouds[None, :, :] + math.sqrt(split) * rng.standard_normal((nu1, nu2, n))
    return Codebook(clouds, satellites)


def _bin_ranges(cfg: CodeConfig) -> tuple[np.ndarray, np.ndarray]:
    """First message and message count of each bin; message m lies in bin
    m // bin_size.

    There are ceil(nu2 / bin_size) bins, never more than the ceil(2**(n*c12))
    indices the link carries.  With A = 2**(n*r2) and S = 2**(n*(r2-c12)) this
    is ceil(A) <= ceil(A/S) * ceil(S), true because the right side is an
    integer of at least A; when c12 >= r2 every bin is a singleton and
    nu2 = ceil(A) <= ceil(2**(n*c12)) directly.
    """
    starts = np.arange(0, cfg.nu2, cfg.bin_size, dtype=np.int64)
    return starts, np.minimum(cfg.nu2 - starts, cfg.bin_size)


def _draw_trials_discrete(cfg: CodeConfig, trials: int):
    """Uniform variates that decide each erasure (user 1) and flip (user 2)."""
    return _streams.trial_draws(cfg.seed, trials, cfg.nu1, cfg.nu2, cfg.n, gaussian=False)


def _draw_trials_gaussian(cfg: CodeConfig, trials: int):
    """Unit-variance noise for both receivers."""
    return _streams.trial_draws(cfg.seed, trials, cfg.nu1, cfg.nu2, cfg.n, gaussian=True)


def simulate(
    cfg: CodeConfig,
    channels: BecBscBC | GaussianBC,
    trials: int,
    threads: int = 1,
) -> SimReport:
    """Run the full encode/transmit/decode loop for the given trial count.

    Per trial: pick both messages uniformly, send the corresponding
    satellite codeword through both marginal channels independently, let
    user 1 decode the message pair by exhaustive maximum likelihood, pass
    the bin index of its user-2 estimate over the cooperation link, and let
    user 2 decode over the cloud centers of that bin.  The erasure user 1
    counts mismatches on unerased positions (exact ties, first-index
    tie-break); Gaussian decoding uses squared distance.

    The family is decided once: its input law is checked before the codebook
    is drawn, and after the shared trial draw one branch per family forms
    both received words and binds its two decoders; the decode-and-forward
    loop below is shared.  The channel pair need not be ordered: either
    receiver may be the stronger one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_threads(threads)
    gaussian = isinstance(channels, GaussianBC)
    if not (gaussian or isinstance(channels, BecBscBC)):
        raise ValueError(f"unsupported channel family: {channels!r}")
    if not gaussian and cfg.input_law is None:
        raise ValueError("discrete channels require a discrete input law")
    if not gaussian and cfg.input_law.x_size != 2:
        raise ValueError("the erasure/flip family expects a binary input alphabet")
    if gaussian and cfg.input_law is not None:
        raise ValueError("Gaussian channels require a power-split input law")
    book = build_superposition_codebook(cfg)
    nu2 = cfg.nu2
    sat_flat = book.satellites.reshape(cfg.nu1 * nu2, cfg.n)
    # each receiver's noise, or the uniforms that decide its erasures and flips
    m1, m2, v1, v2 = (_draw_trials_gaussian if gaussian else _draw_trials_discrete)(cfg, trials)
    x = sat_flat[m1 * nu2 + m2]

    # decode1(ys) -> codeword index (m1*nu2 + m2); decode2(ys, *bin ranges,
    # bin of each trial) -> m2
    if gaussian:
        root_s1, root_s2 = math.sqrt(channels.s1), math.sqrt(channels.s2)
        y1 = root_s1 * x + v1
        y2 = root_s2 * x + v2
        decode1 = partial(_accel.decode_sq, sat_flat, root_s1)
        decode2 = partial(_accel.decode_sq_restricted, book.clouds, root_s2)
    else:
        y1 = np.where(v1 < channels.tau1, _accel.ERASURE, x).astype(np.int8)
        y2 = np.where(v2 < channels.p2, 1 - x, x).astype(np.int8)
        with np.errstate(divide="ignore"):
            logq2 = np.log(cfg.input_law.p_x_given_u @ channels.pair().ch2.transitions)
        decode1 = partial(_accel.decode_map_int, sat_flat)
        decode2 = partial(_accel.decode_map_float, book.clouds, logq2)

    cand_start, cand_count = _bin_ranges(cfg)

    def decode_chunk(sl):
        flat_hat = decode1(y1[sl])
        forwarded = (flat_hat % nu2) // cfg.bin_size
        return flat_hat // nu2, decode2(y2[sl], cand_start, cand_count, forwarded)

    bounds = np.linspace(0, trials, threads + 1).astype(int)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    m1_hat, m2_hat = map(np.concatenate, zip(*map_in_order(decode_chunk, slices, threads)))

    e1 = m1_hat != m1
    e2 = m2_hat != m2
    events = int(np.count_nonzero(e1 | e2))
    return SimReport(
        trials=trials,
        user1_joint_errors=int(np.count_nonzero(e1)),
        user2_errors=int(np.count_nonzero(e2)),
        error_events=events,
        p_e_estimate=events / trials,
        p_e_half_width=SimReport.half_width(events, trials),
    )
