"""Monte Carlo simulation of layered random coding with a decode-and-forward hop.

The transmitter superimposes a satellite codeword (user 1's message) on a
cloud center (user 2's message).  User 1 decodes both messages by exhaustive
maximum likelihood over the whole codebook and forwards the bin index
m2_hat // bin_size of its estimate of user 2's message over the rate-limited
link; user 2 then decodes by maximum likelihood over the cloud centers inside
that bin.

Everything is deterministic given the seed: the codebook derives its stream
from (seed, 0) and trial t from (seed, 1, t), so reports are reproducible
trial-by-trial regardless of batching or thread count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import _accel
from .becbsc import BecBscBC
from .channel import AuxiliaryJoint
from .gaussian import GaussianBC
from .numerics import BudgetExceededError


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


def _codebook_rng(cfg: CodeConfig) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, 0))


def _trial_rng(cfg: CodeConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, 1, trial))


def build_superposition_codebook(cfg: CodeConfig) -> Codebook:
    """Draw the layered random codebook for this configuration.

    Discrete: cloud symbols i.i.d. from P_U, satellite symbols i.i.d. from
    P_{X|U} conditioned per position on the cloud of the same user-2
    message.  Gaussian: clouds are sqrt(1-split) times a standard normal
    block and satellites add sqrt(split) times an independent one, for unit
    average input power.  Draw order is clouds first, then satellites.
    """
    rng = _codebook_rng(cfg)
    nu1, nu2, n = cfg.nu1, cfg.nu2, cfg.n
    if cfg.input_law is not None:
        law = cfg.input_law
        clouds = rng.choice(law.u_size, size=(nu2, n), p=law.p_u).astype(np.int8)
        cum = np.cumsum(law.p_x_given_u, axis=1)
        draws = rng.random((nu1, nu2, n))
        satellites = np.empty((nu1, nu2, n), dtype=np.int8)
        for u in range(law.u_size):
            mask = clouds == u
            satellites[:, mask] = np.searchsorted(cum[u], draws[:, mask], side="right").astype(
                np.int8
            )
        np.clip(satellites, 0, law.x_size - 1, out=satellites)
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


def _draw_trials(cfg: CodeConfig, trials: int, draw):
    """Per-trial messages and channel noise, one independent stream per trial.

    Trial t's stream gives m1, m2, then user 1's and user 2's noise vectors,
    each ``draw(rng, n)``.
    """
    nu1, nu2, n = cfg.nu1, cfg.nu2, cfg.n
    m1 = np.empty(trials, dtype=np.int64)
    m2 = np.empty(trials, dtype=np.int64)
    z1 = np.empty((trials, n))
    z2 = np.empty((trials, n))
    for t in range(trials):
        rng = _trial_rng(cfg, t)
        m1[t] = rng.integers(nu1)
        m2[t] = rng.integers(nu2)
        z1[t] = draw(rng, n)
        z2[t] = draw(rng, n)
    return m1, m2, z1, z2


def _draw_trials_discrete(cfg: CodeConfig, trials: int):
    """Uniform variates that decide each erasure (user 1) and flip (user 2)."""
    return _draw_trials(cfg, trials, np.random.Generator.random)


def _draw_trials_gaussian(cfg: CodeConfig, trials: int):
    """Unit-variance noise for both receivers."""
    return _draw_trials(cfg, trials, np.random.Generator.standard_normal)


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

    Each family only checks the input law, draws the trials, forms both
    received words and binds its two decoders; the decode-and-forward loop
    below is shared.  The channel pair need not be ordered: either receiver
    may be the stronger one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    book = build_superposition_codebook(cfg)
    nu2 = cfg.nu2
    sat_flat = book.satellites.reshape(cfg.nu1 * nu2, cfg.n)

    # decode1(ys) -> codeword index (m1*nu2 + m2); decode2(ys, *bin ranges,
    # bin of each trial) -> m2
    if isinstance(channels, BecBscBC):
        if cfg.input_law is None:
            raise ValueError("discrete channels require a discrete input law")
        if cfg.input_law.x_size != 2:
            raise ValueError("the erasure/flip family expects a binary input alphabet")
        m1, m2, u_erase, u_flip = _draw_trials_discrete(cfg, trials)
        x = sat_flat[m1 * nu2 + m2]
        y1 = np.where(u_erase < channels.tau1, _accel.ERASURE, x).astype(np.int8)
        y2 = np.where(u_flip < channels.p2, 1 - x, x).astype(np.int8)
        with np.errstate(divide="ignore"):
            logq2 = np.log(cfg.input_law.p_x_given_u @ channels.pair().ch2.transitions)
        decode1 = partial(_accel.decode_map_int, sat_flat)
        decode2 = partial(_accel.decode_map_float, book.clouds, logq2)
    elif isinstance(channels, GaussianBC):
        if cfg.input_law is not None:
            raise ValueError("Gaussian channels require a power-split input law")
        m1, m2, z1, z2 = _draw_trials_gaussian(cfg, trials)
        x = sat_flat[m1 * nu2 + m2]
        root_s1, root_s2 = math.sqrt(channels.s1), math.sqrt(channels.s2)
        y1 = root_s1 * x + z1
        y2 = root_s2 * x + z2
        decode1 = partial(_accel.decode_sq, sat_flat, root_s1)
        decode2 = partial(_accel.decode_sq_restricted, book.clouds, root_s2)
    else:
        raise ValueError(f"unsupported channel family: {channels!r}")

    cand_start, cand_count = _bin_ranges(cfg)

    def decode_chunk(sl):
        flat_hat = decode1(y1[sl])
        forwarded = (flat_hat % nu2) // cfg.bin_size
        return flat_hat // nu2, decode2(y2[sl], cand_start, cand_count, forwarded)

    bounds = np.linspace(0, trials, threads + 1).astype(int)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(decode_chunk, slices))
    else:
        parts = list(map(decode_chunk, slices))
    m1_hat, m2_hat = (np.concatenate(p) for p in zip(*parts))

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
