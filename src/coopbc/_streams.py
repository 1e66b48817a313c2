"""Trial t's draws ``default_rng((seed, 1, t))``, t = 0..trials-1, computed in bulk.

numpy builds each such generator in three public steps, repeated here as
array arithmetic over t:

- ``SeedSequence`` hashes the entropy words (those of ``seed``, then 1, then
  t) into a pool of four uint32 words and draws four uint64 words from it
  (O'Neill's seed_seq_fe mixing);
- ``PCG64`` seeds its 128-bit LCG from those words and emits the XSL-RR
  128/64 output of each new state (O'Neill 2014);
- ``integers(nu)`` for 2 <= nu < 2**32 applies Lemire's (2019) bounded
  method to the low, then the high, 32-bit half of one 64-bit output, and
  ``random()`` is (output >> 11) * 2**-53.

uint32 words live in uint32 arrays, whose products wrap mod 2**32; a
128-bit value is two uint64 arrays (high, low).  Gaussian noise comes from
numpy's own ziggurat, whose tables numpy does not expose, on one reused
``PCG64`` set to each trial's state after its message draws.

A trial whose message draw would need a Lemire rejection, or whose nu is
2**32 or more, is drawn from its own generator instead.  A guard compares
the first and the last trial drawn in bulk with their own generators on
every call: if either differs, every trial falls back to the per-trial loop.
"""

from __future__ import annotations

import numpy as np

_U32 = 0xFFFFFFFF
_POOL_SIZE = 4
# SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier A, and its high and low halves
_PCG_MULT = 47026247687942121848144207491837523525
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))


class _Hash:
    """SeedSequence's hashmix: each call moves one hash constant shared by every
    trial, so the constant stays a Python int."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _U32
        value *= np.uint32(self.const)
        value ^= value >> np.uint32(16)
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    out ^= out >> np.uint32(16)
    return out


def _seed_words(seed: int, trials: int) -> tuple[np.ndarray, ...]:
    """SeedSequence((seed, 1, t)).generate_state(4, uint64) for every t, as four
    uint64 arrays."""
    words = []
    while True:
        words.append(seed & _U32)
        seed >>= 32
        if not seed:
            break
    entropy = [np.full(trials, w, np.uint32) for w in words + [1]]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hash_a = _Hash(_INIT_A, _MULT_A)
    pool = [hash_a(entropy[i] if i < len(entropy) else np.zeros(trials, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a(word))
    hash_b = _Hash(_INIT_B, _MULT_B)
    state = [hash_b(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return tuple(state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2))


def _mulhi(x: np.ndarray, c: np.uint64) -> np.ndarray:
    """High 64 bits of x * c, from 32-bit halves."""
    c_hi, c_lo = c >> np.uint64(32), c & np.uint64(_U32)
    x_hi, x_lo = x >> np.uint64(32), x & np.uint64(_U32)
    mid = x_hi * c_lo + (x_lo * c_lo >> np.uint64(32))
    low_cross = x_lo * c_hi + (mid & np.uint64(_U32))
    return x_hi * c_hi + (mid >> np.uint64(32)) + (low_cross >> np.uint64(32))


class _Pcg64:
    """The 128-bit states of many PCG64 generators, stepped together."""

    def __init__(self, seed: int, trials: int):
        s_hi, s_lo, q_hi, q_lo = _seed_words(seed, trials)
        # srandom: inc = 2*initseq + 1, state = (inc + initstate)*A + inc
        self.inc_hi = q_hi << np.uint64(1) | q_lo >> np.uint64(63)
        self.inc_lo = q_lo << np.uint64(1) | np.uint64(1)
        self.lo = s_lo + self.inc_lo
        self.hi = s_hi + self.inc_hi + (self.lo < s_lo)
        self.step()

    def step(self):
        """state = state*A + inc mod 2**128."""
        lo_a = self.lo * _MULT_LO
        lo = lo_a + self.inc_lo
        self.hi = (self.hi * _MULT_LO + self.lo * _MULT_HI + _mulhi(self.lo, _MULT_LO)
                   + self.inc_hi + (lo < lo_a))
        self.lo = lo

    def next64(self) -> np.ndarray:
        """Step, then the XSL-RR output of the new state."""
        self.step()
        x = self.hi ^ self.lo
        rot = self.hi >> np.uint64(58)
        return x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))

    def state(self, t: int) -> dict:
        """Generator t's ``PCG64.state`` (numpy's format), with no buffered uint32."""
        return {"bit_generator": "PCG64",
                "state": {"state": int(self.hi[t]) << 64 | int(self.lo[t]),
                          "inc": int(self.inc_hi[t]) << 64 | int(self.inc_lo[t])},
                "has_uint32": 0, "uinteger": 0}


def _trial_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng((seed, 1, t))


def _bulk_draws(seed: int, trials: int, nu1: int, nu2: int, n: int, gaussian: bool):
    """``trial_draws``' arithmetic over all trials at once.

    Returns m1, m2, the (trials, 2n) float array of values, and the flagged
    trials, whose rows hold no draw.
    """
    m1 = np.zeros(trials, dtype=np.int64)
    m2 = np.zeros(trials, dtype=np.int64)
    z = np.zeros((trials, 2 * n))
    if max(nu1, nu2) >= 2**32:
        return m1, m2, z, np.ones(trials, dtype=bool)
    flagged = np.zeros(trials, dtype=bool)
    gens = _Pcg64(seed, trials)
    if max(nu1, nu2) > 1:
        # a count of 1 draws nothing; the others take the 32-bit halves of one
        # output, low half first, and keep the top word of half * nu unless
        # its low word falls below (2**32 - nu) % nu (Lemire's rejection)
        out = gens.next64()
        halves = iter((out & np.uint64(_U32), out >> np.uint64(32)))
        for m, nu in ((m1, nu1), (m2, nu2)):
            if nu > 1:
                product = next(halves) * np.uint64(nu)
                flagged |= product & np.uint64(_U32) < np.uint64((2**32 - nu) % nu)
                m[:] = product >> np.uint64(32)
    if gaussian:
        bitgen = np.random.PCG64(0)
        normal = np.random.Generator(bitgen).standard_normal
        # the ziggurat reads whole 64-bit outputs, never the buffered uint32 half
        for t in range(trials):
            bitgen.state = gens.state(t)
            normal(out=z[t])
    else:
        for j in range(2 * n):
            np.multiply(gens.next64() >> np.uint64(11), 2.0**-53, out=z[:, j])
    return m1, m2, z, flagged


def trial_draws(seed: int, trials: int, nu1: int, nu2: int, n: int, gaussian: bool):
    """Per trial t, the draws of ``default_rng((seed, 1, t))``: m1 =
    ``integers(nu1)``, m2 = ``integers(nu2)``, then user 1's and user 2's n
    values of ``standard_normal`` (``gaussian``) or ``random``.

    Returns m1, m2 and the two (trials, n) arrays of values.
    """
    m1, m2, z, flagged = _bulk_draws(seed, trials, nu1, nu2, n, gaussian)
    z1, z2 = z[:, :n], z[:, n:]
    draw = np.random.Generator.standard_normal if gaussian else np.random.Generator.random

    def own(t):
        rng = _trial_rng(seed, t)
        return rng.integers(nu1), rng.integers(nu2), draw(rng, n), draw(rng, n)

    def matches(t):
        a1, a2, b1, b2 = own(t)
        return (a1 == m1[t] and a2 == m2[t]
                and np.array_equal(b1, z1[t]) and np.array_equal(b2, z2[t]))

    drawn = np.flatnonzero(~flagged)
    if drawn.size and not all(matches(t) for t in {int(drawn[0]), int(drawn[-1])}):
        flagged[:] = True  # the bulk arithmetic is off here: draw every trial on its own
    for t in np.flatnonzero(flagged).tolist():
        m1[t], m2[t], z1[t], z2[t] = own(t)
    return m1, m2, z1, z2
