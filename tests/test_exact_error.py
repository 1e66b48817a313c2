"""The simulator against the exact error probabilities of small BEC/BSC codes.

For a fixed codebook the decode-and-forward scheme's error probabilities are
finite sums.  Messages are uniform, so they average over the nu1*nu2
codewords x.  User 1 sees x through one of the 2**n erasure patterns E, with
probability tau1**|E| (1 - tau1)**(n - |E|); its decision gives m1's
verdict and the forwarded bin b(E).  User 2 sees x through one of the 2**n
flip patterns F, with probability p2**|F| (1 - p2)**(n - |F|), and decides
inside bin b(E), so one table of bins x 2**n received words holds every
user-2 decision of the code:

    P(no error | x) = sum_E P(E) [m1 right] sum_F P(F) [m2 right in bin b(E)],

and each user's rate comes out of the same sums.  Every decision comes from
the per-trial reference decoders of ``test_accel``, not from the kernels,
so a kernel fault cannot cancel out of the comparison.  The codebook seeds,
the trial count and the z bound were fixed before the first run.
"""

import numpy as np
import pytest

from coopbc import _accel, becbsc, dnfsim
from coopbc.channel import AuxiliaryJoint
from test_accel import ref_decode_map_float, ref_decode_map_int

SEEDS = (101, 202)
TRIALS = 20_000
Z_BOUND = 4.0


def n8_cell(seed):
    """The benchmark's n = 8 many-trials cell: BEC(0.1)/BSC(0.2) at C12 = 0.2,
    both rates 0.7 times the threshold corner's, the symmetric cloud law at the
    threshold q; 10 x 4 codewords in bins of 2."""
    bc, c12 = becbsc.BecBscBC(0.1, 0.2), 0.2
    q = becbsc.q_threshold(bc, c12)
    top, c1 = becbsc.r1_th(bc, c12), bc.cap1()
    law = AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[1 - q, q], [q, 1 - q]]))
    cfg = dnfsim.CodeConfig(n=8, r1=0.7 * top, r2=0.7 * (c1 - top), c12=c12, seed=seed,
                            input_law=law)
    return bc, cfg


def exact_rates(bc, cfg):
    """Exact (user 1 error, user 2 error, either) probabilities of cfg's code."""
    book = dnfsim.build_superposition_codebook(cfg)
    n, nu2 = cfg.n, cfg.nu2
    words = book.satellites.reshape(-1, n)  # codeword m1*nu2 + m2
    m1, m2 = np.divmod(np.arange(words.shape[0]), nu2)
    # row k holds the bits of k, most significant first
    patterns = (np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1
    ones = patterns.sum(axis=1)

    def weights(p):
        return p**ones * (1 - p) ** (n - ones)

    # user 1: every codeword under every erasure pattern, one decision per distinct word
    y1 = np.where(patterns[None] == 1, _accel.ERASURE, words[:, None, :]).astype(np.int8)
    distinct, at = np.unique(y1.reshape(-1, n), axis=0, return_inverse=True)
    flat_hat = ref_decode_map_int(words, distinct)[at.ravel()].reshape(len(words), 2**n)
    right1 = flat_hat // nu2 == m1[:, None]
    forwarded = (flat_hat % nu2) // cfg.bin_size

    # user 2: the decision of every bin on every received word; simulate's metric
    starts, counts = dnfsim._bin_ranges(cfg)
    with np.errstate(divide="ignore"):
        logq2 = np.log(cfg.input_law.p_x_given_u @ bc.pair().ch2.transitions)
    bins = len(starts)
    table = ref_decode_map_float(
        book.clouds, logq2, np.tile(patterns, (bins, 1)).astype(np.int8), starts, counts,
        np.repeat(np.arange(bins), 2**n),
    ).reshape(bins, 2**n)
    # x xor F has the index of x's bits xor F's
    received = (words @ (1 << np.arange(n)[::-1]))[:, None] ^ np.arange(2**n)
    right2 = (table[:, received] == m2[:, None]) @ weights(bc.p2)  # (bins, codewords)
    right2 = right2[forwarded, np.arange(len(words))[:, None]]  # (codewords, E)

    erasure = weights(bc.tau1)
    return (1 - (right1 @ erasure).mean(), 1 - (right2 @ erasure).mean(),
            1 - ((right1 * right2) @ erasure).mean())


@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_matches_the_exact_error_probabilities(seed):
    bc, cfg = n8_cell(seed)
    assert (cfg.nu1, cfg.nu2, cfg.bin_size) == (10, 4, 2)
    rep = dnfsim.simulate(cfg, bc, TRIALS)
    counts = (rep.user1_joint_errors, rep.user2_errors, rep.error_events)
    for name, k, p in zip(("user 1", "user 2", "either"), counts, exact_rates(bc, cfg)):
        assert 0.0 < p < 1.0
        z = (k - TRIALS * p) / np.sqrt(TRIALS * p * (1 - p))
        assert abs(z) <= Z_BOUND, f"{name}: {k} errors in {TRIALS}, exact p {p:.5f}, z {z:.2f}"
