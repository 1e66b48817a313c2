import json

import numpy as np
import pytest

from coopbc.channel import (
    AuxiliaryJoint,
    ChannelPair,
    DiscreteChannel,
    InputDistribution,
    _compositions,
    _simplex_lattice,
    capacity,
    conditional_informations,
    is_more_capable,
    make_bec,
    make_bsc,
    mutual_information,
)
from coopbc.numerics import (
    IterationLimitError,
    LogBase,
    Tolerance,
    binary_convolution,
    binary_entropy,
)

UNIFORM2 = np.array([0.5, 0.5])


class TestConstruction:
    def test_bsc_matrix(self):
        ch = make_bsc(0.2)
        np.testing.assert_allclose(ch.transitions, [[0.8, 0.2], [0.2, 0.8]])

    def test_bsc_identity(self):
        np.testing.assert_array_equal(make_bsc(0.0).transitions, np.eye(2))

    def test_bsc_useless(self):
        assert np.all(make_bsc(0.5).transitions == 0.5)

    def test_bec_matrix(self):
        ch = make_bec(0.1)
        np.testing.assert_allclose(ch.transitions, [[0.9, 0.0, 0.1], [0.0, 0.9, 0.1]])
        assert ch.output_size == 3

    def test_bec_extremes(self):
        assert mutual_information(UNIFORM2, make_bec(0.0)) == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(UNIFORM2, make_bec(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_bsc(0.6)
        with pytest.raises(ValueError):
            make_bec(-0.1)

    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError):
            DiscreteChannel(np.array([[0.5, 0.4], [0.2, 0.8]]))
        with pytest.raises(ValueError):
            DiscreteChannel(np.array([[1.2, -0.2], [0.2, 0.8]]))

    def test_pair_needs_matching_inputs(self):
        with pytest.raises(ValueError):
            ChannelPair(make_bsc(0.1), DiscreteChannel(np.eye(3)))

    def test_json_roundtrip(self):
        ch = make_bec(0.25)
        again = DiscreteChannel.from_json(ch.to_json())
        np.testing.assert_array_equal(ch.transitions, again.transitions)
        d = json.loads(ch.to_json())
        assert d["input_size"] == 2 and d["output_size"] == 3

    @pytest.mark.parametrize("d, match", [
        ([[1.0, 0.0], [0.0, 1.0]], "JSON object"),
        ({"rows": [[1.0, 0.0], [0.0, 1.0]], "output_size": 2}, "JSON object"),
        ({"input_size": 2, "output_size": 2}, "JSON object"),
        ({"rows": {"a": 1}, "input_size": 1, "output_size": 1}, "JSON object"),
        ({"rows": [[0.5, 0.5], [1.0]], "input_size": 2, "output_size": 2}, "JSON object"),
        ({"rows": [[1.0, 0.0], [0.0, 1.0]], "input_size": "2", "output_size": 2},
         "declared sizes"),
        ({"rows": [[None, 1.0], [0.0, 1.0]], "input_size": 2, "output_size": 2}, "entries"),
        ({"rows": [0.5, 0.5], "input_size": 2, "output_size": 2}, "2-D"),
    ])
    def test_malformed_dict_is_a_value_error(self, d, match):
        with pytest.raises(ValueError, match=match):
            DiscreteChannel.from_dict(d)

    @pytest.mark.parametrize("d, match", [
        ([0.5, 0.5], "JSON object"),
        ("p_u", "JSON object"),
        ({"p_u": [1.0], "u_size": 1}, "JSON object"),
        ({"p_x_given_u": [[1.0, 0.0]]}, "JSON object"),
        ({"p_u": {"a": 1}, "p_x_given_u": [[1.0, 0.0]], "u_size": 1}, "JSON object"),
        ({"p_u": [1.0], "p_x_given_u": "abc", "u_size": 1}, "JSON object"),
        ({"p_u": [1.0], "p_x_given_u": [[1.0, 0.0]], "u_size": [1]}, "declared u_size"),
        ({"p_u": [None], "p_x_given_u": [[1.0, 0.0]], "u_size": 1}, "probability vector"),
        ({"p_u": [1.0], "p_x_given_u": [[None, 1.0]], "u_size": 1}, "entries"),
    ])
    def test_malformed_joint_is_a_value_error(self, d, match):
        with pytest.raises(ValueError, match=match):
            AuxiliaryJoint.from_dict(d)

    def test_nan_distribution_rejected(self):
        with pytest.raises(ValueError):
            InputDistribution(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("probs", [[[0.5, 0.5]], 1.0])
    def test_distribution_must_be_a_vector(self, probs):
        with pytest.raises(ValueError, match="vector"):
            InputDistribution(np.array(probs))


class TestMutualInformation:
    def test_useless_channel(self):
        assert mutual_information(UNIFORM2, make_bsc(0.5)) == 0.0

    def test_identity_channel(self):
        assert mutual_information(UNIFORM2, make_bsc(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_uniform(self):
        got = mutual_information(UNIFORM2, make_bsc(0.2))
        assert got == pytest.approx(0.2780719051126377, abs=1e-12)

    def test_accepts_input_distribution(self):
        px = InputDistribution(UNIFORM2)
        assert mutual_information(px, make_bsc(0.2)) == pytest.approx(0.2780719051126377)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(np.array([0.2, 0.3, 0.5]), make_bsc(0.1))

    @pytest.mark.parametrize("probs, match", [
        ([np.nan, 1.0], "entries"), ([-0.5, 1.5], "entries"), ([0.3, 0.3], "sum to 1"),
    ])
    def test_rejects_invalid_laws(self, probs, match):
        with pytest.raises(ValueError, match=match):
            mutual_information(np.array(probs), make_bsc(0.2))

    def test_bec_factor_identity(self):
        # erasure channels pass (1 - tau) of the input entropy through
        rng = np.random.default_rng(4)
        for tau in (0.0, 0.1, 0.35, 0.9):
            ch = make_bec(tau)
            for _ in range(25):
                p = rng.uniform(0.0, 1.0)
                px = np.array([p, 1.0 - p])
                expect = (1.0 - tau) * binary_entropy(p)
                assert mutual_information(px, ch) == pytest.approx(expect, abs=1e-12)

    def test_concavity_on_segments(self):
        rng = np.random.default_rng(5)
        ch = make_bsc(0.13)
        for _ in range(50):
            a, b = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
            mid = 0.5 * (a + b)
            lhs = mutual_information(mid, ch)
            rhs = 0.5 * (mutual_information(a, ch) + mutual_information(b, ch))
            assert lhs >= rhs - 1e-12

    def test_nats(self):
        got = mutual_information(UNIFORM2, make_bsc(0.2), LogBase.NATS)
        assert got == pytest.approx(0.2780719051126377 * np.log(2), abs=1e-12)


class TestCapacity:
    def test_bsc_closed_form(self):
        cap, px = capacity(make_bsc(0.2))
        assert cap == pytest.approx(1.0 - binary_entropy(0.2), abs=1e-9)
        np.testing.assert_allclose(px.probs, [0.5, 0.5], atol=1e-6)

    def test_bec_closed_form(self):
        cap, _ = capacity(make_bec(0.1))
        assert cap == pytest.approx(0.9, abs=1e-9)

    def test_useless_channel(self):
        cap, _ = capacity(make_bsc(0.5))
        assert cap == pytest.approx(0.0, abs=1e-12)

    def test_dominates_random_inputs(self):
        rng = np.random.default_rng(6)
        mat = rng.dirichlet(np.ones(4), size=3)
        ch = DiscreteChannel(mat)
        cap, _ = capacity(ch)
        for _ in range(100):
            px = rng.dirichlet(np.ones(3))
            assert cap >= mutual_information(px, ch) - 1e-9

    def test_iteration_limit(self):
        z = DiscreteChannel(np.array([[1.0, 0.0], [0.4, 0.6]]))
        with pytest.raises(IterationLimitError, match="did not reach 1e-10 in 1 passes"):
            capacity(z, Tolerance(abs_tol=1e-10, max_iters=1))


class TestMoreCapable:
    def test_bec_bsc_holds(self):
        verdict = is_more_capable(ChannelPair(make_bec(0.1), make_bsc(0.2)), resolution=2000)
        assert verdict.holds
        assert verdict.witness is None

    def test_reversed_bscs_violated(self):
        verdict = is_more_capable(ChannelPair(make_bsc(0.2), make_bsc(0.1)), resolution=2000)
        assert not verdict.holds
        assert verdict.min_gap < 0
        # the witness must itself exhibit the violation
        w = verdict.witness
        gap = mutual_information(w, make_bsc(0.2)) - mutual_information(w, make_bsc(0.1))
        assert gap < 0

    def test_identical_channels_hold(self):
        ch = make_bsc(0.17)
        verdict = is_more_capable(ChannelPair(ch, ch), resolution=500)
        assert verdict.holds
        assert verdict.min_gap == pytest.approx(0.0, abs=1e-12)

    def test_ternary_input_scan(self):
        rng = np.random.default_rng(9)
        strong = DiscreteChannel(np.eye(3))
        weak = DiscreteChannel(rng.dirichlet(np.ones(3), size=3))
        assert is_more_capable(ChannelPair(strong, weak)).holds
        assert not is_more_capable(ChannelPair(weak, strong)).holds

    def test_polish_beats_the_grid(self):
        # Z channel against BSC(0.1): the gap's minimum falls between grid points
        z = DiscreteChannel(np.array([[1.0, 0.0], [0.4, 0.6]]))
        verdict = is_more_capable(ChannelPair(z, make_bsc(0.1)))
        p = np.linspace(0.0, 1.0, 10_001)
        grid = (binary_entropy(0.4 + 0.6 * p) - (1.0 - p) * binary_entropy(0.4)) - (
            binary_entropy(binary_convolution(p, 0.1)) - binary_entropy(0.1)
        )
        assert not verdict.holds
        assert verdict.min_gap == pytest.approx(-0.15546494731794644, abs=1e-15)
        assert verdict.min_gap < grid.min() - 1e-9
        w = verdict.witness
        assert w.probs[0] == pytest.approx(0.33935, abs=1e-5)
        gap = mutual_information(w, z) - mutual_information(w, make_bsc(0.1))
        assert gap == pytest.approx(verdict.min_gap, abs=1e-12)


def recursive_compositions(total, parts):
    """The recursive generator that ``_compositions`` replaced."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


class TestSimplexLattice:
    @pytest.mark.parametrize("total, parts", [
        (200, 2), (16, 3), (30, 3), (12, 4), (5, 1), (0, 3), (100, 3),
    ])
    def test_compositions_in_the_recursive_order(self, total, parts):
        got = _compositions(total, parts)
        want = np.array(list(recursive_compositions(total, parts)), dtype=np.int64)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_are_the_compositions_over_steps(self, k):
        # the per-composition division the oracle used to build its grids
        ref = np.array([np.array(c, dtype=np.float64) / 12 for c in _compositions(12, k)])
        got = _simplex_lattice(k, 12)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert np.allclose(got.sum(axis=1), 1.0)


class TestConditionalInformations:
    PAIR = ChannelPair(make_bec(0.1), make_bsc(0.2))

    def test_constant_u(self):
        joint = AuxiliaryJoint(np.array([1.0]), np.array([[0.5, 0.5]]))
        i_xy1_u, i_uy2, i_xy1 = conditional_informations(joint, self.PAIR)
        assert i_xy1_u == pytest.approx(i_xy1, abs=1e-12)
        assert i_uy2 == pytest.approx(0.0, abs=1e-12)

    def test_u_copies_x(self):
        joint = AuxiliaryJoint(UNIFORM2, np.eye(2))
        i_xy1_u, i_uy2, _ = conditional_informations(joint, self.PAIR)
        assert i_xy1_u == pytest.approx(0.0, abs=1e-12)
        expect = mutual_information(UNIFORM2, make_bsc(0.2))
        assert i_uy2 == pytest.approx(expect, abs=1e-12)

    def test_symmetric_layer_closed_forms(self):
        q = 0.11
        joint = AuxiliaryJoint(UNIFORM2, np.array([[1 - q, q], [q, 1 - q]]))
        i_xy1_u, i_uy2, i_xy1 = conditional_informations(joint, self.PAIR)
        assert i_xy1_u == pytest.approx(0.9 * binary_entropy(q), abs=1e-12)
        assert i_uy2 == pytest.approx(
            1.0 - binary_entropy(binary_convolution(0.2, q)), abs=1e-12
        )
        assert i_xy1 == pytest.approx(0.9, abs=1e-12)

    def test_data_processing(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = rng.integers(1, 5)
            joint = AuxiliaryJoint(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(2), size=m))
            _, i_uy2, _ = conditional_informations(joint, self.PAIR)
            px = joint.p_u @ joint.p_x_given_u
            assert i_uy2 <= mutual_information(px, make_bsc(0.2)) + 1e-12

    def test_dimension_mismatch(self):
        joint = AuxiliaryJoint(np.array([1.0]), np.array([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValueError):
            conditional_informations(joint, self.PAIR)


class TestAuxiliaryJoint:
    def test_roundtrip(self):
        joint = AuxiliaryJoint(np.array([0.3, 0.7]), np.array([[0.9, 0.1], [0.4, 0.6]]))
        again = AuxiliaryJoint.from_dict(joint.as_dict())
        np.testing.assert_array_equal(joint.p_u, again.p_u)
        np.testing.assert_array_equal(joint.p_x_given_u, again.p_x_given_u)

    def test_validation(self):
        with pytest.raises(ValueError):
            AuxiliaryJoint(np.array([0.5, 0.6]), np.eye(2))
        with pytest.raises(ValueError):
            AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[0.9, 0.2], [0.4, 0.6]]))

    def test_one_row_per_value_of_u(self):
        with pytest.raises(ValueError, match="one row per value of U"):
            AuxiliaryJoint(np.array([0.5, 0.5]), np.array([[0.9, 0.1]]))
