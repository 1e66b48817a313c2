"""Capacity bounds and decode-and-forward simulation for cooperative broadcast channels."""

from .becbsc import BecBscBC, becbsc_family, mgl_gap, q_threshold
from .channel import (
    AuxiliaryJoint,
    ChannelPair,
    DiscreteChannel,
    InputDistribution,
    capacity,
    conditional_informations,
    is_more_capable,
    make_bec,
    make_bsc,
    mutual_information,
)
from .gaussian import GaussianBC, alpha_th_closed, gaussian_family
from .numerics import (
    LogBase,
    Tolerance,
    binary_convolution,
    binary_entropy,
    binary_entropy_inv,
    bisect_monotone,
    gaussian_cap,
    gaussian_cap_inv,
)
from .oracle import GridSpec, frontier_deviation, oracle_both
from .regions import (
    ParametricFamily,
    RatePair,
    RateRegionBoundary,
    boundary_r2star,
    coincidence_check,
    inner_boundary,
    outer_boundary,
    r1_threshold,
    sweep_thresholds,
    threshold_alpha,
)

__version__ = "0.1.0"
