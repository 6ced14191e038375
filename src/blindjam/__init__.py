"""Simulator and analysis library for helper-assisted jamming on the
Gaussian wiretap channel: lattice decoding, mixture-entropy information
measures, and reproducible power-sweep experiments."""

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    PowerBudget,
    default_budget,
    empirical_power,
    eve_output,
    legit_output,
    sample_channel,
)
from .constellation import (
    DegenerateLatticeError,
    DminStudy,
    LatticeSizeError,
    ReceiverLattice,
    fit_dmin_exponent,
    min_distance,
    sum_lattice_min_distance,
)
from .experiments import (
    SweepRow,
    compare_schemes,
    fit_slopes,
    sweep_power,
    sweep_ser,
)
from .infometrics import (
    MiEstimate,
    MixtureSpec,
    RateBound,
    mixture_entropy,
    rate_lower_bound,
)
from .receiver import (
    ErrorEstimate,
    estimate_eve_u_error,
    estimate_ser,
    eve_decode_u_given_v,
)
from .schemes import (
    SchemeConfig,
    encode,
    make_blind_scheme,
    make_csi_scheme,
    make_gaussian_jam_scheme,
    sample_symbols,
    schedule_q,
)
