"""Exact analysis of TTL cache networks.

Two engines with a shared vocabulary: a renewal-line engine built on
stopped sums of request intervals (hit/miss probabilities, occupancies,
and Laplace transforms of inter-miss times for reset-on-request,
reset-on-miss, and min-of-both policies), and a MAP/PH engine that builds
the miss process of each cache as an explicit Markov arrival process and
composes superposition, splitting, and input-output over feedforward
networks. A discrete-event simulator cross-validates both.
"""

from .cache_ops import CacheChain, output_min, output_r, output_sigma
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionError,
    DivergentStoppingTimeError,
    NoStationaryDistributionError,
    TopologyError,
    TtlnetError,
    ValidationError,
)
from .kron import ProbabilityVector, RateMatrix, kron_product, kron_sum, steady_state
from .metrics import CacheMetrics, metrics_from_maps, stationary_interval_moments
from .network import (
    AnalysisResult,
    CacheNode,
    Topology,
    TtlSpec,
    analyze,
    parse_topology,
    state_space_size,
)
from .processes import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    fundamental_rate,
    mmpp_map,
    ph_mean,
    ph_min,
    poisson_map,
    sample_map,
    sample_ph,
    split,
    superpose,
    validate_map,
)
from .renewal import (
    Deterministic,
    Erlang,
    Exponential,
    RenewalSpec,
    StoppingPolicy,
    Tabulated,
    expected_stopped_sum,
    expected_tau,
    hit_miss_renewal,
    occupancy_renewal,
    table1_reference,
    transform_min,
    transform_r,
    transform_sigma,
)
from .sim import DiscrepancyReport, SimConfig, SimEstimate, compare, simulate

__version__ = "0.1.0"
