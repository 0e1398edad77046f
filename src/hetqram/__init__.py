"""Simulator and analytics for heterogeneously error-corrected QRAM queries.

The package has six parts:

* ``state``     - sparse branch-state simulator (classical words with
                  complex amplitudes) for permutation gates and Pauli errors.
* ``noise``     - surface-code logical error rates per tree level, distance
                  profiles, and the plan of where Pauli noise lands.
* ``circuits``  - layered query-schedule builders for the uniform bucket
                  brigade, the two heterogeneous implementations (block
                  routing and pipelined), and the walker variant.
* ``analytics`` - every closed-form fidelity bound, coherence-time formula,
                  and physical-qubit count, plus the equal-fidelity
                  distance search.
* ``engine``    - the bit-plane trajectory simulator, which runs many noisy
                  trials of one schedule at once.
* ``harness``   - Monte Carlo estimation on that engine, scaling fits,
                  overhead comparisons, and CSV/JSON reports (CLI in ``cli``).
"""

from .analytics import (
    BoundInputs,
    GoodFraction,
    ResourceEstimate,
    bb_coherence_time,
    bb_infidelity_bound,
    bb_resources,
    expected_good_fraction,
    ft_coherence_time,
    ft_infidelity_bound,
    ft_resources,
    hetero_bound,
    k_factor,
    min_uniform_distance,
    qubit_router_delta,
    uniform_bb_infidelity,
    uniform_resources,
)
from .circuits import (
    Gate,
    GateKind,
    Layer,
    Schedule,
    build_bb_hetero,
    build_ft_hetero,
    build_schedule,
    build_uniform_bb,
    build_walker,
    measured_coherence_cycles,
    run_noiseless,
    walker_s_hop,
)
from .engine import PlaneEngine
from .harness import (
    ComparisonRow,
    ExperimentConfig,
    ExperimentReport,
    compare_resources,
    emit_report,
    estimate_infidelity,
    fit_scaling,
    load_report,
    run_fidelities,
    run_sweep,
)
from .noise import (
    CycleCost,
    DistanceProfile,
    NoiseModel,
    NoisePlan,
    PauliEvent,
    SurfaceParams,
    effective_distance,
    level_error_rate,
    logical_error_rate,
)
from .state import BranchState, inner_product

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "BranchState",
    "ComparisonRow",
    "CycleCost",
    "DistanceProfile",
    "ExperimentConfig",
    "ExperimentReport",
    "Gate",
    "GateKind",
    "GoodFraction",
    "Layer",
    "NoiseModel",
    "NoisePlan",
    "PauliEvent",
    "PlaneEngine",
    "ResourceEstimate",
    "Schedule",
    "SurfaceParams",
    "bb_coherence_time",
    "bb_infidelity_bound",
    "bb_resources",
    "build_bb_hetero",
    "build_ft_hetero",
    "build_schedule",
    "build_uniform_bb",
    "build_walker",
    "compare_resources",
    "effective_distance",
    "emit_report",
    "estimate_infidelity",
    "expected_good_fraction",
    "fit_scaling",
    "ft_coherence_time",
    "ft_infidelity_bound",
    "ft_resources",
    "hetero_bound",
    "inner_product",
    "k_factor",
    "level_error_rate",
    "load_report",
    "logical_error_rate",
    "measured_coherence_cycles",
    "min_uniform_distance",
    "qubit_router_delta",
    "run_fidelities",
    "run_noiseless",
    "run_sweep",
    "uniform_bb_infidelity",
    "uniform_resources",
    "walker_s_hop",
]
