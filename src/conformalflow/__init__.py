"""Numerical laboratory for the truncated conformal flow on the 3-sphere.

Modules
-------
kernel       layered pair-sum tables behind the fast energy and vector field
state        states, gauges, ground-state family, serialization
observables  conserved quantities H, Q, E, the gap, the Hankel identity
flow         vector field (naive and fast) and DOP853 integration
linearized   operators L+-, spectra, stability, ladders, coercivity
modulation   four-parameter decomposition and orbit-distance tracking
lab          seeded experiments, persistence, and the CLI entry point
"""

from .flow import (
    FlowError,
    IntegratorConfig,
    TrajectoryRecord,
    integrate,
    linearized_rhs,
    vector_field_fast,
    vector_field_naive,
)
from .kernel import layer_prefix_sums, layered_pair_sums
from .linearized import (
    OperatorPair,
    appendix_identities,
    build_ground_ops,
    build_single_mode_ops,
    coercivity,
    commutators,
    ladder_check,
    mode_energy_relation,
    mu_ladder,
    spectrum,
    stability_spectrum,
    toeplitz_core,
)
from .modulation import (
    DegenerateJacobian,
    ModulationFrame,
    ModulationTrack,
    NoConvergence,
    OrbitDistanceResult,
    decompose,
    decompose_p0,
    orbit_distance,
    track_modulation,
)
from .observables import (
    charge,
    energy_fast,
    energy_naive,
    functional_K,
    gap,
    hankel_identity_check,
    higher_charge,
)
from .state import (
    GroundState,
    SingleMode,
    gauge_apply,
    ground_amplitudes,
    ground_derivative,
    ground_second_derivative,
    ground_tail_mass,
    make_reference,
    mode_vector_from_csv,
    mode_vector_from_json,
    mode_vector_to_csv,
    mode_vector_to_json,
    scaling_apply,
    weighted_norm,
)

__version__ = "0.1.0"
