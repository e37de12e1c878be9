"""Numerical laboratory for the truncated conformal flow on the 3-sphere.

Modules
-------
kernel       N x N layer-cumulative pair-sum table behind the fast vector field and energy
state        states, the gauge action, ground-state family
observables  conserved quantities H, Q, E, the gap, the Hankel identity
flow         vector field (naive and fast), co-rotating DOP853 integration
linearized   operators L+-, spectra, stability, ladders, coercivity
modulation   four-parameter decomposition and orbit-distance tracking
lab          seeded experiments, persistence, and the CLI entry point

A run chooses its settings through ``IntegratorConfig`` and
``ExperimentConfig``.  Fixed tolerances, step and input bounds, iteration
caps and seeds are upper-case module-level names; the residual contract and
kernel verdicts of ``linearized``, the condition bound of ``modulation`` and
the verdicts of ``lab``'s commands stay inline.

Importing the package loads numpy and nothing else.  scipy is imported on
first use: ``scipy.integrate`` by ``flow.integrate`` and ``scipy.linalg`` by
the dense solves of ``linearized``.
"""

from .flow import (
    FlowError,
    IntegratorConfig,
    TrajectoryRecord,
    integrate,
    vector_field_fast,
    vector_field_naive,
)
from .kernel import layer_cumulative_sums, layer_square_sums, weighted_field
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
    gauge_apply,
    ground_amplitudes,
    ground_derivative,
    ground_second_derivative,
    weighted_norm,
)

__version__ = "0.1.0"
