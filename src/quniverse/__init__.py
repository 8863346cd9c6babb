"""Two-qubit closed-universe toolkit.

Fixed-basis algebra and exact dynamics for a pair of coupled two-level
systems, per-subsystem internal-energy laws with a consistency audit, and
a seeded solvability experiment probing whether the mean energy can be
reconstructed from the two reduced-state records alone.
"""

from .core import (
    COORD_NAMES,
    ConfigRep,
    Configuration,
    HamiltonianSpec,
    UniverseState,
    config_equal,
    config_to_rep,
    mean_energy,
    pauli,
    rep_to_config,
)
from .dynamics import (
    ExtendedStateRep,
    extended_state,
    finite_difference_rho_dot,
    partial_trace,
    propagate,
    rho_dot_local,
    trajectory,
)
from .iel import (
    ConsistencyAudit,
    EnergyPair,
    RCUndefinedError,
    UndefinedObservableError,
    consistency_audit,
    effective_hamiltonian,
    evaluate_law,
    rc_frequency,
    register_law,
)
from .locality import (
    SolvabilityReport,
    build_system,
    build_tangent_system,
    hyperspherical_backward,
    hyperspherical_forward,
    numerical_jacobian,
    run_experiment,
    sample_interior_rep,
    solve_least_squares,
    transport_solution,
)
from .models import (
    ControlCaseState,
    NumberConservingSpec,
    control_configuration,
    control_rho_dot_analytic,
    embed_control_state,
    h_num,
    mean_energy_analytic,
    number_conserving_hamiltonian,
    number_operator,
    rc_energies_analytic,
)

__version__ = "0.1.0"
