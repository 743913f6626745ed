"""Fast-slow one-predator/two-prey toolkit.

Constructs the two-parameter family of singular periodic orbits of the
rescaled model, simulates the full system for eps > 0, verifies closeness
of simulated trajectories to the singular skeleton, and classifies the
resulting oscillation patterns.
"""

from .errors import (
    RelaxorError, InvalidInputError, ParameterDomainError, SingularScalingError,
    BranchDomainError, OffOrbitError, DegenerateOrbitError,
    NoSolutionError, InconsistentEndpointsError, NonConvergenceError,
    InadmissibleOrbitError, InconsistentJumpPairError, StiffnessError,
    InsufficientDataError,
)
from .lambertw import Branch, lambert_w
from .model import (
    UnscaledParams, Params, State, ManifoldTag, ScalingMap, rescale,
    vector_field, full_rhs, slow_rhs, fast_heteroclinic, conserved_quantity,
    h0, h1, full_integral, coexistence_equilibrium, characteristic_roots,
)
from .orbit import (
    Anchor, JumpPair, SingularOrbit, FamilyRow, FamilyTable,
    lv_branch, extrema, eliminate, travel_time_M1, travel_time_M0,
    existence_residual, solve_jump_points, scan_family,
    trait_pressure_balance, solve_balanced_orbit, assemble_singular_orbit,
)
from .simulate import (
    SimConfig, Trajectory, JumpEvent, integrate, iter_continue_in_eps, continue_in_eps,
    default_continuation_schedule, detect_jump_events, closeness_check,
)
from .analysis import (
    Extremum, ExtremaList, SyncLabel, Orientation, SyncClass,
    find_extrema, classify_synchronization, classify_orientation,
    effective_jump_pair, classification_report,
)

__version__ = "0.1.0"
