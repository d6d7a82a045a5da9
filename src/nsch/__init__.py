"""nsch: a membrane-fluid phase-field solver suite with adjoint-based
optimal control.

The package couples incompressible flow with a sixth-order convective
Cahn-Hilliard equation on a rectangle (MAC staggered grid, cosine/sine
spectral solves), and layers on top of the forward solver:

* a sensitivity (linearized) solver, the exact Jacobian of the stepper;
* a backward adjoint solver supplying reduced cost gradients;
* projected-gradient descent over box-constrained body forces;
* a verification harness for the model identities (mass, energy, Frechet,
  duality, gradient).
"""

from .adjoint import AdjointState, adjoint_step, adjoint_terminal, solve_adjoint
from .constitutive import (
    CostSpec,
    PhysParams,
    constraint_integrals,
    free_energy,
    linearized_chemical_potentials,
    mu_of_phi,
    omega_of_phi,
    potential_F,
    potential_f,
    potential_fp,
    potential_fpp,
)
from .control import (
    ControlBounds,
    ControlProblem,
    OptimReport,
    OptimizerOptions,
    StopReason,
    evaluate_cost,
    optimize,
    project_admissible,
    random_smooth_facefield,
    reduced_gradient,
    smooth_control_series,
    smooth_direction,
    stationarity_residual,
)
from .errors import (
    BlowUpError,
    ConfigError,
    IncompatibleMeanError,
    NschError,
    SingularSymbolError,
)
from .grid import (
    FaceField,
    GridSpec,
    ScalarField,
    advect_scalar,
    divergence_of_faces,
    face_inner,
    gradient_to_faces,
    helmholtz_poly_solve,
    laplacian,
    laplacian_eigenvalues,
    poisson_neumann,
    project_divergence_free,
    scalar_inner,
)
from .linearized import linearized_step, solve_linearized
from .state import (
    State,
    StepSeries,
    TimeSpec,
    Trajectory,
    ch_step,
    energy_balance_residual,
    ns_step,
    simulate,
)
from .verification import VerifyReport, verify

__version__ = "0.1.0"
