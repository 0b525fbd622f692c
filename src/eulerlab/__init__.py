"""Desk-scale numerical laboratory for incompressible Euler uniqueness criteria.

Subsystems: spectral fields and calculus (:mod:`~eulerlab.grid_fields`),
mollification (:mod:`~eulerlab.mollify`), Besov statistics
(:mod:`~eulerlab.besov`), synthetic fields (:mod:`~eulerlab.synth`),
commutator scaling (:mod:`~eulerlab.commutator`), the pseudo-spectral Euler
solver (:mod:`~eulerlab.solver`), relative-energy certification
(:mod:`~eulerlab.uniqueness`), variable-density and Boussinesq extensions
(:mod:`~eulerlab.extensions`), persistence (:mod:`~eulerlab.snapshots`), and
the experiment runner (:mod:`~eulerlab.cli`).
"""

from .errors import (
    ConfigurationError,
    EulerLabError,
    GridMismatchError,
    PoissonConvergenceError,
    SolverAbort,
    StepSizeError,
)
from .grid_fields import (
    Field,
    PeriodicGrid,
    ScalarField,
    VelocityField,
    curl_2d,
    divergence,
    gradient,
    gradient_tensor,
    inner,
    leray_project,
    lp_norm,
    make_grid,
    max_norm,
    resample,
)
from .mollify import MollifierKernel, epsilon_problem, make_kernel, mollify
from .besov import (
    BesovEstimate,
    besov_seminorm,
    fit_regularity_exponent,
    translation_difference_norm,
)
from .synth import (
    SynthSpec,
    field_from_spec,
    lacunary_field,
    low_mode_divfree,
    low_mode_scalar,
    random_divfree,
    rigid_rotation_gradient,
    shear_flow,
    taylor_green,
    taylor_green_pressure,
)
from .commutator import (
    ScalingReport,
    cet_trilinear,
    convective_commutator,
    scaling_experiment,
    transport_commutator,
)
from .solver import (
    PairAudit,
    State,
    TimeProfile,
    Trajectory,
    WeakTestFunction,
    admissibility_check,
    cosine_window,
    enstrophy,
    kinetic_energy,
    linear_window,
    recover_pressure,
    solve,
    weak_residual,
    weak_residuals,
)
from .uniqueness import (
    GronwallCertificate,
    LipschitzSeries,
    RelativeEnergySeries,
    RunConfig,
    UniquenessReport,
    gronwall_certify,
    lipschitz_from_gradient,
    one_sided_lipschitz,
    relative_energy,
    uniqueness_experiment,
)
from .extensions import (
    boussinesq_solve,
    boussinesq_uniqueness_experiment,
    density_contraction_check,
    inhom_solve,
    inhom_uniqueness_experiment,
)
from .snapshots import load_trajectory, read_field, save_trajectory, write_field

__version__ = "0.1.0"
