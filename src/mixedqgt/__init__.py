"""Mixed-state geometric tensor, Bures geodesics and Uhlmann holonomy.

The toolkit works on the purification bundle over full-rank density
matrices: states and purifications (``states``), the bundle connection
and covariant derivative (``bundle``), the geometric tensor along two
independent routes (``qgt``), horizontal geodesics (``geodesics``),
parallel transport and holonomy (``transport``), parametrized families
(``models``) and a sweep CLI (``cli``).
"""

from .errors import (
    AngleOutOfRangeError,
    CoarseGridError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    InconsistentStencilError,
    InvalidDensityAtNodeError,
    MixedQGTError,
    NoAnalyticDerivativesError,
    NonHermitianDerivativeError,
    NotClosedError,
    NotHermitianError,
    NotPSDError,
    NotQubitError,
    NotUnitaryError,
    OutOfDomainError,
    RankDeficientError,
    SchemaError,
    TraceNotOneError,
    ValidationError,
)
from .states import (
    DensityMatrix,
    DensityStack,
    Purification,
    SchmidtDecomposition,
    bures_angle,
    bures_distance,
    density_violations,
    fidelity,
    fix_phase,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    partial_trace_env,
    partial_trace_sys,
    psd_sqrt,
    purify,
    schmidt,
    sorted_eigh,
)
from .bundle import (
    EnvOperator,
    SchmidtDerivative,
    TangentVector,
    connection,
    connection_schmidt,
    covariant_derivative,
    env_action,
    env_expectation,
    finite_difference_tangent,
    gauge_transform_curve,
    horizontal_project,
    lyapunov_superop,
    real_inner,
    schmidt_curve_derivative,
    vertical_project,
)
from .qgt import (
    CurvatureTensor,
    QGTensor,
    ThermalSweepResult,
    bures_metric,
    gauge_curvature,
    mean_curvature_part,
    msqgt_covariant_route,
    msqgt_eigenroute,
    pure_qgt,
    qgt_to_json,
    thermal_limit_sweep,
)
from .geodesics import (
    BlochEllipseReport,
    GeodesicSolution,
    bloch_ellipse_check,
    geodesic_point,
    geodesic_purification,
    geodesic_samples,
    geodesic_tangent,
    path_length,
    solve_geodesic,
    verify_geodesic_ode,
)
from .transport import (
    HolonomyResult,
    LiftedCurve,
    gauge_conjugation_check,
    holonomy,
    holonomy_report_json,
    horizontal_lift,
    lift_fidelity_residuals,
    reference_lift,
)
from .models import (
    BlochQubitModel,
    ChartLoop,
    GridModel,
    ModelFamily,
    ThermalModel,
    derivatives,
    export_grid_model,
    load_grid_model,
    rotated_field_qubit,
)

__version__ = "0.1.0"
