"""blowdyn: blow-up charts and parabolic dynamics for germs whose linear
part is a single invertible non-diagonalizable Jordan arrangement.

The package follows one pipeline:

    structure -> charts -> lifted map -> quadratic data -> directions/orbits

with an exact Gaussian-rational backend for everything algebraic and
mpmath-based big floats for orbit work.
"""

from .errors import (
    BlowdynError,
    DivisionObstruction,
    ZeroCoordinate,
    NoAllowableDirection,
    DegenerateDirection,
    UnsupportedSpectrum,
    NonGeneric,
    GenericInput,
    NotJordan,
    SchemaError,
    JordanMismatch,
    NonConvergent,
    PreconditionViolated,
    InsufficientData,
)
from .scalars import (
    GaussianRational,
    parse_scalar,
    format_scalar,
)
from .partition import JordanStructure, Splitting, build_structure, splitting, flag_generators
from .series import (
    TruncatedSeries,
    PolyMapGerm,
    series_add,
    series_multiply,
    series_compose,
    series_reciprocal,
    monomial_divide,
    monomial_multiply,
    germ_solve,
    germ_inverse,
    identity_germ,
)
from .blowup import (
    ProjectionFormulas,
    projection_formulas,
    pi_forward,
    pi_inverse,
    on_singular_divisor,
)
from .lifting import (
    InputGerm,
    LiftedMap,
    germ_from_terms,
    jordan_matrix,
    lift,
    lifted_linear_part,
    lifted_quadratic_part,
    expected_eigenvalue_multiset,
    predicted_quadratic_table,
    compare_quadratic_with_prediction,
    semiconjugacy_residual,
    verify_semiconjugacy,
)
from .normalform import (
    NormalFormResult,
    Invariants2D,
    normal_form,
    epsilon_vector,
    leading_epsilon_column,
    invariants_2d,
)
from .dynamics import (
    CharDirection,
    HakimData,
    OrbitTrace,
    AsymptoticRow,
    AsymptoticFit,
    RegularityReport,
    ClassificationReport,
    characteristic_directions,
    hakim_matrix,
    expected_asymptotics,
    orbit_iterate,
    profile_point,
    standard_orbit_seed,
    asymptotic_fit,
    regularity_classify,
    cesaro_limit,
    parabolic_classification,
    planar_classification,
    projective_distance,
)

__version__ = "0.1.0"
