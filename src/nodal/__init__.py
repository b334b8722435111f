"""Conductor ideals and regularity bookkeeping for singular plane curves.

The package computes over F_p (default p = 32003): polynomial arithmetic and
monomial orders in `ring`, Groebner engines and syzygies in `groebner`, ideal
operations in `ideals`, free resolutions and Hilbert functions in `resolution`
and `hilbert`, the conductor pipelines in `curves`, and the statement
validators behind the command line in `validators`.
"""

from .errors import (
    CharacteristicError,
    DegreeCapExceeded,
    ExponentLimitError,
    InvariantViolation,
    NodalError,
    NonNodalCurveError,
    ParseError,
    RetryBudgetExceeded,
    RingMismatchError,
)
from .ring import (
    DEFAULT_DEGREE_CAP,
    Grevlex,
    Lex,
    Polynomial,
    Ring,
    parse_polynomial,
)
from .groebner import (
    FreeModuleShape,
    GroebnerBasis,
    ModuleElement,
    PositionOverTerm,
    groebner_basis,
    macaulay_gb,
    normal_form,
    syzygy_generators,
)
from .ideals import (
    Ideal,
    codimension,
    curve_is_squarefree,
    ideal_product,
    ideal_sum,
    indeg,
    intersect,
    points_are_reduced,
    quotient,
    saturate,
    saturate_irrelevant,
    scheme_length,
    symbolic_square,
)
from .resolution import (
    FreeResolution,
    resolve_ideal,
    resolve_presented,
    resolve_quotient,
)
from .hilbert import (
    cm_regularity_crosscheck,
    hilbert_function,
)
from .report import BettiTable, VerdictReport, betti_table
from .curves import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    ConductorReport,
    CurveComponent,
    CurveSpec,
    Fixture,
    conductor_from_components,
    conductor_nodal,
    default_ring,
    determinantal_points,
    intersection_points_ideal,
    jacobian_ideal,
    nodal_curve_through,
    parse_fixture,
    rational_curve_implicitize,
)
from .validators import (
    STATEMENTS,
    adjoint_completeness_check,
    conductor_sequence_check,
    jacobian_syzygy_analysis,
    linkage_regularity,
    partial_normalization_report,
    run_statement,
    verify_regularity_theorem,
)

__version__ = "0.1.0"
