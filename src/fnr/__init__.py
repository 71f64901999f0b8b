"""Numerical range of Foguel operators with scalar coupling.

Three independent routes to the same convex region, cross-validated:

* :mod:`fnr.boundary` -- closed-form support function, circle/sextic boundary
  arcs, switching points, membership tests, and the deviation from the
  comparison ellipse;
* :mod:`fnr.truncation` -- finite matrix compressions whose top eigenvalues
  approach the support function from below, plus a brute-force scan of the
  underlying singularity condition;
* :mod:`fnr.exact` -- exact rational arithmetic reproducing the elimination
  that produces the sextic, certified by interpolation with held-out
  validation.

The ``fnr`` command line tool renders the supporting-line and boundary
figures and runs the verification suites; see :mod:`fnr.cli`.
"""

from .boundary import (
    BoundaryPoint,
    Branch,
    FoguelParams,
    RangeInterval,
    Region,
    SupportLine,
    UnitDiskDegeneracyError,
    admissible_offset_intervals,
    angle_grid,
    boundary_curve,
    classify_point,
    ellipse_axes,
    ellipse_distance,
    ellipse_gap,
    envelope_point,
    selected_branch,
    sextic_scale,
    sextic_value,
    support_function,
    support_line,
    switching_cosine,
    symbol_range,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .exact import (
    ExactPoly,
    ResultantReport,
    envelope_system,
    mutated_sextic,
    resultant,
    resultant_at,
    sextic_polynomial,
    verify_sextic_resultant_identity,
)
from .truncation import (
    ConditionNotSatisfiedError,
    EigensolverError,
    HermitianRotation,
    TruncatedOperator,
    boundary_from_truncation,
    default_offset_grid,
    foguel_truncation,
    support_function_via_condition,
    symbol_range_grid,
    top_eigenvalue,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BoundaryPoint",
    "Branch",
    "FoguelParams",
    "RangeInterval",
    "Region",
    "SupportLine",
    "UnitDiskDegeneracyError",
    "admissible_offset_intervals",
    "angle_grid",
    "boundary_curve",
    "classify_point",
    "ellipse_axes",
    "ellipse_distance",
    "ellipse_gap",
    "envelope_point",
    "selected_branch",
    "sextic_scale",
    "sextic_value",
    "support_function",
    "support_line",
    "switching_cosine",
    "symbol_range",
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "ExactPoly",
    "ResultantReport",
    "envelope_system",
    "mutated_sextic",
    "resultant",
    "resultant_at",
    "sextic_polynomial",
    "verify_sextic_resultant_identity",
    "ConditionNotSatisfiedError",
    "EigensolverError",
    "HermitianRotation",
    "TruncatedOperator",
    "boundary_from_truncation",
    "default_offset_grid",
    "foguel_truncation",
    "support_function_via_condition",
    "symbol_range_grid",
    "top_eigenvalue",
]
