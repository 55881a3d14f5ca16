"""Ruler-and-compass circle division toolkit.

Geometric kernel, construction DSL, the Bion/Tempier approximate n-gon
methods with their error analysis, Gauss-Wantzel constructibility, and
deterministic SVG rendering.
"""

from .geometry import (
    BadIndex,
    Circle,
    CoincidentCurves,
    Curve,
    DegenerateAngle,
    GeometryError,
    Line,
    Point,
    VesicaError,
    angle,
    distance,
    divide_segment,
    intersect,
    rotate,
)
from .dsl import (
    DuplicateName,
    EvalError,
    Figure,
    ParseError,
    Program,
    SelectorEmpty,
    UnknownName,
    evaluate,
    format_program,
    parse,
)
from .methods import (
    DomainError,
    ErrorRow,
    Method,
    PolygonResult,
    RectificationResult,
    UnsupportedN,
    best_method,
    bion_angle,
    bion_program,
    error_table,
    exact_rectifier_distance,
    method_angle,
    method_program,
    polygon,
    rectified_quadrant,
    relative_error_limit,
    tempier_angle,
    tempier_program,
)
from .constructible import (
    ConstructibilityVerdict,
    Obstruction,
    check,
    constructible_up_to,
    is_fermat_prime,
)
from .svg import EmptyFigure, render_polygon, render_svg

__version__ = "0.1.0"
