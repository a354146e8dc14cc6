"""Quadratic stochastic operators on finite simplices: order certificates,
fixed-point analysis, contraction criteria, and the Markov measures they
generate."""

__version__ = "0.1.0"

from .simplex import (
    SimplexPoint,
    OrderVerdict,
    SimplexError,
    DimensionMismatch,
    make_point,
    partial_sum,
    b_leq,
    l1_distance,
    sample_simplex,
    grid_simplex,
    terminal_vertex,
    vertex,
)
from .operator import (
    HeredityTensor,
    QsoOperator,
    TensorError,
    TrajectoryResult,
    FixedPointSet,
    tensor_from_entries,
    make_operator,
    evaluate,
    trajectory,
    reduced_jacobian,
    vertex_eigenvalues,
    find_fixed_points,
)
from .classify import (
    check_necessary_bbistochastic,
    verify_bbistochastic_numeric,
    check_uniqueness_conditions,
    classify_vertex_stability,
    strict_contraction_general,
    strict_contraction_1d,
    strict_contraction_2d,
    classify_operator,
)
from .markov import (
    TransitionFamily,
    CylinderSet,
    MixingSeries,
    shift_cylinder,
    cylinder_measure,
    mixing_gap,
    mixing_series,
)
from .abscont import (
    VaParams,
    CylinderClass,
    RNSeriesReport,
    va_operator,
    va_transition_closed_form,
    va_cylinder_closed_form,
    conditional_expectation_term,
    rn_series,
)
