"""Exact-integer engine for the birational geometry of Coble-type rational
surfaces: blow-up lattices, curve-configuration genus arithmetic, Cremona
reduction of plane curves, negative-class enumeration, Kodaira fiber
recognition, and the associated classification predicates.
"""

from .lattice import (
    Base,
    DivisorClass,
    Hirzebruch,
    IntersectionLattice,
    LatticeMismatch,
    P2,
    arithmetic_genus,
    canonical_orthogonal_basis,
    make_lattice,
    pair,
    reflect,
    riemann_roch_chi,
    weighted_sum,
)
from .config import (
    UNDETERMINED,
    CurveConfiguration,
    DecompositionBudgetError,
    Edge,
    Node,
    Undetermined,
    check_snc,
    config_from_json,
    divisor_pa,
    is_numerically_k_connected,
    loop_inequality_check,
    pa_sum_formula_check,
)
from .fibers import FIBER_NAMES, fiber_euler_number, kodaira_fiber, recognize_fiber
from .blowup import (
    BlowUpSequence,
    Center,
    CurveAssignment,
    configuration_from_classes,
    make_assignment,
    proper_transform,
    total_transform,
)
from .cremona import (
    MultiplicityVector,
    ReductionBudgetExceeded,
    ReductionError,
    ReductionResult,
    TransformNotAdmissible,
    from_class,
    low_degree_rational_family,
    make_vector,
    noether_reduce,
    parse_vector,
    quadratic_transform,
    quintic_transform,
    to_class,
)
from .negcurves import (
    enumerate_negative_classes,
    exceptional_pairing_growth,
)
from .classify import (
    Component,
    MarkedPoint,
    RationalCaseReport,
    RationalTypeInput,
    halphen_k3_predicate,
    input_from_json,
    is_k3_type,
    jacobian_bound_check,
    log_enriques_shape,
    match_rational_case,
    minimality_check,
    terminal_shape,
)
from .constructions import BUILDERS
from .catalog import catalog_names, catalog_summary, verify_example

__version__ = "0.1.0"
