"""Dirichlet polynomials, the Bohr lift, and ergodic means on the polytorus.

The library builds atomic measures on the half-line whose normalized time
means of ``|f(it)|^2`` converge to prescribed space averages of ``|F|^2`` on
the polytorus, and verifies vertical-line mean convergence at ``sigma > 0``
in closed form.
"""

__version__ = "0.1.0"

from .averages import (
    ConvergenceRecord,
    ConvergenceRow,
    MomentPair,
    atomic_time_mean,
    boundary_mean_error_bound,
    convergence_sweep,
    lebesgue_space_average,
    point_mass_space_average,
    recover_moments,
)
from .errors import (
    BudgetExhaustedError,
    CapacityError,
    ConstructionError,
    DimensionError,
    DomainError,
    EmptyMeasureError,
    FrequencyOverflowError,
    ParseError,
    PlanError,
    PolytorusError,
    WindowRepresentationError,
)
from .kronecker import (
    KroneckerProblem,
    KroneckerSolution,
    circle_distance,
    lattice_solve,
    residuals,
    scan_solve,
    solve,
)
from .measures import (
    AtomicLineMeasure,
    GrowthSchedule,
    TorusPointMassMeasure,
    WindowCheckResult,
    atoms_from_bytes,
    atoms_to_bytes,
    build_point_mass_lambda,
    empty_measure,
    load_atoms,
    save_atoms,
    weighted_mean_square,
    window_check,
    windowed_time_means,
)
from .nested import NestedConstructionPlan, build_nested_lambda
from .polynomials import (
    DirichletPolynomial,
    MultiIndex,
    TorusPoint,
    TorusPolynomial,
    bohr_lift,
    bohr_unlift,
    carlson_target,
    cross_term_envelope,
    eval_dirichlet,
    eval_torus,
    factor_over_basis,
    flow_angles,
    flow_point,
    lebesgue_line_mean,
    minimal_basis,
)
from .primes import PrimeBasis, first_primes

__all__ = [name for name in dir() if not name.startswith("_")]
