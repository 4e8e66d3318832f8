"""Nested measure construction over an approximating sequence of point masses.

The point-mass builder handles a single measure ``mu``.  For a general target
approximated by a sequence of point-mass measures ``mu_1, mu_2, ...`` the
half-line is instead divided into windows: at level ``k`` the construction
runs ``||lambda^{(k-1)}||`` windows, each containing, for every source
measure ``mu_j`` with ``j <= growth(k)``, a block of atoms whose windowed
time mean matches the space average of ``mu_j`` to within ``2^{-k}`` for
every polynomial of a supplied test family.  Each source's block is
normalized to unit mass inside its window, so the cumulative mass obeys the
same ``(growth(k) + 1)`` recursion as the point-mass case.

The guarantee is relative to the supplied test family: a countable dense
family is not finitely representable, so callers choose the polynomials they
care about and the builder certifies exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .averages import point_mass_space_average
from .errors import CapacityError, ConstructionError, DomainError, PlanError
from .kronecker import solve  # unused here; a name bench/tracing.py rebinds
from .measures import (
    DEFAULT_ATOM_CAP,
    AtomicLineMeasure,
    GrowthSchedule,
    TorusPointMassMeasure,
    _level_plan,
    atom_search,
    place_repetitions,
    scan_step,
    weighted_mean_square,
)
from .polynomials import TorusPolynomial, bohr_unlift
from .polynomials import eval_dirichlet  # unused here; a name bench/tracing.py rebinds
from .primes import PrimeBasis

# Rounds (repetitions) a window may take before the construction gives up.
MAX_ROUNDS_PER_WINDOW = 64


@dataclass(frozen=True)
class NestedConstructionPlan:
    """Inputs and, after building, the realized window grid.

    ``mu_sequence`` supplies the approximating measures; level ``k`` consumes
    the first ``growth(k)`` of them.  ``window_boundaries[k-1]`` is the grid
    ``[T_k^(0), T_k^(1), ...]`` realized at level ``k`` and
    ``window_estimates[k-1][l-1]`` the worst deviation recorded in window
    ``l`` over all test polynomials and sources.
    """

    mu_sequence: tuple[TorusPointMassMeasure, ...]
    test_polynomials: tuple[TorusPolynomial, ...]
    window_boundaries: tuple[tuple[float, ...], ...] = ()
    window_estimates: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mu_sequence", tuple(self.mu_sequence))
        object.__setattr__(self, "test_polynomials", tuple(self.test_polynomials))
        if not self.mu_sequence:
            raise PlanError("mu_sequence must not be empty")
        if not self.test_polynomials:
            raise PlanError("test_polynomials must not be empty")
        dims = {mu.dimension for mu in self.mu_sequence}
        if len(dims) != 1:
            raise PlanError(f"mu_sequence has mixed dimensions {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.mu_sequence[0].dimension


def _depth_margin(polys, dimension: int) -> int:
    """Extra Kronecker depth so atom-level chord error undershoots 2^{-k}.

    A level-q atom keeps each controlled coordinate within a chord of
    ``2^{-q+1}``, so ``|F|^2`` moves by at most ``L * sqrt(d) * 2^{-q+1}``.
    Choosing ``q = k + margin`` with ``margin = 2 + log2(max(1, L sqrt(d)))``
    pushes that below ``2^{-k-1}`` for every polynomial in the family.
    """
    worst = max(F.lipschitz_square_bound() for F in polys)
    scale = max(1.0, worst * math.sqrt(dimension))
    return 2 + max(0, math.ceil(math.log2(scale)))


class _SourceBlock:
    """Atoms placed for one source measure inside the current window, one
    array of times per round.  ``error`` is the worst deviation as of the last
    :meth:`measure`; a block that meets the tolerance gets no more atoms, so
    its error is then final."""

    __slots__ = ("times", "weights", "error")

    def __init__(self, weights):
        self.times: list[np.ndarray] = []
        self.weights = weights
        self.error = math.inf

    def columns(self):
        """The block's atom times and weights, in order of ``t``."""
        return np.concatenate(self.times), np.tile(self.weights, len(self.times))

    def measure(self, dirichlet_polys, targets) -> float:
        times, w = self.columns()
        self.error = max(
            abs(weighted_mean_square(f, times, w) - target)
            for f, target in zip(dirichlet_polys, targets)
        )
        return self.error


def build_nested_lambda(
    plan: NestedConstructionPlan,
    levels: int,
    growth: GrowthSchedule | None = None,
    solver_budget: int = 10**8,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> tuple[AtomicLineMeasure, NestedConstructionPlan]:
    """Run the windowed construction; returns the measure and completed plan.

    Every window is extended (by whole repetitions, escalating Kronecker
    depth) until each source's windowed mean sits within ``2^{-k}`` of its
    space average for every test polynomial; the realized grid and estimates
    are recorded on the returned plan copy.  Each atom of a source measure
    has one :func:`~polytorus.measures.atom_search` per depth, called once
    per repetition by :func:`~polytorus.measures.place_repetitions`.
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    growth = growth or GrowthSchedule.default()
    sources_needed = max(growth(k) for k in range(1, levels + 1))
    if len(plan.mu_sequence) < sources_needed:
        raise PlanError(
            f"plan supplies {len(plan.mu_sequence)} measures but level schedule "
            f"needs {sources_needed}"
        )
    dimension = plan.dimension
    basis = PrimeBasis(dimension)
    polys = list(plan.test_polynomials)
    for F in polys:
        if F.max_index_length > dimension:
            raise PlanError(
                f"test polynomial uses {F.max_index_length} coordinates but the "
                f"measures live on dimension {dimension}"
            )
    dirichlet_polys = [bohr_unlift(F) for F in polys]
    space_averages = [
        [point_mass_space_average(F, mu) for F in polys]
        for mu in plan.mu_sequence[:sources_needed]
    ]
    margin = _depth_margin(polys, dimension)

    merged: list[tuple] = []  # per window: t, w, level, source, rep, in order of t
    grid_by_level: list[tuple[float, ...]] = []
    estimates_by_level: list[tuple[float, ...]] = []
    level_end: list[float] = []
    # Level k places M_k = growth(k) * ||lambda^(k-1)|| unit-mass blocks, one
    # per window and source, so its window count is M_k / growth(k).
    reps_per_level, masses = _level_plan(levels, growth)

    t_cursor = 0.0
    placed = 0  # atoms solved so far, merged or still in an open window
    searches = {}  # (depth, source index) -> one (search, j) per atom of the source
    for k in range(1, levels + 1):
        n_sources = growth(k)
        n_windows = reps_per_level[k - 1] // n_sources
        tolerance = 2.0**-k
        depth = k + margin  # escalations carry over to the level's later windows
        step = scan_step(basis, depth)  # fixed at the level's starting depth
        grid = [t_cursor]
        estimates = []
        for _ in range(n_windows):
            blocks = [_SourceBlock(plan.mu_sequence[j].weights) for j in range(n_sources)]
            placements = []  # (times, source index, round), in order of t
            pending = list(range(n_sources))
            rounds = 0
            while pending:
                rounds += 1
                if rounds > MAX_ROUNDS_PER_WINDOW:
                    raise ConstructionError(
                        "window failed to reach tolerance "
                        f"{tolerance} after {rounds - 1} repetitions",
                        level=k,
                    )
                if rounds > 1 and rounds % 4 == 0:
                    depth += 1
                for j in pending:
                    if (depth, j) not in searches:
                        searches[depth, j] = [
                            (atom_search(basis, depth, omega, solver_budget), j + 1)
                            for omega in plan.mu_sequence[j].points
                        ]
                    times, t_cursor = place_repetitions(
                        searches[depth, j], range(rounds, rounds + 1), t_cursor, step, k)
                    blocks[j].times.append(times)
                    placements.append((times, j, rounds))
                    placed += len(times)
                    if placed > atom_cap:
                        raise CapacityError(
                            f"nested construction exceeded the atom cap of {atom_cap}"
                        )
                pending = [
                    j for j in pending
                    if blocks[j].measure(dirichlet_polys, space_averages[j])
                    >= tolerance
                ]
            # close the window: record the estimate and merge the placements,
            # each block's weights normalized to unit mass
            unit = [np.divide(block.weights, math.fsum(block.columns()[1])) for block in blocks]
            times, sources, reps = zip(*placements)
            counts = [len(t) for t in times]
            merged.append((np.concatenate(times), np.concatenate([unit[j] for j in sources]),
                            np.full(sum(counts), k), np.repeat(np.add(sources, 1), counts),
                            np.repeat(reps, counts)))
            estimates.append(max(block.error for block in blocks))
            grid.append(t_cursor)
        grid_by_level.append(tuple(grid))
        estimates_by_level.append(tuple(estimates))
        level_end.append(t_cursor)

    measure = AtomicLineMeasure(
        *(np.concatenate(column) for column in zip(*merged)),
        level_boundaries=level_end,
        total_mass_by_level=masses,
        growth_name=growth.name,
    )
    completed = replace(
        plan,
        window_boundaries=tuple(grid_by_level),
        window_estimates=tuple(estimates_by_level),
    )
    return measure, completed
