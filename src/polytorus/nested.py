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

from .errors import (
    CapacityError,
    ConstructionError,
    DomainError,
    PlanError,
)
from .kronecker import KroneckerProblem, solve
from .measures import (
    DEFAULT_ATOM_CAP,
    AtomicLineMeasure,
    GrowthSchedule,
    TorusPointMassMeasure,
)
from .polynomials import TorusPolynomial, bohr_unlift, eval_dirichlet
from .primes import PrimeBasis


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


def _space_averages(polys, mu: TorusPointMassMeasure) -> list[float]:
    from .averages import point_mass_space_average

    return [point_mass_space_average(F, mu) for F in polys]


class _SourceBlock:
    """Atoms placed for one source measure inside the current window."""

    __slots__ = ("times", "weights", "reps")

    def __init__(self):
        self.times: list[float] = []
        self.weights: list[float] = []
        self.reps: list[int] = []

    def worst_error(self, dirichlet_polys, targets) -> float:
        w = np.asarray(self.weights)
        times = np.asarray(self.times)
        mass = math.fsum(self.weights)
        worst = 0.0
        for f, target in zip(dirichlet_polys, targets):
            mean = math.fsum(np.abs(eval_dirichlet(f, 0.0, times)) ** 2 * w) / mass
            worst = max(worst, abs(mean - target))
        return worst


def build_nested_lambda(
    plan: NestedConstructionPlan,
    levels: int,
    growth: GrowthSchedule | None = None,
    solver_budget: int = 10**8,
    *,
    method: str = "auto",
    atom_cap: int = DEFAULT_ATOM_CAP,
    max_repetitions_per_window: int = 64,
) -> tuple[AtomicLineMeasure, NestedConstructionPlan]:
    """Run the windowed construction; returns the measure and completed plan.

    Every window is extended (by whole repetitions, escalating Kronecker
    depth) until each source's windowed mean sits within ``2^{-k}`` of its
    space average for every test polynomial; the realized grid and estimates
    are recorded on the returned plan copy.
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
        _space_averages(polys, mu) for mu in plan.mu_sequence[:sources_needed]
    ]
    margin = _depth_margin(polys, dimension)

    atoms_t: list[float] = []
    atoms_w: list[float] = []
    atoms_level: list[int] = []
    atoms_source: list[int] = []
    atoms_rep: list[int] = []

    grid_by_level: list[tuple[float, ...]] = []
    estimates_by_level: list[tuple[float, ...]] = []
    level_end: list[float] = []
    masses: list[float] = []

    t_cursor = 0.0
    placed = 0  # atoms solved so far, merged or still in an open window
    prev_total = 1.0  # formal mass of the empty level 0
    for k in range(1, levels + 1):
        n_sources = growth(k)
        n_windows = int(round(prev_total)) if k > 1 else 1
        tolerance = 2.0**-k
        depth = k + margin
        eps_atom = 2.0**-depth
        step = eps_atom / (2.0 * float(basis.logs[min(depth, dimension) - 1]))
        grid = [t_cursor]
        estimates = []
        for window_index in range(1, n_windows + 1):
            blocks = [_SourceBlock() for _ in range(n_sources)]
            pending = list(range(n_sources))
            rounds = 0
            while pending:
                rounds += 1
                if rounds > max_repetitions_per_window:
                    raise ConstructionError(
                        "window failed to reach tolerance "
                        f"{tolerance} after {rounds - 1} repetitions",
                        level=k,
                    )
                if rounds > 1 and rounds % 4 == 0:
                    depth += 1
                    eps_atom = 2.0**-depth
                for j in pending:
                    mu_j = plan.mu_sequence[j]
                    block = blocks[j]
                    for omega, c in mu_j.atoms:
                        problem = KroneckerProblem(
                            basis=basis,
                            k=min(depth, dimension),
                            targets=omega.angles[: min(depth, dimension)],
                            eps=eps_atom,
                            t_min=t_cursor,
                        )
                        try:
                            sol = solve(problem, solver_budget, method=method)
                        except Exception as exc:
                            raise ConstructionError(
                                f"solver failed: {exc}",
                                level=k, source=j + 1, repetition=rounds,
                            ) from exc
                        block.times.append(sol.t)
                        block.weights.append(c)
                        block.reps.append(rounds)
                        t_cursor = sol.t
                        placed += 1
                        if placed > atom_cap:
                            raise CapacityError(
                                f"nested construction exceeded the atom cap of {atom_cap}"
                            )
                    t_cursor += step
                pending = [
                    j for j in pending
                    if blocks[j].worst_error(dirichlet_polys, space_averages[j])
                    >= tolerance
                ]
            # close the window: record the estimate and merge normalized blocks
            worst = 0.0
            merged = []
            for j, block in enumerate(blocks, start=1):
                worst = max(
                    worst, block.worst_error(dirichlet_polys, space_averages[j - 1])
                )
                mass = math.fsum(block.weights)
                merged.extend(
                    (t_i, w_i / mass, k, j, m_i)
                    for t_i, w_i, m_i in zip(block.times, block.weights, block.reps)
                )
            merged.sort(key=lambda item: item[0])
            for t_i, w_i, k_i, j_i, m_i in merged:
                atoms_t.append(t_i)
                atoms_w.append(w_i)
                atoms_level.append(k_i)
                atoms_source.append(j_i)
                atoms_rep.append(m_i)
            estimates.append(worst)
            grid.append(t_cursor)
        grid_by_level.append(tuple(grid))
        estimates_by_level.append(tuple(estimates))
        level_end.append(t_cursor)
        total = (prev_total if k > 1 else 0.0) + n_windows * n_sources
        masses.append(total)
        prev_total = total

    measure = AtomicLineMeasure(
        atoms_t, atoms_w, atoms_level, atoms_source, atoms_rep,
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
