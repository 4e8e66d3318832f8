"""Time means, space averages, convergence sweeps, and moment recovery.

The central identity under test: the normalized time mean of ``|f(it)|^2``
against a constructed line measure converges to the space average of the
lifted ``|F|^2`` against the torus measure the construction chased.  On
vertical lines ``sigma > 0`` the Lebesgue mean converges to
``sum |a_n|^2 n^{-2 sigma}`` instead, with an exact closed form available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import exact_sum
from .errors import DimensionError, DomainError, EmptyMeasureError
from .measures import AtomicLineMeasure, TorusPointMassMeasure, weighted_mean_square
from .polynomials import (
    DirichletPolynomial,
    MultiIndex,
    TorusPolynomial,
    _BOUND_SLACK,
    _Powers,
    _mean_kernel,
    bohr_lift,
    eval_torus,
    lebesgue_line_mean,
)
from .polynomials import eval_dirichlet  # unused here; a name bench/tracing.py rebinds
from .primes import PrimeBasis


def atomic_time_mean(f: DirichletPolynomial, lam: AtomicLineMeasure, T: float) -> float:
    """``(sum_{t_i <= T} w_i |f(i t_i)|^2) / (sum_{t_i <= T} w_i)`` at ``sigma = 0``,
    via :func:`~polytorus.measures.weighted_mean_square`."""
    inside = lam.t <= T
    if not inside.any():
        raise EmptyMeasureError(f"no mass in [0, {T}]")
    return weighted_mean_square(f, lam.t[inside], lam.w[inside])


def point_mass_space_average(F: TorusPolynomial, mu: TorusPointMassMeasure) -> float:
    """``sum_j c_j |F(omega_j)|^2``."""
    if mu.dimension < F.max_index_length:
        raise DimensionError(
            f"measure of dimension {mu.dimension} cannot integrate a polynomial "
            f"using {F.max_index_length} coordinates"
        )
    return math.fsum(
        c * abs(eval_torus(F, omega)) ** 2 for omega, c in mu.atoms
    )


def lebesgue_space_average(F: TorusPolynomial) -> float:
    """Parseval: the Haar-measure average of ``|F|^2`` is ``sum |a_alpha|^2``."""
    return math.fsum(abs(a) ** 2 for a in F.terms.values())


@dataclass(frozen=True)
class ConvergenceRow:
    T: float
    time_mean: float
    target: float
    abs_error: float


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-T means against a fixed target, sorted by T."""

    rows: tuple[ConvergenceRow, ...]

    def final_error(self) -> float:
        return self.rows[-1].abs_error

    def errors(self) -> tuple[float, ...]:
        return tuple(row.abs_error for row in self.rows)


def convergence_sweep(
    f: DirichletPolynomial,
    lam: AtomicLineMeasure | None,
    target: float,
    t_grid,
    *,
    sigma: float = 0.0,
) -> ConvergenceRecord:
    """Tabulate time means over an increasing T grid.

    ``lam=None`` selects the Lebesgue line at the given ``sigma`` (closed
    form); an atomic measure is averaged at ``sigma = 0``.  The atoms with
    ``t <= T`` are a prefix of ``lam`` (positions strictly increase), so one
    :func:`~polytorus.measures.weighted_mean_square` call evaluates ``|f|^2``
    once per sweep and gives every T the mean over its prefix, with the bits
    of :func:`atomic_time_mean`.  Every mean is validated against the
    a-priori range ``[0, (sum |a_n|)^2]``.
    """
    grid = [float(T) for T in t_grid]
    if not grid:
        raise DomainError("T grid must not be empty")
    if any(not 0 < T < math.inf for T in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(
            f"T grid must be positive, finite and increasing, got {grid}")
    bound = f.sup_square_bound()
    if lam is None:
        means = (lebesgue_line_mean(f, sigma, T) for T in grid)
    else:
        ends = np.searchsorted(lam.t, grid, side="right").tolist()
        if not ends[0]:
            raise EmptyMeasureError(f"no mass in [0, {grid[0]}]")
        means = weighted_mean_square(f, lam.t, lam.w, ends)
    rows = []
    for T, mean in zip(grid, means):
        if not -_BOUND_SLACK * (1.0 + bound) <= mean <= bound * (1.0 + _BOUND_SLACK):
            raise ArithmeticError(
                f"time mean {mean!r} at T={T} escapes [0, {bound}]; this "
                "indicates a bug"
            )
        rows.append(ConvergenceRow(T, mean, target, abs(mean - target)))
    return ConvergenceRecord(tuple(rows))


def _characters(times, logs, keys):
    """For each exponent vector ``key``, the character
    ``prod_j z_j^key[j]`` at ``times``, with ``z_j = exp(-i t logs[j])``.

    The powers come from one :class:`~polytorus.polynomials._Powers` table;
    a negative power is the conjugate of the positive one.
    """
    used = [j for j in range(len(logs)) if any(key[j] for key in keys)]
    powers = _Powers(logs[used], [sorted({abs(key[j]) for key in keys} - {0})
                                  for j in used])
    table = powers(times)
    for key in keys:
        yield powers.product(table, [key[j] for j in used])


@dataclass(frozen=True)
class MomentPair:
    """Empirical vs reference value of ``integral z^alpha conj(z)^beta dmu``."""

    alpha: MultiIndex
    beta: MultiIndex
    empirical: complex
    reference: complex | None = None


def recover_moments(
    lam: AtomicLineMeasure | None,
    basis: PrimeBasis,
    pairs,
    T: float,
    mu: TorusPointMassMeasure | None = None,
) -> list[MomentPair]:
    """Estimate torus moments from a line measure.

    The character ``t -> prod_r p_r^{-it (alpha_r - beta_r)}`` is averaged
    over ``[0, T]`` (weighted atoms, or the exact Lebesgue-line integral when
    ``lam`` is None).  Characters are keyed by the integer difference
    ``alpha - beta``: pairs with one difference share a mean, and a pair
    whose difference is the negative of another's gets that mean's conjugate,
    bit for bit.  On the atoms, the character is a product of powers of the
    primes' phases ``p_r^{-it}`` (see :func:`_characters`), one complex
    exponential per prime and time.  If a source measure is supplied, the
    reference moment ``sum_j c_j omega_j^alpha conj(omega_j)^beta`` is
    attached.
    """
    normalized = []
    for alpha, beta in pairs:
        if not isinstance(alpha, MultiIndex):
            alpha = MultiIndex(alpha)
        if not isinstance(beta, MultiIndex):
            beta = MultiIndex(beta)
        if max(alpha.length, beta.length) > basis.dimension:
            raise DimensionError(
                f"moment pair {alpha}, {beta} exceeds basis dimension "
                f"{basis.dimension}"
            )
        normalized.append((alpha, beta))

    if lam is not None:
        inside = lam.t <= T
        w = lam.w[inside]
        if not len(w):
            raise EmptyMeasureError(f"no mass in [0, {T}]")
        times = lam.t[inside]
        mass = exact_sum(w)

    # A pair's character is prod_r z_r^(alpha_r - beta_r), z_r = p_r^{-it}:
    # pairs with one exponent difference share it, and the difference -d
    # has the conjugate mean of d.  Each difference is taken with its first
    # nonzero entry positive, and its mean conjugated where it was flipped.
    dimension = basis.dimension
    diffs, keys, flips = [], [], []
    for alpha, beta in normalized:
        diff = tuple(a - b for a, b in zip(alpha.padded(dimension), beta.padded(dimension)))
        flip = next((e < 0 for e in diff if e), False)
        diffs.append(diff)
        keys.append(tuple(-e for e in diff) if flip else diff)
        flips.append(flip)
    distinct = list(dict.fromkeys(keys))
    if lam is None:
        # a phase T * log_ratio past float64 takes the kernel's limit 0
        means = []
        for key in distinct:
            x = T * float(np.array(key, dtype=np.float64) @ basis.logs)
            means.append(complex(_mean_kernel(x)) if math.isfinite(x) else 0j)
    else:
        means = [complex(exact_sum(phases.real * w) / mass,
                         exact_sum(phases.imag * w) / mass)
                 for phases in _characters(times, basis.logs, distinct)]
    mean_of = dict(zip(distinct, means))
    out = []
    for (alpha, beta), diff, key, flip in zip(normalized, diffs, keys, flips):
        reference = None
        if mu is not None:
            acc = 0j
            exponents = np.array(diff, dtype=np.float64)
            for omega, c in mu.atoms:
                # coordinates past the basis do not enter the character
                theta = np.zeros(dimension)
                theta[: omega.dimension] = omega.angles[:dimension]
                acc += c * np.exp(1j * float(exponents @ theta))
            reference = complex(acc)
        empirical = mean_of[key].conjugate() if flip else mean_of[key]
        out.append(MomentPair(alpha, beta, empirical, reference))
    return out


def boundary_mean_error_bound(
    f: DirichletPolynomial,
    mu: TorusPointMassMeasure,
    lam: AtomicLineMeasure,
) -> float:
    """A-priori bound on ``|full-support time mean - space average|``.

    Level ``k`` atoms pin the first ``min(k, d)`` coordinates within a chord
    of ``2^{-k+1}``, so their ``|f|^2`` values sit within
    ``L * sqrt(d) * 2^{-k+1}`` of the matching ``|F(omega_j)|^2`` once all
    ``d`` coordinates are controlled (``k >= d``); coarser levels are only
    bounded by the crude cap ``(sum |a_n|)^2``.  Combining the level-K term,
    the early-mass term, and the per-level slack weighted by level mass gives
    a bound every construction satisfies.
    """
    K = lam.levels
    if K < 1:
        raise DomainError("measure carries no construction trace")
    d = mu.dimension
    F = bohr_lift(f, PrimeBasis(d))
    lipschitz = F.lipschitz_square_bound()
    crude = f.sup_square_bound()
    total = lam.total_mass_by_level[-1]
    gamma_masses = [
        lam.total_mass_by_level[0]
        if k == 1
        else lam.total_mass_by_level[k - 1] - lam.total_mass_by_level[k - 2]
        for k in range(1, K + 1)
    ]

    def slack(k: int) -> float:
        chord = lipschitz * math.sqrt(d) * 2.0 ** (-k + 1)
        return min(crude, chord) if k >= d else crude

    prior = sum(gamma_masses[k - 1] / total * slack(k) for k in range(1, K))
    return (
        lipschitz * math.sqrt(d) * 2.0 ** (-K + 1)
        + crude / (2.0**K + 1.0)
        + prior
    )
