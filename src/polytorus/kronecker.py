"""Effective inhomogeneous Kronecker approximation.

Given targets ``theta_1..theta_k`` and a tolerance ``eps``, find ``t > t_min``
with ``-t log p_r`` within ``eps`` of ``theta_r`` modulo 2*pi for each of the
first ``k`` primes.  Existence is guaranteed because the prime logarithms are
rationally independent; the solvers below differ only in how they search.

The lattice backend, :func:`solve`, restricts ``t`` to the solution lattice
of the last active coordinate, ``t = (2*pi*q - theta_k) / log p_k``, and
filters the remaining coordinates over increasing integers ``q``.  For ``k =
1`` this returns the closed-form solution exactly; for ``k > 1`` it visits
candidates spaced ``2*pi / log p_k`` apart instead of a fraction of ``eps``,
which is what makes deep constructions affordable.

Its candidate angles are linear in the candidate index ``i``, so each
filtered coordinate's pre-filter is one comparison, ``frac(c - i*s) < w`` in
units of full turns, against a slack-widened window that is a strict superset
of the true acceptance set.  The search does not stream every candidate
through it.  It walks only the hits of the first filtered coordinate's
window: that coordinate is an irrational rotation in ``i``, and by the
three-distance theorem (Sos 1958; Slater 1967, "Gaps and steps for the
sequence n theta mod 1") its returns to a window of width ``W`` are ``n1``,
``n2`` or ``n1 + n2`` indices apart, with ``n1, n2`` read off the continued
fraction of the step.  A solve therefore touches about ``candidates * W``
hits, ``W ~ eps/pi``, instead of every candidate.  (At ``k = 1`` there is no
filtered coordinate, and the candidates are visited in order.)

From a known joint hit, a hit of every filtered window at once, a second
walk steps between joint hits.  Two joint hits ``n`` indices apart move each
filtered coordinate by less than its window's width, so the ascending list
of such ``n`` up to a span of a few mean return times to the box (Slater's
gap theorem in higher dimension; Haynes & Marklof, Ann. Sci. ENS 2020, bound
how many gaps there are) holds every gap.  The first walk finds it once per
level over doubled windows; from a joint hit the first ``n`` in it that
lands is the next one, and past the span the first walk takes over.  A walk
from the first candidate meets about one joint hit, its answer, so it walks
the first window alone.

A :class:`KroneckerProblem` is validated data and nothing more.  A build
asks one problem for successive returns of one rotation to one box: it makes
one :class:`LatticeSearch` per box from a problem, once, and calls it with
each atom's lower bound, which is all a call checks; :func:`lattice_solve`
is one call of a new search.  The search sets up, once, what its calls share
whatever ``t_min`` (logs, reduced targets, the filtered coordinates' lines),
and it holds a walk cursor, left at its last solution.  A call whose first
candidate lies above the cursor, within the span and within one budget of
where the cursor's windows start, computes only its first candidate and
pre-filter and walks on from the cursor: by the first window's jumps with
one filtered window, by joint gaps with more.  The cursor's windows were
widened once to contain the own widened window of every such call.  Any
other call sets up its windows, walks from its first candidate and leaves a
new cursor.  The walks' tables depend only on the grid steps and on the
window widths rounded up to their leading bits, so the searches of a build
level share them through the module's one cache, :func:`_tables`.

Both walks track positions exactly, as integers on a grid of 2^-64 turns,
and every window they use is wider than the pre-filter's by a bound on the
float64 rounding and the grid's drift.  A candidate inside every widened
window gets the pre-filter in Python floats, with the IEEE operations of a
vectorized pass, and then the :func:`residuals` recheck; the set-up and this
accept path run in Python floats, one coordinate at a time.  The returned
solution is exactly the first lattice candidate that passes the pre-filter
and whose true residuals all pass, bit for bit, wherever the walk starts;
``steps`` is its index plus one.

The reference, :func:`scan_solve`, shares none of this: it evaluates the
candidates ``t_min + (i + 1) * eps / (2 log p_k)`` with :func:`residuals`,
chunk by chunk in numpy, and returns the first whose residuals are all below
``eps``.  With that step no interval containing a point whose residuals are
all below ``eps/2`` can be skipped (each residual is Lipschitz in ``t`` with
constant ``log p_r``), making the scan a complete, auditable reference.  Its
cost grows like ``(2*pi/eps)^k`` candidates, which is fine at coarse
tolerances and hopeless at fine ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, DimensionError, DomainError
from .polynomials import TWO_PI
from .primes import PrimeBasis

# Candidates per vectorized pass when the window walk must rescan forward, and
# the reference scan's largest chunk.
_RESCAN_CHUNK = 1 << 16
# A first rescan over at most this many candidates runs as a Python integer
# loop: that stops at the first hit and skips numpy's fixed cost per call.
# The reference scan's first chunk, which keeps a scan solved early cheap.
_SHORT_SCAN = 256

# The window walk tracks positions on the circle in units of 2^-64 turns.
_GRID = 1 << 64
_GRID_MASK = _GRID - 1

# A joint-gap table covers gaps up to this many mean return times to the box
# of every filtered window, and at most _JOINT_MAX indices.
_JOINT_SPAN = 8.0
_JOINT_MAX = 1 << 21

# Width added to the pre-filter window to cover the float discrepancy between
# the linear-recurrence angles and the canonical residual arithmetic; scaled
# per solve with the magnitudes involved.
_EPS64 = float(np.finfo(np.float64).eps)


def circle_distance(a, b):
    """Distance on the circle of circumference 2*pi; lies in ``[0, pi]``."""
    diff = np.mod(np.asarray(a, dtype=np.float64) - b, TWO_PI)
    return np.minimum(diff, TWO_PI - diff)


def residuals(basis: PrimeBasis, k: int, t, targets) -> np.ndarray:
    """Circle distances between the flow angles of ``t`` and the targets.

    Entry ``r`` is ``d_circ((-t log p_r) mod 2*pi, theta_r)``.  ``t`` may be
    a scalar (result shape ``(k,)``) or an array (result ``t.shape + (k,)``).
    """
    if k > basis.dimension:
        raise DimensionError(f"k={k} exceeds basis dimension {basis.dimension}")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (k,):
        raise DomainError(f"expected {k} targets, got shape {targets.shape}")
    t = np.asarray(t, dtype=np.float64)
    angles = np.multiply.outer(-t, basis.logs[:k])
    return circle_distance(angles, np.mod(targets, TWO_PI))


@dataclass(frozen=True)
class KroneckerProblem:
    """Targets, tolerance, and lower bound for one approximation instance.

    Validated data: construction checks every field in order and stores the
    targets reduced modulo 2*pi, ``eps`` and ``t_min`` as floats.
    """

    basis: PrimeBasis
    k: int
    targets: tuple[float, ...]
    eps: float
    t_min: float = 0.0

    def __post_init__(self):
        raw = _checked_targets(self.basis, self.k, self.targets, self.eps, self.t_min)
        object.__setattr__(self, "targets", tuple(g % TWO_PI for g in raw))
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "t_min", float(self.t_min))


def _check_t_min(t_min, eps, logs, k) -> None:
    if not 0.0 <= t_min < math.inf:
        raise DomainError(f"t_min must be finite and >= 0, got {t_min}")
    # Float64 times near t_min are ulp(t_min) apart, so their angles on the
    # k-th prime step by ulp(t_min) * log p_k, and each computed angle is
    # off by about as much.  Once that reaches eps, a residual below eps is
    # rounding, not approximation: no candidate could be certified.
    resolution = math.ulp(t_min) * float(logs[k - 1])
    if not resolution < eps:
        raise DomainError(f"float64 cannot resolve eps={eps} at t_min="
                          f"{t_min} (angle step {resolution:.3g})")


def _checked_targets(basis, k, targets, eps, t_min) -> tuple[float, ...]:
    """The targets as floats, after every check on a problem in order."""
    if not 1 <= k <= basis.dimension:
        raise DimensionError(f"active dimension {k} not in [1, {basis.dimension}]")
    if not 0.0 < eps < math.pi:
        raise DomainError(f"eps must lie in (0, pi), got {eps}")
    _check_t_min(t_min, eps, basis.logs, k)
    raw = tuple(float(g) for g in targets)
    if not all(map(math.isfinite, raw)):
        raise DomainError(f"targets must be finite, got {raw}")
    if len(raw) != k:
        raise DomainError(f"expected {k} targets, got {len(raw)}")
    return raw


def _checked_budget(budget) -> int:
    """``budget`` as an int; a :class:`DomainError` unless it is a positive
    integer (numpy integers count, ``bool`` does not)."""
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) \
            or budget <= 0:
        raise DomainError(f"budget must be a positive integer, got {budget!r}")
    return int(budget)


@dataclass(frozen=True)
class KroneckerSolution:
    """A verified solution; ``q`` records the implied integers for audit."""

    t: float
    residuals: tuple[float, ...]
    q: tuple[int, ...]
    steps: int
    method: str


def _recheck(search: LatticeSearch, t: float, eps: float) -> bool:
    """Whether every residual of the time ``t`` lies below ``eps``, with the
    bits of :func:`residuals`: Python's float ``%`` and ``np.mod`` both take
    ``fmod`` and then add the modulus to a remainder of the wrong sign."""
    for log, g in zip(search.logs, search.reduced):
        d = (-t * log - g) % TWO_PI
        if not (d < eps or TWO_PI - d < eps):
            return False
    return True


def _solution(problem: KroneckerProblem, t: float, steps: int,
              method: str) -> KroneckerSolution:
    """The solution record of the time ``t``: its :func:`residuals` and
    ``q = rint((-t log p_r - theta_r) / 2*pi)`` with the canonical targets."""
    basis, k, targets = problem.basis, problem.k, problem.targets
    res = residuals(basis, k, t, targets)
    q = np.rint((-t * basis.logs[:k] - np.asarray(targets)) / TWO_PI)
    return KroneckerSolution(t, tuple(res.tolist()), tuple(map(int, q)), steps, method)


def _return_times(step: int, modulus: int, width: int):
    """Slater's return times of the rotation ``x -> x + step (mod modulus)``.

    Returns ``(n1, n2)`` with ``n1 = min{n >= 1 : n*step mod m < width}`` and
    ``n2 = min{n >= 1 : n*step mod m > m - width}``, or ``None`` for a side no
    multiple reaches (a rational rotation whose period ends first).  All
    arguments are integers and the arithmetic is exact.  The subtractive
    continued fraction of ``step / modulus`` visits every one-sided record
    of ``n*step mod m`` in order; runs of equal subtractions are taken in one
    division, so the cost is logarithmic in ``modulus``.
    """
    n1 = n2 = None
    lo, n_lo = step, 1            # smallest n*step mod m so far
    hi, n_hi = modulus - step, 1  # smallest m - (n*step mod m) so far
    while True:
        if n1 is None and lo < width:
            n1 = n_lo
        if n2 is None and hi < width:
            n2 = n_hi
        if (n1 is not None and n2 is not None) or lo == 0:
            return n1, n2
        if lo >= hi:
            m = lo // hi
            if n1 is None and lo - m * hi < width:
                n1 = n_lo + ((lo - width) // hi + 1) * n_hi
            lo, n_lo = lo - m * hi, n_lo + m * n_hi
        else:
            m = (hi - 1) // lo  # keep hi > 0: an exact zero counts for n1 only
            if n2 is None and hi - m * lo < width:
                n2 = n_hi + ((hi - width) // lo + 1) * n_lo
            hi, n_hi = hi - m * lo, n_hi + m * n_lo


def _to_grid(x: float) -> int:
    """``floor(x * 2^64) mod 2^64``, exactly: ``x`` in units of 2^-64 turns.
    Scaling by a power of two is exact, and ``math.floor`` of a float is an
    exact integer."""
    return math.floor(math.ldexp(x, 64)) % _GRID


def _grid_advance(step: float) -> int:
    """``-step`` on the 2^-64 grid."""
    return -_to_grid(step) % _GRID


def _on_grid(base: float, step: float, width: float, advance: int, budget: int):
    """One pre-filter ``frac(base - i*step) < width`` on the 2^-64 grid, where
    ``advance`` is ``-step`` on the grid.

    Returns ``(origin, advance, wide)``: candidate ``i`` sits at ``(origin +
    i*advance) mod 2^64`` and is inside the widened window when that is below
    ``wide``.  Index 0's position and the step are rounded down onto the
    grid, which moves candidate ``i`` by less than ``(i + 1) * 2^-64`` turns.
    The window is ``[-mu, width + mu)`` modulo 1, where ``mu`` covers that
    drift and the float64 rounding of ``frac(base - i*step)`` for every
    ``i < budget``, so every index whose float value lies in ``[0, width)``
    is inside it.  A widened window wider than the circle is the circle:
    every index is inside it.
    """
    mu = 4.0 * _EPS64 * (abs(base) + budget * abs(step) + 1.0)
    margin = math.ceil(math.ldexp(mu, 64)) + budget + 1
    wide = math.ceil(math.ldexp(width, 64)) + 2 * margin
    return (_to_grid(base) + margin) % _GRID, advance, wide if wide < _GRID else _GRID


def _round_up(width: int) -> int:
    """``width`` rounded up to its leading 6 bits, so that the slightly
    different windows of one level's calls share their tables."""
    shift = width.bit_length() - 6
    if shift <= 0:
        return width
    return -(-width >> shift) << shift


class _Tables:
    """The walks' tables for windows with these grid advances, rounded up by
    :func:`_round_up` to ``walked``: the first window's three-distance
    ``jumps`` (see :func:`_first_jumps`); ``span``, ``_JOINT_SPAN`` mean
    return times to the box (a hit of every window at once), at most
    ``_JOINT_MAX`` indices; and the joint gaps of :func:`_joint_gaps` up to
    the span, found when a walk from a cursor first needs them."""

    __slots__ = ("advances", "walked", "jumps", "span", "gaps")

    def __init__(self, advances, walked):
        self.advances = advances
        self.walked = walked
        self.jumps = _first_jumps(advances[0], walked[0])
        measure = math.prod(w / _GRID for w in walked)
        if measure * _JOINT_MAX <= _JOINT_SPAN:
            self.span = _JOINT_MAX
        else:
            self.span = int(_JOINT_SPAN / measure)
        self.gaps = None

    def joint_gaps(self):
        if self.gaps is None:
            self.gaps = _joint_gaps(self.advances, self.walked, self.span)
        return self.gaps


@functools.lru_cache(maxsize=64)
def _tables(advances, walked) -> _Tables:
    """The shared :class:`_Tables` of these advances and walked widths: the
    lattice steps depend only on ``k`` and the widths on ``eps``, so every
    target of a build level walks with the same tables.  The module's only
    cache: its entries are values of their keys."""
    return _Tables(advances, walked)


def _joint_gaps(advances, wides, span: int):
    """The joint gaps of rotations with these grid advances and windows no
    wider than ``wides``, up to ``span``; there are at least two advances.

    The table lists, ascending, every ``n <= span`` with ``n*advance_r``
    within ``wide_r`` of 0 modulo 2^64 for every ``r``, as ``(n, s_0, s_1,
    rest)``: its shifts ``n*advance_r`` as signed integers in ``[-2^63,
    2^63)``, those past the second in the tuple ``rest``.  Two hits of the
    box (every window at once) ``n`` indices apart satisfy this, so from one
    hit the first ``n`` of the table that lands is the next hit, if that
    lies within ``span``.  The table is found by the window walk itself,
    over the doubled windows ``[-wide_r, wide_r)``.
    """
    doubled = [(w, a, 2 * w) for a, w in zip(advances, wides) if 2 * w < _GRID]
    if doubled:
        tables = _Tables(tuple(a for _, a, _ in doubled),
                         tuple(_round_up(w) for _, _, w in doubled))
        gaps = _rotation_hits(doubled, 1, span + 1, tables)
    else:
        gaps = range(1, span + 1)
    half, table = _GRID >> 1, []
    for n in gaps:
        s0, s1, *rest = [(n * a + half) % _GRID - half for a in advances]
        table.append((n, s0, s1, tuple(rest)))
    return tuple(table)


def _first_jumps(advance: int, wide: int):
    """``[(n, n*advance mod 2^64)]`` for the three-distance jumps ``n1``,
    ``n2`` and ``n1 + n2`` of one window (see :func:`_return_times`),
    ascending; with both return times the last jump reaches the window from
    anywhere."""
    n1, n2 = _return_times(advance, _GRID, wide)
    jumps = sorted(n for n in (n1, n2) if n is not None)
    if len(jumps) == 2:
        jumps.append(n1 + n2)
    return tuple((n, n * advance % _GRID) for n in jumps)


def _rescan(origin: int, advance: int, wide: int, start: int, stop: int, reach: int):
    """``(i, position)`` of the first ``i`` in ``[start, stop)`` inside one
    window, or ``(stop, 0)``; ``start >= 0``.  ``reach`` is the window's
    longest jump, which reaches it from anywhere when both return times
    exist; when that span is short it is scanned by a Python integer loop,
    which stops at the first hit and skips numpy's fixed cost per call."""
    size = min(reach, _RESCAN_CHUNK)
    if size <= _SHORT_SCAN:
        end = min(start + size, stop)
        pos = (origin + start * advance) & _GRID_MASK
        for j in range(start, end):
            if pos < wide:
                return j, pos
            pos = (pos + advance) & _GRID_MASK
        start, size = end, _RESCAN_CHUNK
    while start < stop:
        end = min(start + size, stop)
        pos = np.arange(start, end, dtype=np.uint64) * np.uint64(advance)
        pos += np.uint64(origin)  # wraps modulo 2^64, like the grid
        found = np.flatnonzero(pos < np.uint64(wide))
        if found.size:
            return start + int(found[0]), int(pos[found[0]])
        start, size = end, _RESCAN_CHUNK
    return stop, 0


def _rotation_hits(rotations, start: int, stop: int, tables: _Tables, low: int = 0,
                   at=None):
    """Indices ``i`` in ``[max(start, low), stop)`` with ``(origin +
    i*advance) mod 2^64 < wide`` for every rotation, ascending; ``start >=
    0``.  ``at``, when given, holds the positions of ``start`` in every
    window, and is set to those of each index yielded.

    The walk follows the hits of the first window rounded up to
    ``tables.walked[0]``, a superset of its own hits, and yields those
    inside the exact window.  On the grid the rotation is exact integer
    arithmetic modulo 2^64, so the three-distance theorem applies verbatim:
    from one hit the next is ``n1``, ``n2`` or ``n1 + n2`` indices later
    (``tables.jumps``), and the first of those that lands is it.  The first
    hit, and the rare case where no jump lands (a rational grid step that
    never reaches one side), come from a forward rescan in the same integer
    arithmetic.  The other windows are checked exactly at each hit.
    """
    (origin, advance, wide), others = rotations[0], rotations[1:]
    walked, moves = tables.walked[0], tables.jumps
    reach = moves[-1][0]
    i = start
    pos = (origin + start * advance) & _GRID_MASK if at is None else at[0]
    if pos >= walked:
        i, pos = _rescan(origin, advance, walked, i, stop, reach)
    while i < stop:
        if pos < wide and i >= low:
            for o, a, w in others:
                if (o + i * a) & _GRID_MASK >= w:
                    break
            else:
                if at is not None:
                    at[0] = pos
                    for r, (o, a, _) in enumerate(others, 1):
                        at[r] = (o + i * a) & _GRID_MASK
                yield i
        for n, move in moves:
            if i + n >= stop:
                return
            nxt = pos + move
            if nxt >= _GRID:
                nxt -= _GRID
            if nxt < walked:
                i, pos = i + n, nxt
                break
        else:
            i, pos = _rescan(origin, advance, walked, i + 1, stop, reach)


def _joint_hits(rotations, start: int, stop: int, tables: _Tables, low: int, at):
    """The indices of :func:`_rotation_hits` in ``[low, stop)``, walked from
    ``start``, an index below ``low`` inside every window of ``rotations``
    (two or more, none wider than half the circle) whose positions are
    ``at``; ``at`` is kept at the positions of each index yielded.

    From one joint hit the next is the first ``n`` of :func:`_joint_gaps`
    that moves every position ``p`` into its window ``w``: as no window is
    wider than half the circle, that is ``0 <= p + s < w`` for the signed
    shift ``s``, with no reduction modulo 2^64.  Joint hits below ``low``
    are stepped over.  When no gap lands, the next joint hit lies past the
    table's span, and the walk goes on as :func:`_rotation_hits` from there.
    """
    span, gaps = tables.span, tables.joint_gaps()
    (_, _, w0), (_, _, w1), *more = rotations
    i = start
    while True:
        lo0, lo1 = -at[0], -at[1]
        hi0, hi1 = w0 + lo0, w1 + lo1
        for n, s0, s1, rest in gaps:
            if lo0 <= s0 < hi0 and lo1 <= s1 < hi1 and (not rest or all(
                    0 <= p + s < w for p, s, (_, _, w) in zip(at[2:], rest, more))):
                break
        else:
            i += span + 1
            for r, (_, a, _) in enumerate(rotations):
                at[r] = (at[r] + (span + 1) * a) & _GRID_MASK
            yield from _rotation_hits(rotations, i, stop, tables, low, at)
            return
        i += n
        if i >= stop:
            return
        at[0], at[1] = s0 - lo0, s1 - lo1
        for r, s in enumerate(rest, 2):
            at[r] += s
        if i >= low:
            yield i


class LatticeSearch:
    """The lattice solves of one problem: a call with ``t_min`` returns the
    time of the first lattice solution above it.

    Made from a :class:`KroneckerProblem`, whose ``t_min`` it ignores, and a
    budget (see :func:`_checked_budget`); a call checks only its ``t_min``,
    as the problem does.  A call's candidates are the lattice integers ``q0
    + i``, ``i = 0, 1, ...`` below the budget, where ``q0`` is the first
    whose time lies above ``t_min`` (:meth:`first_integer`).

    What the calls share is set up once.  ``logs`` and ``reduced`` are ``log
    p_r`` and ``theta_r mod 2*pi`` for ``r < k`` as Python floats, the
    problem's targets reduced again as :func:`residuals` reduces its
    argument.  ``coordinates`` holds, per filtered coordinate, its lattice
    line ``(origin, slope, step, turns, advance)``: the flow angle of
    candidate ``i`` is ``origin - 2*pi*q0*slope - i*step`` modulo 2*pi up to
    rounding, which the pre-filter absorbs into its slack; ``turns`` is
    ``step`` in turns and ``advance`` its negation on the 2^-64 grid;
    ``advances`` lists the advances.  The nailed coordinate ``k`` is not
    filtered; the exact recheck covers it.

    The search holds its walk cursor, left at its last solution (see the
    module docstring): the windows ``rotations``, none wider than half the
    circle, and their ``tables``, indexed from the lattice integer ``q0``
    (``None`` until a call leaves a cursor) and widened with ``reach =
    budget`` (see :meth:`windows`); ``i``, the last solution's index, a hit
    of every window, and ``at``, its positions.  ``calls`` and ``steps``
    count the solutions returned and sum their ``steps``.
    """

    __slots__ = ("problem", "budget", "calls", "steps", "logs", "reduced",
                 "coordinates", "advances", "q0", "rotations", "tables", "i", "at")

    def __init__(self, problem: KroneckerProblem, budget: int):
        self.problem, self.budget = problem, _checked_budget(budget)
        self.calls = self.steps = 0
        logs = tuple(problem.basis.logs[:problem.k].tolist())
        targets = problem.targets
        self.logs, self.reduced = logs, tuple(g % TWO_PI for g in targets)
        self.coordinates = []
        for log, g in zip(logs[:-1], targets):
            beta = log / logs[-1]  # -t(q)*log - g = theta*beta - g - 2*pi*q*beta
            step = TWO_PI * beta
            turns = step / TWO_PI
            self.coordinates.append((targets[-1] * beta - g, beta, step, turns,
                                     _grid_advance(turns)))
        self.advances = tuple(c[-1] for c in self.coordinates)
        self.q0 = None

    def __call__(self, t_min: float) -> float:
        """The time of the first candidate that passes the pre-filter and
        the recheck, walked on from the cursor when the call's first
        candidate lies above it within the span and one budget of its ``q0``
        (see the module docstring), and from 0 otherwise."""
        eps, budget = self.problem.eps, self.budget
        _check_t_min(t_min, eps, self.logs, len(self.logs))
        q0 = self.first_integer(t_min)
        low = q0 - self.q0 if self.q0 is not None else 0
        if self.q0 is not None and budget >= low and \
                self.i < low <= self.i + self.tables.span:
            cursor = self.q0, self.rotations, self.tables
            tests, at = self.tests(q0), list(self.at)
            walk = _rotation_hits if len(at) == 1 else _joint_hits
            hits = walk(self.rotations, self.i, low + budget, self.tables, low, at)
        else:
            low = 0
            tests, rotations, tables = self.windows(q0, budget)
            at, cursor = [o for o, _, _ in rotations], None  # the positions of index 0
            if rotations and all(w <= _GRID >> 1 for _, _, w in rotations):
                cursor = q0, rotations, tables
            hits = _rotation_hits(rotations, 0, budget, tables, 0, at) if rotations \
                else range(budget)
        for j in hits:
            i = j - low
            # The pre-filter in Python floats: the same IEEE operations, in
            # the same order, as a vectorized pass would perform (i * s
            # converts i to a float first).
            for c, s, w in tests:
                u = c - i * s
                if not u - math.floor(u) < w:
                    break
            else:
                t = self.time_of(q0, i)
                if t > t_min and _recheck(self, t, eps):
                    if cursor is not None:
                        (self.q0, self.rotations, self.tables), self.i, self.at = \
                            cursor, j, at
                    self.calls += 1
                    self.steps += i + 1
                    return t
        raise BudgetExhaustedError(budget, *self._best_candidate(q0))

    def first_integer(self, t_min: float) -> int:
        """``q0``, the first lattice integer whose time lies above ``t_min``."""
        log_last, theta_last = self.logs[-1], self.problem.targets[-1]
        q0 = math.floor((t_min * log_last + theta_last) / TWO_PI) + 1
        while (TWO_PI * q0 - theta_last) / log_last <= t_min:
            q0 += 1
        return q0

    def time_of(self, q0: int, i):
        """``t(q0 + i) = (2*pi*(q0 + i) - theta_k) / log p_k`` for a Python
        int or an array of them, with the same IEEE operations either way."""
        return (TWO_PI * (float(q0) + i) - self.problem.targets[-1]) / self.logs[-1]

    def tests(self, q0: int):
        """Each filtered coordinate's pre-filter ``(c, s, w)`` in turns for
        the call whose first lattice integer is ``q0``: candidate ``i``
        passes when ``frac(c - i*s) < w``.  The shifted window covers eps
        plus slack for the float error of the linear parametrization over
        the whole budget range, so it is a strict superset of the true
        acceptance set."""
        eps, budget, shift = self.problem.eps, self.budget, -(TWO_PI * q0)
        tests = []
        for origin, slope, step, turns, _ in self.coordinates:
            base = origin + shift * slope
            slack = 32.0 * _EPS64 * (abs(base) + budget * step + TWO_PI)
            tests.append(((base + (eps + slack)) / TWO_PI, turns,
                          2.0 * (eps + slack) / TWO_PI))
        return tests

    def windows(self, q0: int, reach: int = 0):
        """``(tests, rotations, tables)``: :meth:`tests`, the same windows
        widened on the grid (:func:`_on_grid`) for the ``budget + reach``
        candidates from 0, and their walks' tables from :func:`_tables`;
        ``None`` without a filtered coordinate.  With ``reach``, each window
        first grows on either side by ``32 eps64 (|origin| + |shift*slope| +
        (reach + budget)*step + 2*pi)`` radians, ``shift = -2*pi*q0``, so
        that it contains the own widened window of every call whose first
        candidate lies at most ``reach`` above this one's: that is more than
        the growth of their slack (its ``|base|`` grows with the shift) and
        the rounding and drift of their windows and this one, together below
        ``(10 |base| + 7 budget*step + 50) eps64``."""
        tests, budget, shift = self.tests(q0), self.budget, -(TWO_PI * q0)
        rotations, walked = [], []
        for (c, s, w), (origin, slope, step, _, advance) in zip(tests, self.coordinates):
            if reach:
                pad = 32.0 * _EPS64 * (abs(origin) + abs(shift * slope)
                                       + (reach + budget) * step + TWO_PI) / TWO_PI
                c, w = c + pad, w + 2.0 * pad
            rotation = _on_grid(c, s, w, advance, budget + reach)
            rotations.append(rotation)
            walked.append(_round_up(rotation[2]))
        if not rotations:
            return tests, rotations, None
        return tests, rotations, _tables(self.advances, tuple(walked))

    def _best_candidate(self, q0: int):
        """The smallest worst residual among the hits of the call's own
        first window, found by walking again; among all candidates when
        there was no hit."""
        problem, budget = self.problem, self.budget
        _, rotations, tables = self.windows(q0)
        hits = _rotation_hits(rotations[:1], 0, budget, tables) if rotations else iter(())
        first = next(hits, None)
        if first is None:
            candidates = iter(range(budget))
        else:
            candidates = itertools.chain([first], hits)
        best_t, best_worst = math.nan, math.inf
        while batch := list(itertools.islice(candidates, _RESCAN_CHUNK)):
            times = self.time_of(q0, np.asarray(batch, dtype=np.float64))
            worst = residuals(problem.basis, problem.k, times, problem.targets)
            worst = worst.max(axis=-1)
            j = int(np.argmin(worst))
            if worst[j] < best_worst:
                best_t, best_worst = float(times[j]), worst[j]
        return best_t, residuals(problem.basis, problem.k, best_t, problem.targets)


def scan_solve(problem: KroneckerProblem, budget: int = 10**8) -> KroneckerSolution:
    """Reference forward scan with step ``delta = eps / (2 log p_k)`` (see
    the module docstring): the first ``t_min + (i + 1) * delta``, ``i <
    budget``, above ``t_min`` whose :func:`residuals` are all below ``eps``;
    ``steps`` is ``i + 1``.  Chunks of ``_SHORT_SCAN`` candidates, doubling
    up to ``_RESCAN_CHUNK``, keep an early answer cheap."""
    budget = _checked_budget(budget)
    basis, k, targets, eps, t_min = (problem.basis, problem.k, problem.targets,
                                     problem.eps, problem.t_min)
    delta = eps / (2.0 * float(basis.logs[k - 1]))
    best_t, best_worst = math.nan, math.inf
    start, size = 0, _SHORT_SCAN
    while start < budget:
        stop = min(start + size, budget)
        times = t_min + (np.arange(start, stop, dtype=np.float64) + 1.0) * delta
        res = residuals(basis, k, times, targets)
        worst = res.max(axis=-1)
        found = np.flatnonzero((worst < eps) & (times > t_min))
        if found.size:
            j = int(found[0])
            return _solution(problem, float(times[j]), start + j + 1, "scan")
        j = int(np.argmin(worst))
        if worst[j] < best_worst:
            best_t, best_worst = float(times[j]), worst[j]
        start, size = stop, min(2 * size, _RESCAN_CHUNK)
    raise BudgetExhaustedError(budget, best_t, residuals(basis, k, best_t, targets))


def lattice_solve(problem: KroneckerProblem, budget: int = 10**8) -> KroneckerSolution:
    """Candidate search restricted to the last coordinate's solution lattice.

    Times ``t(q) = (2*pi*q - theta_k) / log p_k`` make the k-th residual
    vanish up to rounding; the first ``k - 1`` coordinates then perform an
    irrational rotation in ``q``, and only the returns of the first one to its
    window are visited.
    """
    search = LatticeSearch(problem, budget)
    t = search(problem.t_min)
    return _solution(problem, t, search.steps, "lattice")


solve = lattice_solve  # the default; scan_solve is the complete reference
