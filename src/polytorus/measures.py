"""Atomic measures on the half-line built from point masses on the polytorus.

Given a probability measure ``mu = sum_j c_j delta_{omega_j}`` on the torus,
:func:`build_point_mass_lambda` places weighted atoms on ``[0, inf)`` whose
flow images approximate the ``omega_j`` with geometrically improving accuracy:
level ``k`` atoms satisfy Kronecker residuals below ``2^{-k}`` on the first
``min(k, d)`` primes and are repeated ``growth(k) * ||lambda_{k-1}||`` times,
so mass concentrates where approximations are good.  The normalized time mean
of ``|f(it)|^2`` against the result converges to the space average of
``|F|^2`` against ``mu``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExhaustedError,
    CapacityError,
    ConstructionError,
    DimensionError,
    DomainError,
    ParseError,
    WindowRepresentationError,
)
from .kronecker import KroneckerProblem, LatticeSearch
from .kronecker import solve  # unused here; a name bench/tracing.py rebinds
from .polynomials import TorusPoint, bohr_unlift, eval_dirichlet, exact_sum
from .primes import PrimeBasis

WEIGHT_SUM_TOL = 1e-12
# Relative tolerance of a file's level masses against its atoms' weights:
# point-mass weights may sum to 1 within WEIGHT_SUM_TOL, which scales every
# level's weight by as much, and the sums round.
MASS_TOL = 2 * WEIGHT_SUM_TOL
DEFAULT_ATOM_CAP = 2_000_000


@dataclass(frozen=True)
class GrowthSchedule:
    """Repetition multiplier per level; mass obeys ``(growth(k)+1) ||lambda_{k-1}||``."""

    name: str
    factors: tuple[int, ...] = ()

    def __call__(self, k: int) -> int:
        if self.name == "2^k":
            return 2**k
        return self.factors[0]

    @staticmethod
    def default() -> "GrowthSchedule":
        return GrowthSchedule("2^k")

    @staticmethod
    def constant(factor: int) -> "GrowthSchedule":
        factor = int(factor)
        # The level plan counts repetitions in float64, exact up to 2^53.
        if not 1 <= factor <= 2**53:
            raise DomainError(f"growth factor must lie in [1, 2^53], got {factor}")
        return GrowthSchedule(f"const:{factor}", (factor,))

    @staticmethod
    def parse(text: str) -> "GrowthSchedule":
        text = text.strip()
        if text in ("default", "2^k"):
            return GrowthSchedule.default()
        if text.startswith("const:"):
            factor = text.split(":", 1)[1]
            if not (factor.isascii() and factor.isdigit()):
                raise DomainError(
                    f"growth factor must be a decimal integer, got {factor!r}")
            return GrowthSchedule.constant(int(factor))
        raise DomainError(f"unknown growth schedule {text!r}")


class TorusPointMassMeasure:
    """``mu = sum_j c_j delta_{omega_j}`` with ``sum c_j = 1`` and all ``c_j > 0``."""

    __slots__ = ("points", "weights", "dimension")

    def __init__(self, atoms, dimension: int | None = None):
        points: list[TorusPoint] = []
        weights: list[float] = []
        for omega, c in atoms:
            if not isinstance(omega, TorusPoint):
                omega = TorusPoint(omega)
            c = float(c)
            if not c > 0:
                raise DomainError(f"point-mass weights must be positive, got {c}")
            points.append(omega)
            weights.append(c)
        if not points:
            raise DomainError("a point-mass measure needs at least one atom")
        dims = {p.dimension for p in points}
        if dimension is None:
            if len(dims) != 1:
                raise DimensionError(f"atoms have mixed dimensions {sorted(dims)}")
            dimension = dims.pop()
        elif dims != {dimension}:
            raise DimensionError(
                f"atoms of dimensions {sorted(dims)} do not match declared {dimension}"
            )
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(
                f"point-mass weights must sum to 1 (tolerance {WEIGHT_SUM_TOL}), "
                f"got {total!r}"
            )
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "dimension", int(dimension))

    def __setattr__(self, name, value):
        raise AttributeError("TorusPointMassMeasure is immutable")

    @property
    def atoms(self) -> tuple[tuple[TorusPoint, float], ...]:
        return tuple(zip(self.points, self.weights))

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, TorusPointMassMeasure)
            and other.points == self.points
            and other.weights == self.weights
        )

    def __repr__(self):
        return (
            f"TorusPointMassMeasure(N={len(self)}, dimension={self.dimension})"
        )


class AtomicLineMeasure:
    """Weighted atoms ``(t, w)`` on ``[0, inf)`` with their construction trace.

    ``level``, ``source`` and ``rep`` record, per atom, the construction level
    ``k``, the index ``j`` of the torus point it chases, and the repetition
    ``m`` within its level.  ``level_boundaries[k-1]`` exceeds every level-k
    atom, and ``total_mass_by_level[k-1]`` is the cumulative mass through
    level k.
    """

    __slots__ = ("t", "w", "level", "source", "rep",
                 "level_boundaries", "total_mass_by_level", "growth_name")

    def __init__(self, t, w, level, source, rep,
                 level_boundaries, total_mass_by_level, growth_name="2^k"):
        t = np.asarray(t, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        level = np.asarray(level, dtype=np.int64)
        source = np.asarray(source, dtype=np.int64)
        rep = np.asarray(rep, dtype=np.int64)
        if not (len(t) == len(w) == len(level) == len(source) == len(rep)):
            raise DomainError("atom field arrays must have equal lengths")
        if not np.all(np.isfinite(t)) or not np.all(np.diff(t) > 0):
            raise DomainError("atom positions must be finite and strictly increasing")
        if len(t) and not (t[0] >= 0 and np.all(np.isfinite(w) & (w > 0))):
            raise DomainError("atoms need t >= 0 and finite positive weights")
        for arr in (t, w, level, source, rep):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "level_boundaries", tuple(float(b) for b in level_boundaries))
        object.__setattr__(self, "total_mass_by_level",
                           tuple(float(m) for m in total_mass_by_level))
        object.__setattr__(self, "growth_name", str(growth_name))

    def __setattr__(self, name, value):
        raise AttributeError("AtomicLineMeasure is immutable")

    @property
    def levels(self) -> int:
        return len(self.level_boundaries)

    def __len__(self):
        return len(self.t)

    def total_mass(self) -> float:
        return math.fsum(self.w)

    def mass_up_to(self, T: float) -> float:
        """``lambda([0, T])``."""
        return math.fsum(self.w[self.t <= T])

    def __eq__(self, other):
        return (
            isinstance(other, AtomicLineMeasure)
            and np.array_equal(other.t, self.t)
            and np.array_equal(other.w, self.w)
            and np.array_equal(other.level, self.level)
            and np.array_equal(other.source, self.source)
            and np.array_equal(other.rep, self.rep)
            and other.level_boundaries == self.level_boundaries
            and other.total_mass_by_level == self.total_mass_by_level
            and other.growth_name == self.growth_name
        )

    def __repr__(self):
        return (
            f"AtomicLineMeasure(atoms={len(self)}, levels={self.levels}, "
            f"growth={self.growth_name!r})"
        )


def _level_plan(levels: int, growth: GrowthSchedule):
    """Repetition counts ``M_k`` and cumulative masses; mass of level 0 is 1."""
    reps = []
    masses = []
    prev = 1.0
    for k in range(1, levels + 1):
        m_k = growth(k) * prev
        m_int = int(round(m_k))
        if abs(m_k - m_int) > 1e-9 or m_int < 1:
            raise ConstructionError(
                f"repetition count {m_k} at level {k} is not a positive integer",
                level=k,
            )
        reps.append(m_int)
        total = (prev if k > 1 else 0.0) + m_int
        masses.append(total)
        prev = total
    return reps, masses


def scan_step(basis: PrimeBasis, depth: int) -> float:
    """Gap between repetitions: one reference-scan step at ``eps = 2^-depth``."""
    return 2.0**-depth / (2.0 * float(basis.logs[min(depth, basis.dimension) - 1]))


def atom_search(basis: PrimeBasis, depth: int, omega: TorusPoint,
                budget: int) -> LatticeSearch:
    """The search whose call with ``t_min`` returns the first ``t > t_min``
    within ``2^-depth`` of ``omega`` on the first ``min(depth, d)`` primes.
    Bad input, a ``t_min`` included, raises :class:`DomainError`; a call
    whose budget runs out raises :class:`BudgetExhaustedError`, which the
    builders re-raise as a :class:`ConstructionError` naming the atom."""
    active = min(depth, basis.dimension)
    return LatticeSearch(KroneckerProblem(basis, active, omega.angles[:active],
                                          2.0**-depth), budget)


def build_point_mass_lambda(
    mu: TorusPointMassMeasure,
    levels: int,
    growth: GrowthSchedule | None = None,
    solver_budget: int = 10**8,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> AtomicLineMeasure:
    """Place the atoms of the half-line measure chasing ``mu``.

    Level ``k`` performs ``M_k = growth(k) * ||lambda_{k-1}||`` repetitions
    (with ``||lambda_0|| = 1``); each repetition places one atom of weight
    ``c_j`` per torus point, at a time whose Kronecker residuals on the first
    ``min(k, d)`` primes are below ``2^{-k}``: the next return to the box
    around the point, from one :func:`atom_search` per level and point.
    Atoms are strictly increasing in ``t``, repetitions do not interleave,
    and the level boundary ``T_k`` exceeds every level-k atom by one scan
    step.
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    growth = growth or GrowthSchedule.default()
    basis = PrimeBasis(mu.dimension)
    reps_per_level, masses = _level_plan(levels, growth)
    total_atoms = len(mu) * sum(reps_per_level)
    if total_atoms > atom_cap:
        raise CapacityError(
            f"construction would place {total_atoms} atoms, exceeding the cap "
            f"of {atom_cap}; lower the level count or raise the cap"
        )

    t_out = np.empty(total_atoms)
    w_out = np.empty(total_atoms)
    lvl_out = np.empty(total_atoms, dtype=np.int64)
    src_out = np.empty(total_atoms, dtype=np.int64)
    rep_out = np.empty(total_atoms, dtype=np.int64)

    boundaries = []
    t_cursor = 0.0
    pos = 0
    for k in range(1, levels + 1):
        step = scan_step(basis, k)
        sources = [(j, atom_search(basis, k, omega, solver_budget), c_j)
                   for j, (omega, c_j) in enumerate(mu.atoms, start=1)]
        for m in range(1, reps_per_level[k - 1] + 1):
            for j, search, c_j in sources:
                try:
                    t_cursor = search(t_cursor)
                except BudgetExhaustedError as exc:
                    raise ConstructionError(f"solver failed: {exc}", level=k, source=j,
                                            repetition=m) from exc
                t_out[pos] = t_cursor
                w_out[pos] = c_j
                lvl_out[pos] = k
                src_out[pos] = j
                rep_out[pos] = m
                pos += 1
            t_cursor += step
        boundaries.append(t_cursor)

    return AtomicLineMeasure(
        t_out, w_out, lvl_out, src_out, rep_out,
        level_boundaries=boundaries,
        total_mass_by_level=masses,
        growth_name=growth.name,
    )


@dataclass(frozen=True)
class WindowCheckResult:
    """Outcome of a window estimate: worst error over the polynomial family."""

    passed: bool
    worst_error: float
    worst_index: int
    errors: tuple[float, ...]
    window_mass: float


def weighted_mean_square(f, times, weights, ends=None):
    """Time mean ``fsum(|f(i t)|^2 w) / fsum(w)`` over atoms ``(times, weights)``.

    With ``ends``, a list holding the mean over each prefix ``[:n]`` for
    ``n`` in ``ends`` (each ``n >= 1``); ``|f|^2`` is evaluated once, on the
    atoms up to the longest prefix, and both sums of every prefix come from
    one :func:`~polytorus.polynomials.exact_sum` pass.  :func:`eval_dirichlet`
    reduces each atom's row on its own and the sums are correctly rounded, so
    each prefix mean has the bits of a call on that prefix alone; correctly
    rounded sums also keep million-atom means meaningful against 1e-9
    tolerances.
    """
    last = len(times) if ends is None else max(ends)
    values = np.abs(eval_dirichlet(f, 0.0, times[:last])) ** 2 * weights[:last]
    if ends is None:
        return exact_sum(values) / exact_sum(weights)
    return [v / w for v, w in zip(exact_sum(values, ends), exact_sum(weights, ends))]


def windowed_time_means(lam, t_lo: float, t_hi: float, polys) -> list[float]:
    """Normalized means of ``|f_m(it)|^2`` over atoms with ``t_lo < t <= t_hi``."""
    inside = (lam.t > t_lo) & (lam.t <= t_hi)
    if not inside.any():
        raise WindowRepresentationError(
            f"window ({t_lo}, {t_hi}] contains no atoms"
        )
    times, w = lam.t[inside], lam.w[inside]
    return [weighted_mean_square(bohr_unlift(F), times, w) for F in polys]


def window_check(
    lam: AtomicLineMeasure,
    t_lo: float,
    t_hi: float,
    polys,
    mu: TorusPointMassMeasure,
    eps: float,
) -> WindowCheckResult:
    """Compare windowed time means against the space averages of ``mu``.

    Requires every torus point of ``mu`` to be represented by at least one
    atom inside ``(t_lo, t_hi]``, mirroring the representation requirement of
    windowed estimates.
    """
    from .averages import point_mass_space_average

    if not t_lo < t_hi:
        raise DomainError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    polys = list(polys)
    if not polys:
        raise DomainError("window_check needs at least one polynomial")
    inside = (lam.t > t_lo) & (lam.t <= t_hi)
    if not inside.any():
        raise WindowRepresentationError(
            f"window ({t_lo}, {t_hi}] contains no atoms"
        )
    present = set(np.unique(lam.source[inside]).tolist())
    missing = [j for j in range(1, len(mu) + 1) if j not in present]
    if missing:
        raise WindowRepresentationError(
            f"window ({t_lo}, {t_hi}] has no atoms for source point(s) {missing}"
        )
    means = windowed_time_means(lam, t_lo, t_hi, polys)
    errors = tuple(
        abs(mean - point_mass_space_average(F, mu))
        for mean, F in zip(means, polys)
    )
    worst = int(np.argmax(errors))
    return WindowCheckResult(
        passed=bool(errors[worst] < eps),
        worst_error=float(errors[worst]),
        worst_index=worst,
        errors=errors,
        window_mass=math.fsum(lam.w[inside]),
    )


# ---------------------------------------------------------------------------
# Atom file format: JSON Lines with a header, one line per atom, and a
# trailing boundaries/masses line.  Floats survive the round trip exactly.
# ---------------------------------------------------------------------------

FORMAT_NAME = "lambda-atoms"
FORMAT_VERSION = 1


# Atoms formatted together by atoms_to_bytes: the encoded bytes are built a
# chunk at a time, so no text of the whole file is made besides its bytes.
_ENCODE_ATOMS = 4096


def atoms_to_bytes(lam: AtomicLineMeasure) -> bytes:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "growth": lam.growth_name,
        "levels": lam.levels,
    }
    parts = [(json.dumps(header) + "\n").encode("utf-8")]
    # json.dumps writes a finite float as float.__repr__ and an int as str;
    # AtomicLineMeasure refuses non-finite t and w, so these are its bytes.
    for i0 in range(0, len(lam), _ENCODE_ATOMS):
        rows = slice(i0, i0 + _ENCODE_ATOMS)
        parts.append("".join(
            f'{{"t": {t!r}, "w": {w!r}, "k": {k}, "j": {j}, "m": {m}}}\n'
            for t, w, k, j, m in zip(lam.t[rows].tolist(), lam.w[rows].tolist(),
                                     lam.level[rows].tolist(), lam.source[rows].tolist(),
                                     lam.rep[rows].tolist())
        ).encode("utf-8"))
    if len(lam) or lam.level_boundaries:
        trailer = {
            "boundaries": list(lam.level_boundaries),
            "masses": list(lam.total_mass_by_level),
        }
        parts.append((json.dumps(trailer) + "\n").encode("utf-8"))
    return b"".join(parts)


# The encoder's atom line, with JSON number and JSON integer groups; any other
# line is parsed by the strict JSON reader.  An integer group takes at most 19
# digits, as many as an int64 has, so int() never meets its digit limit.
_NUMBER = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
_INTEGER = r"(-?(?:0|[1-9][0-9]{0,18}))"
_ATOM_LINE = re.compile(
    rf'\{{"t": {_NUMBER}, "w": {_NUMBER}, "k": {_INTEGER}, "j": {_INTEGER}, '
    rf'"m": {_INTEGER}\}}')


def atoms_from_bytes(data: bytes) -> AtomicLineMeasure:
    """Parse an atom stream, strictly.

    The stream must be UTF-8 text; a byte that is not is refused with its
    line.  An atom line of the encoder's exact shape is read by one regular
    expression; any other line goes through :func:`formats.loads_strict`,
    which refuses repeated keys and non-finite numbers, and ``t``/``w``
    must then be JSON numbers and ``k``/``j``/``m`` JSON integers.  Both
    paths give a line the values ``json.loads`` would.  The stream must
    then have the structure both builders give: one boundary and one
    cumulative mass per level, each level-k atom above ``T_{k-1}`` and
    below ``T_k``, at least one atom per level, and the weights through
    level k summing, within float64, to its mass.
    """
    from .formats import _integer, _number, loads_strict  # formats imports us

    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         data.count(b"\n", 0, exc.start) + 1) from exc
    if not lines:
        raise ParseError("empty atom stream, expected a header line", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad header: {exc}", 1) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} stream", 1)
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported version {header.get('version')!r}", 1)

    t, w, level, source, rep = [], [], [], [], []
    boundaries: list[float] = []
    masses: list[float] = []
    saw_trailer = False
    previous = -math.inf
    # Each line is dropped once read, so that the stream's lines and its
    # atoms' values are not all held at once; an error splits it again.
    lines.reverse()
    lines.pop()  # the header, read above
    number = 1
    while lines:
        raw = lines.pop()
        number += 1
        match = _ATOM_LINE.fullmatch(raw)
        if match is not None and not saw_trailer:
            t_s, w_s, k_s, j_s, m_s = match.groups()
            t_i, w_i = float(t_s), float(w_s)
            k_i, j_i, m_i = int(k_s), int(j_s), int(m_s)
        else:
            if not raw.strip():
                continue
            if saw_trailer:
                raise ParseError("content after the boundaries line", number)
            try:
                record = loads_strict(raw)
            except ParseError as exc:
                raise ParseError(f"malformed line: {exc}", number) from exc
            if not isinstance(record, dict):
                raise ParseError("expected a JSON object", number)
            try:
                if "boundaries" in record:
                    boundaries = [_number(b, "boundary") for b in record["boundaries"]]
                    masses = [_number(m, "mass") for m in record.get("masses", [])]
                    saw_trailer = True
                    continue
                t_i = _number(record["t"], "position t")
                w_i = _number(record["w"], "weight w")
                k_i = _integer(record["k"], "level k")
                j_i = _integer(record["j"], "source j")
                m_i = _integer(record["m"], "repetition m")
            except KeyError as exc:
                raise ParseError(f"atom line missing key {exc}", number) from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"malformed line: {exc}", number) from exc
            if error := _past_int64((k_i, j_i, m_i), number):
                raise error
        if t_i <= previous:
            raise _overflow(data, number) or ParseError(
                f"atom positions must strictly increase ({t_i} after {previous})",
                number,
            )
        previous = t_i
        t.append(t_i)
        w.append(w_i)
        level.append(k_i)
        source.append(j_i)
        rep.append(m_i)
    try:
        lam = AtomicLineMeasure(
            t, w, level, source, rep,
            level_boundaries=boundaries,
            total_mass_by_level=masses,
            growth_name=header.get("growth", "2^k"),
        )
    except (DomainError, OverflowError) as exc:  # an integer beyond int64
        raise _overflow(data, number) or ParseError(str(exc)) from exc
    # The structure both builders give: one boundary and one cumulative mass
    # per level, and each level-k atom above T_{k-1} and below T_k.
    levels = _integer(header.get("levels"), "header levels")
    if not len(boundaries) == len(masses) == levels:
        raise ParseError(f"header says {levels} levels, but the trailer has "
                         f"{len(boundaries)} boundaries and {len(masses)} masses")
    ends = np.asarray(boundaries)
    if not np.all(np.diff(ends) > 0):
        raise ParseError("level boundaries must strictly increase")
    # The sorted times, cut at the boundaries, fall into the levels in turn:
    # level k's atoms are those in [T_{k-1}, T_k).  Each level is checked by
    # its min and max, which allocate no array of the atoms' length.
    cuts = [0, *np.searchsorted(lam.t, ends).tolist()]
    for k in range(1, levels + 1):
        block = lam.level[cuts[k - 1]:cuts[k]]
        if block.size and not block.min() == k == block.max():
            i = cuts[k - 1] + int(np.flatnonzero(block != k)[0])
            raise ParseError(f"atom {i + 1} (t={t[i]!r}) has level k={level[i]}, "
                             f"but its position lies in level {k} of {levels}")
    if cuts[-1] < len(t):
        i = cuts[-1]
        raise ParseError(f"atom {i + 1} (t={t[i]!r}) has level k={level[i]}, "
                         f"but its position lies past level {levels}")
    # Both builders place at least one repetition of every source per level.
    for k in range(1, levels + 1):
        if cuts[k - 1] == cuts[k]:
            raise ParseError(f"level {k} of {levels} holds no atom")
    # Both builders give level k the mass masses[k-1] exactly, up to the
    # point-mass weights' own tolerance and rounding.
    try:
        totals = exact_sum(lam.w, cuts[1:])
    except OverflowError as exc:
        raise ParseError(f"the atoms' weights sum past float64 ({exc})") from exc
    for k, (total, mass) in enumerate(zip(totals, masses), start=1):
        if not abs(total - mass) <= MASS_TOL * total:
            raise ParseError(f"the atoms through level {k} weigh {total!r}, "
                             f"but the trailer gives mass {mass!r}")
    return lam


def _overflow(data: bytes, stop: int) -> ParseError | None:
    """The error for the first atom line of the stream ``data`` up to line
    ``stop`` whose ``t`` or ``w`` the regular expression read as a number
    beyond float64, or whose ``k``, ``j`` or ``m`` it read as an integer
    beyond int64, or ``None``.  The strict path refuses such values itself;
    this one is looked for only once decoding has failed, so that decoding
    costs no more."""
    lines = data.decode("utf-8").splitlines()
    for number, raw in enumerate(lines[1:stop], start=2):
        match = _ATOM_LINE.fullmatch(raw)
        if match is not None:
            t_s, w_s, *integers = match.groups()
            for name, text in (("position t", t_s), ("weight w", w_s)):
                if not math.isfinite(float(text)):
                    return ParseError(f"{name} {text} overflows float64", number)
            if error := _past_int64(map(int, integers), number):
                return error
    return None


def _past_int64(integers, number: int) -> ParseError | None:
    """The error for the first of an atom's ``k``, ``j``, ``m`` beyond
    int64, or ``None``."""
    for name, value in zip(("level k", "source j", "repetition m"), integers):
        if not -(1 << 63) <= value < 1 << 63:
            return ParseError(f"{name} {value} exceeds int64", number)
    return None


def save_atoms(lam: AtomicLineMeasure, path) -> None:
    with open(path, "wb") as handle:
        handle.write(atoms_to_bytes(lam))


def load_atoms(path) -> AtomicLineMeasure:
    with open(path, "rb") as handle:
        return atoms_from_bytes(handle.read())


def empty_measure(growth_name: str = "2^k") -> AtomicLineMeasure:
    return AtomicLineMeasure([], [], [], [], [],
                             level_boundaries=(), total_mass_by_level=(),
                             growth_name=growth_name)
