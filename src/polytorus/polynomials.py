"""Dirichlet polynomials, torus polynomials, and the Bohr lift.

A Dirichlet polynomial is a finite sum ``f(s) = sum_n a_n n^{-s}``.  Writing
each frequency as ``n = p_1^{a1} p_2^{a2} ...`` turns ``f`` into a polynomial
``F(z) = sum_alpha a_alpha z^alpha`` on the polytorus via ``z_j = p_j^{-s}``;
this module implements both directions of that correspondence together with
pointwise evaluation and the exact closed form for vertical-line mean squares.

All types are immutable after construction and safe to share across threads.
The blocks of the long evaluations and reductions run on a thread per core
(:func:`_map`); their numpy work releases the interpreter lock, and every
block is computed and added as it is on one thread, so no result depends on
the number of cores.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FrequencyOverflowError
from .primes import PrimeBasis

TWO_PI = 2.0 * math.pi

# Frequencies are kept inside the exact 64-bit integer range; anything larger
# is refused outright rather than silently wrapped or rounded.
MAX_FREQUENCY = 2**63 - 1

# Relative slack applied when validating mean bounds; covers accumulated
# rounding across up-to-1e6-atom sums and n^2-term closed forms.
_BOUND_SLACK = 1e-9

# Rows of the matrix 1 / log(m/n) evaluated together for lebesgue_line_mean
# and cross_term_envelope: few enough that a block's share below the
# diagonal stays small, enough that the numpy calls per block stay cheap
# next to the entries they evaluate.
_KERNEL_ROWS = 32

# lebesgue_line_mean evaluates the pairs whose phase x = T log(n/m) is
# smaller than this in size by _mean_kernel: there its separable form's
# numerator n^{-iT} m^{iT} - 1 cancels to about |x|, losing digits.
_NEAR_PHASE = 1.0

# Phases evaluated together in eval_dirichlet: a block holds
# max(1, _EVAL_VALUES // len(f)) times, about 2 MiB of complex values, so
# memory grows neither with the number of times nor with the number of terms.
_EVAL_VALUES = 1 << 17

# Most threads _map uses, whatever the number of cores: each holds a block.
_MAX_THREADS = 8

# exact_sum adds the two halves of the values' mantissas in float64, which is
# exact for up to _EXACT_TERMS values; longer inputs are left to math.fsum,
# and so are inputs of at most _FSUM_TERMS values, which fsum adds faster
# than the numpy pass's fixed cost (about 20 us).
_EXACT_TERMS = 1 << 26
_FSUM_TERMS = 512

# exact_sum leaves to math.fsum any input whose magnitudes could sum to
# 2^_EXACT_TOP or more, so that fsum's overflow errors stay its own.
_EXACT_TOP = 1020


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple ``(a_1, ..., a_d)``; trailing zeros are canonicalized away."""

    exponents: tuple[int, ...]

    def __init__(self, exponents=()):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise DomainError(f"multi-index entries must be >= 0, got {exps}")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        object.__setattr__(self, "exponents", exps)

    @property
    def length(self) -> int:
        """Number of leading coordinates actually used."""
        return len(self.exponents)

    @property
    def weight(self) -> int:
        """Total degree ``|alpha|_1``."""
        return sum(self.exponents)

    def padded(self, dimension: int) -> tuple[int, ...]:
        if dimension < self.length:
            raise DimensionError(
                f"multi-index {self.exponents} does not fit in dimension {dimension}"
            )
        return self.exponents + (0,) * (dimension - self.length)

    def __iter__(self):
        return iter(self.exponents)

    def __repr__(self):
        return f"MultiIndex{self.exponents}"


@dataclass(frozen=True)
class TorusPoint:
    """A point of the polytorus, stored as angles in ``[0, 2*pi)``."""

    angles: tuple[float, ...]

    def __init__(self, angles):
        raw = tuple(float(a) for a in angles)
        if not all(map(math.isfinite, raw)):
            raise DomainError(f"torus angles must be finite, got {raw}")
        object.__setattr__(self, "angles", tuple(a % TWO_PI for a in raw))

    @property
    def dimension(self) -> int:
        return len(self.angles)

    def coordinates(self) -> np.ndarray:
        """Complex coordinates ``exp(i*theta_j)``."""
        return np.exp(1j * np.asarray(self.angles))

    def __repr__(self):
        return f"TorusPoint{tuple(round(a, 6) for a in self.angles)}"


class DirichletPolynomial:
    """Finite sum ``sum_n a_n n^{-s}`` stored as a frequency -> coefficient map.

    Zero coefficients are dropped, frequencies must be integers in
    ``[1, 2^63 - 1]``, ``(sum |a_n|)^2`` must be a finite float64 (it bounds
    ``|f|^2`` and every mean of it), and the instance is immutable once
    built.
    """

    __slots__ = ("_terms", "_coeffs", "_logs")

    def __init__(self, terms):
        cleaned: dict[int, complex] = {}
        for n, a in dict(terms).items():
            n = int(n)
            if n < 1:
                raise DomainError(f"frequency must be >= 1, got {n}")
            if n > MAX_FREQUENCY:
                raise FrequencyOverflowError(
                    f"frequency {n} exceeds the 64-bit range"
                )
            a = complex(a)
            if a != 0:
                cleaned[n] = a
        # Frequencies stay Python ints: float64 cannot hold every n > 2^53.
        freqs = sorted(cleaned)
        coeffs = np.array([cleaned[n] for n in freqs], dtype=np.complex128)
        with np.errstate(over="ignore"):
            l1 = float(np.sum(np.abs(coeffs)))
        if not math.isfinite(l1 * l1):
            raise DomainError(
                f"coefficients too large: their absolute sum {l1!r} squares past float64"
            )
        logs = np.array([math.log(n) for n in freqs], dtype=np.float64)
        for arr in (coeffs, logs):
            arr.setflags(write=False)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_logs", logs)

    def __setattr__(self, name, value):
        raise AttributeError("DirichletPolynomial is immutable")

    @property
    def terms(self) -> dict[int, complex]:
        return dict(self._terms)

    @property
    def frequencies(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, n: int) -> complex:
        return self._terms.get(int(n), 0j)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletPolynomial) and other._terms == self._terms
        )

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items(), key=lambda kv: kv[0])))

    def __repr__(self):
        body = " + ".join(f"({a})*{n}^-s" for n, a in sorted(self._terms.items()))
        return body or "0"

    def coefficient_l1(self) -> float:
        """``sum |a_n|``, an upper bound for the sup norm on the closed half-plane."""
        return float(np.sum(np.abs(self._coeffs))) if len(self) else 0.0

    def sup_square_bound(self) -> float:
        """``(sum |a_n|)^2``, an upper bound for ``|f|^2`` anywhere it is evaluated."""
        return self.coefficient_l1() ** 2


class TorusPolynomial:
    """Finite sum ``sum_alpha a_alpha z^alpha`` over a declared prime basis."""

    __slots__ = ("_terms", "basis")

    def __init__(self, terms, basis: PrimeBasis):
        cleaned: dict[MultiIndex, complex] = {}
        for alpha, a in dict(terms).items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex(alpha)
            a = complex(a)
            if a != 0:
                cleaned[alpha] = cleaned.get(alpha, 0j) + a
        cleaned = {alpha: a for alpha, a in cleaned.items() if a != 0}
        max_len = max((alpha.length for alpha in cleaned), default=0)
        if max_len > basis.dimension:
            raise DimensionError(
                f"index of length {max_len} exceeds basis dimension {basis.dimension}"
            )
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("TorusPolynomial is immutable")

    @property
    def terms(self) -> dict[MultiIndex, complex]:
        return dict(self._terms)

    @property
    def max_index_length(self) -> int:
        return max((alpha.length for alpha in self._terms), default=0)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return isinstance(other, TorusPolynomial) and other._terms == self._terms

    def __repr__(self):
        body = " + ".join(
            f"({a})*z^{alpha.exponents}" for alpha, a in sorted(
                self._terms.items(), key=lambda kv: kv[0].exponents
            )
        )
        return body or "0"

    def coefficient_l1(self) -> float:
        return float(sum(abs(a) for a in self._terms.values()))

    def lipschitz_square_bound(self) -> float:
        """Lipschitz constant bound for ``|F|^2`` in the Euclidean chord metric.

        ``|F|`` is bounded by ``sum |a|`` and ``F`` itself is Lipschitz with
        constant ``sum |a| * |alpha|_1``, so ``|F|^2`` is Lipschitz with
        constant at most ``2 * (sum |a|) * (sum |a| * |alpha|_1)``.
        """
        s0 = self.coefficient_l1()
        s1 = float(sum(abs(a) * alpha.weight for alpha, a in self._terms.items()))
        return 2.0 * s0 * s1


def factor_over_basis(n: int, basis: PrimeBasis) -> MultiIndex:
    """Factor ``n`` over the basis primes; refuse any leftover factor."""
    n = int(n)
    if n < 1:
        raise DomainError(f"frequency must be >= 1, got {n}")
    exps = []
    rest = n
    for p in basis.primes:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        exps.append(e)
    if rest != 1:
        raise DimensionError(
            f"frequency {n} has a prime factor beyond the first "
            f"{basis.dimension} primes (leftover {rest})"
        )
    return MultiIndex(exps)


def minimal_basis(f: DirichletPolynomial) -> PrimeBasis:
    """Smallest prime basis over which every frequency of ``f`` factors."""
    dim = 1
    while True:
        basis = PrimeBasis(dim)
        try:
            for n in f.frequencies:
                factor_over_basis(n, basis)
            return basis
        except DimensionError:
            if dim > 64:
                raise
            dim += 1


def bohr_lift(f: DirichletPolynomial, basis: PrimeBasis | None = None) -> TorusPolynomial:
    """Lift a Dirichlet polynomial to the polytorus via ``z_j = p_j^{-s}``.

    Each term ``a_n n^{-s}`` with ``n = prod p_j^{alpha_j}`` becomes the
    monomial ``a_alpha z^alpha``; the coefficient multiset is preserved and
    the map is inverted exactly by :func:`bohr_unlift`.
    """
    if basis is None:
        basis = minimal_basis(f)
    lifted = {factor_over_basis(n, basis): a for n, a in f.terms.items()}
    return TorusPolynomial(lifted, basis)


def bohr_unlift(F: TorusPolynomial) -> DirichletPolynomial:
    """Invert the Bohr lift; frequencies are rebuilt in exact integer arithmetic."""
    terms: dict[int, complex] = {}
    for alpha, a in F.terms.items():
        n = 1
        for p, e in zip(F.basis.primes, alpha.exponents):
            n *= p**e
        if n > MAX_FREQUENCY:
            raise FrequencyOverflowError(
                f"monomial {alpha.exponents} maps to frequency {n} beyond the 64-bit range"
            )
        terms[n] = terms.get(n, 0j) + a
    return DirichletPolynomial(terms)


def flow_point(basis: PrimeBasis, t: float) -> TorusPoint:
    """Point of the vertical-line flow at time ``t``: angles ``-t*log p_j`` mod 2*pi."""
    return TorusPoint((-float(t)) * basis.logs)


def flow_angles(basis: PrimeBasis, t) -> np.ndarray:
    """Vectorized flow angles; shape ``t.shape + (dimension,)``."""
    t = np.asarray(t, dtype=np.float64)
    return np.mod(np.multiply.outer(-t, basis.logs), TWO_PI)


def _thread_count() -> int:
    """Threads :func:`_map` may use: one per core this process may run on, at
    most ``_MAX_THREADS``."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, _MAX_THREADS)


def _map(fn, items) -> list:
    """``[fn(item) for item in items]``, the items taken in turn by the calling
    thread and one helper thread per further core.

    Meant for blocks whose numpy work releases the interpreter lock.  ``fn``
    may read shared data and write disjoint parts of an output, and must call
    only private helpers: the benchmark's tracer wraps the public functions,
    and its span stack belongs to the calling thread.  One item, or one core,
    starts no thread.  If items raise, no further item is started, and once
    the started ones have finished, the exception of the first failing item
    is raised unchanged, as the plain loop would raise it.
    """
    items = list(items)
    threads = min(_thread_count(), len(items))
    if threads < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    order = iter(range(len(items)))
    lock = threading.Lock()

    def take():
        with lock:
            return next(order, None)

    def stop():
        with lock:
            for _ in order:
                pass

    def work():
        while (i := take()) is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again by the caller below
                errors[i] = exc
                stop()

    helpers = []
    try:
        for _ in range(threads - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        stop()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def exact_sum(x, ends=None):
    """``math.fsum(x)`` of a float64 array, with most of its work done in
    numpy, without the interpreter lock; with ``ends``, the list of ``fsum(x[:n])`` for each
    ``n`` in ``ends`` (each in ``[0, len(x)]``), from one pass.

    ``np.frexp`` writes each value as ``m * 2^(e-53)`` with ``m`` an integer,
    ``|m| < 2^53``, and ``m`` is split into ``h * 2^26 + l`` with
    ``|h| < 2^27`` and ``|l| < 2^26``.  ``np.bincount`` adds the ``h`` and the
    ``l`` of each exponent within each segment between consecutive ends, and
    a cumulative sum over the segments gives each prefix's totals; float64
    holds every such sum of at most 2^26 values exactly.  The totals are
    joined as one Python integer per prefix, which a single correctly
    rounded division turns into a float.  A correctly rounded sum is unique,
    so the bits are ``fsum``'s.  Input with a non-finite value, with
    magnitudes that could sum to ``2^_EXACT_TOP``, or with more than
    ``_EXACT_TERMS`` or at most ``_FSUM_TERMS`` values goes to ``math.fsum``
    itself, which keeps its results and its errors.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    stops = sorted({x.size} if ends is None else set(ends))
    if stops and not 0 <= stops[0] <= stops[-1] <= x.size:
        raise ValueError(f"prefix ends must lie in [0, {x.size}], got {ends}")
    sums = None
    if _FSUM_TERMS < x.size <= _EXACT_TERMS and np.isfinite(x).all():
        mant, exp = np.frexp(x)
        if int(exp.max()) + x.size.bit_length() <= _EXACT_TOP:
            sums = _exact_prefix_sums(mant, exp, stops)
    if sums is None:
        sums = [math.fsum(x[:n]) for n in stops]
    if ends is None:
        return sums[0]
    by_end = dict(zip(stops, sums))
    return [by_end[n] for n in ends]


def _exact_prefix_sums(mant, exp, stops) -> list[float]:
    """The sums of :func:`exact_sum` for ``frexp`` parts of finite values and
    sorted prefix ends."""
    low = int(exp.min())
    bins = int(exp.max()) - low + 1
    # in place: a helper thread's malloc arena keeps what its blocks allocate
    rest = np.multiply(mant, 2.0**27, out=mant)
    high = np.trunc(rest)
    rest -= high
    rest *= 2.0**26
    index = np.subtract(exp, low, out=exp)
    segments = len(stops) + 1
    if stops != [mant.size]:
        counts = np.diff([0, *stops, mant.size])
        index = index + bins * np.repeat(np.arange(segments), counts)
    highs, rests = (
        np.cumsum(np.bincount(index, weights=part, minlength=bins * segments)
                  .reshape(segments, bins)[:-1], axis=0).tolist()
        for part in (high, rest))
    shift = low - 53
    sums = []
    for high_row, rest_row in zip(highs, rests):
        whole = 0
        for h, r in zip(reversed(high_row), reversed(rest_row)):
            whole = (whole << 1) + (int(h) << 26) + int(r)
        sums.append(whole / (1 << -shift) if shift < 0 else float(whole << shift))
    return sums


def _term_sums(f: DirichletPolynomial, amps, times):
    """``sum_n amps_n exp(-i t log n)`` for every ``t`` in ``times``."""
    terms = -1j * np.multiply.outer(times, f._logs)
    np.exp(terms, out=terms)
    terms *= amps
    # each row summed along the term axis on its own (not matmul), so
    # scalar, batched and blocked calls agree bit for bit
    return terms.sum(axis=-1)


def eval_dirichlet(f: DirichletPolynomial, sigma: float, t):
    """Evaluate ``f`` at ``s = sigma + i t`` for scalar or array ``t``.

    Returns ``sum_n a_n n^{-sigma} exp(-i t log n)``; requires ``sigma >= 0``.
    The times are evaluated in blocks of ``max(1, _EVAL_VALUES // len(f))``,
    spread over the cores by :func:`_map`.
    """
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    t_arr = np.asarray(t, dtype=np.float64)
    if len(f) == 0:
        out = np.zeros(t_arr.shape, dtype=np.complex128)
        return complex(out) if t_arr.ndim == 0 else out
    amps = f._coeffs * np.exp(-sigma * f._logs)
    rows = max(1, _EVAL_VALUES // len(f))
    if t_arr.size <= rows:
        out = _term_sums(f, amps, t_arr)
    else:
        t_flat = t_arr.reshape(-1)
        out = np.empty(t_arr.shape, dtype=np.complex128)
        out_flat = out.reshape(-1)

        def block(i0):
            out_flat[i0:i0 + rows] = _term_sums(f, amps, t_flat[i0:i0 + rows])

        _map(block, range(0, t_flat.size, rows))
    return complex(out) if t_arr.ndim == 0 else out


def eval_torus(F: TorusPolynomial, omega: TorusPoint) -> complex:
    """Evaluate ``F`` at a torus point: ``sum_alpha a_alpha exp(i theta . alpha)``."""
    if omega.dimension < F.max_index_length:
        raise DimensionError(
            f"point of dimension {omega.dimension} cannot evaluate a polynomial "
            f"using {F.max_index_length} coordinates"
        )
    theta = np.asarray(omega.angles)
    total = 0j
    for alpha, a in F.terms.items():
        exps = np.asarray(alpha.exponents)
        total += a * np.exp(1j * float(theta[: len(exps)] @ exps)) if len(exps) else a
    return complex(total)


def _mean_kernel(x):
    """``(exp(-ix) - 1) / (-ix)`` evaluated stably for any real ``x``.

    Uses the exact identity ``exp(-ix/2) * sinc(x / (2*pi))`` so that small
    and large ``x`` are handled uniformly; value at ``x = 0`` is ``1``.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5j * x) * np.sinc(x / TWO_PI)


def carlson_target(f: DirichletPolynomial, sigma: float) -> float:
    """Limit of the vertical-line mean square at ``Re s = sigma``: ``sum |a_n|^2 n^{-2 sigma}``."""
    if len(f) == 0:
        return 0.0
    return float(np.sum(np.abs(f._coeffs) ** 2 * np.exp(-2.0 * sigma * f._logs)))


def _upper_sum(logs, block_sum) -> float:
    """``math.fsum`` of ``block_sum(i0, i1, inverse)`` over the strict upper
    triangle of ``1 / (logs[j] - logs[i])``, one block per ``_KERNEL_ROWS``
    rows, the blocks spread over the cores by :func:`_map`.

    Block ``[i0, i1)`` holds rows ``i0..i1-1`` against columns ``i0+1..n-1``:
    its entry ``(r, c)`` pairs ``i0 + r`` with ``i0 + 1 + c``.  Entries with
    ``c < r`` (on or below the diagonal) are 0, and pairs whose float logs
    coincide (frequencies past 2^53) give ``inf``.  ``block_sum`` owns its
    block and may overwrite it.  No array larger than ``_KERNEL_ROWS`` by
    ``n`` is made.
    """
    n = len(logs)
    below = np.tri(_KERNEL_ROWS, k=-1, dtype=bool)

    def block(i0):
        i1 = min(i0 + _KERNEL_ROWS, n - 1)
        inverse = logs[None, i0 + 1:] - logs[i0:i1, None]
        with np.errstate(divide="ignore"):
            np.divide(1.0, inverse, out=inverse)
        rows = i1 - i0
        inverse[:, :rows][below[:rows, :rows]] = 0.0
        return block_sum(i0, i1, inverse)

    return math.fsum(_map(block, range(0, n - 1, _KERNEL_ROWS)))


def cross_term_envelope(f: DirichletPolynomial, sigma: float) -> float:
    """Constant ``C`` with ``|line mean - carlson_target| <= C / T`` for every ``T > 0``.

    Each off-diagonal pair contributes at most
    ``2 |a_n| |a_m| (n m)^{-sigma} / |log(n/m)|`` after dividing by ``T``;
    the reciprocals ``1 / log(m/n)`` come in row blocks from the loop that
    also serves :func:`lebesgue_line_mean`, and pairs whose float logs
    coincide add nothing.
    """
    if len(f) < 2:
        return 0.0
    mags = np.abs(f._coeffs) * np.exp(-sigma * f._logs)

    def block_sum(i0, i1, inverse):
        magnitude = np.abs(inverse, out=inverse)
        magnitude[magnitude == math.inf] = 0.0
        return float(mags[i0:i1] @ magnitude @ mags[i0 + 1:])

    # the pair matrix is symmetric: twice its upper triangle, each pair at
    # most 2 / |log(n/m)|
    return 4.0 * _upper_sum(f._logs, block_sum)


def lebesgue_line_mean(f: DirichletPolynomial, sigma: float, T: float) -> float:
    """Exact value of ``(1/T) * integral_0^T |f(sigma + it)|^2 dt``.

    Expanding the square gives the diagonal ``sum |a_n|^2 n^{-2 sigma}`` plus
    cross terms ``d_n kernel(x) conj(d_m)`` with ``d_n = a_n n^{-sigma}``,
    ``x = T log(n/m)`` and ``kernel(x) = (exp(-ix) - 1)/(-ix)``.  The kernel
    matrix is Hermitian, so the cross terms are twice the real part of its
    strict upper triangle.

    The kernel factors: with ``u_n = n^{-iT}``, ``exp(-ix) = u_n conj(u_m)``,
    so ``kernel(x) = i (u_n conj(u_m) - 1) / x``.  A pair's real part is then
    ``Im(b_n conj(b_m) - d_n conj(d_m)) / (T log(m/n))`` with
    ``b_n = d_n u_n``: one complex exponential per term, not per pair.  The
    reciprocals ``1 / log(m/n)`` come in blocks of ``_KERNEL_ROWS`` rows (see
    :func:`_upper_sum`), and each block is reduced by one real matrix product
    of the stacked real and imaginary parts of ``b`` and ``d``.  Where
    ``|x| < _NEAR_PHASE`` the separable numerator cancels to about ``|x|``,
    so those pairs (``x = 0`` included, where float logs coincide) are taken
    out of the product and evaluated by ``_mean_kernel`` at
    ``x = -T / (1 / log(m/n))``.  On 200-term polynomials the result agrees
    with a 50-digit evaluation of the closed form to a relative 1.1e-13 at
    ``T`` from 1e-3 to 1e8 (``_mean_kernel`` on every pair: 5.1e-14); at
    large ``T`` both forms carry a phase error of about ``T * ulp(log n)``.

    The blocks' parts are added with ``math.fsum``.  No ``n x n`` array is
    made.  The result must lie in ``[0, (sum |a_n| n^{-sigma})^2]``, the range
    of ``|f|^2``, widened by ``_BOUND_SLACK`` as in
    :func:`~polytorus.averages.convergence_sweep`; a mean outside it signals a
    bug and raises.
    """
    if not 0 < T < math.inf:
        raise DomainError(f"T must be positive and finite, got {T}")
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if len(f) == 0:
        return 0.0
    logs = f._logs
    damped = f._coeffs * np.exp(-sigma * logs)
    diagonal = float(np.sum(np.abs(damped) ** 2))
    turned = damped * np.exp(-1j * T * logs)
    # Im(b_r conj(b_c) - d_r conj(d_c)) = sum_k left[k, r] * right[k, c]
    left = np.stack([turned.imag, -turned.real, -damped.imag, damped.real])
    right = np.stack([turned.real, turned.imag, damped.real, damped.imag])
    conj = np.conj(damped)
    limit = T / _NEAR_PHASE

    def block_sum(i0, i1, inverse):
        near = 0.0
        close = np.abs(inverse) > limit
        if close.any():
            x = inverse[close]
            np.divide(-T, x, out=x)
            # in place, so that at most one gathered factor is held at once
            terms = _mean_kernel(x)
            terms *= np.broadcast_to(damped[i0:i1, None], inverse.shape)[close]
            terms *= np.broadcast_to(conj[None, i0 + 1:], inverse.shape)[close]
            near = float(np.sum(terms.real))
            inverse[close] = 0.0
        far = float(np.vdot(left[:, i0:i1] @ inverse, right[:, i0 + 1:])) / T
        return near + far

    total = diagonal + 2.0 * _upper_sum(logs, block_sum)
    bound = float(np.sum(np.abs(damped))) ** 2
    if not -_BOUND_SLACK * (1.0 + bound) <= total <= bound * (1.0 + _BOUND_SLACK):
        raise ArithmeticError(
            f"closed-form mean {total!r} escapes [0, {bound}]; this indicates "
            "a bug"
        )
    return total
