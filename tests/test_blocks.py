"""Checks in blocks: the correctly rounded sum, and the bits of every
function that cuts its work into blocks or sums with it."""

import math
import pathlib
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytorus import (
    AtomicLineMeasure,
    DirichletPolynomial,
    PrimeBasis,
    TorusPointMassMeasure,
    convergence_sweep,
    cross_term_envelope,
    eval_dirichlet,
    lebesgue_line_mean,
    measures,
    recover_moments,
)
from polytorus import _blocks, polynomials
from polytorus._blocks import exact_sum
from polytorus.averages import _characters
from polytorus.polynomials import _mean_kernel, _upper_sum

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from bench.tracing import Tracer  # noqa: E402

SMALLEST_NORMAL = 2.2250738585072014e-308
EPS = 2.0**-52


def bits(value):
    return "nan" if math.isnan(value) else value.hex()


def outcome(fn, x):
    """What ``fn(x)`` gives: the bits of its value or values, or its error's
    type and text."""
    try:
        value = fn(x)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return [bits(v) for v in value] if isinstance(value, list) else bits(value)


@contextmanager
def numpy_pass():
    """Make exact_sum take its numpy pass for inputs of any length."""
    short = _blocks._FSUM_TERMS
    _blocks._FSUM_TERMS = 0
    try:
        yield
    finally:
        _blocks._FSUM_TERMS = short


def outcomes(fn, x):
    """``outcome(fn, x)`` with exact_sum's defaults and with its numpy pass."""
    with numpy_pass():
        forced = outcome(fn, x)
    return outcome(fn, x), forced


def assert_sums_like_fsum(x):
    expected = outcome(math.fsum, x)
    assert outcomes(exact_sum, x) == (expected, expected)
    assert outcomes(exact_sum, np.asarray(x, dtype=np.float64)) == (expected, expected)


finite = st.floats(allow_nan=False, allow_infinity=False)
subnormal = st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL)
wide = st.builds(lambda sign, magnitude: sign * magnitude,
                 st.sampled_from([-1.0, 1.0]), st.floats(1e-300, 1e300))


class TestExactSum:
    @given(st.lists(finite, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_values(self, x):
        assert_sums_like_fsum(x)

    @given(st.lists(st.one_of(subnormal, wide), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_subnormals_and_magnitudes_from_1e_300_to_1e300(self, x):
        assert_sums_like_fsum(x)

    @given(st.lists(st.one_of(finite, subnormal, wide), min_size=1, max_size=30),
           st.lists(st.one_of(subnormal, st.floats(-1e-10, 1e-10)), max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_heavy_cancellation(self, x, small, random):
        values = x + [-v for v in x] + small
        random.shuffle(values)
        assert_sums_like_fsum(values)

    @given(st.lists(st.one_of(finite, subnormal), max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_prefix_sums(self, x, data):
        ends = data.draw(st.lists(st.integers(0, len(x)), max_size=6))
        expected = outcome(lambda v: [math.fsum(v[:n]) for n in ends], x)
        assert outcomes(lambda v: exact_sum(v, ends), x) == (expected, expected)

    @pytest.mark.parametrize("x", [
        [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [-5e-324, 5e-324],
        [1.0, 1e100, 1.0, -1e100], [1e308, -1e308, 1.0],
        [1.7976931348623157e308, -1.7976931348623157e308, 5e-324],
        [1e308, 1e308, -1e308], [1e308, 1e308], [-1e308, -1e308],
        [math.inf, -math.inf], [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 2.0],
    ])
    def test_edge_and_fallback_cases(self, x):
        assert_sums_like_fsum(x)

    def test_overflow_error_is_fsums(self):
        with numpy_pass(), pytest.raises(OverflowError,
                                         match="intermediate overflow in fsum"):
            exact_sum([1e308, 1e308, -1e308])

    def test_prefix_ends_out_of_range_refused(self):
        with pytest.raises(ValueError):
            exact_sum([1.0, 2.0], [3])
        with pytest.raises(ValueError):
            exact_sum([1.0, 2.0], [-1])

    def test_long_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100_000) * np.exp(rng.uniform(-40, 40, 100_000))
        ends = [0, 1, 4096, 50_000, 50_000, 99_999, 100_000, 7]
        assert exact_sum(x).hex() == math.fsum(x).hex()
        assert [s.hex() for s in exact_sum(x, ends)] == [
            math.fsum(x[:n]).hex() for n in ends]


def polynomial(rng, terms, primes=(2, 3, 5, 7), top=(11, 7, 5, 4)):
    """``terms`` distinct frequencies from an exponent box, random coefficients."""
    box = np.stack(np.meshgrid(*[np.arange(e + 1) for e in top]), -1).reshape(-1, len(top))
    chosen = box[rng.choice(len(box), size=terms, replace=False)]
    coeffs = rng.uniform(0.3, 1.2, terms) * np.exp(1j * rng.uniform(0, 2 * np.pi, terms))
    return DirichletPolynomial({
        math.prod(p ** int(e) for p, e in zip(primes, row)): complex(a)
        for row, a in zip(chosen, coeffs)})


@pytest.fixture(scope="module")
def terms_32():
    return polynomial(np.random.default_rng(32), 32)


@pytest.fixture(scope="module")
def terms_2000():
    return polynomial(np.random.default_rng(2000), 2000)


@pytest.fixture(scope="module")
def long_measure():
    rng = np.random.default_rng(9)
    n = 10_000
    t = np.cumsum(rng.uniform(0.05, 2.0, n))
    w = rng.uniform(0.2, 1.0, n)
    return AtomicLineMeasure(t, w, [1] * n, [1] * n, [1] * n,
                             level_boundaries=(t[-1] + 1.0,),
                             total_mass_by_level=(math.fsum(w),))


class TestBlocksKeepTheBits:
    @pytest.mark.parametrize("size", [4095, 4096, 4097, 8193])
    def test_eval_dirichlet(self, terms_32, size):
        assert polynomials._EVAL_VALUES // len(terms_32) == 4096
        t = np.linspace(0.0, 3e5, size)
        blocked = eval_dirichlet(terms_32, 0.25, t)
        scalar = np.array([eval_dirichlet(terms_32, 0.25, float(x)) for x in t[::97]])
        assert blocked[::97].tobytes() == scalar.tobytes()

    def test_eval_dirichlet_scalar_empty_and_grid(self, terms_32):
        # 12,295 times: three blocks of 4,096 and one of 7, cut across rows
        t = np.linspace(-5e4, 3e5, 3 * 4096 + 7)
        scalar = eval_dirichlet(terms_32, 0.25, float(t[5]))
        empty = eval_dirichlet(terms_32, 0.25, t[:0])
        grid = eval_dirichlet(terms_32, 0.25, t.reshape(5, 2459))
        assert isinstance(scalar, complex)
        assert empty.shape == (0,)
        assert grid.shape == (5, 2459)
        flat = eval_dirichlet(terms_32, 0.25, t)
        assert grid.tobytes() == flat.tobytes()
        assert repr(complex(flat[5])) == repr(scalar)

    @given(st.dictionaries(
               st.integers(1, 10**6),
               st.one_of(st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0),
                         st.sampled_from([1.0, -1.5, 1j, -0.5j])),
               min_size=1, max_size=3),
           st.lists(st.one_of(st.floats(-1e7, 1e7), st.sampled_from([0.0, -0.0])),
                    min_size=1, max_size=4),
           st.sampled_from([0.0, 0.5]))
    @example({25: 1.5 + 1j}, [1.0, 2.0], 0.0)
    @settings(max_examples=300, deadline=None)
    def test_eval_dirichlet_few_terms_scalar_equals_batched(self, terms, times, sigma):
        # a polynomial of one term multiplies a single time's phase by its
        # amplitude in another numpy loop than a column of times, unless both
        # are new products with a (1, terms) row
        f = DirichletPolynomial(terms)
        batched = eval_dirichlet(f, sigma, np.array(times))
        for t, value in zip(times, batched.tolist()):
            scalar = eval_dirichlet(f, sigma, t)
            assert [bits(scalar.real), bits(scalar.imag)] == \
                [bits(value.real), bits(value.imag)], (t, scalar, value)

    def test_eval_dirichlet_lifted(self):
        # powers of the phases of 2 and 3, and the residues 5 and 7 left
        f = DirichletPolynomial({2**a * 3**b * r: complex(1.0 / (a + 1), b - r)
                                 for a in range(4) for b in range(3) for r in (1, 5, 7)})
        assert f._lifted().powers is not None
        t = np.linspace(-5e4, 3e7, 3 * 3640 + 7)
        blocked = eval_dirichlet(f, 0.25, t)
        scalar = np.array([eval_dirichlet(f, 0.25, float(x)) for x in t[::97]])
        assert blocked[::97].tobytes() == scalar.tobytes()
        grid = eval_dirichlet(f, 0.25, t.reshape(7, 1561))
        assert grid.tobytes() == blocked.tobytes()

    # the blocked sum against every pair in the closed form, one row at a time
    @pytest.mark.parametrize("sigma, T", [(1.0, 1e8), (0.0, 0.5), (0.5, 1e3)])
    def test_lebesgue_line_mean(self, terms_2000, sigma, T):
        logs = terms_2000._logs
        d = terms_2000._coeffs * np.exp(-sigma * logs)
        parts = [math.fsum(np.abs(d) ** 2)]
        for i in range(len(d) - 1):
            kernel = _mean_kernel(T * (logs[i] - logs[i + 1:]))
            parts.append(math.fsum(2.0 * (d[i] * kernel * np.conj(d[i + 1:])).real))
        assert lebesgue_line_mean(terms_2000, sigma, T) == pytest.approx(
            math.fsum(parts), rel=1e-12, abs=0.0)

    def test_cross_term_envelope(self, terms_2000):
        logs = terms_2000._logs
        mags = np.abs(terms_2000._coeffs) * np.exp(-0.5 * logs)
        pairs = math.fsum(math.fsum(mags[i] * mags[i + 1:] / np.abs(logs[i + 1:] - logs[i]))
                          for i in range(len(mags) - 1))
        assert cross_term_envelope(terms_2000, 0.5) == pytest.approx(
            4.0 * pairs, rel=1e-12, abs=0.0)

    def test_recover_moments(self, long_measure):
        basis = PrimeBasis(2)
        pairs = [((a1, a2), (b1, b2)) for a1 in range(3) for a2 in range(3)
                 for b1 in range(3) for b2 in range(3)]
        mu = TorusPointMassMeasure([((0.3, 2.0), 0.25), ((4.0, 1.0), 0.75)])
        T = float(long_measure.t[-200])
        moments = recover_moments(long_measure, basis, pairs, T, mu)
        inside = long_measure.t <= T
        times, w = long_measure.t[inside], long_measure.w[inside]
        mass = math.fsum(w)
        for (alpha, beta), moment in zip(pairs, moments):
            diff = tuple(a - b for a, b in zip(alpha, beta))
            # the bits of the fsum form of the same characters
            phases, = _characters(times, basis.logs, [diff])
            assert repr(moment.empirical) == repr(complex(
                math.fsum(phases.real * w) / mass, math.fsum(phases.imag * w) / mass))
            # one exponential of the whole log ratio per atom: the phase of
            # p^(-i t d) carries about t |d| log p ulp, each squaring one more
            reference = np.exp(-1j * float(np.dot(diff, basis.logs)) * times)
            expected = complex(math.fsum(reference.real * w) / mass,
                               math.fsum(reference.imag * w) / mass)
            bound = 4 * EPS * (1 + T * float(np.dot(np.abs(diff), basis.logs)))
            assert abs(moment.empirical - expected) <= bound, (alpha, beta)

    def test_convergence_sweep(self, terms_32, long_measure):
        t = long_measure.t
        grid = [float(t[4095]), float(t[4096]), float(t[5000]), float(t[-1])]
        sweep = convergence_sweep(terms_32, long_measure, 2.0, grid)
        values = np.abs(eval_dirichlet(terms_32, 0.0, t)) ** 2 * long_measure.w
        for T, row in zip(grid, sweep.rows):
            n = int(np.searchsorted(t, T, side="right"))
            assert row.time_mean.hex() == (
                math.fsum(values[:n]) / math.fsum(long_measure.w[:n])).hex()


class TestBlockCover:
    # no times; more terms than values in a block (blocks of one time);
    # counts at the edges of 4,096-time blocks
    @pytest.mark.parametrize("count, terms, values", [
        (0, 1, None), (0, 64, 8), (1, 1, None), (5, 64, 8), (8191, 32, None),
        (8192, 32, None), (8193, 32, None), (12288, 32, None), (3, 16, 16),
        (3, 17, 32)])
    def test_eval_blocks_cover_the_times_once_in_order(self, monkeypatch, count,
                                                       terms, values):
        f = DirichletPolynomial({n: 1.0 / n + 0.5j for n in range(1, terms + 1)})
        t = np.linspace(-3.0, 2e4, count)
        whole = eval_dirichlet(f, 0.25, t)
        if values is not None:
            monkeypatch.setattr(polynomials, "_EVAL_VALUES", values)
        size = max(1, polynomials._EVAL_VALUES // terms)
        blocks = []
        term_sums = polynomials._term_sums

        def recording(f, amps, times):
            blocks.append(times.copy())
            return term_sums(f, amps, times)

        monkeypatch.setattr(polynomials, "_term_sums", recording)
        blocked = eval_dirichlet(f, 0.25, t)
        assert all(0 < len(times) <= size for times in blocks)
        assert len(blocks) == -(-count // size)
        assert np.concatenate([t[:0]] + blocks).tobytes() == t.tobytes()
        assert blocked.tobytes() == whole.tobytes()

    # no pair; one pair; row counts at the edges of 32-row blocks
    @pytest.mark.parametrize("n", [0, 1, 2, 32, 33, 34, 65, 66, 100])
    def test_upper_sum_blocks_cover_each_pair_once_in_order(self, n):
        logs = np.log(np.arange(1.0, n + 1.0))
        blocks = []

        def block_sum(i0, i1, inverse):
            blocks.append((i0, i1, inverse.copy()))
            return float(i1 - i0)

        assert _upper_sum(logs, block_sum) == max(n - 1, 0)
        rows = polynomials._KERNEL_ROWS
        assert [(i0, i1) for i0, i1, _ in blocks] == [
            (i0, min(i0 + rows, n - 1)) for i0 in range(0, n - 1, rows)]
        pairs = []
        for i0, i1, inverse in blocks:
            assert inverse.shape == (i1 - i0, n - 1 - i0)
            for r in range(i1 - i0):
                for c in range(n - 1 - i0):
                    i, j = i0 + r, i0 + 1 + c
                    if c < r:
                        assert inverse[r, c] == 0.0
                    else:
                        assert inverse[r, c].hex() == (1.0 / (logs[j] - logs[i])).hex()
                        pairs.append((i, j))
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]

    def test_upper_sum_coinciding_logs_give_inf(self):
        logs = np.array([0.0, 1.0, 1.0, 2.0])
        blocks = []
        _upper_sum(logs, lambda i0, i1, inverse: blocks.append(inverse.copy()) or 0.0)
        [inverse] = blocks
        assert inverse[1, 1] == math.inf
        assert np.isfinite(np.delete(inverse.ravel(), 4)).all()


def test_checks_start_no_thread(monkeypatch, terms_32, terms_2000):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    assert eval_dirichlet(terms_32, 0.25, np.linspace(0.0, 1e4, 8193)).shape == (8193,)
    assert lebesgue_line_mean(terms_2000, 0.5, 1e3) > 0.0
    n = 50_000
    rng = np.random.default_rng(50)
    t = np.cumsum(rng.uniform(0.05, 2.0, n))
    w = rng.uniform(0.2, 1.0, n)
    lam = AtomicLineMeasure(t, w, [1] * n, [1] * n, [1] * n,
                            level_boundaries=(t[-1] + 1.0,),
                            total_mass_by_level=(math.fsum(w),))
    pairs = [((a,), (b,)) for a in range(3) for b in range(3)]
    assert len(recover_moments(lam, PrimeBasis(1), pairs, float(t[-1]))) == 9


def test_blocked_evaluation_records_one_span(terms_32):
    times = np.linspace(0.0, 1e4, 8193)
    weights = np.ones_like(times)
    tracer = Tracer()
    with tracer.install():
        tracer.call("caller", measures.weighted_mean_square, terms_32, times, weights)
    assert [(span[0], span[1], span[2]) for span in tracer.spans] == [
        (0, -1, "caller"), (1, 0, "polynomials.eval_dirichlet")]
    assert tracer.spans[1][6] == {"term_evals": 8193 * 32}


def test_evaluation_memory_is_bounded_by_values(terms_2000):
    # 8,192 times of a 2,000-term polynomial: 188 MiB when a block held
    # 4,096 rows whatever the term count
    tracemalloc.start()
    try:
        eval_dirichlet(terms_2000, 0.0, np.linspace(0.0, 1e3, 8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
