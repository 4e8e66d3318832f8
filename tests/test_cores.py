"""Checks on every core: the thread map, the correctly rounded sum, and the
bits of every function that uses them, on one thread and on several."""

import math
import pathlib
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
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
from polytorus import _blocks
from polytorus._blocks import _map, exact_sum, map_blocks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from bench.tracing import Tracer  # noqa: E402

SMALLEST_NORMAL = 2.2250738585072014e-308


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


class TestMap:
    def test_results_in_item_order(self, monkeypatch):
        monkeypatch.setattr(_blocks, "_thread_count", lambda: 4)
        assert _map(lambda i: i * i, range(100)) == [i * i for i in range(100)]
        assert _map(lambda i: i, []) == []

    def test_each_item_taken_once_under_stress(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter can
        monkeypatch.setattr(_blocks, "_thread_count", lambda: 16)
        taken = []
        threads_before = threading.active_count()

        def block(i):
            taken.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                taken.clear()
                assert _map(block, range(500)) == [-i for i in range(500)]
                assert sorted(taken) == list(range(500))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before

    def test_worker_error_reaches_the_caller_unchanged(self, monkeypatch):
        monkeypatch.setattr(_blocks, "_thread_count", lambda: 2)
        error = KeyError("worker block")
        helper_ran = threading.Event()

        def block(i):
            if threading.current_thread() is threading.main_thread():
                helper_ran.wait(timeout=10)  # leave the helper an item
                return i
            helper_ran.set()
            raise error

        with pytest.raises(KeyError) as raised:
            _map(block, range(8))
        assert helper_ran.is_set()
        assert raised.value is error

    def test_first_failing_item_wins(self, monkeypatch):
        monkeypatch.setattr(_blocks, "_thread_count", lambda: 4)
        errors = [ValueError(i) for i in range(50)]
        all_four_taken = threading.Barrier(4, timeout=10)

        def block(i):
            all_four_taken.wait()  # items 0-3 run at once, one per thread
            raise errors[i]

        with pytest.raises(ValueError) as raised:
            _map(block, range(50))
        assert raised.value is errors[0]

    def test_one_block_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(_blocks, "_thread_count", lambda: 4)
        monkeypatch.setattr(threading, "Thread", refuse)
        assert _map(lambda i: i + 1, [1]) == [2]
        count = _blocks._EVAL_VALUES // 8
        assert map_blocks(lambda rows: rows, count, 8) == [slice(0, count)]
        f = DirichletPolynomial({1: 1.0, 2: 0.5})
        assert eval_dirichlet(f, 0.0, np.arange(100.0)).shape == (100,)

    # no items; items wider than a block (blocks of one); counts at the
    # edges of 4,096-item blocks
    @pytest.mark.parametrize("count, width", [
        (0, 1), (0, 1 << 20), (1, 1), (5, 1 << 20), (8191, 32), (8192, 32),
        (8193, 32), (12288, 32), (3, 1 << 17), (3, (1 << 16) + 1)])
    def test_block_slices_cover_the_count_once_in_order(self, monkeypatch,
                                                        count, width):
        monkeypatch.setattr(_blocks, "_thread_count", lambda: 4)
        size = max(1, _blocks._EVAL_VALUES // width)
        slices = map_blocks(lambda rows: rows, count, width)
        covered = [i for rows in slices for i in range(count)[rows]]
        assert covered == list(range(count))
        assert all(0 < s.stop - s.start <= size and s.step is None for s in slices)
        assert len(slices) == -(-count // size)

    def test_one_core_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(_blocks, "_thread_count", lambda: 1)
        monkeypatch.setattr(threading, "Thread", refuse)
        assert _map(lambda i: -i, range(5)) == [0, -1, -2, -3, -4]

    def test_imports_no_pool_module(self):
        code = ("import sys, numpy as np\n"
                "from polytorus import DirichletPolynomial, _blocks, eval_dirichlet\n"
                "_blocks._thread_count = lambda: 2\n"
                "f = DirichletPolynomial({n: 1.0 for n in range(1, 40)})\n"
                "eval_dirichlet(f, 0.0, np.arange(20000.0))\n"
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={"PYTHONPATH": str(REPO_ROOT / "src")})
        assert done.stdout.strip() == "[]"


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


def on_threads(monkeypatch, threads, call):
    monkeypatch.setattr(_blocks, "_thread_count", lambda: threads)
    return call()


class TestSameBitsOnOneThreadAndOnSeveral:
    @pytest.mark.parametrize("size", [4095, 4096, 4097, 8193])
    def test_eval_dirichlet(self, monkeypatch, terms_32, size):
        assert _blocks._EVAL_VALUES // len(terms_32) == 4096
        t = np.linspace(0.0, 3e5, size)

        def call():
            return eval_dirichlet(terms_32, 0.25, t).tobytes()

        one = on_threads(monkeypatch, 1, call)
        assert on_threads(monkeypatch, 4, call) == one
        scalar = np.array([eval_dirichlet(terms_32, 0.25, float(x)) for x in t[::97]])
        assert np.frombuffer(one, dtype=np.complex128)[::97].tobytes() == scalar.tobytes()

    def test_eval_dirichlet_scalar_empty_and_grid(self, monkeypatch, terms_32):
        # 12,295 times: three blocks of 4,096 and one of 7, cut across rows
        t = np.linspace(-5e4, 3e5, 3 * 4096 + 7)
        grid = t.reshape(5, 2459)

        def call():
            return (eval_dirichlet(terms_32, 0.25, float(t[5])),
                    eval_dirichlet(terms_32, 0.25, t[:0]),
                    eval_dirichlet(terms_32, 0.25, grid))

        one = on_threads(monkeypatch, 1, call)
        four = on_threads(monkeypatch, 4, call)
        assert isinstance(one[0], complex) and repr(four[0]) == repr(one[0])
        assert one[1].shape == four[1].shape == (0,)
        assert one[2].shape == four[2].shape == (5, 2459)
        assert four[2].tobytes() == one[2].tobytes()
        flat = eval_dirichlet(terms_32, 0.25, t)
        assert one[2].tobytes() == flat.tobytes()
        assert repr(complex(flat[5])) == repr(one[0])

    @pytest.mark.parametrize("sigma, T", [(1.0, 1e8), (0.0, 0.5), (0.5, 1e3)])
    def test_lebesgue_line_mean(self, monkeypatch, terms_2000, sigma, T):
        def call():
            return lebesgue_line_mean(terms_2000, sigma, T).hex()

        assert on_threads(monkeypatch, 4, call) == on_threads(monkeypatch, 1, call)

    def test_cross_term_envelope(self, monkeypatch, terms_2000):
        def call():
            return cross_term_envelope(terms_2000, 0.5).hex()

        assert on_threads(monkeypatch, 3, call) == on_threads(monkeypatch, 1, call)

    def test_recover_moments(self, monkeypatch, long_measure):
        basis = PrimeBasis(2)
        pairs = [((a1, a2), (b1, b2)) for a1 in range(3) for a2 in range(3)
                 for b1 in range(3) for b2 in range(3)]
        mu = TorusPointMassMeasure([((0.3, 2.0), 0.25), ((4.0, 1.0), 0.75)])
        T = float(long_measure.t[-200])

        def call():
            return [(p.empirical, p.reference)
                    for p in recover_moments(long_measure, basis, pairs, T, mu)]

        one = on_threads(monkeypatch, 1, call)
        assert repr(on_threads(monkeypatch, 4, call)) == repr(one)
        # and the bits of the fsum form the moments had before
        inside = long_measure.t <= T
        times, w = long_measure.t[inside], long_measure.w[inside]
        mass = math.fsum(w)
        for (alpha, beta), (empirical, _) in zip(pairs, one):
            diff = np.zeros(2)
            diff[:len(alpha)] += alpha
            diff[:len(beta)] -= beta
            phases = np.exp(-1j * float(diff @ basis.logs) * times)
            assert repr(empirical) == repr(complex(math.fsum(phases.real * w) / mass,
                                                   math.fsum(phases.imag * w) / mass))

        def lebesgue():
            return repr(recover_moments(None, basis, pairs, T, mu))

        assert on_threads(monkeypatch, 2, lebesgue) == on_threads(monkeypatch, 1, lebesgue)

    def test_convergence_sweep(self, monkeypatch, terms_32, long_measure):
        t = long_measure.t
        grid = [float(t[4095]), float(t[4096]), float(t[5000]), float(t[-1])]

        def call():
            atomic = convergence_sweep(terms_32, long_measure, 2.0, grid)
            line = convergence_sweep(terms_32, None, 2.0, grid, sigma=0.5)
            return [row.time_mean.hex() for row in atomic.rows + line.rows]

        one = on_threads(monkeypatch, 1, call)
        assert on_threads(monkeypatch, 4, call) == one
        values = np.abs(eval_dirichlet(terms_32, 0.0, t)) ** 2 * long_measure.w
        for T, mean in zip(grid, one):
            n = int(np.searchsorted(t, T, side="right"))
            assert mean == (math.fsum(values[:n]) / math.fsum(long_measure.w[:n])).hex()


def test_pooled_evaluation_records_one_span(monkeypatch, terms_32):
    monkeypatch.setattr(_blocks, "_thread_count", lambda: 4)
    times = np.linspace(0.0, 1e4, 8193)
    weights = np.ones_like(times)
    tracer = Tracer()
    with tracer.install():
        tracer.call("caller", measures.weighted_mean_square, terms_32, times, weights)
    assert [(span[0], span[1], span[2]) for span in tracer.spans] == [
        (0, -1, "caller"), (1, 0, "polynomials.eval_dirichlet")]
    assert tracer.spans[1][6] == {"term_evals": 8193 * 32}


def test_evaluation_memory_is_bounded_by_values(monkeypatch, terms_2000):
    # 8,192 times of a 2,000-term polynomial: 188 MiB when a block held
    # 4,096 rows whatever the term count
    monkeypatch.setattr(_blocks, "_thread_count", lambda: 4)
    tracemalloc.start()
    try:
        eval_dirichlet(terms_2000, 0.0, np.linspace(0.0, 1e3, 8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
