import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus import (
    DimensionError,
    DirichletPolynomial,
    DomainError,
    FrequencyOverflowError,
    MultiIndex,
    PrimeBasis,
    TorusPoint,
    TorusPolynomial,
    bohr_lift,
    bohr_unlift,
    carlson_target,
    cross_term_envelope,
    eval_dirichlet,
    eval_torus,
    factor_over_basis,
    first_primes,
    flow_point,
    lebesgue_line_mean,
    minimal_basis,
    weighted_mean_square,
)
from polytorus import polynomials
from polytorus.kronecker import circle_distance
from polytorus.polynomials import _KERNEL_ROWS, _NEAR_PHASE, _mean_kernel

from conftest import random_dirichlet

TWO_PI = 2.0 * math.pi


class TestPrimeBasis:
    def test_first_primes(self):
        assert first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_logs_within_two_ulp(self):
        basis = PrimeBasis(12)
        with mpmath.workdps(50):
            for p, log_p in zip(basis.primes, basis.logs):
                exact = mpmath.log(p)
                ulp = math.ulp(float(log_p))
                assert abs(float(log_p) - float(exact)) <= 2 * ulp

    def test_immutable(self):
        basis = PrimeBasis(2)
        with pytest.raises(AttributeError):
            basis.dimension = 5
        with pytest.raises(ValueError):
            basis.logs[0] = 1.0


class TestMultiIndex:
    def test_trailing_zeros_canonicalized(self):
        assert MultiIndex((2, 1, 0, 0)) == MultiIndex((2, 1))
        assert hash(MultiIndex((2, 1, 0))) == hash(MultiIndex((2, 1)))
        assert MultiIndex(()).length == 0

    def test_weight(self):
        assert MultiIndex((2, 0, 3)).weight == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_negative_is_a_domain_error(self):
        # a library error, so the CLI refuses it with exit 2, not a traceback
        with pytest.raises(DomainError, match="must be >= 0"):
            MultiIndex((0, -2))

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_invariant(self, exps):
        alpha = MultiIndex(exps)
        assert alpha == MultiIndex(list(alpha.exponents) + [0, 0])
        assert not alpha.exponents or alpha.exponents[-1] != 0


class TestBohrLift:
    def test_documented_example(self):
        f = DirichletPolynomial({2: 3, 6: 5})
        F = bohr_lift(f)
        assert F.terms == {MultiIndex((1,)): 3 + 0j, MultiIndex((1, 1)): 5 + 0j}

    def test_constant_maps_to_zero_index(self):
        F = bohr_lift(DirichletPolynomial({1: 1}), PrimeBasis(2))
        assert F.terms == {MultiIndex(()): 1 + 0j}

    def test_frequency_twelve(self):
        F = bohr_lift(DirichletPolynomial({12: 1j}))
        assert F.terms == {MultiIndex((2, 1)): 1j}

    def test_unlift_examples(self):
        F = TorusPolynomial({MultiIndex((2, 1)): 1j}, PrimeBasis(2))
        assert bohr_unlift(F).terms == {12: 1j}
        empty = TorusPolynomial({}, PrimeBasis(1))
        assert len(bohr_unlift(empty)) == 0

    def test_lift_refuses_unfactorable_frequency(self):
        with pytest.raises(DimensionError, match="10"):
            bohr_lift(DirichletPolynomial({10: 1}), PrimeBasis(2))

    def test_unlift_refuses_overflow(self):
        F = TorusPolynomial({MultiIndex((64,)): 1.0}, PrimeBasis(1))
        with pytest.raises(FrequencyOverflowError):
            bohr_unlift(F)

    def test_unlift_refuses_overflow_before_the_power(self):
        # 3^(10^400) was computed in full before the range check
        for exponents in [(63,), (0, 40), (2**63,), (1, 10**400)]:
            F = TorusPolynomial({MultiIndex(exponents): 1.0}, PrimeBasis(2))
            with pytest.raises(FrequencyOverflowError):
                bohr_unlift(F)
        edge = TorusPolynomial({MultiIndex((62,)): 1.0, MultiIndex((0, 39)): 1.0},
                               PrimeBasis(2))
        assert bohr_unlift(edge).frequencies == (3**39, 2**62)

    def test_minimal_basis(self):
        assert minimal_basis(DirichletPolynomial({30: 1})).dimension == 3

    def test_round_trip_random(self, rng):
        for _ in range(50):
            f = random_dirichlet(rng, d=3, max_terms=10, max_exp=4)
            assert bohr_unlift(bohr_lift(f, PrimeBasis(3))) == f

    def test_factor_over_basis(self):
        assert factor_over_basis(360, PrimeBasis(3)) == MultiIndex((3, 2, 1))


class TestEvaluation:
    def test_dirichlet_simple(self):
        assert eval_dirichlet(DirichletPolynomial({2: 1}), 0.0, 0.0) == 1

    def test_dirichlet_cancellation(self):
        f = DirichletPolynomial({1: 1, 2: 1})
        val = eval_dirichlet(f, 0.0, math.pi / math.log(2))
        assert abs(val) < 1e-14

    def test_dirichlet_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            eval_dirichlet(DirichletPolynomial({1: 1}), -0.5, 0.0)

    def test_dirichlet_vectorized_matches_scalar(self, rng):
        f = random_dirichlet(rng)
        ts = rng.uniform(0, 50, size=7)
        vec = eval_dirichlet(f, 0.3, ts)
        for t, v in zip(ts, vec):
            assert v == eval_dirichlet(f, 0.3, float(t))

    def test_blocked_calls_match_scalar_calls(self, rng, monkeypatch):
        f = random_dirichlet(rng, max_terms=8)
        rows = 4096
        monkeypatch.setattr(polynomials, "_EVAL_VALUES", rows * len(f))
        ts = rng.uniform(0, 1e4, size=2 * rows + 1)
        scalar = np.array([eval_dirichlet(f, 0.25, float(t)) for t in ts])
        for size in (rows - 1, rows, rows + 1, 2 * rows + 1):
            assert eval_dirichlet(f, 0.25, ts[:size]).tobytes() == scalar[:size].tobytes()
        grid = eval_dirichlet(f, 0.25, ts[:-1].reshape(2, rows))
        assert grid.shape == (2, rows)
        assert grid.tobytes() == scalar[:-1].tobytes()
        assert eval_dirichlet(f, 0.25, ts[:0]).shape == (0,)

    def test_torus_examples(self):
        basis = PrimeBasis(1)
        F = TorusPolynomial({MultiIndex((1,)): 1.0}, basis)
        assert eval_torus(F, TorusPoint((0.0,))) == 1
        G = TorusPolynomial({MultiIndex(()): 1.0, MultiIndex((1,)): 1.0}, basis)
        assert abs(eval_torus(G, TorusPoint((math.pi,)))) < 1e-15
        C = TorusPolynomial({MultiIndex(()): 2 - 3j}, basis)
        assert eval_torus(C, TorusPoint((1.234,))) == 2 - 3j

    def test_torus_dimension_error(self):
        F = TorusPolynomial({MultiIndex((0, 1)): 1.0}, PrimeBasis(2))
        with pytest.raises(DimensionError):
            eval_torus(F, TorusPoint((0.5,)))


class TestFlow:
    def test_zero_time(self):
        assert flow_point(PrimeBasis(3), 0.0).angles == (0.0, 0.0, 0.0)

    def test_full_turn(self):
        point = flow_point(PrimeBasis(1), TWO_PI / math.log(2))
        assert float(circle_distance(point.angles[0], 0.0)) < 1e-12

    def test_unit_time(self):
        point = flow_point(PrimeBasis(2), 1.0)
        assert point.angles[0] == pytest.approx((-math.log(2)) % TWO_PI)
        assert point.angles[1] == pytest.approx((-math.log(3)) % TWO_PI)

    def test_bohr_consistency(self, rng):
        # the two evaluation routes share phases only up to t*ulp drift, so
        # the 1e-12 check is run at moderate heights
        basis = PrimeBasis(3)
        for _ in range(30):
            f = random_dirichlet(rng, d=3)
            t = float(rng.uniform(0, 50))
            lhs = abs(eval_dirichlet(f, 0.0, t)) ** 2
            rhs = abs(eval_torus(bohr_lift(f, basis), flow_point(basis, t))) ** 2
            scale = f.sup_square_bound()
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * scale)


class TestExpansionIdentity:
    def test_square_modulus_expansion(self, rng):
        # |F(w)|^2 == sum |a|^2 + sum_{alpha != beta} a_a conj(a_b) w^a conj(w^b)
        basis = PrimeBasis(3)
        for _ in range(10):
            f = random_dirichlet(rng, d=3, max_terms=6)
            F = bohr_lift(f, basis)
            omega = TorusPoint(tuple(rng.uniform(0, TWO_PI, size=3)))
            direct = abs(eval_torus(F, omega)) ** 2
            items = list(F.terms.items())
            coords = np.asarray(omega.angles)
            total = sum(abs(a) ** 2 for _, a in items)
            for alpha, a in items:
                for beta, b in items:
                    if alpha == beta:
                        continue
                    phase = sum(
                        th * e for th, e in zip(coords, alpha.padded(3))
                    ) - sum(th * e for th, e in zip(coords, beta.padded(3)))
                    total += (a * np.conj(b) * np.exp(1j * phase)).real
            assert direct == pytest.approx(total, rel=1e-10, abs=1e-12)


def simpson_line_mean(f, sigma, T, intervals=100_000):
    """Independent quadrature oracle: composite Simpson on |f(sigma+it)|^2."""
    ts = np.linspace(0.0, T, intervals + 1)
    values = np.abs(eval_dirichlet(f, sigma, ts)) ** 2
    h = T / intervals
    total = values[0] + values[-1] + 4 * values[1:-1:2].sum() + 2 * values[2:-1:2].sum()
    return (h / 3.0) * total / T


def full_matrix_line_mean(f, sigma, T):
    """The separable closed form with every entry evaluated on the whole
    n x n matrix: the reciprocals ``1 / log(m/n)`` of the strict upper
    triangle, and ``_mean_kernel`` at ``x = -T / reciprocal`` for every pair,
    read where ``|x| < _NEAR_PHASE``.

    The entries are reduced in the implementation's order: per
    ``_KERNEL_ROWS`` block of rows, the near pairs' real parts in row-major
    order, then the far pairs through the stacked real product divided by
    ``T``; the blocks added with ``math.fsum``.
    """
    logs = f._logs
    n = len(f)
    damped = f._coeffs * np.exp(-sigma * logs)
    diagonal = float(np.sum(np.abs(damped) ** 2))
    turned = damped * np.exp(-1j * T * logs)
    left = np.stack([turned.imag, -turned.real, -damped.imag, damped.real])
    right = np.stack([turned.real, turned.imag, damped.real, damped.imag])
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.triu(1.0 / (logs[None, :] - logs[:, None]), k=1)
        terms = _mean_kernel(-T / inverse) * damped[:, None] * np.conj(damped)[None, :]
    near = np.abs(inverse) > T / _NEAR_PHASE
    far = np.where(near, 0.0, inverse)
    parts = []
    for i0 in range(0, n - 1, _KERNEL_ROWS):
        i1 = min(i0 + _KERNEL_ROWS, n - 1)
        block = (slice(i0, i1), slice(i0 + 1, n))
        near_part = float(np.sum(terms[block][near[block]].real))
        far_part = float(np.vdot(left[:, i0:i1] @ far[block], right[:, i0 + 1:])) / T
        parts.append(near_part + far_part)
    return diagonal + 2.0 * math.fsum(parts)


def mpmath_line_means(f, sigmas, T):
    """The closed form at 50 digits from the exact frequencies, per sigma."""
    with mpmath.workdps(50):
        freqs = f.frequencies
        logs = [mpmath.log(n) for n in freqs]
        kernels = [
            (i, j, (mpmath.expj(-x) - 1) / mpmath.mpc(0, -x))
            for i in range(len(freqs)) for j in range(i + 1, len(freqs))
            for x in [T * (logs[i] - logs[j])]
        ]
        means = []
        for sigma in sigmas:
            damped = [mpmath.mpc(f.coefficient(n)) * mpmath.power(n, -mpmath.mpf(sigma))
                      for n in freqs]
            total = mpmath.fsum(abs(a) ** 2 for a in damped) + 2 * mpmath.fsum(
                (damped[i] * kernel * mpmath.conj(damped[j])).real
                for i, j, kernel in kernels)
            means.append(float(total))
        return means


def full_matrix_envelope(f, sigma):
    """``cross_term_envelope`` with every pair in one n x n matrix."""
    mags = np.abs(f._coeffs) * np.exp(-sigma * f._logs)
    log_ratio = f._logs[:, None] - f._logs[None, :]
    with np.errstate(divide="ignore"):
        inv = np.where(log_ratio != 0.0, 2.0 / np.abs(log_ratio), 0.0)
    return float(mags @ inv @ mags)


def traced_peak(call):
    """Peak bytes allocated (numpy buffers included) while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLebesgueLineMean:
    def test_cross_term_vanishes_at_full_turn(self):
        f = DirichletPolynomial({1: 1, 2: 1})
        assert lebesgue_line_mean(f, 0.0, TWO_PI / math.log(2)) == pytest.approx(
            2.0, abs=1e-13
        )

    def test_constant(self):
        f = DirichletPolynomial({1: 2 - 1j})
        assert lebesgue_line_mean(f, 0.7, 123.0) == pytest.approx(5.0, abs=1e-12)

    def test_sigma_one_limit(self):
        f = DirichletPolynomial({1: 1, 2: 1})
        assert carlson_target(f, 1.0) == 1.25
        assert abs(lebesgue_line_mean(f, 1.0, 1e6) - 1.25) < 1e-5

    def test_rejects_bad_T(self):
        with pytest.raises(DomainError):
            lebesgue_line_mean(DirichletPolynomial({1: 1}), 0.0, 0.0)

    def test_quadrature_oracle(self, rng):
        for _ in range(5):
            f = random_dirichlet(rng, d=3, max_terms=5, max_exp=2, unit_term=True)
            sigma = float(rng.choice([0.0, 0.25, 0.5]))
            T = float(rng.uniform(10, 100))
            exact = lebesgue_line_mean(f, sigma, T)
            approx = simpson_line_mean(f, sigma, T)
            assert exact == pytest.approx(approx, rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_half_kernel_matches_full_matrix_bitwise(self, rng, sigma):
        polys = [DirichletPolynomial({3: 0.5 - 1j}),
                 DirichletPolynomial({1: 1.0, 6: 0.25j})]
        polys += [random_dirichlet(rng, d=4, max_terms=12, max_exp=3)
                  for _ in range(6)]
        # sizes around the kernel's row blocks: one block, one more row, several
        for size in (32, 33, 34, 65, 100):
            freqs = rng.choice(np.arange(1, 5000), size=size, replace=False)
            polys.append(DirichletPolynomial(
                {int(n): complex(*rng.normal(size=2)) for n in freqs}))
        for f in polys:
            for T in (1e-3, 1.0, 37.5, 1e3, 1e8, 1e12):
                expected = full_matrix_line_mean(f, sigma, T)
                assert lebesgue_line_mean(f, sigma, T).hex() == expected.hex()

    def test_matches_mpmath_reference(self, rng):
        freqs = rng.choice(np.arange(1, 5000), size=200, replace=False)
        f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in freqs})
        sigmas = (0.0, 0.5, 1.0)
        for sigma, exact in zip(sigmas, mpmath_line_means(f, sigmas, 50.0)):
            assert lebesgue_line_mean(f, sigma, 50.0) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("T", [1e-3, 1.0, 1e4, 1e8])
    def test_matches_mpmath_reference_at_every_height(self, rng, T):
        # every pair near at 1e-3, most near at 1, most far at 1e4 and 1e8
        freqs = rng.choice(np.arange(1, 5000), size=100, replace=False)
        f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in freqs})
        sigmas = (0.0, 0.5, 1.0)
        for sigma, exact in zip(sigmas, mpmath_line_means(f, sigmas, T)):
            assert lebesgue_line_mean(f, sigma, T) == pytest.approx(exact, rel=1e-12)

    def test_blocks_mixing_near_and_far_pairs_match_mpmath(self, rng):
        # at T = 1e3 the pairs among 10^6 + {0, 1, 2} have |x| ~ 1e-3, the
        # pair 2^63 - {1, 2} has x = 0 in float, and every other pair is
        # far; at T = 37.5 neighbours among the small frequencies are near
        # too, so blocks of rows hold both kinds
        small = rng.choice(np.arange(2, 500), size=60, replace=False)
        freqs = [*map(int, small[:30]), 10**6, 10**6 + 1, 10**6 + 2,
                 *map(int, small[30:]), 2**63 - 2, 2**63 - 1]
        f = DirichletPolynomial({n: complex(*rng.normal(size=2)) for n in freqs})
        sigmas = (0.0, 0.5)
        for T in (1e3, 37.5):
            for sigma, exact in zip(sigmas, mpmath_line_means(f, sigmas, T)):
                assert lebesgue_line_mean(f, sigma, T) == pytest.approx(exact, rel=1e-12)
                assert lebesgue_line_mean(f, sigma, T).hex() == (
                    full_matrix_line_mean(f, sigma, T).hex())

    @pytest.mark.parametrize("factor", [3.0, -3.0])
    def test_mean_outside_the_range_of_the_square_raises(self, monkeypatch, factor):
        # a kernel scaled by 3 pushes the mean of 1 + 2^-s near T = 0 above
        # (1 + 1)^2 = 4, and by -3 below 0
        f = DirichletPolynomial({1: 1, 2: 1})
        assert lebesgue_line_mean(f, 0.0, 1e-3) == pytest.approx(4.0, rel=1e-6)
        monkeypatch.setattr(polynomials, "_mean_kernel",
                            lambda x: factor * _mean_kernel(x))
        with pytest.raises(ArithmeticError, match="escapes"):
            lebesgue_line_mean(f, 0.0, 1e-3)

    def test_envelope_matches_full_matrix(self, rng):
        polys = [random_dirichlet(rng, d=4, max_terms=12, max_exp=3)
                 for _ in range(4)]
        for size in (2, 32, 33, 34, 65, 300):
            freqs = rng.choice(np.arange(1, 5000), size=size, replace=False)
            polys.append(DirichletPolynomial(
                {int(n): complex(*rng.normal(size=2)) for n in freqs}))
        # frequencies past 2^53 whose float logs coincide contribute nothing
        polys.append(DirichletPolynomial({2**63 - 1: 1.0, 2**63 - 2: 1.0, 3: 1.0}))
        for f in polys:
            for sigma in (0.0, 0.5, 1.0):
                assert cross_term_envelope(f, sigma) == pytest.approx(
                    full_matrix_envelope(f, sigma), rel=1e-12)

    def test_carlson_envelope(self, rng):
        # |mean - target| <= C_f / T, and the envelope decreases along the grid
        for _ in range(10):
            f = random_dirichlet(rng, d=3, max_terms=5, max_exp=3)
            sigma = float(rng.choice([0.25, 0.5, 1.0]))
            target = carlson_target(f, sigma)
            envelope = cross_term_envelope(f, sigma)
            errs = [
                abs(lebesgue_line_mean(f, sigma, T) - target)
                for T in (1e2, 1e3, 1e4)
            ]
            for err, T in zip(errs, (1e2, 1e3, 1e4)):
                assert err <= envelope / T + 1e-12
            assert errs[2] <= errs[0] + 1e-12


class TestBoundedMemory:
    """The check kernels allocate per block of rows, not per matrix."""

    LIMIT = 8 * 2**20

    def test_line_mean_and_envelope_at_2000_terms(self, rng):
        freqs = rng.choice(np.arange(1, 10**6), size=2000, replace=False)
        f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in freqs})
        # the full n x n kernel was 64 MB, the envelope's three matrices 96 MB
        assert traced_peak(lambda: lebesgue_line_mean(f, 0.5, 1e8)) < self.LIMIT
        assert traced_peak(lambda: cross_term_envelope(f, 0.5)) < self.LIMIT

    def test_line_mean_where_every_pair_is_near(self, rng):
        # at T = 1e-3 every pair goes through _mean_kernel, block by block
        freqs = rng.choice(np.arange(1, 10**6), size=2000, replace=False)
        f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in freqs})
        assert traced_peak(lambda: lebesgue_line_mean(f, 0.5, 1e-3)) < self.LIMIT

    def test_weighted_mean_square_at_50490_atoms(self, rng):
        freqs = rng.choice(np.arange(1, 10**4), size=30, replace=False)
        f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in freqs})
        times = np.sort(rng.uniform(0.0, 1e6, size=50_490))
        weights = rng.uniform(0.1, 1.0, size=50_490)
        # one phase matrix for every atom was 50,490 x 30 complex values
        assert traced_peak(lambda: weighted_mean_square(f, times, weights)) < self.LIMIT


def test_damping_past_float64_warns_nothing():
    # at sigma = 1e308, sigma * log 7 overflows to inf and 7^-sigma is 0;
    # numpy used to warn about the overflow at each of these calls
    f = DirichletPolynomial({1: 1.0, 7: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_dirichlet(f, 1e308, 0.0) == 1.0
        assert cross_term_envelope(f, 1e308) == 0.0
        assert lebesgue_line_mean(f, 1e308, 10.0) == 1.0


class TestValidation:
    def test_zero_coefficients_dropped(self):
        f = DirichletPolynomial({2: 0.0, 3: 1.0})
        assert f.frequencies == (3,)

    def test_bad_frequency(self):
        with pytest.raises(DomainError):
            DirichletPolynomial({0: 1.0})

    def test_frequency_overflow(self):
        with pytest.raises(FrequencyOverflowError):
            DirichletPolynomial({2**63: 1.0})

    def test_frequencies_beyond_float_precision(self):
        # 2^53 + 1 has no float64 twin; it must survive construction exactly
        n = 2**53 + 1
        f = DirichletPolynomial({n: 1.0, 3: 2.0})
        assert f.frequencies == (3, n)
        assert f.coefficient(n) == 1.0
        assert abs(eval_dirichlet(f, 0.0, 0.0) - 3.0) < 1e-12
        big = DirichletPolynomial({2**63 - 1: 1.0, 2**63 - 2: 1.0})
        assert big.frequencies == (2**63 - 2, 2**63 - 1)

    def test_coefficients_whose_square_leaves_float64(self):
        # (sum |a_n|)^2 bounds |f|^2 and every mean of it; the line mean and
        # the sweep's range checks square the sum
        for terms in ({1: 1e200, 2: 1e200}, {1: complex(1e308, 1e308)},
                      {1: 1.4e154}):
            with pytest.raises(DomainError, match="squares past float64"):
                DirichletPolynomial(terms)
        f = DirichletPolynomial({1: 1.3e154})
        assert f.sup_square_bound() == 1.3e154 ** 2
        assert lebesgue_line_mean(f, 0.0, 1.0) == pytest.approx(1.69e308)

    def test_torus_poly_dimension_check(self):
        with pytest.raises(DimensionError):
            TorusPolynomial({MultiIndex((1, 1, 1)): 1.0}, PrimeBasis(2))

    def test_immutability(self):
        f = DirichletPolynomial({2: 1.0})
        with pytest.raises(AttributeError):
            f.terms = {}
        f.terms[2] = 5.0  # mutating the copy does not touch the original
        assert f.coefficient(2) == 1.0
