import math

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
)
from polytorus.kronecker import circle_distance
from polytorus.polynomials import _mean_kernel

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
    """The closed form with the kernel evaluated on the whole matrix."""
    damped = f._coeffs * np.exp(-sigma * f._logs)
    diagonal = float(np.sum(np.abs(damped) ** 2))
    kernel = _mean_kernel(T * (f._logs[:, None] - f._logs[None, :]))
    np.fill_diagonal(kernel, 0.0)
    return float((diagonal + complex(damped @ kernel @ np.conj(damped))).real)


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

    def test_torus_poly_dimension_check(self):
        with pytest.raises(DimensionError):
            TorusPolynomial({MultiIndex((1, 1, 1)): 1.0}, PrimeBasis(2))

    def test_immutability(self):
        f = DirichletPolynomial({2: 1.0})
        with pytest.raises(AttributeError):
            f.terms = {}
        f.terms[2] = 5.0  # mutating the copy does not touch the original
        assert f.coefficient(2) == 1.0
