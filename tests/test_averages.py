import math

import numpy as np
import pytest

from polytorus import (
    AtomicLineMeasure,
    DirichletPolynomial,
    GrowthSchedule,
    DomainError,
    EmptyMeasureError,
    PrimeBasis,
    TorusPointMassMeasure,
    TorusPolynomial,
    atomic_time_mean,
    bohr_lift,
    boundary_mean_error_bound,
    build_point_mass_lambda,
    carlson_target,
    convergence_sweep,
    eval_dirichlet,
    lebesgue_line_mean,
    lebesgue_space_average,
    point_mass_space_average,
    recover_moments,
)

from polytorus import polynomials

from conftest import random_dirichlet, random_point_mass

TWO_PI = 2.0 * math.pi


def single_atom_measure(t, w=1.0):
    return AtomicLineMeasure([t], [w], [1], [1], [1],
                             level_boundaries=(t + 1.0,),
                             total_mass_by_level=(w,))


class TestAtomicTimeMean:
    def test_single_atom(self):
        f = DirichletPolynomial({1: 1, 2: 0.5j, 3: -0.25})
        lam = single_atom_measure(5.0)
        assert atomic_time_mean(f, lam, 10.0) == pytest.approx(
            abs(eval_dirichlet(f, 0.0, 5.0)) ** 2
        )

    def test_constant_polynomial(self, rng):
        mu = random_point_mass(rng, d=1, n_atoms=2)
        lam = build_point_mass_lambda(mu, levels=2)
        f = DirichletPolynomial({1: 1.0})
        assert atomic_time_mean(f, lam, float(lam.t[-1])) == pytest.approx(1.0)

    def test_empty_mass_error(self):
        lam = single_atom_measure(5.0)
        with pytest.raises(EmptyMeasureError):
            atomic_time_mean(DirichletPolynomial({1: 1}), lam, 1.0)


class TestSpaceAverages:
    def test_delta_of_unimodular_monomial(self):
        mu = TorusPointMassMeasure([((1.234,), 1.0)])
        F = TorusPolynomial({(1,): 1.0}, PrimeBasis(1))
        assert point_mass_space_average(F, mu) == pytest.approx(1.0)

    def test_two_point_example(self):
        mu = TorusPointMassMeasure([((0.0,), 0.5), ((math.pi,), 0.5)])
        F = TorusPolynomial({(): 1.0, (1,): 1.0}, PrimeBasis(1))
        assert point_mass_space_average(F, mu) == pytest.approx(2.0)

    def test_constant(self, rng):
        mu = random_point_mass(rng, d=2, n_atoms=3)
        F = TorusPolynomial({(): 1.5 - 2j}, PrimeBasis(2))
        assert point_mass_space_average(F, mu) == pytest.approx(abs(1.5 - 2j) ** 2)

    def test_lebesgue_unit_coefficients(self):
        F = TorusPolynomial({(): 1.0, (1,): 1.0, (1, 1): 1.0}, PrimeBasis(2))
        assert lebesgue_space_average(F) == 3.0
        assert lebesgue_space_average(TorusPolynomial({}, PrimeBasis(1))) == 0.0

    def test_lebesgue_monte_carlo(self, rng):
        # seeded Monte Carlo oracle with a 3-sigma acceptance band
        f = random_dirichlet(rng, d=3, max_terms=8, max_exp=2)
        F = bohr_lift(f, PrimeBasis(3))
        exact = lebesgue_space_average(F)
        samples = 200_000
        theta = rng.uniform(0.0, TWO_PI, size=(samples, 3))
        items = list(F.terms.items())
        values = np.zeros(samples, dtype=np.complex128)
        for alpha, a in items:
            exps = np.asarray(alpha.padded(3))
            values += a * np.exp(1j * (theta @ exps))
        sq = np.abs(values) ** 2
        estimate = float(sq.mean())
        stderr = float(sq.std(ddof=1) / math.sqrt(samples))
        assert abs(estimate - exact) <= 3.0 * stderr

    def test_parseval_cross_check(self, rng):
        # space average of the lift equals the sigma=0 vertical-line target
        for _ in range(10):
            f = random_dirichlet(rng, d=3, max_terms=6)
            F = bohr_lift(f, PrimeBasis(3))
            assert lebesgue_space_average(F) == pytest.approx(
                carlson_target(f, 0.0), rel=1e-14
            )


class TestConvergenceSweep:
    def test_lebesgue_sigma_one(self):
        f = DirichletPolynomial({1: 1, 2: 1})
        record = convergence_sweep(
            f, None, carlson_target(f, 1.0), (1e2, 1e3, 1e4), sigma=1.0
        )
        errs = record.errors()
        assert errs[-1] < 1e-2
        assert errs[-1] <= errs[0]

    def test_constant_zero_errors(self):
        f = DirichletPolynomial({1: 2.0})
        record = convergence_sweep(f, None, 4.0, (10.0, 100.0), sigma=0.5)
        assert all(row.abs_error < 1e-12 for row in record.rows)

    def test_rows_within_sup_bound(self, rng):
        mu = random_point_mass(rng, d=2, n_atoms=2)
        lam = build_point_mass_lambda(mu, levels=3)
        f = random_dirichlet(rng, d=2, max_terms=4, max_exp=2)
        F = bohr_lift(f, PrimeBasis(2))
        target = point_mass_space_average(F, mu)
        record = convergence_sweep(f, lam, target, lam.level_boundaries)
        bound = f.sup_square_bound()
        for row in record.rows:
            assert 0.0 <= row.time_mean <= bound * (1 + 1e-9)

    def test_level_boundary_errors_within_bound(self, rng):
        # at each level boundary the truncated mean obeys the a-priori bound
        # for the construction truncated at that level
        mu = random_point_mass(rng, d=2, n_atoms=2)
        lam = build_point_mass_lambda(mu, levels=4)
        f = random_dirichlet(rng, d=2, max_terms=4, max_exp=2, unit_term=True)
        F = bohr_lift(f, PrimeBasis(2))
        target = point_mass_space_average(F, mu)
        record = convergence_sweep(f, lam, target, lam.level_boundaries)
        for k, row in enumerate(record.rows, start=1):
            partial = AtomicLineMeasure(
                lam.t[lam.level <= k], lam.w[lam.level <= k],
                lam.level[lam.level <= k], lam.source[lam.level <= k],
                lam.rep[lam.level <= k],
                level_boundaries=lam.level_boundaries[:k],
                total_mass_by_level=lam.total_mass_by_level[:k],
            )
            assert row.abs_error <= boundary_mean_error_bound(f, mu, partial)

    def test_grid_validation(self):
        f = DirichletPolynomial({1: 1})
        with pytest.raises(DomainError):
            convergence_sweep(f, None, 1.0, (10.0, 5.0), sigma=1.0)
        lam = single_atom_measure(5.0)
        for grid in [(float("nan"),), (1.0, float("nan")), (float("nan"), 10.0)]:
            with pytest.raises(DomainError):
                convergence_sweep(f, lam, 1.0, grid)
            with pytest.raises(DomainError):
                convergence_sweep(f, None, 1.0, grid, sigma=1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_T_refused(self, bad):
        f = DirichletPolynomial({1: 1, 2: 1})
        with pytest.raises(DomainError):
            lebesgue_line_mean(f, 0.5, bad)
        lam = single_atom_measure(5.0)
        for grid in [(10.0, bad), (bad,)]:
            with pytest.raises(DomainError):
                convergence_sweep(f, None, 1.0, grid, sigma=0.5)
            with pytest.raises(DomainError):
                convergence_sweep(f, lam, 1.0, grid)

    def test_atomic_sweep_matches_per_T_means_bitwise(self, rng):
        # one evaluation per sweep gives each T the bits of its own mean
        mu = random_point_mass(rng, d=2, n_atoms=3)
        lam = build_point_mass_lambda(mu, levels=3)
        f = random_dirichlet(rng, d=2, max_terms=6, max_exp=3)
        t = lam.t
        grid = [
            float(t[0]),                 # exactly on the first atom
            float(t[7]),                 # exactly on an atom
            float((t[20] + t[21]) / 2),  # between atoms
            float(t[-1]),                # the last atom
            float(t[-1]) * 3.0,          # past the last atom
        ]
        record = convergence_sweep(f, lam, 0.5, grid)
        assert [row.T for row in record.rows] == grid
        for row in record.rows:
            expected = atomic_time_mean(f, lam, row.T)
            assert row.time_mean.hex() == expected.hex()
            assert row.abs_error.hex() == abs(expected - 0.5).hex()

    def test_atomic_sweep_across_evaluation_blocks(self, rng, monkeypatch):
        # prefix ends on both sides of each block edge of eval_dirichlet
        # give the bits of the mean over per-atom scalar evaluations
        f = random_dirichlet(rng, d=2, max_terms=6, max_exp=3)
        rows = 4096
        monkeypatch.setattr(polynomials, "_EVAL_VALUES", rows * len(f))
        n = 2 * rows + 3
        t = np.cumsum(rng.uniform(0.5, 1.5, size=n))
        w = rng.uniform(0.2, 1.0, size=n)
        lam = AtomicLineMeasure(t, w, [1] * n, [1] * n, [1] * n,
                                level_boundaries=(t[-1] + 1.0,),
                                total_mass_by_level=(math.fsum(w),))
        values = np.array([eval_dirichlet(f, 0.0, float(x)) for x in t])
        ends = [rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1, n]
        record = convergence_sweep(f, lam, 0.5, [float(t[e - 1]) for e in ends])
        for row, end in zip(record.rows, ends):
            expected = math.fsum(np.abs(values[:end]) ** 2 * w[:end]) / math.fsum(w[:end])
            assert row.time_mean.hex() == expected.hex()

    def test_atomic_sweep_below_first_atom(self):
        lam = single_atom_measure(5.0)
        f = DirichletPolynomial({1: 1, 2: 0.5})
        with pytest.raises(EmptyMeasureError) as sweep_error:
            convergence_sweep(f, lam, 1.0, (1.0, 10.0))
        with pytest.raises(EmptyMeasureError) as mean_error:
            atomic_time_mean(f, lam, 1.0)
        assert str(sweep_error.value) == str(mean_error.value)


class TestBoundaryConvergence:
    def test_error_bound_random_suite(self, rng):
        # the module's central property at reduced scale: full-support means
        # obey the explicit chord/mass bound, whose value shrinks with depth
        for _ in range(6):
            d = int(rng.integers(2, 4))
            mu = random_point_mass(rng, d=d, n_atoms=int(rng.integers(1, 4)))
            f = random_dirichlet(rng, d=d, max_terms=5, max_exp=2)
            shallow = build_point_mass_lambda(mu, levels=3)
            deep = build_point_mass_lambda(
                mu, levels=6, growth=GrowthSchedule.constant(2)
            )
            F = bohr_lift(f, PrimeBasis(d))
            target = point_mass_space_average(F, mu)
            bounds = []
            for lam in (shallow, deep):
                mean = atomic_time_mean(f, lam, float(lam.t[-1]))
                bound = boundary_mean_error_bound(f, mu, lam)
                assert abs(mean - target) <= bound
                bounds.append(bound)
            assert bounds[1] < bounds[0]

    def test_junk_mass_shrinks_error_with_depth(self):
        # d=3 measure, polynomial loaded on the third prime: the levels that
        # cannot yet pin coordinate 3 contribute most of the error, and the
        # deeper schedule carries less of that early mass
        mu = TorusPointMassMeasure([((0.5, 1.7, 3.9), 0.5),
                                    ((2.8, 0.3, 5.1), 0.5)])
        f = DirichletPolynomial({1: 1.0, 5: 1.0, 6: 0.7, 15: 0.5})
        F = bohr_lift(f, PrimeBasis(3))
        target = point_mass_space_average(F, mu)
        lam4 = build_point_mass_lambda(mu, levels=4)
        lam7 = build_point_mass_lambda(mu, levels=7,
                                       growth=GrowthSchedule.constant(2))
        e4 = abs(atomic_time_mean(f, lam4, float(lam4.t[-1])) - target)
        e7 = abs(atomic_time_mean(f, lam7, float(lam7.t[-1])) - target)
        assert e7 < e4

    def test_delta_measure_mean_close(self):
        # d=1 delta at angle 0: lift of 1 + 2^{-s} evaluates to |2|^2 = 4
        mu = TorusPointMassMeasure([((0.0,), 1.0)])
        lam = build_point_mass_lambda(mu, levels=4)
        f = DirichletPolynomial({1: 1, 2: 1})
        mean = atomic_time_mean(f, lam, float(lam.t[-1]))
        assert abs(mean - 4.0) < 0.15


@pytest.fixture(scope="module")
def delta_setup():
    omega = (0.9, 2.2)
    mu = TorusPointMassMeasure([(omega, 1.0)])
    lam = build_point_mass_lambda(mu, levels=4)
    return omega, mu, lam


class TestMoments:
    def test_diagonal_exactly_one(self, delta_setup):
        _, _, lam = delta_setup
        pair = recover_moments(lam, PrimeBasis(2), [((1, 0), (1, 0))],
                               float(lam.t[-1]))[0]
        assert pair.empirical == 1.0

    def test_lebesgue_off_diagonal_decays(self):
        basis = PrimeBasis(2)
        pairs = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((2, 0), (0, 1))]
        for pair in recover_moments(None, basis, pairs, 1e5):
            assert abs(pair.empirical) < 0.01

    def test_first_moment_recovers_atom(self, delta_setup):
        omega, mu, lam = delta_setup
        pair = recover_moments(lam, PrimeBasis(2), [((1, 0), (0, 0))],
                               float(lam.t[-1]), mu=mu)[0]
        assert pair.reference == pytest.approx(np.exp(1j * omega[0]))
        assert abs(pair.empirical - pair.reference) < 0.2

    def test_reference_in_a_basis_narrower_than_mu(self, delta_setup):
        # a one-coordinate pair against a 2-D mu used to fail to broadcast
        omega, mu, lam = delta_setup
        narrow = recover_moments(lam, PrimeBasis(1), [((1,), ())],
                                 float(lam.t[-1]), mu=mu)[0]
        wide = recover_moments(lam, PrimeBasis(2), [((1, 0), (0, 0))],
                               float(lam.t[-1]), mu=mu)[0]
        assert narrow.reference == wide.reference == pytest.approx(np.exp(1j * omega[0]))
        assert narrow.empirical == wide.empirical

    def test_references_need_mu(self, delta_setup):
        _, _, lam = delta_setup
        pair = recover_moments(lam, PrimeBasis(2), [((1, 0), (0, 0))],
                               float(lam.t[-1]))[0]
        assert pair.reference is None

    def test_moment_consistency_across_depth(self, rng):
        # deeper construction does not get meaningfully worse (0.05 slack)
        mu = random_point_mass(rng, d=2, n_atoms=2)
        basis = PrimeBasis(2)
        idx = [(0, 0), (1, 0), (0, 1), (1, 1)]
        pairs = [(a, b) for a in idx for b in idx]
        errors = {}
        for K in (3, 4):
            lam = build_point_mass_lambda(
                mu, levels=K, growth=GrowthSchedule.constant(2)
            )
            moments = recover_moments(lam, basis, pairs, float(lam.t[-1]), mu=mu)
            errors[K] = max(abs(m.empirical - m.reference) for m in moments)
        assert errors[4] <= errors[3] + 0.05

    def test_dimension_guard(self, delta_setup):
        _, _, lam = delta_setup
        with pytest.raises(Exception):
            recover_moments(lam, PrimeBasis(1), [((1, 1), (0, 0))], 10.0)

    def test_empty_measure_error(self, delta_setup):
        _, _, lam = delta_setup
        with pytest.raises(EmptyMeasureError):
            recover_moments(lam, PrimeBasis(2), [((1, 0), (0, 0))], 1e-9)

    @pytest.mark.parametrize("atomic", [True, False])
    def test_shared_characters_match_one_call_per_pair(self, delta_setup, atomic):
        # pairs with the same alpha - beta share one character evaluation
        _, mu, lam = delta_setup
        pairs = [((1, 0), (0, 0)), ((2, 1), (1, 1)), ((0, 0), (1, 0)),
                 ((1, 1), (2, 1)), ((1, 1), (1, 1)), ((0, 0), (0, 0)),
                 ((1, 0), (0, 0)), ((0, 2), (1, 0)), ((1, 0), (0, 2))]
        source = lam if atomic else None
        T = float(lam.t[-1]) if atomic else 37.5
        batch = recover_moments(source, PrimeBasis(2), pairs, T, mu=mu)
        for pair, got in zip(pairs, batch):
            alone = recover_moments(source, PrimeBasis(2), [pair], T, mu=mu)[0]
            assert repr(got.empirical) == repr(alone.empirical)
            assert repr(got.reference) == repr(alone.reference)


def assert_conjugates(a, b):
    assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), (-b.imag).hex())


INDICES = [(a1, a2) for a1 in range(3) for a2 in range(3)]
UNEQUAL_PAIRS = [(a, b) for a in INDICES for b in INDICES if a != b]


class TestConjugatePairs:
    """A pair and its swap have characters d and -d: conjugate means, bit for
    bit, down to the sign of a zero imaginary part."""

    @pytest.mark.parametrize("atomic", [True, False])
    def test_swapped_pairs(self, delta_setup, atomic):
        _, _, lam = delta_setup
        source, T = (lam, float(lam.t[-1])) if atomic else (None, 37.5)
        moments = recover_moments(source, PrimeBasis(2), UNEQUAL_PAIRS, T)
        by_pair = {(m.alpha, m.beta): m.empirical for m in moments}
        for m in moments:
            assert_conjugates(m.empirical, by_pair[m.beta, m.alpha])

    def test_zero_imaginary_parts_at_time_zero(self):
        # one atom at t = 0: every character is 1, with an imaginary part of
        # +0 or -0
        lam = AtomicLineMeasure([0.0], [1.0], [1], [1], [1],
                                level_boundaries=(1.0,), total_mass_by_level=(1.0,))
        moments = recover_moments(lam, PrimeBasis(2), UNEQUAL_PAIRS, 1.0)
        by_pair = {(m.alpha, m.beta): m.empirical for m in moments}
        for m in moments:
            assert m.empirical.real == 1.0 and m.empirical.imag == 0.0
            assert_conjugates(m.empirical, by_pair[m.beta, m.alpha])


class TestErrorBound:
    def test_bound_is_positive_and_shrinks(self, rng):
        mu = random_point_mass(rng, d=2, n_atoms=2)
        f = random_dirichlet(rng, d=2, max_terms=4, max_exp=2)
        bounds = []
        for K in (2, 4):
            lam = build_point_mass_lambda(mu, levels=K)
            bounds.append(boundary_mean_error_bound(f, mu, lam))
        assert bounds[1] < bounds[0]
        assert bounds[1] > 0
