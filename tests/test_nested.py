import numpy as np
import pytest

import polytorus.nested as nested
from polytorus import (
    CapacityError,
    GrowthSchedule,
    PlanError,
    PrimeBasis,
    NestedConstructionPlan,
    TorusPointMassMeasure,
    TorusPolynomial,
    atomic_time_mean,
    bohr_unlift,
    build_nested_lambda,
    point_mass_space_average,
    weighted_mean_square,
)


@pytest.fixture(scope="module")
def constant_sequence_setup():
    mu = TorusPointMassMeasure(
        [((0.8, 2.1), 0.5), ((3.6, 0.4), 0.5)]
    )
    basis = PrimeBasis(2)
    polys = [
        TorusPolynomial({(): 1.0}, basis),
        TorusPolynomial({(): 1.0, (1,): 1.0}, basis),
        TorusPolynomial({(1,): 0.5, (0, 1): 1.0, (1, 1): 0.25}, basis),
    ]
    plan = NestedConstructionPlan([mu] * 2, polys)
    lam, completed = build_nested_lambda(
        plan, levels=3, growth=GrowthSchedule.constant(2)
    )
    return mu, polys, lam, completed


class TestNestedConstruction:
    def test_window_estimates_below_schedule(self, constant_sequence_setup):
        _, _, _, completed = constant_sequence_setup
        for k, level in enumerate(completed.window_estimates, start=1):
            assert max(level) < 2.0**-k

    def test_window_counts_follow_masses(self, constant_sequence_setup):
        _, _, lam, completed = constant_sequence_setup
        # level 1 runs one window; level k runs ||lambda^{(k-1)}|| of them
        counts = [len(level) for level in completed.window_estimates]
        assert counts[0] == 1
        for k in range(2, len(counts) + 1):
            assert counts[k - 1] == round(lam.total_mass_by_level[k - 2])

    def test_boundaries_strictly_increase(self, constant_sequence_setup):
        _, _, _, completed = constant_sequence_setup
        # each level's grid starts where the previous level ended, so the
        # seam value repeats; strictness holds within levels and across seams
        for level in completed.window_boundaries:
            assert all(b2 > b1 for b1, b2 in zip(level, level[1:]))
        ends = [level[-1] for level in completed.window_boundaries]
        starts = [level[0] for level in completed.window_boundaries]
        for end, nxt in zip(ends, starts[1:]):
            assert nxt == end

    def test_mass_recursion(self, constant_sequence_setup):
        _, _, lam, _ = constant_sequence_setup
        assert lam.total_mass_by_level == (2.0, 6.0, 18.0)
        actual = [float(np.sum(lam.w[lam.level <= k])) for k in range(1, 4)]
        assert actual == pytest.approx(list(lam.total_mass_by_level), abs=1e-9)

    def test_full_mean_matches_constant_target(self, constant_sequence_setup):
        mu, polys, lam, completed = constant_sequence_setup
        # constant approximating sequence: the weak-* limit is mu itself, so
        # every test polynomial's mean converges to its mu average within the
        # mass-weighted window tolerances
        masses = lam.total_mass_by_level
        gamma = [masses[0]] + [
            masses[k] - masses[k - 1] for k in range(1, len(masses))
        ]
        tolerance = sum(
            g / masses[-1] * 2.0**-k for k, g in enumerate(gamma, start=1)
        )
        for F in polys:
            f = bohr_unlift(F)
            target = point_mass_space_average(F, mu)
            mean = atomic_time_mean(f, lam, float(lam.t[-1]))
            assert abs(mean - target) <= tolerance

    def test_default_growth_mass_ratio(self):
        # lambda[0, T_3] / lambda[0, T_2] = 2^2 + 1 with the default schedule
        mu = TorusPointMassMeasure([((1.1,), 1.0)])
        basis = PrimeBasis(1)
        polys = [TorusPolynomial({(): 1.0, (1,): 0.5}, basis)]
        plan = NestedConstructionPlan([mu] * 4, polys)
        lam, _ = build_nested_lambda(plan, levels=2)
        assert lam.total_mass_by_level[1] / lam.total_mass_by_level[0] == 5.0

    def test_constant_one_passes_first_candidate(self):
        # F = 1 has zero error, so every window closes after one repetition
        mu = TorusPointMassMeasure([((0.3, 4.4), 1.0)])
        polys = [TorusPolynomial({(): 1.0}, PrimeBasis(2))]
        plan = NestedConstructionPlan([mu] * 2, polys)
        lam, completed = build_nested_lambda(
            plan, levels=3, growth=GrowthSchedule.constant(2)
        )
        assert int(lam.rep.max()) == 1
        assert all(
            worst < 1e-12 for level in completed.window_estimates for worst in level
        )

    def test_atom_cap_counts_every_placed_atom(self):
        mu = TorusPointMassMeasure([((0.3, 4.4), 1.0)])
        polys = [TorusPolynomial({(): 1.0}, PrimeBasis(2))]
        plan = NestedConstructionPlan([mu] * 2, polys)
        growth = GrowthSchedule.constant(2)
        lam, _ = build_nested_lambda(plan, levels=3, growth=growth)
        exact, _ = build_nested_lambda(
            plan, levels=3, growth=growth, atom_cap=len(lam)
        )
        assert exact == lam
        with pytest.raises(CapacityError):
            build_nested_lambda(plan, levels=3, growth=growth, atom_cap=len(lam) - 1)

    def test_window_estimates_recomputed_from_atoms(self, monkeypatch):
        # With no depth margin the windows need several rounds, and the two
        # sources finish at different rounds, so an estimate taken before a
        # block's last round would differ from one recomputed from its atoms.
        monkeypatch.setattr(nested, "_depth_margin", lambda polys, dimension: 0)
        rng = np.random.default_rng(0)
        mus = [
            TorusPointMassMeasure(
                [(tuple(rng.uniform(0, 6.28, 2)), 0.5) for _ in range(2)]
            )
            for _ in range(2)
        ]
        basis = PrimeBasis(2)
        polys = [
            TorusPolynomial({(): 1.0, (1,): 1.0, (0, 1): 1.0}, basis),
            TorusPolynomial({(1, 1): 0.5, (0, 1): 1.0}, basis),
        ]
        lam, completed = build_nested_lambda(
            NestedConstructionPlan(mus, polys), levels=3,
            growth=GrowthSchedule.constant(2),
        )
        first = lam.level == 1
        assert [int(lam.rep[first & (lam.source == j)].max()) for j in (1, 2)] == [13, 6]
        fs = [bohr_unlift(F) for F in polys]
        for k, grid in enumerate(completed.window_boundaries, start=1):
            window = np.searchsorted(grid, lam.t) - 1
            for l, recorded in enumerate(completed.window_estimates[k - 1]):
                inside = (lam.level == k) & (window == l)
                worst = max(
                    abs(weighted_mean_square(f, lam.t[block], lam.w[block])
                        - point_mass_space_average(F, mus[j - 1]))
                    for j in (1, 2)
                    for block in [inside & (lam.source == j)]
                    for f, F in zip(fs, polys)
                )
                assert recorded == pytest.approx(worst, rel=1e-12, abs=0.0)

    def test_atoms_normalized_per_window_source(self, constant_sequence_setup):
        _, _, lam, completed = constant_sequence_setup
        # each (level, window, source) block carries unit mass
        for k, grid in enumerate(completed.window_boundaries, start=1):
            for lo, hi in zip(grid, grid[1:]):
                inside = (lam.t > lo) & (lam.t <= hi) & (lam.level == k)
                for j in np.unique(lam.source[inside]):
                    block = inside & (lam.source == j)
                    assert float(np.sum(lam.w[block])) == pytest.approx(
                        1.0, abs=1e-12
                    )

    def test_distinct_sequence_entries(self):
        # different approximants per source: each window matches its own mu_j
        mu_a = TorusPointMassMeasure([((0.4,), 1.0)])
        mu_b = TorusPointMassMeasure([((2.9,), 0.5), ((5.3,), 0.5)])
        basis = PrimeBasis(1)
        polys = [TorusPolynomial({(): 1.0, (1,): 1.0}, basis)]
        plan = NestedConstructionPlan([mu_a, mu_b], polys)
        lam, completed = build_nested_lambda(
            plan, levels=2, growth=GrowthSchedule.constant(2)
        )
        assert max(completed.window_estimates[1]) < 0.25


class TestPlanValidation:
    def test_requires_enough_measures(self):
        mu = TorusPointMassMeasure([((0.0,), 1.0)])
        polys = [TorusPolynomial({(): 1.0}, PrimeBasis(1))]
        plan = NestedConstructionPlan([mu] * 2, polys)
        with pytest.raises(PlanError):
            build_nested_lambda(plan, levels=2)  # default growth needs 4

    def test_requires_polynomials(self):
        mu = TorusPointMassMeasure([((0.0,), 1.0)])
        with pytest.raises(PlanError):
            NestedConstructionPlan([mu], [])

    def test_requires_measures(self):
        with pytest.raises(PlanError):
            NestedConstructionPlan([], [TorusPolynomial({}, PrimeBasis(1))])

    def test_rejects_mixed_dimensions(self):
        mu1 = TorusPointMassMeasure([((0.0,), 1.0)])
        mu2 = TorusPointMassMeasure([((0.0, 1.0), 1.0)])
        polys = [TorusPolynomial({(): 1.0}, PrimeBasis(1))]
        with pytest.raises(PlanError):
            NestedConstructionPlan([mu1, mu2], polys)

    def test_rejects_oversized_polynomials(self):
        mu = TorusPointMassMeasure([((0.0,), 1.0)])
        wide = TorusPolynomial({(0, 0, 1): 1.0}, PrimeBasis(3))
        plan = NestedConstructionPlan([mu] * 2, [wide])
        with pytest.raises(PlanError):
            build_nested_lambda(plan, levels=1, growth=GrowthSchedule.constant(2))
