import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polytorus import (
    BudgetExhaustedError,
    ConstructionError,
    DimensionError,
    DomainError,
    GrowthSchedule,
    KroneckerProblem,
    KroneckerSolution,
    NestedConstructionPlan,
    PrimeBasis,
    TorusPointMassMeasure,
    TorusPolynomial,
    build_nested_lambda,
    circle_distance,
    flow_angles,
    lattice_solve,
    residuals,
    scan_solve,
    solve,
)
from polytorus import kronecker, measures, nested
from polytorus.kronecker import (
    _GRID,
    _GRID_MASK,
    LatticeSearch,
    _grid_advance,
    _joint_hits,
    _on_grid,
    _recheck,
    _return_times,
    _rotation_hits,
    _round_up,
    _solution,
    _Tables,
    _tables,
)
from polytorus.measures import build_point_mass_lambda, scan_step

TWO_PI = 2.0 * math.pi


def nearest_lattice_time(theta, log_p, t):
    """Closed-form d=1 solution lattice: t_q = (2*pi*q - theta) / log p."""
    q = round((t * log_p + theta) / TWO_PI)
    return (TWO_PI * q - theta) / log_p


class TestCircleDistance:
    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_range_and_symmetry(self, a, b):
        d = float(circle_distance(a, b))
        assert 0.0 <= d <= math.pi + 1e-12
        assert d == pytest.approx(float(circle_distance(b, a)), abs=1e-9)

    @given(st.floats(-50, 50), st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_periodicity(self, a, k):
        assert float(circle_distance(a + k * TWO_PI, a)) < 1e-9


class TestResiduals:
    def test_zero_time_zero_targets(self):
        res = residuals(PrimeBasis(3), 3, 0.0, (0.0, 0.0, 0.0))
        assert np.all(res == 0.0)

    def test_zero_time_pi_targets(self):
        res = residuals(PrimeBasis(2), 2, 0.0, (math.pi, math.pi))
        assert res == pytest.approx([math.pi, math.pi])

    def test_self_consistency_with_flow(self, rng):
        basis = PrimeBasis(3)
        for _ in range(20):
            t = float(rng.uniform(0, 1e3))
            targets = flow_angles(basis, t)
            assert np.all(residuals(basis, 3, t, targets) < 1e-12)

    def test_dimension_check(self):
        with pytest.raises(Exception):
            residuals(PrimeBasis(1), 2, 0.0, (0.0, 0.0))


class TestClosedFormCases:
    def test_zero_target_above_ten(self):
        problem = KroneckerProblem(PrimeBasis(1), 1, (0.0,), 1e-6, t_min=10.0)
        sol = solve(problem)
        assert sol.t == pytest.approx(2 * TWO_PI / math.log(2), abs=1e-12)
        assert max(sol.residuals) < 1e-9

    def test_pi_target(self):
        problem = KroneckerProblem(PrimeBasis(1), 1, (math.pi,), 1e-6)
        sol = solve(problem)
        assert sol.t == pytest.approx(math.pi / math.log(2), abs=1e-12)

    def test_two_dim_origin(self):
        problem = KroneckerProblem(PrimeBasis(2), 2, (0.0, 0.0), 0.05)
        sol = solve(problem)
        recheck = residuals(PrimeBasis(2), 2, sol.t, (0.0, 0.0))
        assert np.all(recheck < 0.05)

    def test_d1_solutions_sit_on_lattice(self, rng):
        log2 = math.log(2)
        for _ in range(50):
            theta = float(rng.uniform(0, TWO_PI))
            t_min = float(rng.uniform(0, 100))
            problem = KroneckerProblem(PrimeBasis(1), 1, (theta,), 0.05, t_min)
            sol = solve(problem)
            assert abs(sol.t - nearest_lattice_time(theta, log2, sol.t)) < 1e-9


class TestSolverProperties:
    def _random_problem(self, rng, k=None, eps=None):
        k = k or int(rng.integers(1, 4))
        eps = eps or float(rng.uniform(0.05, 0.5))
        targets = tuple(rng.uniform(0, TWO_PI, size=k))
        t_min = float(rng.uniform(0, 50))
        return KroneckerProblem(PrimeBasis(k), k, targets, eps, t_min)

    def test_soundness_both_backends(self, rng):
        for _ in range(25):
            problem = self._random_problem(rng)
            for backend in (lattice_solve, scan_solve):
                sol = backend(problem, 10**8)
                recheck = residuals(
                    problem.basis, problem.k, sol.t, problem.targets
                )
                assert np.all(recheck < problem.eps)
                assert sol.t > problem.t_min

    def test_monotone_restart(self, rng):
        problem = self._random_problem(rng, k=2, eps=0.2)
        first = solve(problem)
        harder = KroneckerProblem(
            problem.basis, problem.k, problem.targets, problem.eps, first.t
        )
        second = solve(harder)
        assert second.t > first.t

    def test_determinism(self, rng):
        problem = self._random_problem(rng, k=3, eps=0.1)
        a, b = solve(problem), solve(problem)
        assert a == b

    def test_scan_completeness(self, rng):
        # plant an exact solution t*; the scan may not skip past it
        basis = PrimeBasis(2)
        for _ in range(10):
            t_star = float(rng.uniform(20, 40))
            targets = tuple(flow_angles(basis, t_star))
            eps = 0.1
            problem = KroneckerProblem(basis, 2, targets, eps, t_min=t_star - 5.0)
            sol = scan_solve(problem, 10**7)
            step = eps / (2.0 * float(basis.logs[-1]))
            assert sol.t <= t_star + step

    def test_budget_error_reports_best(self):
        self._check_budget_error(solve, 200)

    @pytest.mark.parametrize("budget", [200, 5000])
    @pytest.mark.parametrize("backend", [lattice_solve, scan_solve])
    def test_budget_error_reports_best_per_backend(self, backend, budget):
        self._check_budget_error(backend, budget)

    @staticmethod
    def _check_budget_error(backend, budget):
        problem = KroneckerProblem(
            PrimeBasis(3), 3, (1.0, 2.0, 3.0), 0.01, t_min=0.0
        )
        with pytest.raises(BudgetExhaustedError) as info:
            backend(problem, budget=budget)
        err = info.value
        assert err.steps == budget
        assert len(err.best_residuals) == 3
        assert math.isfinite(err.best_t)
        recheck = residuals(problem.basis, 3, err.best_t, problem.targets)
        assert err.best_residuals == tuple(float(r) for r in recheck)

    @pytest.mark.parametrize("budget", [math.nan, 2.5, True, "10", 0, -1])
    @pytest.mark.parametrize("backend", [lattice_solve, scan_solve])
    def test_budget_must_be_a_positive_integer(self, backend, budget):
        # one check for both backends: no float is truncated, no bool or
        # string is read as a count; numpy integers are counts
        problem = KroneckerProblem(PrimeBasis(2), 2, (1.0, 2.0), 0.25)
        with pytest.raises(DomainError, match="budget must be a positive integer"):
            backend(problem, budget)
        assert backend(problem, np.int64(10**6)) == backend(problem, 10**6)

    def test_solution_steps_counts_candidates(self):
        problem = KroneckerProblem(PrimeBasis(1), 1, (0.0,), 0.1, t_min=5.0)
        sol = solve(problem)
        assert sol.steps == 1
        assert sol.method == "lattice"

    def test_backends_cross_validate(self, rng):
        # both find (different) sound answers for the same coarse problems
        for _ in range(5):
            problem = self._random_problem(rng, k=2, eps=0.3)
            fast = lattice_solve(problem)
            slow = scan_solve(problem)
            for sol in (fast, slow):
                assert np.all(
                    residuals(problem.basis, problem.k, sol.t, problem.targets)
                    < problem.eps
                )


class TestProblemValidation:
    def test_eps_range(self):
        with pytest.raises(DomainError):
            KroneckerProblem(PrimeBasis(1), 1, (0.0,), 4.0)
        with pytest.raises(DomainError):
            KroneckerProblem(PrimeBasis(1), 1, (0.0,), 0.0)

    def test_k_range(self):
        with pytest.raises(Exception):
            KroneckerProblem(PrimeBasis(1), 2, (0.0, 0.0), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(DomainError):
            KroneckerProblem(PrimeBasis(2), 2, (0.5, bad), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_t_min_rejected(self, bad):
        with pytest.raises(DomainError):
            KroneckerProblem(PrimeBasis(2), 2, (0.5, 1.0), 0.1, t_min=bad)

    def test_eps_nan_rejected(self):
        with pytest.raises(DomainError):
            KroneckerProblem(PrimeBasis(1), 1, (0.0,), math.nan)

    def test_targets_canonicalized(self):
        p = KroneckerProblem(PrimeBasis(1), 1, (-math.pi,), 0.1)
        assert p.targets[0] == pytest.approx(math.pi)

    def test_unresolvable_eps_rejected_at_construction(self):
        # ulp(1e15) * log 2 ~ 0.087 dwarfs eps: no residual below eps could
        # be told apart from rounding, so the problem is refused up front
        # instead of spending the whole budget.
        with pytest.raises(DomainError, match="cannot resolve"):
            KroneckerProblem(PrimeBasis(1), 1, (1.0,), 1e-6, t_min=1e15)
        with pytest.raises(DomainError, match="cannot resolve"):
            KroneckerProblem(PrimeBasis(3), 3, (1.0, 2.0, 3.0), 2.0**-4, t_min=1e16)

    def test_large_resolvable_t_min_accepted(self):
        problem = KroneckerProblem(PrimeBasis(2), 2, (1.0, 2.0), 2.0**-12, t_min=1e7)
        sol = solve(problem)
        assert sol.t > 1e7
        assert np.all(residuals(problem.basis, 2, sol.t, problem.targets) < 2.0**-12)

    @pytest.mark.parametrize("backend", [lattice_solve, scan_solve])
    def test_unresolvable_solution_refused(self, backend):
        # t_min lies just below 2^50, where ulp(t_min) * log 3 = 0.137 is
        # below eps, but every candidate above it lies past 2^50, where the
        # angle step is 0.275: a residual below eps there is rounding.
        problem = KroneckerProblem(PrimeBasis(2), 2, (1.0, 2.0), 0.25,
                                   1125899906842623.9)
        with pytest.raises(DomainError, match=r"cannot resolve eps=0.25 at t=11258999068426") \
                as info:
            backend(problem, 10**6)
        assert info.value.__context__ is None


def reference_problem(basis, k, targets, eps, t_min):
    """Every check of a problem, in order, written out on its own: ``(targets,
    eps, t_min)`` as the problem stores them."""
    if not 1 <= k <= basis.dimension:
        raise DimensionError(f"active dimension {k} not in [1, {basis.dimension}]")
    if not 0.0 < eps < math.pi:
        raise DomainError(f"eps must lie in (0, pi), got {eps}")
    if not 0.0 <= t_min < math.inf:
        raise DomainError(f"t_min must be finite and >= 0, got {t_min}")
    resolution = math.ulp(t_min) * float(basis.logs[k - 1])
    if not resolution < eps:
        raise DomainError(f"float64 cannot resolve eps={eps} at t_min="
                          f"{t_min} (angle step {resolution:.3g})")
    raw = tuple(float(g) for g in targets)
    if not all(map(math.isfinite, raw)):
        raise DomainError(f"targets must be finite, got {raw}")
    canonical = tuple(g % TWO_PI for g in raw)
    if len(canonical) != k:
        raise DomainError(f"expected {k} targets, got {len(canonical)}")
    return canonical, float(eps), float(t_min)


def construction(make):
    """What building a problem gives: its fields, floats by their bits, or
    the type and text of what it raised."""
    try:
        result = make()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, KroneckerProblem):
        result = result.targets, result.eps, result.t_min
    targets, eps, t_min = result
    return tuple(g.hex() for g in targets), eps.hex(), t_min.hex(), \
        tuple(map(type, (eps, t_min, *targets)))


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1e-300, TWO_PI, -TWO_PI, 7.5, 1e300, -1e300,
                  math.nan, math.inf, -math.inf]


class TestValidationReference:
    @given(
        st.integers(1, 4),
        st.integers(-1, 5),
        st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(-50, 50)
                 | st.sampled_from(["x", None, "2.5"]), max_size=5),
        st.sampled_from(["tuple", "list", "numpy"]),
        st.sampled_from([0.1, 2.0 ** -7, 1, 3, 0, -0.0, math.pi, 4.0, math.nan,
                         np.float64(0.25), 3.0]),
        st.sampled_from([0.0, -0.0, 0, 5, 1e7, 1e15, 1e16, 1e300, -1.0, math.nan,
                         math.inf]) | st.floats(0, 1e6),
    )
    @example(2, 2, [0.0, -0.0], "tuple", 1, 0.0)
    @example(2, 2, [-0.0, 0.0], "numpy", 1.0, 5)
    @example(1, 1, [math.nan], "list", 0.1, math.inf)
    @settings(max_examples=500, deadline=None)
    def test_problem_matches_reference(self, dimension, k, targets, kind, eps, t_min):
        # The same fields, or the same exception and text, as the reference,
        # built once and built again; a target that is no number fails where
        # the reference fails.
        basis = PrimeBasis(dimension)
        box = {"tuple": tuple, "list": list, "numpy": np.array}[kind]
        expected = construction(lambda: reference_problem(basis, k, box(targets), eps,
                                                          t_min))
        for _ in range(2):
            assert construction(
                lambda: KroneckerProblem(basis, k, box(targets), eps, t_min)) == expected

    def test_k_that_is_not_an_int(self):
        # a float k fails where the reference fails, after the t_min checks
        basis = PrimeBasis(2)
        for t_min in (1.0, -1.0):
            assert construction(lambda: KroneckerProblem(basis, 2.0, (1.0, 2.0), 0.1,
                                                         t_min)) == \
                construction(lambda: reference_problem(basis, 2.0, (1.0, 2.0), 0.1,
                                                       t_min))


def implied_integers(problem, t):
    """``rint((-t log p_r - theta_r) / 2*pi)`` in numpy."""
    raw = (-t * problem.basis.logs[:problem.k] - np.asarray(problem.targets)) / TWO_PI
    return tuple(int(q) for q in np.rint(raw))


def search_at(problem, budget):
    """A :class:`LatticeSearch` of ``problem`` with ``budget``, and ``q0``,
    the first lattice integer of its call at the problem's ``t_min``."""
    search = LatticeSearch(problem, budget)
    return search, search.first_integer(problem.t_min)


def grid_rotations(tests, budget):
    return [_on_grid(c, s, w, _grid_advance(s), budget) for c, s, w in tests]


def tables_of(rotations):
    return _Tables(tuple(a for _, a, _ in rotations),
                   tuple(_round_up(w) for _, _, w in rotations))


def walk(tests, budget):
    """The window walk from 0 over the pre-filters ``tests`` ``(c, s, w)``."""
    rotations = grid_rotations(tests, budget)
    if not rotations:
        return iter(range(budget))
    return _rotation_hits(rotations, 0, budget, tables_of(rotations))


def walk_from(tests, budget, start):
    """The window walk over ``tests``' hits in ``[0, budget)``, continued
    from ``start <= 0``, an index inside every widened window, as a
    cursor's walk continues: by the first window's jumps with one window, by
    joint gaps with more.  The walks index from the start, so the rotations
    are moved to it."""
    rotations = grid_rotations(tests, budget)
    moved = [((o + start * a) & _GRID_MASK, a, w) for o, a, w in rotations]
    at = [o for o, _, _ in moved]
    cursor_walk = _rotation_hits if len(moved) == 1 else _joint_hits
    return [i + start for i in cursor_walk(moved, 0, budget - start, tables_of(moved),
                                           -start, at)]


def brute_force_first(problem, budget):
    """Oracle for the window walk: one plain numpy pass over every index with
    the same pre-filter, then the exact ``residuals`` recheck, in order."""
    search, q0 = search_at(problem, budget)
    idx = np.arange(budget, dtype=np.float64)
    alive = np.ones(budget, dtype=bool)
    tests, _, _ = search.windows(q0)
    for c, s, w in tests:
        u = c - idx * s
        u -= np.floor(u)
        alive &= u < w
    for i in np.flatnonzero(alive).tolist():
        t = search.time_of(q0, i)
        if not t > problem.t_min:
            continue
        res = residuals(problem.basis, problem.k, t, problem.targets)
        if np.all(res < problem.eps):
            q = implied_integers(problem, t)
            return float(t), tuple(float(r) for r in res), q, i + 1
    return None


def first_accepted(problem, budget):
    """Second oracle for the window walk, with no pre-filter: the first
    index whose time lies above ``t_min`` and whose ``residuals`` are all
    below eps, over every index in order, as :func:`brute_force_first`
    gives it."""
    search, q0 = search_at(problem, budget)
    for start in range(0, budget, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), budget), dtype=np.float64)
        times = search.time_of(q0, idx)
        res = residuals(problem.basis, problem.k, times, problem.targets)
        found = np.flatnonzero((times > problem.t_min) & np.all(res < problem.eps, axis=-1))
        if found.size:
            j = int(found[0])
            t = float(times[j])
            return (t, tuple(float(r) for r in res[j]), implied_integers(problem, t),
                    start + j + 1)
    return None


class TestWindowWalk:
    BUDGET = 1 << 18

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        outcomes = {"found": 0, "exhausted": 0}
        for _ in range(48):
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, d + 1))
            eps = 2.0 ** -int(rng.integers(1, 10))
            t_min = 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(0, 7))
            targets = tuple(rng.uniform(0, TWO_PI, size=k))
            problem = KroneckerProblem(PrimeBasis(d), k, targets, eps, t_min)
            expected = brute_force_first(problem, self.BUDGET)
            # the pre-filter drops no candidate that the recheck accepts
            assert first_accepted(problem, self.BUDGET) == expected
            if expected is None:
                outcomes["exhausted"] += 1
                with pytest.raises(BudgetExhaustedError) as info:
                    lattice_solve(problem, self.BUDGET)
                assert info.value.steps == self.BUDGET
            else:
                outcomes["found"] += 1
                sol = lattice_solve(problem, self.BUDGET)
                assert (sol.t, sol.residuals, sol.q, sol.steps) == expected
        assert outcomes["found"] >= 12 and outcomes["exhausted"] >= 1, outcomes

    def test_return_times_exhaustive(self):
        for m in range(1, 40):
            for a in range(m):
                for w in range(1, m + 1):
                    multiples = [n * a % m for n in range(1, m + 1)]
                    n1 = next((n for n, v in enumerate(multiples, 1) if v < w), None)
                    n2 = next((n for n, v in enumerate(multiples, 1) if v > m - w), None)
                    assert _return_times(a, m, w) == (n1, n2), (a, m, w)

    def test_return_times_large_modulus(self, rng):
        # continued-fraction records against a direct search up to n1, n2
        m = 1 << 64
        for _ in range(20):
            a = int(rng.integers(1, 1 << 62)) * 4 + 1
            w = int(m * 10.0 ** rng.uniform(-4, -1))
            n1, n2 = _return_times(a, m, w)
            assert n1 * a % m < w and n2 * a % m > m - w
            assert all(w <= n * a % m <= m - w for n in range(1, min(n1, n2)))

    def test_walk_visits_exactly_the_window(self):
        # Every index whose float values frac(base - i*step) are all in
        # [0, width) must be walked, and nothing else when no value sits near
        # an edge; every third trial adds a second window.
        rng = np.random.default_rng(11)
        budget = 1 << 15
        idx = np.arange(budget, dtype=np.float64)
        checked = 0
        for trial in range(160):
            tests = [self._random_window(rng, trial % 4)]
            if trial % 3 == 0:
                tests.append(self._random_window(rng, 0))
            inside = np.ones(budget, dtype=bool)
            near_edge = False
            for base, step, width in tests:
                u = base - idx * step
                u -= np.floor(u)
                inside &= u < width
                edge = np.minimum(np.minimum(u, 1.0 - u), np.abs(u - width))
                near_edge |= bool(edge.min() < 1e-8)
            if near_edge:
                continue
            expected = np.flatnonzero(inside).tolist()
            assert list(walk(tests, budget)) == expected
            checked += 1
        assert checked >= 120

    @staticmethod
    def _random_window(rng, kind):
        if kind == 0:
            step = float(rng.uniform(0, 1))
        elif kind == 1:  # near a rational with a small denominator
            q = int(rng.integers(1, 8))
            step = int(rng.integers(0, q)) / q + float(rng.uniform(-1, 1)) * 1e-9
        elif kind == 2:  # tiny step
            step = float(10.0 ** rng.uniform(-6, -2))
        else:
            step = 1.0 - float(10.0 ** rng.uniform(-6, -2))
        base = float(rng.uniform(-1e4, 1e4))
        width = float(10.0 ** rng.uniform(-5, -0.3))
        return base, step, width

    def test_walk_keeps_values_on_the_window_edges(self):
        # base = i0*step puts index i0 at float value 0 while its exact value
        # may sit a rounding error below the window; the margins must keep
        # it, and likewise for values just under the upper edge.  The edge
        # window is the walked one or the one checked at each hit, in turn.
        rng = np.random.default_rng(5)
        budget = 1 << 12
        idx = np.arange(budget, dtype=np.float64)
        for trial in range(400):
            i0 = int(rng.integers(0, budget))
            windows = []
            for offset in (0.5, 0.0 if trial % 2 else 1.0 - 1e-15):
                step = float(rng.uniform(0, 1))
                width = float(10.0 ** rng.uniform(-4, -1))
                windows.append((float(i0) * step + width * offset, step, width))
            tests = windows if trial % 4 < 2 else windows[::-1]
            inside = np.ones(budget, dtype=bool)
            loose = np.ones(budget, dtype=bool)
            for base, step, width in tests:
                u = base - idx * step
                u -= np.floor(u)
                inside &= u < width
                loose &= (u < width + 1e-9) | (u > 1.0 - 1e-9)
            walked = list(walk(tests, budget))
            assert set(np.flatnonzero(inside).tolist()) <= set(walked)
            assert walked == sorted(set(walked))
            assert all(loose[walked])


def largest_admitted_t_min(eps, log_k):
    """The largest float ``t_min`` at which float64 resolves ``eps`` on the
    prime with log ``log_k``, as :class:`KroneckerProblem` checks it."""
    top = math.nextafter(2.0 ** (math.floor(math.log2(eps / log_k)) + 53), 0.0)
    while not math.ulp(top) * log_k < eps:
        top /= 2.0
    return top


def edge_target(t, log, eps, above, nudge):
    """A target in ``[0, 2*pi)`` for one coordinate whose recheck residual
    at the time ``t`` is the largest below ``eps`` that a float target can
    give, with the flow angle ``above`` the target or below it, moved
    ``nudge`` floats inwards; ``None`` when there is none in ``[0, 2*pi)``.
    The residual is monotone in the target near the window's edge, so the
    edge is bracketed by doubling steps and then bisected."""
    inward = 1.0 if above else -1.0

    def accepted(g):
        d = (-t * log - g) % TWO_PI  # as _recheck computes it
        return (d if above else TWO_PI - d) < eps

    g = (-t * log - inward * eps) % TWO_PI
    outside, inside, step = g, g, math.ulp(TWO_PI)
    while accepted(outside):
        outside, step = outside - inward * step, 2.0 * step
    step = math.ulp(TWO_PI)
    while not accepted(inside):
        if step > eps:  # the float angles near t are coarser than the window
            return None
        inside, step = inside + inward * step, 2.0 * step
    while (mid := 0.5 * (outside + inside)) not in (outside, inside):
        if accepted(mid):
            inside = mid
        else:
            outside = mid
    for _ in range(nudge):
        inside = math.nextafter(inside, inside + inward)
    return inside if 0.0 <= inside < TWO_PI and accepted(inside) else None


class TestRecheckInsideTheWindows:
    """The walk alone decides which candidates the recheck sees, so the
    answer keeps its bits only if every candidate the recheck accepts lies
    in its float window (the bound in ``LatticeSearch.tests``) and hence in
    the widened grid window that the walk visits.  Each case puts one
    candidate's filtered residuals at the largest float below eps, on
    either side of its targets, over the whole accepted domain."""

    @given(
        st.integers(2, 4), st.integers(2, 4), st.floats(1.0, 12.0),
        st.none() | st.floats(-40.0, 0.0), st.integers(1, 10**8), st.floats(0.0, 1.0),
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.lists(st.tuples(st.booleans(), st.integers(0, 3)), min_size=3, max_size=3),
    )
    # t_min at the resolution limit and the last index of the largest budget
    @example(4, 4, 12.0, 0.0, 10**8, 1.0, 1.0, [(True, 0), (False, 0), (True, 0)])
    @example(3, 2, 1.0, 0.0, 10**8, 1.0, 6.0, [(False, 0), (True, 0), (True, 0)])
    @example(2, 2, 1.0, None, 1, 0.0, 0.0, [(True, 0), (True, 0), (True, 0)])
    @settings(max_examples=400, deadline=None)
    def test_accepted_candidates_lie_in_their_windows(self, d, k, e, scale, budget,
                                                      where, theta_k, edges):
        k, eps = min(k, d), 2.0 ** -e
        basis = PrimeBasis(d)
        t_min = 0.0 if scale is None else \
            largest_admitted_t_min(eps, float(basis.logs[k - 1])) * 2.0 ** scale
        i = min(int(where * budget), budget - 1)
        search = LatticeSearch(KroneckerProblem(basis, k, (0.0,) * (k - 1) + (theta_k,),
                                                eps, t_min), budget)
        t = search.time_of(search.first_integer(t_min), i)
        targets = [edge_target(t, log, eps, above, nudge)
                   for log, (above, nudge) in zip(search.logs[:-1], edges)]
        assume(None not in targets)
        search, q0 = search_at(KroneckerProblem(basis, k, (*targets, theta_k), eps, t_min),
                               budget)
        assert search.time_of(q0, i) == t
        tests, rotations, _ = search.windows(q0)
        for log, g, (c, s, w), (o, a, wide) in zip(search.logs, search.reduced, tests,
                                                   rotations):
            angle = (-t * log - g) % TWO_PI  # as _recheck computes it
            assert angle < eps or TWO_PI - angle < eps
            u = c - i * s
            assert u - math.floor(u) < w
            assert (o + i * a) & _GRID_MASK < wide


def pinned_outcomes(backend):
    """One backend on a fixed seeded set of problems: every field of each
    solution, or the text, steps, best time and residuals of its budget error.

    Targets range over several turns, some canonicalize to exactly 2*pi, and
    a third of the budgets are too small for any solution."""
    rng = np.random.default_rng(4)
    for _ in range(600):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, d + 1))
        eps = 2.0 ** -int(rng.integers(1, 8))
        t_min = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(0, 6))
        targets = tuple(float(g) for g in rng.uniform(-20, 20, size=k))
        if rng.random() < 0.1:
            targets = (-1e-300,) + targets[1:]
        budget = int(rng.choice([40, 3000, 1 << 16]))
        problem = KroneckerProblem(PrimeBasis(d), k, targets, eps, t_min)
        try:
            s = backend(problem, budget)
            yield (s.t, s.residuals, s.q, s.steps, s.method)
        except BudgetExhaustedError as exc:
            yield (str(exc), exc.steps, exc.best_t, exc.best_residuals)


class TestSolutionPin:
    # SHA-256 of the reprs of pinned_outcomes(backend), one per line.  The
    # lattice digest is the one the numpy set-up and accept path produced:
    # the scalar paths must keep every bit.  The scan digest is that of the
    # chunked reference scan, whose budget errors report the best of every
    # candidate.
    @pytest.mark.parametrize("backend, digest, errors", [
        pytest.param(lattice_solve,
                     "0c98b7c6617c3187fa425a96d5968bf2050840e165768886496d7ee5dc83375c",
                     90, id="lattice"),
        pytest.param(scan_solve,
                     "423c5a5cfe3702bc5fe5c0d71539bae2b7dc2a3dfc4da9145b7f83343abed89b",
                     100, id="scan"),
    ])
    def test_solutions_bit_identical(self, backend, digest, errors):
        outcomes = list(pinned_outcomes(backend))
        assert sum(isinstance(o[0], str) for o in outcomes) >= errors
        text = "\n".join(map(repr, outcomes))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def one_pass_scan(problem, budget):
    """Oracle for the reference scan: every candidate ``t_min + (i + 1) *
    delta``, ``i < budget``, in one numpy array.  The first above ``t_min``
    whose residuals are all below eps, as ``(t, residuals, q, steps,
    method)``, or the ``(steps, best_t, best_residuals)`` of the budget error,
    ``best_t`` the argmin of the worst residual over every candidate."""
    basis, k = problem.basis, problem.k
    delta = problem.eps / (2.0 * float(basis.logs[k - 1]))
    times = problem.t_min + (np.arange(budget, dtype=np.float64) + 1.0) * delta
    res = residuals(basis, k, times, problem.targets)
    passing = np.flatnonzero(np.all(res < problem.eps, axis=-1) & (times > problem.t_min))
    if passing.size:
        i = int(passing[0])
        t = float(times[i])
        return t, tuple(float(r) for r in res[i]), implied_integers(problem, t), i + 1, "scan"
    best_t = float(times[np.argmin(res.max(axis=-1))])
    return budget, best_t, tuple(residuals(basis, k, best_t, problem.targets).tolist())


def scan_outcome(problem, budget):
    """:func:`scan_solve`'s answer in the form of :func:`one_pass_scan`."""
    try:
        s = scan_solve(problem, budget)
        return s.t, s.residuals, s.q, s.steps, s.method
    except BudgetExhaustedError as exc:
        return exc.steps, exc.best_t, exc.best_residuals


# Budgets around the scan's chunk sizes (256 doubling to 2^16) and the
# indices where its chunks end (256, 768, ..., 65280, 130816).
CHUNK_EDGES = [1, 2, 255, 256, 257, 511, 512, 513, 767, 768, 769, 1791, 1792, 1793,
               (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 65279, 65280, 65281, 130815,
               130816, 130817]


def planted(d, k, eps, t_min, index):
    """A problem whose targets are the flow angles of the scan's candidate
    ``index``, so that the scan answers at or before it."""
    basis = PrimeBasis(d)
    t = t_min + (index + 1.0) * (eps / (2.0 * float(basis.logs[k - 1])))
    return KroneckerProblem(basis, k, flow_angles(basis, t)[:k].tolist(), eps, t_min)


@st.composite
def scan_cases(draw):
    """``(problem, budget, plant)``: random targets (``plant`` is ``None``),
    or targets planted on a candidate, often one of the last."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, d))
    eps = 2.0 ** -draw(st.integers(1, 8))
    t_min = draw(st.just(0.0) | st.floats(0.0, 1e6))
    budget = draw(st.sampled_from(CHUNK_EDGES) | st.integers(1, 4000))
    plant = draw(st.none() | st.integers(0, budget - 1)
                 | st.integers(max(budget - 4, 0), budget - 1))
    if plant is not None:
        return planted(d, k, eps, t_min, plant), budget, plant
    targets = draw(st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k))
    return KroneckerProblem(PrimeBasis(d), k, targets, eps, t_min), budget, plant


class TestReferenceScan:
    @given(scan_cases())
    # exhausted in two, three and ten chunks, the last of one candidate each
    @example((KroneckerProblem(PrimeBasis(3), 3, (1.0, 2.0, 3.0), 2.0 ** -6), 257, None))
    @example((KroneckerProblem(PrimeBasis(4), 3, (1.0, 2.0, 3.0), 2.0 ** -7, 5e5), 769,
              None))
    @example((KroneckerProblem(PrimeBasis(4), 4, (1.0, 2.0, 3.0, 4.0), 2.0 ** -8, 1e6),
              130817, None))
    # answered at the first candidate of the second, third and tenth chunk
    @example((planted(4, 4, 2.0 ** -8, 10.0, 257), 257, 257))
    @example((planted(4, 4, 2.0 ** -8, 0.0, 769), 1000, 769))
    @example((planted(4, 4, 2.0 ** -8, 1e6, 130817), 130817, 130817))
    @settings(max_examples=150, deadline=None)
    def test_matches_one_pass_over_the_budget(self, case):
        problem, budget, plant = case
        expected = one_pass_scan(problem, budget)
        assert scan_outcome(problem, budget) == expected
        if plant is not None:
            assert expected[3] <= plant + 1

    def test_shares_no_code_with_the_walk(self, cold_caches, monkeypatch):
        # With the walk's functions refusing to run, the scan solves and
        # exhausts as before; a lattice solve of the same problems reaches
        # them.
        rng = np.random.default_rng(75)
        cases = [(seeded_problem(rng, k, 2.0 ** -depth), budget)
                 for k, depth in ((1, 3), (2, 3), (3, 3), (3, 5), (4, 2))
                 for budget in (50, 10**8)]
        before = [scan_outcome(problem, budget) for problem, budget in cases]
        assert {len(o) for o in before} == {3, 5}

        def refuse(*args):
            raise AssertionError("the scan reached the lattice walk")

        for name in ("_rotation_hits", "_joint_hits", "_rescan", "_on_grid", "_Tables",
                     "_tables", "LatticeSearch", "_recheck"):
            monkeypatch.setattr(kronecker, name, refuse)
        assert [scan_outcome(problem, budget) for problem, budget in cases] == before
        with pytest.raises(AssertionError, match="lattice walk"):
            lattice_solve(cases[2][0])


class TestScalarAcceptPath:
    @given(st.floats(0.0, 1e7),
           st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=4))
    @example(0.0, [math.pi])  # implied integer rint(-0.5): a tie
    @example(9.064720283654388, [math.pi])  # rint(-1.5) = -2: half to even, not up
    @example(0.0, [-1e-300])  # canonical target exactly 2*pi
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_forms(self, t, targets):
        basis, k = PrimeBasis(4), len(targets)
        problem = KroneckerProblem(basis, k, targets, 0.1)
        search = LatticeSearch(problem, 1)
        solution = _solution(problem, t, 1, "lattice")
        vector = residuals(basis, k, t, problem.targets).tolist()
        assert [r.hex() for r in solution.residuals] == [r.hex() for r in vector]
        assert solution.q == implied_integers(problem, t)
        # the recheck passes when every residual is below eps, and only then
        for eps in (0.1, *vector):
            assert _recheck(search, t, eps) == all(r < eps for r in vector)
        assert _recheck(search, t, math.inf)

    def test_lattice_solutions_carry_the_numpy_residuals(self):
        # the walk accepts by _recheck's scalar residuals; the record it
        # returns holds those of residuals(), which agree bit for bit
        rng = np.random.default_rng(61)
        for k, depth in ((1, 3), (2, 3), (3, 3), (3, 5), (4, 2)):
            problem = seeded_problem(rng, k, 2.0 ** -depth)
            solution = lattice_solve(problem)
            vector = residuals(problem.basis, k, solution.t, problem.targets)
            assert [r.hex() for r in solution.residuals] == [r.hex() for r in vector]
            assert max(solution.residuals) < problem.eps
            assert solution.q == implied_integers(problem, solution.t)

    def test_interleaved_solves_match_solves_alone(self):
        # The walks' tables are cached by their grid steps and widths;
        # solving problems that differ in basis, k, targets, eps and t_min
        # in turn must give what each gives with every cache empty.
        rng = np.random.default_rng(8)
        problems = []
        for d in (1, 2, 3, 4):
            for k in range(1, d + 1):
                targets = tuple(rng.uniform(0, TWO_PI, size=k))
                for eps in (2.0 ** -2, 2.0 ** -4):
                    for t_min in (0.0, float(rng.uniform(1, 1e4))):
                        problems.append((PrimeBasis(d), k, targets, eps, t_min))
        cases = [(p, b) for p in problems for b in (lattice_solve, scan_solve)]

        def outcome(problem, backend):
            try:
                return backend(KroneckerProblem(*problem), 1 << 14)
            except BudgetExhaustedError as exc:
                return str(exc)

        alone = []
        for problem, backend in cases:
            clear_kronecker_caches()
            alone.append(outcome(problem, backend))
        order = rng.permutation(len(cases)).tolist() * 2
        for i in order:
            assert outcome(*cases[i]) == alone[i]


def first_window_then_filter(tests, budget):
    """Reference for the joint-gap walk: the first window's hits alone, then
    the other widened windows checked exactly on the same 2^-64 grid."""
    rotations = grid_rotations(tests, budget)
    return [i for i in walk(tests[:1], budget)
            if all((o + i * a) & _GRID_MASK < w for o, a, w in rotations[1:])]


def inside_every_window(tests, budget, index):
    return all((o + index * a) & _GRID_MASK < w
               for o, a, w in grid_rotations(tests, budget))


def clear_kronecker_caches():
    """Empty the kronecker module's one cache, the walks' tables, after
    checking that it is the only ``lru_cache`` there."""
    caches = [f for f in vars(kronecker).values() if hasattr(f, "cache_clear")]
    assert caches == [_tables]
    _tables.cache_clear()


@pytest.fixture
def cold_caches():
    """Every kronecker cache empty, before and after the test."""
    clear_kronecker_caches()
    yield
    clear_kronecker_caches()


def seeded_problem(rng, k, eps):
    targets = tuple(float(g) for g in rng.uniform(0, TWO_PI, size=k))
    t_min = float(10.0 ** rng.uniform(0, 5))
    return KroneckerProblem(PrimeBasis(k), k, targets, eps, t_min)


def fields(solution):
    return solution.t, solution.residuals, solution.q, solution.steps


def call_fields(search, t_min):
    """The fields of :func:`fields` for one call of ``search``."""
    before = search.steps
    t = search(t_min)
    return fields(_solution(search.problem, t, search.steps - before, "lattice"))


def count_calls(monkeypatch, *names):
    """Count the calls of the kronecker functions ``names`` in one list
    that the test may clear."""
    calls = []

    def counted(real):
        def call(*args):
            calls.append(None)
            return real(*args)
        return call

    for name in names:
        monkeypatch.setattr(kronecker, name, counted(getattr(kronecker, name)))
    return calls


def record_searches(monkeypatch):
    """Make the builders' searches record themselves in ``searches``, and in
    call order what each call asked in ``problems``, as ``(basis, k,
    targets, eps, t_min, budget)``, and the :class:`KroneckerSolution` of
    what it found in ``solutions``; returns the three lists."""
    searches, problems, solutions = [], [], []

    class Recording(LatticeSearch):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

        def __call__(self, t_min):
            before = self.steps
            t = super().__call__(t_min)
            p = self.problem
            problems.append((p.basis, p.k, p.targets, p.eps, t_min, self.budget))
            solutions.append(_solution(p, t, self.steps - before, "lattice"))
            return t

    monkeypatch.setattr(measures, "LatticeSearch", Recording)
    return searches, problems, solutions


def build_solutions(mu, levels, growth, monkeypatch):
    """``(problems, solutions)`` of every call of a point-mass build's
    searches (see :func:`record_searches`)."""
    _, problems, solutions = record_searches(monkeypatch)
    build_point_mass_lambda(mu, levels, growth)
    monkeypatch.undo()
    return problems, solutions


def per_atom_solves(solutions):
    """A stand-in for ``measures.atom_search`` whose searches solve a new
    public :class:`KroneckerProblem` at every call, as builds once did atom
    by atom, and append each solution to ``solutions``."""
    def atom_search(basis, depth, omega, budget):
        active = min(depth, basis.dimension)

        def search(t_min):
            problem = KroneckerProblem(basis, active, omega.angles[:active],
                                       2.0 ** -depth, t_min)
            solutions.append(solve(problem, budget))
            return solutions[-1].t

        return search

    return atom_search


def cold_solve(basis, k, targets, eps, t_min, budget):
    clear_kronecker_caches()
    return solve(KroneckerProblem(basis, k, targets, eps, t_min), budget)


THREE_POINTS = TorusPointMassMeasure([((0.9, 2.2, 4.1), 0.3), ((3.3, 0.4, 5.7), 0.3),
                                      ((1.5, 5.0, 2.5), 0.4)])


class TestJointGaps:
    BUDGET = 1 << 20

    @pytest.mark.parametrize("k", [3, 4])
    def test_joint_walk_matches_first_window_walk(self, k, cold_caches):
        # Each problem, three per depth, is rebuilt with t_min at its fourth
        # joint hit (or its last, when it has fewer), so that its first joint
        # hit sits below 0: over 2^20 candidates the joint-gap steps from
        # there step over the joint hits below 0 and visit exactly the first
        # window's hits that lie in every other widened window.
        rng = np.random.default_rng(60 + k)
        total, walked = 0, 0
        for depth in list(range(3, 10)) * 3:
            problem = seeded_problem(rng, k, 2.0 ** -depth)
            early, q0 = search_at(problem, self.BUDGET)
            hits = first_window_then_filter(early.windows(q0)[0], self.BUDGET)
            if not hits:
                continue
            walked += 1
            last = hits[:4][-1]
            later = KroneckerProblem(problem.basis, k, problem.targets, problem.eps,
                                     early.time_of(q0, last))
            search, later_q0 = search_at(later, self.BUDGET)
            tests = search.windows(later_q0)[0]
            expected = first_window_then_filter(tests, self.BUDGET)
            start = hits[0] - last - 1
            assert inside_every_window(tests, self.BUDGET, start)
            assert walk_from(tests, self.BUDGET, start) == expected
            total += len(expected)
        assert walked >= 4
        assert total >= {3: 1000, 4: 50}[k]

    def test_walk_from_a_joint_hit_below_zero(self, cold_caches):
        # A joint hit of an earlier problem with the same target, below the
        # later problem's first candidate and inside its windows, starts the
        # walk; the indices yielded are those of a walk from 0.
        rng = np.random.default_rng(71)
        budget = 1 << 18
        used = 0
        for depth in (3, 4, 5):
            early = seeded_problem(rng, 3, 2.0 ** -depth)
            search, q0 = search_at(early, budget)
            hits = list(walk(search.windows(q0)[0], budget))
            assert len(hits) >= 4
            for h in hits[: len(hits) // 2: max(1, len(hits) // 8)]:
                later = KroneckerProblem(early.basis, 3, early.targets, early.eps,
                                         search.time_of(q0, h + 3))
                later_search, later_q0 = search_at(later, budget)
                tests = later_search.windows(later_q0)[0]
                start = q0 + h - later_q0
                assert start < 0
                if inside_every_window(tests, budget, start):
                    used += 1
                    assert walk_from(tests, budget, start) == \
                        first_window_then_filter(tests, budget)
        assert used >= 6

    @pytest.mark.parametrize("joint_span", [1e-9, 0.5])
    def test_fallback_when_no_gap_lands(self, joint_span, monkeypatch, cold_caches):
        # A tiny span leaves gaps that do not reach the next joint hit (or no
        # gaps at all), so the walk goes back to the first window's hits.
        monkeypatch.setattr(kronecker, "_JOINT_SPAN", joint_span)
        rng = np.random.default_rng(73)
        budget = 1 << 18
        for k, depth in ((3, 3), (3, 4), (4, 3)):
            problem = seeded_problem(rng, k, 2.0 ** -depth)
            search, q0 = search_at(problem, budget)
            tests = search.windows(q0)[0]
            expected = first_window_then_filter(tests, budget)
            assert len(expected) >= 2
            assert list(walk(tests, budget)) == expected
            # from the first hit, at -1 of a shifted problem
            later = KroneckerProblem(problem.basis, k, problem.targets, problem.eps,
                                     search.time_of(q0, expected[0]))
            later_search, later_q0 = search_at(later, budget)
            tests, _, tables = later_search.windows(later_q0)
            hits = first_window_then_filter(tests, budget)
            assert inside_every_window(tests, budget, -1)
            assert walk_from(tests, budget, -1) == hits
            # some consecutive joint hits lie further apart than the span
            assert max(b - a for a, b in zip(hits, hits[1:])) > tables.span

    def test_joint_walk_on_window_edges(self):
        # Advances and windows in whole multiples of 2^64 / 2^m put
        # positions exactly on window edges, 0 inside and the width outside;
        # from a joint hit below low the walk yields exactly the joint hits
        # in [low, stop) that a brute force over the grid finds.
        rng = random.Random(77)
        stop, checked = 4000, 0
        for trial in range(300):
            m = rng.randint(3, 10)
            unit = _GRID >> m
            rotations = []
            for r in range(rng.choice([2, 3])):
                advance = rng.randrange(1, 1 << m) * unit
                if r == 0 and trial % 2:
                    advance = rng.getrandbits(64) | 1
                rotations.append((rng.randrange(1 << m) * unit, advance,
                                  rng.randint(1, 1 << (m - 1)) * unit))
            hits = sorted(set.intersection(*(set(grid_hits(o, a, w, 0, stop))
                                              for o, a, w in rotations)))
            if len(hits) < 2:
                continue
            start, low = hits[0], rng.randint(hits[0] + 1, hits[-1])
            at = [(o + start * a) & _GRID_MASK for o, a, _ in rotations]
            assert list(_joint_hits(rotations, start, stop, tables_of(rotations), low,
                                    at)) == [h for h in hits if h >= low]
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("d, depth", [(2, 4), (2, 7), (3, 5), (4, 3)])
    def test_chained_search_calls_equal_cold_solves(self, d, depth, cold_caches,
                                                    monkeypatch):
        # Three targets in turn, each call starting one scan step after the
        # previous solution, as the builders do: the same reprs, and so the
        # same t, residuals, q and steps, whether each target's calls go to
        # one search, which continues its cursor, or each is a solve of a
        # new problem.  Only each search's first call walks from 0: with one
        # filtered window (d = 2) the others make no rescan.
        rng = np.random.default_rng(74 + d)
        basis, k, eps = PrimeBasis(d), min(d, depth), 2.0 ** -depth
        targets = [tuple(float(g) for g in rng.uniform(0, TWO_PI, size=k))
                   for _ in range(3)]
        step = scan_step(basis, depth)
        rescans = count_calls(monkeypatch, "_rescan")
        searches = [LatticeSearch(KroneckerProblem(basis, k, omega, eps), 10**8)
                    for omega in targets]

        def chain(searched):
            out, t = [], 0.0
            rescans.clear()
            for _ in range(12):
                for omega, search in zip(targets, searches):
                    if searched:
                        t, *rest = call_fields(search, t)
                        out.append(repr(KroneckerSolution(t, *rest, "lattice")))
                    else:
                        sol = solve(KroneckerProblem(basis, k, omega, eps, t))
                        out.append(repr(sol))
                        t = sol.t
                    t += step
            return out, len(rescans)

        warm, warm_rescans = chain(True)
        assert all(search.q0 is not None for search in searches)
        cold, cold_rescans = chain(False)
        assert warm == cold
        if d == 2:
            assert warm_rescans == 3 and cold_rescans >= 36


@st.composite
def call_sequences(draw):
    """A problem with ``d <= 4`` and eps from 2^-1 to 2^-8, at most about
    2e5 lattice candidates per solution, a budget, a first ``t_min`` and
    moves of ``t_min`` relative to the last solution: ``"step"`` up to three
    mean return times to the box after it, ``"same"`` the solution itself,
    ``"at"`` just below it, ``"next"`` just below the solution after it,
    ``"jump"`` 9 to 40 mean return times after it (past the span), and
    ``"below"`` anywhere under it."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(min(2, d), d))
    depth = draw(st.integers(1, 8).filter(lambda e: (math.pi * 2 ** e) ** (k - 1) < 2e5))
    targets = tuple(draw(st.floats(0, TWO_PI)) for _ in range(k))
    budget = draw(st.sampled_from([1, 40, 300, 5000, 10**8, 10**8, 10**8]))
    moves = st.sampled_from(["step", "step", "step", "same", "at", "next", "jump",
                             "below"])
    return (d, k, depth, targets, budget, draw(st.floats(0, 1e4)),
            draw(st.lists(st.tuples(moves, st.floats(0, 1)), min_size=1, max_size=30)))


class TestCursor:
    @pytest.mark.parametrize("mu, levels, growth", [
        pytest.param(THREE_POINTS, 4, GrowthSchedule.default(), id="d3-K4"),
        pytest.param(TorusPointMassMeasure([((0.9, 2.2), 0.4), ((3.3, 0.4), 0.6)]), 5,
                     GrowthSchedule.constant(3), id="d2-K5"),
    ])
    def test_build_solutions_equal_cold_solutions(self, mu, levels, growth, monkeypatch,
                                                  cold_caches):
        # Every call of a build's searches but the first of each level and
        # source continues its search's cursor; each solution equals that of
        # the same problem solved by a new search.
        grids = count_calls(monkeypatch, "_on_grid")
        problems, warm = build_solutions(mu, levels, growth, monkeypatch)
        seeded = len(grids)
        cold = [cold_solve(*problem) for problem in problems]
        assert [fields(s) for s in warm] == [fields(s) for s in cold]
        pairs = {(k, eps, targets) for _, k, targets, eps, _, _ in problems if k > 1}
        assert seeded == sum(k - 1 for k, _, _ in pairs)
        assert len(problems) > 40 * len(pairs)

    def test_continuing_solves_set_up_no_windows(self, monkeypatch, cold_caches):
        # The level-4 solves of a K=4 build, replayed in order through one
        # new search per source: the first call of each search sets up its
        # windows (_on_grid per filtered coordinate), walks from its first
        # candidate and starts the live walk from its solution, and every
        # later call resumes that walk: it sets up no window and starts no
        # walk.  A joint-gap table is found once, by a walk of its own.
        problems, solutions = build_solutions(THREE_POINTS, 4, GrowthSchedule.default(),
                                              monkeypatch)
        level4 = [(p, s) for p, s in zip(problems, solutions) if p[3] == 2.0 ** -4]
        assert len(level4) > 1000
        clear_kronecker_caches()
        grids = count_calls(monkeypatch, "_on_grid")
        walks = count_calls(monkeypatch, "_rotation_hits", "_joint_hits")
        gap_tables = count_calls(monkeypatch, "_joint_gaps")
        searches, started = {}, 0
        for (basis, k, targets, eps, t_min, budget), expected in level4:
            grids.clear()
            walks.clear()
            gap_tables.clear()
            fresh = targets not in searches
            if fresh:
                searches[targets] = LatticeSearch(KroneckerProblem(basis, k, targets, eps),
                                                  budget)
            assert call_fields(searches[targets], t_min) == fields(expected)
            assert len(grids) == (k - 1 if fresh else 0)
            assert len(walks) - len(gap_tables) == (2 if fresh else 0)
            started += len(walks) - len(gap_tables)
        assert len(searches) == len(THREE_POINTS)
        assert started == 2 * len(searches)

    def test_two_searches_of_one_problem_keep_their_own_cursors(self, monkeypatch,
                                                                 cold_caches):
        # Two searches of one problem, called in turn from lower bounds far
        # apart, each set up their windows once and return what each
        # returns called alone.
        problem = KroneckerProblem(PrimeBasis(3), 3, (1.0, 2.0, 3.0), 2.0 ** -4)
        step = scan_step(problem.basis, 4)

        def chain(search, t):
            for _ in range(30):
                found = call_fields(search, t)
                yield found
                t = found[0] + step

        starts = (0.0, 1e6)
        alone = [list(chain(LatticeSearch(problem, 10**8), t)) for t in starts]
        grids = count_calls(monkeypatch, "_on_grid")
        # zip calls the two chains' searches alternately
        together = zip(*[chain(LatticeSearch(problem, 10**8), t) for t in starts])
        assert [list(found) for found in zip(*together)] == alone
        assert len(grids) == 2 * 2

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("case", ["below", "at", "far", "range"])
    def test_solve_off_the_cursor_walks_as_a_cold_solve(self, k, case, monkeypatch,
                                                        cold_caches):
        # A call near t_min = 1e4 leaves the search's cursor at its
        # solution.  A call below it (t_min = 10), at it (t_min just below
        # the solution, which is then its first candidate), millions of
        # candidates above it (t_min = 1e7), or starting more than the
        # budget above where the cursor's windows start, walks from its
        # first candidate with windows of its own, as a new search does,
        # instead of stepping over every hit in between or walking windows
        # made for other calls: counted by the windows set up and by the
        # passes over the jump and joint-gap tables, one per hit walked.
        walked = []

        class Counted(tuple):
            def __iter__(self):
                walked.append(None)
                return super().__iter__()

        first_jumps, joint_gaps = kronecker._first_jumps, kronecker._joint_gaps
        monkeypatch.setattr(kronecker, "_first_jumps",
                            lambda *args: Counted(first_jumps(*args)))
        monkeypatch.setattr(kronecker, "_joint_gaps",
                            lambda *args: Counted(joint_gaps(*args)))
        grids = count_calls(monkeypatch, "_on_grid")
        problem = KroneckerProblem(PrimeBasis(k), k, (1.0, 2.0, 3.0)[:k], 2.0 ** -4)
        budget = {2: 200, 3: 15000}[k] if case == "range" else 10**8
        search = LatticeSearch(problem, budget)
        t = search(1e4)
        t_min = {
            "below": 10.0, "at": math.nextafter(t, 0.0), "far": 1e7,
            # the first candidate one past the cursor's budget
            "range": search.time_of(search.q0, budget),
        }[case]
        low = search.first_integer(t_min) - search.q0
        # each case fails one condition of continuing the cursor, and only one
        assert [low <= search.i, low > search.i + search.span, low > budget] == \
            [case in c for c in (("below", "at"), "far", "range")]
        assert (low == search.i) == (case == "at")

        def off_call(search):
            walked.clear()
            grids.clear()
            return call_fields(search, t_min), len(walked), len(grids)

        warm = off_call(search)
        clear_kronecker_caches()
        cold = off_call(LatticeSearch(problem, budget))
        assert warm == cold
        assert warm[1] <= 64 and warm[2] == k - 1

    @given(call_sequences())
    @example((3, 3, 4, (1.0, 2.0, 3.0), 10**8, 10.0,
              [("step", 0.1)] * 8 + [("below", 0.5), ("same", 0), ("jump", 0.5),
                                     ("at", 0), ("next", 0), ("step", 0.9)] * 3))
    @example((2, 2, 6, (0.5, 5.0), 300, 0.0,
              [("step", 0.2), ("step", 0.9), ("same", 0), ("step", 0.6)] * 6))
    @example((4, 4, 3, (0.3, 1.0, 4.0, 6.0), 5000, 1e3,
              [("step", 0.5)] * 10 + [("jump", 0.0), ("same", 0.0)] * 3))
    @settings(max_examples=150, deadline=None)
    def test_live_walk_answers_as_fresh_searches(self, case):
        # One search called with a sequence of lower bounds returns, call
        # for call, the time and steps of a new search called once, or
        # raises what it raises; the counters sum the same.  A call that
        # exhausts its budget leaves no live walk, so the next call is a
        # fresh one.  "next" calls one float below the next solution, which
        # the call must return: first_integer takes the lattice time just
        # above t_min, as a new search does.
        d, k, depth, targets, budget, last, moves = case
        problem = KroneckerProblem(PrimeBasis(d), k, targets, 2.0 ** -depth)
        spacing = TWO_PI / float(problem.basis.logs[k - 1])
        mean = spacing * (math.pi * 2 ** depth) ** (k - 1)
        search, calls, steps = LatticeSearch(problem, budget), 0, 0

        def outcome(search, t_min):
            before = search.steps
            try:
                return search(t_min), search.steps - before
            except BudgetExhaustedError as exc:
                return type(exc), str(exc)

        for move, u in moves:
            if move == "next":
                t_min = math.nextafter(LatticeSearch(problem, 10**8)(last), 0.0)
            else:
                t_min = {"step": last + 3 * u * mean, "same": last,
                         "at": math.nextafter(last, 0.0),
                         "jump": last + (9 + 31 * u) * mean, "below": u * last}[move]
            fresh = LatticeSearch(problem, budget)
            expected = outcome(fresh, t_min)
            assert outcome(search, t_min) == expected
            calls, steps = calls + fresh.calls, steps + fresh.steps
            if expected[0] is BudgetExhaustedError:
                assert search.walk is None
            else:
                last = expected[0]
        assert (search.calls, search.steps) == (calls, steps)

    def test_windows_wider_than_half_the_circle_leave_no_cursor(self, cold_caches):
        # The joint walk's signed test needs windows no wider than half the
        # circle; at eps = 3 every call walks fresh, and the same as cold.
        basis, targets, t = PrimeBasis(3), (1.0, 2.0, 3.0), 0.0
        search = LatticeSearch(KroneckerProblem(basis, 3, targets, 3.0), 10**8)
        for _ in range(20):
            found = call_fields(search, t)
            assert search.q0 is None
            assert found == fields(cold_solve(basis, 3, targets, 3.0, t, 10**8))
            t = found[0]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cursor_windows_contain_the_own_windows(self, k, cold_caches):
        # The windows a fresh call leaves for its cursor contain the own
        # widened window of every call with the same budget whose first
        # candidate lies D in [1, budget] above.  Both grids step by the
        # same advance, so candidate i of that call sits a fixed distance
        # from cursor index D + i, and containment is one exact test of the
        # window edges for every i at once.
        rng = np.random.default_rng(90 + k)
        for trial in range(40):
            t_min = float(10.0 ** rng.uniform(0, 11 if trial % 2 else 3))
            budget = int(rng.choice([1 << 12, 10**6, 10**8]))
            problem = KroneckerProblem(PrimeBasis(k), k, tuple(rng.uniform(0, TWO_PI, k)),
                                       2.0 ** -int(rng.integers(1, 8)), t_min)
            search, q0 = search_at(problem, budget)
            cursor = search.windows(q0, budget)[1]
            for shift in (1, int(rng.integers(2, budget)), budget):
                later = search.first_integer(search.time_of(q0, shift - 1))
                assert later == q0 + shift
                for (o, a, w), (oc, ac, wc) in zip(search.windows(later)[1], cursor):
                    assert a == ac
                    assert (oc + shift * a - o) % _GRID + w <= wc, (trial, shift)

    def test_first_integer_is_the_first_above_t_min(self):
        # (t_min * log + theta) / 2*pi rounds; one or two floats below a
        # lattice time it used to land on that time's integer, and q0 went
        # one past it: this t_min returned 3406.8237554638577.
        problem = KroneckerProblem(PrimeBasis(2), 2, (1.0, 2.0), 2.0 ** -3,
                                   3298.1589225034127)
        assert lattice_solve(problem).t == 3298.158922503413
        # t_min at, and one or two floats either side of, random lattice
        # times: q0's time lies above t_min, and the time before it does not
        rng = random.Random(0)
        for _ in range(2000):
            k = rng.randint(1, 4)
            search = LatticeSearch(KroneckerProblem(
                PrimeBasis(k), k, [rng.uniform(0.0, TWO_PI) for _ in range(k)],
                2.0 ** -rng.randint(1, 8)), 1000)
            t = search.time_of(rng.randint(1, 10 ** rng.randint(1, 12)), 0)
            below, above = math.nextafter(t, 0.0), math.nextafter(t, math.inf)
            for t_min in (t, below, math.nextafter(below, 0.0), above,
                          math.nextafter(above, math.inf)):
                q0 = search.first_integer(t_min)
                assert search.time_of(q0, 0) > t_min >= search.time_of(q0, -1), t_min


def run_build(name, budget=10**8):
    """One of three builds, each placing its atoms in call order: a d=2 and
    a d=3 point-mass build, and a nested build; with its depth margin
    patched to 0 (:func:`no_depth_margin`) the nested build's first window
    takes 13 rounds and so escalates its depth three times."""
    if name == "d2":
        mu = TorusPointMassMeasure([((0.9, 2.2), 0.4), ((3.3, 0.4), 0.6)])
        return build_point_mass_lambda(mu, 5, GrowthSchedule.constant(3), budget), None
    if name == "d3":
        return build_point_mass_lambda(THREE_POINTS, 4, GrowthSchedule.default(),
                                       budget), None
    rng = np.random.default_rng(0)
    mus = [TorusPointMassMeasure([(tuple(rng.uniform(0, 6.28, 2)), 0.5)
                                  for _ in range(2)]) for _ in range(2)]
    basis = PrimeBasis(2)
    polys = [TorusPolynomial({(): 1.0, (1,): 1.0, (0, 1): 1.0}, basis),
             TorusPolynomial({(1, 1): 0.5, (0, 1): 1.0}, basis)]
    return build_nested_lambda(NestedConstructionPlan(mus, polys), 3,
                               GrowthSchedule.constant(2), budget)


@pytest.fixture
def no_depth_margin(monkeypatch):
    monkeypatch.setattr(nested, "_depth_margin", lambda polys, dimension: 0)


BUILDS = ["d2", "d3", "nested"]


@pytest.mark.usefixtures("no_depth_margin", "cold_caches")
class TestBuildSearches:
    @pytest.mark.parametrize("build", BUILDS)
    def test_atom_times_equal_a_chain_of_solves(self, build, monkeypatch):
        # A build holds one search per level (per depth in the nested
        # build) and source, and calls it per atom; its atoms are, bit for
        # bit, those of the same build solving a new public problem per
        # atom, each from the time the last one left.
        lam, plan = run_build(build)
        clear_kronecker_caches()
        solutions = []
        monkeypatch.setattr(measures, "atom_search", per_atom_solves(solutions))
        monkeypatch.setattr(nested, "atom_search", per_atom_solves(solutions))
        chained, chained_plan = run_build(build)
        assert lam.t.tobytes() == chained.t.tobytes()
        assert lam == chained and plan == chained_plan
        assert [s.t for s in solutions] == lam.t.tolist()
        if build == "nested":
            assert int(lam.rep.max()) >= 4  # round 4 of a window escalates its depth

    @pytest.mark.parametrize("build", BUILDS)
    def test_search_counters_equal_the_chain(self, build):
        # The searches' calls and summed steps, over a build, are the count
        # and the summed steps of the per-atom solves.
        with pytest.MonkeyPatch.context() as patch:
            searches, _, solutions = record_searches(patch)
            lam, _ = run_build(build)
        chain = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "atom_search", per_atom_solves(chain))
            patch.setattr(nested, "atom_search", per_atom_solves(chain))
            run_build(build)
        assert sum(s.calls for s in searches) == len(chain) == len(lam)
        assert sum(s.steps for s in searches) == sum(s.steps for s in chain)
        assert [s.steps for s in solutions] == [s.steps for s in chain]
        if build != "nested":
            assert len(searches) == lam.levels * len(set(lam.source.tolist()))


@pytest.mark.usefixtures("cold_caches")
class TestBuildFailures:
    @pytest.mark.parametrize("build", BUILDS)
    def test_exhausted_budget_names_the_atom(self, build):
        # With a budget that every atom before some atom of level 2 or later
        # fits, and that atom does not, the build stops there with a
        # ConstructionError naming its level, source and repetition and
        # caused by the solver's BudgetExhaustedError.
        with pytest.MonkeyPatch.context() as patch:
            _, _, solutions = record_searches(patch)
            lam, _ = run_build(build)
        steps = np.array([s.steps for s in solutions])
        first = next(i for i in range(1, len(steps))
                     if lam.level[i] >= 2 and steps[i] > steps[:i].max())
        budget = int(steps[:first].max())
        with pytest.raises(ConstructionError, match="solver failed") as info:
            run_build(build, budget)
        error = info.value
        assert (error.level, error.source, error.repetition) == \
            (lam.level[first], lam.source[first], lam.rep[first])
        assert isinstance(error.__cause__, BudgetExhaustedError)
        assert error.__cause__.steps == budget

    @pytest.mark.parametrize("build", ["d3", "nested"])
    def test_unresolvable_t_min_is_not_wrapped(self, build, monkeypatch):
        # A cursor where float64 cannot resolve eps raises a DomainError, as
        # a KroneckerProblem at that t_min does, and not a ConstructionError:
        # a scan step of 1e17 puts the cursor there at the end of the first
        # repetition.  (A small budget keeps a walk there short.)
        monkeypatch.setattr(measures, "scan_step", lambda basis, depth: 1e17)
        monkeypatch.setattr(nested, "scan_step", lambda basis, depth: 1e17)
        with pytest.raises(DomainError, match="cannot resolve") as info:
            run_build(build, 10**4)
        assert info.value.__cause__ is None and info.value.__context__ is None

    def test_non_positive_budget_refused_up_front(self):
        for budget in (0, -1):
            with pytest.raises(DomainError, match="budget must be a positive integer"):
                run_build("d2", budget)
            with pytest.raises(DomainError, match="budget must be a positive integer"):
                LatticeSearch(KroneckerProblem(PrimeBasis(2), 2, (1.0, 2.0), 0.1), budget)


def grid_hits(origin, advance, wide, start, stop):
    """Brute force on the grid: every ``i`` in ``[start, stop)`` with
    ``(origin + i*advance) mod 2^64 < wide``, by numpy's wrapping uint64."""
    base = (origin + start * advance) & _GRID_MASK
    pos = np.arange(stop - start, dtype=np.uint64) * np.uint64(advance)
    pos += np.uint64(base)
    return (start + np.flatnonzero(pos < np.uint64(wide))).tolist()


class TestSingleWindowWalk:
    BUDGET = 1 << 20

    def test_walk_from_below_zero_matches_first_window_then_filter(self, cold_caches):
        # k = 2: one filtered window.  A walk from any hit below 0 of the
        # widened window, as a cursor's walk continues, steps over the hits
        # below 0 and yields those of a walk from 0.  Each problem is also
        # solved again from just below its first hit, which makes index 0 a
        # hit.
        rng = np.random.default_rng(80)
        problems = []
        for depth in (4, 6, 8):
            problem = seeded_problem(rng, 2, 2.0 ** -depth)
            early, q0 = search_at(problem, self.BUDGET)
            first = first_window_then_filter(early.windows(q0)[0][:1], self.BUDGET)[0]
            problems += [problem, KroneckerProblem(problem.basis, 2, problem.targets,
                                                   problem.eps,
                                                   early.time_of(q0, max(first - 1, 0)))]
        used, starts = 0, set()
        for problem in problems:
            search, q0 = search_at(problem, self.BUDGET)
            tests = search.windows(q0)[0][:1]
            (origin, advance, wide), = grid_rotations(tests, self.BUDGET)
            expected = first_window_then_filter(tests, self.BUDGET)
            assert expected == grid_hits(origin, advance, wide, 0, self.BUDGET)
            assert list(walk(tests, self.BUDGET)) == expected
            starts.add(expected[0])
            below = grid_hits(origin, advance, wide, -20000, 0)
            assert len(below) >= 3
            for start in (below[0], below[len(below) // 2], below[-1]):
                assert walk_from(tests, self.BUDGET, start) == expected, start
            used += len(below)
        assert used >= 40 and 0 in starts

    def test_rounded_walk_yields_the_exact_window(self):
        # The walk jumps between hits of the window rounded up to its leading
        # 6 bits and yields the hits of the exact window, from 0 or from a
        # negative start inside it, whatever the step: irrational-looking,
        # within a few grid units of p/q, or exactly p/q.
        rng = random.Random(81)
        budget = 1 << 14
        for trial in range(240):
            q = rng.randint(1, 12)
            p = rng.randrange(q)
            advance = [rng.getrandbits(64),
                       (p * _GRID // q + rng.randint(-1 << 20, 1 << 20)) % _GRID,
                       p * _GRID // q][trial % 3]
            wide = int(_GRID * 10.0 ** rng.uniform(-3.5, -0.3)) | 1
            assert _round_up(wide) > wide
            origin = rng.getrandbits(64)
            expected = grid_hits(origin, advance, wide, 0, budget)
            rotations = [(origin, advance, wide)]
            tables = tables_of(rotations)
            assert list(_rotation_hits(rotations, 0, budget, tables)) == expected
            below = grid_hits(origin, advance, wide, -2000, 0)
            if below:
                start = below[rng.randrange(len(below))]
                moved = [((origin + start * advance) & _GRID_MASK, advance, wide)]
                walked = _rotation_hits(moved, 0, budget - start, tables, -start)
                assert [i + start for i in walked] == expected
