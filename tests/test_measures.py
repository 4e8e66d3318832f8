import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytorus import (
    AtomicLineMeasure,
    CapacityError,
    DomainError,
    GrowthSchedule,
    NestedConstructionPlan,
    ParseError,
    PolytorusError,
    PrimeBasis,
    DirichletPolynomial,
    TorusPoint,
    TorusPointMassMeasure,
    TorusPolynomial,
    WindowRepresentationError,
    atoms_from_bytes,
    atoms_to_bytes,
    build_nested_lambda,
    build_point_mass_lambda,
    empty_measure,
    load_atoms,
    residuals,
    save_atoms,
    weighted_mean_square,
    window_check,
)

from polytorus import measures

from conftest import random_dirichlet, random_point_mass

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def delta_measure():
    return TorusPointMassMeasure([((0.7,), 1.0)])


@pytest.fixture(scope="module")
def delta_lambda(delta_measure):
    return build_point_mass_lambda(delta_measure, levels=4)


class TestGrowthSchedule:
    def test_parse(self):
        assert GrowthSchedule.parse("default").name == "2^k"
        assert GrowthSchedule.parse("2^k")(3) == 8
        assert GrowthSchedule.parse("const:2")(5) == 2

    def test_parse_rejects_junk(self):
        with pytest.raises(DomainError):
            GrowthSchedule.parse("fibonacci")
        for factor in (0, 2.5):
            with pytest.raises(DomainError, match=r"\[1, 2\^53\]"):
                GrowthSchedule.constant(factor)
        for text in ("const:abc", "const:2.5", "const:", "const:1e3", "const:٣"):
            with pytest.raises(DomainError, match="decimal integer"):
                GrowthSchedule.parse(text)
        with pytest.raises(DomainError, match=r"\[1, 2\^53\]"):
            GrowthSchedule.parse("const:" + "9" * 400)


    @pytest.mark.parametrize("factors", [(0,), (2.5,), (-1,), (2**53 + 1,), (2, 3), ()])
    def test_built_directly_with_a_bad_factor_refused_before_any_solve(
            self, factors, delta_measure, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search was made")

        monkeypatch.setattr(measures, "atom_search", no_search)
        with pytest.raises(PolytorusError):
            build_point_mass_lambda(delta_measure, 2, GrowthSchedule("const:x", factors))


class TestLevelPlan:
    @given(st.one_of(st.just(GrowthSchedule.default()),
                     st.integers(1, 2**53).map(GrowthSchedule.constant),
                     st.sampled_from([1, 2, 2**26, 2**53]).map(GrowthSchedule.constant)),
           st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_counts_in_exact_ints(self, growth, levels):
        reps, masses = measures._level_plan(levels, growth)
        assert all(type(x) is int for x in reps + masses)
        assert len(reps) == len(masses) == levels
        assert reps[0] == masses[0] == growth(1)
        for k in range(1, levels):
            assert reps[k] == growth(k + 1) * masses[k - 1]
            assert masses[k] == (growth(k + 1) + 1) * masses[k - 1]


class TestPointMassMeasure:
    def test_weight_sum_enforced(self):
        with pytest.raises(DomainError, match="sum to 1"):
            TorusPointMassMeasure([((0.0,), 0.5), ((1.0,), 0.4)])

    def test_positive_weights(self):
        with pytest.raises(DomainError):
            TorusPointMassMeasure([((0.0,), 1.5), ((1.0,), -0.5)])

    def test_dimension_consistency(self):
        with pytest.raises(Exception):
            TorusPointMassMeasure([((0.0,), 0.5), ((1.0, 2.0), 0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            TorusPoint((bad, 1.0))
        with pytest.raises(DomainError, match="finite"):
            TorusPointMassMeasure([((bad, 1.0), 1.0)])

    def test_nan_weight_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            TorusPointMassMeasure([((0.5, 1.0), math.nan)])


class TestPointMassConstruction:
    def test_mass_trace_single_atom(self, delta_lambda):
        assert delta_lambda.total_mass_by_level == (2.0, 10.0, 90.0, 1530.0)

    def test_mass_recursion(self, delta_lambda):
        masses = delta_lambda.total_mass_by_level
        for k in range(2, 5):
            assert masses[k - 1] == pytest.approx(
                (2**k + 1) * masses[k - 2], abs=1e-9
            )

    def test_actual_weight_sums_match_trace(self, rng):
        mu = random_point_mass(rng, d=2, n_atoms=3)
        lam = build_point_mass_lambda(mu, levels=3)
        for k in range(1, 4):
            actual = float(np.sum(lam.w[lam.level <= k]))
            assert actual == pytest.approx(lam.total_mass_by_level[k - 1], abs=1e-9)

    def test_atom_count_example(self, rng):
        # N=2, K=3, default growth: M_k = 2, 8, 80 so N * 90 atoms
        mu = random_point_mass(rng, d=2, n_atoms=2)
        lam = build_point_mass_lambda(mu, levels=3)
        assert len(lam) == 2 * (2 + 8 + 80)

    def test_level_one_coarse_residuals(self):
        # both level-1 atoms of a d=1 delta at angle 0 satisfy the 1/2 bound
        mu = TorusPointMassMeasure([((0.0,), 1.0)])
        lam = build_point_mass_lambda(mu, levels=1)
        assert len(lam) == 2
        res = residuals(PrimeBasis(1), 1, lam.t, (0.0,))
        assert np.all(res < 0.5)

    def test_residual_schedule(self, rng):
        mu = random_point_mass(rng, d=3, n_atoms=2)
        lam = build_point_mass_lambda(mu, levels=4)
        basis = PrimeBasis(3)
        for k in range(1, 5):
            active = min(k, 3)
            for j, (omega, _) in enumerate(mu.atoms, start=1):
                sel = (lam.level == k) & (lam.source == j)
                res = residuals(basis, active, lam.t[sel], omega.angles[:active])
                assert np.all(res < 2.0**-k)

    def test_ordering_and_level_nesting(self, delta_lambda):
        assert np.all(np.diff(delta_lambda.t) > 0)
        bounds = (0.0,) + delta_lambda.level_boundaries
        for k in range(1, delta_lambda.levels + 1):
            ts = delta_lambda.t[delta_lambda.level == k]
            assert np.all(ts > bounds[k - 1])
            assert np.all(ts <= bounds[k])

    def test_chord_bound(self, rng):
        # per atom: euclidean distance of flow point to target on the first
        # min(k, d) coordinates is below sqrt(min(k, d)) * 2^{-k+1}
        mu = random_point_mass(rng, d=2, n_atoms=2)
        lam = build_point_mass_lambda(mu, levels=3)
        basis = PrimeBasis(2)
        for i in range(len(lam)):
            k = int(lam.level[i])
            active = min(k, 2)
            omega = mu.points[int(lam.source[i]) - 1]
            angles = np.mod(-lam.t[i] * basis.logs[:active], TWO_PI)
            chord = np.abs(
                np.exp(1j * angles) - np.exp(1j * np.asarray(omega.angles[:active]))
            )
            assert np.linalg.norm(chord) <= math.sqrt(active) * 2.0 ** (-k + 1)

    def test_early_mass_negligibility(self, delta_lambda):
        masses = delta_lambda.total_mass_by_level
        for k in range(2, 5):
            assert masses[k - 2] / masses[k - 1] == pytest.approx(
                1.0 / (2**k + 1), abs=1e-12
            )

    def test_capacity_error_before_work(self, delta_measure):
        with pytest.raises(CapacityError):
            build_point_mass_lambda(delta_measure, levels=4, atom_cap=100)

    def test_constant_growth(self, delta_measure):
        lam = build_point_mass_lambda(
            delta_measure, levels=3, growth=GrowthSchedule.constant(2)
        )
        assert lam.total_mass_by_level == (2.0, 6.0, 18.0)
        assert lam.growth_name == "const:2"

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.sampled_from(["2^k", "const:1", "const:3"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_columns_equal_a_per_atom_listing(self, n_atoms, d, levels, growth, seed):
        mu = random_point_mass(np.random.default_rng(seed), d=d, n_atoms=n_atoms)
        growth = GrowthSchedule.parse(growth)
        lam = build_point_mass_lambda(mu, levels, growth)
        rows = []
        mass = 1
        for k in range(1, levels + 1):
            reps = growth(k) * mass
            mass = reps + (mass if k > 1 else 0)
            rows += [(k, j, m, c) for m in range(1, reps + 1)
                     for j, c in enumerate(mu.weights, start=1)]
        assert lam.level.tolist() == [k for k, _, _, _ in rows]
        assert lam.source.tolist() == [j for _, j, _, _ in rows]
        assert lam.rep.tolist() == [m for _, _, m, _ in rows]
        assert lam.w.tolist() == [c for _, _, _, c in rows]

    def test_determinism(self, rng):
        mu = random_point_mass(rng, d=2, n_atoms=2)
        a = build_point_mass_lambda(mu, levels=2)
        b = build_point_mass_lambda(mu, levels=2)
        assert a == b


@pytest.fixture(scope="module")
def window_setup():
    mu = TorusPointMassMeasure([((0.9,), 0.5), ((4.0,), 0.5)])
    lam = build_point_mass_lambda(mu, levels=4)
    basis = PrimeBasis(1)
    polys = [
        TorusPolynomial({(): 1.0, (1,): 1.0}, basis),
        TorusPolynomial({(1,): 1.0, (2,): 1.0}, basis),
    ]
    return mu, lam, polys


class TestWindowCheck:
    def test_full_support_window_passes_loose(self, window_setup):
        mu, lam, polys = window_setup
        result = window_check(lam, 0.0, lam.level_boundaries[-1], polys, mu, 1.0)
        assert result.passed

    def test_constant_poly_zero_error(self, window_setup):
        mu, lam, _ = window_setup
        one = TorusPolynomial({(): 1.0}, PrimeBasis(1))
        result = window_check(lam, 0.0, lam.level_boundaries[-1], [one], mu, 1e-9)
        assert result.passed
        assert result.worst_error < 1e-12

    def test_level_one_window_too_coarse(self):
        # at level 1 only the first coordinate is pinned, so a window of
        # level-1 atoms cannot serve a polynomial that reads coordinate 2
        mu = TorusPointMassMeasure([((0.9, 2.5), 0.5), ((4.0, 1.2), 0.5)])
        lam = build_point_mass_lambda(mu, levels=3)
        poly = TorusPolynomial({(): 1.0, (1,): 1.0, (0, 1): 1.0}, PrimeBasis(2))
        result = window_check(
            lam, 0.0, lam.level_boundaries[0], [poly], mu, 2.0**-5
        )
        assert not result.passed

    def test_empty_window(self, window_setup):
        mu, lam, polys = window_setup
        gap_lo = float(lam.t[0]) - 1e-6
        with pytest.raises(WindowRepresentationError):
            window_check(lam, gap_lo - 1e-3, gap_lo, polys, mu, 0.5)

    def test_missing_source(self, window_setup):
        mu, lam, polys = window_setup
        # a window holding exactly one atom cannot represent both sources
        lo = float(lam.t[0]) - 1e-9
        hi = float(lam.t[0])
        with pytest.raises(WindowRepresentationError, match="source"):
            window_check(lam, lo, hi, polys, mu, 0.5)

    def test_bad_bounds(self, window_setup):
        mu, lam, polys = window_setup
        with pytest.raises(DomainError):
            window_check(lam, 5.0, 5.0, polys, mu, 0.5)


def json_dumps_atoms(lam):
    """The atom stream written with one json.dumps per line."""
    lines = [json.dumps({"format": "lambda-atoms", "version": 1,
                         "growth": lam.growth_name, "levels": lam.levels})]
    for i in range(len(lam)):
        lines.append(json.dumps({
            "t": float(lam.t[i]), "w": float(lam.w[i]), "k": int(lam.level[i]),
            "j": int(lam.source[i]), "m": int(lam.rep[i]),
        }))
    if len(lam) or lam.level_boundaries:
        lines.append(json.dumps({"boundaries": list(lam.level_boundaries),
                                 "masses": list(lam.total_mass_by_level)}))
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestAtomFiles:
    def test_round_trip(self, delta_lambda, tmp_path):
        path = tmp_path / "atoms.jsonl"
        save_atoms(delta_lambda, path)
        assert load_atoms(path) == delta_lambda

    def test_round_trip_bytes_exact(self, delta_lambda):
        blob = atoms_to_bytes(delta_lambda)
        again = atoms_to_bytes(atoms_from_bytes(blob))
        assert blob == again

    @given(
        st.lists(st.floats(0.0, 1e300), unique=True, max_size=12).map(sorted),
        st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=12, max_size=12),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=36, max_size=36),
    )
    @example([0.0, 1e-300, 12.5], [5e-324, 1.7976931348623157e308, 1.0],
             [2**63 - 1] * 36)
    @settings(max_examples=200, deadline=None)
    def test_encoder_matches_json_dumps_per_line(self, t, w, ints):
        n = len(t)
        lam = AtomicLineMeasure(t, w[:n], ints[:n], ints[12:12 + n], ints[24:24 + n],
                                level_boundaries=t[-1:], total_mass_by_level=w[:1])
        assert atoms_to_bytes(lam) == json_dumps_atoms(lam)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 4097])
    def test_encoder_chunks_join_to_the_per_line_bytes(self, extra):
        n = 2 * measures._ENCODE_ATOMS + extra
        t = np.cumsum(np.linspace(0.1, 3.7, n))
        w = np.full(n, 1.0 / 3.0)
        lam = AtomicLineMeasure(t, w, [1] * n, [2] * n, np.arange(n),
                                level_boundaries=(t[-1] + 1.0,),
                                total_mass_by_level=(math.fsum(w),))
        assert atoms_to_bytes(lam) == json_dumps_atoms(lam)

    def test_empty_measure_header_only(self):
        blob = atoms_to_bytes(empty_measure())
        assert blob.decode().strip().count("\n") == 0
        loaded = atoms_from_bytes(blob)
        assert len(loaded) == 0
        assert loaded.level_boundaries == ()

    def test_hand_written_fixture(self):
        text = "\n".join([
            json.dumps({"format": "lambda-atoms", "version": 1,
                        "growth": "2^k", "levels": 1}),
            json.dumps({"t": 1.5, "w": 0.25, "k": 1, "j": 1, "m": 1}),
            json.dumps({"t": 2.5, "w": 0.75, "k": 1, "j": 2, "m": 1}),
            json.dumps({"boundaries": [3.0], "masses": [1.0]}),
        ]) + "\n"
        lam = atoms_from_bytes(text.encode())
        assert len(lam) == 2
        assert lam.total_mass() == pytest.approx(1.0)
        assert lam.mass_up_to(2.0) == pytest.approx(0.25)
        assert lam.level_boundaries == (3.0,)

    def test_non_increasing_rejected_with_line_number(self):
        text = "\n".join([
            json.dumps({"format": "lambda-atoms", "version": 1,
                        "growth": "2^k", "levels": 1}),
            json.dumps({"t": 2.0, "w": 0.5, "k": 1, "j": 1, "m": 1}),
            json.dumps({"t": 1.0, "w": 0.5, "k": 1, "j": 1, "m": 2}),
        ])
        with pytest.raises(ParseError, match="line 3"):
            atoms_from_bytes(text.encode())

    def test_malformed_line(self):
        blob = (
            json.dumps({"format": "lambda-atoms", "version": 1,
                        "growth": "2^k", "levels": 0}) + "\n{oops\n"
        ).encode()
        with pytest.raises(ParseError, match="line 2"):
            atoms_from_bytes(blob)

    @pytest.mark.parametrize("at, line", [(0, 1), (-1, 3)])
    def test_bytes_that_are_not_utf8_name_their_line(self, at, line):
        lines = [json.dumps({"format": "lambda-atoms", "version": 1,
                             "growth": "2^k", "levels": 1}).encode(),
                 json.dumps({"t": 1.0, "w": 0.5, "k": 1, "j": 1, "m": 1}).encode(),
                 json.dumps({"boundaries": [3.0], "masses": [0.5]}).encode()]
        lines[at] = lines[at][:5] + b"\xff" + lines[at][5:]
        with pytest.raises(ParseError, match=f"line {line}: not UTF-8 text"):
            atoms_from_bytes(b"\n".join(lines))

    def test_weights_that_sum_past_float64(self):
        text = "\n".join(json.dumps(line) for line in [
            {"format": "lambda-atoms", "version": 1, "growth": "2^k", "levels": 1},
            {"t": 1.0, "w": 1e308, "k": 1, "j": 1, "m": 1},
            {"t": 2.0, "w": 1e308, "k": 1, "j": 1, "m": 2},
            {"boundaries": [3.0], "masses": [1e308]},
        ])
        with pytest.raises(ParseError, match="weights sum past float64"):
            atoms_from_bytes(text.encode())

    def test_wrong_format_header(self):
        with pytest.raises(ParseError):
            atoms_from_bytes(b'{"format": "something-else", "version": 1}\n')

    @pytest.mark.parametrize("atom", [
        '{"t": NaN, "w": 1.0, "k": 1, "j": 1, "m": 1}',
        '{"t": 1.0, "w": NaN, "k": 1, "j": 1, "m": 1}',
        '{"t": Infinity, "w": 1.0, "k": 1, "j": 1, "m": 1}',
        '{"t": 1.0, "w": Infinity, "k": 1, "j": 1, "m": 1}',
    ])
    def test_non_finite_atom_rejected(self, atom):
        header = json.dumps({"format": "lambda-atoms", "version": 1,
                             "growth": "2^k", "levels": 1})
        with pytest.raises(ParseError, match="finite"):
            atoms_from_bytes(f"{header}\n{atom}\n".encode())

    @pytest.mark.parametrize("line", [
        '{"t": [1.0], "w": 0.5, "k": 1, "j": 1, "m": 1}',
        '{"t": 1.0, "w": 0.5, "k": Infinity, "j": 1, "m": 1}',
        '{"boundaries": 5}',
        '{"boundaries": [2.0], "masses": ["x"]}',
    ])
    def test_wrongly_typed_field(self, line):
        header = json.dumps({"format": "lambda-atoms", "version": 1,
                             "growth": "2^k", "levels": 1})
        with pytest.raises(ParseError, match="line 2"):
            atoms_from_bytes(f"{header}\n{line}\n".encode())

    @pytest.mark.parametrize("field", ["k", "j", "m"])
    @pytest.mark.parametrize("value", ["1.9", "true", '"3"'])
    def test_integer_field_must_be_a_json_integer(self, field, value):
        # 1.9 used to load as level 1 and true as 1; neither is truncated now
        fields = {"k": "1", "j": "1", "m": "1", field: value}
        atom = ('{"t": 1.0, "w": 0.5, '
                + ", ".join(f'"{key}": {v}' for key, v in fields.items()) + "}")
        header = json.dumps({"format": "lambda-atoms", "version": 1,
                             "growth": "2^k", "levels": 1})
        with pytest.raises(ParseError, match="line 2.*must be an integer"):
            atoms_from_bytes(f"{header}\n{atom}\n".encode())

    def test_missing_key(self):
        blob = (
            json.dumps({"format": "lambda-atoms", "version": 1,
                        "growth": "2^k", "levels": 1})
            + "\n" + json.dumps({"t": 1.0, "w": 0.5}) + "\n"
        ).encode()
        with pytest.raises(ParseError, match="missing key"):
            atoms_from_bytes(blob)

    @staticmethod
    def _two_level_stream(levels=2, ks=(1, 1, 2), boundaries=(3.0, 5.0),
                          masses=(1.0, 1.5)):
        header = {"format": "lambda-atoms", "version": 1, "growth": "2^k",
                  "levels": levels}
        if levels is None:
            del header["levels"]
        lines = [json.dumps(header)]
        lines += [json.dumps({"t": t, "w": 0.5, "k": k, "j": 1, "m": 1})
                  for t, k in zip((1.5, 2.5, 4.0), ks)]
        lines.append(json.dumps({"boundaries": list(boundaries),
                                 "masses": list(masses)}))
        return "".join(line + "\n" for line in lines).encode()

    def test_consistent_structure_loads(self):
        lam = atoms_from_bytes(self._two_level_stream())
        assert lam.levels == 2 and lam.level.tolist() == [1, 1, 2]

    @pytest.mark.parametrize("change, message", [
        ({"levels": 2.0}, "header levels must be an integer"),
        ({"levels": "2"}, "header levels must be an integer"),
        ({"levels": True}, "header levels must be an integer"),
        ({"levels": None}, "header levels must be an integer"),
        ({"levels": 3}, "header says 3 levels"),
        ({"levels": 1}, "header says 1 levels"),
        ({"boundaries": (3.0,)}, "1 boundaries and 2 masses"),
        ({"masses": (1.0, 2.0, 3.0)}, "2 boundaries and 3 masses"),
        # the header says 3 levels, the trailer has 1 boundary and 2 masses,
        # and an atom says k=9: this used to load as a 1-level measure
        ({"levels": 3, "boundaries": (5.0,), "ks": (1, 1, 9)}, "header says 3"),
        ({"boundaries": (5.0, 3.0)}, "boundaries must strictly increase"),
        ({"boundaries": (3.0, 3.0)}, "boundaries must strictly increase"),
        ({"ks": (1, 1, 9)}, r"atom 3 \(t=4.0\) has level k=9, but .* level 2"),
        ({"ks": (1, 2, 2)}, r"atom 2 \(t=2.5\) has level k=2, but .* level 1"),
        ({"ks": (1, 1, 1)}, r"atom 3 \(t=4.0\) has level k=1, but .* level 2"),
        ({"boundaries": (2.5, 5.0)}, r"atom 2 \(t=2.5\) has level k=1"),
        # every atom must lie below the last boundary
        ({"boundaries": (1.0, 2.0), "ks": (2, 3, 3)},
         r"atom 2 \(t=2.5\) has level k=3, but its position lies past level 2"),
        ({"levels": 0, "boundaries": (), "masses": ()}, "atom 1 .* past level 0"),
    ])
    def test_inconsistent_structure_rejected(self, change, message):
        with pytest.raises(ParseError, match=message):
            atoms_from_bytes(self._two_level_stream(**change))

    @pytest.mark.parametrize("masses, message", [
        ((7.0, 1.5), "through level 1 weigh 1.0, but the trailer gives mass 7.0"),
        ((1.0, 2.0), "through level 2 weigh 1.5, but the trailer gives mass 2.0"),
        ((1.0 + 3e-12, 1.5), "through level 1 weigh 1.0"),
        ((1.0, 1.5 * (1.0 - 3e-12)), "through level 2 weigh 1.5"),
    ])
    def test_level_masses_must_match_the_weights(self, masses, message):
        # a trailer of masses [7.0] over atoms weighing 1.0 used to load
        with pytest.raises(ParseError, match=message):
            atoms_from_bytes(self._two_level_stream(masses=masses))

    def test_level_masses_within_tolerance_load(self):
        for masses in ((1.0 + 1e-12, 1.5), (1.0, 1.5 * (1.0 - 1e-12))):
            lam = atoms_from_bytes(self._two_level_stream(masses=masses))
            assert lam.total_mass_by_level == masses

    @pytest.mark.parametrize("line, message", [
        # a repeated key used to keep its last value: this loaded as level 1
        ('{"t": 1.0, "w": 0.5, "k": 5, "k": 1, "j": 1, "m": 1}', "duplicate key 'k'"),
        ('{"t": 1.0, "w": true, "k": 1, "j": 1, "m": 1}', "weight w must be a number"),
        ('{"t": "1.5", "w": 0.5, "k": 1, "j": 1, "m": 1}', "position t must be a number"),
        ('{"t": 1.0, "w": 0.5, "k": 1, "j": 1, "m": 1, "x": 1}', None),
        ('{"t": 1.0, "w": 0.5, "k": 1, "j": 1, "m": 1} x', "invalid JSON"),
        ('{"boundaries": [true], "masses": [0.5]}', "boundary must be a number"),
        ('{"boundaries": [2.0], "masses": ["0.5"]}', "mass must be a number"),
        # past int()'s digit limit: a ValueError traceback before
        ('{"t": 1.0, "w": 0.5, "k": 1, "j": ' + "1" * 5000 + ', "m": 1}',
         "invalid JSON"),
    ])
    def test_strict_lines(self, line, message):
        header = json.dumps({"format": "lambda-atoms", "version": 1,
                             "growth": "2^k", "levels": 1})
        blob = f"{header}\n{line}\n".encode()
        if message is None:  # an extra key is allowed, as json.loads allows it
            assert atoms_from_bytes(blob + b'{"boundaries": [2.0], "masses": [0.5]}\n')
            return
        with pytest.raises(ParseError, match=f"line 2: .*{re.escape(message)}"):
            atoms_from_bytes(blob)

    @pytest.mark.parametrize("atom", [0, 1, 2])
    @pytest.mark.parametrize("field, value", [
        ("t", "1e999"), ("t", "-1e999"), ("w", "1e999"), ("w", "-2e400")])
    def test_overflow_on_the_regex_path_names_its_line(self, atom, field, value):
        # the measure's finiteness check refused these without a line number,
        # or the next line was blamed for not increasing
        lines = self._two_level_stream().decode().splitlines()
        old = {"t": f'"t": {(1.5, 2.5, 4.0)[atom]}', "w": '"w": 0.5'}[field]
        lines[1 + atom] = lines[1 + atom].replace(old, f'"{field}": {value}')
        name = {"t": "position t", "w": "weight w"}[field]
        with pytest.raises(ParseError, match=f"^line {2 + atom}: {name} {value} "
                                             "overflows float64$"):
            atoms_from_bytes("\n".join(lines).encode())

    @pytest.mark.parametrize("field, name", [
        ("k", "level k"), ("j", "source j"), ("m", "repetition m")])
    @pytest.mark.parametrize("value", [
        2**63, -(2**63) - 1, 9999999999999999999, 10**30])
    def test_integer_beyond_int64_names_its_line(self, field, name, value):
        # numpy's "Python int too large to convert to C long", with no line
        # number, before; 19 digits take the regular-expression path, and 31
        # the strict one
        blob = self._two_level_stream().replace(
            f'"{field}": 1'.encode(), f'"{field}": {value}'.encode(), 1)
        with pytest.raises(ParseError, match=f"^line 2: {name} {value} exceeds int64$"):
            atoms_from_bytes(blob)

    @given(
        st.lists(st.floats(0.0, 1e300), unique=True, min_size=1, max_size=12).map(sorted),
        st.lists(st.floats(5e-324, 1e300), min_size=12, max_size=12),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=24, max_size=24),
    )
    @example([0.0, 1e-300, 12.5], [5e-324, 1e300, 1.0], [2**63 - 1] * 24)
    @example([1e22, 1e23], [1e-7, 123456789.0], [-(2**63)] * 24)
    @settings(max_examples=200, deadline=None)
    def test_encoder_lines_and_strict_lines_agree(self, t, w, ints):
        # the encoder's lines take the regular-expression path; the same atoms
        # written compactly and with reordered keys take the strict JSON
        # path; both give the measure that was written
        n = len(t)
        lam = AtomicLineMeasure(t, w[:n], [1] * n, ints[:n], ints[12:12 + n],
                                level_boundaries=[t[-1] * 2.0 + 1.0],
                                total_mass_by_level=[math.fsum(w[:n])])
        blob = atoms_to_bytes(lam)
        head, *atoms, trailer = blob.decode().splitlines()
        strict = [json.dumps(dict(reversed(json.loads(a).items())),
                             separators=(",", ":")) for a in atoms]
        mixed = [a if i % 2 else b for i, (a, b) in enumerate(zip(atoms, strict))]
        for lines in (atoms, strict, mixed):
            text = "\n".join([head, *lines, trailer]) + "\n"
            assert atoms_from_bytes(text.encode()) == lam


class TestBuiltFilesLoad:
    """Both builders' files pass the load-time checks, the level masses too."""

    @pytest.mark.parametrize("atoms, levels", [
        ([((0.7, 2.9, 5.1), 1.0)], 4),
        ([((0.9, 2.2, 4.1), 0.2), ((3.3, 0.4, 5.7), 0.5), ((1.1, 6.0, 2.4), 0.3)], 4),
        # weights summing to 1 - 1e-12, the edge of what a point mass allows
        ([((0.9, 2.2), 0.5), ((3.3, 0.4), 0.5 - 0.999e-12)], 5),
    ])
    def test_point_mass_builds(self, atoms, levels):
        lam = build_point_mass_lambda(TorusPointMassMeasure(atoms), levels)
        assert atoms_from_bytes(atoms_to_bytes(lam)) == lam

    def test_nested_build(self):
        mu = TorusPointMassMeasure([((0.8, 2.1), 0.3), ((3.6, 0.4), 0.7)])
        basis = PrimeBasis(2)
        polys = [TorusPolynomial({(): 1.0, (1,): 1.0}, basis),
                 TorusPolynomial({(1,): 0.5, (0, 1): 1.0}, basis)]
        lam, _ = build_nested_lambda(NestedConstructionPlan([mu] * 2, polys), 3,
                                     GrowthSchedule.constant(2))
        assert atoms_from_bytes(atoms_to_bytes(lam)) == lam


class TestAtomicLineMeasureValidation:
    def test_strictly_increasing_required(self):
        with pytest.raises(DomainError):
            AtomicLineMeasure([1.0, 1.0], [0.5, 0.5], [1, 1], [1, 2], [1, 1],
                              level_boundaries=(2.0,), total_mass_by_level=(1.0,))

    def test_positive_weights_required(self):
        with pytest.raises(DomainError):
            AtomicLineMeasure([1.0, 2.0], [0.5, 0.0], [1, 1], [1, 2], [1, 1],
                              level_boundaries=(3.0,), total_mass_by_level=(0.5,))

    @pytest.mark.parametrize("field", ["t", "w"])
    def test_nan_rejected(self, field):
        fields = {"t": [1.0, 2.0], "w": [0.5, 0.5]}
        fields[field] = [1.0, math.nan]
        with pytest.raises(DomainError, match="finite"):
            AtomicLineMeasure(fields["t"], fields["w"], [1, 1], [1, 2], [1, 1],
                              level_boundaries=(3.0,), total_mass_by_level=(1.0,))


class TestWeightedMeanSquare:
    def test_matches_direct_sum(self):
        f = DirichletPolynomial({1: 1.0, 2: 0.5j, 3: -0.25})
        times = np.array([0.3, 1.7, 4.2])
        weights = np.array([0.2, 0.5, 0.3])
        values = [abs(sum(a * n ** (-1j * t) for n, a in f.terms.items())) ** 2
                  for t in times]
        expected = sum(v * w for v, w in zip(values, weights)) / weights.sum()
        assert weighted_mean_square(f, times, weights) == pytest.approx(
            expected, rel=1e-12)

    def test_scale_invariant_in_weights(self):
        f = DirichletPolynomial({1: 1.0, 6: 1.0})
        times = np.array([0.5, 2.0])
        w = np.array([1.0, 3.0])
        assert weighted_mean_square(f, times, w) == pytest.approx(
            weighted_mean_square(f, times, w / 7.0), rel=1e-14)

    def test_prefix_means_match_separate_calls_bitwise(self, rng):
        f = random_dirichlet(rng, d=3, max_terms=8, max_exp=3)
        times = np.sort(rng.uniform(0.0, 1e4, size=200))
        w = rng.uniform(0.1, 3.0, size=200)
        ends = [1, 2, 57, 57, 133, 200]
        means = weighted_mean_square(f, times, w, ends)
        assert [m.hex() for m in means] == [
            weighted_mean_square(f, times[:n], w[:n]).hex() for n in ends]
        means = weighted_mean_square(f, times, w, [3, 50])
        assert [m.hex() for m in means] == [
            weighted_mean_square(f, times[:n], w[:n]).hex() for n in (3, 50)]
