import json

import pytest

from polytorus import DirichletPolynomial, MultiIndex, ParseError, PrimeBasis
from polytorus.formats import (
    dirichlet_from_json,
    dirichlet_to_json,
    loads_strict,
    measure_sequence_from_json,
    point_mass_from_json,
    point_mass_to_json,
    polynomial_family_from_json,
    torus_from_json,
    torus_to_json,
)
from polytorus.measures import TorusPointMassMeasure
from polytorus.polynomials import TorusPolynomial


class TestStrictJson:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate key"):
            loads_strict('{"a": 1, "a": 2}')

    def test_nested_duplicates_rejected(self):
        with pytest.raises(ParseError):
            loads_strict('{"terms": [{"n": 2, "n": 3, "re": 1.0}]}')

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, token):
        with pytest.raises(ParseError):
            loads_strict(f'{{"c": {token}}}')

    def test_integer_past_the_digit_limit_rejected(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        with pytest.raises(ParseError, match="invalid JSON"):
            loads_strict('{"levels": ' + "1" * 5000 + "}")


class TestMalformedStructure:
    """A missing key or a wrongly shaped entry is a ParseError, never a
    KeyError or TypeError escaping from the parser."""

    @pytest.mark.parametrize("parse, text, match", [
        (dirichlet_from_json,
         '{"basis_dim": 2, "terms": [{"re": 1.0, "im": 0.0}]}', "'n'"),
        (dirichlet_from_json, '{"basis_dim": 2, "terms": [7]}', "malformed"),
        (dirichlet_from_json, '{"basis_dim": 2, "terms": 7}', "malformed"),
        (dirichlet_from_json,
         '{"basis_dim": 1, "terms": [{"n": 2, "re": NaN}]}', "NaN"),
        (point_mass_from_json, '{"dim": 1, "atoms": [{"c": 1.0}]}', "'theta'"),
        (point_mass_from_json, '{"dim": 1, "atoms": [{"theta": [0.5]}]}', "'c'"),
        (point_mass_from_json, '{"dim": 1, "atoms": ["x"]}', "malformed"),
        (point_mass_from_json,
         '{"dim": 1, "atoms": [{"theta": [0.5], "c": NaN}]}', "NaN"),
        (point_mass_from_json,
         '{"dim": 1, "atoms": [{"theta": [Infinity], "c": 1.0}]}', "Infinity"),
        (torus_from_json, '{"terms": [{"re": 1.0}]}', "'alpha'"),
        (torus_from_json, '{"terms": [{"alpha": [-1], "re": 1.0}]}', "malformed"),
        (measure_sequence_from_json, '{"measures": [{"dim": 1, "atoms": [{}]}]}',
         "'theta'"),
        (polynomial_family_from_json, '{"polynomials": [{"terms": [3]}]}',
         "malformed"),
        (dirichlet_from_json,
         '{"basis_dim": 1, "terms": [{"n": 2.7, "re": 1.0}]}', "must be an integer"),
        (dirichlet_from_json,
         '{"basis_dim": 1, "terms": [{"n": true, "re": 1.0}]}', "must be an integer"),
        (dirichlet_from_json,
         '{"basis_dim": 1, "terms": [{"n": "3", "re": 1.0}]}', "must be an integer"),
        (dirichlet_from_json,
         '{"basis_dim": 2.0, "terms": [{"n": 2, "re": 1.0}]}', "basis_dim"),
        (point_mass_from_json,
         '{"dim": 1.5, "atoms": [{"theta": [0.5], "c": 1.0}]}', "dim"),
        (point_mass_from_json,
         '{"dim": true, "atoms": [{"theta": [0.5], "c": 1.0}]}', "dim"),
        (torus_from_json, '{"terms": [{"alpha": [1.0], "re": 1.0}]}', "alpha"),
        (torus_from_json,
         '{"basis_dim": "3", "terms": [{"alpha": [1], "re": 1.0}]}', "basis_dim"),
    ])
    def test_parse_error(self, parse, text, match):
        with pytest.raises(ParseError, match=match):
            parse(text)


class TestDirichletFormat:
    def test_round_trip(self):
        f = DirichletPolynomial({1: 1.0, 12: 1j, 8: -0.5 + 0.25j})
        text = dirichlet_to_json(f, basis_dim=2)
        again, basis = dirichlet_from_json(text)
        assert again == f
        assert basis.dimension == 2

    def test_parses_documented_shape(self):
        f, basis = dirichlet_from_json(
            '{"basis_dim": 2, "terms": [{"n": 12, "re": 0.0, "im": 1.0}]}'
        )
        assert f.terms == {12: 1j}

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ParseError, match="zero coefficient"):
            dirichlet_from_json(
                '{"basis_dim": 1, "terms": [{"n": 2, "re": 0.0, "im": 0.0}]}'
            )

    def test_rejects_duplicate_frequency(self):
        with pytest.raises(ParseError, match="duplicate frequency"):
            dirichlet_from_json(
                '{"basis_dim": 2, "terms": [{"n": 2, "re": 1.0}, {"n": 2, "re": 2.0}]}'
            )

    def test_rejects_frequency_beyond_basis(self):
        with pytest.raises(Exception, match="prime factor"):
            dirichlet_from_json(
                '{"basis_dim": 1, "terms": [{"n": 3, "re": 1.0}]}'
            )


class TestTorusFormat:
    def test_round_trip(self):
        F = TorusPolynomial(
            {MultiIndex((2, 1)): 1j, MultiIndex(()): 0.5}, PrimeBasis(2)
        )
        assert torus_from_json(torus_to_json(F)) == F

    def test_rejects_duplicate_index(self):
        # (2, 1, 0) and (2, 1) collide after canonicalization
        with pytest.raises(ParseError, match="duplicate index"):
            torus_from_json(
                '{"terms": [{"alpha": [2, 1], "re": 1.0},'
                ' {"alpha": [2, 1, 0], "re": 2.0}]}'
            )

    def test_dimension_inferred(self):
        F = torus_from_json('{"terms": [{"alpha": [0, 0, 1], "re": 1.0}]}')
        assert F.basis.dimension == 3


class TestPointMassFormat:
    def test_round_trip(self):
        mu = TorusPointMassMeasure([((0.5, 1.5), 0.25), ((3.0, 0.1), 0.75)])
        assert point_mass_from_json(point_mass_to_json(mu)) == mu

    def test_parses_documented_shape(self):
        mu = point_mass_from_json(
            '{"dim": 1, "atoms": [{"theta": [0.0], "c": 0.5},'
            ' {"theta": [3.14], "c": 0.5}]}'
        )
        assert len(mu) == 2

    def test_angle_count_must_match_dim(self):
        with pytest.raises(ParseError):
            point_mass_from_json(
                '{"dim": 2, "atoms": [{"theta": [0.0], "c": 1.0}]}'
            )

    def test_sequence_and_family_parsers(self):
        seq = measure_sequence_from_json(json.dumps({
            "measures": [
                {"dim": 1, "atoms": [{"theta": [0.0], "c": 1.0}]},
                {"dim": 1, "atoms": [{"theta": [1.0], "c": 1.0}]},
            ]
        }))
        assert len(seq) == 2
        family = polynomial_family_from_json(json.dumps({
            "polynomials": [
                {"terms": [{"alpha": [], "re": 1.0}]},
                {"terms": [{"alpha": [1], "re": 1.0}]},
            ]
        }))
        assert len(family) == 2
