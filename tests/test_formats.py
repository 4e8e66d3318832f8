import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus import DirichletPolynomial, DomainError, MultiIndex, ParseError, PrimeBasis
from polytorus.formats import (
    MAX_BASIS_DIM,
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
        (dirichlet_from_json, '{"basis_dim": 2, "terms": 7}', "terms must be an array"),
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


class TestBasisDimensionCap:
    @pytest.mark.parametrize("parse, text", [
        (dirichlet_from_json, '{{"basis_dim": {}, "terms": [{{"n": 2, "re": 1.0}}]}}'),
        (torus_from_json, '{{"basis_dim": {}, "terms": [{{"alpha": [1], "re": 1.0}}]}}'),
        (polynomial_family_from_json, '{{"polynomials": [{{"basis_dim": {}, '
                                      '"terms": [{{"alpha": [1], "re": 1.0}}]}}]}}'),
    ])
    def test_huge_basis_refused_before_any_prime(self, parse, text):
        # 40,000 took 19.7 s of trial division; 10^6 is refused at once
        start = time.perf_counter()
        with pytest.raises(ParseError, match="basis_dim 1000000 exceeds the maximum"):
            parse(text.format(10**6))
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ParseError, match=f"basis_dim {MAX_BASIS_DIM + 1} exceeds"):
            parse(text.format(MAX_BASIS_DIM + 1))
        parse(text.format(MAX_BASIS_DIM))

    def test_inferred_dimension_is_capped_too(self):
        alpha = json.dumps([0] * MAX_BASIS_DIM + [1])
        with pytest.raises(ParseError, match=f"basis_dim {MAX_BASIS_DIM + 1} exceeds"):
            torus_from_json(f'{{"terms": [{{"alpha": {alpha}, "re": 1.0}}]}}')


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


# Mutation tests: each parser, given a valid document with one field changed
# to a value of another JSON type, one key repeated, or one required field
# dropped, raises ParseError or DomainError and nothing else.

VALID_DOCUMENTS = {
    dirichlet_from_json: {"basis_dim": 2, "terms": [
        {"n": 1, "re": 1.0, "im": 0.0}, {"n": 12, "re": 0.0, "im": 1.0},
        {"n": 8, "re": -0.5, "im": 0.25}]},
    point_mass_from_json: {"dim": 2, "atoms": [
        {"theta": [0.5, 1.5], "c": 0.25}, {"theta": [3.0, 0.1], "c": 0.75}]},
    measure_sequence_from_json: {"measures": [
        {"dim": 1, "atoms": [{"theta": [0.0], "c": 1.0}]},
        {"dim": 2, "atoms": [{"theta": [1.0, 2.0], "c": 0.5},
                             {"theta": [2.0, 1.0], "c": 0.5}]}]},
    polynomial_family_from_json: {"polynomials": [
        {"terms": [{"alpha": [], "re": 1.0, "im": 0.0}]},
        {"basis_dim": 3, "terms": [{"alpha": [1, 0, 2], "re": 0.5, "im": -1.0},
                                   {"alpha": [1], "re": 0.0, "im": 2.0}]}]},
}
# Keys whose absence the format does not allow; re, im and basis_dim have
# defaults.
REQUIRED_KEYS = {"terms", "n", "alpha", "dim", "atoms", "theta", "c",
                 "measures", "polynomials"}
PARSERS = list(VALID_DOCUMENTS)


def json_paths(doc, prefix=()):
    """``(path, value)`` of every value in a JSON document, the root first."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


DROP = object()


def other_types(value):
    """JSON values of a type the field at ``value`` does not take: an
    integer field refuses a float too, a number field a bool."""
    if type(value) is int:
        return [2.5, "3", True, None, [], {}]
    if type(value) is float:
        return ["0.5", True, None, [0.5], {"re": 0.5}]
    if isinstance(value, list):
        return ["[]", 1.0, None, {}, {"0": value[0]} if value else {"x": 1}]
    return [[], ["x"], "x", 1, None]


def dumps_with_repeated_key(doc, path):
    """``doc`` as JSON text, with the first key of the object at ``path``
    written twice."""
    def dump(value, at):
        if isinstance(value, dict):
            items = [f"{json.dumps(k)}: {dump(v, at + (k,))}" for k, v in value.items()]
            if at == path:
                items.append(items[0])
            return "{" + ", ".join(items) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(dump(v, at + (i,)) for i, v in enumerate(value)) + "]"
        return json.dumps(value)
    return dump(doc, ())


class TestParserMutations:
    @pytest.mark.parametrize("parse", PARSERS, ids=lambda p: p.__name__)
    def test_valid_documents_parse(self, parse):
        parse(json.dumps(VALID_DOCUMENTS[parse]))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_field_of_another_type(self, data):
        parse = data.draw(st.sampled_from(PARSERS))
        doc = VALID_DOCUMENTS[parse]
        path, value = data.draw(st.sampled_from(list(json_paths(doc))))
        bad = data.draw(st.sampled_from(other_types(value)))
        with pytest.raises((ParseError, DomainError)):
            parse(json.dumps(replaced(doc, path, bad)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_repeated_key(self, data):
        parse = data.draw(st.sampled_from(PARSERS))
        doc = VALID_DOCUMENTS[parse]
        objects = [path for path, value in json_paths(doc)
                   if isinstance(value, dict) and value]
        path = data.draw(st.sampled_from(objects))
        with pytest.raises(ParseError, match="duplicate key"):
            parse(dumps_with_repeated_key(doc, path))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_required_field_dropped(self, data):
        parse = data.draw(st.sampled_from(PARSERS))
        doc = VALID_DOCUMENTS[parse]
        required = [path for path, _ in json_paths(doc)
                    if path and path[-1] in REQUIRED_KEYS]
        path = data.draw(st.sampled_from(required))
        with pytest.raises((ParseError, DomainError)):
            parse(json.dumps(replaced(doc, path, DROP)))
