"""Strict JSON formats for polynomials and torus point-mass measures.

Dirichlet polynomials:
    {"basis_dim": 2, "terms": [{"n": 12, "re": 0.0, "im": 1.0}, ...]}

Torus polynomials:
    {"terms": [{"alpha": [2, 1], "re": 0.5, "im": 0.0}, ...]}
    (an optional "basis_dim" widens the inferred dimension)

Point-mass measures:
    {"dim": 2, "atoms": [{"theta": [0.0, 3.14], "c": 0.5}, ...]}

Parsing rejects duplicate JSON keys, non-finite numbers, duplicate term
entries, explicit zero coefficients, and missing or mistyped fields; integer
fields (``n``, ``alpha`` entries, ``dim``, ``basis_dim``) must be JSON
integers, so ``2.7``, ``"3"`` and ``true`` are errors, not truncated; number
fields (``re``, ``im``, ``theta`` entries, ``c``) must be JSON numbers, and
lists JSON arrays; writers emit floats exactly (shortest round-trip repr).
A polynomial's basis dimension, declared or inferred, is at most
``MAX_BASIS_DIM``: the first primes come from trial division, whose cost
grows faster than linearly (8,000 primes take most of a second).
"""

from __future__ import annotations

import functools
import json
import math

from .errors import DomainError, ParseError, PolytorusError
from .polynomials import (
    DirichletPolynomial,
    MultiIndex,
    TorusPolynomial,
    factor_over_basis,
)
from .measures import TorusPointMassMeasure
from .primes import PrimeBasis

# Far above any dimension the library's constructions use (at most 4 in the
# tests, demos and benchmark inputs); PrimeBasis(1024) takes about 15 ms.
MAX_BASIS_DIM = 1024


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token}")
    return value


def loads_strict(text: str | bytes):
    """``json.loads`` that refuses repeated keys, ``NaN``/``Infinity`` tokens
    and literals that overflow float64."""
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys,
                          parse_constant=_finite_float, parse_float=_finite_float)
    except ParseError:
        raise
    except ValueError as exc:  # malformed, or an integer past int()'s digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def _parser(parse):
    """Report a missing key or a mistyped value as a :class:`ParseError`; the
    library's own errors pass through unchanged."""

    @functools.wraps(parse)
    def wrapped(text):
        try:
            return parse(text)
        except PolytorusError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed entry: {exc!r}") from exc

    return wrapped


def _integer(value, label: str) -> int:
    """``value`` when it is a JSON integer; a float, string or bool is refused."""
    if type(value) is not int:
        raise ParseError(f"{label} must be an integer, got {value!r}")
    return value


def _number(value, label: str) -> float:
    """``value`` as a float when it is a JSON number; a string or bool is
    refused."""
    if type(value) not in (int, float):
        raise ParseError(f"{label} must be a number, got {value!r}")
    return float(value)


def _array(value, label: str) -> list:
    """``value`` when it is a JSON array; an object or a string is refused."""
    if type(value) is not list:
        raise ParseError(f"{label} must be an array, got {value!r}")
    return value


def _basis(dimension: int) -> PrimeBasis:
    """``PrimeBasis(dimension)``, refused before any prime is found when the
    dimension exceeds ``MAX_BASIS_DIM``."""
    if dimension > MAX_BASIS_DIM:
        raise ParseError(f"basis_dim {dimension} exceeds the maximum {MAX_BASIS_DIM}")
    return PrimeBasis(dimension)


def _term_coefficient(entry, label) -> complex:
    coeff = complex(_number(entry.get("re", 0.0), f"re of {label}"),
                    _number(entry.get("im", 0.0), f"im of {label}"))
    if coeff == 0:
        raise ParseError(f"zero coefficient for {label} is not stored")
    return coeff


def dirichlet_to_json(f: DirichletPolynomial, basis_dim: int) -> str:
    terms = [
        {"n": n, "re": a.real, "im": a.imag} for n, a in sorted(f.terms.items())
    ]
    return json.dumps({"basis_dim": basis_dim, "terms": terms})


@_parser
def dirichlet_from_json(text) -> tuple[DirichletPolynomial, PrimeBasis]:
    """Parse and validate a Dirichlet polynomial plus its declared basis."""
    data = loads_strict(text)
    if not isinstance(data, dict) or "terms" not in data:
        raise ParseError("expected an object with a 'terms' list")
    basis = _basis(_integer(data.get("basis_dim", 1), "basis_dim"))
    terms: dict[int, complex] = {}
    for entry in _array(data["terms"], "terms"):
        n = _integer(entry["n"], "frequency n")
        if n in terms:
            raise ParseError(f"duplicate frequency {n}")
        terms[n] = _term_coefficient(entry, f"frequency {n}")
        factor_over_basis(n, basis)  # raises if n needs a larger basis
    return DirichletPolynomial(terms), basis


def torus_to_json(F: TorusPolynomial) -> str:
    terms = [
        {"alpha": list(alpha.exponents), "re": a.real, "im": a.imag}
        for alpha, a in sorted(F.terms.items(), key=lambda kv: kv[0].exponents)
    ]
    return json.dumps({"basis_dim": F.basis.dimension, "terms": terms})


@_parser
def torus_from_json(text) -> TorusPolynomial:
    return _torus_from_data(loads_strict(text))


def point_mass_to_json(mu: TorusPointMassMeasure) -> str:
    atoms = [
        {"theta": list(omega.angles), "c": c} for omega, c in mu.atoms
    ]
    return json.dumps({"dim": mu.dimension, "atoms": atoms})


def _point_mass_from_data(data) -> TorusPointMassMeasure:
    if not isinstance(data, dict) or "atoms" not in data or "dim" not in data:
        raise ParseError("expected an object with 'dim' and 'atoms'")
    dim = _integer(data["dim"], "dim")
    atoms = []
    for entry in _array(data["atoms"], "atoms"):
        theta = [_number(x, "angle theta") for x in _array(entry["theta"], "theta")]
        if len(theta) != dim:
            raise ParseError(
                f"atom has {len(theta)} angles but dim is {dim}"
            )
        atoms.append((theta, _number(entry["c"], "weight c")))
    return TorusPointMassMeasure(atoms, dimension=dim)


@_parser
def point_mass_from_json(text) -> TorusPointMassMeasure:
    return _point_mass_from_data(loads_strict(text))


@_parser
def measure_sequence_from_json(text) -> list[TorusPointMassMeasure]:
    """Parse {"measures": [mu, ...]}; each entry follows the point-mass format."""
    data = loads_strict(text)
    if not isinstance(data, dict) or "measures" not in data:
        raise ParseError("expected an object with a 'measures' list")
    return [_point_mass_from_data(entry)
            for entry in _array(data["measures"], "measures")]


def _torus_from_data(data) -> TorusPolynomial:
    if not isinstance(data, dict) or "terms" not in data:
        raise ParseError("expected an object with a 'terms' list")
    terms: dict[MultiIndex, complex] = {}
    for entry in _array(data["terms"], "terms"):
        exponents = [_integer(e, "alpha entry") for e in _array(entry["alpha"], "alpha")]
        try:
            alpha = MultiIndex(exponents)
        except DomainError as exc:  # a negative exponent is a malformed entry
            raise ParseError(f"malformed entry: {exc}") from exc
        if alpha in terms:
            raise ParseError(f"duplicate index {alpha.exponents}")
        terms[alpha] = _term_coefficient(entry, f"index {alpha.exponents}")
    inferred = max((alpha.length for alpha in terms), default=1)
    dim = max(_integer(data.get("basis_dim", inferred), "basis_dim"), inferred, 1)
    return TorusPolynomial(terms, _basis(dim))


@_parser
def polynomial_family_from_json(text) -> list[TorusPolynomial]:
    """Parse {"polynomials": [F, ...]}; each entry follows the torus format."""
    data = loads_strict(text)
    if not isinstance(data, dict) or "polynomials" not in data:
        raise ParseError("expected an object with a 'polynomials' list")
    return [_torus_from_data(entry)
            for entry in _array(data["polynomials"], "polynomials")]
