"""Text and JSON document formats for fields, polynomials, and bases.

Polynomials travel as text in either the sparse algebraic form
("X^8+X^4+X^3+X^2+1") or the dense ascending coefficient list
("1,0,1,1,1,0,0,0,1"); emitters always write the sparse form, so a document
that has been written once round-trips byte-for-byte.  `poly_from_text`
checks the coefficients once, by their least and greatest, against
(-q, q), and reads text through field.py's bounded memo of term texts.
`field_from_doc` keeps one Field per (p, m, modulus) that passed its
checks, for the last 64 of them.

Sizes are bounded before anything is built from them: a code length or a
matrix entry count above 2^20 and a field's extension degree above 64 raise
TooLarge.

Document layouts (JSON objects):

* field:            {"p": int, "m": int, "modulus": poly-text}
* basis / matrix:   {"ell": int, "m": int, "field": {...}, "rows": [[poly-text, ...], ...]}
* cyclic code:      {"m": int, "field": {...}, "generator": poly-text}
"""

from __future__ import annotations

import functools

from .cyclic import _MAX_EXTENSION_DEGREE, CyclicCode, cyclic_code_new
from .errors import PolyParseError, ShapeMismatch, TooLarge
from .field import (
    _MAX_EXPONENT,
    Field,
    _positive,
    _prime_field,
    coeffs_to_poly_text,
    field_new,
    poly_text_to_coeffs,
)
from .polyring import Poly, _trusted
from .qcmodule import GeneratingMatrix, RgbPotBasis

__all__ = [
    "poly_from_text",
    "poly_to_text",
    "field_to_doc",
    "field_from_doc",
    "basis_to_doc",
    "basis_from_doc",
    "generating_matrix_to_doc",
    "generating_matrix_from_doc",
    "cyclic_from_doc",
    "canonical_json",
]


def poly_from_text(field: Field, text: str) -> Poly:
    """Parse either polynomial text format into a polynomial over the
    field.  Negative coefficients are folded through field negation;
    coefficients at or beyond q are rejected rather than reduced.  They
    are checked once, here, so the Poly is built unchecked."""
    q = field.q
    coeffs = poly_text_to_coeffs(text)
    low = min(coeffs)
    if low <= -q or max(coeffs) >= q:
        c = next(c for c in coeffs if not -q < c < q)
        raise PolyParseError(f"coefficient {c} outside the code range of GF({q})")
    if low < 0:
        neg = field.neg
        coeffs = [neg(-c) if c < 0 else c for c in coeffs]
    elif not coeffs[-1]:  # _trusted strips a list in place
        coeffs = list(coeffs)
    return _trusted(field, coeffs)


def poly_to_text(p: Poly) -> str:
    """Sparse algebraic text for the polynomial ("0" for the zero
    polynomial)."""
    return coeffs_to_poly_text(p.coeffs)


def _require(doc, key, kinds, what):
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise PolyParseError(f"{what} document is missing field '{key}'") from None
    # JSON true and false are Python ints; no document field is a boolean
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise PolyParseError(f"{what} document field '{key}' has the wrong type")
    return value


def _check_length(n: int, what: str, limit: int = _MAX_EXPONENT) -> None:
    """Refuse a number above its limit before anything that size is built:
    by default a code length or a matrix entry count above 2^20, the bound
    of exponents in polynomial text."""
    if n > limit:
        raise TooLarge(f"{what} {n} exceeds the limit {limit}")


def field_to_doc(field: Field) -> dict:
    return {
        "p": field.p,
        "m": field.m,
        "modulus": coeffs_to_poly_text(field.modulus),
    }


def field_from_doc(doc) -> Field:
    p = _require(doc, "p", int, "field")
    m = _require(doc, "m", int, "field")
    # the modulus's irreducibility test costs about the cube of m
    _check_length(m, "field extension degree m", _MAX_EXTENSION_DEGREE)
    text = _require(doc, "modulus", str, "field")
    return _field(p, m, poly_from_text(_prime_field(p), text).coeffs)


# bounded, since documents are untrusted; a refusal raises, so it is never kept
_field = functools.lru_cache(maxsize=64)(field_new)


def _matrix_to_doc(field: Field, ell: int, m: int, rows) -> dict:
    return {
        "ell": ell,
        "m": m,
        "field": field_to_doc(field),
        "rows": [[poly_to_text(entry) for entry in row] for row in rows],
    }


def _matrix_from_doc(doc, cls, what: str):
    """Read a basis or generating-matrix document into cls; a basis must
    list exactly ell rows."""
    ell = _positive("ell", _require(doc, "ell", int, what), ShapeMismatch)
    m = _positive("m", _require(doc, "m", int, what), ShapeMismatch)
    _check_length(ell * m, f"{what} length ell*m")
    _check_length(ell * ell, f"{what} entry count ell*ell")
    field = field_from_doc(_require(doc, "field", dict, what))
    rows = _require(doc, "rows", list, what)
    if cls is RgbPotBasis and len(rows) != ell:
        raise PolyParseError(f"{what} document must have exactly {ell} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != ell:
            raise PolyParseError(f"each row must list exactly {ell} polynomials")
        if not all(isinstance(entry, str) for entry in row):
            raise PolyParseError("matrix entries must be polynomial text strings")
        out.append([poly_from_text(field, entry) for entry in row])
    return cls(field, ell, m, out)


def basis_to_doc(b: RgbPotBasis) -> dict:
    return _matrix_to_doc(b.field, b.ell, b.m, b.matrix)


def basis_from_doc(doc) -> RgbPotBasis:
    return _matrix_from_doc(doc, RgbPotBasis, "basis")


def generating_matrix_to_doc(g: GeneratingMatrix) -> dict:
    return _matrix_to_doc(g.field, g.ell, g.m, g.rows)


def generating_matrix_from_doc(doc) -> GeneratingMatrix:
    return _matrix_from_doc(doc, GeneratingMatrix, "generating matrix")


def cyclic_from_doc(doc) -> CyclicCode:
    m = _require(doc, "m", int, "cyclic code")
    _check_length(m, "cyclic code length m")
    field = field_from_doc(_require(doc, "field", dict, "cyclic code"))
    g = poly_from_text(field, _require(doc, "generator", str, "cyclic code"))
    return cyclic_code_new(m, g)


def canonical_json(doc) -> str:
    """Deterministic JSON: sorted keys, no whitespace.  Identical documents
    always produce identical bytes."""
    import json  # here, so that ``import qcproduct`` does not load it

    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
