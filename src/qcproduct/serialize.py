"""Text and JSON document formats for fields, polynomials, and bases.

Polynomials travel as text in either the sparse algebraic form
("X^8+X^4+X^3+X^2+1") or the dense ascending coefficient list
("1,0,1,1,1,0,0,0,1"); emitters always write the sparse form, so a document
that has been written once round-trips byte-for-byte.

Document layouts (JSON objects):

* field:            {"p": int, "m": int, "modulus": poly-text}
* basis / matrix:   {"ell": int, "m": int, "field": {...}, "rows": [[poly-text, ...], ...]}
* cyclic code:      {"m": int, "field": {...}, "generator": poly-text}
"""

from __future__ import annotations

from .cyclic import CyclicCode, cyclic_code_new
from .errors import PolyParseError, TooLarge
from .field import (
    _MAX_EXPONENT,
    Field,
    coeffs_to_poly_text,
    field_new,
    poly_text_to_coeffs,
)
from .polyring import Poly
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
    "cyclic_to_doc",
    "cyclic_from_doc",
    "canonical_json",
]


def poly_from_text(field: Field, text: str) -> Poly:
    """Parse either polynomial text format into a polynomial over the
    field.  Negative coefficients are folded through field negation;
    coefficients at or beyond q are rejected rather than reduced."""
    raw = poly_text_to_coeffs(text)
    codes = []
    for c in raw:
        if c < 0:
            if -c >= field.q:
                raise PolyParseError(
                    f"coefficient {c} outside the code range of GF({field.q})")
            codes.append(field.neg(-c))
        elif c >= field.q:
            raise PolyParseError(
                f"coefficient {c} outside the code range of GF({field.q})")
        else:
            codes.append(c)
    return Poly(field, codes)


def poly_to_text(p: Poly) -> str:
    """Sparse algebraic text for the polynomial ("0" for the zero
    polynomial)."""
    return coeffs_to_poly_text(p.coeffs)


def _require(doc, key, kinds, what):
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise PolyParseError(f"{what} document is missing field '{key}'") from None
    if not isinstance(value, kinds):
        raise PolyParseError(f"{what} document field '{key}' has the wrong type")
    return value


def _check_length(n: int, what: str) -> None:
    """Refuse a code length or a matrix entry count above 2^20, the bound of
    exponents in polynomial text, before anything that size is built."""
    if n > _MAX_EXPONENT:
        raise TooLarge(f"{what} {n} exceeds the limit {_MAX_EXPONENT}")


def field_to_doc(field: Field) -> dict:
    return {
        "p": field.p,
        "m": field.m,
        "modulus": coeffs_to_poly_text(field.modulus),
    }


def field_from_doc(doc) -> Field:
    p = _require(doc, "p", int, "field")
    m = _require(doc, "m", int, "field")
    text = _require(doc, "modulus", str, "field")
    if m == 1:
        return field_new(p)
    modulus = poly_from_text(field_new(p), text)
    return field_new(p, m, modulus.coeffs)


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
    ell = _require(doc, "ell", int, what)
    m = _require(doc, "m", int, what)
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


def cyclic_to_doc(code: CyclicCode) -> dict:
    return {
        "m": code.m,
        "field": field_to_doc(code.field),
        "generator": poly_to_text(code.g),
    }


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
