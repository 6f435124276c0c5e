"""Tests for the text and JSON document formats."""

import json
import random

import pytest

from qcproduct import (
    DegreeMismatch,
    GeneratingMatrix,
    NotIrreducible,
    NotPrime,
    Poly,
    PolyParseError,
    TooLarge,
    basis_from_doc,
    basis_to_doc,
    canonical_json,
    cyclic_code_new,
    cyclic_from_doc,
    field_from_doc,
    field_new,
    field_to_doc,
    generating_matrix_from_doc,
    generating_matrix_to_doc,
    poly_from_text,
    poly_to_text,
    rgb_pot_reduce,
    serialize,
)
from qcproduct import field as fieldmod

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


# ---------------------------------------------------------------------------
# polynomial text
# ---------------------------------------------------------------------------

def test_poly_text_round_trip():
    for field, text in (
        (F2, "X^8+X^4+X^3+X^2+1"),
        (F3, "X^2+2*X+1"),
        (F4, "3*X^5+2*X+1"),
        (F2, "X"),
        (F2, "0"),
    ):
        p = poly_from_text(field, text)
        assert poly_to_text(p) == text
        assert poly_from_text(field, poly_to_text(p)) == p


def test_poly_text_dense_form_accepted():
    assert poly_from_text(F3, "1,2,0,1") == Poly(F3, (1, 2, 0, 1))
    assert poly_from_text(F2, "0, 0") == Poly.zero(F2)


def test_negative_coefficients_fold_through_negation():
    assert poly_from_text(F2, "X^17-1") == poly_from_text(F2, "X^17+1")
    assert poly_from_text(F3, "X-1") == Poly(F3, (2, 1))
    assert poly_from_text(F3, "-2*X") == Poly(F3, (0, 1))


def test_out_of_range_coefficients_rejected():
    with pytest.raises(PolyParseError):
        poly_from_text(F2, "2*X")
    with pytest.raises(PolyParseError):
        poly_from_text(F3, "X-3")
    with pytest.raises(PolyParseError):
        poly_from_text(F4, "4")


def test_malformed_text_rejected():
    for bad in ("X^", "y+1", "X**2", ""):
        with pytest.raises(PolyParseError):
            poly_from_text(F2, bad)


# ---------------------------------------------------------------------------
# field documents
# ---------------------------------------------------------------------------

def test_field_doc_round_trip():
    for field in (F2, F3, F4, field_new(2, 8), field_new(5)):
        doc = field_to_doc(field)
        assert field_from_doc(doc) == field
        assert set(doc) == {"p", "m", "modulus"}


def test_field_doc_custom_modulus():
    custom = field_new(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))
    doc = field_to_doc(custom)
    assert doc["modulus"] == "X^8+X^4+X^3+X^2+1"
    assert field_from_doc(doc) == custom
    assert field_from_doc(doc) != field_new(2, 8)


def test_field_doc_validation():
    with pytest.raises(PolyParseError):
        field_from_doc({"p": 2})
    with pytest.raises(PolyParseError):
        field_from_doc({"p": "2", "m": 1, "modulus": "X"})
    with pytest.raises(PolyParseError):
        field_from_doc([])
    # a prime field's modulus is read and checked like any other
    with pytest.raises(PolyParseError):
        field_from_doc({"p": 2, "m": 1, "modulus": "not a polynomial"})
    with pytest.raises(DegreeMismatch):
        field_from_doc({"p": 2, "m": 1, "modulus": "X^2+X+1"})
    assert field_from_doc({"p": 3, "m": 1, "modulus": "X+1"}) == F3


def test_repeated_field_doc_reads_share_one_field(monkeypatch):
    doc = {"p": 2147483647, "m": 1, "modulus": "X"}
    first = field_from_doc(doc)
    # a cached read builds no Field, so it makes no trial division of p
    monkeypatch.setattr(fieldmod, "_prime_factors", None)
    assert field_from_doc(dict(doc)) is first
    assert field_from_doc({"p": 2147483647, "m": 1, "modulus": "x"}) is first
    monkeypatch.undo()
    assert field_from_doc({"p": 2147483647, "m": 1, "modulus": "X+5"}) == first
    custom = {"p": 2, "m": 8, "modulus": "X^8+X^4+X^3+X^2+1"}
    assert field_from_doc(custom) is field_from_doc(dict(custom))
    assert field_from_doc(custom) is not field_from_doc(field_to_doc(field_new(2, 8)))


def test_reducible_modulus_is_refused_on_every_read():
    doc = {"p": 2, "m": 4, "modulus": "X^4+1"}  # (X+1)^4
    for _ in range(3):
        with pytest.raises(NotIrreducible):
            field_from_doc(doc)
    with pytest.raises(NotPrime):
        field_from_doc({"p": 4, "m": 1, "modulus": "X"})
    assert field_from_doc({"p": 2, "m": 4, "modulus": "X^4+X+1"}).q == 16


def test_field_doc_degree_above_64_is_refused_before_its_modulus_is_read(
        monkeypatch):
    # the degree-65 modulus is irreducible; reading it would start the
    # irreducibility test, whose cost grows as the cube of m
    def no_parse(*args):
        raise AssertionError("the modulus text was parsed")

    monkeypatch.setattr(serialize, "poly_from_text", no_parse)
    for m in (65, 8192):
        with pytest.raises(TooLarge):
            field_from_doc({"p": 2, "m": m, "modulus": "X^65+X^18+1"})


def test_prime_field_doc_round_trip_from_any_modulus():
    field = field_new(2, 1, (1, 1))
    assert field_to_doc(field) == field_to_doc(F2)
    assert field_from_doc(field_to_doc(field)) == field == F2


# ---------------------------------------------------------------------------
# basis and matrix documents
# ---------------------------------------------------------------------------

def small_reduced_basis():
    gen = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    return rgb_pot_reduce(gen)


def test_basis_doc_round_trip():
    b = small_reduced_basis()
    doc = basis_to_doc(b)
    assert doc["ell"] == 2 and doc["m"] == 3
    assert doc["rows"] == [["X+1", "X^2+X"], ["0", "X^3+1"]]
    assert basis_from_doc(doc) == b


def test_basis_doc_row_count_enforced():
    doc = basis_to_doc(small_reduced_basis())
    doc["rows"] = doc["rows"][:1]
    with pytest.raises(PolyParseError):
        basis_from_doc(doc)
    doc2 = basis_to_doc(small_reduced_basis())
    doc2["rows"][0] = ["X+1"]
    with pytest.raises(PolyParseError):
        basis_from_doc(doc2)
    doc3 = basis_to_doc(small_reduced_basis())
    doc3["rows"][0][0] = 7
    with pytest.raises(PolyParseError):
        basis_from_doc(doc3)


def test_generating_matrix_doc_round_trip():
    gen = GeneratingMatrix(F3, 2, 4, [
        [Poly(F3, (1, 2)), Poly.zero(F3)],
        [Poly.one(F3), Poly(F3, (0, 0, 1))],
        [Poly(F3, (2,)), Poly(F3, (1, 1))],
    ])
    doc = generating_matrix_to_doc(gen)
    assert len(doc["rows"]) == 3           # any row count, unlike a basis
    assert generating_matrix_from_doc(doc) == gen


def test_generating_matrix_doc_accepts_empty_rows():
    gen = GeneratingMatrix(F2, 2, 5)
    assert generating_matrix_from_doc(generating_matrix_to_doc(gen)) == gen


# ---------------------------------------------------------------------------
# cyclic code documents
# ---------------------------------------------------------------------------

CYCLIC_DOC = {"m": 7, "field": {"p": 2, "m": 1, "modulus": "X"}, "generator": "X^3+X+1"}


def test_cyclic_doc_round_trip():
    code = cyclic_from_doc(CYCLIC_DOC)
    assert code == cyclic_code_new(7, poly_from_text(F2, "X^3+X+1"))
    assert {"m": code.m, "field": field_to_doc(code.field),
            "generator": poly_to_text(code.g)} == CYCLIC_DOC


def test_cyclic_doc_validation():
    with pytest.raises(PolyParseError):
        cyclic_from_doc({"m": 7, "field": {"p": 2, "m": 1, "modulus": "X"}})


def _int_fields():
    """(reader, document, key) for every int field of every document."""
    field = {"p": 2, "m": 1, "modulus": "X"}
    matrix = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    for reader, doc, keys in (
            (basis_from_doc, basis_to_doc(small_reduced_basis()), ("ell", "m")),
            (generating_matrix_from_doc, generating_matrix_to_doc(matrix), ("ell", "m")),
            (field_from_doc, field, ("p", "m")),
            (cyclic_from_doc, CYCLIC_DOC, ("m",))):
        for key in keys:
            yield pytest.param(reader, doc, key, id=f"{reader.__name__}-{key}")


@pytest.mark.parametrize("value", (True, False))
@pytest.mark.parametrize("reader, doc, key", list(_int_fields()))
def test_json_booleans_are_not_read_as_ints(reader, doc, key, value):
    # JSON true and false load as Python bools, which are ints
    assert reader(doc) is not None
    with pytest.raises(PolyParseError, match=f"'{key}' has the wrong type"):
        reader(dict(doc, **{key: value}))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def test_canonical_json_is_deterministic():
    doc_a = {"m": 3, "ell": 2, "rows": [["X", "0"]]}
    doc_b = {"rows": [["X", "0"]], "ell": 2, "m": 3}
    assert canonical_json(doc_a) == canonical_json(doc_b)
    assert canonical_json(doc_a) == '{"ell":2,"m":3,"rows":[["X","0"]]}'


def test_emitted_documents_round_trip_byte_exactly():
    rng = random.Random(99)
    for _ in range(20):
        field = rng.choice((F2, F3, F4))
        ell = rng.randrange(1, 4)
        m = rng.randrange(2, 7)
        rows = [[Poly(field, [rng.randrange(field.q) for _ in range(m)])
                 for _ in range(ell)] for _ in range(rng.randrange(3))]
        gen = GeneratingMatrix(field, ell, m, rows)
        text = canonical_json(generating_matrix_to_doc(gen))
        reparsed = generating_matrix_from_doc(json.loads(text))
        assert canonical_json(generating_matrix_to_doc(reparsed)) == text
