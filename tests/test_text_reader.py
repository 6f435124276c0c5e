"""The polynomial text reader against its one-scan reference
(`tests/textref.py`), and the bounds of its memo of term texts.

The reader splits sparse text at its signs and looks each term text up in
a per-process memo (`field._terms`) before the term pattern reads it.
Over the reader's alphabet, ASCII whitespace, Arabic-Indic digits and
exponents with leading zeros or beyond the limit, it must give the
reference's tuple, or raise PolyParseError with the reference's message,
with the memo cleared and warm alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textref
from qcproduct import PolyParseError, field_new, field_of_order, poly_from_text
from qcproduct import field as fieldmod
from qcproduct.field import _TERM_MEMO, _TERM_MEMO_KEY, poly_text_to_coeffs

# single characters, and tokens that reach the exponent bound and the
# leading-zero rule in one draw
PIECES = list("0123456789Xx^*+-, ") + list(" \t\n\r\v\f") + list("٠١٢٣٩") + [
    "X^0000001", "X^1048577", "X^1048576", "2*X^", "-X", "X^2", "00"]


def _outcome(read, text):
    try:
        return read(text)
    except PolyParseError as exc:
        return PolyParseError, str(exc)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=16).map("".join))
def test_reader_matches_the_scan(text):
    want = _outcome(textref.poly_text_to_coeffs, text)
    fieldmod._terms.clear()
    assert _outcome(poly_text_to_coeffs, text) == want  # cold
    assert _outcome(poly_text_to_coeffs, text) == want  # warm


@settings(derandomize=True, max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9]),
       text=st.lists(st.sampled_from(PIECES[:20] + ["X^2", "-X", "8*X", "-3"]),
                     max_size=12).map("".join))
def test_field_reader_matches_the_scan(q, text):
    # poly_from_text's range check names the first coefficient outside
    # (-q, q), and negatives fold through field negation
    field = field_of_order(q)
    assert _outcome(lambda t: poly_from_text(field, t).coeffs, text) \
        == _outcome(lambda t: textref.poly_from_text(field, t), text)


@pytest.mark.parametrize("text", [
    "X^2+X+1", "-X^3+2*X-1", "3X^2+x", "X^2 + X^2", "X^\t7-\n5", "X^0003+1",
    "X^1048576+X^1048576", "2*X^٣+٧", "X^^2", "X+", "X^1048577", "1" * 40,
    "7" * 5000 + "*X", "X^2 +1", "+*X", "-",
])
def test_memo_warm_and_cleared_agree(text):
    fieldmod._terms.clear()
    cold = _outcome(poly_text_to_coeffs, text)
    assert cold == _outcome(textref.poly_text_to_coeffs, text)
    assert _outcome(poly_text_to_coeffs, text) == cold
    fieldmod._terms.clear()
    assert _outcome(poly_text_to_coeffs, text) == cold


def test_memo_entries_stay_at_or_below_the_bound():
    fieldmod._terms.clear()
    sizes = []
    for k in range(1, 3 * _TERM_MEMO):
        assert poly_text_to_coeffs(f"X^{k}") == (0,) * k + (1,)
        sizes.append(len(fieldmod._terms))
    assert max(sizes) == _TERM_MEMO
    assert all(len(term) <= _TERM_MEMO_KEY for term in fieldmod._terms)


def test_overlong_term_is_read_but_not_kept():
    fieldmod._terms.clear()
    term = "0" * _TERM_MEMO_KEY + "5*X^2"  # accepted, longer than the key bound
    assert poly_text_to_coeffs(term) == (0, 0, 5)
    assert poly_text_to_coeffs(f"X+{term}") == (0, 1, 5)
    assert term not in fieldmod._terms and "X" in fieldmod._terms
    short = "0" * (_TERM_MEMO_KEY - 5) + "5*X^2"
    assert poly_text_to_coeffs(short) == (0, 0, 5)
    assert fieldmod._terms[short] == (2, 5)


@pytest.mark.parametrize("bad", ["X^1048577", "X^^2", "2*", "X^2junk", "*5"])
def test_refused_term_is_refused_again(bad):
    fieldmod._terms.clear()
    for _ in range(3):
        with pytest.raises(PolyParseError) as exc:
            poly_text_to_coeffs(f"X+{bad}+1")
        assert str(exc.value) == _outcome(textref.poly_text_to_coeffs, f"X+{bad}+1")[1]
    assert bad not in fieldmod._terms


def test_error_names_the_place_after_earlier_terms():
    # the position counts the "+" of each positive term before the bad
    # one, and the "-X" that the pattern reads of it; a range error names
    # the out-of-range coefficient of the lowest exponent
    with pytest.raises(PolyParseError,
                       match=r"no term at '\^\^3\+1' in 'X\+X\^2-X\^\^3\+1'"):
        poly_text_to_coeffs("X+X^2-X^^3+1")
    with pytest.raises(PolyParseError,
                       match=r"coefficient 5 outside the code range of GF\(5\)"):
        poly_from_text(field_new(5), "X^3+7*X^2+5*X")  # ascending: 5 first
