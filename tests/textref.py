"""Polynomial text read in one left-to-right scan: the tests' reference for
`qcproduct.field.poly_text_to_coeffs`.

`poly_text_to_coeffs` matches the package's signed-term pattern at the
scan position once per term, with no memo, and checks each exponent and
coefficient where it stands.  It shares only the term pattern, its
bounds and `_parse_int` with the package.
"""

from qcproduct.errors import PolyParseError
from qcproduct.field import (
    _DENSE_RE,
    _MAX_EXPONENT,
    _MAX_EXPONENT_DIGITS,
    _OTHER_WHITESPACE,
    _TERM_RE,
    _parse_int,
)


def poly_text_to_coeffs(text: str) -> tuple[int, ...]:
    """The ascending raw coefficients of either text format, or
    PolyParseError naming the first place where no signed term starts."""
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    if _DENSE_RE.match(s):
        try:
            coeffs = [int(part.strip()) for part in s.split(",")]
        except ValueError as exc:
            raise PolyParseError(f"bad dense coefficient list: {text!r}") from exc
        return tuple(coeffs)
    compact = s.replace(" ", "").replace("x", "X")
    if not compact.isprintable():
        compact = compact.translate(_OTHER_WHITESPACE)
    if compact[0] not in "+-":
        compact = "+" + compact
    acc: dict[int, int] = {}
    pos, end, match = 0, len(compact), _TERM_RE.match
    while pos < end:
        mt = match(compact, pos)
        if not mt or not (mt[2] or mt[3]):
            raise PolyParseError(f"no term at {compact[pos:pos + 12]!r} in {text!r}")
        sign, coeff, x, digits = mt.groups()
        coeff = _parse_int(coeff) if coeff else 1
        if digits is None:
            exp = 1 if x else 0
        else:
            digits = digits.lstrip("0")
            if len(digits) > _MAX_EXPONENT_DIGITS or int(digits or 0) > _MAX_EXPONENT:
                raise PolyParseError(
                    f"exponent in {mt[0]!r} exceeds the limit {_MAX_EXPONENT}")
            exp = int(digits or 0)
        acc[exp] = acc.get(exp, 0) + (-coeff if sign == "-" else coeff)
        pos = mt.end()
    out = [0] * (max(acc) + 1)
    for exp, coeff in acc.items():
        out[exp] = coeff
    return tuple(out)


def poly_from_text(field, text: str) -> tuple[int, ...]:
    """The codes of the polynomial `serialize.poly_from_text` reads from
    text over field, each coefficient checked and negated on its own."""
    q, neg = field.q, field.neg
    codes = []
    for c in poly_text_to_coeffs(text):
        if not -q < c < q:
            raise PolyParseError(f"coefficient {c} outside the code range of GF({q})")
        codes.append(neg(-c) if c < 0 else c)
    while codes and codes[-1] == 0:
        codes.pop()
    return tuple(codes)
