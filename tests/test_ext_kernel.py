"""The extension-field kernel's q x q tables against the `Field`-call loops
they replaced (`kernelref`), and the bound of the tables' cache.

Up to 256 elements `polyring._EXT` reads multiplication and addition
tables and an inverse list, built once per field from the field's own exp
and log tables; beyond, the same loops make one `Field` call per lookup.
Sums, differences, products, divisions, Euclid's loop and the fold modulo
X^m - 1 are compared on derandomised hypothesis draws over GF(8), GF(9),
GF(16), GF(25), GF(27), GF(256) and GF(3^6), which must keep its `Field`
calls.  The divisors include constants and divisors as long as the
dividend.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import kernelref as ref
from qcproduct import Field, field_of_order
from qcproduct import polyring
from qcproduct.polyring import _EXT

FIELDS = {q: field_of_order(q) for q in (8, 9, 16, 25, 27, 256, 729)}


def codes(q, longest, lead=None):
    """Code lists of up to longest codes without trailing zeros; with lead,
    exactly longest codes ending in lead."""
    if lead is not None:
        return st.lists(st.integers(0, q - 1), min_size=longest - 1,
                        max_size=longest - 1).map(lambda c: c + [lead])
    return st.lists(st.integers(0, q - 1), max_size=longest).map(ref._strip)


def _record_field_calls(monkeypatch) -> list:
    calls = []
    for name in ("mul", "add", "sub", "neg", "inv"):
        original = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda self, *args, _o=original, _n=name:
                            calls.append(_n) or _o(self, *args))
    return calls


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(FIELDS)))
def test_table_kernel_matches_field_call_loops(data, q):
    f = FIELDS[q]
    a, b = data.draw(codes(q, 40)), data.draw(codes(q, 40))
    assert _EXT.add(f, a, b) == ref.add_ext(f, a, b)
    assert _EXT.sub(f, a, b) == ref.sub_ext(f, a, b)
    assert _EXT.mul(f, a, b) == ref.mul_ext(f, a, b)
    lead = data.draw(st.integers(1, q - 1))
    for d in (data.draw(st.integers(1, 20).flatmap(lambda n: codes(q, n, lead))), [lead],
              data.draw(codes(q, max(len(a), 1), lead))):
        assert _EXT.divmod(f, a, d) == ref.divmod_ext(f, a, d)
    if a or b:  # Euclid's loop on the rows (a, 1, 0) and (b, 0, 1), and the fold
        rows = [a, [1], []], [b, [], [1]]
        assert list(_EXT.euclid(f, *rows, 3, 0)) == list(ref.euclid_codes(f, *rows))
    m = data.draw(st.integers(1, 12))
    assert _EXT.fold(f, a, m) == ref.fold_codes(f, dict(enumerate(a)), m)


def test_fields_beyond_256_elements_keep_field_calls(monkeypatch):
    f = FIELDS[729]
    polyring._ext_tables.clear()
    calls = _record_field_calls(monkeypatch)
    got = _EXT.mul(f, [5, 0, 700], [1, 2])
    assert set(calls) == {"mul", "add"} and not polyring._ext_tables
    monkeypatch.undo()
    assert got == ref.mul_ext(f, [5, 0, 700], [1, 2])


def test_tables_are_shared_by_equal_fields_without_hashing_them(monkeypatch):
    a, b = Field(3, 2), Field(3, 2)
    ops = polyring._ext_ops(a)
    monkeypatch.setattr(Field, "__hash__", lambda self: 1 / 0)
    assert polyring._ext_ops(b) is ops
    assert _EXT.mul(b, [1, 2], [3, 4]) == ref.mul_ext(b, [1, 2], [3, 4])


def test_table_cache_is_bounded():
    # more fields than the cache holds: it never grows past its bound, and
    # a field whose tables were dropped gets them built again, equal
    polyring._ext_tables.clear()
    orders = (8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256)
    assert len(orders) > polyring._EXT_TABLE_FIELDS
    first = polyring._ext_ops(FIELDS[8])
    for q in orders:
        f = field_of_order(q)
        assert _EXT.mul(f, [1, q - 1], [q - 2, 1]) == ref.mul_ext(f, [1, q - 1], [q - 2, 1])
        assert len(polyring._ext_tables) <= polyring._EXT_TABLE_FIELDS
    again = polyring._ext_ops(FIELDS[8])
    assert again is not first and again[:2] == first[:2]
