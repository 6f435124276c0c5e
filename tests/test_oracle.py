"""Tests for the linear-algebra ground-truth checks: basis expansion,
exhaustive minimum distance, shift closure, and membership."""

import functools
import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcproduct import (
    DegreeMismatch,
    FieldMismatch,
    GeneratingMatrix,
    LinearCodeView,
    OneLevelCode,
    Poly,
    PolyVector,
    RankMismatch,
    RgbPotBasis,
    ShapeMismatch,
    TooLarge,
    bezout_pair,
    cyclic_code_new,
    cyclotomic_coset,
    expand_to_linear,
    field_new,
    field_of_order,
    fold_mod_xm1,
    is_quasi_cyclic,
    level,
    min_distance,
    minimal_polynomial,
    one_level_product_rgb,
    poly_from_text,
    reduce_vector,
    rgb_pot_reduce,
    unreduced_product_basis,
    x_pow_minus_one,
)
from qcproduct import oracle
from qcproduct.cli import main as cli_main
import packref
from paper_maps import components, in_product, interleave, matrix, span_rref
from rref import _rref
from test_golden_cli import CASES, GOLDEN

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F9 = field_new(3, 2)
F5 = field_new(5)


def one_level_view(field, g_text, m, fs=(), ell=1):
    code = OneLevelCode(poly_from_text(field, g_text), list(fs), ell, m)
    return expand_to_linear(code.basis())


# ---------------------------------------------------------------------------
# LinearCodeView and expansion
# ---------------------------------------------------------------------------

def test_linear_view_validation():
    v = LinearCodeView(F2, [[1, 0, 1], [0, 1, 1]])
    assert (v.n, v.k) == (3, 2)
    assert v.matrix == ((1, 0, 1), (0, 1, 1))
    with pytest.raises(TypeError):
        v.matrix[0][0] = 0  # rows are tuples: the matrix is read-only
    with pytest.raises(RankMismatch):
        LinearCodeView(F2, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(FieldMismatch):
        LinearCodeView(F2, [[2, 0]])
    with pytest.raises(ShapeMismatch):
        LinearCodeView(F2, [1, 0, 1])
    with pytest.raises(ShapeMismatch):
        LinearCodeView(F2, [[1, 0, 1], [0, 1]])
    with pytest.raises(ShapeMismatch):
        LinearCodeView(F2, [[1, 0, 1]], 4)
    for n in (None, 2.5, "3", -1):  # a matrix without rows needs n >= 0
        with pytest.raises(ShapeMismatch):
            LinearCodeView(F2, [], n)
    with pytest.raises(ShapeMismatch):
        LinearCodeView(F2, [[1, 0]], 2.0)
    with pytest.raises(AttributeError):
        v.packed[1].append(0)  # the packing is read-only too
    assert v.ell is None and LinearCodeView(F2, v.matrix, ell=3).ell == 3
    for ell in (0, 2, -2, 2.5, "3"):  # ell must be an integer >= 1 dividing n
        with pytest.raises(ShapeMismatch):
            LinearCodeView(F2, [[1, 0, 1], [0, 1, 1]], ell=ell)

    class Three:
        def __index__(self):
            return 3

    assert type(LinearCodeView(F2, v.matrix, ell=Three()).ell) is int
    assert is_quasi_cyclic(v, Three())


@st.composite
def dependent_matrices(draw):
    """(field, k x n rows) over GF(2), GF(3), GF(4) or GF(9): random rows,
    or the orbit of a random word under the shift by some ell dividing n;
    then some rows become another row plus a multiple of a third, so many
    matrices are rank-deficient."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    n = draw(st.integers(1, 12))
    codes = st.integers(0, field.q - 1)
    word = st.lists(codes, min_size=n, max_size=n)
    if draw(st.booleans()):
        rows = draw(st.lists(word, min_size=1, max_size=6))
    else:
        ell = draw(st.sampled_from([e for e in range(1, n + 1) if not n % e]))
        w = draw(word)
        rows = [w[n - t:] + w[:n - t] for t in range(0, n, ell)][:6]
    others = st.integers(0, len(rows) - 1)
    for i in draw(st.lists(others, max_size=2, unique=True)):
        j, l, c = draw(others), draw(others), draw(codes)
        if i not in (j, l):
            rows[i] = [field.add(a, field.mul(c, b))
                       for a, b in zip(rows[j], rows[l])]
    return field, rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dependent_matrices())
def test_packed_elimination_matches_rref(case):
    field, rows = case
    n = len(rows[0])
    basis = _rref(field, rows)[0]
    if len(basis) < len(rows):
        with pytest.raises(RankMismatch):
            LinearCodeView(field, rows)
    else:
        basis = rows
    view = LinearCodeView(field, basis, n)
    assert view.k == len(basis)
    # the systematic words g_a, read back as codes, are the RREF itself
    (bits, width), (words, _) = oracle._layout(field.p, field.m), view.packed
    digit = (1 << bits) - 1
    assert [[sum((g >> i * width + t * bits & digit) * field.p ** t
                 for t in range(field.m)) for i in range(n)]
            for g in words[::field.m]] == _rref(field, basis)[0]
    for ell in (e for e in range(1, n + 1) if not n % e):
        shifted = [row[-ell:] + row[:-ell] for row in basis]
        closed = len(_rref(field, [*basis, *shifted])[0]) == view.k
        assert is_quasi_cyclic(view, ell) == closed


# q <= 256 packs through tables of numerals (GF(2^8), GF(3^5) and GF(7^2) at
# and under that boundary; GF(11^2) and GF(251) with 6- and 10-bit slots),
# and GF(257) and GF(3^6) format each position on its own
PACKING_FIELDS = tuple(map(field_of_order, (
    2, 3, 4, 5, 8, 9, 25, 27, 2 ** 8, 3 ** 5, 7 ** 2, 11 ** 2, 251, 257, 3 ** 6)))


@st.composite
def code_matrices(draw):
    """(field, n, rows): up to five random rows of n codes over one of
    PACKING_FIELDS, and sometimes a sixth that depends on the first two."""
    field = draw(st.sampled_from(PACKING_FIELDS))
    n = draw(st.integers(1, 10))
    codes = st.integers(0, field.q - 1)
    rows = draw(st.lists(st.lists(codes, min_size=n, max_size=n), max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(codes)
        rows.append([field.add(a, field.mul(c, b))
                     for a, b in zip(rows[0], rows[1])])
    return field, n, rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(code_matrices())
def test_packing_matches_digit_by_digit_reference(case):
    field, _, rows = case
    assert oracle._packed_rows(field, rows) == packref.packed_rows(field, rows)


@pytest.mark.parametrize("field", PACKING_FIELDS, ids=lambda f: f"q{f.q}")
def test_packing_of_every_code_matches_reference(field):
    rows = [list(range(field.q)), list(range(field.q))[::-1]]
    assert oracle._packed_rows(field, rows) == packref.packed_rows(field, rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 8),
       st.data())
def test_weight_of_a_sum_is_the_distance_to_the_negation(p, m, n, data):
    # weight(x + y) = support(-x XOR y).bit_count(), against digit-by-digit
    # sums, with y = -x in some positions: a zero digit of x there must
    # negate to 0
    bits, width = oracle._layout(p, m)
    low, guard, add, neg, lightest = oracle._slot_ops(p, m, n)
    digits = st.lists(st.integers(0, p - 1), min_size=n * m, max_size=n * m)
    x, y = data.draw(digits), data.draw(digits)
    for i in data.draw(st.sets(st.integers(0, n - 1))):
        y[i * m:i * m + m] = [-d % p for d in x[i * m:i * m + m]]
    px, py = (sum(d << i // m * width + i % m * bits for i, d in enumerate(v))
              for v in (x, y))
    weight = sum(any((a + b) % p for a, b in zip(x[i * m:i * m + m], y[i * m:i * m + m]))
                 for i in range(n))
    assert lightest(neg(px), [py]) == weight
    assert (add(px, py) + low & guard).bit_count() == weight == packref.weight(
        p, m, n, add(px, py))


def test_elimination_over_a_prime_near_2_31_is_bounded():
    # a pivot's multiple -d * pivot is formed by doubling only for the slot
    # values d that occur, never for all p - 1 of them
    f = field_new(2147483647)
    rows = [[3, 1, 4, 1, 0], [5, 9, 2, 6, 5], [f.q - 1, 5, 3, 5, f.q - 2]]
    b = RgbPotBasis(f, 1, 2, [[Poly(f, (1, 1))]])
    start = time.perf_counter()
    view = LinearCodeView(f, rows)
    assert is_quasi_cyclic(expand_to_linear(b), 1)
    assert time.perf_counter() - start < 2.0
    _, words, slots = packref.systematic(f.p, 1, 5, packref.packed_rows(f, rows))
    assert view.packed == (tuple(words), tuple(slots))


def test_clearing_forms_each_pivots_doublings_once(monkeypatch):
    # over GF(2^31 - 1), row X + 3 clears with digits other than 1 and
    # p - 1: each new pivot's doublings are formed once, not once for every
    # word it clears (which took 698,470 slot adds); row X + 1 clears with
    # digits 1 and p - 1 alone and forms none (7,569 adds; 12,819 when every
    # pivot's doublings were formed whether used or not)
    f, adds, slot_ops = field_new(2147483647), [0], oracle._slot_ops

    def counting(p, m, n):
        low, guard, add, neg, lightest = slot_ops(p, m, n)

        def counted(x, y):
            adds[0] += 1
            return add(x, y)
        return low, guard, counted, neg, lightest

    monkeypatch.setattr(oracle, "_slot_ops", counting)
    for c, ceiling in ((3, 300_000), (1, 10_000)):
        adds[0] = 0
        oracle._reducer.cache_clear()
        try:
            view = expand_to_linear(RgbPotBasis(f, 1, 176, [[Poly(f, (c, 1))]]))
        finally:
            oracle._reducer.cache_clear()
        assert view.k == 175
        assert 0 < adds[0] < ceiling


@st.composite
def triangular_bases(draw, fields=(F2, F3, F4, F5, F9)):
    """An upper-triangular basis over one of the fields, by default GF(2),
    GF(3), GF(4), GF(5) or GF(9), with ell <= 3 and m <= 6: each diagonal
    entry X^m - 1 or a random polynomial of degree at most m, and entries
    above it of degree up to 2m, zero ones included."""
    field = draw(st.sampled_from(fields))
    ell, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    codes = st.integers(0, field.q - 1)
    matrix = []
    for i in range(ell):
        if draw(st.booleans()):
            diagonal = x_pow_minus_one(field, m)
        else:
            diagonal = Poly(field, draw(st.lists(codes, max_size=m))
                            + [draw(st.integers(1, field.q - 1))])
        matrix.append([Poly.zero(field)] * i + [diagonal] + [
            Poly(field, draw(st.lists(codes, max_size=2 * m + 1)))
            for _ in range(ell - i - 1)])
    return RgbPotBasis(field, ell, m, matrix)


@st.composite
def expanded_matrices(draw):
    """(field, n, rows): the k rows X^t * (row i) of `expand_to_linear` on
    a triangular basis over GF(4), GF(9) or GF(25), so k*m rotated packed
    words with m = 2."""
    view = expand_to_linear(draw(triangular_bases((F4, F9, field_of_order(25)))))
    return view.field, view.n, [list(row) for row in view.matrix]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(code_matrices(), expanded_matrices()), st.data())
def test_elimination_matches_doubling_reference(case, data):
    # the same pivots, words and slots with no, some and every position
    # covered, from the rows in their order and shuffled: the echelon form
    # for one column order does not depend on the order of the rows
    field, n, rows = case
    p, m = field.p, field.m
    words = packref.packed_rows(field, rows)
    shuffled = data.draw(st.permutations(words))
    width = oracle._layout(p, m)[1]
    positions = data.draw(st.sets(st.integers(0, n - 1)))
    for cov in {sum(1 << (i * width + width - 1) for i in s)
                for s in ((), positions, range(n))}:
        want = packref.systematic(p, m, n, words, cov)
        assert oracle._systematic(p, m, n, words, cov) == want
        assert oracle._systematic(p, m, n, shuffled, cov) == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(triangular_bases())
def test_expansion_by_rotation_matches_the_public_constructor(b):
    # rows X^t * (row i), reduced mod X^m - 1 by division, through
    # LinearCodeView: the same view, packed words and pivots included
    f, ell, m = b.field, b.ell, b.m
    xm1 = x_pow_minus_one(f, m)
    rows = []
    for i, entries in enumerate(b.matrix):
        for t in range(m - entries[i].degree):
            row = [0] * (ell * m)
            for j, entry in enumerate(entries):
                shifted = entry * Poly(f, (0,) * t + (1,)) % xm1
                row[j::ell] = shifted.coeffs + (0,) * (m - len(shifted.coeffs))
            rows.append(row)
    view, want = expand_to_linear(b), LinearCodeView(f, rows, ell * m, ell)
    assert view == want
    assert view.packed == want.packed


def test_expand_small_basis_frozen():
    gen = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    v = expand_to_linear(rgb_pot_reduce(gen))
    assert v.matrix == ((1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1))
    assert (v.n, v.k, v.ell) == (6, 2, 2)


def test_expand_zero_code():
    v = expand_to_linear(rgb_pot_reduce(GeneratingMatrix(F2, 2, 3)))
    assert (v.n, v.k) == (6, 0)
    assert min_distance(v) is None


def test_expand_matches_stated_dimension_randomly():
    rng = random.Random(641)
    for _ in range(20):
        field = rng.choice((F2, F3))
        ell = rng.randrange(1, 4)
        m = rng.randrange(2, 7)
        rows = [[Poly(field, [rng.randrange(field.q) for _ in range(m)])
                 for _ in range(ell)] for _ in range(2)]
        b = rgb_pot_reduce(GeneratingMatrix(field, ell, m, rows))
        v = expand_to_linear(b)
        # LinearCodeView re-derives the rank; agreeing shapes mean the
        # polynomial dimension formula matches honest linear algebra
        assert v.n == ell * m


def test_expand_rows_are_encoded_shifts():
    # row (i, t) is the serialization of the codeword X^t * (row i),
    # computed here by polynomial products
    rng = random.Random(8)
    for field in (F2, F4, F9):
        for _ in range(6):
            ell, m = rng.randrange(1, 4), rng.randrange(2, 7)
            rows = [[Poly(field, [rng.randrange(field.q) for _ in range(m)])
                     for _ in range(ell)] for _ in range(2)]
            b = rgb_pot_reduce(GeneratingMatrix(field, ell, m, rows))
            expected = []
            for i in range(ell):
                for t in range(m - b.matrix[i][i].degree):
                    shift = Poly(field, (0,) * t + (1,))
                    expected.append(tuple(interleave(
                        [fold_mod_xm1(e * shift, m).coeffs for e in b.matrix[i]], m)))
            assert expand_to_linear(b).matrix == tuple(expected)


def test_expand_refuses_more_entries_than_its_limit(monkeypatch):
    # a [1024, 1023] code is expanded, a [2048, 2047] one is refused
    assert 1023 * 1024 <= oracle._EXPAND_LIMIT < 2047 * 2048
    b = OneLevelCode(Poly(F2, (1, 1)), [], 1, 8).basis()  # [8, 7]: 56 entries
    monkeypatch.setattr(oracle, "_EXPAND_LIMIT", 56)
    assert expand_to_linear(b).k == 7
    monkeypatch.setattr(oracle, "_EXPAND_LIMIT", 55)
    with pytest.raises(TooLarge, match="56 entries"):
        expand_to_linear(b)


def test_expand_zero_diagonal_raises_degree_mismatch():
    b = RgbPotBasis(F2, 2, 3, [[Poly(F2, (1, 1)), Poly(F2, (1,))],
                               [Poly.zero(F2), Poly.zero(F2)]])
    with pytest.raises(DegreeMismatch):
        expand_to_linear(b)


def test_expansion_does_no_work_for_degree_m_diagonals(monkeypatch):
    # rows 1 and 2 of an ell = 3 one-level basis are (X^7 - 1)e_i: they
    # yield no generator row, so neither is folded nor packed
    b = OneLevelCode(poly_from_text(F2, "X^3+X+1"),
                     [poly_from_text(F2, "X+1"), poly_from_text(F2, "X")], 3, 7).basis()
    assert [row[i].degree for i, row in enumerate(b.matrix)] == [3, 7, 7]
    packed, folded = [], []
    pack, fold = oracle._packed_rows, oracle.fold_mod_xm1

    def recording_pack(field, rows):
        packed.extend(rows)
        return pack(field, rows)

    def recording_fold(p, m):
        folded.append(p)
        return fold(p, m)

    monkeypatch.setattr(oracle, "_packed_rows", recording_pack)
    monkeypatch.setattr(oracle, "fold_mod_xm1", recording_fold)
    v = expand_to_linear(b)
    assert (v.n, v.k) == (21, 4)
    assert packed == [v.matrix[0]]
    assert folded == list(b.matrix[0])


def test_expansion_skips_a_degree_m_diagonal_that_is_not_xm_minus_1():
    # X^3 + 1 is not X^3 - 1 over GF(3); its row yields no generator row
    # either, and the view is the one written before such rows were skipped
    P = functools.partial(Poly, F3)
    b = RgbPotBasis(F3, 3, 3, [[P((2, 1)), P((1, 2)), P((0, 1))],
                               [P(()), P((1, 0, 0, 1)), P((2, 1))],
                               [P(()), P(()), P((2, 0, 1))]])
    v = expand_to_linear(b)
    assert v.matrix == ((2, 1, 0, 1, 2, 1, 0, 0, 0), (0, 0, 0, 2, 1, 0, 1, 2, 1),
                        (0, 0, 2, 0, 0, 0, 0, 0, 1))
    assert (v.n, v.k, v.ell) == (9, 3, 3)
    assert v.packed == ((2235597586497, 2199023256576, 2235532607488), (0, 10, 15))


def test_expansion_above_degree_m_still_checks_the_stated_dimension():
    # deg 4 > m = 3 on the diagonal: dimension 6 - 1 - 4 = 1, but row 0
    # expands to 2 rows
    b = RgbPotBasis(F2, 2, 3, [[Poly(F2, (1, 1)), Poly(F2, (1,))],
                               [Poly.zero(F2), Poly(F2, (1, 0, 0, 0, 1))]])
    with pytest.raises(RankMismatch, match="expanded 2 rows for stated dimension 1"):
        expand_to_linear(b)


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def test_min_distance_binary_codes():
    assert min_distance(one_level_view(F2, "X^3+X+1", 7)) == 3   # [7, 4]
    assert min_distance(one_level_view(F2, "X+1", 3)) == 2       # parity
    assert min_distance(one_level_view(F2, "X^2+X+1", 3)) == 3   # repetition


def test_min_distance_prime_field():
    v = expand_to_linear(OneLevelCode(Poly(F3, (2, 0, 1)), [], 1, 4).basis())
    assert min_distance(v) == 2


def test_min_distance_extension_fields():
    # GF(4) exercises the characteristic-2 packed walk, GF(9) the general one
    v4 = expand_to_linear(OneLevelCode(Poly(F4, (1, 1)), [], 1, 5).basis())
    assert min_distance(v4) == 2
    v9 = expand_to_linear(OneLevelCode(Poly(F9, (1, 1)), [], 1, 4).basis())
    assert min_distance(v9) == 2


def test_min_distance_row_code_golden():
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    v = expand_to_linear(OneLevelCode(m1, [f1], 2, 17).basis())
    assert (v.n, v.k) == (34, 9)
    assert min_distance(v) == 11


def test_min_distance_respects_limit():
    v = one_level_view(F2, "X^3+X+1", 7)
    with pytest.raises(TooLarge):
        min_distance(v, limit=8)
    assert min_distance(v, limit=16) == 3


def test_min_distance_reads_limit_as_an_integer():
    # a string or None raised TypeError, True was read as 1 and 2.5
    # compared as a float: each is a QcError now, whatever the search
    v = one_level_view(F2, "X^3+X+1", 7)
    for limit in ("9", None, True, 2.5, 16.0):
        with pytest.raises(TooLarge, match="limit"):
            min_distance(v, limit=limit)


def test_min_distance_matches_brute_force():
    # every field shape of the packed walk: q = 2, prime q, and extensions
    # of characteristic 2 and odd characteristic
    rng = random.Random(7253)
    fields = [field_new(p, m) for p, m in
              ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
               (5, 2), (3, 3))]
    for field in fields * 3:
        k = rng.randrange(1, 4)
        while field.q ** k > 3000:
            k -= 1
        n = rng.randrange(max(k, 4), 8)
        rows = []
        while True:
            rows = [[rng.randrange(field.q) for _ in range(n)]
                    for _ in range(k)]
            try:
                view = LinearCodeView(field, rows)
                break
            except RankMismatch:
                continue
        # independent reference: expand every message explicitly
        best = n + 1
        for msg in range(1, field.q ** k):
            digits = []
            m = msg
            for _ in range(k):
                digits.append(m % field.q)
                m //= field.q
            word = [0] * n
            for d, row in zip(digits, rows):
                if d:
                    word = [field.add(w, field.mul(d, c))
                            for w, c in zip(word, row)]
            best = min(best, sum(1 for w in word if w))
        assert min_distance(view) == best


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann against the exhaustive walk
# ---------------------------------------------------------------------------

@st.composite
def linear_codes(draw, fields=(F2, F3, F4, F9), long=False):
    """A full-rank code over one of the fields with q^k <= 2^16: [I | A]
    with its rows mixed and its columns permuted, so the search starts
    from a matrix that is not systematic on any leading block.  A long
    code has k at or one below the largest such k (4 over GF(25)) and n
    from 6k to 10k."""
    field = draw(st.sampled_from(fields))
    top = int(math.log(1 << 16, field.q) + 1e-9)
    if long:
        k = draw(st.integers(max(3, top - 1), max(4, top)))
        n = draw(st.integers(6 * k, 10 * k))
    else:
        k = draw(st.integers(1, top))
        n = draw(st.integers(k, k + 24))
    codes = st.integers(0, field.q - 1)
    rows = [[int(i == j) for j in range(k)]
            + draw(st.lists(codes, min_size=n - k, max_size=n - k))
            for i in range(k)]
    for i in range(1, k):  # add multiples of earlier rows: rank unchanged
        for j in range(i):
            c = draw(codes)
            rows[i] = [field.add(a, field.mul(c, b))
                       for a, b in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(n)))
    return LinearCodeView(field, [[row[j] for j in order] for row in rows])


def _walk(view):
    """d by the reference walk over every nonzero message."""
    f = view.field
    return packref.range_min(f.p, f.m, view.n, packref.packed_rows(f, view.matrix))


WALK_FIELDS = tuple(map(field_of_order, (2, 3, 4, 5, 8, 9, 25)))


@st.composite
def walked_rows(draw):
    """(field, n, rows): k >= 1 rows of n random codes over one of
    WALK_FIELDS with q^k <= 2^11, so not systematic and at times dependent
    (a nonzero message may then weigh 0)."""
    field = draw(st.sampled_from(WALK_FIELDS))
    k = draw(st.integers(1, int(math.log(1 << 11, field.q) + 1e-9)))
    n = draw(st.integers(1, 12))
    codes = st.integers(0, field.q - 1)
    return field, n, draw(st.lists(st.lists(codes, min_size=n, max_size=n),
                                   min_size=k, max_size=k))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(walked_rows())
@example((F9, 3, [[4, 0, 7]]))  # k = 1: a single subspace
def test_walk_takes_one_message_per_subspace(case):
    # the lightest word and the count against the reference walk, which
    # visits all q^k - 1 messages, scalar multiples included
    field, n, rows = case
    q, k = field.q, len(rows)
    words = packref.packed_rows(field, rows)
    assert oracle._range_min(field.p, field.m, n, words) == (
        packref.range_min(field.p, field.m, n, words),
        (q ** k - 1) // (q - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(linear_codes())
def test_brouwer_zimmermann_matches_exhaustive(view):
    with mock.patch.object(oracle, "_WALK_MAX", 0):  # every code takes BZ
        d, enumerated, search = oracle._distance_search(view)
    assert search == "Brouwer-Zimmermann"
    assert d == _walk(view)
    assert enumerated > 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(linear_codes(WALK_FIELDS, long=True))
def test_pair_tail_search_matches_exhaustive(view):
    # these long codes keep the lower bound below d into weight-3 blocks,
    # and weight-4 ones over GF(2), GF(3) and GF(4); the search is the same
    # with the pair tail and with its bound at 0, where every block takes
    # the one-level tail
    with mock.patch.object(oracle, "_WALK_MAX", 0):
        paired = oracle._distance_search(view)
        with mock.patch.object(oracle, "_EXPAND_LIMIT", 0):
            assert oracle._distance_search(view) == paired
    assert paired[::2] == (_walk(view), "Brouwer-Zimmermann")


@st.composite
def block_rows(draw):
    """(field, n, rows): k >= 3 random rows of n <= 10 codes over one of
    WALK_FIELDS, q^k <= 2^12 but k = 3 over GF(25)."""
    field = draw(st.sampled_from(WALK_FIELDS))
    k = draw(st.integers(3, max(3, int(math.log(1 << 12, field.q) + 1e-9))))
    n = draw(st.integers(1, 10))
    codes = st.integers(0, field.q - 1)
    return field, n, draw(st.lists(st.lists(codes, min_size=n, max_size=n),
                                   min_size=k, max_size=k))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(block_rows())
def test_weight_blocks_find_the_lightest_message_of_each_weight(case):
    # every message whose first nonzero coefficient is 1, by weight, from
    # multiples packed one at a time; each block of weight w >= 2 through
    # the one-level tail and, from w = 3, the pair tail
    field, n, rows = case
    q, k = field.q, len(rows)
    low, guard, add, neg, lightest = oracle._slot_ops(field.p, field.m, n)
    multiples = [[packref.packed_rows(field, [[field.mul(c, x) for x in row]])[0]
                  for c in range(1, q)] for row in rows]
    want = {}
    for message in itertools.product(range(q), repeat=k):
        used = [a for a in range(k) if message[a]]
        if used and message[used[0]] == 1:
            word = functools.reduce(add, (multiples[a][message[a] - 1] for a in used))
            want[len(used)] = min(want.get(len(used), n), packref.weight(field.p, field.m, n, word))
    for w in range(2, k + 1):
        for depth in (1, 2)[:w - 1]:
            tail = oracle._tail(multiples, add, depth)
            assert oracle._weight_block(multiples, tail, w, add, neg, lightest) == want[w]


def _binary_code(k, n=24, seed=0):
    """A random full-rank [n, k] code over GF(2): [I | A]."""
    rng = random.Random(seed)
    return LinearCodeView(F2, [[int(i == j) for j in range(k)]
                               + [rng.randrange(2) for _ in range(n - k)]
                               for i in range(k)])


def test_min_distance_walks_codes_of_at_most_2_to_the_10_messages():
    # the golden [34, 9] row code (q^k = 512) keeps the walk and its count
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    v = expand_to_linear(OneLevelCode(m1, [f1], 2, 17).basis())
    assert (v.n, v.k) == (34, 9)
    assert oracle._distance_search(v) == (11, 511, "exhaustive")
    walked = oracle._distance_search(_binary_code(10))
    assert walked[1:] == (1023, "exhaustive")
    d, _, search = oracle._distance_search(_binary_code(11))
    assert search == "Brouwer-Zimmermann"
    assert d == _walk(_binary_code(11))


def test_min_distance_takes_bz_above_2_to_the_10_messages():
    m0 = minimal_polynomial(2, 17, 0)
    v = expand_to_linear(OneLevelCode(m0, [Poly(F2, (0, 1, 1))], 2, 17).basis())
    assert (v.n, v.k) == (34, 16)
    d, enumerated, search = oracle._distance_search(v)
    assert (d, search) == (4, "Brouwer-Zimmermann")
    assert enumerated < 2 ** 16 - 1


def test_limit_is_checked_before_either_search(monkeypatch):
    view = one_level_view(F2, "X^3+X+1", 7)
    monkeypatch.setattr(oracle, "_range_min", None)  # any search fails
    monkeypatch.setattr(oracle, "_brouwer_zimmermann", None)
    with pytest.raises(TooLarge):
        min_distance(view, limit=8)


def _binary_product():
    """(view, A, g_b): a [210, 30] binary product A (x) B, B cyclic with
    generator g_b, whose search enumerates one set's weight blocks 1 to 5."""
    g_a = minimal_polynomial(2, 15, 0) * minimal_polynomial(2, 15, 1)
    f1 = Poly(F2, (0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1))
    A = OneLevelCode(g_a, [f1], 2, 15)
    g_b = minimal_polynomial(2, 7, 0) * minimal_polynomial(2, 7, 1)
    B = cyclic_code_new(7, g_b)
    v = expand_to_linear(
        one_level_product_rgb(A, B, bezout_pair(2, 15, 7)).basis())
    assert (v.n, v.k) == (210, 30)
    return v, A, g_b


def test_limit_bounds_what_brouwer_zimmermann_enumerates():
    # q^k = 2^30 is past the default limit of 2^22; d(A (x) B) = d_A * d_B,
    # with d_A and d_B walked
    v, A, g_b = _binary_product()
    d_a = min_distance(expand_to_linear(A.basis()))
    d_b = min_distance(expand_to_linear(RgbPotBasis(F2, 1, 7, [[g_b]])))
    d, enumerated, search = oracle._distance_search(v)
    assert (d, search) == (d_a * d_b, "Brouwer-Zimmermann")
    assert min_distance(v) == d
    # the count is checked before each weight block, so a limit just below
    # it is refused and one at it is not
    with pytest.raises(TooLarge):
        min_distance(v, limit=enumerated - 1)
    assert min_distance(v, limit=enumerated) == d


def test_pair_tail_is_built_within_the_limit_and_its_bound(monkeypatch):
    # the one set's weight-3 block takes the pair tail only once the limit
    # admits that block, and only while the C(30, 2) pairs of 210 bits fit
    # in _EXPAND_LIMIT; the one-level tail finds the same d
    v = _binary_product()[0]
    depths, tail = [], oracle._tail
    monkeypatch.setattr(oracle, "_tail", lambda *args: depths.append(args[2]) or tail(*args))
    found = oracle._distance_search(v)
    assert depths == [1, 2]
    through3 = 30 + math.comb(30, 2) + math.comb(30, 3)
    for limit, built in ((through3 - 1, [1]), (through3, [1, 2])):
        depths.clear()
        with pytest.raises(TooLarge):
            oracle._distance_search(v, limit)
        assert depths == built
    pairs = math.comb(30, 2) * 210
    for bound, built in ((pairs - 1, [1]), (pairs, [1, 2])):
        depths.clear()
        monkeypatch.setattr(oracle, "_EXPAND_LIMIT", bound)
        assert oracle._distance_search(v) == found
        assert depths == built


def _bits_view(n, words, ell=None):
    """A binary view whose rows are the n-bit numerals of `words`,
    position 0 first."""
    return LinearCodeView(F2, [[int(b) for b in format(w, f"0{n}b")]
                               for w in words], ell=ell)


def test_sets_enumerate_every_weight_below_their_first_term():
    # a set with r new positions only adds to the bound from weight k - r,
    # but then it must have enumerated weights 1 .. k - r - 1 too: if this
    # [21, 11] code skips them, the search stops at d = 4 instead of 3
    v = _bits_view(21, (355468, 272636, 283788, 98400, 267454, 16664,
                        867344, 727246, 273096, 731583, 1413208))
    assert oracle._distance_search(v)[::2] == (3, "Brouwer-Zimmermann")
    assert _walk(v) == 3


def test_wrong_ell_is_rejected_by_the_closure_check():
    # this [22, 11] code is not closed under the shift by 1; trusting
    # ell = 1 would stop the search at d = 4
    v = _bits_view(22, (2098411, 1048911, 525574, 263428, 132290, 65965,
                        34063, 18251, 8364, 5012, 2508), ell=1)
    assert not is_quasi_cyclic(v, 1)
    assert min_distance(v) == _walk(v) == 3


@st.composite
def quasi_cyclic_codes(draw):
    """A code from `expand_to_linear` over GF(2), GF(3), GF(4) or GF(9):
    s <= ell random rows of ell polynomials of degree < m, reduced, with
    q^(s*m) <= 2^16 so that the walk stays cheap."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    ell = draw(st.integers(1, 3))
    cap = int(math.log(1 << 16, field.q) + 1e-9)
    s = draw(st.integers(1, min(ell, cap // 2)))
    m = draw(st.integers(2, cap // s))
    codes = st.integers(0, field.q - 1)
    rows = [[Poly(field, draw(st.lists(codes, min_size=m, max_size=m)))
             for _ in range(ell)] for _ in range(s)]
    return expand_to_linear(rgb_pot_reduce(GeneratingMatrix(field, ell, m, rows)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(quasi_cyclic_codes())
def test_orbit_search_matches_exhaustive(view):
    assert is_quasi_cyclic(view, view.ell)
    if view.k:
        with mock.patch.object(oracle, "_WALK_MAX", 0):  # every code takes BZ
            d, _, search = oracle._distance_search(view)
        assert search == "Brouwer-Zimmermann"
        assert d == _walk(view)


def _random_divisor(field, m, rng):
    """A random proper divisor of X^m - 1 of positive degree, the product
    of the minimal polynomials of some cyclotomic cosets."""
    reps, seen = [], set()
    for i in range(m):
        if i not in seen:
            seen.update(cyclotomic_coset(field.q, m, i))
            reps.append(i)
    while True:
        picked = [i for i in reps if rng.random() < 0.5]
        g = Poly.one(field)
        for i in picked:
            g = g * minimal_polynomial(field.q, m, i)
        if 0 < g.degree < m:
            return g


def _traced_views():
    """The views of the pinned search trace: for each (field, ell_a, m_a,
    m_b), a random one-level row code A, a cyclic column code B and their
    product with q^k from 2^10 to 2^18, expanded; then the first GF(2)
    product with a wrong ell = 1."""
    rng = random.Random(3601)
    views = []
    for field, ell, m_a, m_b in (
            (F2, 2, 7, 5), (F2, 2, 15, 7), (F2, 3, 5, 7), (F2, 2, 9, 5),
            (F3, 2, 4, 13), (F3, 3, 8, 5), (F4, 2, 5, 7), (F4, 3, 7, 5),
            (F4, 3, 3, 5), (F9, 2, 2, 5), (F9, 3, 2, 7)):
        while True:
            g_a, g_b = _random_divisor(field, m_a, rng), _random_divisor(field, m_b, rng)
            if 1 << 10 < field.q ** ((m_a - g_a.degree) * (m_b - g_b.degree)) <= 1 << 18:
                break
        A = OneLevelCode(g_a, [Poly(field, [rng.randrange(field.q) for _ in range(m_a)])
                               for _ in range(ell - 1)], ell, m_a)
        B = cyclic_code_new(m_b, g_b)
        prod = one_level_product_rgb(A, B, bezout_pair(ell, m_a, m_b))
        views += map(expand_to_linear, (A.basis(), RgbPotBasis(field, 1, m_b, [[g_b]]),
                                        prod.basis()))
    return views + [LinearCodeView(F2, views[2].matrix, ell=1)]


# (d, messages, search) of `_distance_search` on each of `_traced_views()`,
# then (d, messages) with every code taking Brouwer-Zimmermann, written with
# the Gauss-Jordan elimination that insertion into a reduced basis replaced
BZ = "Brouwer-Zimmermann"
SEARCH_TRACE = [
    (8, 7, "exhaustive", 8, 6), (2, 15, "exhaustive", 2, 4), (16, 298, BZ, 16, 298),
    (16, 15, "exhaustive", 16, 10), (3, 15, "exhaustive", 3, 8), (48, 968, BZ, 48, 968),
    (6, 15, "exhaustive", 6, 8), (4, 7, "exhaustive", 4, 3), (24, 298, BZ, 24, 298),
    (6, 7, "exhaustive", 6, 3), (2, 15, "exhaustive", 2, 4), (12, 12, BZ, 12, 12),
    (2, 4, "exhaustive", 2, 2), (7, 40, "exhaustive", 7, 16), (14, 64, BZ, 14, 64),
    (18, 4, "exhaustive", 18, 2), (2, 40, "exhaustive", 2, 4), (36, 80, BZ, 36, 80),
    (8, 5, "exhaustive", 8, 2), (4, 21, "exhaustive", 4, 3), (32, 51, BZ, 32, 51),
    (14, 21, "exhaustive", 14, 3), (3, 21, "exhaustive", 3, 6), (42, 873, BZ, 42, 873),
    (3, 5, "exhaustive", 3, 2), (3, 21, "exhaustive", 3, 6), (9, 6, BZ, 9, 6),
    (4, 1, "exhaustive", 4, 1), (2, 4, BZ, 2, 4), (8, 4, BZ, 8, 4),
    (6, 1, "exhaustive", 6, 1), (4, 56, BZ, 4, 56), (24, 60, BZ, 24, 60),
    (16, 468, BZ, 16, 468),
]


def test_search_trace_is_pinned():
    # the information sets, their shifts and so every count of either
    # search follow from the systematic matrices: they must not move
    views = _traced_views()
    assert not is_quasi_cyclic(views[-1], views[-1].ell)
    trace = []
    for view in views:
        found = oracle._distance_search(view)
        with mock.patch.object(oracle, "_WALK_MAX", 0):
            trace.append((*found, *oracle._distance_search(view)[:2]))
    assert trace == SEARCH_TRACE


def test_word_toolkit_caches_are_bounded_and_hold_no_state(capsys):
    # 34 lengths, more than the caches keep: each [m, m - 1] even-weight
    # code is expanded, closure-tested and searched
    for m in range(2, 36):
        v = expand_to_linear(OneLevelCode(Poly(F2, (1, 1)), [], 1, m).basis())
        assert is_quasi_cyclic(v, 1) and min_distance(v) == 2
    for cached in (oracle._slot_ops, oracle._reducer, oracle._ruler):
        info = cached.cache_info()
        assert info.currsize <= info.maxsize == 32
    # a [9, 3, 7] code over GF(65521) reaches weight 2, whose row multiples
    # count along a 65,520-step ruler: it is built, not kept
    oracle._ruler.cache_clear()
    rs = LinearCodeView(field_new(65521), [[1, 0, 0, 1, 1, 1, 1, 1, 1],
                                           [0, 1, 0, 1, 2, 3, 4, 5, 6],
                                           [0, 0, 1, 1, 4, 9, 16, 25, 36]])
    d, enumerated, _ = oracle._distance_search(rs)
    assert d == 7 and enumerated > 3
    assert oracle._ruler.cache_info().currsize == 0
    # the golden mindist and verify outputs, twice in one process, the
    # second time in reverse order: a reused toolkit changes no byte
    names = sorted(n for n, args in CASES.items() if args[0] in ("mindist", "verify"))
    for name in names + names[::-1]:
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]
        assert cli_main(["--format", "json", *argv]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / f"{name}.out.json").read_bytes(), name


@pytest.mark.parametrize("field, shapes", [
    (F2, ((2, 3, 7), (2, 7, 5), (3, 5, 7), (2, 9, 5), (2, 5, 9))),
    (F3, ((2, 4, 5), (2, 5, 7), (3, 4, 5), (2, 8, 5))),
    (F4, ((2, 5, 7), (3, 3, 5), (2, 7, 3))),
])
def test_product_distance_is_product_of_distances(field, shapes):
    # d(A (x) B) = d_A * d_B (MacWilliams and Sloane, ch. 18) on random
    # one-level products; min_distance takes either search on the factors
    # and the product
    rng = random.Random(2015 + field.q)
    for ell_a, m_a, m_b in shapes * 2:
        while True:
            g_a, g_b = _random_divisor(field, m_a, rng), _random_divisor(field, m_b, rng)
            k_a, k_b = m_a - g_a.degree, m_b - g_b.degree
            if field.q ** (k_a * k_b) <= 1 << 20:
                break
        fs = [Poly(field, [rng.randrange(field.q) for _ in range(m_a)])
              for _ in range(ell_a - 1)]
        A = OneLevelCode(g_a, fs, ell_a, m_a)
        B = cyclic_code_new(m_b, g_b)
        prod = one_level_product_rgb(A, B, bezout_pair(ell_a, m_a, m_b))
        d_a = min_distance(expand_to_linear(A.basis()))
        d_b = min_distance(expand_to_linear(RgbPotBasis(field, 1, m_b, [[g_b]])))
        assert min_distance(expand_to_linear(prod.basis())) == d_a * d_b


@pytest.mark.parametrize("field, ell_a, r, m_a, m_b", [
    (F2, 2, 2, 7, 3), (F2, 3, 2, 5, 7), (F2, 3, 3, 3, 5), (F3, 2, 2, 4, 5),
    (F4, 2, 2, 5, 3), (F9, 2, 1, 4, 5), (F9, 2, 2, 2, 5), (F9, 3, 1, 2, 5),
])
def test_product_distance_is_product_of_distances_general(field, ell_a, r,
                                                         m_a, m_b):
    # d(A (x) B) = d_A * d_B for row codes of level r > 1 and over GF(9):
    # the rows of A are [U | U C], U upper triangular with proper divisors
    # of X^m_a - 1 on its diagonal, so A has level exactly r; the product
    # is unreduced_product_basis reduced, and its search is forced to BZ
    rng = random.Random(ell_a * 100 + r * 10 + field.q)
    for _ in range(3):
        while True:
            U = [[_random_divisor(field, m_a, rng) if i == j
                  else Poly(field, [rng.randrange(field.q) for _ in range(m_a)])
                  if i < j else Poly.zero(field) for j in range(r)]
                 for i in range(r)]
            C = [[Poly(field, [rng.randrange(field.q) for _ in range(m_a)])
                  for _ in range(ell_a - r)] for _ in range(r)]
            rows = [U[i] + [fold_mod_xm1(sum((U[i][s] * C[s][t] for s in range(r)),
                                             Poly.zero(field)), m_a)
                            for t in range(ell_a - r)] for i in range(r)]
            G_A = rgb_pot_reduce(GeneratingMatrix(field, ell_a, m_a, rows))
            g_b = _random_divisor(field, m_b, rng)
            view_a = expand_to_linear(G_A)
            if field.q ** (view_a.k * (m_b - g_b.degree)) <= 1 << 14:
                break
        assert level(G_A) == r
        params = bezout_pair(ell_a, m_a, m_b)
        view = expand_to_linear(rgb_pot_reduce(
            unreduced_product_basis(G_A, cyclic_code_new(m_b, g_b), params)))
        assert view.ell == ell_a
        d_b = _walk(expand_to_linear(RgbPotBasis(field, 1, m_b, [[g_b]])))
        with mock.patch.object(oracle, "_WALK_MAX", 0):
            d = min_distance(view)
        assert d == _walk(view) == _walk(view_a) * d_b


# ---------------------------------------------------------------------------
# shift closure
# ---------------------------------------------------------------------------

def test_quasi_cyclic_closure_of_expanded_bases():
    gen = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    v = expand_to_linear(rgb_pot_reduce(gen))
    assert is_quasi_cyclic(v, 2)
    assert is_quasi_cyclic(v, 6)       # full rotation is always a closure
    # cyclic codes are quasi-cyclic of index 1
    assert is_quasi_cyclic(one_level_view(F2, "X^3+X+1", 7), 1)


def test_quasi_cyclic_negative_case():
    # spanned by a single asymmetric word: rotating by 1 leaves the span
    v = LinearCodeView(F2, [[1, 1, 0, 0]])
    assert not is_quasi_cyclic(v, 1)
    assert is_quasi_cyclic(v, 4)
    for ell in (3, 0, -2, 2.5, "2", None):  # the view's ell check, too
        with pytest.raises(ShapeMismatch):
            is_quasi_cyclic(v, ell)


def test_zero_code_is_quasi_cyclic():
    v = LinearCodeView(F2, [], 6)
    assert (v.n, v.k) == (6, 0)
    assert is_quasi_cyclic(v, 2)
    # length 0: nothing to rotate, and the empty code is closed under every shift
    v = LinearCodeView(F2, [], 0)
    assert (v.n, v.k) == (0, 0)
    assert is_quasi_cyclic(v, 1) and is_quasi_cyclic(v, 5)


# ---------------------------------------------------------------------------
# module equality
# ---------------------------------------------------------------------------

def test_modules_equal_on_product_routes():
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    A = OneLevelCode(m1, [f1], 2, 17)
    B = cyclic_code_new(3, poly_from_text(F2, "X+1"))
    p = bezout_pair(2, 17, 3)
    raw = unreduced_product_basis(A.basis(), B, p)
    closed = one_level_product_rgb(A, B, p).basis()
    assert span_rref(F2, p.big_m, raw.rows) == span_rref(F2, p.big_m, closed.matrix)


def test_modules_equal_takes_canonical_bases():
    # distinct canonical bases span distinct codes; a basis spans its own
    rows_a = [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]]
    a = rgb_pot_reduce(GeneratingMatrix(F2, 2, 3, rows_a))
    b = rgb_pot_reduce(GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 1)), Poly.one(F2)]]))
    assert a != b
    assert span_rref(F2, 3, a.matrix) != span_rref(F2, 3, b.matrix)
    assert span_rref(F2, 3, a.matrix) == span_rref(F2, 3, rows_a)


def test_modules_equal_distinguishes_modules():
    a = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 1)), Poly.zero(F2)]])
    b = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 1)), Poly.one(F2)]])
    assert rgb_pot_reduce(a) != rgb_pot_reduce(b)
    assert span_rref(F2, 3, a.rows) != span_rref(F2, 3, b.rows)


# ---------------------------------------------------------------------------
# product membership
# ---------------------------------------------------------------------------

def product_instance():
    A = OneLevelCode(Poly(F2, (1, 1)), [Poly(F2, (0, 1))], 2, 3)
    B = cyclic_code_new(5, poly_from_text(F2, "X+1"))
    return A, B, bezout_pair(2, 3, 5)


def outer_product_matrix(A, B, p, a_msg, b_msg):
    a_word = interleave([fold_mod_xm1(a_msg * e, p.m_a).coeffs for e in A.row()], p.m_a)
    b_word = b_msg * B.g
    return [[F2.mul(b_word.coeff(i), a_word[j]) for j in range(p.ell_a * p.m_a)]
            for i in range(p.m_b)]


def test_product_membership_accepts_outer_products():
    A, B, p = product_instance()
    M = outer_product_matrix(A, B, p, Poly(F2, (1, 1)), Poly(F2, (1, 0, 1)))
    assert in_product(F2, M, expand_to_linear(A.basis()).matrix, B.g)
    # and the serialized word really lies in the product module
    prod = one_level_product_rgb(A, B, p)
    comps = [Poly(F2, c) for c in components(M, p)]
    assert reduce_vector(prod.basis(), PolyVector(comps, p.big_m)).is_zero


def test_product_membership_rejects_perturbations():
    A, B, p = product_instance()
    M = outer_product_matrix(A, B, p, Poly(F2, (1, 1)), Poly(F2, (1, 0, 1)))
    M[2][3] ^= 1
    assert not in_product(F2, M, expand_to_linear(A.basis()).matrix, B.g)


def test_product_codewords_decode_to_row_and_column_structure():
    # every codeword of the product module, viewed as a matrix, has rows in
    # the row code and columns in the column code
    A, B, p = product_instance()
    prod = one_level_product_rgb(A, B, p)
    row_code = expand_to_linear(A.basis()).matrix
    for row in expand_to_linear(prod.basis()).matrix:
        assert in_product(F2, matrix(row, p), row_code, B.g)
