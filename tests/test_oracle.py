"""Tests for the linear-algebra ground-truth checks: basis expansion,
exhaustive minimum distance, shift closure, and membership."""

import os
import random

import pytest

from qcproduct import (
    CodewordMatrix,
    DimensionMismatch,
    FieldMismatch,
    GeneratingMatrix,
    LinearCodeView,
    OneLevelCode,
    ParamMismatch,
    Poly,
    RankMismatch,
    ShapeMismatch,
    TooLarge,
    bezout_pair,
    check_product_membership,
    cyclic_code_new,
    encode,
    expand_to_linear,
    field_new,
    is_quasi_cyclic,
    matrix_to_components,
    min_distance,
    minimal_polynomial,
    modules_equal,
    one_level_product_rgb,
    poly_from_text,
    reduce_vector,
    rgb_pot_reduce,
    univariate_to_matrix,
    unreduced_product_basis,
    vector_to_univariate,
)
from qcproduct import oracle

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F9 = field_new(3, 2)


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
    with pytest.raises(ShapeMismatch):
        LinearCodeView(F2, [])


def test_expand_small_basis_frozen():
    gen = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    v = expand_to_linear(rgb_pot_reduce(gen))
    assert v.matrix == ((1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1))
    assert (v.n, v.k) == (6, 2)


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


def test_min_distance_workers_agree(monkeypatch):
    # k = 16 puts the search just over the threshold where extra workers
    # actually fork; the answer must not depend on the split.  Three CPUs
    # are assumed so the real process pool runs on any machine.
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    m0 = minimal_polynomial(2, 17, 0)
    v = expand_to_linear(OneLevelCode(m0, [Poly(F2, (0, 1, 1))], 2, 17).basis())
    assert v.k == 16
    assert min_distance(v) == 4
    assert min_distance(v, workers=3) == 4


def test_min_distance_clamps_workers_to_cpu_count(monkeypatch):
    # the stub pool records its size and runs every chunk inline, so no
    # process starts whatever worker count is asked for
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    m0 = minimal_polynomial(2, 17, 0)
    v = expand_to_linear(OneLevelCode(m0, [Poly(F2, (0, 1, 1))], 2, 17).basis())
    assert min_distance(v, workers=10 ** 6) == 4
    assert sizes == [3]
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    assert min_distance(v, workers=8) == 4
    assert sizes == [3]  # one CPU: searched in this process


def test_usable_cpus_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert oracle._usable_cpus() == 2


def test_min_distance_respects_limit():
    v = one_level_view(F2, "X^3+X+1", 7)
    with pytest.raises(TooLarge):
        min_distance(v, limit=8)
    assert min_distance(v, limit=16) == 3


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
        # the walk over a 3-way split of the message range finds the same
        args = (field.p, field.m, n, *oracle._packed_rows(field, view.matrix))
        total = field.q ** k
        bounds = [0, total // 3, 2 * total // 3, total]
        assert min(oracle._range_min(*args, lo, hi)
                   for lo, hi in zip(bounds, bounds[1:]) if lo < hi) == best


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
    with pytest.raises(ShapeMismatch):
        is_quasi_cyclic(v, 3)


def test_zero_code_is_quasi_cyclic():
    v = LinearCodeView(F2, [], 6)
    assert (v.n, v.k) == (6, 0)
    assert is_quasi_cyclic(v, 2)


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
    assert modules_equal(raw, one_level_product_rgb(A, B, p).basis())


def test_modules_equal_distinguishes_modules():
    a = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 1)), Poly.zero(F2)]])
    b = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 1)), Poly.one(F2)]])
    assert not modules_equal(a, b)
    assert modules_equal(a, a)


def test_modules_equal_shape_checks():
    a = GeneratingMatrix(F2, 2, 3)
    with pytest.raises(ShapeMismatch):
        modules_equal(a, GeneratingMatrix(F2, 2, 4))
    with pytest.raises(FieldMismatch):
        modules_equal(a, GeneratingMatrix(F3, 2, 3))
    with pytest.raises(ShapeMismatch):
        modules_equal(a, "not a matrix")


# ---------------------------------------------------------------------------
# product membership
# ---------------------------------------------------------------------------

def product_instance():
    A = OneLevelCode(Poly(F2, (1, 1)), [Poly(F2, (0, 1))], 2, 3)
    B = cyclic_code_new(5, poly_from_text(F2, "X+1"))
    return A, B, bezout_pair(2, 3, 5)


def outer_product_matrix(A, B, p, a_msg, b_msg):
    a_word = vector_to_univariate(encode(A.basis(), (a_msg, Poly.zero(F2))))
    b_word = b_msg * B.g
    entries = [[F2.mul(b_word.coeff(i), a_word.coeff(j))
                for j in range(p.ell_a * p.m_a)] for i in range(p.m_b)]
    return CodewordMatrix(F2, entries)


def test_product_membership_accepts_outer_products():
    A, B, p = product_instance()
    M = outer_product_matrix(A, B, p, Poly(F2, (1, 1)), Poly(F2, (1, 0, 1)))
    assert check_product_membership(M, A.basis(), B, p)
    # and the serialized word really lies in the product module
    prod = one_level_product_rgb(A, B, p)
    assert reduce_vector(prod.basis(), matrix_to_components(M, p)).is_zero


def test_product_membership_rejects_perturbations():
    A, B, p = product_instance()
    M = outer_product_matrix(A, B, p, Poly(F2, (1, 1)), Poly(F2, (1, 0, 1)))
    flipped = [list(row) for row in M.entries]
    flipped[2][3] ^= 1
    assert not check_product_membership(CodewordMatrix(F2, flipped), A.basis(), B, p)


def test_product_membership_shape_checks():
    A, B, p = product_instance()
    M = outer_product_matrix(A, B, p, Poly(F2, (1, 1)), Poly(F2, (1, 0, 1)))
    with pytest.raises(DimensionMismatch):
        check_product_membership(CodewordMatrix(F2, [[1]]), A.basis(), B, p)
    assert check_product_membership(M, A.basis(), B, p)


@pytest.mark.parametrize("case, error, message", [
    ("row code shape", ParamMismatch, "row code shape"),
    ("column length", ParamMismatch, "column code length"),
    ("column field", FieldMismatch, "row and column codes"),
    ("matrix field", FieldMismatch, "codeword matrix"),
])
def test_product_membership_input_errors(case, error, message):
    A, B, p = product_instance()
    M = outer_product_matrix(A, B, p, Poly(F2, (1, 1)), Poly(F2, (1, 0, 1)))
    row_basis = A.basis()
    if case == "row code shape":
        row_basis = OneLevelCode(Poly(F2, (1, 1)), [], 1, 3).basis()
    elif case == "column length":
        B = cyclic_code_new(3, Poly.one(F2))
    elif case == "column field":
        B = cyclic_code_new(5, poly_from_text(F3, "X-1"))
    else:
        M = CodewordMatrix(F3, M.entries)
    with pytest.raises(error, match=message):
        check_product_membership(M, row_basis, B, p)


def test_product_codewords_decode_to_row_and_column_structure():
    # every codeword of the product module, viewed as a matrix, has rows in
    # the row code and columns in the column code
    A, B, p = product_instance()
    prod = one_level_product_rgb(A, B, p)
    view = expand_to_linear(prod.basis())
    for row in view.matrix:
        M = univariate_to_matrix(Poly(F2, row), p)
        assert check_product_membership(M, A.basis(), B, p)
