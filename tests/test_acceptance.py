"""Acceptance gate: eight end-to-end criteria, one summary line each.

Every test prints a single line of the form

    acceptance N (title): PASS (...)

after its checks go through (pytest is configured with -rP, so these lines
appear in the run summary).  A failing criterion shows up both as a FAIL
line and as an ordinary pytest failure with the collected reasons.
"""

import math
import random
import time

from qcproduct import (
    GeneratingMatrix,
    OneLevelCode,
    Poly,
    RgbPotBasis,
    bezout_pair,
    cyclic_code_new,
    dimension,
    expand_to_linear,
    factor_xm_minus_1,
    field_new,
    field_of_order,
    is_quasi_cyclic,
    is_rgb_pot,
    map_f,
    min_distance,
    minimal_polynomial,
    modular_substitute,
    one_level_product_rgb,
    poly_from_text,
    rgb_pot_reduce,
    unreduced_product_basis,
    x_pow_minus_one,
)
from paper_maps import components, interleave, serialize, span_rref

F2 = field_new(2)
F3 = field_new(3)

G00_EXPS = (0, 1, 3, 6, 8, 10, 13, 15, 16, 17, 18, 20, 23, 25, 27, 30, 32, 33)
G01_EXPS = (0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 15, 17, 19, 22, 24, 26, 28, 31,
            33, 35, 38, 40, 41, 42, 44, 45, 46, 48, 49, 50)
G01_PRESENTATION_EXPS = (1, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18, 19,
                         21, 22, 23, 25, 26, 27, 29, 32, 34, 36, 39, 41, 43,
                         45, 48, 50)


def worked_example():
    """The built-in [102, 18] product: [34, 9, 11] row code times the
    [3, 2, 2] parity-check column code."""
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    A = OneLevelCode(m1, [f1], 2, 17)
    B = cyclic_code_new(3, poly_from_text(F2, "X+1"))
    return A, B, bezout_pair(2, 17, 3)


def exponents(p):
    return tuple(k for k, c in enumerate(p.coeffs) if c)


def finish(num, title, problems, elapsed=None, budget=None):
    if budget is not None and elapsed > budget:
        problems.append(f"took {elapsed:.2f} s, budget {budget:.0f} s")
    status = "PASS" if not problems else "FAIL"
    timing = ""
    if budget is not None:
        timing = f" ({elapsed:.2f} s, budget {budget:.0f} s)"
    elif elapsed is not None:
        timing = f" ({elapsed:.2f} s)"
    print(f"acceptance {num} ({title}): {status}{timing}")
    assert not problems, "; ".join(problems)


def random_one_level_instance(rng):
    """A random 1-level row code, column code, and parameters with
    ell_a in {2, 3}, m_a <= 15, m_b <= 7, q in {2, 3}."""
    while True:
        q = rng.choice((2, 3))
        field = F2 if q == 2 else F3
        ell_a = rng.choice((2, 3))
        m_a = rng.randrange(2, 16)
        m_b = rng.randrange(2, 8)
        if m_a % q == 0 or m_b % q == 0:
            continue
        if math.gcd(ell_a * m_a, m_b) != 1:
            continue
        g = Poly.one(field)
        for _, fac in factor_xm_minus_1(q, m_a):
            if rng.random() < 0.5:
                g = g * fac
        if g.degree == m_a:
            continue
        fs = [Poly(field, [rng.randrange(q) for _ in range(m_a)])
              for _ in range(ell_a - 1)]
        gb = Poly.one(field)
        for _, fac in factor_xm_minus_1(q, m_b):
            if rng.random() < 0.5:
                gb = gb * fac
        if gb.degree == m_b:
            continue
        A = OneLevelCode(g, fs, ell_a, m_a)
        B = cyclic_code_new(m_b, gb)
        return A, B, bezout_pair(ell_a, m_a, m_b)


def test_acceptance_1_worked_example_goldens():
    start = time.perf_counter()
    problems = []
    A, B, p = worked_example()
    product = one_level_product_rgb(A, B, p)
    g00, g01 = product.row()
    if (p.a, p.b) != (1, -11):
        problems.append(f"parameters (a, b) = {(p.a, p.b)}, expected (1, -11)")
    if exponents(g00) != G00_EXPS:
        problems.append("g00 does not match the golden 18-term polynomial")
    if g00.degree != 33 or len(G00_EXPS) != 18:
        problems.append(f"g00 shape off: degree {g00.degree}, "
                        f"{len(exponents(g00))} terms")
    if exponents(g01) != G01_EXPS:
        problems.append("g01 does not match the golden 30-term polynomial")
    if g01.degree != 50:
        problems.append(f"g01 degree {g01.degree}, expected 50")
    # undoing the column scaling X^(-a*m_a) on the second entry gives the
    # generator-row presentation; both forms are pinned
    presentation = modular_substitute(g01 * Poly(F2, (0,) * 17 + (1,)), 1, 51)
    if exponents(presentation) != G01_PRESENTATION_EXPS:
        problems.append("g01 with the column scaling undone does not match")
    finish(1, "worked-example goldens", problems,
           time.perf_counter() - start, budget=1.0)


def test_acceptance_2_construction_paths_agree():
    start = time.perf_counter()
    problems = []
    A, B, p = worked_example()
    direct = rgb_pot_reduce(unreduced_product_basis(A.basis(), B, p))
    if direct != one_level_product_rgb(A, B, p).basis():
        problems.append("paths disagree on the worked example")
    rng = random.Random(1729)
    for case in range(20):
        A, B, p = random_one_level_instance(rng)
        direct = rgb_pot_reduce(unreduced_product_basis(A.basis(), B, p))
        closed = one_level_product_rgb(A, B, p).basis()
        if direct != closed:
            problems.append(
                f"case {case}: paths disagree for ell_a={p.ell_a}, "
                f"m_a={p.m_a}, m_b={p.m_b}, q={A.field.q}")
    finish(2, "construction-path agreement", problems,
           time.perf_counter() - start, budget=30.0)


def test_acceptance_3_exact_distances():
    start = time.perf_counter()
    problems = []
    A, B, p = worked_example()
    d_a = min_distance(expand_to_linear(A.basis()))
    if d_a != 11:
        problems.append(f"row code distance {d_a}, expected 11")
    d_b = min_distance(expand_to_linear(RgbPotBasis(F2, 1, 3, [[B.g]])))
    if d_b != 2:
        problems.append(f"column code distance {d_b}, expected 2")
    view = expand_to_linear(one_level_product_rgb(A, B, p).basis())
    t_single = time.perf_counter()
    d_prod = min_distance(view)
    t_single = time.perf_counter() - t_single
    if d_prod != 22:
        problems.append(f"product distance {d_prod}, expected 22")
    if t_single > 60.0:
        problems.append(f"product run took {t_single:.1f} s")
    print(f"    product [102, 18] search: {t_single:.2f} s")
    finish(3, "exact distances 11 / 2 / 22", problems,
           time.perf_counter() - start)


def test_acceptance_4_dimension_equals_rank():
    start = time.perf_counter()
    problems = []
    A, B, p = worked_example()
    basis_a = A.basis()
    if dimension(basis_a) != 9 or expand_to_linear(basis_a).k != 9:
        problems.append("row code dimension/rank is not 9")
    prod = one_level_product_rgb(A, B, p).basis()
    if dimension(prod) != 18 or expand_to_linear(prod).k != 18:
        problems.append("product dimension/rank is not 18")
    rng = random.Random(4181)
    for case in range(30):
        field = rng.choice((F2, F3))
        ell = rng.randrange(1, 4)
        m = rng.randrange(2, 8)
        rows = [[Poly(field, [rng.randrange(field.q) for _ in range(m)])
                 for _ in range(ell)] for _ in range(rng.randrange(1, 4))]
        b = rgb_pot_reduce(GeneratingMatrix(field, ell, m, rows))
        stated = dimension(b)
        rank = expand_to_linear(b).k   # raises RankMismatch on disagreement
        if stated != rank:
            problems.append(f"case {case}: dimension {stated} != rank {rank}")
    finish(4, "dimension equals expanded rank", problems,
           time.perf_counter() - start)


def test_acceptance_5_serialization_coherence():
    start = time.perf_counter()
    problems = []
    rng = random.Random(60209)
    for ell_a, m_a, m_b, field in ((2, 17, 3, F2), (3, 4, 5, F3)):
        p = bezout_pair(ell_a, m_a, m_b)
        width = ell_a * m_a
        # the serialization map is a bijection of index sets
        image = {map_f(i, j, p) for i in range(m_b) for j in range(width)}
        if image != set(range(p.n)):
            problems.append(f"map not bijective for {(ell_a, m_a, m_b)}")
        # advancing (row, column) by (1, ell_a) advances the index by ell_a
        for i in range(m_b):
            for j in range(width):
                if map_f((i + 1) % m_b, (j + ell_a) % width, p) \
                        != (map_f(i, j, p) + ell_a) % p.n:
                    problems.append(f"shift identity fails at {(i, j)}")
        # component split + interleave = direct serialization
        for case in range(1000):
            M = [[rng.randrange(field.q) for _ in range(width)]
                 for _ in range(m_b)]
            if interleave(components(M, p), p.big_m) != serialize(M, p):
                problems.append(
                    f"coherence fails for {(ell_a, m_a, m_b)} case {case}")
                break
    finish(5, "serialization coherence", problems,
           time.perf_counter() - start)


def test_acceptance_6_shift_closure():
    start = time.perf_counter()
    problems = []
    A, B, p = worked_example()
    prod_view = expand_to_linear(one_level_product_rgb(A, B, p).basis())
    if not is_quasi_cyclic(prod_view, 2):
        problems.append("worked-example product is not closed under shift by 2")
    # a second product instance and assorted reduced bases
    A2 = OneLevelCode(Poly(F2, (1, 1)), [Poly(F2, (0, 1))], 2, 3)
    B2 = cyclic_code_new(5, poly_from_text(F2, "X+1"))
    p2 = bezout_pair(2, 3, 5)
    if not is_quasi_cyclic(
            expand_to_linear(one_level_product_rgb(A2, B2, p2).basis()), 2):
        problems.append("small product is not closed under shift by 2")
    rng = random.Random(28657)
    for case in range(25):
        field = rng.choice((F2, F3))
        ell = rng.randrange(1, 4)
        m = rng.randrange(2, 7)
        rows = [[Poly(field, [rng.randrange(field.q) for _ in range(m)])
                 for _ in range(ell)] for _ in range(2)]
        b = rgb_pot_reduce(GeneratingMatrix(field, ell, m, rows))
        if not is_quasi_cyclic(expand_to_linear(b), ell):
            problems.append(f"case {case}: reduced basis not shift-closed")
    finish(6, "quasi-cyclic shift closure", problems,
           time.perf_counter() - start)


def test_acceptance_7_canonical_reduction():
    start = time.perf_counter()
    problems = []
    rng = random.Random(14641)
    cases = 0
    for ell in (1, 2, 3):
        for m in range(2, 8):
            for _ in range(5):
                rows = [[Poly(F2, [rng.randrange(2) for _ in range(m)])
                         for _ in range(ell)]
                        for _ in range(rng.randrange(1, 4))]
                gen = GeneratingMatrix(F2, ell, m, rows)
                b = rgb_pot_reduce(gen)
                ok, violations = is_rgb_pot(b)
                if not ok:
                    problems.append(
                        f"ell={ell}, m={m}: conditions violated: {violations}")
                if rgb_pot_reduce(GeneratingMatrix(F2, ell, m, b.matrix)) != b:
                    problems.append(f"ell={ell}, m={m}: reduction not idempotent")
                if span_rref(F2, m, rows) != span_rref(F2, m, b.matrix):
                    problems.append(
                        f"ell={ell}, m={m}: reduced basis spans a different module")
                cases += 1
    if cases != 90:
        problems.append(f"expected 90 instances, ran {cases}")
    finish(7, "canonical-form reduction", problems,
           time.perf_counter() - start)


def test_acceptance_8_factorization_suite():
    start = time.perf_counter()
    problems = []
    for q in (2, 3, 4):
        field = field_of_order(q)
        for m in range(1, 61):
            if math.gcd(q, m) != 1:
                continue
            factors = factor_xm_minus_1(q, m)
            prod = Poly.one(field)
            for _, fac in factors:
                prod = prod * fac
            if prod != x_pow_minus_one(field, m):
                problems.append(f"product of factors wrong for q={q}, m={m}")
    seventeen = factor_xm_minus_1(2, 17)
    if len(seventeen) != 3 or [r for r, _ in seventeen] != [0, 1, 3]:
        problems.append("X^17-1 over GF(2) did not split into the 3 known factors")
    fifty_one = factor_xm_minus_1(2, 51)
    if len(fifty_one) != 8 or [r for r, _ in fifty_one] != [0, 1, 3, 5, 9, 11, 17, 19]:
        problems.append("X^51-1 over GF(2) did not split into the 8 known factors")
    finish(8, "factorization suite", problems,
           time.perf_counter() - start, budget=10.0)
