"""Byte-identity of ``--format json`` output against committed goldens.

The files under ``tests/golden`` are input documents and the exact stdout
that ``qcproduct --format json <command> ...`` printed for them: the
reduce, product, verify and example-sec4 outputs from before reduction
learned to work modulo X^m - 1, the maps, cosets, factor, minpoly and
mindist outputs from before the value classes became frozen dataclasses,
and the GF(4), GF(9) and GF(16) factor and minpoly outputs, which embed
GF(q) into a larger field of the same characteristic, from before that
embedding's decode table was built by Horner's rule, and the
Brouwer-Zimmermann ``mindist`` output for the worked example's [102, 18]
product from after that search learned to use the shifts of its
information sets, and the reduction of a benchmark-sized GF(3) matrix
(ell 4, m 49) from before GF(3) polynomials became pairs of bitmasks, and
the factorizations of X^41 - 1 over GF(3) and X^7 - 1 over GF(5), whose
minimal polynomials are computed in GF(3^8) and GF(5^6), beyond the
tables, from before those fields ran on the prime field's polynomial
kernel, and a GF(4) product (ell_a 3, co-index 91) and a benchmark-sized
GF(4) reduction (ell 4, m 45) from before GF(4) polynomials became pairs
of GF(2) bit planes, and the reduction of a GF(2) matrix with an X^1048576
entry (ell 2, m 3) from before folding modulo X^m - 1 learned to halve its
operand, and the factorizations of X^49 - 1 over GF(3) and X^47 - 1 over
GF(2), the costliest conjugate products, in GF(3^42) and GF(2^23), from
before minimal polynomials were formed one linear factor at a time and
cached, and the first products over GF(5) (ell_a 2, co-index 42) and GF(9)
(ell_a 3, co-index 40), on the code-list kernels for prime and extension
fields, from before the product constructions ran in the polynomial
kernel, and the reduction of a one-row GF(3) matrix whose entries use
every accepted text form (a leading sign or none, "-", "x", "2X" without
"*", spaces, tab and newline inside a term, "X^007", a repeated exponent
and one dense entry) from before sparse text was read through a memo of
term texts, and the reduction of a row-scrambled GF(2) matrix with divisors
of X^45 - 1 on its diagonal (ell 5, m 45), whose folds mostly find the
pivot dividing the entry, from before such a fold became one exact
division, and the minimal polynomial of 40 for m 63 over GF(65521^3), whose
root-of-unity search ran through all of GF(65521), from before that search
skipped the prime-field candidates that cannot have order m, and the
reductions of full random ell-4 matrices over GF(5) (m 12) and GF(9)
(m 10), on the code-list kernels, from before a column fold ran Euclid's
algorithm on whole rows, and the reductions of scrambled matrices with
divisors of X^m - 1 as pivots and tails of degree m - 1 over GF(2) (ell 5,
m 21), GF(3) (ell 4, m 20) and GF(4) (ell 4, m 15), each with at least two
diagonals other than 1, from before reduction kept its rows packed at one
width from start to end, and the reductions of GF(5) and GF(9) matrices
with an X^1048576 entry (ell 2, m 3), on the code-list kernels, from
before their folds modulo X^m - 1 learned to halve the operand, and the
``verify`` and ``mindist`` outputs of the row codes over GF(3), GF(4),
GF(5) and GF(9), the ``mindist`` output of a row code over GF(2^31 - 1)
and the Brouwer-Zimmermann ``mindist`` outputs of the reduced GF(3) and
GF(5) products, from before packing went through byte tables and the
last level of a weight block through one fused weighing, and the
products over GF(8), GF(16) and GF(25) (ell_a 3, 2 and 3; co-index 35, 35
and 28), the first over extension fields of characteristic 2 beyond GF(4)
and of characteristic 5, from before the extension-field kernel read q x q
tables, and the reduction of the one-row GF(2) code of length 2^19 with
row X + 1, from before the check that each diagonal divides X^m - 1 raised
X to the m-th power modulo the diagonal instead of dividing X^m - 1 (the
division took about 13 s there, beyond CI's 10-s limit per case), and the
minimal polynomial of 74 for m 257 over GF(11), formed in GF(11^64), from
before the default-modulus search ran Ben-Or's irreducibility test instead
of Rabin's (that search took about 9 s, so CI's 10-s limit per case fails
if it returns).
Any change to arithmetic, reduction or the value classes must leave every
byte of that output unchanged.
"""

from pathlib import Path

import pytest

from qcproduct.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reduce_matrix_gf2": ["reduce", "matrix_gf2.json"],
    "reduce_matrix_gf3": ["reduce", "matrix_gf3.json"],
    "reduce_matrix_gf4": ["reduce", "matrix_gf4.json"],
    "reduce_matrix_wide_gf3": ["reduce", "matrix_wide_gf3.json"],
    "reduce_matrix_wide_gf4": ["reduce", "matrix_wide_gf4.json"],
    "reduce_matrix_high_degree_gf2": ["reduce", "matrix_high_degree_gf2.json"],
    "reduce_matrix_high_degree_gf5": ["reduce", "matrix_high_degree_gf5.json"],
    "reduce_matrix_high_degree_gf9": ["reduce", "matrix_high_degree_gf9.json"],
    "reduce_matrix_text_forms_gf3": ["reduce", "matrix_text_forms_gf3.json"],
    "reduce_matrix_divisors_gf2": ["reduce", "matrix_divisors_gf2.json"],
    "reduce_matrix_gf5": ["reduce", "matrix_gf5.json"],
    "reduce_matrix_gf9": ["reduce", "matrix_gf9.json"],
    "reduce_matrix_full_width_gf2": ["reduce", "matrix_full_width_gf2.json"],
    "reduce_matrix_full_width_gf3": ["reduce", "matrix_full_width_gf3.json"],
    "reduce_matrix_full_width_gf4": ["reduce", "matrix_full_width_gf4.json"],
    "reduce_wide_row_code_gf2_m19": ["reduce", "wide_row_code_gf2_m19.json"],
    "product_gf2": ["product", "row_code_gf2.json", "column_code_gf2.json"],
    "product_gf3": ["product", "row_code_gf3.json", "column_code_gf3.json"],
    "product_gf4": ["product", "row_code_gf4.json", "column_code_gf4.json"],
    "product_gf5": ["product", "row_code_gf5.json", "column_code_gf5.json"],
    "product_gf9": ["product", "row_code_gf9.json", "column_code_gf9.json"],
    "product_gf8": ["product", "row_code_gf8.json", "column_code_gf8.json"],
    "product_gf16": ["product", "row_code_gf16.json", "column_code_gf16.json"],
    "product_gf25": ["product", "row_code_gf25.json", "column_code_gf25.json"],
    "verify_row_code_gf2": ["verify", "row_code_gf2.json"],
    "verify_noncanonical_gf2": ["verify", "noncanonical_gf2.json"],
    "example_sec4": ["example-sec4"],
    "maps_2_17_3": ["maps", "2", "17", "3"],
    "cosets_2_17": ["cosets", "2", "17"],
    "factor_3_8": ["factor", "3", "8"],
    "factor_3_41": ["factor", "3", "41"],
    "factor_3_49": ["factor", "3", "49"],
    "factor_2_47": ["factor", "2", "47"],
    "factor_5_7": ["factor", "5", "7"],
    "factor_4_23": ["factor", "4", "23"],
    "factor_9_10": ["factor", "9", "10"],
    "minpoly_16_17_1": ["minpoly", "16", "17", "1"],
    "minpoly_2_17_3": ["minpoly", "2", "17", "3"],
    "minpoly_281281747415761_63_40": ["minpoly", "281281747415761", "63", "40"],
    "minpoly_11_257_74": ["minpoly", "11", "257", "74"],
    "mindist_row_code_gf2": ["mindist", "row_code_gf2.json"],
    "mindist_product_gf2": ["mindist", "product_basis_gf2.json"],
    "mindist_row_code_gf3": ["mindist", "row_code_gf3.json"],
    "mindist_row_code_gf4": ["mindist", "row_code_gf4.json"],
    "mindist_row_code_gf5": ["mindist", "row_code_gf5.json"],
    "mindist_row_code_gf9": ["mindist", "row_code_gf9.json"],
    "mindist_row_code_gf2147483647": ["mindist", "row_code_gf2147483647.json"],
    "mindist_product_gf3": ["mindist", "product_basis_gf3.json"],
    "mindist_product_gf5": ["mindist", "product_basis_gf5.json"],
    "verify_row_code_gf3": ["verify", "row_code_gf3.json"],
    "verify_row_code_gf4": ["verify", "row_code_gf4.json"],
    "verify_row_code_gf5": ["verify", "row_code_gf5.json"],
    "verify_row_code_gf9": ["verify", "row_code_gf9.json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_stdout_matches_golden(name, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]
    assert main(["--format", "json", *argv]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.out.json").read_bytes()
