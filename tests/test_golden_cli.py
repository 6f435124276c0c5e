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
information sets.
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
    "product_gf2": ["product", "row_code_gf2.json", "column_code_gf2.json"],
    "product_gf3": ["product", "row_code_gf3.json", "column_code_gf3.json"],
    "verify_row_code_gf2": ["verify", "row_code_gf2.json"],
    "verify_noncanonical_gf2": ["verify", "noncanonical_gf2.json"],
    "example_sec4": ["example-sec4"],
    "maps_2_17_3": ["maps", "2", "17", "3"],
    "cosets_2_17": ["cosets", "2", "17"],
    "factor_3_8": ["factor", "3", "8"],
    "factor_4_23": ["factor", "4", "23"],
    "factor_9_10": ["factor", "9", "10"],
    "minpoly_16_17_1": ["minpoly", "16", "17", "1"],
    "minpoly_2_17_3": ["minpoly", "2", "17", "3"],
    "mindist_row_code_gf2": ["mindist", "row_code_gf2.json"],
    "mindist_product_gf2": ["mindist", "product_basis_gf2.json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_stdout_matches_golden(name, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]
    assert main(["--format", "json", *argv]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.out.json").read_bytes()
