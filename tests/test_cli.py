"""End-to-end tests for the command-line interface (run in-process)."""

import json
import time
from pathlib import Path

import pytest

from qcproduct import (
    OneLevelCode,
    Poly,
    basis_to_doc,
    canonical_json,
    field_new,
    generating_matrix_to_doc,
    minimal_polynomial,
    poly_from_text,
)
from qcproduct.cli import main
from qcproduct.qcmodule import GeneratingMatrix

F2 = field_new(2)
GOLDEN = Path(__file__).parent / "golden"


def write_json(path, doc):
    path.write_text(canonical_json(doc), encoding="utf-8")
    return str(path)


def row_code_doc():
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    return basis_to_doc(OneLevelCode(m1, [f1], 2, 17).basis())


def column_code_doc():
    return {"m": 3, "field": {"p": 2, "m": 1, "modulus": "X"}, "generator": "X+1"}


def small_matrix_doc():
    gen = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    return generating_matrix_to_doc(gen)


# ---------------------------------------------------------------------------
# table commands
# ---------------------------------------------------------------------------

def test_cosets_pretty(capsys):
    assert main(["cosets", "2", "7"]) == 0
    out = capsys.readouterr().out
    assert "C_0 = {0}" in out
    assert "C_1 = {1, 2, 4}" in out
    assert "C_3 = {3, 5, 6}" in out


def test_cosets_json(capsys):
    assert main(["--format", "json", "cosets", "2", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cosets"] == [[0], [1, 2, 4], [3, 5, 6]]


def test_factor_json(capsys):
    assert main(["--format", "json", "factor", "2", "17"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [f["rep"] for f in doc["factors"]] == [0, 1, 3]
    assert doc["factors"][0]["poly"] == "X+1"
    assert doc["factors"][1]["poly"] == "X^8+X^7+X^6+X^4+X^2+X+1"


def test_minpoly_pretty(capsys):
    assert main(["minpoly", "2", "17", "3"]) == 0
    out = capsys.readouterr().out
    assert "m_3 = X^8+X^5+X^4+X^3+1" in out


def test_maps_csv_golden(capsys):
    assert main(["--format", "csv", "maps", "2", "17", "3"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 3
    assert all(len(r.split(",")) == 34 for r in rows)
    assert rows[0].startswith("0,69,36,3,72,39")
    assert rows[1].split(",")[0] == "68"
    # all 102 serialized positions appear exactly once
    seen = {int(v) for r in rows for v in r.split(",")}
    assert seen == set(range(102))


def test_maps_json_includes_both_tables(capsys):
    assert main(["--format", "json", "maps", "2", "3", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["a"] == 1 and doc["params"]["b"] == -1
    assert len(doc["f"]) == 5 and len(doc["f"][0]) == 6
    assert len(doc["g"]) == 5 and len(doc["g"][0]) == 3


# ---------------------------------------------------------------------------
# file-driven commands
# ---------------------------------------------------------------------------

def test_reduce_roundtrip(tmp_path, capsys):
    path = write_json(tmp_path / "gen.json", small_matrix_doc())
    assert main(["--format", "json", "reduce", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["canonical"] is True
    assert doc["dimension"] == 2
    assert doc["level"] == 1
    assert doc["basis"]["rows"] == [["X+1", "X^2+X"], ["0", "X^3+1"]]


def test_reduce_reports_no_level_for_a_non_prefix_diagonal(tmp_path, capsys):
    # the canonical diagonal (X^3-1, X+1) has its full entry first, so its
    # pattern is no prefix and the basis has no level
    doc = dict(small_matrix_doc(), rows=[["0", "X+1"]])
    path = write_json(tmp_path / "G.json", doc)
    assert main(["--format", "json", "reduce", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["basis"]["rows"] == [["X^3+1", "0"], ["0", "X+1"]]
    assert out["level"] is None


def test_reduce_pretty_lists_rows(tmp_path, capsys):
    path = write_json(tmp_path / "gen.json", small_matrix_doc())
    assert main(["reduce", path]) == 0
    out = capsys.readouterr().out
    assert "k=2" in out and "[X+1 | X^2+X]" in out


def test_product_command(tmp_path, capsys):
    a = write_json(tmp_path / "A.json", row_code_doc())
    b = write_json(tmp_path / "B.json", column_code_doc())
    assert main(["--format", "json", "product", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"ell_a": 2, "m_a": 17, "m_b": 3, "a": 1, "b": -11}
    assert doc["one_level_row"] is not None
    g00 = poly_from_text(F2, doc["one_level_row"][0])
    assert tuple(k for k, c in enumerate(g00.coeffs) if c) == (
        0, 1, 3, 6, 8, 10, 13, 15, 16, 17, 18, 20, 23, 25, 27, 30, 32, 33)
    # the reduced basis agrees with the closed-form row
    assert doc["reduced"]["rows"][0] == doc["one_level_row"]


def test_product_reads_a_row_entry_modulo_xm_minus_1(tmp_path, capsys):
    # 2^20 = 16 mod 17, so adding X^1048576 + X^16 to an entry of the
    # golden row code leaves the module, and so every byte of the product,
    # unchanged; the closed form divides the entry by g only after folding
    # it (dividing first took about 5 s)
    doc = json.loads((GOLDEN / "row_code_gf2.json").read_text())
    doc["rows"][0][1] += "+X^1048576+X^16"
    path = write_json(tmp_path / "A.json", doc)
    start = time.perf_counter()
    assert main(["--format", "json", "product", path,
                 str(GOLDEN / "column_code_gf2.json")]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out == (
        GOLDEN / "product_gf2.out.json").read_text()


def test_mindist_command(tmp_path, capsys):
    path = write_json(tmp_path / "A.json", row_code_doc())
    assert main(["--format", "json", "mindist", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["d"]) == (34, 9, 11)
    assert doc["enumerated"] == 511
    assert doc["elapsed_ms"] is None      # timing is scrubbed from json output


def test_mindist_pretty_has_timing(tmp_path, capsys):
    path = write_json(tmp_path / "A.json", row_code_doc())
    assert main(["mindist", path]) == 0
    out = capsys.readouterr().out
    assert "d=11" in out and " ms" in out
    assert "exhaustive search enumerated 511 nonzero codewords" in out


def test_mindist_reports_what_brouwer_zimmermann_enumerated(tmp_path, capsys):
    # a [34, 16] code has 2^16 > 2^10 messages, so it takes
    # Brouwer-Zimmermann: the count is what that search enumerated, not q^k - 1
    m0 = minimal_polynomial(2, 17, 0)
    basis = OneLevelCode(m0, [Poly(F2, (0, 1, 1))], 2, 17).basis()
    path = write_json(tmp_path / "C.json", basis_to_doc(basis))
    assert main(["--format", "json", "mindist", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["d"]) == (34, 16, 4)
    assert 0 < doc["enumerated"] < 2 ** 16 - 1
    assert main(["mindist", path]) == 0
    out = capsys.readouterr().out
    assert (f"Brouwer-Zimmermann search enumerated {doc['enumerated']} "
            "nonzero codewords") in out


def test_mindist_over_a_walked_gf4_basis_counts_one_message_per_subspace(
        tmp_path, capsys):
    # [5, 4] over GF(4): q^k = 256 messages, so walked; the walk takes one
    # per 1-dimensional subspace, (4^4 - 1)/(4 - 1) = 85 of them
    f4 = field_new(2, 2)
    basis = OneLevelCode(poly_from_text(f4, "X+1"), [], 1, 5).basis()
    path = write_json(tmp_path / "C.json", basis_to_doc(basis))
    assert main(["--format", "json", "mindist", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["d"]) == (5, 4, 2)
    assert doc["enumerated"] == 85
    assert main(["--format", "json", "mindist", path, "--limit", "85"]) == 0
    assert json.loads(capsys.readouterr().out) == doc
    assert main(["--format", "json", "mindist", path, "--limit", "84"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "TooLarge"


def test_distance_over_a_prime_near_2_31_is_bounded(tmp_path, capsys):
    # over GF(2^31 - 1) neither search may touch all q - 1 multiples of a
    # row: k = 1 (X + 1, m 2) and k = 2 (X - 1, m 3, a committed document)
    doc = {"ell": 1, "field": {"m": 1, "modulus": "X", "p": 2147483647},
           "m": 2, "rows": [["X+1"]]}
    paths = [write_json(tmp_path / "k1.json", doc),
             str(GOLDEN / "row_code_gf2147483647.json")]
    for path, k in zip(paths, (1, 2)):
        start = time.perf_counter()
        assert main(["--format", "json", "mindist", path]) == 0
        assert time.perf_counter() - start < 2.0
        out = json.loads(capsys.readouterr().out)
        assert (out["n"], out["k"], out["d"]) == (k + 1, k, 2)


def test_verify_command(tmp_path, capsys):
    path = write_json(tmp_path / "A.json", row_code_doc())
    assert main(["--format", "json", "verify", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["canonical"] is True
    assert doc["quasi_cyclic"] is True
    assert doc["violations"] == []
    assert (doc["n"], doc["k"], doc["level"]) == (34, 9, 1)


def test_verify_reports_violations_without_failing(tmp_path, capsys):
    # a non-canonical but parseable basis: entry above the diagonal too big
    doc = {
        "ell": 2, "m": 3,
        "field": {"p": 2, "m": 1, "modulus": "X"},
        "rows": [["X+1", "X^2+X+1"], ["0", "X^2+X+1"]],
    }
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["--format", "json", "verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["canonical"] is False
    assert any("condition 2" in v for v in out["violations"])


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(["--format", "json", "-o", str(target),
                 "cosets", "2", "7"]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["m"] == 7


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_json_output_is_byte_identical_across_runs(tmp_path, capsys):
    path = write_json(tmp_path / "A.json", row_code_doc())
    for argv in (
        ["--format", "json", "factor", "2", "51"],
        ["--format", "json", "mindist", path],
        ["--format", "json", "example-sec4"],
    ):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


# ---------------------------------------------------------------------------
# the built-in worked example
# ---------------------------------------------------------------------------

def test_example_passes_all_golden_checks(capsys):
    assert main(["--format", "json", "example-sec4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is True
    assert all(doc["checks"].values())
    assert (doc["a"], doc["b"]) == (1, -11)
    assert (doc["dimension"], doc["d_a"], doc["d_b"]) == (18, 11, 2)
    assert doc["g00"].startswith("X^33+X^32+X^30+")


def test_example_pretty_prints_pass_lines(capsys):
    assert main(["example-sec4"]) == 0
    out = capsys.readouterr().out
    assert "check g00: pass" in out
    assert "check paths_agree: pass" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["maps", "two", "17", "3"])
    assert exc.value.code == 1


def test_csv_unsupported_for_other_commands_exits_1(capsys):
    assert main(["--format", "csv", "cosets", "2", "7"]) == 1
    err = capsys.readouterr().err
    assert "no CSV representation" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["reduce", str(tmp_path / "absent.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "FileNotFoundError"


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["reduce", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "JSONDecodeError"


def test_unparsable_polynomial_exits_2(tmp_path, capsys):
    doc = small_matrix_doc()
    doc["rows"][0][0] = "Y+1"
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["reduce", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "PolyParseError"


def test_oversized_exponent_exits_2(tmp_path, capsys):
    doc = small_matrix_doc()
    doc["rows"][0][0] = f"X^{2 ** 20 + 1}"  # one past the parser's limit
    path = write_json(tmp_path / "big.json", doc)
    assert main(["reduce", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "PolyParseError"


def test_overlong_sparse_coefficient_exits_2(tmp_path, capsys):
    doc = small_matrix_doc()
    doc["rows"][0][0] = "1" * 5000 + "*X"  # past Python's 4300-digit limit
    path = write_json(tmp_path / "long.json", doc)
    assert main(["reduce", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "PolyParseError"


def test_overlong_json_integer_exits_2(tmp_path, capsys):
    path = tmp_path / "long.json"
    text = canonical_json(small_matrix_doc())
    path.write_text(text.replace('"p":2', '"p":' + "1" * 5000), encoding="utf-8")
    assert main(["reduce", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "PolyParseError"


def test_oversized_characteristic_exits_3(tmp_path, capsys):
    doc = small_matrix_doc()
    doc["field"]["p"] = 2 ** 31 + 11
    path = write_json(tmp_path / "big.json", doc)
    assert main(["reduce", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotPrime"


def test_precondition_violation_exits_3(capsys):
    assert main(["cosets", "2", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotCoprime"


def test_composite_field_order_exits_3_at_once(capsys):
    # q = 2 * (2^61 - 1) is no perfect power, and as its own root it is
    # beyond the characteristic bound: no trial division up to sqrt(q)
    assert main(["factor", str(2 * (2 ** 61 - 1)), "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotPrime"


def test_huge_prime_field_order_exits_3_at_once(capsys):
    start = time.perf_counter()
    assert main(["factor", str(2 ** 61 - 1), "1"]) == 3
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotPrime"


def test_oversized_extension_degree_exits_3(capsys):
    # the 1019-th roots of unity over GF(2) lie in GF(2^1018)
    start = time.perf_counter()
    assert main(["factor", "2", "1019"]) == 3
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TooLarge"


def test_huge_prime_power_field_order_exits_3_at_once(capsys):
    # GF(2^1000) is beyond the extension-degree bound by itself
    start = time.perf_counter()
    assert main(["factor", str(2 ** 1000), "3"]) == 3
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("q, m", [(2 ** 17, 7), (65521 ** 2, 37)])
def test_oversized_embedded_field_exits_3_at_once(q, m, capsys):
    # the roots lie in GF(2^51) and GF(65521^4); embedding GF(q) into them
    # would walk all q elements
    start = time.perf_counter()
    assert main(["factor", str(q), str(m)]) == 3
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("argv", [
    ["cosets", "2", str(2 ** 20 + 1)],
    ["factor", "2", str(2 ** 20 + 1)],
    ["minpoly", "2", str(2 ** 20 + 1), "1"],
    ["maps", "1", str(2 ** 20 + 1), "1"],
])
def test_oversized_length_argument_exits_3(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TooLarge"


def _oversized_matrix(tmp_path):
    doc = dict(small_matrix_doc(), ell=2 ** 20, m=2, rows=[])
    return ["reduce", write_json(tmp_path / "G.json", doc)]


def _oversized_matrix_entries(tmp_path):
    # ell*m = 1025 is a fine length, but reduction would add ell rows of
    # ell entries each for the (X^m-1)e_j rows
    doc = dict(small_matrix_doc(), ell=2 ** 10 + 1, m=1, rows=[])
    return ["reduce", write_json(tmp_path / "G.json", doc)]


def _oversized_basis(tmp_path):
    doc = dict(row_code_doc(), ell=2 ** 20, m=2, rows=[])
    return ["verify", write_json(tmp_path / "A.json", doc)]


def _oversized_column_code(tmp_path):
    doc = dict(column_code_doc(), m=2 ** 20 + 1)
    return ["product", write_json(tmp_path / "A.json", row_code_doc()),
            write_json(tmp_path / "B.json", doc)]


def _oversized_product(tmp_path):
    # 34 * 30841 = 2^20 + 18: each code is within the bound, the product not
    doc = dict(column_code_doc(), m=30841)
    return ["product", write_json(tmp_path / "A.json", row_code_doc()),
            write_json(tmp_path / "B.json", doc)]


def _oversized_field_degree(tmp_path):
    # X^65+X^18+1 is irreducible over GF(2), but its degree is above 64
    doc = small_matrix_doc()
    doc["field"] = {"p": 2, "m": 65, "modulus": "X^65+X^18+1"}
    return ["reduce", write_json(tmp_path / "G.json", doc)]


@pytest.mark.parametrize("make_argv", [
    _oversized_matrix, _oversized_matrix_entries, _oversized_basis,
    _oversized_column_code, _oversized_product, _oversized_field_degree])
def test_oversized_document_length_exits_3(make_argv, tmp_path, capsys):
    argv = make_argv(tmp_path)
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("command", ["mindist", "verify"])
def test_zero_diagonal_exits_3(command, tmp_path, capsys):
    doc = row_code_doc()
    doc["rows"][1][1] = "0"
    assert main([command, write_json(tmp_path / "A.json", doc)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "DegreeMismatch"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["mindist", "verify"])
def test_diagonal_above_length_exits_3(command, tmp_path, capsys):
    # g = X^5 with m = 3 states dimension 3 - 5 = -2 and expands to no rows
    doc = {"ell": 1, "field": {"m": 1, "modulus": "X", "p": 2}, "m": 3,
           "rows": [["X^5"]]}
    assert main([command, write_json(tmp_path / "A.json", doc)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == {
        "message": "expanded 0 rows for stated dimension -2", "type": "RankMismatch"}
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["cosets", "2", "-3"], ["factor", "4", "-1"],
                                  ["cosets", "2", "0"]])
def test_nonpositive_length_exits_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "DegreeMismatch"
    assert captured.out == ""


@pytest.mark.parametrize("modulus, code, kind", [
    ("not a polynomial", 2, "PolyParseError"),
    ("X^2+X+1", 3, "DegreeMismatch"),
])
def test_bad_prime_field_modulus_exits(modulus, code, kind, tmp_path, capsys):
    doc = small_matrix_doc()
    doc["field"]["modulus"] = modulus
    assert main(["reduce", write_json(tmp_path / "G.json", doc)]) == code
    assert json.loads(capsys.readouterr().err)["error"]["type"] == kind


def test_mindist_limit_exits_3(tmp_path, capsys):
    path = write_json(tmp_path / "A.json", row_code_doc())
    assert main(["mindist", path, "--limit", "8"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TooLarge"


def test_json_boolean_shape_exits_2(tmp_path, capsys):
    # JSON true is a Python int; it is refused as a type, not read as 1
    doc = json.loads((GOLDEN / "row_code_gf2.json").read_text())
    path = write_json(tmp_path / "A.json", dict(doc, ell=True))
    assert main(["mindist", path]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"message": "basis document field 'ell' has the wrong type",
                   "type": "PolyParseError"}


def test_default_limit_stops_a_long_search_within_seconds(capsys):
    # the worked example's [102, 18] product read over GF(7) would take
    # Brouwer-Zimmermann through 14.6 million words; the default refuses it
    path = str(GOLDEN / "product_basis_gf7.json")
    start = time.perf_counter()
    assert main(["--format", "json", "mindist", path]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("command", ["verify", "mindist"])
def test_wide_row_code_exits_3_within_a_second(command, capsys):
    # ell 1, m 2^20 and row X + 1 over GF(2), 74 bytes: a [2^20, 2^20 - 1]
    # code, refused by the size of its generator matrix before it is built
    path = str(GOLDEN / "wide_row_code_gf2.json")
    start = time.perf_counter()
    assert main(["--format", "json", command, path]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"]["type"] == "TooLarge"


def test_wide_column_code_exits_3_within_a_second(capsys):
    # m 2^20 - 1 and generator X + 1 over GF(2): the divisibility check is
    # X^m mod (X + 1), not a division of X^m - 1 (about 40 s), and then the
    # product length is refused
    paths = [str(GOLDEN / name) for name in ("row_code_gf2.json", "wide_column_code_gf2.json")]
    start = time.perf_counter()
    assert main(["--format", "json", "product", *paths]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"]["type"] == "TooLarge"


def test_mindist_workers_option_is_gone(tmp_path, capsys):
    # the search runs in one process; --workers is an unknown option
    path = write_json(tmp_path / "A.json", row_code_doc())
    with pytest.raises(SystemExit) as exc:
        main(["mindist", path, "--workers", "2"])
    assert exc.value.code == 1
    assert "--workers" in capsys.readouterr().err
