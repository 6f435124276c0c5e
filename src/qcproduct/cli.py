"""Command-line interface.

Subcommands:

* ``cosets q m``            cyclotomic coset table modulo m over GF(q)
* ``factor q m``            factorization of X^m - 1 over GF(q)
* ``minpoly q m i``         minimal polynomial of the i-th root power
* ``reduce basis.json``     canonical form of a generating matrix
* ``product A.json B.json`` product-code bases (direct and closed-form)
* ``maps ell_a m_a m_b``    serialization index table as CSV
* ``mindist basis.json``    exact minimum distance
* ``verify basis.json``     canonical-form conditions and shift closure
* ``example-sec4``          built-in worked example with golden outputs

Exit codes: 0 success, 1 usage error, 2 unreadable or unparsable input,
3 violated precondition (any domain error), 4 golden-value mismatch in
``example-sec4``.

Output formats: ``pretty`` (human-readable, may include timing), ``json``
(canonical: sorted keys, no whitespace, byte-identical across runs — any
timing field is null), ``csv`` (only for ``maps``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .cyclic import (
    cyclic_code_new,
    cyclotomic_coset,
    cyclotomic_cosets,
    factor_xm_minus_1,
    minimal_polynomial,
)
from .errors import NonPrefixPattern, PolyParseError, QcError
from .field import _parse_int, field_new
from .oracle import (
    _MESSAGE_LIMIT,
    _distance_search,
    expand_to_linear,
    is_quasi_cyclic,
    min_distance,
)
from .polyring import Poly, modular_substitute
from .product import (
    OneLevelCode,
    bezout_pair,
    map_f,
    map_g,
    one_level_product_rgb,
    unreduced_product_basis,
)
from .qcmodule import RgbPotBasis, dimension, is_rgb_pot, level, rgb_pot_reduce
from .serialize import (
    _check_length,
    basis_from_doc,
    basis_to_doc,
    canonical_json,
    cyclic_from_doc,
    generating_matrix_from_doc,
    generating_matrix_to_doc,
    poly_from_text,
    poly_to_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on usage errors; the documented taxonomy
    reserves 2 for input-parse failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcproduct",
        description="Construct and check quasi-cyclic product codes over GF(q).")
    parser.add_argument("--format", choices=("pretty", "json", "csv"),
                        default="pretty", help="output format (default: pretty)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cosets", help="cyclotomic cosets modulo m over GF(q)")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)

    p = sub.add_parser("factor", help="factor X^m - 1 over GF(q)")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)

    p = sub.add_parser("minpoly",
                       help="minimal polynomial of alpha^i for an m-th root alpha")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("i", type=int)

    p = sub.add_parser("reduce",
                       help="reduce a generating matrix to canonical form")
    p.add_argument("basis", metavar="basis.json")

    p = sub.add_parser("product",
                       help="product of a quasi-cyclic row code and a cyclic column code")
    p.add_argument("row_code", metavar="A.json")
    p.add_argument("column_code", metavar="B.json")

    p = sub.add_parser("maps", help="serialization index tables f and g")
    p.add_argument("ell_a", type=int)
    p.add_argument("m_a", type=int)
    p.add_argument("m_b", type=int)

    p = sub.add_parser("mindist", help="exact minimum distance by enumeration")
    p.add_argument("basis", metavar="basis.json")
    p.add_argument("--limit", type=int, default=_MESSAGE_LIMIT,
                   help="refuse a code whose search would enumerate more than "
                   "this many messages")

    p = sub.add_parser("verify",
                       help="check canonical-form conditions and shift closure")
    p.add_argument("basis", metavar="basis.json")

    sub.add_parser("example-sec4",
                   help="run the built-in worked example and diff against goldens")
    return parser


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_error(kind: str, exc: Exception) -> None:
    doc = {"error": {"type": kind, "message": str(exc)}}
    sys.stderr.write(canonical_json(doc) + "\n")


def _report(args, doc: dict, pretty_lines, csv_text=None) -> int:
    if args.format == "json":
        _emit(args, canonical_json(doc))
    elif args.format == "csv":
        if csv_text is None:
            _emit_error("Usage", ValueError(
                f"subcommand '{args.command}' has no CSV representation"))
            return EXIT_USAGE
        _emit(args, csv_text)
    else:
        _emit(args, "\n".join(pretty_lines))
    return EXIT_OK


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=_parse_int)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cosets(args) -> int:
    _check_length(args.m, "m")
    cosets = cyclotomic_cosets(args.q, args.m)
    doc = {"q": args.q, "m": args.m,
           "cosets": [list(c) for c in cosets]}
    lines = [f"{args.q}-cyclotomic cosets modulo {args.m}:"]
    lines += [f"  C_{c[0]} = {{{', '.join(map(str, c))}}}" for c in cosets]
    return _report(args, doc, lines)


def _cmd_factor(args) -> int:
    _check_length(args.m, "m")
    factors = factor_xm_minus_1(args.q, args.m)
    doc = {"q": args.q, "m": args.m,
           "factors": [{"rep": rep, "poly": poly_to_text(p)}
                       for rep, p in factors]}
    lines = [f"X^{args.m}-1 over GF({args.q}) = product of {len(factors)} "
             f"irreducible factors:"]
    lines += [f"  m_{rep} = {poly_to_text(p)}" for rep, p in factors]
    return _report(args, doc, lines)


def _cmd_minpoly(args) -> int:
    _check_length(args.m, "m")
    coset = cyclotomic_coset(args.q, args.m, args.i)
    poly = minimal_polynomial(args.q, args.m, args.i)
    doc = {"q": args.q, "m": args.m, "i": args.i,
           "coset": list(coset), "minpoly": poly_to_text(poly)}
    lines = [f"C_{args.i} = {{{', '.join(map(str, coset))}}}",
             f"m_{args.i} = {poly_to_text(poly)}"]
    return _report(args, doc, lines)


def _safe_level(basis: RgbPotBasis):
    try:
        return level(basis)
    except NonPrefixPattern:
        return None


def _cmd_reduce(args) -> int:
    gen = generating_matrix_from_doc(_load_json(args.basis))
    basis = rgb_pot_reduce(gen)
    ok, violations = is_rgb_pot(basis)
    doc = {
        "basis": basis_to_doc(basis),
        "canonical": ok,
        "violations": violations,
        "dimension": dimension(basis),
        "level": _safe_level(basis),
    }
    lines = [f"canonical basis (ell={basis.ell}, m={basis.m}, "
             f"k={doc['dimension']}, level={doc['level']}):"]
    for row in basis.matrix:
        lines.append("  [" + " | ".join(poly_to_text(p) for p in row) + "]")
    lines.append(f"conditions satisfied: {ok}")
    lines += [f"  violation: {v}" for v in violations]
    return _report(args, doc, lines)


def _cmd_product(args) -> int:
    basis_a = basis_from_doc(_load_json(args.row_code))
    code_b = cyclic_from_doc(_load_json(args.column_code))
    _check_length(basis_a.ell * basis_a.m * code_b.m, "product length ell_a*m_a*m_b")
    params = bezout_pair(basis_a.ell, basis_a.m, code_b.m)
    direct = unreduced_product_basis(basis_a, code_b, params)
    reduced = rgb_pot_reduce(direct)
    row = None
    if _safe_level(basis_a) == 1:
        one = one_level_product_rgb(OneLevelCode.from_basis(basis_a),
                                    code_b, params)
        row = [poly_to_text(p) for p in one.row()]
    doc = {
        "params": dataclasses.asdict(params),
        "unreduced": generating_matrix_to_doc(direct),
        "reduced": basis_to_doc(reduced),
        "one_level_row": row,
    }
    lines = [f"product parameters: a={params.a}, b={params.b}, "
             f"length {params.ell_a * params.big_m}"]
    lines.append("reduced basis:")
    for r in reduced.matrix:
        lines.append("  [" + " | ".join(poly_to_text(p) for p in r) + "]")
    if row is not None:
        lines.append("closed-form generating row:")
        lines.append("  [" + " | ".join(row) + "]")
    return _report(args, doc, lines)


def _cmd_maps(args) -> int:
    _check_length(args.ell_a * args.m_a * args.m_b, "product length ell_a*m_a*m_b")
    params = bezout_pair(args.ell_a, args.m_a, args.m_b)
    f_table = [[map_f(i, j, params) for j in range(params.ell_a * params.m_a)]
               for i in range(params.m_b)]
    g_table = [[map_g(i, j, params) for j in range(params.m_a)]
               for i in range(params.m_b)]
    doc = {
        "params": dataclasses.asdict(params),
        "f": f_table,
        "g": g_table,
    }
    csv_text = "\n".join(",".join(map(str, row)) for row in f_table) + "\n"
    lines = [f"f(i,j) for ell_a={params.ell_a}, m_a={params.m_a}, "
             f"m_b={params.m_b} (a={params.a}, b={params.b}):"]
    lines += ["  " + " ".join(f"{v:>4}" for v in row) for row in f_table]
    return _report(args, doc, lines, csv_text=csv_text)


def _cmd_mindist(args) -> int:
    basis = basis_from_doc(_load_json(args.basis))
    view = expand_to_linear(basis)
    start = time.perf_counter()
    d, enumerated, search = _distance_search(view, args.limit)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    doc = {"n": view.n, "k": view.k, "d": d,
           "elapsed_ms": None, "enumerated": enumerated}
    lines = [f"[n={view.n}, k={view.k}] code: minimum distance d={d}",
             f"{search} search enumerated {enumerated} nonzero codewords "
             f"in {elapsed_ms:.1f} ms"]
    return _report(args, doc, lines)


def _cmd_verify(args) -> int:
    basis = basis_from_doc(_load_json(args.basis))
    # first, for its bound on k*n, which also bounds is_rgb_pot's divisions
    view = expand_to_linear(basis)
    ok, violations = is_rgb_pot(basis)
    qc = is_quasi_cyclic(view, basis.ell)
    doc = {
        "ell": basis.ell, "m": basis.m, "n": view.n, "k": view.k,
        "canonical": ok, "violations": violations,
        "quasi_cyclic": qc, "level": _safe_level(basis),
    }
    lines = [f"basis ell={basis.ell}, m={basis.m}: [n={view.n}, k={view.k}]",
             f"canonical-form conditions: {'pass' if ok else 'FAIL'}"]
    lines += [f"  violation: {v}" for v in violations]
    lines.append(f"closed under shift by {basis.ell}: "
                 f"{'pass' if qc else 'FAIL'}")
    return _report(args, doc, lines)


# ---------------------------------------------------------------------------
# built-in worked example
# ---------------------------------------------------------------------------

# Golden outputs for the built-in example: a binary [34, 9, 11] 2-quasi-cyclic
# row code generated by (m_1, m_1*m_0^3*(X^3+X^2+1)) for 17th roots of unity,
# times the [3, 2, 2] parity-check column code <X+1>.
_G00_EXPS = (0, 1, 3, 6, 8, 10, 13, 15, 16, 17, 18, 20, 23, 25, 27, 30, 32, 33)
_G01_EXPS = (0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 15, 17, 19, 22, 24, 26, 28, 31,
             33, 35, 38, 40, 41, 42, 44, 45, 46, 48, 49, 50)
# The same second entry with the column scaling X^(-a*m_a) undone, which is
# how a generator-row presentation without the diagonal factor reads.
_G01_PRESENTATION_EXPS = (1, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18, 19,
                          21, 22, 23, 25, 26, 27, 29, 32, 34, 36, 39, 41, 43,
                          45, 48, 50)


def _poly_from_exps(field, exps) -> Poly:
    coeffs = [0] * (max(exps) + 1)
    for e in exps:
        coeffs[e] = 1
    return Poly(field, coeffs)


def _cmd_example(args) -> int:
    f2 = field_new(2)
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(f2, (1, 0, 1, 1))
    code_a = OneLevelCode(m1, [f1], 2, 17)
    code_b = cyclic_code_new(3, poly_from_text(f2, "X+1"))
    params = bezout_pair(2, 17, 3)
    product = one_level_product_rgb(code_a, code_b, params)
    g00, g01 = product.row()
    presentation = modular_substitute(g01, 1, 51, 17)

    direct = unreduced_product_basis(code_a.basis(), code_b, params)
    reduced = rgb_pot_reduce(direct)

    d_a = min_distance(expand_to_linear(code_a.basis()))
    b_basis = RgbPotBasis(f2, 1, 3, [[code_b.g]])
    d_b = min_distance(expand_to_linear(b_basis))

    checks = {
        "bezout": (params.a, params.b) == (1, -11),
        "g00": g00 == _poly_from_exps(f2, _G00_EXPS),
        "g01": g01 == _poly_from_exps(f2, _G01_EXPS),
        "g01_presentation":
            presentation == _poly_from_exps(f2, _G01_PRESENTATION_EXPS),
        "paths_agree": reduced == product.basis(),
        "dimension": product.k == 18,
        "d_a": d_a == 11,
        "d_b": d_b == 2,
    }
    match = all(checks.values())
    doc = {
        "g00": poly_to_text(g00),
        "g01": poly_to_text(g01),
        "g01_presentation": poly_to_text(presentation),
        "a": params.a, "b": params.b,
        "dimension": product.k, "d_a": d_a, "d_b": d_b,
        "checks": checks, "match": match,
    }
    lines = [
        "row code A: [34, 9, 11] binary 2-quasi-cyclic, "
        "column code B: [3, 2, 2] cyclic",
        f"a = {params.a}, b = {params.b}",
        f"g_00 = {poly_to_text(g00)}",
        f"g_01 = {poly_to_text(g01)}",
        f"g_01 without column scaling = {poly_to_text(presentation)}",
        f"product dimension k = {product.k}, d_A = {d_a}, d_B = {d_b}",
    ]
    lines += [f"check {name}: {'pass' if ok else 'FAIL'}"
              for name, ok in checks.items()]
    code = _report(args, doc, lines)
    if code != EXIT_OK:
        return code
    return EXIT_OK if match else EXIT_MISMATCH


_COMMANDS = {
    "cosets": _cmd_cosets,
    "factor": _cmd_factor,
    "minpoly": _cmd_minpoly,
    "reduce": _cmd_reduce,
    "product": _cmd_product,
    "maps": _cmd_maps,
    "mindist": _cmd_mindist,
    "verify": _cmd_verify,
    "example-sec4": _cmd_example,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (PolyParseError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_PARSE
    except QcError as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
