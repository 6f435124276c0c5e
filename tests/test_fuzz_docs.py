"""A seeded fuzzer of the CLI's input documents.

Each case takes a golden `reduce`, `product`, `verify` or `mindist` input
document, sets one or two of its values (leaves, or whole lists and
objects) to polynomial text, a nearby int, or any int, float, bool, None,
string, list or object, edits inside a text value (a sign, "*", "^", a
digit or whitespace inserted or deleted, or leading zeros put before a
number), or drops one, and runs the command on it through
`cli.main` under a 5-s alarm.  Every case must exit 0, 2 or 3, and a failing case must write
exactly one JSON error line to stderr.  Case i draws everything from
`random.Random(i)`, so a failure names the case that reproduces it.

A second mutation raises `m` of each `verify` and `mindist` document to
every power of two up to 2^20: under the same alarm each such case must
answer or exit 3, the bound on the expanded generator matrix.
"""

import json
import random
import signal
from pathlib import Path

import pytest

from qcproduct.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (command, input documents); the fuzzer mutates one of the documents
COMMANDS = [
    ("reduce", ["matrix_gf2.json"]),
    ("reduce", ["matrix_gf3.json"]),
    ("reduce", ["matrix_gf4.json"]),
    ("reduce", ["matrix_wide_gf3.json"]),
    ("reduce", ["matrix_wide_gf4.json"]),
    ("reduce", ["noncanonical_gf2.json"]),
    ("product", ["row_code_gf2.json", "column_code_gf2.json"]),
    ("product", ["row_code_gf3.json", "column_code_gf3.json"]),
    ("product", ["row_code_gf4.json", "column_code_gf4.json"]),
    ("verify", ["row_code_gf2.json"]),
    ("verify", ["noncanonical_gf2.json"]),
    ("mindist", ["row_code_gf2.json"]),
    ("mindist", ["row_code_gf3.json"]),
    ("mindist", ["row_code_gf4.json"]),
    ("mindist", ["product_basis_gf2.json"]),
    ("mindist", ["row_code_gf2147483647.json"]),
]

POLY_TEXT = ["0", "1", "X", "X+1", "2*X^2+X", "X^1048576", "X^1048577",
             "X^-1", "X^^2", "3*X", "-X", "X ^ 2 + 1", "x+1", "1" * 40,
             "X^4294967296", "X^17+1", "+", "", "*X", "X^2+X+1\n"]
SCALARS = [0, 1, -1, 2, 3, 4, 7, 64, 65, 2 ** 20, 2 ** 31 - 1, 2 ** 64, -2 ** 70,
           0.0, 1.5, -2.5, 1e300, float("nan"), float("inf"),
           True, False, None, "", "2", "X", "é"]
# what an edit inside a text value inserts or deletes
EDITS = "+-*^0123456789 \t\n"
CASES = 400
ALARM_S = 5


def _poly(rng: random.Random) -> str:
    """Polynomial text: a fixed oddity, or a sum of random terms."""
    if rng.randrange(3) == 0:
        return rng.choice(POLY_TEXT)
    terms = [f"{rng.choice([1, 1, 1, 2, 3, 8])}*X^"
             f"{rng.choice([0, 1, 2, 5, 17, 60, 200])}"
             for _ in range(rng.randrange(1, 5))]
    return "+".join(terms)


def _edit(rng: random.Random, text: str) -> str:
    """text with one to three edits: a sign, "*", "^", a digit or
    whitespace inserted or deleted, or leading zeros before a number."""
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(EDITS) + text[i:]
        elif kind == 1:
            places = [i for i, ch in enumerate(text) if ch in EDITS]
            if places:
                i = rng.choice(places)
                text = text[:i] + text[i + 1:]
        else:
            starts = [i for i, ch in enumerate(text)
                      if ch.isdigit() and not text[i - 1:i].isdigit()]
            if starts:
                i = rng.choice(starts)
                text = text[:i] + "0" * rng.randrange(1, 9) + text[i:]
    return text


def _value(rng: random.Random, old):
    """A value of the same kind as `old` (polynomial text for a string, a
    nearby or edge int for an int) four times in five, else any value."""
    if rng.randrange(5):
        if isinstance(old, str):
            return _poly(rng)
        if isinstance(old, int) and not isinstance(old, bool):
            return rng.choice([old - 1, old + 1, 2 * old, old + rng.randrange(2, 9),
                               0, 1, rng.choice(SCALARS)])
    kind = rng.randrange(6)
    if kind == 0:
        return _poly(rng)
    if kind == 1:
        return rng.choice(SCALARS)
    if kind == 2:
        return rng.randrange(-5, 100)
    if kind == 3:
        return [_poly(rng) for _ in range(rng.randrange(4))]
    if kind == 4:
        return [[_poly(rng)] for _ in range(rng.randrange(3))]
    return {"p": rng.choice(SCALARS), "m": rng.choice(SCALARS)}


def _paths(node, path=()):
    """(path, is a leaf) of every value below the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), not isinstance(child, (dict, list))
        yield from _paths(child, path + (key,))


def _mutate(rng: random.Random, doc):
    """doc with one or two values replaced, edited or dropped, a leaf four
    times in five; a text leaf is edited half the times it is replaced."""
    for _ in range(rng.randrange(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            return _value(rng, doc)
        leaves = [path for path, leaf in paths if leaf]
        *parent, key = rng.choice(leaves if leaves and rng.randrange(5)
                                  else [path for path, _ in paths])
        owner = doc
        for step in parent:
            owner = owner[step]
        if rng.randrange(5):
            old = owner[key]
            owner[key] = (_edit(rng, old) if isinstance(old, str) and rng.randrange(2)
                          else _value(rng, old))
        else:
            del owner[key]
    return doc


def _case(i: int, tmp_path: Path):
    rng = random.Random(i)
    command, names = rng.choice(COMMANDS)
    target = rng.randrange(len(names))
    argv = ["--format", rng.choice(["json", "pretty"]), command]
    for j, name in enumerate(names):
        path = GOLDEN / name
        if j == target:
            doc = _mutate(rng, json.loads(path.read_text(encoding="utf-8")))
            path = tmp_path / f"mutated_{j}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
        argv.append(str(path))
    return argv


class _Overran(Exception):
    pass


def _alarm(signum, frame):
    raise _Overran(f"over {ALARM_S} s")


def _run(argv) -> int:
    """main(argv) under the alarm."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("i", range(CASES))
def test_mutated_document_exits_cleanly(i, tmp_path, capsys):
    argv = _case(i, tmp_path)
    code = _run(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        error = json.loads(lines[0])["error"]
        assert set(error) == {"type", "message"}, (argv, err)


# (command, document, m) for m a power of two above the document's, to 2^20
RAISED_M = [(command, name, 1 << e)
            for command, names in COMMANDS if command in ("verify", "mindist")
            for name in names
            for e in range(21)
            if 1 << e > json.loads((GOLDEN / name).read_text(encoding="utf-8"))["m"]]


@pytest.mark.parametrize("command, name, m", RAISED_M,
                         ids=[f"{c}-{n[:-5]}-m{m}" for c, n, m in RAISED_M])
def test_raised_m_answers_or_exits_3(command, name, m, tmp_path, capsys):
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    path = tmp_path / "raised.json"
    path.write_text(json.dumps(dict(doc, m=m)), encoding="utf-8")
    code = _run(["--format", "json", command, str(path)])
    err = capsys.readouterr().err
    assert code in (0, 3), (m, code, err)
    if code:
        assert json.loads(err)["error"]["type"] == "TooLarge", err
