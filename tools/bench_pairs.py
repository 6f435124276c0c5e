"""Alternating benchmark pairs: the committed files of a parent commit
against this checkout, on one workload.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent REF --workload W --seeds A-B --seconds S

The files committed at REF are unpacked (``git archive``, which unlike a
``git worktree`` writes nothing into the repository) into a temporary
directory, removed on exit, errors and SIGTERM included.  For each seed N
from A to B, ``python3 bench/run.py --workload W --seed N --seconds S
--trace 0`` runs once in that copy and once in this checkout; the parent
goes first on odd seeds and the checkout on even ones.  Each run's last line of standard
output is its JSON result.  For every end-to-end metric of this checkout's
BENCHMARK.json the report gives each side's median and quartiles and the
number of pairs the checkout won, ties counting for neither, and it says
whether every run read ``correct`` true with ``failed`` 0.  The exit status
is 1 when a run did not, or printed no result, and 2 when REF cannot be
unpacked.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        return range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, not {text!r}") from None


def _run(tree: Path, args, seed: int) -> dict:
    """The JSON result of one untraced benchmark run in `tree`."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stderr)
        return {"correct": False, "failed": None, "metrics": {}}


def _value(result: dict, name: str):
    """The value of metric `name` in one run's result; None if it has none."""
    return result["metrics"].get(name, {}).get("value")


def _spread(values: list) -> str:
    """median [lower quartile, upper quartile]"""
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return f"{statistics.median(values):.6g} [{quartiles[0]:.6g}, {quartiles[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    # SIGTERM unwinds like an error, so the copy and a running benchmark go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        with subprocess.Popen(["git", "archive", args.parent], cwd=ROOT,
                              stdout=subprocess.PIPE) as archive:
            untar = subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout)
        if archive.returncode or untar.returncode:
            print(f"bench_pairs: cannot unpack {args.parent!r}", file=sys.stderr)
            return 2
        trees = {"parent": Path(tmp), "change": ROOT}
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                results[side].append(_run(trees[side], args, seed))
            print(f"seed {seed}: " + ", ".join(
                f"{side} {_value(results[side][-1], 'ops_per_s') or 0:.6g} ops/s"
                for side in order), flush=True)

    ok = all(r["correct"] is True and r["failed"] == 0
             for side in results.values() for r in side)
    pairs = len(results["parent"])
    print(f"\n{args.workload}, {pairs} pairs of {args.seconds:g}-s runs, "
          f"parent {args.parent} -> this checkout")
    for spec in contract:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {side: [_value(r, name) for r in runs] for side, runs in results.items()}
        if None in values["parent"] + values["change"]:
            print(f"  {name}: missing from a run")
            continue
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        print(f"  {name} ({spec['unit']}, {spec['better']} is better): "
              f"parent {_spread(values['parent'])}, change {_spread(values['change'])}, "
              f"change won {wins} of {pairs}")
    print("every run correct with 0 failed" if ok else "a run was incorrect, failed or gave no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
