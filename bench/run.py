"""Benchmark of the qcproduct library: three seeded workloads, checked
outputs, end-to-end metrics and a traced layer pass.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {product,reduce,mindist} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
wrapper installed; its latencies are scaled to a reference speed of the
machine (see passes.py).  ``--trace 1`` is the layer pass: kernel loops, field
construction, the import profile, and the workload run with wrappers that
record spans and counters around the library's entry points.  Both print a
human-readable report and, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload is a closed loop: one client, one process,
``min_distance(workers=1)``.  The seed is the only source of inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the benchmark measures the sources of this checkout and nothing else
    if not (SRC / "qcproduct" / "__init__.py").is_file():
        return _fail(f"no qcproduct sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import qcproduct
    except ImportError as exc:
        return _fail(f"cannot import qcproduct: {exc}")
    if Path(qcproduct.__file__).resolve().parent != SRC / "qcproduct":
        return _fail(f"imported qcproduct from {qcproduct.__file__}, not {SRC}")
    import passes
    from workloads import WORKLOADS, Failures

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    failures = Failures()
    facts = passes.machine_facts()
    print(f"machine: python {facts['python']}, numpy {facts['numpy']}, "
          f"nproc {facts['nproc']}, cpu {facts['cpu']}")
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, "
          f"{'layer pass (traced)' if args.trace else 'end to end (untraced)'}")
    t0 = perf_counter()
    if args.trace:
        values, notes = passes.layer_pass(wl, args.seed, args.seconds, failures)
    else:
        values, notes = passes.end_to_end(wl, args.seed, args.seconds, failures)
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"  {name:<32} {values[name]:>14.6g} {spec['unit']:<10} {notes[name]}")
    ratio = failures.failed / failures.attempted if failures.attempted else 0.0
    print(f"  {'fail_ratio':<32} {ratio:>14.6g} {'':<10} {failures.failed} of "
          f"{failures.attempted} operations raised or failed their check")
    print(f"wall time {perf_counter() - t0:.1f} s")
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
