"""The two passes of the benchmark: the untraced end-to-end run and the
traced layer pass.  See run.py for the command line."""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import kernels
import layers
from workloads import WORKLOADS, Failures, round_inputs, run_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_RUNS = 9
LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

# The machine's speed is not steady: on a shared 2-vCPU VM it moves
# between levels up to 1.6x apart, each lasting seconds, as other tenants
# load the sibling hyperthreads.  So every operation is timed between two
# runs of a fixed reference loop in the benchmark's own code, shaped like
# the library's inner loops: a schoolbook product of two integer lists
# mod 5 in pure Python (the prime-field Poly code) and small numpy
# convolutions (the extension-field kernel).  Its latency is scaled to the
# speed at which that loop takes REFERENCE_NOMINAL_S.  Over 3-s windows on
# a 2-vCPU Xeon VM, raw latencies of one fixed input set moved 16-36%
# (quartile distance over median) and the scaled ones 2-6%; either half of
# the loop alone left 4-13%.  The library cannot change the loop, so a
# faster or slower library moves the scaled figures as it moves the raw
# ones; the report prints the raw figures beside them.
_REF_A = [(7 * i + 3) % 5 for i in range(40)]
_REF_B = [(3 * i + 1) % 5 for i in range(40)]
_REF_U = np.array([1, 2, 0, 1, 2, 2, 1, 0, 1], dtype=np.int64)
_REF_V = np.array([2, 1, 1, 0, 2, 1, 0, 2, 1], dtype=np.int64)
REFERENCE_NOMINAL_S = 0.2e-3


def _reference_loop():
    out = [0] * (len(_REF_A) + len(_REF_B) - 1)
    for i, a in enumerate(_REF_A):
        if a:
            for j, b in enumerate(_REF_B):
                out[i + j] = (out[i + j] + a * b) % 5
    for _ in range(20):
        out[0] += int((np.convolve(_REF_U, _REF_V) % 3).sum())
    return out


def reference_seconds() -> float:
    """The fastest of three runs of the reference loop, so that a single
    interrupt does not count as a slower machine."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _reference_loop()
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Timings:
    """What one end-to-end run measured; times in seconds."""
    latencies: list = field(default_factory=list)  # at reference speed
    raw: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # raw; see timed_rounds
    refs: list = field(default_factory=list)
    rounds: int = 0


def _at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * 2 * REFERENCE_NOMINAL_S / (ref_before + ref_after)


def timed_rounds(wl, rng: random.Random, seconds: float, failures: Failures) -> Timings:
    """Whole rounds until the time is up and the tail percentile of the
    workload has MIN_BEYOND samples beyond it.  Between rounds, launches the
    fresh set-up interpreters at evenly spread times, so that they sample
    the same machine as the operations.  Each operation is timed between
    two runs of the reference loop.  The set-up times are not scaled: the
    fresh interpreter may run on the other vCPU, whose speed the loop in
    this process does not see (scaling them widened their spread from 17%
    to 22% on a 2-vCPU VM)."""
    t = Timings(refs=[reference_seconds()])
    needed = math.ceil(MIN_BEYOND / (1 - wl.tail_percentile_max / 100))
    start = perf_counter()
    while True:
        for _, x in round_inputs(wl, rng):
            elapsed = run_op(wl, x, failures)
            t.refs.append(reference_seconds())
            if elapsed is not None:
                t.raw.append(elapsed)
                t.latencies.append(_at_reference_speed(elapsed, *t.refs[-2:]))
        t.rounds += 1
        done = perf_counter() - start >= seconds and len(t.raw) >= needed
        while len(t.setups) < SETUP_RUNS and (
                done or perf_counter() - start >= len(t.setups) * seconds / SETUP_RUNS):
            t.setups.append(setup_seconds(wl.fields))
            t.refs.append(reference_seconds())  # the next operation's "before"
        if done:
            return t


def tail_percentile(latencies, cap: float):
    """The highest percentile of LADDER, at most cap, with at least
    MIN_BEYOND samples beyond it (nearest rank); p50 when none has."""
    xs = sorted(latencies)
    n = len(xs)
    best = LADDER[0]
    for p in LADDER:
        if p <= cap and n - math.ceil(p / 100 * n) >= MIN_BEYOND:
            best = p
    rank = max(1, math.ceil(best / 100 * n))
    return best, xs[rank - 1], n - rank


def setup_seconds(fields) -> float:
    """Seconds from launching a fresh interpreter until ``import qcproduct``
    has returned and the workload's fields are built."""
    code = ("import qcproduct\n"
            f"for q in {tuple(fields)!r}:\n    qcproduct.field_of_order(q)\n"
            "print('ready', flush=True)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
    return elapsed


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


# ---------------------------------------------------------------------------
# the two passes
# ---------------------------------------------------------------------------

def end_to_end(wl, seed: int, seconds: float, failures: Failures):
    t = timed_rounds(wl, random.Random(seed), seconds, failures)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not t.latencies:
        raise RuntimeError("no operation completed")
    pct, tail, beyond = tail_percentile(t.latencies, wl.tail_percentile_max)
    n = len(t.latencies)
    values = {
        "ops_per_s": n / sum(t.latencies),
        "latency_p50_ms": statistics.median(t.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(t.setups),
        "peak_rss_mb": peak_mb,
    }
    speed = (f"at reference speed (loop {REFERENCE_NOMINAL_S * 1e3:g} ms, "
             f"measured median {statistics.median(t.refs) * 1e3:.3f} ms)")
    notes = {
        "ops_per_s": (f"{n} ops in {t.rounds} rounds / seconds spent in them, "
                      f"{speed}; raw {n / sum(t.raw):.4g}"),
        "latency_p50_ms": f"n={n}, {speed}; raw {statistics.median(t.raw) * 1e3:.4g} ms",
        "latency_tail_ms": f"p{pct:g}, n={n}, {beyond} samples beyond, {speed}",
        "setup_s": f"median of {len(t.setups)} fresh interpreters spread over the run",
        "peak_rss_mb": "ru_maxrss of the process that ran the workload",
    }
    return values, notes


def layer_pass(wl, seed: int, seconds: float, failures: Failures):
    start = perf_counter()
    rng = random.Random(seed)
    values, notes = {}, {}
    values.update(kernels.import_profile(str(SRC), failures))
    values.update(kernels.field_builds(failures))
    values.update(kernels.field_kernels(rng, failures))
    values.update(kernels.poly_kernels(rng, failures))
    for key in values:
        notes[key] = "kernel section"

    inputs = [x for _, x in round_inputs(wl, rng)]
    # the kernel section counts against the run's seconds
    own, overhead, pairs = layers.traced_and_untraced(
        wl, inputs, seconds - (perf_counter() - start), failures)
    values["trace.overhead_frac"] = overhead
    notes["trace.overhead_frac"] = (f"median of {pairs} traced passes over median "
                                    f"of {pairs} untraced passes of {len(inputs)} ops, minus 1")
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{wl.name}-seed{seed}.json.gz"
    own.tracer.write(trace_path)
    print(f"spans: {len(own.tracer.start)} written to {os.path.relpath(trace_path, ROOT)}; "
          f"largest self-time residual per op {own.self_time_residual():.3g} s")

    found = own.metrics()
    for name, value in found.items():
        if value is not None:
            values[name] = value
            notes[name] = f"traced {wl.name}, {len(inputs)} ops"
    for other in WORKLOADS.values():
        missing = [k for k, v in found.items() if v is None and k not in values]
        if not missing:
            break
        if other is wl:
            continue
        other_inputs = [x for _, x in round_inputs(other, random.Random(seed))]
        extra = layers.traced_pass(other, other_inputs, failures).metrics()
        for name in missing:
            if extra[name] is not None:
                values[name] = extra[name]
                notes[name] = (f"absent from {wl.name}, which never calls this "
                               f"layer; traced on one round of {other.name}")
    return values, notes
