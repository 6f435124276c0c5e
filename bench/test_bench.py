"""Tests of the benchmark itself (not part of the library's tier-1 suite).

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kernels  # noqa: E402
import layers  # noqa: E402
import passes  # noqa: E402
import qcproduct as qc  # noqa: E402
from workloads import SPEC, WORKLOADS, Failures, round_inputs, run_op  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_run_prints_every_metric_with_its_unit(name):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


def _quick_kernels(monkeypatch):
    for attr in ("FIELD_REPEATS", "POLY_REPEATS", "IMPORT_RUNS"):
        monkeypatch.setattr(kernels, attr, 1)
    monkeypatch.setattr(kernels, "BUILD_REPEATS", 3)
    monkeypatch.setattr(kernels, "FIELD_OPERANDS", 50)


def test_layer_pass_reports_every_per_layer_metric(monkeypatch, tmp_path):
    _quick_kernels(monkeypatch)
    monkeypatch.setattr(passes, "TRACE_DIR", tmp_path)
    failures = Failures()
    values, notes = passes.layer_pass(WORKLOADS["product"], 3, 0, failures)
    assert failures.failed == 0
    names = {m["name"] for m in CONTRACT["per_layer"]}
    assert names <= set(values) and names <= set(notes)
    assert "absent from product" in notes["oracle.mindist_ms"]
    assert "traced product" in notes["qcmodule.reduce_ms"]
    assert list(tmp_path.glob("trace-product-seed3.json.gz"))


def _attributes():
    """Identity of every attribute of every qcproduct module and class."""
    seen = {}
    for key, module in list(sys.modules.items()):
        if key == "qcproduct" or key.startswith("qcproduct."):
            for attr, value in vars(module).items():
                seen[(key, attr)] = value
                if isinstance(value, type):
                    for member, inner in vars(value).items():
                        seen[(key, attr, member)] = inner
    return seen


def test_traced_pass_removes_every_wrapper():
    before = _attributes()
    wl = WORKLOADS["product"]
    inputs = [x for _, x in round_inputs(wl, random.Random(1))][:4]
    failures = Failures()
    run = layers.traced_pass(wl, inputs, failures)
    assert failures.failed == 0 and len(run.tracer.start) > 0
    assert run.self_time_residual() < 1e-6
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_wrappers_are_removed_when_an_operation_raises():
    before = _attributes()

    def boom(x):
        qc.rgb_pot_reduce(x.gen)
        raise RuntimeError("injected")

    wl = dataclasses.replace(WORKLOADS["reduce"], op=boom)
    inputs = [x for _, x in round_inputs(wl, random.Random(2))][:2]
    failures = Failures()
    layers.traced_pass(wl, inputs, failures)
    assert failures.failed == failures.attempted == 2
    after = _attributes()
    assert all(before[k] is after[k] for k in before)


def _flip_first_coefficient(basis):
    matrix = [list(row) for row in basis.matrix]
    entry = matrix[0][-1]
    field = entry.field
    coeffs = list(entry.coeffs) or [0]
    coeffs[0] = (coeffs[0] + 1) % field.q
    matrix[0][-1] = qc.Poly(field, coeffs)
    return qc.RgbPotBasis(field, basis.ell, basis.m, matrix)


def _corrupt_product(x):
    closed, direct, parsed, text = WORKLOADS["product"].op(x)
    return closed, _flip_first_coefficient(direct), parsed, text


def _corrupt_reduce(x):
    return _flip_first_coefficient(WORKLOADS["reduce"].op(x))


def _corrupt_mindist(x):
    d_a, d_b, d_product = WORKLOADS["mindist"].op(x)
    return d_a, d_b, d_product + 1


@pytest.mark.parametrize("name, corrupt", [("product", _corrupt_product),
                                           ("reduce", _corrupt_reduce),
                                           ("mindist", _corrupt_mindist)])
def test_corrupted_output_is_counted_as_failed(name, corrupt):
    wl = dataclasses.replace(WORKLOADS[name], op=corrupt)
    pairs = round_inputs(wl, random.Random(5))[:3]
    failures = Failures()
    for _, x in pairs:
        assert run_op(wl, x, failures) is not None
    assert failures.attempted == len(pairs)
    assert failures.failed == len(pairs)


def test_reduce_twins_are_checked_against_each_other():
    wl = WORKLOADS["reduce"]
    drawn, scrambled = wl.make((2, 3, 31, "full"), random.Random(4))
    assert drawn.first is scrambled.first and drawn.gen != scrambled.gen
    assert wl.check(drawn, wl.op(drawn))
    (other, _) = wl.make((2, 3, 31, "full"), random.Random(5))
    assert not wl.check(scrambled, wl.op(other))
    assert wl.check(scrambled, wl.op(scrambled))


def test_latencies_are_scaled_to_the_reference_speed(monkeypatch):
    wl = WORKLOADS["product"]
    for speed in (1.0, 2.0):
        monkeypatch.setattr(passes, "reference_seconds",
                            lambda: passes.REFERENCE_NOMINAL_S * speed)
        t = passes.timed_rounds(wl, random.Random(6), 0, Failures())
        assert len(t.latencies) == len(t.raw) >= 1 and len(t.refs) > len(t.raw)
        assert t.latencies == pytest.approx([x / speed for x in t.raw])


def test_same_seed_gives_same_inputs():
    for wl in WORKLOADS.values():
        assert round_inputs(wl, random.Random(11)) == round_inputs(wl, random.Random(11))
        assert round_inputs(wl, random.Random(11)) != round_inputs(wl, random.Random(12))


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 101))
    assert passes.tail_percentile(xs, 95) == (90, 90, 10)
    assert passes.tail_percentile(xs, 75) == (75, 75, 25)
    assert passes.tail_percentile(list(range(1, 1001)), 95) == (95, 950, 50)
    assert passes.tail_percentile(list(range(1, 31)), 95)[0] == 50


def test_layer_map_matches_the_contract():
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    mapped = [name for layer in SPEC["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer) and len(set(mapped)) == len(mapped)
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    workloads = {w["name"] for w in CONTRACT["workloads"]}
    assert workloads == set(WORKLOADS) == set(SPEC["workloads"])
    for layer in SPEC["layers"]:
        assert set(layer["moves"]) <= workloads
        assert set(layer["unchanged"]) <= workloads
        assert not set(layer["moves"]) & set(layer["unchanged"])
        for metrics in layer["moves"].values():
            assert set(metrics) <= end_to_end


def test_mindist_cells_meet_the_message_budget():
    spec = SPEC["workloads"]["mindist"]
    for q, _, _, _, k_a, k_b in spec["cells"]:
        assert q ** (k_a * k_b) == spec["message_budget"][str(q)]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "product", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
