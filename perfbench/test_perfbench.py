"""Tests of the benchmark itself: span arithmetic, tracing, the pin gate.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import pins
import spans
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent=parent)


def test_self_time_subtracts_children_once():
    sp = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 8.0, parent=0),
        _span("c", 7.0, 9.0, parent=0),  # overlaps b: covered time counts once
        _span("d", 9.5, 11.0, parent=0),  # clipped to the parent's interval
    ]
    assert spans.self_times(sp) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 3.0, 2.0, 1.5])


def test_layer_self_times_sum_to_root_duration():
    sp = [
        _span("growthlab.run", 0.0, 6.0),
        _span("torsion.growth_sample", 1.0, 5.0, parent=0),
        _span("intlinalg.snf", 2.0, 4.5, parent=1),
        _span("intlinalg.snf", 4.5, 4.75, parent=1),
        _span("growthlab.config", 10.0, 11.0),
    ]
    run_only = spans.layer_self_times(sp, "growthlab.run")
    assert run_only == pytest.approx(
        {"growthlab.run": 2.0, "torsion.growth_sample": 1.25, "intlinalg.snf": 2.75})
    assert sum(run_only.values()) == pytest.approx(spans.root_duration(sp, "growthlab.run"))


def test_tracer_records_layers_and_restores_functions():
    from torgrowth import growthlab, torsion

    out = ROOT / ".perfbench" / f"test-out-{os.getpid()}"
    original = torsion.snf_diagonal
    tracer = spans.Tracer()
    tracer.install()
    try:
        root = tracer.open("growthlab.config")
        config = growthlab.ExperimentConfig.from_dict({
            "module": {"nvars": 2, "matrix": [[[[[0, 0], "3"], [[1, 0], "1"], [[0, 1], "1"]]]]},
            "sequence": {"diagonal": {"ds": [2, 3]}},
        })
        tracer.close(root)
        report = growthlab.run(config, out)
    finally:
        tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
    assert torsion.snf_diagonal is original
    assert tracer.missing == []
    m = spans.layer_metrics(tracer.spans)
    assert m["intlinalg.snf_calls"] == m["growthlab.samples"] == 2
    assert m["torsion.matrix_cells_max"] == 81
    assert m["intlinalg.rank_deficient"] == 0
    assert {sp.sample for sp in tracer.spans if sp.name == "intlinalg.snf"} == {"diagonal:2", "diagonal:3"}
    selfs = spans.layer_self_times(tracer.spans, "growthlab.run")
    assert sum(selfs.values()) == pytest.approx(spans.root_duration(tracer.spans, "growthlab.run"))
    assert [s.index for s in report.samples] == [4, 9]


def _outputs_from_pins(pinned):
    labels, outputs = [], []
    for label, pin in pinned["configs"].items():
        labels.append(label)
        outputs.append({
            "delta": pin["delta"],
            "target": pin["target_ref"],
            "samples": [[g, *v] for g, v in pin["samples"].items()],
        })
    return labels, outputs


def test_check_counts_a_wrong_pin_as_a_failed_operation():
    pinned = pins.load("sj-1t")
    labels, outputs = _outputs_from_pins(pinned)
    ok = pins.check(pinned, labels, outputs)
    assert (ok.attempted, ok.failed) == (13, 0)
    wrong = copy.deepcopy(pinned)
    sample = wrong["configs"]["1+t1+t2"]["samples"]["gamma_sj:s=12,k=[9, 8],j=3"]
    sample[1] = str(int(sample[1]) + 1)
    bad = pins.check(wrong, labels, outputs)
    assert (bad.attempted, bad.failed) == (13, 1)
    outputs[0]["samples"].pop()
    assert pins.check(pinned, labels, outputs).failed == 1
    assert pins.check(pinned, labels, [{"error": "RuntimeError()"}]).failed == 13


def test_command_fails_on_a_corrupted_pin():
    checkout = ROOT / ".perfbench" / f"test-checkout-{os.getpid()}"
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    shutil.copytree(HERE, checkout / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", checkout / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    try:
        path = checkout / "perfbench" / "pins" / "sj-1t.json"
        pinned = json.loads(path.read_text())
        pinned["configs"]["1+t1+t2"]["samples"]["gamma_sj:s=6,k=[5, 4],j=3"][2] = 0
        path.write_text(json.dumps(pinned))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sj-1t", "--seed", "5",
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=checkout,
        )
    finally:
        shutil.rmtree(checkout)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 3 and result["attempted"] == 39  # one per repetition
    assert "error_rate    0.07692" in proc.stdout


def test_benchmark_json_declares_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.NAMES
    extra = {"growthlab.report_bytes", "trace.run_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == set(spans.layer_metrics([])) | extra
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
