"""The metric names run.py prints are the ones BENCHMARK.json lists."""

import json
import os

import pytest

import run
from workloads import LAYERS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _pass(reference, **extra):
    modes = [("default", False), ("default", True), ("1", False)]
    sweeps = [
        {"wall_s": 1.0 + i / 10, "cpu_s": 1.1, "rc": 0, "same": True,
         "threads": modes[i % 3][0], "traced": modes[i % 3][1]}
        for i in range(6)
    ]
    return dict(reference=reference, sweeps=sweeps, trials_per_sweep=120, **extra)


def test_workload_names_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_trace_metrics_are_the_per_layer_list():
    csv = (
        "method,snr_db,nmse_db,doa_rmse_deg,p_detect,mean_sse,trials,wall_ms\n"
        "tsdce,20,-30,0.1,0.9,0.1,40,1\n"
    )
    mixed = _pass(
        csv,
        calls={"algorithm.run": {"count": 240, "errors": 0, "p50": 0.01, "p90": 0.02}},
        self_s={layer: 0.1 for layer in LAYERS},
    )
    metrics = run.trace_metrics(WORKLOADS["sweep_tsdce"], mixed, 0.0)
    spec = {m["name"]: m for m in _spec()["per_layer"]}
    assert list(metrics) == list(spec)
    for name, (_, unit, better) in metrics.items():
        assert (unit, better) == (spec[name]["unit"], spec[name]["better"]), name
    assert metrics["algorithm.run.ms_p50"][0] == 10.0
    # two traced sweeps (1.1 s and 1.4 s) of 120 trials
    assert metrics["algorithm.reconstruct_path.calls_per_trial"][0] == 0.0
    assert metrics["bench.self_ms_per_trial"][0] == 100.0 / 240
    assert metrics["numkit.self_share"][0] == 0.1 / 2.5
    # default-pool sweeps take 1.0 s and 1.3 s, TSDCE_THREADS=1 ones 1.2 s and 1.5 s
    q1 = lambda a, b: a + (b - a) / 4
    speedup = q1(120 / 1.3, 120 / 1.0) / q1(120 / 1.5, 120 / 1.2)
    assert metrics["bench.thread_speedup"][0] == pytest.approx(speedup)
    assert metrics["numkit.dft2d.calls_per_trial"][0] == 0.0
    assert metrics["nmse_db"][0] == -30.0


def test_end_to_end_names_and_units():
    spec = _spec()["end_to_end"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec] == [
        ("trials_per_s", "1/s", "higher"),
        ("setup_s", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"),
    ]
    assert max(m["bound"] for m in spec) == next(
        m["bound"] for m in spec if m["name"] == "setup_s"
    )
