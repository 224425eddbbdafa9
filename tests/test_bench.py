"""Harness tests: metrics, path matching, config parsing, CSV round trips
and the Monte Carlo sweep driver."""

import dataclasses
import os

import numpy as np
import pytest

from tsdce.algorithm import PathEstimate
from tsdce.bench import (
    ConfigError,
    ExperimentConfig,
    MetricRecord,
    angle_errors_deg,
    doa_metrics,
    emit_csv,
    load_config,
    match_paths,
    nmse_ratio,
    parse_records,
    ratio_to_db,
    run_experiment,
)
from tsdce import bench
from tsdce.channel import PathParams
from tsdce.numkit import SeededRng


def make_path(aod, aoa, mag=1.0):
    return PathParams.from_gain_angles(mag, aod, aoa)


def make_estimate(aod, aoa, mag=1.0):
    return PathEstimate.from_freqs(mag, 0.0, np.pi * np.cos(aod),
                                   -np.pi * np.cos(aoa))


class TestMetrics:
    def test_nmse_ratio(self):
        h = np.ones((4, 4), dtype=complex)
        h_hat = h + 0.1
        assert nmse_ratio(h_hat, h) == pytest.approx(0.01)

    def test_ratio_to_db(self):
        assert ratio_to_db(0.1) == pytest.approx(-10.0)
        assert ratio_to_db(0.0) == -999.0

    def test_doa_metrics_pooled_rmse(self):
        errors = np.array([0.5, 0.5, 3.0])
        rmse, p_detect = doa_metrics(errors, 1.0, 6)
        assert rmse == pytest.approx(0.5)
        assert p_detect == pytest.approx(2.0 / 6.0)

    def test_doa_metrics_no_detection(self):
        rmse, p_detect = doa_metrics(np.array([5.0, 9.0]), 1.0, 4)
        assert np.isnan(rmse)
        assert p_detect == 0.0


class TestMatchPaths:
    def test_identity(self):
        truths = [make_path(0.5, 1.0), make_path(2.0, 2.5)]
        ests = [make_estimate(0.5, 1.0), make_estimate(2.0, 2.5)]
        assert set(match_paths(truths, ests)) == {(0, 0), (1, 1)}

    def test_recovers_permutation(self):
        truths = [make_path(0.5, 1.0), make_path(2.0, 2.5), make_path(1.2, 0.4)]
        ests = [make_estimate(1.2, 0.4), make_estimate(0.5, 1.0),
                make_estimate(2.0, 2.5)]
        assert set(match_paths(truths, ests)) == {(0, 1), (1, 2), (2, 0)}

    def test_l1_tie_broken_by_squared_error(self):
        # both estimates lie above both true AoAs: the two pairings have the
        # same L1 cost, and the straight one has the smaller squared error
        truths = [make_path(1.0, 1.0), make_path(1.0, 1.2)]
        ests = [make_estimate(1.0, 1.3), make_estimate(1.0, 1.5)]
        assert match_paths(truths, ests) == [(0, 0), (1, 1)]
        assert match_paths(truths, ests[::-1]) == [(0, 1), (1, 0)]
        # the L1 tie is exact for any such positions, so which pairing has
        # the smaller rounded L1 sum is decided by rounding; perturbations
        # at the 1e-13 level must not flip the choice
        steps = 1e-13 * np.arange(-3, 4)
        for d0 in steps:
            for d1 in steps:
                moved = [make_estimate(1.0, 1.3 + d0), make_estimate(1.0 + d1, 1.5 + d1)]
                assert match_paths(truths, moved) == [(0, 0), (1, 1)]

    def test_angle_errors(self):
        truths = [make_path(0.5, 1.0)]
        ests = [make_estimate(0.5 + np.deg2rad(0.2), 1.0)]
        errs = angle_errors_deg(truths, ests, match_paths(truths, ests))
        assert len(errs) == 2
        assert max(abs(e) for e in errs) == pytest.approx(0.2, abs=1e-6)


class TestConfig:
    def test_load_roundtrip(self, tmp_path):
        text = """
# sweep setup
n_t = 16
n_r = 16
p_count = 32
q_count = 32
paths = 3
rounds = 2
trials = 50
seed = 7
snr_db_list = 0, 10, 20
methods = tsdce, ls
rho = 1.0
"""
        path = tmp_path / "sweep.cfg"
        path.write_text(text, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.p_count == 32
        assert cfg.paths == 3
        assert cfg.snr_db_list == (0.0, 10.0, 20.0)
        assert cfg.methods == ("tsdce", "ls")
        assert cfg.seed == 7

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials 50\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=("tsdce", "omp"))

    def test_l_desired_defaults_to_paths(self):
        assert ExperimentConfig(paths=3).l_desired == 3
        assert ExperimentConfig(paths=3, l_desired=2).l_desired == 2


class TestCsv:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == ["method,snr_db,nmse_db,doa_rmse_deg,p_detect,"
                         "mean_sse,trials,wall_ms"]

    def test_one_record(self, tmp_path):
        rec = MetricRecord(method="ls", snr_db=0.0, nmse_db=-10.5,
                           doa_rmse_deg=float("nan"), p_detect=0.25,
                           mean_sse=25.6, trials=100, wall_ms=1.5)
        path = tmp_path / "out.csv"
        emit_csv([rec], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("ls,0,-10.5,,0.25,25.6,100,")

    def test_parse_roundtrip(self, tmp_path):
        rec = MetricRecord(method="tsdce", snr_db=10.0, nmse_db=-21.3456,
                           doa_rmse_deg=0.123456, p_detect=0.5,
                           mean_sse=1.23456, trials=200, wall_ms=3.25)
        path = tmp_path / "out.csv"
        emit_csv([rec], path)
        back = parse_records(path)[0]
        assert back.method == "tsdce"
        assert back.snr_db == pytest.approx(10.0)
        assert back.nmse_db == pytest.approx(-21.3456, abs=1e-3)
        assert back.trials == 200

    def test_neg_inf_sentinel(self, tmp_path):
        rec = MetricRecord(method="tsdce", snr_db=0.0, nmse_db=-999.0,
                           doa_rmse_deg=0.0, p_detect=1.0, mean_sse=0.0,
                           trials=1, wall_ms=0.1)
        path = tmp_path / "out.csv"
        emit_csv([rec], path)
        assert ",-999," in path.read_text().splitlines()[1]


class TestRunExperiment:
    def test_single_noiseless_trial(self):
        # on-grid single path, no noise: machine-precision channel recovery
        cfg = ExperimentConfig(trials=1, paths=1, rounds=1,
                               snr_db_list=(200.0,), methods=("tsdce",),
                               seed=3, angle_range=(1.0, 1.7))
        recs = run_experiment(cfg)
        assert len(recs) == 1
        assert recs[0].nmse_db < -100.0

    def test_record_layout(self):
        cfg = ExperimentConfig(trials=5, paths=1, rounds=1,
                               snr_db_list=(0.0, 10.0),
                               methods=("tsdce", "ls"), seed=4)
        recs = run_experiment(cfg)
        assert len(recs) == 4
        keys = {(r.method, r.snr_db) for r in recs}
        assert keys == {("tsdce", 0.0), ("tsdce", 10.0),
                        ("ls", 0.0), ("ls", 10.0)}
        for r in recs:
            assert 0.0 <= r.p_detect <= 1.0
            assert r.trials == 5

    def test_mean_sse_consistent_with_nmse(self):
        # multi-path channels keep ||H||^2 away from zero so the mean
        # error ratio and mean SSE tell one consistent story
        cfg = ExperimentConfig(trials=200, paths=3, rounds=1,
                               snr_db_list=(10.0,), methods=("ls",), seed=5)
        rec = run_experiment(cfg)[0]
        implied = 10 * np.log10(rec.mean_sse / 256.0)
        assert implied == pytest.approx(rec.nmse_db, abs=2.0)

    def test_same_seed_same_results(self, tmp_path):
        cfg = ExperimentConfig(trials=10, paths=2, rounds=2,
                               snr_db_list=(0.0, 10.0),
                               methods=("tsdce", "ls"), seed=6)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            assert ra.method == rb.method
            assert ra.nmse_db == rb.nmse_db
            assert ra.mean_sse == rb.mean_sse
            assert ra.p_detect == rb.p_detect

    def test_one_trial_call_per_snr_and_trial(self, monkeypatch):
        # run_experiment looks _run_trial up as a module global once per
        # (snr_idx, trial), so wrapping it sees every trial exactly once
        calls = []
        original = bench._run_trial

        def counting(cfg, snr_idx, trial):
            calls.append((snr_idx, trial))
            return original(cfg, snr_idx, trial)

        monkeypatch.setattr(bench, "_run_trial", counting)
        cfg = ExperimentConfig(trials=4, paths=2, snr_db_list=(0.0, 10.0, 20.0),
                               methods=("tsdce", "ls"), seed=10)
        run_experiment(cfg)
        assert sorted(calls) == [(s, t) for s in range(3) for t in range(4)]

    def test_thread_count_invariance(self, monkeypatch):
        cfg = ExperimentConfig(trials=12, paths=2, rounds=2,
                               snr_db_list=(10.0,), methods=("tsdce", "ls"),
                               seed=8)
        monkeypatch.setenv("TSDCE_THREADS", "1")
        a = run_experiment(cfg)
        monkeypatch.setenv("TSDCE_THREADS", "4")
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            assert ra.nmse_db == rb.nmse_db
            assert ra.mean_sse == rb.mean_sse

    def test_k_sweep_improves(self):
        # second cancellation round never hurts on the reduced sweep
        base = ExperimentConfig(trials=200, paths=3, rounds=1,
                                snr_db_list=(0.0, 10.0, 20.0),
                                methods=("tsdce",), seed=9)
        one = run_experiment(base)
        two = run_experiment(dataclasses.replace(base, rounds=2))
        for r1, r2 in zip(one, two):
            # the gain is decisive from 10 dB up; at 0 dB the two rounds
            # coincide to within Monte Carlo noise
            if r1.snr_db >= 10.0:
                assert r2.nmse_db < r1.nmse_db
            else:
                assert r2.nmse_db <= r1.nmse_db + 0.2
