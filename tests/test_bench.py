"""Harness tests: metrics, path matching, config parsing, CSV round trips
and the Monte Carlo sweep driver."""

import dataclasses
import os

import numpy as np
import pytest

from tsdce.bench import (
    ConfigError,
    ExperimentConfig,
    MetricRecord,
    doa_metrics,
    draw_trial,
    emit_csv,
    load_config,
    match_paths,
    nmse_ratio,
    ratio_to_db,
    run_experiment,
)
from tsdce import algorithm, analysis, bench, cli, numkit, observation
from tsdce.channel import PathParams
from tsdce.numkit import SeededRng


def make_path(aod, aoa, mag=1.0):
    return PathParams.from_gain_angles(mag, aod, aoa)


def make_estimate(aod, aoa, mag=1.0):
    return PathParams.from_freqs(mag, 0.0, np.pi * np.cos(aod),
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
        assert set(match_paths(truths, ests)[0]) == {(0, 0), (1, 1)}

    def test_recovers_permutation(self):
        truths = [make_path(0.5, 1.0), make_path(2.0, 2.5), make_path(1.2, 0.4)]
        ests = [make_estimate(1.2, 0.4), make_estimate(0.5, 1.0),
                make_estimate(2.0, 2.5)]
        assert set(match_paths(truths, ests)[0]) == {(0, 1), (1, 2), (2, 0)}

    def test_l1_tie_broken_by_squared_error(self):
        # both estimates lie above both true AoAs: the two pairings have the
        # same L1 cost, and the straight one has the smaller squared error
        truths = [make_path(1.0, 1.0), make_path(1.0, 1.2)]
        ests = [make_estimate(1.0, 1.3), make_estimate(1.0, 1.5)]
        assert match_paths(truths, ests)[0] == [(0, 0), (1, 1)]
        assert match_paths(truths, ests[::-1])[0] == [(0, 1), (1, 0)]
        # the L1 tie is exact for any such positions, so which pairing has
        # the smaller rounded L1 sum is decided by rounding; perturbations
        # at the 1e-13 level must not flip the choice
        steps = 1e-13 * np.arange(-3, 4)
        for d0 in steps:
            for d1 in steps:
                moved = [make_estimate(1.0, 1.3 + d0), make_estimate(1.0 + d1, 1.5 + d1)]
                assert match_paths(truths, moved)[0] == [(0, 0), (1, 1)]

    def test_fewer_estimates_than_true_paths(self):
        truths = [make_path(0.5, 1.0), make_path(2.0, 2.5), make_path(1.2, 0.4)]
        assert match_paths(truths, [make_estimate(2.0, 2.5)])[0] == [(1, 0)]
        ests = [make_estimate(1.2, 0.4), make_estimate(2.0, 2.5)]
        assert match_paths(truths, ests)[0] == [(1, 1), (2, 0)]

    def test_angle_errors(self):
        truths = [make_path(0.5, 1.0)]
        ests = [make_estimate(0.5 + np.deg2rad(0.2), 1.0)]
        errs = match_paths(truths, ests)[1]
        assert len(errs) == 2
        assert max(abs(e) for e in errs) == pytest.approx(0.2, abs=1e-6)

    @pytest.mark.parametrize("n_true, n_est", [(3, 3), (3, 2), (2, 3), (4, 1)])
    def test_angle_errors_follow_the_pairing(self, n_true, n_est):
        # true minus estimate in true-path order, AoA then AoD, as each
        # pair's own scalar difference would give them, bit for bit
        rng = SeededRng(88)
        truths = [make_path(rng.uniform(0, np.pi), rng.uniform(0, np.pi)) for _ in range(n_true)]
        ests = [make_estimate(rng.uniform(0, np.pi), rng.uniform(0, np.pi)) for _ in range(n_est)]
        pairs, errs = match_paths(truths, ests)
        assert [t for t, _ in pairs] == sorted(t for t, _ in pairs)
        expected = [np.degrees(d) for t, e in pairs
                    for d in (truths[t].aoa - ests[e].aoa, truths[t].aod - ests[e].aod)]
        assert errs == expected


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
"""
        path = tmp_path / "sweep.cfg"
        path.write_text(text, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.p_count == 32
        assert cfg.paths == 3
        assert cfg.snr_db_list == (0.0, 10.0, 20.0)
        assert cfg.methods == ("tsdce", "ls")
        assert cfg.seed == 7

    def test_every_field_loads_as_its_default_type(self, tmp_path):
        # integral floats are written without a point: the field's type
        # decides how a value parses, not the shape of its text
        def text(v):
            if isinstance(v, tuple):
                return ", ".join(text(x) for x in v)
            return str(int(v)) if isinstance(v, float) and v.is_integer() else str(v)

        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.init}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {text(v)}\n" for k, v in defaults.items()),
                        encoding="utf-8")
        cfg = load_config(path)
        assert cfg == ExperimentConfig()
        for name, default in defaults.items():
            value = getattr(cfg, name)
            assert type(value) is type(default), name
            if isinstance(default, tuple):
                assert {type(x) for x in value} == {type(default[0])}, name

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_repeated_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\ntrials = 5\n# a comment\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.cfg:4: seed already set on line 1"):
            load_config(path)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf"), float("inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        # NaN would run noiseless and -inf divide by zero in the noise draw
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(snr_db_list=(0.0, snr_db))

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

    # the path sampler and the channel synthesizer own these rules; the config
    # applies them before its pairings count, which math.perm would fail on a
    # negative path count
    @pytest.mark.parametrize("kwargs, message", [
        (dict(paths=0), "got 0"), (dict(paths=-1), "got -1"),
        (dict(n_t=1), "got 1 and 16"), (dict(n_r=0), "got 16 and 0"),
    ])
    def test_owner_rules_name_the_offending_values(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    # match_paths tries perm(max(L, L_d), min(L, L_d)) pairings, at most 8!
    @pytest.mark.parametrize("paths, l_desired, ok", [
        (8, 0, True), (12, 3, True), (3, 16, True), (9, 0, False), (12, 0, False), (4, 16, False),
    ])
    def test_path_pairings_bounded(self, paths, l_desired, ok):
        kwargs = dict(n_t=16, n_r=16, paths=paths, l_desired=l_desired)
        if ok:
            ExperimentConfig(**kwargs)
        else:
            with pytest.raises(ConfigError, match="pairings"):
                ExperimentConfig(**kwargs)
        # an ls-only sweep pairs no paths
        ExperimentConfig(methods=("ls",), **kwargs)

    def test_l_desired_defaults_to_paths(self):
        assert ExperimentConfig(paths=3).l_desired == 3
        assert ExperimentConfig(paths=3, l_desired=2).l_desired == 2

    @pytest.mark.parametrize("n_dft", [1000, 8, 0])
    def test_bad_n_dft_rejected_for_dft_peak(self, n_dft):
        with pytest.raises(ConfigError, match="n_dft"):
            ExperimentConfig(methods=("dft_peak",), n_dft=n_dft)

    def test_n_dft_ignored_without_dft_peak(self):
        assert ExperimentConfig(methods=("tsdce", "ls"), n_dft=1000).n_dft == 1000

    def test_n_dft_down_to_array_size_accepted(self):
        # dft_peak transforms the n_r x n_t estimate, so the codebook's size
        # does not bound n_dft
        cfg = ExperimentConfig(methods=("dft_peak",), p_count=32, q_count=32, n_dft=16)
        assert cfg.n_dft == 16
        with pytest.raises(ConfigError, match="n_dft"):
            ExperimentConfig(methods=("dft_peak",), p_count=32, q_count=32, n_dft=8)


class TestRunExitCodes:
    """`tsdce run` exit codes: 2 on a configuration error, before any trial runs."""

    @staticmethod
    def write_config(tmp_path, extra):
        path = tmp_path / "sweep.cfg"
        path.write_text("trials = 2\nsnr_db_list = 10\n" + extra, encoding="utf-8")
        return str(path)

    def test_tsdce_threads_not_read(self, tmp_path, monkeypatch):
        # the variable selected dft_peak FFT threads once; no value may fail a run
        monkeypatch.setenv("TSDCE_THREADS", "two")
        cfg = self.write_config(tmp_path, "methods = ls\n")
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_n_dft(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(bench, "_run_trial", lambda *args: calls.append(args))
        cfg = self.write_config(tmp_path, "methods = dft_peak\nn_dft = 1000\n")
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: n_dft" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


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
        assert path.read_text().splitlines()[1] == "tsdce,10,-21.3456,0.123456,0.5,1.23456,200,3.25"

    def test_neg_inf_sentinel(self, tmp_path):
        rec = MetricRecord(method="tsdce", snr_db=0.0, nmse_db=-999.0,
                           doa_rmse_deg=0.0, p_detect=1.0, mean_sse=0.0,
                           trials=1, wall_ms=0.1)
        path = tmp_path / "out.csv"
        emit_csv([rec], path)
        assert ",-999," in path.read_text().splitlines()[1]


class TestDrawTrial:
    CFG = ExperimentConfig(trials=4, paths=3, snr_db_list=(0.0, 10.0), seed=8)

    def test_builds_one_generator(self, monkeypatch):
        philox, built = np.random.Philox, []

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        draw_trial(self.CFG, 1, 2)
        assert len(built) == 1

    def test_draws_equal_those_of_eager_generators(self, monkeypatch):
        lazy = [draw_trial(self.CFG, s, t) for s in range(2) for t in range(4)]

        class EagerRng(SeededRng):
            def __init__(self, seed):
                super().__init__(seed)
                self._gen  # built at construction, not on the first draw

        monkeypatch.setattr(numkit, "SeededRng", EagerRng)
        monkeypatch.setattr(bench, "SeededRng", EagerRng)
        eager = [draw_trial(self.CFG, s, t) for s in range(2) for t in range(4)]
        for (paths, h, y), (e_paths, e_h, e_y) in zip(lazy, eager):
            assert paths == e_paths
            assert np.array_equal(h, e_h) and np.array_equal(y, e_y)


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

    # (method, snr_db): nmse_db, doa_rmse_deg (None: nothing to match), p_detect,
    # mean_sse of a small three-method sweep; refactors must keep them
    PINNED = {
        ("tsdce", 0.0): (-4.916875409495583, 0.5231684176946085, 0.5416666666666666, 48.046112065880266),
        ("ls", 0.0): (1.0273946056855656, None, 0.0, 241.4209177177852),
        ("dft_peak", 0.0): (-17.06101599275509, 0.43665777047081317, 0.875, 3.937503580157258),
        ("tsdce", 10.0): (-16.962974169677167, 0.26900945166527135, 0.8333333333333334, 2.3401532672385987),
        ("ls", 10.0): (-7.091951685132269, None, 0.0, 25.92442336852046),
        ("dft_peak", 10.0): (-21.33017728819357, 0.25062467265590843, 0.8333333333333334, 0.6906124780811523),
        ("tsdce", 20.0): (-38.66193533312907, 0.17623351110047275, 1.0, 0.05218660556234191),
        ("ls", 20.0): (-21.839675275588593, None, 0.0, 2.4525147365308695),
        ("dft_peak", 20.0): (-23.139428963966747, 0.28327696061381274, 0.875, 1.8306971642020722),
    }

    def test_pinned_three_method_sweep(self):
        cfg = ExperimentConfig(trials=4, paths=3, rounds=3, snr_db_list=(0.0, 10.0, 20.0),
                               methods=("tsdce", "ls", "dft_peak"), seed=21)
        recs = run_experiment(cfg)
        assert [(r.method, r.snr_db) for r in recs] == list(self.PINNED)
        for r in recs:
            nmse, rmse, p_det, sse = self.PINNED[(r.method, r.snr_db)]
            assert r.nmse_db == pytest.approx(nmse, rel=1e-9)
            if rmse is None:
                assert np.isnan(r.doa_rmse_deg)
            else:
                assert r.doa_rmse_deg == pytest.approx(rmse, rel=1e-9)
            assert r.p_detect == pytest.approx(p_det, rel=1e-9)
            assert r.mean_sse == pytest.approx(sse, rel=1e-9)

    def test_trial_order_invariance(self):
        # the determinism contract: each trial draws only from its own
        # substream, so the order in which trials run cannot change them
        cfg = ExperimentConfig(trials=3, paths=2, rounds=2, snr_db_list=(0.0, 20.0),
                               methods=("tsdce", "ls", "dft_peak"), seed=8)
        pairs = [(s, t) for s in range(len(cfg.snr_db_list)) for t in range(cfg.trials)]
        forward = {p: bench._run_trial(cfg, *p) for p in pairs}
        backward = {p: bench._run_trial(cfg, *p) for p in reversed(pairs)}
        for p in pairs:
            for method in cfg.methods:
                a, b = forward[p][method], backward[p][method]
                assert (a["ratio"], a["errors"]) == (b["ratio"], b["errors"])

    def test_one_spatial_ls_estimate_per_trial(self, monkeypatch):
        # counted in every module that binds to_spatial, so that no method
        # quietly builds its own estimate
        calls = []
        original = bench.to_spatial

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (observation, algorithm, analysis, bench, cli):
            if hasattr(module, "to_spatial"):
                monkeypatch.setattr(module, "to_spatial", counting)
        cfg = ExperimentConfig(trials=3, paths=2, snr_db_list=(0.0, 20.0),
                               methods=("tsdce", "ls", "dft_peak"), seed=12)
        run_experiment(cfg)
        assert len(calls) == 2 * 3

    def test_shared_estimate_same_as_alone(self):
        # every method reads the trial's one read-only estimate; none of them
        # may see another's work in it
        both = ExperimentConfig(trials=3, paths=2, rounds=2, snr_db_list=(0.0, 20.0),
                                methods=("tsdce", "ls", "dft_peak"), seed=13)
        for s in range(len(both.snr_db_list)):
            for t in range(both.trials):
                together = bench._run_trial(both, s, t)
                for method in both.methods:
                    alone = bench._run_trial(dataclasses.replace(both, methods=(method,)), s, t)
                    a, b = together[method], alone[method]
                    assert (a["ratio"], a["errors"]) == (b["ratio"], b["errors"])

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
