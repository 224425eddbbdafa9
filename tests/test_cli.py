"""End-to-end CLI tests through the console entry point."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsdce
from tsdce import algorithm, analysis, bench
from tsdce.channel import build_channel
from tsdce.cli import main
from tsdce.observation import to_spatial


CONFIG = """
n_t = 16
n_r = 16
p_count = 16
q_count = 16
paths = 1
rounds = 1
trials = 5
seed = 12
snr_db_list = 0, 10
methods = tsdce, ls
"""


def config_with(extra):
    """CONFIG with the `key = value` lines of extra in place of its own lines
    for those keys: a config sets each key once."""
    lines = [line for line in extra.splitlines() if line.strip()]
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [line for line in CONFIG.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + lines) + "\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


def read_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    m = np.zeros((1 + max(int(r["m"]) for r in rows), 1 + max(int(r["n"]) for r in rows)),
                 dtype=complex)
    for r in rows:
        m[int(r["m"]), int(r["n"])] = complex(float(r["re"]), float(r["im"]))
    return m


class TestRunCommand:
    # a sweep, unlike the eigenvalue bounds, also takes n_r > n_t
    @pytest.mark.parametrize("extra", ["", "n_t = 8\n"], ids=["square", "n_r_above_n_t"])
    def test_writes_metrics_csv(self, tmp_path, extra):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(config_with(extra), encoding="utf-8")
        out = str(tmp_path / "metrics.csv")
        assert main(["run", "--config", str(config_path), "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"tsdce", "ls"}

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n", encoding="utf-8")
        out = str(tmp_path / "metrics.csv")
        assert main(["run", "--config", str(bad), "--out", out]) == 2


class TestConfigErrors:
    """A bad config exits 2 with `config error:` before any trial runs."""

    @pytest.mark.parametrize("line", [
        "trials = ten",
        "snr_db_list = 0, x",
        "p_count = 8",
        "l_desired = 20",
        "rounds = 0",
        "n_r = 1",
        "angle_range = 1",
        "angle_range = 2, 1",
        "angle_range = -1, 4",
        "detection_threshold_deg = 0",
        "max_failure_rate = -1",
        "methods =",
        "snr_db_list =",
        "methods = dft_peak, dft_peak",
        "paths = 12",
        "paths = -1",
        "snr_db_list = nan",
        "snr_db_list = 0, -inf",
        "snr_db_list = inf",
    ])
    def test_run_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys, line):
        calls = []
        monkeypatch.setattr(bench, "_run_trial", lambda *args: calls.append(args))
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with(line), encoding="utf-8")
        out = tmp_path / "metrics.csv"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_repeated_key_names_both_lines(self, tmp_path, monkeypatch, capsys):
        # CONFIG sets seed on its line 9; a later value may not quietly win
        calls = []
        monkeypatch.setattr(bench, "_run_trial", lambda *args: calls.append(args))
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG + "seed = 2\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 2
        assert f"{bad}:12: seed already set on line 9" in capsys.readouterr().err
        assert calls == []

    def test_rho_is_an_unknown_key(self, tmp_path, monkeypatch, capsys):
        # the program fixes the paper's transmit power rho at 1: SNR = 1/sigma_n^2
        calls = []
        monkeypatch.setattr(bench, "_run_trial", lambda *args: calls.append(args))
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG + "rho = 1\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 2
        assert "unknown key 'rho'" in capsys.readouterr().err
        assert calls == []

    def test_bound_exits_2_on_bad_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("trials = ten"), encoding="utf-8")
        out = tmp_path / "crlb.csv"
        assert main(["bound", "--config", str(bad), "--kind", "crlb", "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run"], ["bound", "--kind", "crlb"]])
    def test_unwritable_output_exits_2_before_any_trial(
            self, config_path, tmp_path, monkeypatch, capsys, argv):
        calls = []
        monkeypatch.setattr(bench, "_run_trial", lambda *args: calls.append(args))
        monkeypatch.setattr(analysis, "crlb_nmse_bound", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert calls == []

    @pytest.mark.parametrize("old", [None, "old results\n"], ids=["new", "existing"])
    def test_failed_sweep_leaves_output_as_it_was(self, config_path, tmp_path, monkeypatch, old):
        # the output is checked before the sweep, but written only after it
        monkeypatch.setattr(bench, "_run_trial", lambda cfg, snr_idx, trial: {
            m: {"failed": "ValueError()", "wall_ms": 0.0} for m in cfg.methods})
        out = tmp_path / "metrics.csv"
        if old is not None:
            out.write_text(old, encoding="utf-8")
        assert main(["run", "--config", config_path, "--out", str(out)]) == 3
        assert (out.read_text(encoding="utf-8") if out.exists() else None) == old


class TestImportFootprint:
    """The runtime needs numpy only: no command loads any scipy module. Each
    runs in a fresh process; the config has one path, so every tsdce step
    takes the rank-one step."""

    def run_fresh(self, tmp_path, argv, methods, out="--out"):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with(f"trials = 2\nmethods = {methods}"), encoding="utf-8")
        argv = [*argv, "--config", str(cfg), out, str(tmp_path / "out")]
        script = (
            "import json, sys\n"
            "from tsdce.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tsdce.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_ls_and_dft_peak_sweep_load_no_scipy_submodule(self, tmp_path):
        assert self.run_fresh(tmp_path, ["run"], "ls, dft_peak") == [0, []]

    def test_tsdce_sweep_loads_no_scipy_submodule(self, tmp_path):
        assert self.run_fresh(tmp_path, ["run"], "tsdce, ls") == [0, []]

    def test_tsdce_single_loads_no_scipy_submodule(self, tmp_path):
        argv = ["single", "--snr-index", "1", "--trial", "1"]
        assert self.run_fresh(tmp_path, argv, "tsdce", out="--dump") == [0, []]

    @pytest.mark.parametrize("kind", ["lemma3", "lemma4", "crlb"])
    def test_bound_loads_no_scipy(self, tmp_path, kind):
        assert self.run_fresh(tmp_path, ["bound", "--kind", kind], "tsdce") == [0, []]

    def test_source_imports_no_scipy(self):
        # function-local imports included; scipy is a test dependency only
        src = Path(tsdce.__file__).resolve().parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), path.name
        tomllib = pytest.importorskip("tomllib")
        with open(src.parents[1] / "pyproject.toml", "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


class TestSingleCommand:
    def test_dumps_matrices(self, config_path, tmp_path):
        dump = tmp_path / "dump"
        rc = main(["single", "--config", config_path, "--snr-index", "1",
                   "--trial", "0", "--dump", str(dump)])
        assert rc == 0
        names = {p.name for p in dump.iterdir()}
        assert {"Y.csv", "D.csv", "D_bar.csv", "H_true.csv",
                "H_hat.csv"} <= names
        header = (dump / "Y.csv").read_text().splitlines()[0]
        assert header == "m,n,re,im"
        # residuals are in channel units: the first is the spatial LS
        # estimate, sqrt(n_t n_r) = 16 times the crop
        assert np.array_equal(read_matrix(dump / "residual_k1_l1.csv"),
                              16 * read_matrix(dump / "D_bar.csv"))

    def test_replays_sweep_trial(self, config_path, tmp_path, monkeypatch):
        # the channel and observation that the sweep scores at SNR index 1,
        # trial 3; the dump writes 17 significant digits, so they round-trip
        drawn, draw = [], bench.draw_trial

        def recording(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(bench, "draw_trial", recording)
        bench._run_trial(bench.load_config(config_path), 1, 3)
        monkeypatch.undo()
        (_, h, y), = drawn
        dump = tmp_path / "dump"
        rc = main(["single", "--config", config_path, "--snr-index", "1",
                   "--trial", "3", "--dump", str(dump)])
        assert rc == 0
        assert np.array_equal(read_matrix(dump / "H_true.csv"), h)
        assert np.array_equal(read_matrix(dump / "Y.csv"), y)

    def test_dumps_the_estimates_and_their_channel(self, tmp_path):
        # H_hat.csv is the channel of TSDCE's estimates from the trial's
        # spatial LS estimate, exact at 17 digits; estimates.csv holds them
        # to 9 significant digits
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(config_with("paths = 3\nrounds = 2"), encoding="utf-8")
        cfg = bench.load_config(config_path)
        _, _, y = bench.draw_trial(cfg, 1, 2)
        estimates = algorithm.run(to_spatial(y, cfg.n_t, cfg.n_r), cfg.l_desired, cfg.rounds)
        dump = tmp_path / "dump"
        rc = main(["single", "--config", str(config_path), "--snr-index", "1",
                   "--trial", "2", "--dump", str(dump)])
        assert rc == 0
        assert np.array_equal(read_matrix(dump / "H_hat.csv"),
                              build_channel(estimates, cfg.n_t, cfg.n_r))
        columns = ["gain_magnitude", "gain_phase", "aoa", "aod", "omega_aoa", "omega_aod"]
        with open(dump / "estimates.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["path", *columns]
        assert [r["path"] for r in rows] == ["1", "2", "3"]
        for row, e in zip(rows, estimates):
            assert [row[c] for c in columns] == [f"{getattr(e, c):.9g}" for c in columns]

    # the config has 2 SNRs and 5 trials; a negative trial would alias
    # another SNR index's key and a trial past the end is one no sweep runs
    @pytest.mark.parametrize("snr_index, trial", [
        ("2", "0"), ("-1", "0"), ("1", "-1"), ("0", "5"), ("1", "99"),
    ])
    def test_index_out_of_range(self, config_path, tmp_path, capsys, snr_index, trial):
        dump = tmp_path / "dump"
        rc = main(["single", "--config", config_path, "--snr-index", snr_index,
                   "--trial", trial, "--dump", str(dump)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not dump.exists()


class TestBoundCommand:
    # the noise-eigenvalue means of lemma4 need paths <= n_r <= n_t; both
    # lines keep l_desired valid, so only the bound rejects them
    @pytest.mark.parametrize("kind", ["lemma4"])
    @pytest.mark.parametrize("line", ["paths = 20\nl_desired = 3", "n_t = 8"],
                             ids=["paths_above_n_r", "n_r_above_n_t"])
    def test_eigenvalue_bounds_exit_2_on_bad_shape(self, tmp_path, capsys, kind, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with(line), encoding="utf-8")
        out = tmp_path / f"{kind}.csv"
        assert main(["bound", "--config", str(bad), "--kind", kind, "--out", str(out)]) == 2
        assert "paths <= n_r <= n_t" in capsys.readouterr().err
        assert not out.exists()

    def test_crlb_runs_with_n_r_above_n_t(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with("n_t = 8"), encoding="utf-8")
        out = tmp_path / "crlb.csv"
        assert main(["bound", "--config", str(cfg), "--kind", "crlb", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["kind"] for r in rows] == ["crlb", "crlb"]

    def test_crlb_synthesizes_no_channel(self, config_path, tmp_path, monkeypatch):
        # loading the config builds a channel to apply the synthesizer's size
        # rule; the bound's samples build none
        calls, build = [], tsdce.channel.build_channel

        def counting(*args):
            calls.append(args)
            return build(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tsdce") and hasattr(module, "build_channel"):
                monkeypatch.setattr(module, "build_channel", counting)
        bench.load_config(config_path)
        loading = len(calls)
        out = str(tmp_path / "crlb.csv")
        assert main(["bound", "--config", config_path, "--kind", "crlb", "--out", out]) == 0
        assert len(calls) == 2 * loading

    @pytest.mark.parametrize("kind", ["lemma3", "lemma4", "crlb"])
    def test_bound_curves(self, config_path, tmp_path, kind):
        out = str(tmp_path / f"{kind}.csv")
        rc = main(["bound", "--config", config_path, "--kind", kind,
                   "--out", out])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["kind"] == kind for r in rows)
