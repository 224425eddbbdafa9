"""Monte Carlo experiment harness: metrics, path matching, the sweep
driver, flat key-value config parsing and CSV emission.

Determinism contract: every trial owns an RNG substream derived from
(seed, snr index, trial index), so results are independent of evaluation
order and of the FFT worker count (TSDCE_THREADS).
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import algorithm, analysis
from .channel import build_channel, sample_paths
from .numkit import SeededRng
from .observation import build_codebook, synthesize_observation, to_spatial, spatial_ls_estimate

NEG_INF_DB = -999.0
KNOWN_METHODS = ("tsdce", "ls", "dft_peak")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class FailureRateError(RuntimeError):
    """Per-trial estimator failures exceeded the tolerated rate."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_t: int = 16
    n_r: int = 16
    p_count: int = 16
    q_count: int = 16
    paths: int = 1
    l_desired: int = 0  # 0 means "same as paths"
    rounds: int = 1
    snr_db_list: tuple = (0.0, 10.0, 20.0)
    trials: int = 100
    seed: int = 0
    methods: tuple = ("tsdce", "ls")
    rho: float = 1.0
    detection_threshold_deg: float = 1.0
    angle_range: tuple = (0.0, float(np.pi))
    n_dft: int = 1024
    max_failure_rate: float = 0.01

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.paths < 1:
            raise ConfigError("paths must be >= 1")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if self.l_desired == 0:
            object.__setattr__(self, "l_desired", self.paths)

    @property
    def snr_list(self):
        return [10.0 ** (s / 10.0) for s in self.snr_db_list]


@dataclass(frozen=True)
class MetricRecord:
    method: str
    snr_db: float
    nmse_db: float
    doa_rmse_deg: float  # NaN when nothing was detected
    p_detect: float
    mean_sse: float
    trials: int
    wall_ms: float


def nmse_ratio(h_hat: np.ndarray, h: np.ndarray) -> float:
    """Per-trial Frobenius error ratio ||Hhat - H||^2 / ||H||^2.

    The harness averages ratios across trials before converting to dB
    (expectation inside the log).
    """
    denom = np.linalg.norm(h) ** 2
    if denom == 0:
        raise ValueError("true channel has zero norm")
    return float(np.linalg.norm(h_hat - h) ** 2 / denom)


def ratio_to_db(ratio: float) -> float:
    if ratio <= 0:
        return NEG_INF_DB
    return float(10.0 * np.log10(ratio))


def match_paths(true_paths, estimates):
    """Minimum-total-cost one-to-one pairing of true and estimated paths.

    Cost is the summed absolute (AoA, AoD) error in degrees; exhaustive
    permutation search, fine for the L <= 8 configurations used here.
    Costs within 1e-9 relative of the minimum count as equal: in 1-D
    many pairings tie exactly (two estimates on the same side of two
    true angles), so among those the smallest summed squared error wins,
    and rounding cannot flip the pairing.
    """
    if not true_paths or not estimates:
        raise ValueError("both path lists must be non-empty")
    n = min(len(true_paths), len(estimates))
    # errors[ti, ei]: the AoA and AoD errors of pairing true ti with estimate ei
    errors = np.degrees([[(t.aoa - e.aoa, t.aod - e.aod) for e in estimates] for t in true_paths])
    perms = np.array(list(itertools.permutations(range(len(estimates)), n)))
    picked = errors[np.arange(n), perms]  # (pairing, true path, AoA/AoD)
    l1 = np.abs(picked).sum(axis=(1, 2))
    tied = np.flatnonzero(l1 <= l1.min() * (1.0 + 1e-9))
    best = tied[np.argmin((picked[tied] ** 2).sum(axis=(1, 2)))]
    return list(zip(range(n), perms[best].tolist()))


def angle_errors_deg(true_paths, estimates, pairing):
    """Flat list of per-measurement angle errors; AoA and AoD each count
    as an individual measurement."""
    errors = []
    for ti, ei in pairing:
        errors.append(np.degrees(true_paths[ti].aoa - estimates[ei].aoa))
        errors.append(np.degrees(true_paths[ti].aod - estimates[ei].aod))
    return errors


def doa_metrics(errors_deg, threshold_deg: float, total_measurements: int):
    """(rmse over detected set or NaN, detection probability).

    A measurement is detected when its absolute error is within the
    threshold; RMSE is pooled over detected measurements only.
    """
    if threshold_deg <= 0:
        raise ValueError("threshold_deg must be positive")
    errors = np.asarray(errors_deg, dtype=float)
    detected = errors[np.abs(errors) <= threshold_deg]
    p_detect = len(detected) / total_measurements if total_measurements else 0.0
    if len(detected) == 0:
        return float("nan"), p_detect
    return float(np.sqrt(np.mean(detected**2))), p_detect


def _run_trial(cfg: ExperimentConfig, snr_idx: int, trial: int):
    """One channel realization scored by every configured method.

    TSDCE_THREADS (default: all cores) sets the threads of each dft_peak
    FFT; it is read on every call.
    """
    fft_workers = max(1, int(os.environ.get("TSDCE_THREADS", os.cpu_count() or 1)))
    base = SeededRng(cfg.seed)
    stream = base.substream((snr_idx << 32) | trial)
    snr = cfg.snr_list[snr_idx]
    sigma_n_sq = cfg.rho / snr
    paths = sample_paths(cfg.paths, stream, cfg.angle_range)
    ch = build_channel(paths, cfg.n_t, cfg.n_r)
    cb = build_codebook(cfg.p_count, cfg.q_count, cfg.n_t, cfg.n_r)
    obs = synthesize_observation(ch, cb, cfg.rho, sigma_n_sq, stream)

    out = {}
    for method in cfg.methods:
        t0 = time.perf_counter()
        try:
            if method == "tsdce":
                est = algorithm.run(
                    obs,
                    algorithm.TsdceConfig(
                        l_desired=cfg.l_desired,
                        rounds=cfg.rounds,
                        rho=cfg.rho,
                        n_t=cfg.n_t,
                        n_r=cfg.n_r,
                    ),
                )
                h_hat = algorithm.reconstruct_channel(est, cfg.n_t, cfg.n_r)
                errors = angle_errors_deg(paths, est, match_paths(paths, est))
            elif method == "ls":
                sp = to_spatial(obs, cfg.n_t, cfg.n_r)
                h_hat = spatial_ls_estimate(sp, cfg.rho)
                errors = None
            else:  # dft_peak
                est = analysis.dft_peak_baseline(
                    obs, cfg.l_desired, cfg.n_dft, n_t=cfg.n_t, n_r=cfg.n_r,
                    workers=fft_workers,
                )
                h_hat = algorithm.reconstruct_channel(est, cfg.n_t, cfg.n_r)
                errors = angle_errors_deg(paths, est, match_paths(paths, est))
        except Exception as exc:  # noqa: BLE001 - per-trial failures are counted
            out[method] = {"failed": repr(exc), "wall_ms": 0.0}
            continue
        sse = float(np.linalg.norm(h_hat - ch.h) ** 2)
        out[method] = {
            "ratio": nmse_ratio(h_hat, ch.h),
            "sse": sse,
            "errors": errors,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
    return out


def run_experiment(cfg: ExperimentConfig):
    """Full sweep: one MetricRecord per (method, SNR).

    Trials run serially, one ``_run_trial`` call each; the only threads
    are those of the dft_peak FFTs (TSDCE_THREADS, default all cores),
    which do not change any result.
    """
    records = []
    for snr_idx, snr_db in enumerate(cfg.snr_db_list):
        trial_results = [_run_trial(cfg, snr_idx, t) for t in range(cfg.trials)]
        for method in cfg.methods:
            per = [r[method] for r in trial_results]
            failures = [p for p in per if "failed" in p]
            if len(failures) > cfg.max_failure_rate * cfg.trials:
                raise FailureRateError(
                    f"{method}@{snr_db}dB: {len(failures)}/{cfg.trials} trials failed, "
                    f"first: {failures[0]['failed']}"
                )
            ok = [p for p in per if "failed" not in p]
            ratios = [p["ratio"] for p in ok]
            errors = [e for p in ok if p["errors"] is not None for e in p["errors"]]
            if any(p["errors"] is not None for p in ok):
                rmse, p_det = doa_metrics(
                    errors, cfg.detection_threshold_deg, 2 * cfg.paths * len(ok)
                )
            else:
                rmse, p_det = float("nan"), 0.0
            records.append(
                MetricRecord(
                    method=method,
                    snr_db=float(snr_db),
                    nmse_db=ratio_to_db(float(np.mean(ratios))),
                    doa_rmse_deg=rmse,
                    p_detect=p_det,
                    mean_sse=float(np.mean([p["sse"] for p in ok])),
                    trials=cfg.trials,
                    wall_ms=float(np.sum([p["wall_ms"] for p in per])),
                )
            )
    return records


CSV_HEADER = "method,snr_db,nmse_db,doa_rmse_deg,p_detect,mean_sse,trials,wall_ms"


def _fmt(x) -> str:
    if isinstance(x, float):
        if x != x:  # NaN: empty field for "absent"
            return ""
        return f"{x:.6g}"
    return str(x)


def emit_csv(records, path):
    """Write one row per record; floats use 6 significant digits and an
    absent RMSE is an empty field."""
    # MetricRecord's fields are in CSV_HEADER order
    lines = [CSV_HEADER] + [",".join(_fmt(v) for v in astuple(r)) for r in records]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def parse_records(path):
    """Read back a CSV produced by emit_csv."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            records.append(
                MetricRecord(
                    method=parts[0],
                    snr_db=float(parts[1]),
                    nmse_db=float(parts[2]),
                    doa_rmse_deg=float(parts[3]) if parts[3] else float("nan"),
                    p_detect=float(parts[4]),
                    mean_sse=float(parts[5]),
                    trials=int(parts[6]),
                    wall_ms=float(parts[7]),
                )
            )
    return records


_LIST_KEYS = {"snr_db_list", "methods", "angle_range"}
_INT_KEYS = {
    "n_t", "n_r", "p_count", "q_count", "paths", "l_desired", "rounds",
    "trials", "seed", "n_dft",
}
_FLOAT_KEYS = {"rho", "detection_threshold_deg", "max_failure_rate"}


def load_config(path) -> ExperimentConfig:
    """Parse a flat `key = value` UTF-8 config file.

    Lines starting with # are comments; list values are comma-separated.
    """
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key in _LIST_KEYS:
                    items = [v.strip() for v in value.split(",") if v.strip()]
                    if key == "methods":
                        values[key] = tuple(items)
                    else:
                        values[key] = tuple(float(v) for v in items)
                elif key in _INT_KEYS:
                    values[key] = int(value)
                elif key in _FLOAT_KEYS:
                    values[key] = float(value)
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
