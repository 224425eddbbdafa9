"""Monte Carlo experiment harness: metrics, path matching, the sweep
driver, flat key-value config parsing and CSV emission.

Determinism contract: every trial owns an RNG substream derived from
(seed, snr index, trial index), so results are independent of evaluation
order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import algorithm, analysis
from .channel import build_channel, sample_paths
from .numkit import SeededRng
from .observation import build_codebook, synthesize_observation, to_spatial

NEG_INF_DB = -999.0
KNOWN_METHODS = ("tsdce", "ls", "dft_peak")
# pairings of true and estimated paths that match_paths may try: those of L = 8
MAX_PAIRINGS = math.factorial(8)


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
    detection_threshold_deg: float = 1.0
    angle_range: tuple = (0.0, float(np.pi))
    n_dft: int = 1024
    max_failure_rate: float = 0.01

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.snr_db_list:
            raise ConfigError("snr_db_list must name at least one SNR")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise ConfigError(f"snr_db_list must hold finite SNRs, got {self.snr_db_list}")
        if not self.methods:
            raise ConfigError("methods must name at least one method")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods names a method twice: {', '.join(self.methods)}")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if not self.detection_threshold_deg > 0:
            raise ConfigError("detection_threshold_deg must be positive")
        if not self.max_failure_rate >= 0:
            raise ConfigError("max_failure_rate must be >= 0")
        if self.l_desired == 0:
            object.__setattr__(self, "l_desired", self.paths)
        # The path sampler, the channel synthesizer, the codebook, TSDCE and
        # dft_peak own their range rules; using them here fails a bad config
        # before any trial runs.
        try:
            paths = sample_paths(self.paths, SeededRng(0), self.angle_range)
            build_channel(paths, self.n_t, self.n_r)
            build_codebook(self.p_count, self.q_count, self.n_t, self.n_r)
            algorithm.check_counts(self.l_desired, self.rounds, self.n_r, self.n_t)
            if "dft_peak" in self.methods:
                analysis.check_n_dft(self.n_dft, self.n_r, self.n_t)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        pairings = math.perm(max(self.paths, self.l_desired), min(self.paths, self.l_desired))
        if set(self.methods) - {"ls"} and pairings > MAX_PAIRINGS:
            raise ConfigError(
                f"paths = {self.paths} and l_desired = {self.l_desired} give {pairings} "
                f"path pairings per trial to score, more than {MAX_PAIRINGS} (8 paths)"
            )

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
    search over the paths of the larger list for each path of the smaller
    one, which `ExperimentConfig` bounds to `MAX_PAIRINGS` pairings.
    Costs within 1e-9 relative of the minimum count as equal: in 1-D
    many pairings tie exactly (two estimates on the same side of two
    true angles), so among those the smallest summed squared error wins,
    and rounding cannot flip the pairing. Returns the (true, estimate)
    index pairs in true-path order and the pairs' angle errors in degrees,
    true minus estimate, AoA then AoD per pair.
    """
    if not true_paths or not estimates:
        raise ValueError("both path lists must be non-empty")
    # errors[ti, ei]: the AoA and AoD errors of pairing true ti with estimate ei
    errors = np.degrees([[(t.aoa - e.aoa, t.aod - e.aod) for e in estimates] for t in true_paths])
    swap = len(true_paths) > len(estimates)
    if swap:  # rows index the smaller list
        errors = errors.transpose(1, 0, 2)
    n, m = errors.shape[:2]
    perms = np.array(list(itertools.permutations(range(m), n)))
    picked = errors[np.arange(n), perms]  # (pairing, row path, AoA/AoD)
    l1 = np.abs(picked).sum(axis=(1, 2))
    tied = np.flatnonzero(l1 <= l1.min() * (1.0 + 1e-9))
    best = tied[np.argmin((picked[tied] ** 2).sum(axis=(1, 2)))]
    if not swap:
        return list(zip(range(n), perms[best].tolist())), picked[best].ravel().tolist()
    order = np.argsort(perms[best])  # the estimate rows in true-path order
    return sorted(zip(perms[best].tolist(), range(n))), picked[best][order].ravel().tolist()


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


def draw_trial(cfg: ExperimentConfig, snr_idx: int, trial: int):
    """(paths, channel H, observation Y) of one sweep trial, all drawn from
    the trial's own substream of (seed, snr index, trial index)."""
    stream = SeededRng(cfg.seed).substream((snr_idx << 32) | trial)
    sigma_n_sq = 1.0 / cfg.snr_list[snr_idx]
    paths = sample_paths(cfg.paths, stream, cfg.angle_range)
    h = build_channel(paths, cfg.n_t, cfg.n_r)
    cb = build_codebook(cfg.p_count, cfg.q_count, cfg.n_t, cfg.n_r)
    return paths, h, synthesize_observation(h, cb, sigma_n_sq, stream)


def _run_trial(cfg: ExperimentConfig, snr_idx: int, trial: int):
    """One channel realization scored by every configured method, each on
    the trial's one spatial LS estimate, which ``ls`` scores itself. Each
    method's wall_ms includes the time of that shared estimate."""
    paths, h, y = draw_trial(cfg, snr_idx, trial)
    t0 = time.perf_counter()
    h_ls = to_spatial(y, cfg.n_t, cfg.n_r)
    h_ls.setflags(write=False)  # shared by every method
    shared_s = time.perf_counter() - t0

    out = {}
    for method in cfg.methods:
        t0 = time.perf_counter() - shared_s  # the clock starts with the shared estimate
        try:
            if method == "ls":
                h_hat, errors = h_ls, None
            else:
                if method == "tsdce":
                    est = algorithm.run(h_ls, cfg.l_desired, cfg.rounds)
                else:  # dft_peak
                    est = analysis.dft_peak_baseline(h_ls, cfg.l_desired, cfg.n_dft)
                h_hat = build_channel(est, cfg.n_t, cfg.n_r)
                errors = match_paths(paths, est)[1]
        except Exception as exc:  # noqa: BLE001 - per-trial failures are counted
            out[method] = {"failed": repr(exc), "wall_ms": 0.0}
            continue
        out[method] = {
            "ratio": nmse_ratio(h_hat, h),
            "sse": float(np.linalg.norm(h_hat - h) ** 2),
            "errors": errors,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
    return out


def run_experiment(cfg: ExperimentConfig):
    """Full sweep: one MetricRecord per (method, SNR).

    Trials run serially on the calling thread, one ``_run_trial`` call
    each.
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


def _fmt(x, digits: int) -> str:
    if isinstance(x, float):
        if x != x:  # NaN: empty field for "absent"
            return ""
        return f"{x:.{digits}g}"
    return str(x)


def write_csv(path, lines, digits: int = 6) -> None:
    """Write each line's values comma-separated as UTF-8 with "\\n" line
    ends: floats with ``digits`` significant digits, NaN as an empty field,
    anything else as ``str``. Every CSV the program writes goes through here."""
    text = "".join(",".join(_fmt(v, digits) for v in line) + "\n" for line in lines)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_csv(records, path):
    """Write one row per record; floats use 6 significant digits and an
    absent RMSE is an empty field."""
    write_csv(path, [[f.name for f in fields(MetricRecord)]] + [astuple(r) for r in records])


def _parse_value(default, text: str):
    """Config text as the type of the field's default; a tuple holds
    comma-separated items, each of the type of its default's first."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(v.strip()) for v in text.split(",") if v.strip())
    return type(default)(text)


# the config file's keys and the defaults whose types parse their values
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    """Parse a flat `key = value` UTF-8 config file.

    The keys are the fields of `ExperimentConfig`, each parsed as
    the type of its default and set at most once. Lines starting with #
    are comments; tuple values are comma-separated.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values, seen = {}, {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _parse_value(_DEFAULTS[key], value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
