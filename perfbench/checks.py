"""Output checks on the CSV files a workload writes.

A sweep passes only if its results columns (every column except the
per-method ``wall_ms`` timing) are exactly those of the reference sweep,
and the reference itself passes the workload's checks:

- the error ratios of every trial, recorded from the sweep, give the
  CSV's ``nmse_db`` of every method (or bound) at every SNR;
- the LS ``mean_sse`` is within Monte Carlo tolerance of n_t*n_r/SNR;
- the median tsdce ratio is below the median LS ratio at every SNR;
- the CRLB curve is finite, and its median sample decreases in SNR.

The comparisons use medians over trials, not the CSV's ``nmse_db`` (a
mean). A fraction of a percent of tsdce trials at 20 dB, and of CRLB
samples, have error ratios near or above 1 while the typical trial is
10 dB or more away from the compared value. One such trial in a sweep
moves the mean across it, so a comparison of means is decided by the seed
rather than by the program. ``mean_notes`` still reports where the means
disagree, without failing the sweep.
"""

from __future__ import annotations

import math
import statistics

from workloads import ARRAY, SNR_DB, Workload

TIMING_COLUMNS = ("wall_ms",)
# LS error is a sum of n_t*n_r*trials exponential cell powers, so its
# relative standard deviation is 1/sqrt(n_t*n_r*trials); allow six of them.
LS_SIGMAS = 6.0
# A tsdce trial whose error ratio is above this is counted as catastrophic.
CATASTROPHIC_RATIO = 0.5


def parse_csv(text: str):
    """Header and rows (dicts of strings) of a CSV written by tsdce."""
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return header, rows


def results_view(text: str):
    """The CSV without its timing columns, as comparable tuples."""
    header, rows = parse_csv(text)
    keep = [h for h in header if h not in TIMING_COLUMNS]
    return (tuple(keep),) + tuple(tuple(r[h] for h in keep) for r in rows)


def same_results(reference: str, other: str) -> bool:
    try:
        return results_view(reference) == results_view(other)
    except ValueError:
        return False


def _float(cell: str) -> float:
    return float(cell) if cell else math.nan


def row_at(rows, key: str, value: str, snr_db: float):
    for r in rows:
        if r.get(key) == value and _float(r["snr_db"]) == snr_db:
            return r
    return None


def check_output(workload: Workload, text: str, per_trial=None) -> list:
    """Problems found in one sweep's CSV; empty when it is correct.

    ``per_trial`` maps method (or bound kind) -> one list of error ratios
    per SNR, in trial order, recorded from the same sweep.
    """
    try:
        _, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    if workload.argv[0] == "bound":
        problems = _check_bound(rows)
    else:
        problems = _check_run(workload, rows)
    if problems:
        return problems
    problems = _check_ratios(workload, rows, per_trial)
    if problems:
        return problems
    if "tsdce" in workload.methods and "ls" in workload.methods:
        for i, snr_db in enumerate(SNR_DB):
            ours = statistics.median(per_trial["tsdce"][i])
            ls = statistics.median(per_trial["ls"][i])
            if not ours < ls:
                problems.append(
                    f"tsdce median error ratio {ours:.4g} is not below ls {ls:.4g} "
                    f"at {snr_db:g} dB"
                )
    if workload.argv[0] == "bound":
        medians = [statistics.median(r) for r in per_trial[workload.estimator]]
        if not all(hi < lo for lo, hi in zip(medians, medians[1:])):
            problems.append(
                "median crlb sample is not decreasing in SNR: "
                + ", ".join(f"{m:.4g}" for m in medians)
            )
    return problems


def _check_run(workload: Workload, rows) -> list:
    problems = []
    methods = workload.methods
    for method in methods:
        for snr_db in SNR_DB:
            r = row_at(rows, "method", method, snr_db)
            if r is None:
                problems.append(f"no row for {method} at {snr_db:g} dB")
                continue
            if int(r["trials"]) != workload.trials:
                problems.append(f"{method}@{snr_db:g}dB ran {r['trials']} trials")
            for col in ("nmse_db", "mean_sse", "p_detect"):
                if not math.isfinite(_float(r[col])):
                    problems.append(f"{method}@{snr_db:g}dB {col} is not finite")
    if len(rows) != len(methods) * len(SNR_DB):
        problems.append(f"{len(rows)} rows, expected {len(methods) * len(SNR_DB)}")
    if problems:
        return problems

    if "ls" in methods:
        tol = LS_SIGMAS / math.sqrt(ARRAY * ARRAY * workload.trials)
        for snr_db in SNR_DB:
            expected = ARRAY * ARRAY / 10.0 ** (snr_db / 10.0)
            got = _float(row_at(rows, "method", "ls", snr_db)["mean_sse"])
            if abs(got / expected - 1.0) > tol:
                problems.append(
                    f"ls mean_sse {got:g} at {snr_db:g} dB is not within "
                    f"{tol:.1%} of n_t*n_r/SNR = {expected:g}"
                )
    return problems


def _check_bound(rows) -> list:
    for snr_db in SNR_DB:
        r = row_at(rows, "kind", "crlb", snr_db)
        if r is None:
            return [f"no crlb row at {snr_db:g} dB"]
        if not (math.isfinite(_float(r["mean_sse"])) and math.isfinite(_float(r["nmse_db"]))):
            return [f"crlb at {snr_db:g} dB is not finite"]
    if len(rows) != len(SNR_DB):
        return [f"{len(rows)} rows, expected {len(SNR_DB)}"]
    return []


def _check_ratios(workload: Workload, rows, per_trial) -> list:
    """The recorded ratios are complete and their means are the CSV's nmse_db."""
    if not per_trial:
        return ["no per-trial error ratios were recorded"]
    key = "kind" if workload.argv[0] == "bound" else "method"
    problems = []
    for name in workload.methods or (workload.estimator,):
        by_snr = per_trial.get(name, [])
        if len(by_snr) != len(SNR_DB):
            return [f"per-trial ratios of {name} do not cover every SNR"]
        for snr_db, ratios in zip(SNR_DB, by_snr):
            if len(ratios) != workload.trials or None in ratios:
                return [f"per-trial ratios of {name} at {snr_db:g} dB are incomplete"]
            mean_db = 10.0 * math.log10(statistics.fmean(ratios))
            csv_db = _float(row_at(rows, key, name, snr_db)["nmse_db"])
            if not math.isclose(mean_db, csv_db, rel_tol=1e-5, abs_tol=1e-4):
                problems.append(
                    f"{name} per-trial ratios give {mean_db:.6g} dB at {snr_db:g} dB, "
                    f"the CSV {csv_db:g} dB"
                )
    return problems


def mean_notes(workload: Workload, text: str) -> list:
    """Where the CSV's means disagree with the gated median comparisons.

    Reported, not gated: see the module docstring.
    """
    try:
        _, rows = parse_csv(text)
    except ValueError:
        return []

    def nmse(key, name, snr_db):
        r = row_at(rows, key, name, snr_db)
        return math.nan if r is None else _float(r["nmse_db"])

    notes = []
    if "tsdce" in workload.methods and "ls" in workload.methods:
        for snr_db in SNR_DB:
            ours, ls = nmse("method", "tsdce", snr_db), nmse("method", "ls", snr_db)
            if not ours < ls:
                notes.append(
                    f"tsdce nmse_db {ours:g} is not below ls {ls:g} at {snr_db:g} dB "
                    f"(mean over {workload.trials} trials; not gated)"
                )
    if workload.argv[0] == "bound":
        curve = [nmse("kind", workload.estimator, snr_db) for snr_db in SNR_DB]
        if not all(hi < lo for lo, hi in zip(curve, curve[1:])):
            notes.append(
                "crlb nmse_db is not decreasing in SNR: "
                + ", ".join(f"{v:g}" for v in curve)
                + f" (mean over {workload.trials} samples; not gated)"
            )
    return notes


def catastrophic_share(per_trial, snr_index: int = -1) -> float:
    """Share of tsdce trials at ``snr_index`` with an error ratio above 0.5."""
    ratios = per_trial["tsdce"][snr_index]
    return sum(r > CATASTROPHIC_RATIO for r in ratios) / len(ratios)


def accuracy(workload: Workload, text: str, snr_db: float = SNR_DB[-1]):
    """(nmse_db, p_detect) of the workload's estimator at ``snr_db``.

    p_detect is 0 for an estimator that reports no angles (ls, crlb), and
    nmse_db of crlb is the bound itself; a trace-0 run prints only the
    figures in ``workload.reports``.
    """
    _, rows = parse_csv(text)
    key = "kind" if workload.argv[0] == "bound" else "method"
    r = row_at(rows, key, workload.estimator, snr_db)
    if r is None:
        raise ValueError(f"no {workload.estimator} row at {snr_db:g} dB")
    return _float(r["nmse_db"]), _float(r.get("p_detect", "0"))
