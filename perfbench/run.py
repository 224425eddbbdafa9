"""tsdce benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src, and
working files go to ./.perfbench_work. Each workload process is fresh.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts sweeps, and a sweep fails when it raises, exits non-zero, or its
output fails a check (see checks.py).

--trace 0 reports the end-to-end metrics:
  trials_per_s  first quartile over the timed sweeps of trials / sweep wall time
  setup_s       median over every fresh process of the run (SETUP_ONLY
                set-up-only ones between the timed ones, which count too)
                of the time from spawn to the first timed trial
  peak_rss_mb   median over the timed processes of their peak resident memory
--trace 1 reports the per-layer metrics of BENCHMARK.json from one
process whose sweeps cycle through the default pool untraced, the
default pool traced and TSDCE_THREADS=1 untraced.
Either mode prints a readable summary before the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import accuracy, catastrophic_share, check_output, mean_notes, same_results
from workloads import LAYERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# The timed sweeps of a trace-0 run are split over this many processes, so
# that peak memory is a median too.
TIMED_PROCESSES = 3
# Set-up-only processes run before each timed process, so that the set-up
# samples of a run spread over its whole length, not only its first seconds.
SETUP_ONLY = 3
BUDGET_S = 170.0  # every run must end within 180 s

# Per-call metrics of the traced pass: span name -> reported statistics.
CALL_METRICS = {
    "numkit.dominant_singular_triplet": ("ms_p50", "calls_per_trial", "errors"),
    "numkit.acf2d_unbiased": ("ms_p50", "calls_per_trial"),
    "numkit.dft2d": ("ms_p50", "calls_per_trial"),
    "channel.sample_paths": ("ms_p50",),
    "channel.build_channel": ("ms_p50",),
    "channel.steering_vector": ("calls_per_trial",),
    "observation.build_codebook": ("ms_p50", "calls_per_trial"),
    "observation.synthesize_observation": ("ms_p50",),
    "observation.to_spatial": ("ms_p50", "calls_per_trial"),
    "algorithm.run": ("ms_p50", "ms_p90"),
    "algorithm.reconstruct_path": ("calls_per_trial",),
    "analysis.dft_peak_baseline": ("ms_p50",),
    "analysis.ordered_eigenvalue_mean": ("ms_p50", "calls_per_trial"),
    "analysis.crlb_nmse_bound": ("ms_p50",),
    "analysis.crlb_variances": ("ms_p50",),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env(threads) -> dict:
    """Environment of a workload process.

    ``threads`` None keeps the program's default pool size (os.cpu_count);
    BLAS threads are fixed so that pool threads x BLAS threads <= nproc.
    """
    env = dict(os.environ)
    env.pop("TSDCE_THREADS", None)
    if threads is not None:
        env["TSDCE_THREADS"] = str(threads)
    nproc = len(os.sched_getaffinity(0))
    blas = str(max(1, nproc // (os.cpu_count() or 1)))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = blas
    return env


class Runner:
    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        self.work = os.path.join(root, ".perfbench_work", f"{workload.name}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.config = self._write("sweep.cfg", workload.config_text(seed))
        self.warmup = self._write("warmup.cfg", workload.config_text(seed, trials=1))
        self.count = 0

    def _write(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def spawn(self, seconds=0.0, threads=None, setup_only=False, spans=None) -> dict:
        """Run one fresh workload process; its result plus ``setup_s``."""
        self.count += 1
        work = os.path.join(self.work, f"p{self.count}")
        os.makedirs(work)
        result = os.path.join(work, "result.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--src", os.path.join(self.root, "src"),
            "--workload", self.workload.name,
            "--config", self.config,
            "--warmup-config", self.warmup,
            "--work-dir", work,
            "--result", result,
            "--seconds", str(seconds),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=worker_env(threads), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process exceeded the {BUDGET_S:g} s budget") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload process exited with {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        out["setup_s"] = out["setup_mark"] - t0
        if any(s["rc"] != 0 for s in out.get("sweeps", ())):
            sys.stderr.write(proc.stderr)  # the tracebacks of failed sweeps
        return out

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def commit(root) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def score(workload, passes):
    """(attempted, failed, problems) over every sweep of every pass.

    The first sweep of the first pass is the reference. A sweep fails when
    it raised or exited non-zero, when its results columns differ from the
    reference (a repeat, another thread count, or a traced sweep), or when
    the reference, with its per-trial error ratios, fails the workload's
    output checks.
    """
    reference = passes[0]["reference"]
    if reference is None:
        problems = ["the first sweep failed"]
    else:
        problems = check_output(workload, reference, passes[0].get("per_trial"))
    wrong_output = bool(problems)
    attempted = failed = 0
    for p in passes:
        agrees = reference is not None and p["reference"] is not None and (
            same_results(reference, p["reference"]))
        for s in p["sweeps"]:
            attempted += 1
            if s["rc"] != 0:
                problems.append(f"a sweep returned {s['rc']}")
            elif not s["same"]:
                problems.append("results differ between sweeps of one process")
            elif not agrees:
                problems.append("results differ between processes")
            failed += wrong_output or not (s["rc"] == 0 and s["same"] and agrees)
    return attempted, failed, sorted(set(problems))


def rate(trials_per_sweep, sweeps) -> float:
    """First quartile over ``sweeps`` of trials / sweep wall time.

    The machine this was tuned on alternates, every 5 to 20 s, between
    phases whose single-thread speed differs by 1.5x. Nearly every run
    holds some slow-phase sweeps, so the first quartile tracks the slow
    phase; the median moves with the share of fast phase in each run.
    """
    rates = [trials_per_sweep / s["wall_s"] for s in sweeps]
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def trace_metrics(workload, mixed, failed_share) -> dict:
    """The per-layer metrics of BENCHMARK.json: name -> (value, unit, better).

    ``mixed`` is the pass whose sweeps cycle through the default pool
    untraced, the default pool traced and TSDCE_THREADS=1 untraced.
    """
    if mixed["reference"] is None:
        raise BenchError("no sweep produced output")
    per_sweep = mixed["trials_per_sweep"]
    traced = [s for s in mixed["sweeps"] if s["traced"]]
    plain = [s for s in mixed["sweeps"] if not s["traced"] and s["threads"] == "default"]
    single = [s for s in mixed["sweeps"] if s["threads"] == "1"]
    trials = per_sweep * len(traced)
    wall = sum(s["wall_s"] for s in traced)
    calls = mixed["calls"]
    metrics = {}
    for name, stats in CALL_METRICS.items():
        c = calls.get(name, {"count": 0, "errors": 0, "p50": 0.0, "p90": 0.0})
        values = {
            "ms_p50": (c["p50"] * 1e3, "ms", "lower"),
            "ms_p90": (c["p90"] * 1e3, "ms", "lower"),
            "calls_per_trial": (c["count"] / trials, "count", "lower"),
            "errors": (c["errors"], "count", "lower"),
        }
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]
    for layer in ("bench", "cli"):
        metrics[f"{layer}.self_ms_per_trial"] = (mixed["self_s"][layer] * 1e3 / trials, "ms", "lower")
    cpu_util = sum(s["cpu_s"] for s in plain) / sum(s["wall_s"] for s in plain)
    metrics["bench.cpu_util"] = (cpu_util, "ratio", "higher")
    speedup = rate(per_sweep, plain) / rate(per_sweep, single)
    metrics["bench.thread_speedup"] = (speedup, "ratio", "higher")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (mixed["self_s"][layer] / wall, "ratio", "lower")
    overhead = 1.0 - rate(per_sweep, traced) / rate(per_sweep, plain)
    metrics["trace.overhead"] = (overhead, "ratio", "lower")
    nmse, p_det = accuracy(workload, mixed["reference"])
    metrics["nmse_db"] = (nmse, "dB", "lower")
    metrics["p_detect"] = (p_det, "ratio", "higher")
    metrics["failed_share"] = (failed_share, "ratio", "lower")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tsdce benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tsdce", "__init__.py")):
        print("error: run from the root of a tsdce checkout (no src/tsdce)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(root, workload, args.seed, time.monotonic() + BUDGET_S)
    try:
        if args.trace == 0:
            report = measure(runner, args.seconds)
        else:
            report = measure_traced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    record = dict(report.pop("record"), commit=commit(root),
                  nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count())
    attempted, failed, problems = report.pop("score")
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("run record: " + json.dumps(record, sort_keys=True))
    for line in report.pop("lines"):
        print(line)
    for p in problems:
        print(f"check failed: {p}")
    for note in report.pop("notes"):
        print(f"note: {note}")
    metrics = report["metrics"]
    for name, (value, unit, _) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


def measure(runner, seconds) -> dict:
    w = runner.workload
    setups, timed = [], []
    for _ in range(TIMED_PROCESSES):
        setups += [runner.spawn(setup_only=True) for _ in range(SETUP_ONLY)]
        timed.append(runner.spawn(seconds=seconds / TIMED_PROCESSES))
    single = runner.spawn(threads=1)
    attempted, failed, problems = score(w, timed + [single])
    setup = [p["setup_s"] for p in setups + timed + [single]]
    sweeps = sum(len(p["sweeps"]) for p in timed)
    lines = [f"  {sweeps} timed sweeps of {w.trials_per_sweep} trials in {TIMED_PROCESSES} "
             f"processes; setup samples (s): " + " ".join(f"{s:.3f}" for s in setup)]
    extra = {"failed_share": (failed / attempted, "ratio", "lower")}
    if timed[0]["reference"] is not None:
        nmse, p_det = accuracy(w, timed[0]["reference"])
        figures = {"nmse_db": (nmse, "dB", "lower"), "p_detect": (p_det, "ratio", "higher")}
        extra.update((n, figures[n]) for n in w.reports)
        if "tsdce" in w.methods and timed[0]["per_trial"]:
            extra["catastrophic_share"] = (
                catastrophic_share(timed[0]["per_trial"]), "ratio", "lower")
    lines += [f"  {n:48s} {v:14.6g} {u}   (not gated)" for n, (v, u, _) in extra.items()]
    return {
        "record": timed[0]["record"],
        "score": (attempted, failed, problems),
        "notes": notes(w, timed[0]),
        "lines": lines,
        "metrics": {
            "trials_per_s": (rate(w.trials_per_sweep, [s for p in timed for s in p["sweeps"]]),
                             "1/s", "higher"),
            "setup_s": (statistics.median(setup), "s", "lower"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in timed), "MB", "lower"),
        },
    }


def measure_traced(runner, seconds) -> dict:
    w = runner.workload
    spans_path = os.path.join(runner.root, ".perfbench_work", f"spans-{w.name}.csv")
    mixed = runner.spawn(seconds=seconds, spans=spans_path)
    attempted, failed, problems = score(w, [mixed])
    trials = mixed["trials_per_sweep"] * sum(s["traced"] for s in mixed["sweeps"])
    if mixed["trial_ids"] != trials:
        problems.append(f"traced sweeps saw {mixed['trial_ids']} trial ids for {trials} trials")
    metrics = trace_metrics(w, mixed, failed / attempted)
    shares = mixed["self_s"]
    total = sum(shares.values())
    lines = [f"  {len(mixed['sweeps'])} sweeps, every third one traced: "
             f"{mixed['span_count']} spans written to {os.path.relpath(spans_path, runner.root)}",
             "  share of traced self time: " + ", ".join(
                 f"{layer} {shares[layer] / total:.1%}" for layer in LAYERS)]
    return {"record": mixed["record"], "score": (attempted, failed, problems),
            "notes": notes(w, mixed), "lines": lines, "metrics": metrics}


def notes(workload, process) -> list:
    """Observations about a process's reference sweep that fail nothing."""
    if process["reference"] is None:
        return []
    return mean_notes(workload, process["reference"])


if __name__ == "__main__":
    sys.exit(main())
