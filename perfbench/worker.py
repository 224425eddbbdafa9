"""One workload process: set up, then run sweeps in a closed loop.

Set-up is what a user of ``tsdce`` pays before the first trial: the
interpreter, the imports of tsdce, numpy and scipy, config parsing and a
warm-up sweep of one trial per SNR. The process then calls
``tsdce.cli.main`` on the workload config until ``--seconds`` have passed
(at least once) and writes a JSON summary to ``--result``. The first
sweep that succeeds is the reference: its CSV, and the error ratio of
every trial and method in it, go into the summary for the output check.

With ``--spans`` the sweeps cycle through three modes: the default pool
untraced, the default pool traced, and TSDCE_THREADS=1 untraced (the
program reads the variable on every sweep). Interleaving them in one
process keeps the machine's drift out of the tracing overhead and the
thread speed-up. The spans of the traced sweeps are written to SPANS.

    python3 perfbench/worker.py --src SRC --workload NAME --config CFG \\
        --warmup-config WCFG --work-dir DIR --result OUT.json \\
        [--seconds S] [--setup-only] [--spans SPANS.csv]
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import resource
import sys
import time
import traceback

import checks
import spans
from workloads import LAYERS, WORKLOADS

# Public analysis helpers evaluated once per quadrature node inside
# `ordered_eigenvalue_mean`; they cross no layer boundary, and wrapping
# them would add hundreds of spans to every CRLB sample.
UNTRACED = {"analysis.mp_density", "analysis.mp_cdf"}
RNG_METHODS = ("__init__", "substream", "uniform", "normal")
# (TSDCE_THREADS, traced) of the sweeps of a --spans run, in turn.
TRACE_MODES = ((None, False), (None, True), ("1", False))


def traced_targets(package):
    """Span name -> (owner, attribute) for every traced function.

    These are the public functions each layer module defines, the public
    methods of ``SeededRng`` and ``bench._run_trial``, the per-trial
    entry point of a sweep.
    """
    targets = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                targets[name] = (module, attr)
    targets["bench._run_trial"] = (package.bench, "_run_trial")
    rng = package.numkit.SeededRng
    for attr in RNG_METHODS:
        suffix = "" if attr == "__init__" else f".{attr}"
        targets[f"numkit.SeededRng{suffix}"] = (rng, attr)
    return targets


def record_trials(tsdce, workload):
    """Wrap the per-trial function of a sweep so that every error ratio is kept.

    A ``run`` sweep calls ``bench._run_trial`` once per trial, from pool
    threads; ``tsdce bound --kind crlb`` calls ``analysis.crlb_nmse_bound``
    once per sample, SNR after SNR, on one thread. Returns ``(ratios,
    restore)``: ``ratios`` maps method (or bound kind) -> SNR index ->
    trial -> ``||H_hat - H||^2 / ||H||^2`` (None for a failed trial).
    """
    ratios = {}
    if workload.argv[0] == "bound":
        owner, attr = tsdce.analysis, "crlb_nmse_bound"
        original, samples = getattr(owner, attr), itertools.count()

        def wrapper(*args, **kwargs):
            ratio = original(*args, **kwargs)
            snr_idx, trial = divmod(next(samples), workload.trials)
            ratios.setdefault(workload.estimator, {}).setdefault(snr_idx, {})[trial] = ratio
            return ratio
    else:
        owner, attr = tsdce.bench, "_run_trial"
        original = getattr(owner, attr)

        def wrapper(cfg, snr_idx, trial):
            out = original(cfg, snr_idx, trial)
            for method, r in out.items():
                ratios.setdefault(method, {}).setdefault(snr_idx, {})[trial] = r.get("ratio")
            return out

    def restore():
        setattr(owner, attr, original)

    setattr(owner, attr, wrapper)
    return ratios, restore


def in_trial_order(ratios) -> dict:
    """method -> one list of ratios per SNR index, in trial order."""
    return {
        method: [[by_trial[t] for t in sorted(by_trial)]
                 for _, by_trial in sorted(by_snr.items())]
        for method, by_snr in ratios.items()
    }


def run_record(np, scipy) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "TSDCE_THREADS": os.environ.get("TSDCE_THREADS", f"unset ({os.cpu_count()})"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--warmup-config", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    import tsdce
    from tsdce import cli

    if not os.path.realpath(tsdce.__file__).startswith(src + os.sep):
        print(f"error: imported tsdce from {tsdce.__file__}, not {src}", file=sys.stderr)
        return 2
    warm_out = os.path.join(args.work_dir, "warmup.csv")
    rc = cli.main([*workload.argv, "--config", args.warmup_config, "--out", warm_out])
    if rc != 0:
        print(f"error: warm-up sweep exited with {rc}", file=sys.stderr)
        return 2
    setup_mark = time.monotonic()
    result = {"setup_mark": setup_mark, "record": run_record(np, scipy)}
    if args.setup_only:
        _write(args.result, result)
        return 0

    recorder = spans.Recorder() if args.spans else None
    namespaces = [tsdce] + [getattr(tsdce, layer) for layer in LAYERS]
    targets = traced_targets(tsdce)
    out = os.path.join(args.work_dir, "sweep.csv")
    sweeps, reference, per_trial = [], None, None
    loop0 = time.perf_counter()
    while True:
        if recorder is not None:
            threads, traced = TRACE_MODES[len(sweeps) % len(TRACE_MODES)]
            os.environ.pop("TSDCE_THREADS", None)
            if threads is not None:
                os.environ["TSDCE_THREADS"] = threads
        else:
            traced = False
        if os.path.exists(out):
            os.remove(out)
        restore = spans.instrument(recorder, targets, namespaces) if traced else None
        # The sweep that becomes the reference also keeps its per-trial
        # error ratios, for the output check (one dict write per trial).
        ratios = unrecord = None
        if reference is None and not traced:
            ratios, unrecord = record_trials(tsdce, workload)
        cpu0, t0 = os.times(), time.perf_counter()
        try:
            rc = cli.main([*workload.argv, "--config", args.config, "--out", out])
        except Exception:  # noqa: BLE001 - a raising sweep is counted as failed
            traceback.print_exc()
            rc = "raised"
        finally:
            wall, cpu1 = time.perf_counter() - t0, os.times()
            if restore is not None:
                restore()
            if unrecord is not None:
                unrecord()
        same = False
        if rc == 0:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            if reference is None:
                reference = text
                if ratios is not None:
                    per_trial = in_trial_order(ratios)
            same = checks.same_results(reference, text)
        sweeps.append({
            "wall_s": wall,
            "cpu_s": cpu1.user + cpu1.system - cpu0.user - cpu0.system,
            "rc": rc,
            "same": same,
            "traced": traced,
            "threads": os.environ.get("TSDCE_THREADS", "default"),
        })
        done = time.perf_counter() - loop0 >= args.seconds
        if done and (recorder is None or len(sweeps) >= len(TRACE_MODES)):
            break
    result.update(
        sweeps=sweeps,
        reference=reference,
        per_trial=per_trial,
        trials_per_sweep=workload.trials_per_sweep,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        spans.write_spans(recorder.spans, args.spans)
        calls, self_by_layer, trial_ids = spans.summarize(recorder.spans, LAYERS)
        result.update(
            calls=calls,
            self_s=self_by_layer,
            trial_ids=len(trial_ids),
            span_count=len(recorder.spans),
        )
    _write(args.result, result)
    return 0


def _write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
