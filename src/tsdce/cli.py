"""Command line interface.

Subcommands:
  run    -- full Monte Carlo sweep to a metrics CSV
  single -- one sweep trial, replayed with matrix dumps for debugging/figures
  bound  -- analytic bound curves over the configured SNR list

Exit codes: 0 success, 2 configuration error or an output path that cannot
be written, 3 failure-rate breach.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import algorithm, analysis, bench
from .channel import build_channel, sample_paths
from .numkit import SeededRng
from .observation import snr_in_spatial_domain, to_spatial


def _dump_matrix(path, m):
    """One row per entry of the matrix m; 17 significant digits round-trip."""
    rows = [(i, j, z.real, z.imag) for (i, j), z in np.ndenumerate(np.asarray(m, dtype=complex))]
    bench.write_csv(path, [("m", "n", "re", "im"), *rows], digits=17)


def _check_out(path) -> None:
    """Fail an unwritable output path before any work: opening it to append
    leaves an old file as it was, and a file it creates is removed again."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _cmd_run(args) -> int:
    cfg = bench.load_config(args.config)
    _check_out(args.out)
    try:
        records = bench.run_experiment(cfg)
    except bench.FailureRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    bench.emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_single(args) -> int:
    cfg = bench.load_config(args.config)
    if not 0 <= args.snr_index < len(cfg.snr_db_list):
        raise bench.ConfigError(
            f"--snr-index {args.snr_index} is outside snr_db_list "
            f"(0..{len(cfg.snr_db_list) - 1})"
        )
    if not 0 <= args.trial < cfg.trials:
        raise bench.ConfigError(
            f"--trial {args.trial} is outside the config's trials (0..{cfg.trials - 1})"
        )
    os.makedirs(args.dump, exist_ok=True)
    _, h, y = bench.draw_trial(cfg, args.snr_index, args.trial)
    d = np.fft.ifft2(y)  # the spatial-domain data; to_spatial rescales its crop
    _dump_matrix(os.path.join(args.dump, "Y.csv"), y)
    _dump_matrix(os.path.join(args.dump, "D.csv"), d)
    _dump_matrix(os.path.join(args.dump, "D_bar.csv"), d[:cfg.n_r, :cfg.n_t])
    _dump_matrix(os.path.join(args.dump, "H_true.csv"), h)
    trace = []
    estimates = algorithm.run(to_spatial(y, cfg.n_t, cfg.n_r), cfg.l_desired, cfg.rounds, trace)
    for step in trace:
        name = f"residual_k{step['round']}_l{step['path']}.csv"
        _dump_matrix(os.path.join(args.dump, name), step["residual"])
    columns = ("gain_magnitude", "gain_phase", "aoa", "aod", "omega_aoa", "omega_aod")
    rows = [(i, *(getattr(e, c) for c in columns)) for i, e in enumerate(estimates, 1)]
    bench.write_csv(
        os.path.join(args.dump, "estimates.csv"), [("path", *columns), *rows], digits=9
    )
    _dump_matrix(os.path.join(args.dump, "H_hat.csv"), build_channel(estimates, cfg.n_t, cfg.n_r))
    print(f"dumped realization to {args.dump}")
    return 0


def _cmd_bound(args) -> int:
    cfg = bench.load_config(args.config)
    # the noise-eigenvalue means behind lemma4 take n_t >= n_r >= paths
    if args.kind == "lemma4" and not cfg.paths <= cfg.n_r <= cfg.n_t:
        raise bench.ConfigError(
            f"--kind {args.kind} needs paths <= n_r <= n_t, got paths = {cfg.paths}, "
            f"n_r = {cfg.n_r}, n_t = {cfg.n_t}"
        )
    _check_out(args.out)
    rows = [("kind", "snr_db", "mean_sse", "nmse_db")]
    e_h_sq = cfg.n_t * cfg.n_r  # expected ||H||_F^2 under unit path power
    for snr_db, snr in zip(cfg.snr_db_list, cfg.snr_list):
        sigma_n_sq = 1.0 / snr
        sigma_z_sq = sigma_n_sq / (cfg.q_count * cfg.p_count)
        if args.kind == "lemma3":
            snr_c = snr_in_spatial_domain(snr, cfg.p_count, cfg.q_count, cfg.n_t, cfg.n_r)
            sse = analysis.upper_bound_single_path(snr_c, cfg.n_t, cfg.n_r)
        elif args.kind == "lemma4":
            sse = analysis.upper_bound_multi_path(cfg.paths, cfg.n_t, cfg.n_r, sigma_z_sq)
        else:  # crlb
            base = SeededRng(cfg.seed)
            ratios = []
            for t in range(cfg.trials):
                paths = sample_paths(cfg.paths, base.substream(t), cfg.angle_range)
                ratios.append(analysis.crlb_nmse_bound(paths, cfg.n_t, cfg.n_r, sigma_z_sq))
            sse = float(np.mean(ratios)) * e_h_sq
        rows.append((args.kind, snr_db, sse, bench.ratio_to_db(sse / e_h_sq)))
    bench.write_csv(args.out, rows)
    print(f"wrote {args.kind} bound curve to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsdce", description="Transformed spatial domain channel estimation simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full Monte Carlo sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_single = sub.add_parser("single", help="replay one sweep trial with matrix dumps")
    p_single.add_argument("--config", required=True)
    p_single.add_argument(
        "--snr-index", type=int, required=True, dest="snr_index",
        help="index into the config's snr_db_list, as in a sweep",
    )
    p_single.add_argument("--trial", type=int, default=0, help="trial index, as in a sweep")
    p_single.add_argument("--dump", required=True)
    p_single.set_defaults(func=_cmd_single)

    p_bound = sub.add_parser("bound", help="analytic bound curves")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--kind", choices=("lemma3", "lemma4", "crlb"), required=True)
    p_bound.add_argument("--out", required=True)
    p_bound.set_defaults(func=_cmd_bound)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
