"""Command line interface.

Subcommands:
  run    -- full Monte Carlo sweep to a metrics CSV
  single -- one sweep trial, replayed with matrix dumps for debugging/figures
  bound  -- analytic bound curves over the configured SNR list

Exit codes: 0 success, 2 configuration error, 3 failure-rate breach.
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
    m = np.atleast_2d(np.asarray(m))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("m,n,re,im\n")
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                z = complex(m[i, j])
                fh.write(f"{i},{j},{z.real:.17g},{z.imag:.17g}\n")


def _cmd_run(args) -> int:
    cfg = bench.load_config(args.config)
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
    os.makedirs(args.dump, exist_ok=True)
    _, ch, obs = bench.draw_trial(cfg, args.snr_index, args.trial)
    sp = to_spatial(obs, cfg.n_t, cfg.n_r)
    _dump_matrix(os.path.join(args.dump, "Y.csv"), obs.y)
    _dump_matrix(os.path.join(args.dump, "D.csv"), sp.d)
    _dump_matrix(os.path.join(args.dump, "D_bar.csv"), sp.d_bar)
    _dump_matrix(os.path.join(args.dump, "H_true.csv"), ch.h)
    trace = []
    estimates = algorithm.run(
        obs,
        algorithm.TsdceConfig(
            l_desired=cfg.l_desired, rounds=cfg.rounds, rho=cfg.rho,
            n_t=cfg.n_t, n_r=cfg.n_r,
        ),
        trace=trace,
    )
    for step in trace:
        name = f"residual_k{step['round']}_l{step['path']}.csv"
        _dump_matrix(os.path.join(args.dump, name), step["residual"])
    with open(os.path.join(args.dump, "estimates.csv"), "w", encoding="utf-8") as fh:
        fh.write("path,gain_magnitude,gain_phase,aoa,aod,omega_aoa,omega_aod\n")
        for i, e in enumerate(estimates, 1):
            fh.write(
                f"{i},{e.gain_magnitude:.9g},{e.gain_phase:.9g},"
                f"{e.aoa:.9g},{e.aod:.9g},{e.omega_aoa:.9g},{e.omega_aod:.9g}\n"
            )
    h_hat = algorithm.reconstruct_channel(estimates, cfg.n_t, cfg.n_r)
    _dump_matrix(os.path.join(args.dump, "H_hat.csv"), h_hat)
    print(f"dumped realization to {args.dump}")
    return 0


def _cmd_bound(args) -> int:
    cfg = bench.load_config(args.config)
    rows = ["kind,snr_db,mean_sse,nmse_db"]
    e_h_sq = cfg.n_t * cfg.n_r  # expected ||H||_F^2 under unit path power
    for snr_db, snr in zip(cfg.snr_db_list, cfg.snr_list):
        sigma_n_sq = cfg.rho / snr
        sigma_z_sq = sigma_n_sq / (cfg.q_count * cfg.p_count)
        if args.kind == "lemma3":
            snr_c = snr_in_spatial_domain(snr, cfg.p_count, cfg.q_count, cfg.n_t, cfg.n_r)
            sse = analysis.upper_bound_single_path(snr_c, cfg.n_t, cfg.n_r)
        elif args.kind == "lemma4":
            sse = analysis.upper_bound_multi_path(
                cfg.paths, cfg.rho, cfg.n_t, cfg.n_r, sigma_z_sq
            )
        else:  # crlb
            base = SeededRng(cfg.seed)
            ratios = []
            for t in range(cfg.trials):
                paths = sample_paths(cfg.paths, base.substream(t), cfg.angle_range)
                ch = build_channel(paths, cfg.n_t, cfg.n_r)
                ratios.append(analysis.crlb_nmse_bound(ch, cfg.rho, sigma_z_sq))
            ratio = float(np.mean(ratios))
            sse = ratio * e_h_sq
        rows.append(
            f"{args.kind},{snr_db:.6g},{sse:.6g},{bench.ratio_to_db(sse / e_h_sq):.6g}"
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
