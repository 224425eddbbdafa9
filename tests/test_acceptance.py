"""Acceptance gate: ten end-to-end checks of the estimator, its bounds and
the harness at desk scale (n_t = n_r = 16, Q = P in {16, 32}).

Each test prints one PASS/FAIL line with the measured numbers so the whole
gate can be read off a single pytest -s run.
"""

import os
import time

import numpy as np
import pytest

from tsdce.algorithm import run
from tsdce.analysis import crlb_nmse_bound, ordered_eigenvalue_mean, upper_bound_single_path
from tsdce.bench import ExperimentConfig, emit_csv, nmse_ratio, run_experiment
from tsdce.channel import PathParams, build_channel, sample_paths, wrap_phase
from tsdce.numkit import SeededRng, sample_complex_gaussian
from tsdce.observation import (
    build_codebook,
    noise_variance_estimate,
    snr_in_spatial_domain,
    synthesize_observation,
    to_spatial,
)
from oracles import MarchenkoPastur, _channel_jacobian, ls_estimate_explicit, mp_density

N = 16
CB16 = build_codebook(16, 16, N, N)
CB32 = build_codebook(32, 32, N, N)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_channel(L, stream):
    """(paths, H) of L paths drawn from stream, strongest path first."""
    paths = sample_paths(L, stream)
    return paths, build_channel(paths, N, N)


def spatial_ls(y):
    return to_spatial(y, N, N)


def tsdce_estimate(y, l_desired, rounds):
    return build_channel(run(spatial_ls(y), l_desired, rounds), N, N)


def ls_nmse_db(cb, snr_db, trials, seed, L=3):
    sigma_n_sq = 10.0 ** (-snr_db / 10.0)
    ratios = []
    for t in range(trials):
        _, h = random_channel(L, SeededRng(seed).substream(t))
        noise_stream = SeededRng(seed ^ 0x5EED).substream(t)
        y = synthesize_observation(h, cb, sigma_n_sq, noise_stream)
        ratios.append(nmse_ratio(spatial_ls(y), h))
    return 10.0 * np.log10(np.mean(ratios))


def test_criterion_01_exact_recovery():
    # untimed warm-up so lazy one-time initialization (FFT plan caches
    # and friends) stays out of the runtime budget
    _, warm = random_channel(1, SeededRng(200))
    run(spatial_ls(synthesize_observation(warm, CB16, 0.0)), 1, 1)
    start = time.perf_counter()
    worst_param, worst_nmse = 0.0, 0.0
    for t in range(50):
        stream = SeededRng(201).substream(t)
        paths, h = random_channel(1, stream)
        est = run(spatial_ls(synthesize_observation(h, CB16, 0.0)), 1, 1)[0]
        truth = paths[0]
        worst_param = max(
            worst_param,
            abs(est.gain_magnitude - truth.gain_magnitude),
            abs(wrap_phase(est.gain_phase - truth.gain_phase)),
            abs(est.omega_aod - truth.omega_aod),
            abs(est.omega_aoa - truth.omega_aoa),
        )
        worst_nmse = max(worst_nmse,
                         nmse_ratio(build_channel([est], N, N), h))
    elapsed = time.perf_counter() - start
    ok = worst_param < 1e-8 and worst_nmse < 1e-15 and elapsed < 1.0
    report(1, ok, f"worst parameter error {worst_param:.2e}, worst NMSE ratio "
                  f"{worst_nmse:.2e}, {elapsed:.2f} s")
    assert worst_param < 1e-8
    assert worst_nmse < 1e-15
    assert elapsed < 1.0


def test_criterion_02_ls_mean_sse_and_identity():
    sse = []
    worst_gap = 0.0
    for t in range(2000):
        _, h = random_channel(3, SeededRng(202).substream(t))
        y = synthesize_observation(h, CB16, 1.0, SeededRng(203).substream(t))
        fast = spatial_ls(y)
        explicit = ls_estimate_explicit(y, CB16)
        worst_gap = max(worst_gap, np.max(np.abs(fast - explicit)))
        sse.append(np.linalg.norm(fast - h) ** 2)
    mean_sse = float(np.mean(sse))
    ok = abs(mean_sse - 256.0) / 256.0 < 0.03 and worst_gap < 1e-9
    report(2, ok, f"mean SSE {mean_sse:.2f} (target 256 +-3%), "
                  f"max LS-route gap {worst_gap:.2e}")
    assert abs(mean_sse - 256.0) / 256.0 < 0.03
    assert worst_gap < 1e-9


def test_criterion_03_codebook_snr_gain():
    shift = 10.0 * np.log10(4.0)
    gaps = []
    for s in (0.0, 10.0):
        big = ls_nmse_db(CB32, s, 1000, seed=204)
        small = ls_nmse_db(CB16, s + shift, 1000, seed=204)
        gaps.append(abs(big - small))
    ok = max(gaps) < 0.3
    report(3, ok, f"|NMSE(Q=32, s) - NMSE(Q=16, s+6.02 dB)| = "
                  f"{gaps[0]:.3f} / {gaps[1]:.3f} dB at s = 0 / 10 (limit 0.3)")
    assert max(gaps) < 0.3


def test_criterion_04_single_path_upper_bound():
    lines = []
    ok = True
    for snr_db in (0.0, 10.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        sse = []
        for t in range(500):
            stream = SeededRng(205).substream((int(snr_db) << 16) | t)
            _, h = random_channel(1, stream)
            y = synthesize_observation(h, CB16, 1.0 / snr, stream)
            sse.append(np.linalg.norm(tsdce_estimate(y, 1, 1) - h) ** 2)
        bound = upper_bound_single_path(snr_in_spatial_domain(snr, 16, 16, N, N), N, N)
        mean_sse = float(np.mean(sse))
        ok = ok and mean_sse < bound
        lines.append(f"{mean_sse:.3f}<{bound:.1f}@{snr_db:.0f}dB")
    report(4, ok, "mean SSE vs bound: " + ", ".join(lines))
    assert ok


def test_criterion_05_ordered_eigenvalue_means():
    mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
    theory = np.array([ordered_eigenvalue_mean(l, N, N, 1.0) for l in range(1, N + 1)])
    acc = np.zeros(N)
    for t in range(2000):
        z = sample_complex_gaussian(SeededRng(206).substream(t), 1.0, size=(N, N))
        acc += np.sort(np.linalg.eigvalsh(z.conj().T @ z / N))[::-1]
    empirical = acc / 2000
    rel = np.abs(theory - empirical) / empirical
    from scipy import integrate
    total, _ = integrate.quad(lambda x: mp_density(mp, x), mp.a, mp.b, limit=200)
    ok = np.max(rel) < 0.03 and abs(total - 1.0) < 1e-6
    report(5, ok, f"max |theory-empirical|/empirical = {np.max(rel):.3f} "
                  f"(limit 0.03, worst at l={int(np.argmax(rel)) + 1}); "
                  f"density integral {total:.8f}")
    assert abs(total - 1.0) < 1e-6
    assert np.max(rel) < 0.03, (
        "the exact finite-N (Laguerre ensemble) ordered-eigenvalue means "
        "disagree with the sampled Wishart spectra; see the README's Tests "
        "section"
    )


def test_criterion_06_crlb_curve():
    # Jacobian spot check against central finite differences
    paths, _ = random_channel(3, SeededRng(207))
    params = []
    for p in paths:
        params.extend([p.gain_magnitude, p.gain_phase, p.omega_aod, p.omega_aoa])
    jac = _channel_jacobian(np.array(params), N, N)
    step = 1e-6
    worst_rel = 0.0
    mm, nn = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")

    def h_of(vec):
        h = np.zeros((N, N), dtype=complex)
        for l in range(len(vec) // 4):
            mag, phase, w_aod, w_aoa = vec[4 * l: 4 * l + 4]
            h += mag * np.exp(1j * (phase + w_aoa * mm + w_aod * nn))
        return h.reshape(-1)

    for i in range(len(params)):
        hi, lo = np.array(params), np.array(params)
        hi[i] += step
        lo[i] -= step
        col = (h_of(hi) - h_of(lo)) / (2 * step)
        denom = max(np.max(np.abs(col)), 1e-12)
        worst_rel = max(worst_rel, np.max(np.abs(jac[:, i] - col)) / denom)

    # TSDCE vs CRLB-reconstruction curves over shared realizations
    tsdce_db, crlb_db = {}, {}
    for snr_db in (0.0, 10.0, 20.0):
        sigma_n_sq = 10.0 ** (-snr_db / 10.0)
        sigma_z_sq = sigma_n_sq / 256.0
        t_ratio, c_ratio = [], []
        for t in range(500):
            stream = SeededRng(208).substream((int(snr_db) << 16) | t)
            paths, h = random_channel(3, stream)
            y = synthesize_observation(h, CB16, sigma_n_sq, stream)
            t_ratio.append(nmse_ratio(tsdce_estimate(y, 3, 3), h))
            c_ratio.append(crlb_nmse_bound(paths, N, N, sigma_z_sq))
        tsdce_db[snr_db] = 10.0 * np.log10(np.mean(t_ratio))
        crlb_db[snr_db] = 10.0 * np.log10(np.mean(c_ratio))

    below_everywhere = all(crlb_db[s] < tsdce_db[s] for s in tsdce_db)
    gap_20 = tsdce_db[20.0] - crlb_db[20.0]
    ok = worst_rel < 1e-5 and below_everywhere and gap_20 <= 3.0
    curves = ", ".join(f"{s:.0f}dB: tsdce {tsdce_db[s]:.2f} / crlb {crlb_db[s]:.2f}"
                       for s in (0.0, 10.0, 20.0))
    report(6, ok, f"jacobian rel err {worst_rel:.1e}; {curves}; "
                  f"gap at 20 dB {gap_20:.2f} (limit 3)")
    assert worst_rel < 1e-5
    assert below_everywhere and gap_20 <= 3.0, (
        "a few catastrophic TSDCE trials at 20 dB carry its averaged curve "
        "far above the CRLB; see the README's Tests section"
    )


def test_criterion_07_k_sweep():
    nmse = {}
    for rounds in (1, 2, 3):
        ratios = []
        for t in range(300):
            stream = SeededRng(209).substream(t)
            _, h = random_channel(3, stream)
            y = synthesize_observation(h, CB16, 0.1, SeededRng(210).substream(t))
            ratios.append(nmse_ratio(tsdce_estimate(y, 3, rounds), h))
        nmse[rounds] = 10.0 * np.log10(np.mean(ratios))
    gain = nmse[1] - nmse[2]
    settle = abs(nmse[3] - nmse[2])
    ok = gain >= 2.0 and settle <= 1.0
    report(7, ok, f"NMSE K=1/2/3 = {nmse[1]:.2f}/{nmse[2]:.2f}/{nmse[3]:.2f} dB; "
                  f"K1->K2 gain {gain:.2f} (need >=2), |K3-K2| {settle:.2f} (limit 1)")
    assert gain >= 2.0
    assert settle <= 1.0


def test_criterion_08_beats_ls():
    ok = True
    lines = []
    for L in (1, 3):
        for snr_db in (0.0, 10.0, 20.0):
            sigma_n_sq = 10.0 ** (-snr_db / 10.0)
            t_ratio, l_ratio = [], []
            for t in range(500):
                stream = SeededRng(211).substream((L << 24) | (int(snr_db) << 16) | t)
                _, h = random_channel(L, stream)
                y = synthesize_observation(h, CB16, sigma_n_sq, stream)
                # K = L_d, the protocol used for the method comparisons
                t_ratio.append(nmse_ratio(tsdce_estimate(y, L, L), h))
                l_ratio.append(nmse_ratio(spatial_ls(y), h))
            t_db = 10.0 * np.log10(np.mean(t_ratio))
            l_db = 10.0 * np.log10(np.mean(l_ratio))
            margin = l_db - t_db
            need = 3.0 if snr_db >= 10.0 else 0.0
            ok = ok and margin > need
            lines.append(f"L={L}@{snr_db:.0f}dB:{margin:.1f}")
    report(8, ok, "LS-minus-TSDCE margins dB (need >0, >=3 from 10 dB): "
                  + ", ".join(lines))
    assert ok


def test_criterion_09_noise_variance_estimator():
    zero = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], N, N)
    sigma_n_sq = 0.7
    acc = 0.0
    for t in range(1000):
        y = synthesize_observation(zero, CB32, sigma_n_sq, SeededRng(212).substream(t))
        acc += noise_variance_estimate(y, N, N)
    mean = acc / 1000
    target = sigma_n_sq / 1024.0
    rel = abs(mean - target) / target
    ok = rel < 0.02
    report(9, ok, f"mean sigma_z^2 estimate {mean:.3e} vs {target:.3e} "
                  f"({100 * rel:.2f}% off, limit 2%)")
    assert rel < 0.02


def test_criterion_10_threaded_determinism(tmp_path, monkeypatch):
    cfg = ExperimentConfig(trials=20, paths=2, rounds=2,
                           snr_db_list=(0.0, 10.0),
                           methods=("tsdce", "ls", "dft_peak"), seed=213)

    def run_to_csv(threads, name):
        monkeypatch.setenv("TSDCE_THREADS", str(threads))
        path = tmp_path / name
        emit_csv(run_experiment(cfg), path)
        return path.read_text().splitlines()

    a = run_to_csv(1, "one.csv")
    b = run_to_csv(4, "four.csv")
    # wall_ms is a timing diagnostic; every results column must match
    # byte for byte
    strip = [",".join(line.split(",")[:-1]) for line in a]
    stripb = [",".join(line.split(",")[:-1]) for line in b]
    ok = strip == stripb and len(a) == len(b) == 7
    report(10, ok, f"{len(a) - 1} records identical across 1 and 4 threads "
                   "(wall_ms column excluded)")
    assert strip == stripb
