"""Baseline and bound tests: explicit LS, DFT peak picking, the analytic
error bounds and the Fisher-information machinery."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from tsdce import analysis, bench
from tsdce.analysis import (
    _scan,
    crlb_nmse_bound,
    dft_peak_baseline,
    fisher_matrix,
    ordered_eigenvalue_mean,
    upper_bound_multi_path,
    upper_bound_single_path,
)
from tsdce.channel import PathParams, build_channel, sample_paths, wrap_phase
from tsdce.numkit import SeededRng, dft_columns, sample_complex_gaussian
from tsdce.observation import build_codebook, synthesize_observation, to_spatial
from oracles import (
    MarchenkoPastur,
    _channel_jacobian,
    beam_angle,
    iid_ordered_eigenvalue_mean,
    laguerre_ordered_means_tanhsinh,
    ls_estimate_explicit,
    mp_cdf,
    mp_density,
)


def spatial_ls(y, n_t=16, n_r=16):
    """The n_r x n_t spatial LS estimate every estimator takes."""
    return to_spatial(y, n_t, n_r)


def kron_ls_oracle(y, cb, n_t, n_r):
    """Explicit normal-equations LS through the materialized Kronecker
    system, the reference construction for the fast path."""
    big = np.kron(cb.f.T, cb.w.conj().T)
    y_vec = y.reshape(-1, order="F")
    h_vec = np.linalg.solve(big.conj().T @ big, big.conj().T @ y_vec)
    return h_vec.reshape((n_r, n_t), order="F")


def padded_dft_peak_oracle(y, L_d, n_dft, n_t, n_r):
    """DFT peak picking through the full zero-padded n_dft x n_dft 2D DFT
    of the crop, the reference construction for the blocked scan."""
    work = np.fft.ifft2(y)[:n_r, :n_t]
    m = np.arange(n_r)[:, None]
    n = np.arange(n_t)[None, :]
    estimates = []
    for _ in range(L_d):
        padded = np.zeros((n_dft, n_dft), dtype=complex)
        padded[:n_r, :n_t] = work
        spectrum = np.fft.fft2(padded)
        qi, pi_ = np.unravel_index(np.argmax(np.abs(spectrum)), spectrum.shape)
        omega_aoa = wrap_phase(2 * np.pi * qi / n_dft)
        omega_aod = wrap_phase(2 * np.pi * pi_ / n_dft)
        cisoid = np.exp(1j * (omega_aoa * m + omega_aod * n))
        a_hat = (work * cisoid.conj()).mean()
        gain = np.sqrt(n_t * n_r) * a_hat
        estimates.append(
            PathParams.from_freqs(abs(gain), np.angle(gain), omega_aod, omega_aoa)
        )
        work = work - a_hat * cisoid
    return estimates


def params_of(paths):
    """The (|a|, phase, w_aod, w_aoa) vector of ``paths``, path by path."""
    return np.ravel([(p.gain_magnitude, p.gain_phase, p.omega_aod, p.omega_aoa) for p in paths])


def channel_of_params(params, n_t, n_r):
    """H[m, n] = sum_l |a_l| exp(j(phase_l + w_aoa_l m + w_aod_l n)),
    written out path by path from the (|a|, phase, w_aod, w_aoa) vector."""
    mm, nn = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
    h = np.zeros((n_r, n_t), dtype=complex)
    for mag, phase, w_aod, w_aoa in np.reshape(params, (-1, 4)):
        h += mag * np.exp(1j * (phase + w_aoa * mm + w_aod * nn))
    return h


def stacked_jacobian_fd(params, n_t, n_r, step=1e-6):
    """Central finite differences of vec(H) with respect to each real
    parameter."""

    def h_vec(vec):
        return channel_of_params(vec, n_t, n_r).reshape(-1)

    cols = []
    for i in range(len(params)):
        hi = params.copy()
        lo = params.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((h_vec(hi) - h_vec(lo)) / (2 * step))
    return np.stack(cols, axis=1)


class TestLsEstimateExplicit:
    def test_noiseless_exact(self):
        cb = build_codebook(16, 16, 16, 16)
        h = build_channel(sample_paths(2, SeededRng(91)), 16, 16)
        y = synthesize_observation(h, cb, 0.0)
        assert np.allclose(ls_estimate_explicit(y, cb), h, atol=1e-9)

    def test_matches_kronecker_oracle(self):
        cb = build_codebook(32, 32, 16, 16)
        for t in range(5):
            rng = SeededRng(92).substream(t)
            h = build_channel(sample_paths(2, rng), 16, 16)
            y = synthesize_observation(h, cb, 0.5, rng)
            ref = kron_ls_oracle(y, cb, 16, 16)
            assert np.allclose(ls_estimate_explicit(y, cb), ref, atol=1e-9)

    def test_matches_spatial_route(self):
        cb = build_codebook(16, 16, 16, 16)
        for t in range(100):
            rng = SeededRng(93).substream(t)
            h = build_channel(sample_paths(3, rng), 16, 16)
            y = synthesize_observation(h, cb, 1.0, rng)
            assert np.allclose(ls_estimate_explicit(y, cb), spatial_ls(y), atol=1e-9)


class TestDftPeakBaseline:
    def test_on_grid_single_path(self):
        cb = build_codebook(16, 16, 16, 16)
        path = PathParams.from_gain_angles(0.9, beam_angle(cb, "tx", 3), beam_angle(cb, "rx", 5))
        y = synthesize_observation(build_channel([path], 16, 16), cb, 0.0)
        est = dft_peak_baseline(spatial_ls(y), 1, n_dft=1024)[0]
        assert abs(est.omega_aod - path.omega_aod) < 2 * np.pi / 1024
        assert abs(est.omega_aoa - path.omega_aoa) < 2 * np.pi / 1024

    def test_off_grid_half_bin_error(self):
        cb = build_codebook(16, 16, 16, 16)
        worst = 0.0
        for t in range(20):
            [path] = sample_paths(1, SeededRng(94).substream(t))
            y = synthesize_observation(build_channel([path], 16, 16), cb, 0.0)
            est = dft_peak_baseline(spatial_ls(y), 1, n_dft=1024)[0]
            # frequencies live on the circle: compare modulo 2*pi
            d1 = wrap_phase(est.omega_aod - path.omega_aod)
            d2 = wrap_phase(est.omega_aoa - path.omega_aoa)
            worst = max(worst, abs(d1), abs(d2))
        assert worst <= np.pi / 1024 + 1e-9

    def test_two_separated_paths(self):
        cb = build_codebook(16, 16, 16, 16)
        p1 = PathParams.from_gain_angles(0.9, 0.7, 2.4)
        p2 = PathParams.from_gain_angles(0.5 * np.exp(1j * 0.8), 2.2, 1.0)
        y = synthesize_observation(build_channel([p1, p2], 16, 16), cb, 1e-4, SeededRng(95))
        ests = dft_peak_baseline(spatial_ls(y), 2, n_dft=1024)
        got = sorted(e.gain_magnitude for e in ests)
        assert got[1] == pytest.approx(0.9, rel=0.1)
        assert got[0] == pytest.approx(0.5, rel=0.1)

    # n_dft = 32 lies below one block: the whole spectrum is a single block
    @pytest.mark.parametrize("n_dft", [1024, 32])
    def test_blocked_scan_matches_padded_reference(self, n_dft):
        cb = build_codebook(16, 16, 16, 16)
        for t in range(5):
            stream = SeededRng(96).substream(t)
            h = build_channel(sample_paths(3, stream), 16, 16)
            y = synthesize_observation(h, cb, 0.1, stream)
            got = dft_peak_baseline(spatial_ls(y), 3, n_dft=n_dft)
            ref = padded_dft_peak_oracle(y, 3, n_dft, 16, 16)
            for e, r in zip(got, ref):
                assert (e.omega_aod, e.omega_aoa) == pytest.approx(
                    (r.omega_aod, r.omega_aoa), abs=1e-12)
                assert e.gain == pytest.approx(r.gain, rel=1e-9)

    # 2 x 2 at n_dft = 1024 starts at c = 256, a 4 x 4 grid of cells; 32 x 32
    # and 64 x 64 start at c = 8 and c = 4
    @settings(max_examples=40, deadline=None)
    @example(shape=(2, 2), n_dft=1024, noise_only=False, L=2, seed=7)
    @example(shape=(2, 2), n_dft=1024, noise_only=True, L=1, seed=7)
    @example(shape=(32, 32), n_dft=1024, noise_only=False, L=3, seed=7)
    @example(shape=(64, 64), n_dft=1024, noise_only=False, L=3, seed=7)
    @example(shape=(64, 64), n_dft=1024, noise_only=True, L=2, seed=7)
    @given(
        shape=st.sampled_from([(16, 16), (8, 12), (12, 8), (4, 16), (2, 2)]),
        n_dft=st.sampled_from([32, 64, 256, 1024]),
        noise_only=st.booleans(),
        L=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_scan_matches_padded_reference(self, shape, n_dft, noise_only, L, seed):
        n_t, n_r = shape
        p, q = max(16, n_t), max(16, n_r)
        stream = SeededRng(seed)
        if noise_only:
            y = sample_complex_gaussian(stream, 1.0, (q, p))
        else:
            h = build_channel(sample_paths(L, stream), n_t, n_r)
            y = synthesize_observation(h, build_codebook(p, q, n_t, n_r), 1e-3, stream)
        got = dft_peak_baseline(spatial_ls(y, n_t, n_r), L, n_dft=n_dft)
        ref = padded_dft_peak_oracle(y, L, n_dft, n_t, n_r)

        def bins(e):
            return [round(w * n_dft / (2 * np.pi)) % n_dft for w in (e.omega_aod, e.omega_aoa)]

        for e, r in zip(got, ref):
            assert bins(e) == bins(r)
            assert e.gain == pytest.approx(r.gain, rel=1e-9)

    @staticmethod
    def on_bins(gain, p, q, n_dft=1024):
        """A 16 x 16 path whose spectrum peaks at AoD bin p, AoA bin q."""
        return PathParams.from_freqs(
            abs(gain), np.angle(gain),
            wrap_phase(2 * np.pi * p / n_dft), wrap_phase(2 * np.pi * q / n_dft),
        )

    def test_peak_between_coarse_samples_beats_one_on_them(self):
        # The first level (c = 16) reads the bins 16k + 8. The strong path
        # peaks eight bins from them in both frequencies, so its samples read
        # 0.950 of its peak; the weak path sits on a sample at 0.97. Only the
        # floor's margin keeps the strong path's cells.
        strong, weak = self.on_bins(1.0, 160, 400), self.on_bins(0.97j, 680, 120)
        h = build_channel([strong, weak], 16, 16)
        y = synthesize_observation(h, build_codebook(16, 16, 16, 16), 0.0)
        padded = np.zeros((1024, 1024), dtype=complex)
        padded[:16, :16] = spatial_ls(y)
        spectrum = np.abs(np.fft.fft2(padded))  # [AoA bin, AoD bin]
        coarse = spectrum[8::16, 8::16]
        assert np.unravel_index(np.argmax(coarse), coarse.shape) == (120 // 16, 680 // 16)
        assert np.unravel_index(np.argmax(spectrum), spectrum.shape) == (400, 160)
        est = dft_peak_baseline(spatial_ls(y), 1, n_dft=1024)[0]
        assert (est.omega_aod, est.omega_aoa) == pytest.approx(
            (strong.omega_aod, strong.omega_aoa), abs=1e-12)

    @staticmethod
    def levels(h_ls, n_dft=1024):
        """(c, AoD rows, AoA columns) of each level of the first path's scan."""
        (n_r, n_t), levels = h_ls.shape, []
        _scan(h_ls, dft_columns(n_dft, n_t), dft_columns(n_dft, n_r), levels)
        return levels

    def test_on_grid_path_scans_few_bins(self):
        h = build_channel([self.on_bins(0.9, 300, 700)], 16, 16)
        y = synthesize_observation(h, build_codebook(16, 16, 16, 16), 0.0)
        levels = self.levels(spatial_ls(y))
        # a 64 x 64 grid of cells of 16 x 16 bins, then the 4 x 4 kept cells'
        # bins: 8192 bins, against 1 048 576 for the whole spectrum
        assert [(c, len(rows), len(cols)) for c, rows, cols in levels] \
            == [(16, 64, 64), (1, 64, 64)]
        _, rows, cols = levels[-1]
        assert 300 in rows and 700 in cols
        est = dft_peak_baseline(spatial_ls(y), 1, n_dft=1024)[0]
        assert [round(w * 1024 / (2 * np.pi)) % 1024 for w in (est.omega_aod, est.omega_aoa)] \
            == [300, 700]

    # the spectrum is periodic: a peak at AoA bin 1 or 1022 is within nine
    # bins of the first level's samples at both ends (AoA bins 8 and 1016),
    # so the last level keeps columns at both ends, and few in all
    @pytest.mark.parametrize("q", [1, 1022])
    def test_peak_at_aoa_wrap_keeps_columns_at_both_ends(self, q):
        h = build_channel([self.on_bins(0.9, 300, q)], 16, 16)
        y = synthesize_observation(h, build_codebook(16, 16, 16, 16), 0.0)
        _, rows, cols = self.levels(spatial_ls(y))[-1]
        assert 300 in rows
        assert cols[0] == 0 and cols[-1] == 1023
        assert len(cols) <= 64
        est = dft_peak_baseline(spatial_ls(y), 1, n_dft=1024)[0]
        ref = padded_dft_peak_oracle(y, 1, 1024, 16, 16)[0]
        assert (est.omega_aod, est.omega_aoa) == (ref.omega_aod, ref.omega_aoa)
        assert [round(w * 1024 / (2 * np.pi)) % 1024 for w in (est.omega_aod, est.omega_aoa)] \
            == [300, q]

    def test_two_peaks_leave_two_empty_cells_in_the_rectangle(self):
        # Equal gains at (200, 800) and (700, 100): the last level's rows hold
        # AoD bins 200 and 700, its columns AoA bins 100 and 800, so its
        # rectangle also holds (200, 100) and (700, 800), where neither path
        # peaks.
        paths = [self.on_bins(0.8, 200, 800), self.on_bins(0.8j, 700, 100)]
        y = synthesize_observation(build_channel(paths, 16, 16), build_codebook(16, 16, 16, 16),
                                   1e-4, SeededRng(98))
        c, rows, cols = self.levels(spatial_ls(y))[-1]
        assert c == 1
        assert {200, 700} <= set(rows.tolist()) and {100, 800} <= set(cols.tolist())
        assert len(rows) < 1024 and len(cols) < 1024
        got = dft_peak_baseline(spatial_ls(y), 2, n_dft=1024)
        ref = padded_dft_peak_oracle(y, 2, 1024, 16, 16)
        for e, r in zip(got, ref):
            assert (e.omega_aod, e.omega_aoa) == (r.omega_aod, r.omega_aoa)
            assert e.gain == pytest.approx(r.gain, rel=1e-9)

    def test_coarse_step_of_512_matches_padded_reference(self):
        # 2 x 2 at n_dft = 2048: c = 512, so the first level is 4 x 4 cells
        y = synthesize_observation(build_channel(sample_paths(2, SeededRng(97)), 2, 2),
                                   build_codebook(16, 16, 2, 2), 1e-3, SeededRng(97))
        assert self.levels(spatial_ls(y, 2, 2), 2048)[0][0] == 512
        cb = build_codebook(16, 16, 2, 2)
        for t in range(3):
            stream = SeededRng(97).substream(t)
            h = build_channel(sample_paths(2, stream), 2, 2)
            y = synthesize_observation(h, cb, 1e-3, stream)
            got = dft_peak_baseline(spatial_ls(y, 2, 2), 1, n_dft=2048)[0]
            ref = padded_dft_peak_oracle(y, 1, 2048, 2, 2)[0]
            assert (got.omega_aod, got.omega_aoa) == (ref.omega_aod, ref.omega_aoa)
            assert got.gain == pytest.approx(ref.gain, rel=1e-9)

    def test_benchmark_sweep_scans_few_bins_per_path(self, monkeypatch):
        # The benchmark's sweep_dft_peak config (16 x 16, L = 3, seed 7, 8
        # trials per SNR). A path computes 7 235 bins on average there, over
        # every level; a bound or pruning rule that keeps far more rows or
        # columns would still pick the same bins, so only this count shows it.
        scanned = []

        def counting(residual, f_t, f_r):
            levels = []
            pick = scan(residual, f_t, f_r, levels)
            scanned.append(sum(len(rows) * len(cols) for _, rows, cols in levels))
            return pick

        scan = analysis._scan
        monkeypatch.setattr(analysis, "_scan", counting)
        bench.run_experiment(bench.ExperimentConfig(
            paths=3, trials=8, seed=7, methods=("dft_peak",), max_failure_rate=0))
        assert len(scanned) == 3 * 8 * 3
        assert np.mean(scanned) <= 11000

    # the first level's step: the largest power of two c with
    # (c + 1) kappa_1 <= 1.2, kappa_1 = (n - 1) pi / n_dft; 16 x 16 at
    # n_dft = 32 allows no c >= 2, so its one level is the exhaustive scan
    @pytest.mark.parametrize("n, n_dft, c", [(16, 1024, 16), (16, 32, 1), (64, 1024, 4)])
    def test_coarse_step(self, n, n_dft, c):
        levels = self.levels(sample_complex_gaussian(SeededRng(100), 1.0, (n, n)), n_dft)
        assert levels[0][0] == c and levels[-1][0] == 1
        assert len(levels[0][1]) == len(levels[0][2]) == n_dft // c

    # Step 4 of the bound in `dft_peak_baseline`, on the whole padded
    # spectrum: at every step c whose margin (c + 1) kappa_1 is below pi/2,
    # every bin tied with the maximum has a cell whose sample reads at least
    # max cos((c + 1) kappa_1). A floor set too high fails here even where
    # the picks happen to agree.
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(2, 2), (3, 5), (8, 8), (12, 4), (16, 16)]),
        n_dft=st.sampled_from([16, 32, 64, 256]),
        kind=st.sampled_from(["gains", "equal_pair", "corner", "noise"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cell_sample_reaches_the_floor(self, shape, n_dft, kind, seed):
        n_t, n_r = shape
        rng = np.random.default_rng(seed)
        if kind == "noise":
            x = rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
        else:
            count = {"gains": 3, "equal_pair": 2, "corner": 1}[kind]
            gains = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            if kind == "equal_pair":
                gains /= np.abs(gains)
            # AoA and AoD frequencies; at a corner, half a bin before the
            # first bin of a random cell of a random step, in both axes
            freqs = rng.uniform(-np.pi, np.pi, (count, 2))
            if kind == "corner":
                step = 2 ** rng.integers(1, n_dft.bit_length())
                freqs = 2 * np.pi * (step * rng.integers(0, n_dft // step, (1, 2)) - 0.5) / n_dft
            x = np.einsum("l,lm,ln->mn", gains,
                          np.exp(1j * freqs[:, :1] * np.arange(n_r)),
                          np.exp(1j * freqs[:, 1:] * np.arange(n_t)))
        spectrum = np.abs(np.fft.fft2(x, (n_dft, n_dft)))  # [AoA bin, AoD bin]
        top = spectrum.max()
        tied = np.argwhere(spectrum >= top * (1 - 1e-12))
        kappa_1 = np.pi / n_dft * (n_t + n_r - 2) / 2
        c = 2
        while c <= n_dft and (c + 1) * kappa_1 < np.pi / 2:
            samples = spectrum[tuple((tied // c * c + c // 2).T)]
            # 1e-12 for the FFT's rounding
            assert samples.min() >= top * np.cos((c + 1) * kappa_1) * (1 - 1e-12)
            c *= 2

    def test_zero_observation_picks_first_bin(self):
        # every bin ties at zero power, so the lowest flat index, (0, 0), wins
        y = np.zeros((16, 16), dtype=complex)
        got = dft_peak_baseline(spatial_ls(y), 2, n_dft=1024)
        ref = padded_dft_peak_oracle(y, 2, 1024, 16, 16)
        for e, r in zip(got, ref):
            assert (e.omega_aod, e.omega_aoa) == (r.omega_aod, r.omega_aoa) == (0.0, 0.0)
            assert e.gain == r.gain == 0

    @staticmethod
    def peak_bytes(h_ls):
        """Peak traced memory of one L = 3 dft_peak call at n_dft = 1024,
        after a first call has filled the process-wide DFT-column cache."""
        dft_peak_baseline(h_ls, 3, n_dft=1024)
        tracemalloc.start()
        try:
            dft_peak_baseline(h_ls, 3, n_dft=1024)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_full_spectrum_allocated(self):
        # the whole 1024 x 1024 complex spectrum alone would take 16 MB; the
        # levels of this call peak at 0.17 MB
        cb = build_codebook(16, 16, 16, 16)
        stream = SeededRng(99)
        h = build_channel(sample_paths(3, stream), 16, 16)
        assert self.peak_bytes(spatial_ls(synthesize_observation(h, cb, 0.1, stream))) \
            < 0.25 * 2**20

    def test_levels_stay_blocked_on_noise_at_64x64(self):
        # On noise the c = 4 level keeps almost every row and column, so the
        # c = 2 level covers about 500 x 500 bins: 6 MB formed whole, 3.3 MB
        # peak in blocks of _SCAN_BINS
        h_ls = sample_complex_gaussian(SeededRng(99), 1.0, (64, 64))
        assert self.levels(h_ls)[1][0] == 2
        assert self.peak_bytes(h_ls) < 4 * 2**20

    @pytest.mark.parametrize("n_dft", [1000, 8])
    def test_rejects_bad_n_dft(self, n_dft):
        with pytest.raises(ValueError, match="power of two"):
            dft_peak_baseline(spatial_ls(np.zeros((16, 16), dtype=complex)), 1, n_dft=n_dft)


class TestUpperBoundSinglePath:
    def test_values(self):
        assert upper_bound_single_path(1.0, 16, 16) == pytest.approx(64.0)
        assert upper_bound_single_path(10.0, 16, 16) == pytest.approx(6.4)

    def test_asymmetric(self):
        assert upper_bound_single_path(1.0, 4, 9) == pytest.approx(25.0)


class TestMarchenkoPastur:
    def test_edges(self):
        mp = MarchenkoPastur(sigma_z_sq=2.0, c=0.5)
        assert mp.a == pytest.approx(2.0 * (1 - np.sqrt(0.5)) ** 2)
        assert mp.b == pytest.approx(2.0 * (1 + np.sqrt(0.5)) ** 2)
        assert mp_density(mp, mp.a) == 0.0
        assert mp_density(mp, mp.b) == 0.0

    def test_density_normalization(self):
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        total, _ = integrate.quad(lambda x: mp_density(mp, x), mp.a, mp.b,
                                  limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_first_moment(self):
        # mean of the square-singular-value density is sigma_z^2 at c = 1
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        mean, _ = integrate.quad(lambda x: x * mp_density(mp, x), mp.a, mp.b,
                                 limit=200)
        assert mean == pytest.approx(1.0, abs=1e-4)

    def test_cdf_endpoints_and_monotone(self):
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        assert mp_cdf(mp, mp.a) == pytest.approx(0.0, abs=1e-12)
        assert mp_cdf(mp, mp.b) == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(mp.a, mp.b, 200)
        vals = mp_cdf(mp, xs)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_cdf_matches_quadrature(self):
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        for x in (0.5, 1.0, 2.5, 3.5):
            ref, _ = integrate.quad(lambda t: mp_density(mp, t), mp.a, x,
                                    limit=200)
            assert mp_cdf(mp, x) == pytest.approx(ref, abs=1e-7)


class TestOrderedEigenvalueMean:
    def test_monotone_in_rank(self):
        means = [ordered_eigenvalue_mean(l, 16, 16, 1.0) for l in range(1, 17)]
        assert np.all(np.diff(means) < 0)

    def test_sum_equals_trace_mean(self):
        # order statistics partition the sample: their means sum to
        # n_r times the distribution mean
        total = sum(ordered_eigenvalue_mean(l, 16, 16, 1.0) for l in range(1, 17))
        assert total == pytest.approx(16.0, rel=0.01)

    def test_matches_iid_order_statistics(self):
        # Monte Carlo oracle: sorted iid draws from the density itself
        # (via inverse-CDF sampling), matching the model being integrated
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        grid = np.linspace(mp.a + 1e-9, mp.b - 1e-9, 4001)
        cdf = np.asarray(mp_cdf(mp, grid))
        rng = SeededRng(96)
        u = rng.uniform(0.0, 1.0, size=(40000, 16))
        draws = np.interp(u, cdf, grid)
        emp = np.sort(draws, axis=1)[:, ::-1].mean(axis=0)
        for l in (1, 2, 5, 10, 16):
            assert iid_ordered_eigenvalue_mean(mp, l, 16) == pytest.approx(
                emp[l - 1], rel=0.02)

    @pytest.mark.parametrize("n_r, n_t", [(16, 16), (32, 32), (64, 64), (8, 16), (16, 64)])
    def test_exact_finite_n_identities(self, n_r, n_t):
        # the ordered means of any shape partition the trace mean
        # n_r * sigma^2, and the smallest eigenvalue of a square complex
        # Wishart matrix has mean sigma^2/n^2 (Edelman 1988)
        means = [ordered_eigenvalue_mean(l, n_r, n_t, 0.5) for l in range(1, n_r + 1)]
        assert sum(means) == pytest.approx(n_r * 0.5, rel=1e-12)
        if n_r == n_t:
            assert means[-1] == pytest.approx(0.5 / n_r**2, rel=1e-11)

    @pytest.mark.parametrize(
        "n_r, n_t", [(2, 2), (4, 16), (8, 12), (16, 16), (12, 32), (32, 32), (16, 64)])
    def test_matches_tanhsinh_oracle(self, n_r, n_t):
        # the oracle is itself converged to rtol 1e-12 only
        assert analysis._laguerre_ordered_means(n_r, n_t) == pytest.approx(
            laguerre_ordered_means_tanhsinh(n_r, n_t), rel=1e-11, abs=0)

    def test_table_memory_is_bounded(self):
        # all 2880 abscissae of 64 x 64 at once would hold 94 MB of Laguerre
        # functions and a 94 MB Gram stack; 256 at a time hold about 17 MB
        analysis._laguerre_ordered_means.cache_clear()
        tracemalloc.start()
        try:
            analysis._laguerre_ordered_means(64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_refusals(self):
        for l, n_r, n_t, sigma_z_sq in [(0, 16, 16, 1.0), (17, 16, 16, 1.0),
                                        (1, 16, 12, 1.0), (1, 16, 16, 0.0)]:
            with pytest.raises(ValueError):
                ordered_eigenvalue_mean(l, n_r, n_t, sigma_z_sq)

    def test_scales_with_noise_power(self):
        a = ordered_eigenvalue_mean(1, 16, 16, 1.0)
        b = ordered_eigenvalue_mean(1, 16, 16, 0.25)
        assert b == pytest.approx(0.25 * a, rel=1e-6)


class TestUpperBoundMultiPath:
    def test_monotone_in_paths(self):
        vals = [upper_bound_multi_path(L, 16, 16, 0.01) for L in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_single_path_tighter_than_gordon(self):
        # both bound the same SSE; the spectral-norm bound is looser
        sigma_z_sq = 1.0 / 256.0
        lemma4 = upper_bound_multi_path(1, 16, 16, sigma_z_sq)
        lemma3 = upper_bound_single_path(1.0, 16, 16)
        assert lemma4 <= lemma3

    def test_linear_in_noise_power(self):
        a = upper_bound_multi_path(2, 16, 16, 0.02)
        b = upper_bound_multi_path(2, 16, 16, 0.01)
        assert a == pytest.approx(2.0 * b, rel=1e-6)


class TestFisherMatrix:
    def test_jacobian_matches_finite_differences(self):
        params = params_of(sample_paths(3, SeededRng(97)))
        jac = _channel_jacobian(params, 16, 16)
        ref = stacked_jacobian_fd(params, 16, 16)
        assert np.max(np.abs(jac - ref)) / np.max(np.abs(ref)) < 1e-5

    def test_symmetric_psd(self):
        f = fisher_matrix(params_of(sample_paths(2, SeededRng(98))), 0.5, 16, 16)
        assert np.max(np.abs(f - f.T)) < 1e-10
        assert np.linalg.eigvalsh(f)[0] >= -1e-9 * np.trace(f)

    def test_zero_amplitude_path(self):
        f = fisher_matrix(np.array([0.0, 0.3, 0.5, -0.5]), 1.0, 8, 8)
        # phase/frequency information vanishes with the amplitude
        assert np.allclose(f[1:, :], 0.0)
        assert np.allclose(f[:, 1:], 0.0)
        assert f[0, 0] > 0

    @pytest.mark.parametrize("n_t, n_r", [(16, 16), (8, 12), (12, 8)])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_closed_form_matches_oracle_jacobian(self, L, n_t, n_r):
        params = params_of(sample_paths(L, SeededRng(123).substream(L)))
        assert fisher_rel_err(params, 0.3, n_t, n_r) < 1e-12

    def test_closed_form_matches_oracle_on_degenerate_channels(self):
        p, q = sample_paths(2, SeededRng(124))
        dead = PathParams.from_freqs(0.0, 0.4, 0.9, -1.3)
        for paths in (coincident_paths(125), [p, q, dead]):
            assert fisher_rel_err(params_of(paths), 0.3, 16, 16) < 1e-12

    @pytest.mark.parametrize("n_t, n_r", [(16, 16), (8, 12), (12, 8)])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_amplitude_block_gives_channel_energy(self, L, n_t, n_r):
        # ||H||^2 = |a|^T Re[J^H J]_{|a||a|} |a|, which crlb_nmse_bound reads off F
        paths = sample_paths(L, SeededRng(126).substream(L))
        params = params_of(paths)
        mag = params[0::4]
        energy = 0.3 / 2 * (mag @ fisher_matrix(params, 0.3, n_t, n_r)[0::4, 0::4] @ mag)
        expected = np.linalg.norm(build_channel(paths, n_t, n_r)) ** 2
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_frequency_crlb_antenna_trend(self):
        # single-sinusoid frequency variance falls roughly as 1/n^3
        variances = []
        for n in (8, 16, 32):
            f = fisher_matrix(np.array([1.0, 0.2, 0.7, -0.9]), 0.1, n, n)
            variances.append(np.linalg.inv(f)[2, 2])
        assert variances[0] > 6 * variances[1] > 36 * variances[2]


def fisher_rel_err(params, noise_var, n_t, n_r):
    """Largest deviation of `fisher_matrix` from (2/noise_var) Re[J^H J]
    of the oracle Jacobian, relative to that matrix's largest entry."""
    jac = _channel_jacobian(params, n_t, n_r)
    ref = (2.0 / noise_var) * np.real(jac.conj().T @ jac)
    return np.max(np.abs(fisher_matrix(params, noise_var, n_t, n_r) - ref)) / np.max(np.abs(ref))


def crlb_noise_var(sigma_z_sq):
    """Per-entry noise variance of the spatial LS estimate of a 16 x 16 H."""
    return 16 * 16 * sigma_z_sq


def channel_energy(paths, n_t=16, n_r=16):
    return np.linalg.norm(build_channel(paths, n_t, n_r)) ** 2


def crlb_trace_reference(paths, sigma_z_sq):
    """tr(J F+ J^H) / ||H||^2 of the 16 x 16 channel of ``paths`` from the
    Jacobian, with F+ the inverse of the Fisher matrix whose eigenvalues
    are floored at 1e-12 of the largest."""
    params = params_of(paths)
    vals, vecs = np.linalg.eigh(fisher_matrix(params, crlb_noise_var(sigma_z_sq), 16, 16))
    f_plus = (vecs / np.maximum(vals, 1e-12 * vals[-1])) @ vecs.T
    jac = _channel_jacobian(params, 16, 16)
    return np.trace(jac @ f_plus @ jac.conj().T).real / channel_energy(paths)


def coincident_paths(seed):
    """Two paths with the same frequencies but different gains, plus one
    other path, strongest first: the Fisher matrix loses two of its twelve
    ranks."""
    p, q = sample_paths(2, SeededRng(seed))
    twin = PathParams.from_freqs(0.5 * p.gain_magnitude, p.gain_phase + 1.0,
                                 p.omega_aod, p.omega_aoa)
    return sorted([p, q, twin], key=lambda x: x.gain_magnitude, reverse=True)


class TestCrlbNmseBound:
    def test_vanishing_noise_limit(self):
        ratio = crlb_nmse_bound(sample_paths(2, SeededRng(99)), 16, 16, 1e-18)
        assert ratio < 1e-12

    def test_decreases_with_snr(self):
        levels = []
        for snr_db in (0.0, 10.0, 20.0):
            sigma_z_sq = 10 ** (-snr_db / 10) / 256.0
            acc = 0.0
            for t in range(100):
                rng = SeededRng(101).substream(t)
                acc += crlb_nmse_bound(sample_paths(3, rng), 16, 16, sigma_z_sq)
            levels.append(10 * np.log10(acc / 100))
        assert levels[0] > levels[1] > levels[2]

    @pytest.mark.parametrize("seed", range(110, 115))
    def test_closed_form_equals_jacobian_trace(self, seed):
        paths = sample_paths(3, SeededRng(seed))
        sigma_z_sq = 0.1 / 256.0
        got = crlb_nmse_bound(paths, 16, 16, sigma_z_sq)
        assert got == pytest.approx(crlb_trace_reference(paths, sigma_z_sq), rel=1e-10)
        # full rank: 2 L noise_var, the trace of F^-1 F times noise_var / 2
        two_l_var = 6 * crlb_noise_var(sigma_z_sq) / channel_energy(paths)
        assert got == pytest.approx(two_l_var, rel=1e-10)

    def test_closed_form_on_coincident_paths(self):
        paths = coincident_paths(115)
        sigma_z_sq = 0.1 / 256.0
        got = crlb_nmse_bound(paths, 16, 16, sigma_z_sq)
        # pseudo-inverse CRLB: rank 10 of 12, so 5 noise_var. The two lost
        # eigenvalues are rounding noise near 1e-17 of the largest; each
        # adds its ratio to the 1e-12 floor, about 1e-5, on either side
        rank_var = 5 * crlb_noise_var(sigma_z_sq) / channel_energy(paths)
        assert got == pytest.approx(rank_var, rel=1e-4)
        assert got == pytest.approx(crlb_trace_reference(paths, sigma_z_sq), rel=1e-4)

    def test_closed_form_with_zero_amplitude_path(self):
        p, q = sample_paths(2, SeededRng(116))
        dead = PathParams.from_freqs(0.0, 0.4, 0.9, -1.3)
        paths = [p, q, dead]
        sigma_z_sq = 0.1 / 256.0
        got = crlb_nmse_bound(paths, 16, 16, sigma_z_sq)
        # the dead path's phase and frequencies carry no information
        assert got == pytest.approx(crlb_trace_reference(paths, sigma_z_sq), rel=1e-10)
        rank_var = 4.5 * crlb_noise_var(sigma_z_sq) / channel_energy(paths)
        assert got == pytest.approx(rank_var, rel=1e-10)

    def test_matches_full_covariance_draw_at_30db(self):
        paths = sample_paths(3, SeededRng(117))
        h = build_channel(paths, 16, 16)
        sigma_z_sq = 1e-3 / 256.0
        params = params_of(paths)
        f = fisher_matrix(params, crlb_noise_var(sigma_z_sq), 16, 16)
        chol = np.linalg.cholesky(np.linalg.inv(f))
        draws = params + SeededRng(118).normal(1.0, size=(4000, 12)) @ chol.T
        errors = [np.linalg.norm(channel_of_params(d, 16, 16) - h) ** 2 for d in draws]
        ratios = np.array(errors) / np.linalg.norm(h) ** 2
        # linearized, each draw is (noise_var / 2) chi^2 with 12 degrees of
        # freedom, relative sd 1/sqrt(6); the mean of 4000 has 0.65%, so 3%
        # is over 4 standard errors
        bound = crlb_nmse_bound(paths, 16, 16, sigma_z_sq)
        assert np.mean(ratios) == pytest.approx(bound, rel=0.03)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_full_rank_closed_form(self, L):
        # 2 L n_t n_r sigma_z^2 / ||H||^2, here on n_r > n_t
        paths = sample_paths(L, SeededRng(121).substream(L))
        sigma_z_sq = 0.03
        expected = 2 * L * 8 * 12 * sigma_z_sq / channel_energy(paths, 8, 12)
        got = crlb_nmse_bound(paths, 8, 12, sigma_z_sq)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_needs_no_eigenvalue_means(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the CRLB called ordered_eigenvalue_mean")

        monkeypatch.setattr(analysis, "ordered_eigenvalue_mean", refuse)
        assert np.isfinite(crlb_nmse_bound(sample_paths(3, SeededRng(122)), 16, 16, 0.01))

    def test_deterministic_per_channel(self):
        args = (sample_paths(3, SeededRng(119)), 16, 16, 0.01)
        assert crlb_nmse_bound(*args) == crlb_nmse_bound(*args)

    def test_zero_norm_channel_raises(self):
        dead = [PathParams.from_freqs(0.0, 0.4, 0.9, -1.3), PathParams.from_freqs(0.0, 0, -2, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero norm"):
                crlb_nmse_bound(dead, 16, 16, 0.01)

    def test_degenerate_fisher_matrix_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = crlb_nmse_bound(coincident_paths(120), 16, 16, 0.01)
        assert np.isfinite(ratio) and ratio > 0
