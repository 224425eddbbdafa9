"""Baseline and bound tests: explicit LS, DFT peak picking, the analytic
error bounds and the Fisher-information machinery."""

import warnings

import numpy as np
import pytest
from scipy import integrate

from tsdce.analysis import (
    FisherModel,
    MarchenkoPastur,
    crlb_nmse_bound,
    dft_peak_baseline,
    fisher_matrix,
    iid_ordered_eigenvalue_mean,
    ls_estimate_explicit,
    mp_cdf,
    mp_density,
    ordered_eigenvalue_mean,
    upper_bound_multi_path,
    upper_bound_single_path,
)
from tsdce.channel import PathParams, build_channel, sample_paths
from tsdce.numkit import SeededRng, dft2d
from tsdce.observation import (
    build_codebook,
    spatial_ls_estimate,
    synthesize_observation,
    to_spatial,
    wrap,
)


def kron_ls_oracle(obs, cb, n_t, n_r):
    """Explicit normal-equations LS through the materialized Kronecker
    system, the reference construction for the fast path."""
    big = np.kron(cb.f.T, cb.w.conj().T)
    y = obs.y.reshape(-1, order="F")
    h_vec = np.linalg.solve(big.conj().T @ big, big.conj().T @ y) / np.sqrt(obs.rho)
    return h_vec.reshape((n_r, n_t), order="F")


def padded_dft_peak_oracle(obs, L_d, n_dft, n_t, n_r):
    """DFT peak picking through the full zero-padded n_dft x n_dft 2D DFT
    of the crop, the reference construction for the pruned transform."""
    work = to_spatial(obs, n_t, n_r).d_bar.copy()
    m = np.arange(n_r)[:, None]
    n = np.arange(n_t)[None, :]
    estimates = []
    for _ in range(L_d):
        padded = np.zeros((n_dft, n_dft), dtype=complex)
        padded[:n_r, :n_t] = work
        spectrum = dft2d(padded)
        qi, pi_ = np.unravel_index(np.argmax(np.abs(spectrum)), spectrum.shape)
        omega_aoa = wrap(2 * np.pi * qi / n_dft, -np.pi, np.pi)
        omega_aod = wrap(2 * np.pi * pi_ / n_dft, -np.pi, np.pi)
        cisoid = np.exp(1j * (omega_aoa * m + omega_aod * n))
        a_hat = (work * cisoid.conj()).mean() / np.sqrt(obs.rho)
        gain = np.sqrt(n_t * n_r) * a_hat
        estimates.append(
            PathParams.from_freqs(abs(gain), np.angle(gain), omega_aod, omega_aoa)
        )
        work = work - np.sqrt(obs.rho) * a_hat * cisoid
    return estimates


def model_from_channel(ch, noise_var):
    params = []
    for p in ch.paths:
        params.extend([p.gain_magnitude, p.gain_phase, p.omega_aod, p.omega_aoa])
    return FisherModel(np.array(params), noise_var, ch.n_t, ch.n_r)


def channel_of_params(params, n_t, n_r):
    """H[m, n] = sum_l |a_l| exp(j(phase_l + w_aoa_l m + w_aod_l n)),
    written out path by path from the (|a|, phase, w_aod, w_aoa) vector."""
    mm, nn = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
    h = np.zeros((n_r, n_t), dtype=complex)
    for mag, phase, w_aod, w_aoa in np.reshape(params, (-1, 4)):
        h += mag * np.exp(1j * (phase + w_aoa * mm + w_aod * nn))
    return h


def stacked_jacobian_fd(model, step=1e-6):
    """Central finite differences of vec(H) with respect to each real
    parameter."""

    def h_vec(params):
        return channel_of_params(params, model.n_t, model.n_r).reshape(-1)

    cols = []
    for i in range(len(model.params)):
        hi = model.params.copy()
        lo = model.params.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((h_vec(hi) - h_vec(lo)) / (2 * step))
    return np.stack(cols, axis=1)


class TestLsEstimateExplicit:
    def test_noiseless_exact(self):
        cb = build_codebook(16, 16, 16, 16)
        ch = build_channel(sample_paths(2, SeededRng(91)), 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.0)
        assert np.allclose(ls_estimate_explicit(obs, cb), ch.h, atol=1e-9)

    def test_matches_kronecker_oracle(self):
        cb = build_codebook(32, 32, 16, 16)
        for t in range(5):
            rng = SeededRng(92).substream(t)
            ch = build_channel(sample_paths(2, rng), 16, 16)
            obs = synthesize_observation(ch, cb, 1.0, 0.5, rng)
            ref = kron_ls_oracle(obs, cb, 16, 16)
            assert np.allclose(ls_estimate_explicit(obs, cb), ref, atol=1e-9)

    def test_matches_spatial_route(self):
        cb = build_codebook(16, 16, 16, 16)
        for t in range(100):
            rng = SeededRng(93).substream(t)
            ch = build_channel(sample_paths(3, rng), 16, 16)
            obs = synthesize_observation(ch, cb, 1.0, 1.0, rng)
            fast = spatial_ls_estimate(to_spatial(obs, 16, 16), 1.0)
            assert np.allclose(ls_estimate_explicit(obs, cb), fast, atol=1e-9)


class TestDftPeakBaseline:
    def test_on_grid_single_path(self):
        cb = build_codebook(16, 16, 16, 16)
        aod = np.arccos(cb.tx_cosines[3])
        aoa = np.arccos(cb.rx_cosines[5])
        ch = build_channel([PathParams.from_gain_angles(0.9, aod, aoa)], 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.0)
        est = dft_peak_baseline(obs, 1, n_dft=1024, n_t=16, n_r=16)[0]
        assert abs(est.omega_aod - ch.paths[0].omega_aod) < 2 * np.pi / 1024
        assert abs(est.omega_aoa - ch.paths[0].omega_aoa) < 2 * np.pi / 1024

    def test_off_grid_half_bin_error(self):
        cb = build_codebook(16, 16, 16, 16)
        worst = 0.0
        for t in range(20):
            ch = build_channel(sample_paths(1, SeededRng(94).substream(t)), 16, 16)
            obs = synthesize_observation(ch, cb, 1.0, 0.0)
            est = dft_peak_baseline(obs, 1, n_dft=1024, n_t=16, n_r=16)[0]
            # frequencies live on the circle: compare modulo 2*pi
            d1 = wrap(est.omega_aod - ch.paths[0].omega_aod, -np.pi, np.pi)
            d2 = wrap(est.omega_aoa - ch.paths[0].omega_aoa, -np.pi, np.pi)
            worst = max(worst, abs(d1), abs(d2))
        assert worst <= np.pi / 1024 + 1e-9

    def test_two_separated_paths(self):
        cb = build_codebook(16, 16, 16, 16)
        p1 = PathParams.from_gain_angles(0.9, 0.7, 2.4)
        p2 = PathParams.from_gain_angles(0.5 * np.exp(1j * 0.8), 2.2, 1.0)
        ch = build_channel([p1, p2], 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 1e-4, SeededRng(95))
        ests = dft_peak_baseline(obs, 2, n_dft=1024, n_t=16, n_r=16)
        got = sorted(e.gain_magnitude for e in ests)
        assert got[1] == pytest.approx(0.9, rel=0.1)
        assert got[0] == pytest.approx(0.5, rel=0.1)

    def test_pruned_fft_matches_padded_reference(self):
        cb = build_codebook(16, 16, 16, 16)
        for t in range(5):
            stream = SeededRng(96).substream(t)
            ch = build_channel(sample_paths(3, stream), 16, 16)
            obs = synthesize_observation(ch, cb, 1.0, 0.1, stream)
            got = dft_peak_baseline(obs, 3, n_dft=1024, n_t=16, n_r=16)
            ref = padded_dft_peak_oracle(obs, 3, 1024, 16, 16)
            for e, r in zip(got, ref):
                assert (e.omega_aod, e.omega_aoa) == pytest.approx(
                    (r.omega_aod, r.omega_aoa), abs=1e-12)
                assert e.gain == pytest.approx(r.gain, rel=1e-9)

    def test_estimates_independent_of_workers(self):
        cb = build_codebook(16, 16, 16, 16)
        stream = SeededRng(97)
        ch = build_channel(sample_paths(3, stream), 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.1, stream)
        one = dft_peak_baseline(obs, 3, n_dft=1024, n_t=16, n_r=16, workers=1)
        four = dft_peak_baseline(obs, 3, n_dft=1024, n_t=16, n_r=16, workers=4)
        assert one == four


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
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        means = [ordered_eigenvalue_mean(mp, l, 16) for l in range(1, 17)]
        assert np.all(np.diff(means) < 0)

    def test_sum_equals_trace_mean(self):
        # order statistics partition the sample: their means sum to
        # n_r times the distribution mean
        mp = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        total = sum(ordered_eigenvalue_mean(mp, l, 16) for l in range(1, 17))
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

    def test_exact_finite_n_identities_and_refusals(self):
        # the smallest eigenvalue of a square complex Wishart matrix has
        # mean sigma^2/n^2 (Edelman 1988), and the ordered means of any
        # shape partition the trace mean n_r * sigma^2
        square = MarchenkoPastur(sigma_z_sq=0.5, c=1.0)
        assert ordered_eigenvalue_mean(square, 16, 16) == pytest.approx(
            0.5 / 256, rel=1e-10)
        half = MarchenkoPastur(sigma_z_sq=0.5, c=0.5)
        total = sum(ordered_eigenvalue_mean(half, l, 8) for l in range(1, 9))
        assert total == pytest.approx(8 * 0.5, rel=1e-10)
        with pytest.raises(ValueError):
            ordered_eigenvalue_mean(MarchenkoPastur(sigma_z_sq=1.0, c=0.7), 1, 16)
        with pytest.raises(ValueError):
            ordered_eigenvalue_mean(square, 0, 16)
        with pytest.raises(ValueError):
            ordered_eigenvalue_mean(square, 17, 16)

    def test_scales_with_noise_power(self):
        mp1 = MarchenkoPastur(sigma_z_sq=1.0, c=1.0)
        mp2 = MarchenkoPastur(sigma_z_sq=0.25, c=1.0)
        a = ordered_eigenvalue_mean(mp1, 1, 16)
        b = ordered_eigenvalue_mean(mp2, 1, 16)
        assert b == pytest.approx(0.25 * a, rel=1e-6)


class TestUpperBoundMultiPath:
    def test_monotone_in_paths(self):
        vals = [upper_bound_multi_path(L, 1.0, 16, 16, 0.01) for L in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_single_path_tighter_than_gordon(self):
        # both bound the same SSE; the spectral-norm bound is looser
        sigma_z_sq = 1.0 / 256.0
        lemma4 = upper_bound_multi_path(1, 1.0, 16, 16, sigma_z_sq)
        lemma3 = upper_bound_single_path(1.0, 16, 16)
        assert lemma4 <= lemma3

    def test_linear_in_noise_power(self):
        a = upper_bound_multi_path(2, 1.0, 16, 16, 0.02)
        b = upper_bound_multi_path(2, 1.0, 16, 16, 0.01)
        assert a == pytest.approx(2.0 * b, rel=1e-6)


class TestFisherMatrix:
    def test_jacobian_matches_finite_differences(self):
        from tsdce.analysis import _channel_jacobian
        ch = build_channel(sample_paths(3, SeededRng(97)), 16, 16)
        model = model_from_channel(ch, 0.1)
        jac = _channel_jacobian(model)
        ref = stacked_jacobian_fd(model)
        assert np.max(np.abs(jac - ref)) / np.max(np.abs(ref)) < 1e-5

    def test_symmetric_psd(self):
        ch = build_channel(sample_paths(2, SeededRng(98)), 16, 16)
        f = fisher_matrix(model_from_channel(ch, 0.5))
        assert np.max(np.abs(f - f.T)) < 1e-10
        assert np.linalg.eigvalsh(f)[0] >= -1e-9 * np.trace(f)

    def test_zero_amplitude_path(self):
        model = FisherModel(np.array([0.0, 0.3, 0.5, -0.5]), 1.0, 8, 8)
        f = fisher_matrix(model)
        # phase/frequency information vanishes with the amplitude
        assert np.allclose(f[1:, :], 0.0)
        assert np.allclose(f[:, 1:], 0.0)
        assert f[0, 0] > 0

    def test_frequency_crlb_antenna_trend(self):
        # single-sinusoid frequency variance falls roughly as 1/n^3
        variances = []
        for n in (8, 16, 32):
            model = FisherModel(np.array([1.0, 0.2, 0.7, -0.9]), 0.1, n, n)
            variances.append(np.linalg.inv(fisher_matrix(model))[2, 2])
        assert variances[0] > 6 * variances[1] > 36 * variances[2]


def crlb_noise_var(ch, rho, sigma_z_sq):
    """n_t / rho times the sum of the L largest noise-eigenvalue means."""
    mp = MarchenkoPastur(sigma_z_sq=sigma_z_sq, c=ch.n_r / ch.n_t)
    means = [ordered_eigenvalue_mean(mp, l, ch.n_r) for l in range(1, len(ch.paths) + 1)]
    return ch.n_t / rho * sum(means)


def crlb_trace_reference(ch, rho, sigma_z_sq):
    """tr(J F+ J^H) / ||H||^2 from the Jacobian, with F+ the inverse of
    the Fisher matrix whose eigenvalues are floored at 1e-12 of the
    largest."""
    from tsdce.analysis import _channel_jacobian
    model = model_from_channel(ch, crlb_noise_var(ch, rho, sigma_z_sq))
    vals, vecs = np.linalg.eigh(fisher_matrix(model))
    f_plus = (vecs / np.maximum(vals, 1e-12 * vals[-1])) @ vecs.T
    jac = _channel_jacobian(model)
    return np.trace(jac @ f_plus @ jac.conj().T).real / np.linalg.norm(ch.h) ** 2


def coincident_paths_channel(seed):
    """Two paths with the same frequencies but different gains, plus one
    other path: the Fisher matrix loses two of its twelve ranks."""
    p, q = sample_paths(2, SeededRng(seed))
    twin = PathParams.from_freqs(0.5 * p.gain_magnitude, p.gain_phase + 1.0,
                                 p.omega_aod, p.omega_aoa)
    return build_channel([p, q, twin], 16, 16)


class TestCrlbNmseBound:
    def test_vanishing_noise_limit(self):
        ch = build_channel(sample_paths(2, SeededRng(99)), 16, 16)
        ratio = crlb_nmse_bound(ch, 1.0, 1e-18)
        assert ratio < 1e-12

    def test_decreases_with_snr(self):
        levels = []
        for snr_db in (0.0, 10.0, 20.0):
            sigma_z_sq = 10 ** (-snr_db / 10) / 256.0
            acc = 0.0
            for t in range(100):
                rng = SeededRng(101).substream(t)
                ch = build_channel(sample_paths(3, rng), 16, 16)
                acc += crlb_nmse_bound(ch, 1.0, sigma_z_sq)
            levels.append(10 * np.log10(acc / 100))
        assert levels[0] > levels[1] > levels[2]

    @pytest.mark.parametrize("seed", range(110, 115))
    def test_closed_form_equals_jacobian_trace(self, seed):
        ch = build_channel(sample_paths(3, SeededRng(seed)), 16, 16)
        sigma_z_sq = 0.1 / 256.0
        got = crlb_nmse_bound(ch, 1.0, sigma_z_sq)
        assert got == pytest.approx(crlb_trace_reference(ch, 1.0, sigma_z_sq), rel=1e-10)
        # full rank: 2 L noise_var, the trace of F^-1 F times noise_var / 2
        two_l_var = 6 * crlb_noise_var(ch, 1.0, sigma_z_sq) / np.linalg.norm(ch.h) ** 2
        assert got == pytest.approx(two_l_var, rel=1e-10)

    def test_closed_form_on_coincident_paths(self):
        ch = coincident_paths_channel(115)
        sigma_z_sq = 0.1 / 256.0
        got = crlb_nmse_bound(ch, 1.0, sigma_z_sq)
        # pseudo-inverse CRLB: rank 10 of 12, so 5 noise_var. The two lost
        # eigenvalues are rounding noise near 1e-17 of the largest; each
        # adds its ratio to the 1e-12 floor, about 1e-5, on either side
        rank_var = 5 * crlb_noise_var(ch, 1.0, sigma_z_sq) / np.linalg.norm(ch.h) ** 2
        assert got == pytest.approx(rank_var, rel=1e-4)
        assert got == pytest.approx(crlb_trace_reference(ch, 1.0, sigma_z_sq), rel=1e-4)

    def test_closed_form_with_zero_amplitude_path(self):
        p, q = sample_paths(2, SeededRng(116))
        dead = PathParams.from_freqs(0.0, 0.4, 0.9, -1.3)
        ch = build_channel([p, q, dead], 16, 16)
        sigma_z_sq = 0.1 / 256.0
        got = crlb_nmse_bound(ch, 1.0, sigma_z_sq)
        # the dead path's phase and frequencies carry no information
        assert got == pytest.approx(crlb_trace_reference(ch, 1.0, sigma_z_sq), rel=1e-10)
        rank_var = 4.5 * crlb_noise_var(ch, 1.0, sigma_z_sq) / np.linalg.norm(ch.h) ** 2
        assert got == pytest.approx(rank_var, rel=1e-10)

    def test_matches_full_covariance_draw_at_30db(self):
        ch = build_channel(sample_paths(3, SeededRng(117)), 16, 16)
        sigma_z_sq = 1e-3 / 256.0
        model = model_from_channel(ch, crlb_noise_var(ch, 1.0, sigma_z_sq))
        chol = np.linalg.cholesky(np.linalg.inv(fisher_matrix(model)))
        draws = model.params + SeededRng(118).normal(1.0, size=(4000, 12)) @ chol.T
        errors = [np.linalg.norm(channel_of_params(d, 16, 16) - ch.h) ** 2 for d in draws]
        ratios = np.array(errors) / np.linalg.norm(ch.h) ** 2
        # linearized, each draw is (noise_var / 2) chi^2 with 12 degrees of
        # freedom, relative sd 1/sqrt(6); the mean of 4000 has 0.65%, so 3%
        # is over 4 standard errors
        assert np.mean(ratios) == pytest.approx(crlb_nmse_bound(ch, 1.0, sigma_z_sq), rel=0.03)

    def test_deterministic_per_channel(self):
        ch = build_channel(sample_paths(3, SeededRng(119)), 16, 16)
        assert crlb_nmse_bound(ch, 1.0, 0.01) == crlb_nmse_bound(ch, 1.0, 0.01)

    def test_degenerate_fisher_matrix_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = crlb_nmse_bound(coincident_paths_channel(120), 1.0, 0.01)
        assert np.isfinite(ratio) and ratio > 0
