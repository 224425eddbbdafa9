"""Estimator pipeline tests: rank-one extraction, ACF phase processing,
WLS frequency fitting, gain estimation and the full cancellation loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdce.algorithm import (
    PathEstimate,
    TsdceConfig,
    UndefinedPhaseError,
    _estimate_component,
    _slope_weights,
    estimate_amplitude,
    estimate_gain_phase,
    extract_rank_one,
    phase_differences,
    reconstruct_channel,
    reconstruct_path,
    run,
    select_wrap_branch,
    wls_slope,
    wls_weights,
)
from tsdce.channel import PathParams, build_channel, sample_paths
from tsdce.numkit import SeededRng, acf2d_unbiased
from tsdce.observation import build_codebook, synthesize_observation, wrap


def cisoid(n_r, n_t, w_row, w_col, amp=1.0, phase=0.0):
    mm, nn = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
    return amp * np.exp(1j * (phase + w_row * mm + w_col * nn))


def wls_slope_oracle(phases, weights):
    """Closed-form 2x2 weighted normal equations for a line fit."""
    i = np.arange(len(phases), dtype=float)
    a = np.stack([i, np.ones_like(i)], axis=1)
    wa = a * weights[:, None]
    slope, _ = np.linalg.solve(a.T @ wa, wa.T @ phases)
    return slope


def acf2d_oracle(m):
    """Unbiased 2D ACF through a zero-padded FFT (linear correlation)."""
    nr, nt = m.shape
    spec = np.fft.fft2(m, s=(2 * nr, 2 * nt))
    corr = np.fft.ifft2(spec.conj() * spec)[:nr, :nt]
    kappa = (nr - np.arange(nr))[:, None] * (nt - np.arange(nt))[None, :]
    r = corr / kappa
    r[0, 0] = r[0, 0].real
    return r


def select_wrap_branch_oracle(delta):
    """The branch with the smaller sample variance; ties keep delta."""
    wrapped = np.mod(delta, 2.0 * np.pi)
    return wrapped if np.var(wrapped) < np.var(delta) else delta


def estimate_component_oracle(d_tilde, rho):
    """Single-path estimate step by step, with every formula written out:
    FFT ACF, np.var branch test, cumsum unwrapping, normal-equation slope,
    kappa-weighted amplitude and the elementwise derotated mean."""
    n_r, n_t = d_tilde.shape
    r = acf2d_oracle(d_tilde)

    def frequency(seq):
        delta = np.zeros(len(seq))
        delta[1:] = np.angle(seq[1:] * np.conj(seq[:-1]))
        delta = select_wrap_branch_oracle(delta)
        slope = wls_slope_oracle(np.cumsum(delta), wls_weights(len(seq)))
        return wrap(slope, -np.pi, np.pi)

    w_aoa, w_aod = frequency(r[:, 0]), frequency(r[0, :])
    kappa = (n_r - np.arange(n_r))[:, None] * (n_t - np.arange(n_t))[None, :]
    norm = 0.25 * n_r * (n_r + 1) * n_t * (n_t + 1) - n_t * n_r
    acc = np.sum(kappa * np.abs(r)) - kappa[0, 0] * np.abs(r[0, 0])
    mag = np.sqrt(n_t * n_r) * np.sqrt(acc / (rho * norm))
    m = np.arange(n_r)[:, None]
    n = np.arange(n_t)[None, :]
    mean = np.mean(d_tilde * np.exp(-1j * (w_aoa * m + w_aod * n))) / np.sqrt(rho)
    return mag * np.exp(1j * np.angle(mean)), w_aod, w_aoa


class TestEstimateComponentOracle:
    @pytest.mark.parametrize("n_r, n_t", [(16, 16), (8, 12)])
    def test_matches_oracle_on_noisy_components(self, n_r, n_t):
        rho = 2.0
        cases = 0
        for t in range(60):
            rng = SeededRng(90).substream(t)
            w_row, w_col = rng.uniform(-np.pi, np.pi, size=2)
            amp = rng.uniform(0.2, 1.0) / np.sqrt(n_t * n_r)
            noise_std = 10.0 ** rng.uniform(-3.0, -0.5) / np.sqrt(n_t * n_r)
            noise = rng.normal(1.0, size=(n_r, n_t)) + 1j * rng.normal(1.0, size=(n_r, n_t))
            d = np.sqrt(rho) * cisoid(n_r, n_t, w_row, w_col, amp=amp, phase=rng.uniform(-3, 3))
            d = d + noise_std * noise
            if t % 2:
                d = extract_rank_one(d)
            gain, w_aod, w_aoa = estimate_component_oracle(d, rho)
            est = _estimate_component(d, rho, n_t, n_r)
            assert est.omega_aoa == pytest.approx(w_aoa, abs=1e-10)
            assert est.omega_aod == pytest.approx(w_aod, abs=1e-10)
            assert abs(est.gain - gain) <= 1e-9 * abs(gain)
            cases += 1
        assert cases >= 50


class TestExtractRankOne:
    def test_idempotent_on_rank_one(self):
        m = 1.7 * cisoid(8, 8, 0.9, -1.2, phase=0.4)
        assert np.allclose(extract_rank_one(m), m, atol=1e-10 * np.linalg.norm(m))

    def test_orthogonal_cisoids_keep_strongest(self):
        # on-grid frequencies a DFT bin apart give orthogonal rank-one
        # terms, so the dominant one is recovered exactly
        n = 8
        strong = 2.0 * cisoid(n, n, 2 * np.pi * 2 / n, 2 * np.pi * 5 / n)
        weak = 0.5 * cisoid(n, n, 2 * np.pi * 5 / n, 2 * np.pi * 1 / n)
        out = extract_rank_one(strong + weak)
        assert np.allclose(out, strong, atol=1e-9)

    def test_zero_matrix(self):
        out = extract_rank_one(np.zeros((5, 5), dtype=complex))
        assert np.allclose(out, 0.0)


class TestPhaseDifferences:
    def test_constant_slope(self):
        r = acf2d_unbiased(cisoid(6, 6, 0.5, 0.2))
        d = phase_differences(r, "col0")
        assert d[0] == 0.0
        assert np.allclose(d[1:], 0.5, atol=1e-10)

    def test_dc(self):
        r = acf2d_unbiased(cisoid(6, 6, 0.0, 0.0))
        assert np.allclose(phase_differences(r, "col0"), 0.0, atol=1e-12)

    def test_near_pi_principal_value(self):
        r = acf2d_unbiased(cisoid(6, 6, 3.0, 0.0))
        d = phase_differences(r, "col0")
        assert np.allclose(d[1:], 3.0, atol=1e-10)

    def test_axes_select_rows_and_columns(self):
        r = acf2d_unbiased(cisoid(5, 7, 0.4, -0.7))
        assert len(phase_differences(r, "col0")) == 5
        assert len(phase_differences(r, "row0")) == 7
        assert np.allclose(phase_differences(r, "row0")[1:], -0.7, atol=1e-10)


class TestSelectWrapBranch:
    def test_no_wrap_needed(self):
        d = np.array([0.0, 0.5, 0.5])
        assert np.allclose(select_wrap_branch(d), d)

    def test_sign_flips_near_pi_wrap(self):
        # alternating signs near pi have huge variance unless wrapped
        d = np.array([0.0, 3.1, -3.1, 3.1])
        out = select_wrap_branch(d)
        wrapped = np.mod(d, 2 * np.pi)
        assert np.var(wrapped) < np.var(d)
        assert np.allclose(out, wrapped)
        # the artificial leading zero stays put
        assert out[0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=2, max_size=20))
    def test_matches_variance_comparison(self, vals):
        d = np.array(vals)
        expected = select_wrap_branch_oracle(d)
        out = select_wrap_branch(d)
        # the two tests of the variance gap differ only by rounding, so a
        # near-tie may go either way
        wrapped = np.mod(d, 2 * np.pi)
        if abs(np.var(wrapped) - np.var(d)) > 1e-9 * (1.0 + np.var(d)):
            assert np.array_equal(out, expected)

    def test_all_negative_is_a_tie(self):
        d = np.array([-0.5, -0.2, -0.9])
        assert np.array_equal(select_wrap_branch(d), d)

    def test_constant_sequence_kept(self):
        d = np.full(5, 0.7)
        assert np.allclose(select_wrap_branch(d), d)


class TestUnwrapCumsum:
    """The phases are unwrapped by a cumulative sum of the differences;
    the estimator folds that sum into the slope weights g_M."""

    def test_basic(self):
        d = np.array([0.0, 0.5, 0.5])
        assert _slope_weights(3) @ d == pytest.approx(
            wls_slope(np.array([0.0, 0.5, 1.0]), wls_weights(3)), abs=1e-15)

    def test_zeros(self):
        assert _slope_weights(4) @ np.zeros(4) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=20))
    def test_matches_prefix_sum(self, vals):
        d = np.array(vals)
        ref = [sum(vals[: i + 1]) for i in range(len(vals))]
        expected = wls_slope_oracle(np.array(ref), wls_weights(len(vals)))
        assert _slope_weights(len(vals)) @ d == pytest.approx(expected, abs=1e-9)

    def test_cached_read_only(self):
        g = _slope_weights(16)
        assert g is _slope_weights(16)
        assert not g.flags.writeable


class TestWlsWeights:
    def test_m4(self):
        assert np.allclose(wls_weights(4), [20.0, 7.5, 10.0 / 3.0, 1.25])

    def test_m2(self):
        assert np.allclose(wls_weights(2), [6.0, 1.5])

    def test_positive_decreasing(self):
        for m in range(2, 65):
            w = wls_weights(m)
            assert np.all(w > 0)
            assert np.all(np.diff(w) < 0)


class TestWlsSlope:
    def test_exact_line(self):
        phases = 0.3 * np.arange(10)
        assert wls_slope(phases, wls_weights(10)) == pytest.approx(0.3, abs=1e-12)

    def test_offset_invariance(self):
        phases = 0.3 * np.arange(10) + 1.0
        assert wls_slope(phases, wls_weights(10)) == pytest.approx(0.3, abs=1e-12)

    def test_matches_normal_equations(self):
        rng = SeededRng(61)
        phases = 0.4 * np.arange(12) + 0.05 * rng.normal(1.0, size=12)
        w = wls_weights(12)
        assert wls_slope(phases, w) == pytest.approx(wls_slope_oracle(phases, w), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-5, max_value=5))
    def test_recovers_any_line(self, slope, intercept):
        phases = slope * np.arange(8) + intercept
        assert wls_slope(phases, wls_weights(8)) == pytest.approx(slope, abs=1e-9)


class TestEstimateAmplitude:
    def test_pure_cisoid(self):
        # ACF magnitude of a cisoid is |A|^2 at every lag, so the weighted
        # average returns |alpha| = sqrt(n_t n_r) |A| exactly
        alpha = 0.65
        d = cisoid(8, 8, 0.7, -0.3, amp=alpha / 8.0, phase=0.2)
        r = acf2d_unbiased(d)
        assert estimate_amplitude(r, 1.0, 8, 8) == pytest.approx(alpha, abs=1e-10)

    def test_rho_scaling(self):
        alpha, rho = 0.65, 4.0
        d = np.sqrt(rho) * cisoid(8, 8, 0.7, -0.3, amp=alpha / 8.0)
        r = acf2d_unbiased(d)
        assert estimate_amplitude(r, rho, 8, 8) == pytest.approx(alpha, abs=1e-10)

    def test_noisy_accuracy(self):
        # 3% mean accuracy at high spatial SNR
        alpha = 1.0
        errs = []
        for t in range(300):
            rng = SeededRng(62).substream(t)
            noise = (rng.normal(1.0, size=(16, 16)) + 1j * rng.normal(1.0, size=(16, 16)))
            d = cisoid(16, 16, 0.9, 0.4, amp=alpha / 16.0) + np.sqrt(1e-4 / 2) * noise
            errs.append(estimate_amplitude(acf2d_unbiased(d), 1.0, 16, 16))
        assert np.mean(errs) == pytest.approx(alpha, rel=0.03)


class TestEstimateGainPhase:
    def test_perfect_derotation(self):
        d = cisoid(8, 8, 0.9, -0.4, amp=0.5, phase=0.7)
        assert estimate_gain_phase(d, 0.9, -0.4, 1.0) == pytest.approx(0.7, abs=1e-12)

    def test_zero_phase(self):
        d = cisoid(8, 8, 0.9, -0.4, amp=0.5, phase=0.0)
        assert estimate_gain_phase(d, 0.9, -0.4, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_frequency_mismatch_first_order(self):
        # small frequency error tilts the sum; phase error stays within
        # the first-order bound (n_r + n_t) * delta / 2
        delta = 1e-3
        d = cisoid(8, 8, 0.9, -0.4, phase=0.3)
        est = estimate_gain_phase(d, 0.9 + delta, -0.4 + delta, 1.0)
        assert abs(est - 0.3) <= (8 + 8) * delta / 2 + 1e-9

    def test_zero_input_raises(self):
        with pytest.raises(UndefinedPhaseError):
            estimate_gain_phase(np.zeros((4, 4), dtype=complex), 0.1, 0.1, 1.0)


class TestReconstructPath:
    def test_zero_gain(self):
        est = PathEstimate.from_freqs(0.0, 0.0, 0.5, -0.5)
        assert np.allclose(reconstruct_path(est, 8, 8), 0.0)

    def test_matches_cisoid_formula(self):
        est = PathEstimate.from_freqs(0.9, 0.25, 0.5, -1.1)
        out = reconstruct_path(est, 8, 6)
        expected = cisoid(6, 8, est.omega_aoa, est.omega_aod,
                          amp=0.9 / np.sqrt(48.0), phase=0.25)
        assert np.allclose(out, expected, atol=1e-12)


class TestRun:
    def setup_method(self):
        self.cb = build_codebook(16, 16, 16, 16)
        self.cfg = TsdceConfig(l_desired=1, rounds=1, rho=1.0, n_t=16, n_r=16)

    def test_noiseless_on_grid_recovery(self):
        path = PathParams.from_gain_angles(
            0.8 * np.exp(1j * 0.3),
            np.arccos(self.cb.tx_cosines[3]),
            np.arccos(self.cb.rx_cosines[3]),
        )
        ch = build_channel([path], 16, 16)
        obs = synthesize_observation(ch, self.cb, 1.0, 0.0)
        est = run(obs, self.cfg)[0]
        assert est.gain_magnitude == pytest.approx(path.gain_magnitude, abs=1e-8)
        assert est.gain_phase == pytest.approx(path.gain_phase, abs=1e-8)
        assert est.omega_aod == pytest.approx(path.omega_aod, abs=1e-8)
        assert est.omega_aoa == pytest.approx(path.omega_aoa, abs=1e-8)

    def test_zero_observation(self):
        ch = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], 16, 16)
        obs = synthesize_observation(ch, self.cb, 1.0, 0.0)
        ests = run(obs, self.cfg)
        assert len(ests) == 1
        assert ests[0].gain_magnitude == 0.0

    def test_gain_scale_equivariance(self):
        ch = build_channel(sample_paths(1, SeededRng(71)), 16, 16)
        obs = synthesize_observation(ch, self.cb, 1.0, 0.0)
        scaled = type(obs)(y=3.0 * obs.y, rho=obs.rho, sigma_n_sq=obs.sigma_n_sq)
        base = run(obs, self.cfg)[0]
        est = run(scaled, self.cfg)[0]
        assert est.gain_magnitude == pytest.approx(3.0 * base.gain_magnitude, rel=1e-8)
        assert est.omega_aod == pytest.approx(base.omega_aod, abs=1e-10)
        assert est.gain_phase == pytest.approx(base.gain_phase, abs=1e-8)

    def test_global_phase_equivariance(self):
        ch = build_channel(sample_paths(1, SeededRng(72)), 16, 16)
        obs = synthesize_observation(ch, self.cb, 1.0, 0.0)
        beta = 1.1
        rotated = type(obs)(y=np.exp(1j * beta) * obs.y, rho=obs.rho,
                            sigma_n_sq=obs.sigma_n_sq)
        base = run(obs, self.cfg)[0]
        est = run(rotated, self.cfg)[0]
        shift = wrap(est.gain_phase - base.gain_phase, -np.pi, np.pi)
        assert shift == pytest.approx(beta, abs=1e-8)
        assert est.gain_magnitude == pytest.approx(base.gain_magnitude, rel=1e-8)

    def test_frequencies_in_principal_range(self):
        cfg = TsdceConfig(l_desired=3, rounds=2, rho=1.0, n_t=16, n_r=16)
        for t in range(10):
            rng = SeededRng(73).substream(t)
            ch = build_channel(sample_paths(3, rng), 16, 16)
            obs = synthesize_observation(ch, self.cb, 1.0, 0.1, rng)
            for est in run(obs, cfg):
                assert -np.pi <= est.omega_aod <= np.pi
                assert -np.pi <= est.omega_aoa <= np.pi

    def test_sic_residual_never_grows(self):
        from tsdce.observation import to_spatial
        cfg = TsdceConfig(l_desired=3, rounds=2, rho=1.0, n_t=16, n_r=16)
        for t in range(10):
            rng = SeededRng(74).substream(t)
            ch = build_channel(sample_paths(3, rng), 16, 16)
            obs = synthesize_observation(ch, self.cb, 1.0, 0.1, rng)
            ests = run(obs, cfg)
            sp = to_spatial(obs, 16, 16)
            total = sum(reconstruct_path(e, 16, 16) for e in ests)
            assert (np.linalg.norm(sp.d_bar - total)
                    <= np.linalg.norm(sp.d_bar) + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TsdceConfig(l_desired=0, rounds=1, rho=1.0, n_t=16, n_r=16)
        with pytest.raises(ValueError):
            TsdceConfig(l_desired=1, rounds=0, rho=1.0, n_t=16, n_r=16)


class TestReconstructChannel:
    def test_truth_roundtrip(self):
        paths = sample_paths(2, SeededRng(81))
        ch = build_channel(paths, 16, 16)
        ests = [PathEstimate.from_freqs(p.gain_magnitude, p.gain_phase,
                                        p.omega_aod, p.omega_aoa) for p in paths]
        assert np.allclose(reconstruct_channel(ests, 16, 16), ch.h, atol=1e-10)

    def test_single_estimate_rank_one(self):
        est = PathEstimate.from_freqs(1.0, 0.0, 0.4, -0.9)
        h = reconstruct_channel([est], 16, 16)
        assert np.linalg.svd(h, compute_uv=False)[1] < 1e-10

    def test_noiseless_two_orthogonal_paths(self):
        cb = build_codebook(16, 16, 16, 16)
        g1 = PathParams.from_gain_angles(0.9, np.arccos(cb.tx_cosines[2]),
                                         np.arccos(cb.rx_cosines[5]))
        g2 = PathParams.from_gain_angles(0.4 * np.exp(1j * 1.0),
                                         np.arccos(cb.tx_cosines[7]),
                                         np.arccos(cb.rx_cosines[1]))
        ch = build_channel([g1, g2], 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.0)
        cfg = TsdceConfig(l_desired=2, rounds=2, rho=1.0, n_t=16, n_r=16)
        h_hat = reconstruct_channel(run(obs, cfg), 16, 16)
        err = np.linalg.norm(h_hat - ch.h) ** 2 / np.linalg.norm(ch.h) ** 2
        assert 10 * np.log10(err) < -160.0
