"""Observation model tests: wrapping, DFT codebooks, beam-sweep synthesis,
the spatial-domain transform and the spatial LS shortcut."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdce.channel import PathParams, build_channel, sample_paths, steering_vector
from tsdce.numkit import SeededRng
from tsdce.observation import (
    Codebook,
    build_codebook,
    snr_in_spatial_domain,
    spatial_ls_estimate,
    synthesize_observation,
    to_spatial,
    wrap,
)


def on_grid_path(cb, q, p, gain):
    """Path whose angles coincide with codebook entries (q, p)."""
    aod = np.arccos(cb.tx_cosines[p])
    aoa = np.arccos(cb.rx_cosines[q])
    return PathParams.from_gain_angles(gain, aod, aoa)


def dirichlet_observation(paths, cb, n_t, n_r, rho):
    """Closed-form noiseless observation built from geometric sums of the
    beam/steering inner products, independent of the matrix product."""
    y = np.zeros((cb.q_count, cb.p_count), dtype=complex)
    m = np.arange(n_r)
    n = np.arange(n_t)
    for q in range(cb.q_count):
        w_omega = -np.pi * cb.rx_cosines[q]
        for p in range(cb.p_count):
            f_omega = np.pi * cb.tx_cosines[p]
            for path in paths:
                s_r = np.sum(np.exp(1j * (path.omega_aoa - w_omega) * m)) / n_r
                s_t = np.sum(np.exp(1j * (path.omega_aod - f_omega) * n)) / n_t
                y[q, p] += np.sqrt(rho * n_t * n_r) * path.gain * s_r * s_t
    return y


class TestWrap:
    def test_codebook_examples(self):
        assert wrap(2 * 3 / 32, -1.0, 1.0) == pytest.approx(0.1875)
        assert wrap(2 * 20 / 32, -1.0, 1.0) == pytest.approx(-0.75)

    def test_half_open_range(self):
        # the ceiling form maps onto (lo, hi]: hi is fixed, lo maps to hi
        assert wrap(1.0, -1.0, 1.0) == pytest.approx(1.0)
        assert wrap(-1.0, -1.0, 1.0) == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-50, max_value=50))
    def test_in_range_and_congruent(self, x):
        w = wrap(x, -np.pi, np.pi)
        assert -np.pi < w <= np.pi + 1e-12
        k = (x - w) / (2 * np.pi)
        assert k == pytest.approx(round(k), abs=1e-9)

    def test_elementwise(self):
        out = wrap(np.array([0.25, 1.25, -1.25]), -1.0, 1.0)
        assert np.allclose(out, [0.25, -0.75, 0.75])


class TestBuildCodebook:
    def test_cosine_grids(self):
        cb = build_codebook(32, 32, 16, 16)
        p = np.arange(32)
        assert np.allclose(cb.tx_cosines, wrap(2 * p / 32, -1.0, 1.0))
        assert np.allclose(cb.rx_cosines, wrap(-2 * p / 32, -1.0, 1.0))

    def test_beam_columns_are_steering_vectors(self):
        cb = build_codebook(16, 16, 16, 16)
        for p in (0, 3, 9):
            angle = np.arccos(cb.tx_cosines[p])
            assert np.allclose(cb.f[:, p], steering_vector(angle, 16))
        for q in (0, 5, 15):
            angle = np.arccos(cb.rx_cosines[q])
            assert np.allclose(cb.w[:, q], steering_vector(angle, 16))

    def test_kronecker_orthogonality(self):
        # Q^H Q = (QP / n_t n_r) I for Q = F^T (x) W^H
        for P in (16, 32):
            cb = build_codebook(P, P, 16, 16)
            big = np.kron(cb.f.T, cb.w.conj().T)
            gram = big.conj().T @ big
            assert np.allclose(gram, (P * P / 256.0) * np.eye(256), atol=1e-9)

    def test_built_once_and_read_only(self):
        cb = build_codebook(16, 16, 16, 16)
        assert build_codebook(16, 16, 16, 16) is cb
        with pytest.raises(ValueError):
            cb.f[0, 0] = 0.0
        for a in (cb.w, cb.tx_cosines, cb.rx_cosines):
            assert not a.flags.writeable

    def test_rejects_small_codebook(self):
        with pytest.raises(ValueError):
            build_codebook(8, 16, 16, 16)


class TestSynthesizeObservation:
    def test_on_grid_single_peak(self):
        # critically sampled codebook: every other beam pair sits on a
        # Dirichlet zero, leaving one nonzero entry
        cb = build_codebook(16, 16, 16, 16)
        ch = build_channel([on_grid_path(cb, 3, 3, 0.8 * np.exp(1j * 0.3))], 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.0)
        mag = np.abs(obs.y)
        assert mag[3, 3] == pytest.approx(0.8 * 16.0)
        off = mag.copy()
        off[3, 3] = 0.0
        assert np.max(off) < 1e-9

    def test_on_grid_peak_oversampled(self):
        cb = build_codebook(32, 32, 16, 16)
        ch = build_channel([on_grid_path(cb, 3, 3, 0.8)], 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.0)
        assert np.abs(obs.y[3, 3]) == pytest.approx(0.8 * 16.0)

    def test_matches_dirichlet_oracle(self):
        cb = build_codebook(16, 16, 16, 16)
        paths = sample_paths(2, SeededRng(31))
        ch = build_channel(paths, 16, 16)
        obs = synthesize_observation(ch, cb, 2.0, 0.0)
        ref = dirichlet_observation(paths, cb, 16, 16, 2.0)
        assert np.allclose(obs.y, ref, atol=1e-9)

    def test_null_channel_noise_variance(self):
        cb = build_codebook(16, 16, 16, 16)
        zero = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], 16, 16)
        acc, reps = 0.0, 100
        for t in range(reps):
            obs = synthesize_observation(zero, cb, 1.0, 0.5, SeededRng(32).substream(t))
            acc += np.mean(np.abs(obs.y) ** 2)
        assert acc / reps == pytest.approx(0.5, rel=0.03)

    def test_noiseless_needs_no_rng(self):
        cb = build_codebook(16, 16, 16, 16)
        ch = build_channel(sample_paths(1, SeededRng(33)), 16, 16)
        obs = synthesize_observation(ch, cb, 1.0, 0.0)
        assert obs.sigma_n_sq == 0.0


class TestToSpatial:
    def test_noiseless_cisoid_crop(self):
        # each path appears in the crop as sqrt(rho) * alpha/sqrt(n_t n_r)
        # times a 2D cisoid at its spatial frequencies
        cb = build_codebook(16, 16, 16, 16)
        paths = sample_paths(1, SeededRng(41))
        ch = build_channel(paths, 16, 16)
        sp = to_spatial(synthesize_observation(ch, cb, 4.0, 0.0), 16, 16)
        p = paths[0]
        mm, nn = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        expected = (np.sqrt(4.0) * p.gain / 16.0
                    * np.exp(1j * (p.omega_aoa * mm + p.omega_aod * nn)))
        assert np.allclose(sp.d_bar, expected, atol=1e-9)

    def test_critical_sampling_has_no_noise_estimate(self):
        cb = build_codebook(16, 16, 16, 16)
        ch = build_channel(sample_paths(1, SeededRng(42)), 16, 16)
        sp = to_spatial(synthesize_observation(ch, cb, 1.0, 0.1, SeededRng(43)), 16, 16)
        assert sp.sigma_z_sq_hat is None

    def test_noise_variance_estimate(self):
        # outside the crop only noise remains, with variance sigma_n^2/(QP)
        cb = build_codebook(32, 32, 16, 16)
        zero = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], 16, 16)
        acc, reps = 0.0, 100
        for t in range(reps):
            obs = synthesize_observation(zero, cb, 1.0, 0.8, SeededRng(44).substream(t))
            acc += to_spatial(obs, 16, 16).sigma_z_sq_hat
        assert acc / reps == pytest.approx(0.8 / 1024.0, rel=0.05)


class TestSpatialLs:
    def test_noiseless_recovers_channel(self):
        cb = build_codebook(16, 16, 16, 16)
        ch = build_channel(sample_paths(3, SeededRng(51)), 16, 16)
        sp = to_spatial(synthesize_observation(ch, cb, 1.0, 0.0), 16, 16)
        assert np.allclose(spatial_ls_estimate(sp, 1.0), ch.h, atol=1e-9)

    def test_scaling(self):
        cb = build_codebook(16, 16, 16, 16)
        ch = build_channel(sample_paths(1, SeededRng(52)), 16, 16)
        sp = to_spatial(synthesize_observation(ch, cb, 1.0, 0.0), 16, 16)
        assert np.allclose(spatial_ls_estimate(sp, 1.0), 16.0 * sp.d_bar)


class TestSnrInSpatialDomain:
    def test_oversampling_gain(self):
        assert snr_in_spatial_domain(1.0, 32, 32, 16, 16) == pytest.approx(4.0)

    def test_matched_sizes(self):
        assert snr_in_spatial_domain(3.3, 16, 16, 16, 16) == pytest.approx(3.3)

    def test_linearity(self):
        assert snr_in_spatial_domain(0.0, 32, 32, 16, 16) == 0.0
