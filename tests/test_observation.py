"""Observation model tests: the frequency wrap, DFT codebooks, beam-sweep synthesis,
the spatial LS estimate and the out-of-crop noise variance estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdce.channel import PathParams, build_channel, sample_paths, wrap_phase
from tsdce.numkit import SeededRng
from tsdce.observation import (
    build_codebook,
    noise_variance_estimate,
    snr_in_spatial_domain,
    synthesize_observation,
    to_spatial,
)
from oracles import beam_angle, ls_estimate_explicit, steering_vector

# (P, Q, n_t, n_r): square and non-square arrays, codebooks critical and
# oversampled, one transform length not a power of two
SHAPES = [(16, 16, 16, 16), (32, 16, 16, 8), (12, 8, 8, 8)]


def on_grid_path(cb, q, p, gain):
    """Path whose angles coincide with codebook entries (q, p)."""
    return PathParams.from_gain_angles(gain, beam_angle(cb, "tx", p), beam_angle(cb, "rx", q))


def dirichlet_observation(paths, cb, n_t, n_r):
    """Closed-form noiseless observation built from geometric sums of the
    beam/steering inner products, independent of the matrix product."""
    y = np.zeros((cb.w.shape[1], cb.f.shape[1]), dtype=complex)
    m = np.arange(n_r)
    n = np.arange(n_t)
    for q in range(cb.w.shape[1]):
        w_omega = -np.pi * np.cos(beam_angle(cb, "rx", q))
        for p in range(cb.f.shape[1]):
            f_omega = np.pi * np.cos(beam_angle(cb, "tx", p))
            for path in paths:
                s_r = np.sum(np.exp(1j * (path.omega_aoa - w_omega) * m)) / n_r
                s_t = np.sum(np.exp(1j * (path.omega_aod - f_omega) * n)) / n_t
                y[q, p] += np.sqrt(n_t * n_r) * path.gain * s_r * s_t
    return y


def wrap_reference(x):
    """The numpy formula x - 2pi ceil((x - pi)/2pi) on an array of floats."""
    x = np.asarray(x, dtype=float)
    return x - 2 * np.pi * np.ceil((x - np.pi) / (2 * np.pi))


class TestWrap:
    """channel.wrap_phase, the one wrap of a frequency into (-pi, pi]."""

    def test_codebook_examples(self):
        assert wrap_phase(2 * np.pi * 3 / 32) == pytest.approx(0.1875 * np.pi)
        assert wrap_phase(2 * np.pi * 20 / 32) == pytest.approx(-0.75 * np.pi)

    def test_half_open_range(self):
        # the ceiling form maps onto (-pi, pi]: pi is fixed, -pi maps to pi
        assert wrap_phase(np.pi) == np.pi
        assert wrap_phase(-np.pi) == np.pi

    @staticmethod
    def assert_exact(x):
        # a float and its np.float64 give the numpy formula's value bit for
        # bit, as a Python float
        for arg in (float(x), np.float64(x)):
            out = wrap_phase(arg)
            assert type(out) is float
            assert np.float64(out).tobytes() == wrap_reference([arg])[0].tobytes()

    def test_boundaries(self):
        values = [-np.pi, np.pi, 1e6, -1e6, 5e-324, -5e-324, np.nextafter(np.pi, np.inf),
                  np.nextafter(-np.pi, -np.inf), 1e300, -1e300]
        values += [np.pi + 2 * np.pi * k for k in (-7, -2, -1, 1, 2, 7)]
        for x in values:
            self.assert_exact(x)

    def test_non_finite_scalars_give_nan_as_arrays_do(self):
        with np.errstate(invalid="ignore"):  # inf - inf in the numpy formula
            for x in (np.inf, -np.inf, np.nan):
                assert np.isnan(wrap_reference([x])[0])
                for arg in (float(x), np.float64(x)):
                    out = wrap_phase(arg)
                    assert type(out) is float and np.isnan(out)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_scalar_path_matches_array_path(self, x):
        self.assert_exact(x)

    def test_ints_and_zeros_take_array_path(self):
        # ints, and zeros of either sign, give the numpy formula's float:
        # +0.0 for both zeros, as np.ceil keeps the sign of the -0.5 quotient
        for x in (3, -5, np.int64(7), 0, 0.0, -0.0):
            out = wrap_phase(x)
            assert type(out) is float
            assert np.float64(out).tobytes() == wrap_reference([x])[0].tobytes()
        assert np.float64(wrap_phase(-0.0)).tobytes() == np.float64(0.0).tobytes()

    @pytest.mark.parametrize("n_dft", [32, 1024, 2048])
    def test_dft_bins_match_the_numpy_formula(self, n_dft):
        # the dft_peak frequencies: every bin k of an n_dft-point DFT
        x = 2 * np.pi * np.arange(n_dft) / n_dft
        got = np.array([wrap_phase(2 * np.pi * k / n_dft) for k in range(n_dft)])
        assert got.tobytes() == wrap_reference(x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-50, max_value=50))
    def test_in_range_and_congruent(self, x):
        w = wrap_phase(x)
        assert -np.pi < w <= np.pi + 1e-12
        k = (x - w) / (2 * np.pi)
        assert k == pytest.approx(round(k), abs=1e-9)


class TestBuildCodebook:
    @pytest.mark.parametrize("P, Q, n_t, n_r", SHAPES + [(64, 64, 64, 64)])
    def test_beam_columns_are_steering_vectors(self, P, Q, n_t, n_r):
        cb = build_codebook(P, Q, n_t, n_r)
        assert cb.f.shape == (n_t, P) and cb.w.shape == (n_r, Q)
        for p in range(P):
            expected = steering_vector(beam_angle(cb, "tx", p), n_t)
            assert np.allclose(cb.f[:, p], expected, rtol=0, atol=1e-13)
        for q in range(Q):
            expected = steering_vector(beam_angle(cb, "rx", q), n_r)
            assert np.allclose(cb.w[:, q], expected, rtol=0, atol=1e-13)

    def test_beam_angles_wrap_into_the_cosine_range(self):
        cb = build_codebook(32, 32, 16, 16)
        assert beam_angle(cb, "tx", 3) == pytest.approx(np.arccos(0.1875))
        assert beam_angle(cb, "tx", 20) == pytest.approx(np.arccos(-0.75))
        assert beam_angle(cb, "rx", 20) == pytest.approx(np.arccos(0.75))
        assert beam_angle(cb, "rx", 16) == pytest.approx(0.0)  # cosine -1 wraps to 1

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
        assert not cb.w.flags.writeable
        assert cb.f.flags.c_contiguous and cb.w.flags.c_contiguous

    def test_rejects_small_codebook(self):
        with pytest.raises(ValueError):
            build_codebook(8, 16, 16, 16)


class TestSynthesizeObservation:
    def test_on_grid_single_peak(self):
        # critically sampled codebook: every other beam pair sits on a
        # Dirichlet zero, leaving one nonzero entry
        cb = build_codebook(16, 16, 16, 16)
        h = build_channel([on_grid_path(cb, 3, 3, 0.8 * np.exp(1j * 0.3))], 16, 16)
        mag = np.abs(synthesize_observation(h, cb, 0.0))
        assert mag[3, 3] == pytest.approx(0.8 * 16.0)
        off = mag.copy()
        off[3, 3] = 0.0
        assert np.max(off) < 1e-9

    def test_on_grid_peak_oversampled(self):
        cb = build_codebook(32, 32, 16, 16)
        h = build_channel([on_grid_path(cb, 3, 3, 0.8)], 16, 16)
        assert np.abs(synthesize_observation(h, cb, 0.0)[3, 3]) == pytest.approx(0.8 * 16.0)

    def test_matches_dirichlet_oracle(self):
        cb = build_codebook(16, 16, 16, 16)
        paths = sample_paths(2, SeededRng(31))
        y = synthesize_observation(build_channel(paths, 16, 16), cb, 0.0)
        assert np.allclose(y, dirichlet_observation(paths, cb, 16, 16), atol=1e-9)

    def test_null_channel_noise_variance(self):
        cb = build_codebook(16, 16, 16, 16)
        zero = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], 16, 16)
        acc, reps = 0.0, 100
        for t in range(reps):
            y = synthesize_observation(zero, cb, 0.5, SeededRng(32).substream(t))
            acc += np.mean(np.abs(y) ** 2)
        assert acc / reps == pytest.approx(0.5, rel=0.03)

    def test_noiseless_needs_no_rng(self):
        cb = build_codebook(16, 16, 16, 16)
        h = build_channel(sample_paths(1, SeededRng(33)), 16, 16)
        synthesize_observation(h, cb, 0.0)


class TestObservationIsTheDft:
    @pytest.mark.parametrize("P, Q, n_t, n_r", SHAPES)
    def test_observation_is_the_zero_padded_2d_dft(self, P, Q, n_t, n_r):
        # W^H H F is the Q x P DFT of the zero-padded channel over sqrt(n_t n_r)
        cb = build_codebook(P, Q, n_t, n_r)
        h = build_channel(sample_paths(3, SeededRng(40)), n_t, n_r)
        expected = np.fft.fft2(h, s=(Q, P)) / np.sqrt(n_t * n_r)
        assert np.allclose(synthesize_observation(h, cb, 0.0), expected, rtol=0, atol=1e-12)


class TestToSpatial:
    def test_noiseless_cisoid_crop(self):
        # each path appears in the crop as alpha times a 2D cisoid at its
        # spatial frequencies
        cb = build_codebook(16, 16, 16, 16)
        paths = sample_paths(1, SeededRng(41))
        h_ls = to_spatial(synthesize_observation(build_channel(paths, 16, 16), cb, 0.0), 16, 16)
        p = paths[0]
        mm, nn = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        expected = p.gain * np.exp(1j * (p.omega_aoa * mm + p.omega_aod * nn))
        assert np.allclose(h_ls, expected, atol=1e-9)

    @pytest.mark.parametrize("P, Q, n_t, n_r", SHAPES)
    def test_noiseless_recovers_channel(self, P, Q, n_t, n_r):
        cb = build_codebook(P, Q, n_t, n_r)
        h = build_channel(sample_paths(3, SeededRng(51)), n_t, n_r)
        h_ls = to_spatial(synthesize_observation(h, cb, 0.0), n_t, n_r)
        assert h_ls.shape == (n_r, n_t)
        assert np.allclose(h_ls, h, atol=1e-9)

    @pytest.mark.parametrize("P, Q, n_t, n_r", SHAPES)
    def test_equals_explicit_ls(self, P, Q, n_t, n_r):
        cb = build_codebook(P, Q, n_t, n_r)
        stream = SeededRng(53)
        h = build_channel(sample_paths(2, stream), n_t, n_r)
        y = synthesize_observation(h, cb, 0.5, stream)
        assert np.allclose(to_spatial(y, n_t, n_r), ls_estimate_explicit(y, cb), atol=1e-12)

    def test_scaling(self):
        # sqrt(n_t n_r) = 16 times the top-left crop of the IDFT
        cb = build_codebook(32, 32, 16, 16)
        h = build_channel(sample_paths(1, SeededRng(52)), 16, 16)
        y = synthesize_observation(h, cb, 0.1, SeededRng(54))
        assert np.allclose(to_spatial(y, 16, 16), 16.0 * np.fft.ifft2(y)[:16, :16])

    def test_rejects_observation_smaller_than_crop(self):
        with pytest.raises(ValueError):
            to_spatial(np.zeros((8, 16), dtype=complex), 16, 16)


class TestNoiseVarianceEstimate:
    def test_critical_sampling_has_no_noise_estimate(self):
        cb = build_codebook(16, 16, 16, 16)
        h = build_channel(sample_paths(1, SeededRng(42)), 16, 16)
        y = synthesize_observation(h, cb, 0.1, SeededRng(43))
        assert noise_variance_estimate(y, 16, 16) is None

    def test_noise_variance_estimate(self):
        # outside the crop only noise remains, with variance sigma_n^2/(QP)
        cb = build_codebook(32, 32, 16, 16)
        zero = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], 16, 16)
        acc, reps = 0.0, 100
        for t in range(reps):
            y = synthesize_observation(zero, cb, 0.8, SeededRng(44).substream(t))
            acc += noise_variance_estimate(y, 16, 16)
        assert acc / reps == pytest.approx(0.8 / 1024.0, rel=0.05)

    def test_noiseless_channel_leaves_no_power_outside_crop(self):
        cb = build_codebook(32, 16, 16, 8)
        h = build_channel(sample_paths(3, SeededRng(45)), 16, 8)
        assert noise_variance_estimate(synthesize_observation(h, cb, 0.0), 16, 8) < 1e-28

    def test_rejects_observation_smaller_than_crop(self):
        with pytest.raises(ValueError):
            noise_variance_estimate(np.zeros((16, 8), dtype=complex), 16, 16)


class TestSnrInSpatialDomain:
    def test_oversampling_gain(self):
        assert snr_in_spatial_domain(1.0, 32, 32, 16, 16) == pytest.approx(4.0)

    def test_matched_sizes(self):
        assert snr_in_spatial_domain(3.3, 16, 16, 16, 16) == pytest.approx(3.3)

    def test_linearity(self):
        assert snr_in_spatial_domain(0.0, 32, 32, 16, 16) == 0.0
