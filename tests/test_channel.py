"""Channel model tests: path sampling, synthesis and the angle <->
spatial-frequency mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdce.channel import (
    PathParams,
    build_channel,
    cisoid_sum,
    sample_paths,
)
from tsdce.numkit import SeededRng
from oracles import steering_vector


def channel_from_steering(paths, n_t, n_r):
    """Reference synthesis: sqrt(n_t n_r) sum_l alpha_l a_rx a_tx^H."""
    h = np.zeros((n_r, n_t), dtype=complex)
    for p in paths:
        a_r = steering_vector(p.aoa, n_r)
        a_t = steering_vector(p.aod, n_t)
        h += np.sqrt(n_t * n_r) * p.gain * np.outer(a_r, a_t.conj())
    return h


def cisoid_sum_oracle(gains, w_aoa, w_aod, n_r, n_t):
    """Explicit per-path formula sum_l g_l exp(j(w_aoa_l m + w_aod_l n))."""
    m = np.arange(n_r)[:, None]
    n = np.arange(n_t)[None, :]
    h = np.zeros((n_r, n_t), dtype=complex)
    for g, wa, wd in zip(gains, w_aoa, w_aod):
        h += g * np.exp(1j * (wa * m + wd * n))
    return h


class TestCisoidSum:
    @pytest.mark.parametrize("n_r, n_t, L", [(16, 16, 3), (8, 12, 1), (5, 3, 4)])
    def test_matches_explicit_formula(self, n_r, n_t, L):
        rng = SeededRng(8)
        gains = rng.normal(1.0, size=L) + 1j * rng.normal(1.0, size=L)
        w_aoa = rng.uniform(-np.pi, np.pi, size=L)
        w_aod = rng.uniform(-np.pi, np.pi, size=L)
        out = cisoid_sum(gains, w_aoa, w_aod, n_r, n_t)
        expected = cisoid_sum_oracle(gains, w_aoa, w_aod, n_r, n_t)
        assert out.shape == (n_r, n_t)
        assert np.allclose(out, expected, rtol=0, atol=1e-13 * np.abs(gains).sum())

    def test_scalar_arguments_give_one_cisoid(self):
        out = cisoid_sum(0.5j, 0.3, -2.0, 4, 6)
        assert np.allclose(out, cisoid_sum_oracle([0.5j], [0.3], [-2.0], 4, 6), atol=1e-15)


class TestPathParams:
    def test_from_gain_angles(self):
        p = PathParams.from_gain_angles(0.5 * np.exp(1j * 0.9), 1.2, 2.0)
        assert p.gain_magnitude == pytest.approx(0.5)
        assert p.gain_phase == pytest.approx(0.9)
        assert p.omega_aod == pytest.approx(np.pi * np.cos(1.2))
        assert p.omega_aoa == pytest.approx(-np.pi * np.cos(2.0))

    def test_gain_property(self):
        p = PathParams.from_gain_angles(0.3 - 0.4j, 0.5, 0.5)
        assert p.gain == pytest.approx(0.3 - 0.4j)


class TestSamplePaths:
    def test_count_and_ordering(self):
        paths = sample_paths(5, SeededRng(1))
        assert len(paths) == 5
        mags = [p.gain_magnitude for p in paths]
        assert mags == sorted(mags, reverse=True)

    def test_angles_in_range(self):
        paths = sample_paths(50, SeededRng(2), angle_range=(0.5, 1.5))
        for p in paths:
            assert 0.5 <= p.aod < 1.5
            assert 0.5 <= p.aoa < 1.5

    def test_unit_average_power(self):
        # gains are CN(0, 1/L): total mean power is 1 regardless of L
        total = 0.0
        reps = 2000
        for t in range(reps):
            paths = sample_paths(4, SeededRng(3).substream(t))
            total += sum(p.gain_magnitude ** 2 for p in paths)
        assert total / reps == pytest.approx(1.0, rel=0.05)

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            sample_paths(0, SeededRng(4))

    # PathParams.from_freqs folds estimates into [0, pi], so angles outside
    # it could never be matched
    @pytest.mark.parametrize("angle_range", [(-1.0, 4.0), (-0.1, 1.0), (0.0, 3.2)])
    def test_rejects_range_outside_zero_to_pi(self, angle_range):
        with pytest.raises(ValueError, match="angle_range"):
            sample_paths(1, SeededRng(4), angle_range)


class TestBuildChannel:
    def test_matches_steering_synthesis(self):
        paths = sample_paths(3, SeededRng(5))
        h = build_channel(paths, 16, 16)
        assert np.allclose(h, channel_from_steering(paths, 16, 16), atol=1e-10)

    def test_elementwise_formula(self):
        p = PathParams.from_gain_angles(0.7 * np.exp(1j * 1.1), 0.9, 2.1)
        h = build_channel([p], 8, 4)
        mm, nn = np.meshgrid(np.arange(4), np.arange(8), indexing="ij")
        expected = p.gain * np.exp(1j * (p.omega_aoa * mm + p.omega_aod * nn))
        assert np.allclose(h, expected, atol=1e-12)

    def test_shape_and_summation_order(self):
        # true paths and estimates alike are summed in the order given, here
        # weakest first
        paths = sample_paths(3, SeededRng(6))[::-1]
        h = build_channel(paths, 12, 10)
        assert h.shape == (10, 12)
        gains, w_aoa, w_aod = zip(*[(p.gain, p.omega_aoa, p.omega_aod) for p in paths])
        assert np.array_equal(h, cisoid_sum(gains, w_aoa, w_aod, 10, 12))

    def test_rejects_no_paths_and_small_arrays(self):
        with pytest.raises(ValueError, match="at least one path"):
            build_channel([], 16, 16)
        with pytest.raises(ValueError, match="got 1 and 16"):
            build_channel(sample_paths(1, SeededRng(6)), 1, 16)

    def test_mean_frobenius_power(self):
        # E{||H||_F^2} = n_t n_r for unit total path power
        acc = 0.0
        reps = 1000
        for t in range(reps):
            h = build_channel(sample_paths(3, SeededRng(7).substream(t)), 16, 16)
            acc += np.linalg.norm(h) ** 2
        assert acc / reps == pytest.approx(256.0, rel=0.1)


class TestFreqToAngle:
    """PathParams.from_freqs reads the angles off the frequencies."""

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=np.pi - 1e-6))
    def test_roundtrip(self, angle):
        p = PathParams.from_freqs(1.0, 0.0, np.pi * np.cos(angle), -np.pi * np.cos(angle))
        assert p.aod == pytest.approx(angle, abs=1e-9)
        assert p.aoa == pytest.approx(angle, abs=1e-9)

    def test_endpoints_clip(self):
        # a cosine past +-1 by rounding reads as the endpoint's angle
        p = PathParams.from_freqs(1.0, 0.0, np.pi * (1 + 1e-13), np.pi * (1 + 1e-13))
        assert (p.aod, p.aoa) == (0.0, np.pi)
        p = PathParams.from_freqs(1.0, 0.0, -np.pi, -np.pi)
        assert p.aod == pytest.approx(np.pi) and p.aoa == pytest.approx(0.0)

    def test_rejects_out_of_band(self):
        for omega_aod, omega_aoa in [(4.0, 0.0), (0.0, -4.0)]:
            with pytest.raises(ValueError, match="must be <= pi"):
                PathParams.from_freqs(1.0, 0.0, omega_aod, omega_aoa)
