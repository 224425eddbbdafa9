"""Numeric kernel tests: seeded RNG, cached DFT matrices, the rank-one step
(the dominant singular term) and the unbiased 2D autocorrelation, each
checked against an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdce.algorithm import extract_rank_one
from tsdce.numkit import SeededRng, acf2d_unbiased, dft_columns, sample_complex_gaussian


def naive_acf2d(d):
    """Direct O(n^4) unbiased sample ACF, the reference definition:
    r[m, n] = (1/kappa) sum_{p>=m, q>=n} d[p, q] * conj(d[p-m, q-n])."""
    n_r, n_t = d.shape
    r = np.zeros((n_r, n_t), dtype=complex)
    for m in range(n_r):
        for n in range(n_t):
            acc = 0.0j
            for p in range(m, n_r):
                for q in range(n, n_t):
                    acc += d[p, q] * np.conj(d[p - m, q - n])
            r[m, n] = acc / ((n_r - m) * (n_t - n))
    return r


def random_complex(rng, shape):
    return rng.normal(1.0, size=shape) + 1j * rng.normal(1.0, size=shape)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42).normal(1.0, size=100)
        b = SeededRng(42).normal(1.0, size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).normal(1.0, size=100)
        b = SeededRng(2).normal(1.0, size=100)
        assert not np.allclose(a, b)

    def test_substream_is_reproducible(self):
        base = SeededRng(7)
        a = base.substream(3).uniform(0.0, 1.0, size=50)
        b = SeededRng(7).substream(3).uniform(0.0, 1.0, size=50)
        assert np.array_equal(a, b)

    def test_substreams_are_distinct(self):
        base = SeededRng(7)
        a = base.substream(1).normal(1.0, size=50)
        b = base.substream(2).normal(1.0, size=50)
        assert not np.allclose(a, b)

    def test_uniform_range(self):
        x = SeededRng(5).uniform(-2.0, 3.0, size=1000)
        assert np.all(x >= -2.0) and np.all(x < 3.0)


class TestComplexGaussian:
    def test_variance_split(self):
        # total variance sigma^2, half per real/imag component
        x = sample_complex_gaussian(SeededRng(11), 4.0, size=200000)
        assert np.var(x.real) == pytest.approx(2.0, rel=0.02)
        assert np.var(x.imag) == pytest.approx(2.0, rel=0.02)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(4.0, rel=0.02)

    def test_zero_mean(self):
        x = sample_complex_gaussian(SeededRng(12), 1.0, size=200000)
        assert abs(np.mean(x)) < 0.01

    def test_scalar_size(self):
        x = sample_complex_gaussian(SeededRng(13), 1.0)
        assert np.shape(x) == ()


class TestDftColumns:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 17, 32, 64, 100])
    def test_equals_former_acf_factor_bitwise(self, n):
        # the 2n-point factor acf2d_unbiased used before dft_columns existed
        old = np.exp(-1j * np.pi * (np.outer(np.arange(2 * n), np.arange(n)) % (2 * n)) / n)
        assert dft_columns(2 * n, n).tobytes() == old.tobytes()

    def test_is_zero_padded_dft(self):
        x = random_complex(SeededRng(5), (16,))
        assert np.allclose(dft_columns(1024, 16) @ x, np.fft.fft(x, n=1024), atol=1e-11)

    def test_cached_and_read_only(self):
        f = dft_columns(64, 16)
        assert f is dft_columns(64, 16)
        assert f.shape == (64, 16)
        assert not f.flags.writeable


class TestDominantSingularTriplet:
    """A non-square all-zero input gives an all-zero term of its own shape."""

    def test_zero_matrix(self):
        r = extract_rank_one(np.zeros((4, 5), dtype=complex))
        assert r.shape == (4, 5) and not r.any()


def rank_two(n_r, n_t, ratio, rng):
    """sigma_1 u1 v1^H + sigma_2 u2 v2^H with sigma_1 / sigma_2 = ratio."""
    u, _ = np.linalg.qr(random_complex(rng, (n_r, 2)))
    v, _ = np.linalg.qr(random_complex(rng, (n_t, 2)))
    return ratio * np.outer(u[:, 0], v[:, 0].conj()) + np.outer(u[:, 1], v[:, 1].conj())


class TestDominantSingularTripletAgainstSvd:
    """The one-eigh rank-one step against the full LAPACK SVD: within 1e-9
    of ||m|| of s_1 u_1 v_1^H. At scales 1e+-170 an unscaled Gram matrix
    would overflow or go subnormal."""

    CASES = {
        "16x16": lambda rng: random_complex(rng, (16, 16)),
        "8x12": lambda rng: random_complex(rng, (8, 12)),
        "12x8": lambda rng: random_complex(rng, (12, 8)),
        "rank2_gap_1.05_tall": lambda rng: rank_two(16, 10, 1.05, rng),
        "rank2_gap_1.05_wide": lambda rng: rank_two(10, 16, 1.05, rng),
    }

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-170, 1e170])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_svd(self, case, scale):
        for seed in range(3):
            m = scale * self.CASES[case](SeededRng(100 + seed))
            r = extract_rank_one(m)
            assert np.isfinite(r).all()
            u_ref, s_ref, vh_ref = np.linalg.svd(m)
            # compared at unit scale, where the norms cannot overflow
            s1 = s_ref[0] / scale
            # ||R||_F is sigma_1 of a rank-one R
            assert abs(np.linalg.norm(r / scale) - s1) <= 1e-10 * s1
            err = r / scale - s1 * np.outer(u_ref[:, 0], vh_ref[0])
            assert np.linalg.norm(err) <= 1e-9 * np.linalg.norm(m / scale)

    def test_non_finite_raises(self):
        m = random_complex(SeededRng(7), (4, 4))
        m[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            extract_rank_one(m)


class TestAcf2dUnbiased:
    def test_matches_naive_loop(self):
        d = random_complex(SeededRng(21), (7, 6))
        assert np.allclose(acf2d_unbiased(d), naive_acf2d(d), atol=1e-12)

    def test_pure_cisoid_is_exact(self):
        # the unbiased ACF of a cisoid reproduces the cisoid at every lag
        n_r, n_t = 8, 8
        w1, w2 = 1.3, -0.4
        mm, nn = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
        amp = 0.6
        d = amp * np.exp(1j * (0.2 + w1 * mm + w2 * nn))
        r = acf2d_unbiased(d)
        expected = amp ** 2 * np.exp(1j * (w1 * mm + w2 * nn))
        assert np.allclose(r, expected, atol=1e-12)

    def test_zero_lag_is_real_mean_power(self):
        d = random_complex(SeededRng(22), (6, 5))
        r = acf2d_unbiased(d)
        assert r[0, 0].imag == 0.0
        assert r[0, 0].real == pytest.approx(np.mean(np.abs(d) ** 2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_conjugation_flips_phases(self, seed):
        d = random_complex(SeededRng(seed), (5, 4))
        assert np.allclose(acf2d_unbiased(d.conj()), acf2d_unbiased(d).conj(),
                           atol=1e-12)
