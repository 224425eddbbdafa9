"""Numerical kernel: seeded complex Gaussian sampling, cached DFT matrices
and the unbiased 2D sample autocorrelation.

All matrix arguments are dense complex numpy arrays. Functions are pure;
``SeededRng`` is the single piece of mutable state and is not safe for
concurrent mutation; the Monte Carlo sweep runs its trials serially,
each on its own substream.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class SeededRng:
    """Counter-based (Philox) random stream with reproducible substreams.

    Identical seed and call sequence produce identical outputs. Substreams
    derived via ``substream(k)`` are order-invariant, so every Monte Carlo
    trial owns one and its draws do not depend on which trials ran before.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        # built on the first draw, so a stream used only for its substreams builds none
        return np.random.Generator(np.random.Philox(key=self.seed))

    def substream(self, index: int) -> "SeededRng":
        return SeededRng(self.seed ^ (int(index) & _MASK64))

    def uniform(self, lo: float, hi: float, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def normal(self, scale: float, size=None):
        return self._gen.normal(0.0, scale, size=size)


def sample_complex_gaussian(rng: SeededRng, variance: float, size=None):
    """Draw zero-mean circularly-symmetric complex Gaussians.

    Real and imaginary parts are independent with variance ``variance/2``
    each, so E{|z|^2} = variance.
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    scale = np.sqrt(variance / 2.0)
    return rng.normal(scale, size=size) + 1j * rng.normal(scale, size=size)


@functools.lru_cache(maxsize=None)
def dft_columns(n_dft: int, n: int) -> np.ndarray:
    """First n columns of the n_dft-point DFT matrix, exp(-2 pi j k i / n_dft)
    with the exponent k i reduced mod n_dft; cached and read-only.

    Multiplying by it is the n_dft-point DFT of a length-n vector
    zero-padded to n_dft.
    """
    k = np.outer(np.arange(n_dft), np.arange(n)) % n_dft
    f = np.exp(-2j * np.pi * k / n_dft)
    f.setflags(write=False)
    return f


@functools.lru_cache(maxsize=None)
def _acf_operators(nr: int, nt: int):
    """Read-only per-shape constants of `acf2d_unbiased`: the zero-padded
    DFT factors F_r (2nr x nr) and F_t (nt x 2nt), the inverse DFT
    factors cropped to non-negative lags and 1/kappa."""
    fr, ft = dft_columns(2 * nr, nr), dft_columns(2 * nt, nt).T
    inv_kappa = 1.0 / np.outer(nr - np.arange(nr), nt - np.arange(nt))
    ops = (fr, ft, fr.conj().T / (2 * nr), ft.conj().T / (2 * nt), inv_kappa)
    for a in ops:
        a.setflags(write=False)
    return ops


def acf2d_unbiased(m: np.ndarray) -> np.ndarray:
    """Unbiased 2D sample autocorrelation over non-negative lags.

    R[dm, dn] = (1/kappa) * sum_{u,v} conj(M[u, v]) M[u+dm, v+dn] with
    kappa = (n_r - dm)(n_t - dn); exact on pure cisoids at every lag.

    Computed through a zero-padded 2D DFT (linear correlation) as products
    with cached DFT matrices, cheaper than FFT calls at these sizes; the
    direct double loop gives the same values to machine precision.
    """
    m = np.asarray(m, dtype=complex)
    nr, nt = m.shape
    if nr < 2 or nt < 2:
        raise ValueError("matrix must be at least 2x2")
    fr, ft, gr, gt, inv_kappa = _acf_operators(nr, nt)
    spec = fr @ m @ ft
    power = spec.real**2 + spec.imag**2
    r = (gr @ power @ gt) * inv_kappa
    r[0, 0] = r[0, 0].real
    return r
