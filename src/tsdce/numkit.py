"""Numerical kernel: seeded complex Gaussian sampling, 2D DFT/IDFT,
dominant singular triplet and the unbiased 2D sample autocorrelation.

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
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

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


def dft2d(m: np.ndarray, inverse: bool = False) -> np.ndarray:
    """2D DFT with unnormalized forward and 1/(QP)-scaled inverse.

    Under this convention the inverse transform of white noise with
    variance s2 has element variance s2/(QP), and the transforms
    round-trip exactly: dft2d(dft2d(M), inverse=True) == M.
    """
    m = np.asarray(m, dtype=complex)
    return np.fft.ifft2(m) if inverse else np.fft.fft2(m)


def dominant_singular_triplet(m):
    """Leading singular triplet (s, u, v) of ``m`` from LAPACK's SVD.

    The phase ambiguity is fixed by rotating so the first nonzero entry
    of ``u`` is real and positive (the compensating phase goes into
    ``v``), making the triplet deterministic. The zero matrix returns
    s = 0 with u and v the first unit vectors.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        raise ValueError("matrix must be non-empty")
    nr, nt = m.shape
    if not m.any():
        u = np.zeros(nr, dtype=complex)
        v = np.zeros(nt, dtype=complex)
        u[0] = 1.0
        v[0] = 1.0
        return 0.0, u, v
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return _fix_phase(s[0], u[:, 0], vh[0].conj())


def _fix_phase(s, u, v):
    idx = np.flatnonzero(np.abs(u) > 0)
    if idx.size:
        phase = u[idx[0]] / np.abs(u[idx[0]])
        u = u / phase
        v = v / phase  # u v^H is invariant: conj(phase) cancels in v^H
    return float(s), u, v


@functools.lru_cache(maxsize=None)
def _acf_operators(nr: int, nt: int):
    """Read-only per-shape constants of `acf2d_unbiased`: the zero-padded
    DFT factors F_r (2nr x nr) and F_t (nt x 2nt), the inverse DFT
    factors cropped to non-negative lags and 1/kappa."""
    def dft(n):  # first n columns of the 2n-point DFT; exponent reduced mod 2n
        return np.exp(-1j * np.pi * (np.outer(np.arange(2 * n), np.arange(n)) % (2 * n)) / n)

    fr, ft = dft(nr), dft(nt).T
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
