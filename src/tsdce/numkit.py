"""Numerical kernel: seeded complex Gaussian sampling, 2D DFT/IDFT,
dominant singular triplet and the unbiased 2D sample autocorrelation.

All matrix arguments are dense complex numpy arrays. Functions are pure;
``SeededRng`` is the single piece of mutable state and is not safe for
concurrent mutation; the Monte Carlo sweep runs its trials serially,
each on its own substream.
"""

from __future__ import annotations

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


def acf2d_unbiased(m: np.ndarray) -> np.ndarray:
    """Unbiased 2D sample autocorrelation over non-negative lags.

    R[dm, dn] = (1/kappa) * sum_{u,v} conj(M[u, v]) M[u+dm, v+dn] with
    kappa = (n_r - dm)(n_t - dn); exact on pure cisoids at every lag.

    Computed through a zero-padded FFT (linear correlation); the direct
    double loop gives the same values to machine precision.
    """
    m = np.asarray(m, dtype=complex)
    nr, nt = m.shape
    if nr < 2 or nt < 2:
        raise ValueError("matrix must be at least 2x2")
    spec = np.fft.fft2(m, s=(2 * nr, 2 * nt))
    corr = np.fft.ifft2(spec.conj() * spec)[:nr, :nt]
    kappa = (nr - np.arange(nr))[:, None] * (nt - np.arange(nt))[None, :]
    r = corr / kappa
    r[0, 0] = r[0, 0].real
    return r
