"""DFT codebook construction, noisy observation synthesis and the
transformed spatial domain: the spatial LS channel estimate (the IDFT's
informative crop, rescaled) and the out-of-crop noise variance estimate."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numkit import SeededRng, dft_columns, sample_complex_gaussian


@dataclass(frozen=True)
class Codebook:
    """DFT-structured beam codebook: the beamforming (f: n_t x P) and
    combining (w: n_r x Q) matrices."""

    f: np.ndarray
    w: np.ndarray


@functools.lru_cache(maxsize=None)
def build_codebook(P: int, Q: int, n_t: int, n_r: int) -> Codebook:
    """Codebook whose beams make W^H H F a 2D-DFT of the windowed channel.

    Columns of f and w are unit-norm steering vectors at the beam cosines
    2p/P and -2q/Q: f[k, p] = exp(-2 pi j k p / P) / sqrt(n_t) and
    w[k, q] = exp(2 pi j k q / Q) / sqrt(n_r), read off the cached DFT
    matrices (`dft_columns`). So W^H H F is the Q x P 2D DFT of H
    zero-padded, over sqrt(n_t n_r). Built once per (P, Q, n_t, n_r) and
    shared, so its arrays are read-only.
    """
    if P < n_t or Q < n_r:
        raise ValueError(
            f"codebook must satisfy P >= n_t and Q >= n_r, got P={P}, Q={Q}, "
            f"n_t={n_t}, n_r={n_r}"
        )
    f = np.ascontiguousarray(dft_columns(P, n_t).T / np.sqrt(n_t))
    w = np.ascontiguousarray(dft_columns(Q, n_r).conj().T / np.sqrt(n_r))
    for a in (f, w):
        a.setflags(write=False)
    return Codebook(f=f, w=w)


def synthesize_observation(
    h: np.ndarray, cb: Codebook, sigma_n_sq: float, rng: Optional[SeededRng] = None
) -> np.ndarray:
    """The Q x P angular-domain measurement Y = W^H H F + N of the channel h,
    with N i.i.d. CN(0, sigma_n_sq)."""
    if sigma_n_sq < 0:
        raise ValueError("sigma_n_sq must be non-negative")
    y = cb.w.conj().T @ h @ cb.f
    if sigma_n_sq > 0:
        if rng is None:
            raise ValueError("rng is required when sigma_n_sq > 0")
        y = y + sample_complex_gaussian(rng, sigma_n_sq, size=y.shape)
    return y


def to_spatial(y: np.ndarray, n_t: int, n_r: int) -> np.ndarray:
    """The n_r x n_t spatial LS channel estimate sqrt(n_t n_r) * D_bar, with
    D_bar the informative top-left crop of the IDFT of the Q x P observation
    y; it equals the explicit LS solution by codebook column orthogonality."""
    if y.shape[0] < n_r or y.shape[1] < n_t:
        raise ValueError("observation smaller than the requested crop")
    return np.sqrt(n_t * n_r) * np.fft.ifft2(y)[:n_r, :n_t]


def noise_variance_estimate(y: np.ndarray, n_t: int, n_r: int) -> Optional[float]:
    """Mean power of the IDFT of the Q x P observation y outside its n_r x n_t
    crop, which is pure noise: it estimates the spatial-domain noise variance
    sigma_n^2/(QP). None when the crop fills the whole transform."""
    if y.shape[0] < n_r or y.shape[1] < n_t:
        raise ValueError("observation smaller than the requested crop")
    if y.size == n_t * n_r:
        return None
    mask = np.ones(y.shape, dtype=bool)
    mask[:n_r, :n_t] = False
    return float(np.mean(np.abs(np.fft.ifft2(y)[mask]) ** 2))


def snr_in_spatial_domain(snr: float, P: int, Q: int, n_t: int, n_r: int) -> float:
    """SNR gain of the informative crop: SNR * QP/(n_t*n_r)."""
    if min(P, Q, n_t, n_r) < 1:
        raise ValueError("all counts must be >= 1")
    return snr * Q * P / (n_t * n_r)
