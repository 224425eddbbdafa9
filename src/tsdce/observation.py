"""DFT codebook construction, noisy observation synthesis and the
transformed spatial domain pipeline (IDFT, informative crop, noise
variance estimate, spatial LS channel estimate)."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import ChannelRealization, steering_vector
from .numkit import SeededRng, dft2d, sample_complex_gaussian


def wrap(x, lo: float, hi: float):
    """Wrap x into (lo, hi] via x - (hi-lo)*ceil((x-hi)/(hi-lo)).

    Works elementwise on arrays. Periodic with period hi-lo.
    """
    if not lo < hi:
        raise ValueError("wrap requires lo < hi")
    span = hi - lo
    x = np.asarray(x, dtype=float)
    out = x - span * np.ceil((x - hi) / span)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Codebook:
    """DFT-structured beam codebook: quantized beam cosines and the
    beamforming (f: n_t x P) / combining (w: n_r x Q) matrices."""

    p_count: int
    q_count: int
    tx_cosines: np.ndarray
    rx_cosines: np.ndarray
    f: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class Observation:
    """Q x P angular-domain measurement with its SNR bookkeeping."""

    y: np.ndarray
    rho: float
    sigma_n_sq: float


@dataclass(frozen=True)
class SpatialObservation:
    """IDFT of the observation, its informative n_r x n_t crop and the
    out-of-mask noise variance estimate (absent when the mask fills the
    whole transform)."""

    d: np.ndarray
    d_bar: np.ndarray
    mask_rows: int
    mask_cols: int
    sigma_z_sq_hat: Optional[float]


@functools.lru_cache(maxsize=None)
def build_codebook(P: int, Q: int, n_t: int, n_r: int) -> Codebook:
    """Codebook whose beams make W^H H F a 2D-DFT of the windowed channel.

    Beam cosines are the wrapped uniform grids 2p/P and -2q/Q; columns of
    f and w are unit-norm steering vectors at the corresponding angles.
    Built once per (P, Q, n_t, n_r) and shared, so its arrays are
    read-only.
    """
    if P < n_t or Q < n_r:
        raise ValueError(
            f"codebook must satisfy P >= n_t and Q >= n_r, got P={P}, Q={Q}, "
            f"n_t={n_t}, n_r={n_r}"
        )
    tx_cos = wrap(2.0 * np.arange(P) / P, -1.0, 1.0)
    rx_cos = wrap(-2.0 * np.arange(Q) / Q, -1.0, 1.0)
    f = np.stack([steering_vector(np.arccos(c), n_t) for c in tx_cos], axis=1)
    w = np.stack([steering_vector(np.arccos(c), n_r) for c in rx_cos], axis=1)
    for a in (tx_cos, rx_cos, f, w):
        a.setflags(write=False)
    return Codebook(p_count=P, q_count=Q, tx_cosines=tx_cos, rx_cosines=rx_cos, f=f, w=w)


def synthesize_observation(
    ch: ChannelRealization,
    cb: Codebook,
    rho: float,
    sigma_n_sq: float,
    rng: Optional[SeededRng] = None,
) -> Observation:
    """Y = sqrt(rho) * W^H H F + N with N i.i.d. CN(0, sigma_n_sq)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if sigma_n_sq < 0:
        raise ValueError("sigma_n_sq must be non-negative")
    y = np.sqrt(rho) * (cb.w.conj().T @ ch.h @ cb.f)
    if sigma_n_sq > 0:
        if rng is None:
            raise ValueError("rng is required when sigma_n_sq > 0")
        y = y + sample_complex_gaussian(rng, sigma_n_sq, size=y.shape)
    return Observation(y=y, rho=float(rho), sigma_n_sq=float(sigma_n_sq))


def to_spatial(obs: Observation, n_t: int, n_r: int) -> SpatialObservation:
    """IDFT the observation and crop the informative top-left block.

    When the codebook is strictly larger than the array, the entries
    outside the crop are pure noise and their mean power estimates the
    spatial-domain noise variance.
    """
    q_count, p_count = obs.y.shape
    if q_count < n_r or p_count < n_t:
        raise ValueError("observation smaller than the requested crop")
    d = dft2d(obs.y, inverse=True)
    d_bar = d[:n_r, :n_t].copy()
    if q_count * p_count > n_t * n_r:
        mask = np.ones(d.shape, dtype=bool)
        mask[:n_r, :n_t] = False
        sigma_z_sq_hat = float(np.mean(np.abs(d[mask]) ** 2))
    else:
        sigma_z_sq_hat = None
    return SpatialObservation(
        d=d, d_bar=d_bar, mask_rows=n_r, mask_cols=n_t, sigma_z_sq_hat=sigma_z_sq_hat
    )


def spatial_ls_estimate(sp: SpatialObservation, rho: float) -> np.ndarray:
    """Channel estimate sqrt(n_t*n_r/rho) * d_bar; equals the explicit LS
    solution exactly thanks to codebook column orthogonality."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return np.sqrt(sp.mask_rows * sp.mask_cols / rho) * sp.d_bar


def snr_in_spatial_domain(snr: float, P: int, Q: int, n_t: int, n_r: int) -> float:
    """SNR gain of the informative crop: SNR * QP/(n_t*n_r)."""
    if min(P, Q, n_t, n_r) < 1:
        raise ValueError("all counts must be >= 1")
    return snr * Q * P / (n_t * n_r)
