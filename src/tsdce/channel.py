"""Geometric mmWave channel: path sampling, steering vectors, channel
synthesis and the angle <-> spatial-frequency dictionary.

Per-path spatial angular frequencies follow the half-wavelength ULA
convention: omega_aod = pi*cos(aod), omega_aoa = -pi*cos(aoa).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import SeededRng, sample_complex_gaussian


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain plus angles and their
    spatial angular frequencies (radians per antenna index)."""

    gain_magnitude: float
    gain_phase: float
    aod: float
    aoa: float
    omega_aod: float
    omega_aoa: float

    @classmethod
    def from_gain_angles(cls, gain: complex, aod: float, aoa: float) -> "PathParams":
        return cls(
            gain_magnitude=float(abs(gain)),
            gain_phase=float(np.angle(gain)),
            aod=float(aod),
            aoa=float(aoa),
            omega_aod=float(np.pi * np.cos(aod)),
            omega_aoa=float(-np.pi * np.cos(aoa)),
        )

    @property
    def gain(self) -> complex:
        return self.gain_magnitude * np.exp(1j * self.gain_phase)


@dataclass(frozen=True)
class ChannelRealization:
    """Channel matrix H (n_r x n_t) together with its generating paths,
    ordered by decreasing gain magnitude."""

    n_t: int
    n_r: int
    paths: tuple
    h: np.ndarray


def steering_vector(angle: float, n: int) -> np.ndarray:
    """Unit-norm ULA response, Tx and Rx alike: element k =
    exp(-j*pi*k*cos(angle))/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n)
    return np.exp(-1j * np.pi * k * np.cos(angle)) / np.sqrt(n)


def cisoid_sum(gains, omega_aoa, omega_aod, n_r: int, n_t: int) -> np.ndarray:
    """H[m, n] = sum_l g_l exp(j(omega_aoa_l m + omega_aod_l n)), n_r x n_t,
    for scalars (one cisoid) or length-L sequences.

    Separable: (e_r * g) @ e_t with e_r[m, l] = exp(j omega_aoa_l m) and
    e_t[l, n] = exp(j omega_aod_l n), (n_r + n_t) L exponentials instead
    of n_r n_t L.
    """
    e_r = np.exp(1j * (np.arange(n_r)[:, None] * np.reshape(omega_aoa, (1, -1))))
    e_t = np.exp(1j * (np.reshape(omega_aod, (-1, 1)) * np.arange(n_t)))
    return (e_r * np.ravel(gains)) @ e_t


def sample_paths(L: int, rng: SeededRng, angle_range=(0.0, np.pi)):
    """Draw L paths: gains CN(0, 1/L), angles uniform on angle_range.

    Total average path power is unity. Returned list is sorted by
    decreasing gain magnitude so index 0 is always the dominant path.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    lo, hi = angle_range
    if not lo < hi:
        raise ValueError("angle_range must satisfy lo < hi")
    paths = []
    for _ in range(L):
        gain = sample_complex_gaussian(rng, 1.0 / L)
        aod = rng.uniform(lo, hi)
        aoa = rng.uniform(lo, hi)
        paths.append(PathParams.from_gain_angles(gain, aod, aoa))
    paths.sort(key=lambda p: p.gain_magnitude, reverse=True)
    return paths


def build_channel(paths, n_t: int, n_r: int) -> ChannelRealization:
    """Synthesize H[m, n] = sum_l alpha_l exp(j(omega_aoa*m + omega_aod*n))."""
    if n_t < 2 or n_r < 2:
        raise ValueError("n_t and n_r must be >= 2")
    ordered = tuple(sorted(paths, key=lambda p: p.gain_magnitude, reverse=True))
    gains, w_aoa, w_aod = zip(*[(p.gain, p.omega_aoa, p.omega_aod) for p in ordered])
    h = cisoid_sum(gains, w_aoa, w_aod, n_r, n_t)
    return ChannelRealization(n_t=n_t, n_r=n_r, paths=ordered, h=h)


def freq_to_angle(omega: float, side: str) -> float:
    """Invert the frequency map: aod = arccos(omega/pi), aoa = arccos(-omega/pi)."""
    if side not in ("aoa", "aod"):
        raise ValueError(f"side must be 'aoa' or 'aod', got {side!r}")
    x = omega / np.pi
    if abs(x) > 1.0 + 1e-12:
        raise ValueError(f"|omega| must be <= pi, got {omega}")
    x = min(1.0, max(-1.0, x))
    return float(np.arccos(x if side == "aod" else -x))
