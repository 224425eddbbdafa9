"""Geometric mmWave channel: path sampling, channel synthesis and the
angle <-> spatial-frequency dictionary.

Per-path spatial angular frequencies follow the half-wavelength ULA
convention: omega_aod = pi*cos(aod), omega_aoa = -pi*cos(aoa), and
`wrap_phase` maps any frequency into their range (-pi, pi].
"""

from __future__ import annotations

import functools
import math
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

    @classmethod
    def from_freqs(cls, gain_magnitude, gain_phase, omega_aod, omega_aoa) -> "PathParams":
        """Invert the frequency map: aod = arccos(omega_aod/pi) and
        aoa = arccos(-omega_aoa/pi), with |omega| <= pi up to 1e-12 relative
        and each cosine clipped to [-1, 1]."""
        cosines = (omega_aod / np.pi, -omega_aoa / np.pi)
        if max(abs(c) for c in cosines) > 1.0 + 1e-12:
            raise ValueError(f"|omega| must be <= pi, got {omega_aod} and {omega_aoa}")
        aod, aoa = (float(np.arccos(min(1.0, max(-1.0, c)))) for c in cosines)
        return cls(
            gain_magnitude=float(gain_magnitude),
            gain_phase=float(gain_phase),
            aod=aod,
            aoa=aoa,
            omega_aod=float(omega_aod),
            omega_aoa=float(omega_aoa),
        )

    @property
    def gain(self) -> complex:
        return self.gain_magnitude * np.exp(1j * self.gain_phase)


@functools.lru_cache(maxsize=None)
def _index(n: int) -> np.ndarray:
    """Read-only array index 0..n-1 as floats."""
    i = np.arange(n, dtype=float)
    i.setflags(write=False)
    return i


def cisoid_sum(gains, omega_aoa, omega_aod, n_r: int, n_t: int) -> np.ndarray:
    """H[m, n] = sum_l g_l exp(j(omega_aoa_l m + omega_aod_l n)), n_r x n_t,
    for scalars (one cisoid) or length-L sequences.

    Separable: (e_r * g) @ e_t with e_r[m, l] = exp(j omega_aoa_l m) and
    e_t[l, n] = exp(j omega_aod_l n), (n_r + n_t) L exponentials instead
    of n_r n_t L. One cisoid is the outer product of its two factors.
    """
    if isinstance(omega_aoa, float):  # np.float64 too
        e_r = gains * np.exp(1j * omega_aoa * _index(n_r))
        return e_r[:, None] * np.exp(1j * omega_aod * _index(n_t))
    e_r, e_t = _steering_factors(omega_aoa, omega_aod, n_r, n_t)
    return (e_r * np.ravel(gains)) @ e_t


def _steering_factors(omega_aoa, omega_aod, n_r: int, n_t: int):
    """The factors of `cisoid_sum` for length-L frequencies: e_r[m, l] =
    exp(j omega_aoa_l m), n_r x L, and e_t[l, n] = exp(j omega_aod_l n), L x n_t."""
    e_r = np.exp(1j * (_index(n_r)[:, None] * np.reshape(omega_aoa, (1, -1))))
    e_t = np.exp(1j * (np.reshape(omega_aod, (-1, 1)) * _index(n_t)))
    return e_r, e_t


def sample_paths(L: int, rng: SeededRng, angle_range=(0.0, np.pi)):
    """Draw L paths: gains CN(0, 1/L), angles uniform on angle_range within [0, pi].

    Total average path power is unity. Returned list is sorted by
    decreasing gain magnitude so index 0 is always the dominant path.
    """
    if L < 1:
        raise ValueError(f"the path count must be >= 1, got {L}")
    if len(angle_range) != 2 or not 0.0 <= angle_range[0] < angle_range[1] <= np.pi:
        raise ValueError(f"angle_range must be two angles 0 <= lo < hi <= pi, got {angle_range}")
    lo, hi = angle_range
    paths = []
    for _ in range(L):
        gain = sample_complex_gaussian(rng, 1.0 / L)
        aod = rng.uniform(lo, hi)
        aoa = rng.uniform(lo, hi)
        paths.append(PathParams.from_gain_angles(gain, aod, aoa))
    paths.sort(key=lambda p: p.gain_magnitude, reverse=True)
    return paths


def build_channel(paths, n_t: int, n_r: int) -> np.ndarray:
    """The n_r x n_t channel H[m, n] = sum_l alpha_l exp(j(omega_aoa*m + omega_aod*n))
    of true paths or their estimates, summed in the order given."""
    if n_t < 2 or n_r < 2:
        raise ValueError(f"n_t and n_r must be >= 2, got {n_t} and {n_r}")
    if not paths:
        raise ValueError("need at least one path")
    gains, w_aoa, w_aod = zip(*[(p.gain, p.omega_aoa, p.omega_aod) for p in paths])
    return cisoid_sum(gains, w_aoa, w_aod, n_r, n_t)


def wrap_phase(x) -> float:
    """x wrapped into (-pi, pi] as x - 2pi ceil((x - pi)/2pi): +0.0 for
    either zero, NaN for a non-finite x."""
    q = (x - math.pi) / (2 * math.pi)
    if not math.isfinite(q):
        return math.nan
    return float(x - 2 * math.pi * math.ceil(q)) + 0.0  # -0.0 + 0.0 is +0.0
