"""TSDCE: transformed spatial domain channel estimation.

Per-path pipeline: rank-one extraction of the spatial-domain crop,
unbiased 2D autocorrelation, phase differences with wrap-branch
selection, cumulative unwrapping, weighted least-squares slope fits for
the two spatial frequencies, then amplitude and phase of the complex
gain. The successive-interference-cancellation driver `sic` repeats a
component function like this for ``l_desired`` paths over ``rounds``
refinement rounds; `analysis`'s DFT peak pick is another component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import PathParams, cisoid_sum
from .numkit import acf2d_unbiased, dominant_singular_triplet
from .observation import Observation, to_spatial, wrap


@dataclass(frozen=True)
class TsdceConfig:
    l_desired: int
    rounds: int
    rho: float
    n_t: int
    n_r: int

    def __post_init__(self):
        if self.l_desired < 1 or self.rounds < 1:
            raise ValueError("l_desired and rounds must be >= 1")
        if self.l_desired > min(self.n_t, self.n_r):
            raise ValueError("l_desired must not exceed min(n_t, n_r)")
        if not self.rho > 0:
            raise ValueError("rho must be positive")


def extract_rank_one(residual: np.ndarray) -> np.ndarray:
    """Best rank-one approximation from the dominant singular triplet."""
    s, u, v = dominant_singular_triplet(residual)
    return s * np.outer(u, v.conj())


def phase_differences(r: np.ndarray, axis: str) -> np.ndarray:
    """First-order phase differences along the first column or first row
    of the autocorrelation; element 0 is defined as zero."""
    if axis == "col0":
        seq = r[:, 0]
    elif axis == "row0":
        seq = r[0, :]
    else:
        raise ValueError(f"axis must be 'row0' or 'col0', got {axis!r}")
    delta = np.zeros(len(seq))
    delta[1:] = np.angle(seq[1:] * np.conj(seq[:-1]))
    return delta


def select_wrap_branch(delta: np.ndarray) -> np.ndarray:
    """Keep the differences as-is or rewrap them to [0, 2pi], whichever
    branch has the smaller sample variance. Ties keep the original.

    A frequency near +-pi makes the principal-value differences flip
    sign; the [0, 2pi] branch removes those flips. It adds exactly 2pi to
    the negative entries (indicator k), so var(wrapped) - var(delta) =
    4pi^2 var(k) + 4pi cov(delta, k); no negative entry means a tie.
    """
    delta = np.asarray(delta, dtype=float)
    if len(delta) < 2:
        raise ValueError("need at least two phase differences")
    neg = delta < 0
    share = np.count_nonzero(neg) / len(delta)
    cov = (delta[neg].sum() - delta.sum() * share) / len(delta)
    if share > 0 and np.pi * share * (1.0 - share) + cov < 0:
        # [0, 2pi) wrap so the fixed leading zero stays zero instead of
        # turning into a 2pi outlier
        return np.mod(delta, 2.0 * np.pi)
    return delta


def wls_weights(M: int) -> np.ndarray:
    """Inverse-variance weights w_i = (M+1)(M-i)/(i+1) for the unwrapped
    phases of an unbiased-ACF slope fit; strictly decreasing in i."""
    if M < 2:
        raise ValueError("M must be >= 2")
    i = np.arange(M, dtype=float)
    return (M + 1) * (M - i) / (i + 1)


def wls_slope(phases: np.ndarray, weights: np.ndarray) -> float:
    """Weighted least-squares slope of ``phases`` against index 0..M-1."""
    phases = np.asarray(phases, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if phases.shape != weights.shape or len(phases) < 2:
        raise ValueError("phases and weights must be equal-length, >= 2")
    i = np.arange(len(phases), dtype=float)
    wsum = weights.sum()
    x_bar = (weights * i).sum() / wsum
    y_bar = (weights * phases).sum() / wsum
    denom = (weights * (i - x_bar) ** 2).sum()
    return float((weights * (i - x_bar) * (phases - y_bar)).sum() / denom)


@functools.lru_cache(maxsize=None)
def _slope_weights(M: int) -> np.ndarray:
    """Read-only g_M with g_M @ delta == wls_slope(cumsum(delta), wls_weights(M)):
    the slope is linear in the phases, so g_M[k] is the slope of the k-th
    unit step, the cumsum of the k-th unit vector."""
    w = wls_weights(M)
    g = np.array([wls_slope(step, w) for step in np.tri(M).T])
    g.setflags(write=False)
    return g


@functools.lru_cache(maxsize=None)
def _amplitude_weights(n_r: int, n_t: int) -> np.ndarray:
    """Read-only lag weights kappa / norm of `estimate_amplitude`, 0 at lag 0."""
    norm = 0.25 * n_r * (n_r + 1) * n_t * (n_t + 1) - n_t * n_r
    weights = np.outer(n_r - np.arange(n_r), n_t - np.arange(n_t)) / norm
    weights[0, 0] = 0.0
    weights.setflags(write=False)
    return weights


def estimate_amplitude(r: np.ndarray, rho: float, n_t: int, n_r: int) -> float:
    """Path gain magnitude from the ACF magnitudes at nonzero lags.

    Lags are weighted by their sample count kappa = (n_r-m)(n_t-n); the
    normalization constant is the sum of those weights.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    a1_sq = np.vdot(_amplitude_weights(n_r, n_t), np.abs(r)) / rho
    return float(np.sqrt(n_t * n_r) * np.sqrt(a1_sq))


def derotated_mean(d, omega_aoa: float, omega_aod: float, rho: float):
    """Mean of the spatial observation d derotated by the unit cisoid
    exp(j(omega_aoa m + omega_aod n)) and divided by sqrt(rho), and that
    cisoid. The mean's phase is the circular-normal maximum-likelihood
    gain phase."""
    cis = cisoid_sum(1.0, omega_aoa, omega_aod, *d.shape)
    return np.vdot(cis, d) / (d.size * np.sqrt(rho)), cis  # vdot conjugates cis


def _estimate_component(d_tilde, rho, n_t, n_r) -> tuple[PathParams, np.ndarray]:
    """Single-path parameter estimation from a spatial-domain component:
    the estimate and its unit cisoid."""
    r = acf2d_unbiased(d_tilde)
    omegas = {}
    for axis, M in (("col0", n_r), ("row0", n_t)):
        delta = select_wrap_branch(phase_differences(r, axis))
        # WLS slope of the unwrapped phases cumsum(delta)
        omegas[axis] = wrap(_slope_weights(M) @ delta, -np.pi, np.pi)
    gain_mag = estimate_amplitude(r, rho, n_t, n_r)
    mean, cis = derotated_mean(d_tilde, omegas["col0"], omegas["row0"], rho)
    # a zero mean has no phase, and np.angle(-0.0 + 0j) would give pi
    gain_phase = float(np.angle(mean)) if mean != 0 else 0.0
    return PathParams.from_freqs(gain_mag, gain_phase, omegas["row0"], omegas["col0"]), cis


def sic(d_bar, component, l_desired: int, rounds: int, rho: float, trace=None):
    """SIC of ``l_desired`` paths over ``rounds`` rounds on the n_r x n_t crop
    ``d_bar``: ``component(residual, k, l)`` returns path l's estimate in
    round k and its unit cisoid, and must not write into the residual, d_bar
    minus every other path's latest cancellation sqrt(rho / (n_t n_r)) gain
    cis. If ``trace`` is a list, each step's round, path, residual and
    estimate are appended to it. Returns the estimates in path order."""
    scale = np.sqrt(rho / d_bar.size)
    estimates = {}
    cancel = {}  # path -> its scaled cisoid, rebuilt only when re-estimated
    for k in range(1, rounds + 1):
        for l in range(1, l_desired + 1):
            residual = d_bar.copy()
            for i, c in cancel.items():
                if i != l:
                    residual -= c
            estimates[l], cis = component(residual, k, l)
            cancel[l] = (scale * estimates[l].gain) * cis
            if trace is not None:
                trace.append(
                    {"round": k, "path": l, "residual": residual, "estimate": estimates[l]}
                )
    return [estimates[l] for l in range(1, l_desired + 1)]


def run(obs: Observation, cfg: TsdceConfig, trace=None):
    """Full TSDCE: `sic` whose component takes the rank-one SVD step in round
    1 while later paths remain unestimated (and always when a single path is
    requested); from round 2 on it uses the cancellation residual itself."""
    def component(residual, k, l):
        if k == 1 and (l < cfg.l_desired or cfg.l_desired == 1):
            residual = extract_rank_one(residual)
        return _estimate_component(residual, cfg.rho, cfg.n_t, cfg.n_r)

    d_bar = to_spatial(obs, cfg.n_t, cfg.n_r).d_bar
    return sic(d_bar, component, cfg.l_desired, cfg.rounds, cfg.rho, trace)


def reconstruct_channel(estimates, n_t: int, n_r: int) -> np.ndarray:
    """Rebuild the channel matrix from estimated path parameters."""
    if not estimates:
        raise ValueError("need at least one path estimate")
    gains, w_aoa, w_aod = zip(*[(e.gain, e.omega_aoa, e.omega_aod) for e in estimates])
    return cisoid_sum(gains, w_aoa, w_aod, n_r, n_t)
