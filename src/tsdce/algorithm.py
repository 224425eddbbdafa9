"""TSDCE: transformed spatial domain channel estimation.

Per-path pipeline, in channel units on the spatial LS estimate (the one
place where the spatial-domain scale enters): rank-one extraction,
unbiased 2D autocorrelation, phase differences with wrap-branch
selection, cumulative unwrapping, weighted least-squares slope fits for
the two spatial frequencies, then amplitude and phase of the complex
gain. The successive-interference-cancellation driver `sic` repeats a
component function like this for ``l_desired`` paths over ``rounds``
refinement rounds; `analysis`'s DFT peak pick is another component.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import PathParams, cisoid_sum
from .numkit import acf2d_unbiased
from .observation import wrap


def check_counts(l_desired: int, rounds: int, n_r: int, n_t: int) -> None:
    """TSDCE's range rule on an n_r x n_t array: 1 <= l_desired <= min(n_t, n_r)
    and rounds >= 1."""
    if not 1 <= l_desired <= min(n_t, n_r) or rounds < 1:
        raise ValueError(f"need 1 <= l_desired <= min(n_t, n_r) = {min(n_t, n_r)} and "
                         f"rounds >= 1, got {l_desired} and {rounds}")


def extract_rank_one(residual: np.ndarray) -> np.ndarray:
    """Best rank-one approximation m v v^H (Eckart-Young), with v the top
    eigenvector of m^H m from numpy's ``eigh`` (LAPACK ``zheevd``).

    m is scaled by max|m| first, so tiny or huge entries neither underflow
    nor overflow in the Gram matrix. The Gram matrix is n_t x n_t for every
    shape, so a wide m (n_r < n_t) decomposes the larger of the two. The
    zero matrix gives zeros; non-finite entries raise ``np.linalg.LinAlgError``.
    """
    m = np.asarray(residual, dtype=complex)
    scale = np.abs(m).max()
    if scale == 0:
        return np.zeros_like(m)
    if not np.isfinite(scale):
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    a = m / scale
    v = np.linalg.eigh(a.conj().T @ a)[1][:, -1]  # eigenvalues ascend
    return scale * np.outer(a @ v, v.conj())


def phase_differences(seq: np.ndarray) -> np.ndarray:
    """First-order phase differences of a 1-D lag sequence of the
    autocorrelation (its first column or first row); element 0 is defined
    as zero."""
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
    count = np.count_nonzero(neg)
    if count == 0:
        return delta
    share = count / len(delta)
    cov = (delta[neg].sum() - delta.sum() * share) / len(delta)
    if np.pi * share * (1.0 - share) + cov < 0:
        # [0, 2pi) wrap so the fixed leading zero stays zero instead of
        # turning into a 2pi outlier
        return np.mod(delta, 2.0 * np.pi)
    return delta


@functools.lru_cache(maxsize=None)
def _slope_weights(M: int) -> np.ndarray:
    """Read-only g_M with g_M @ delta the weighted least-squares slope of the
    unwrapped phases cumsum(delta) against index 0..M-1, with the
    inverse-variance weights w_i = (M+1)(M-i)/(i+1) of an unbiased-ACF lag.

    The slope is sum_i c_i y_i with c_i = w_i (i - x_bar) / sum_j w_j (j - x_bar)^2,
    and y_i = sum_{k<=i} delta_k, so g_M is the reverse cumulative sum of c.
    """
    i = np.arange(M, dtype=float)
    w = (M + 1) * (M - i) / (i + 1)
    x_bar = (w * i).sum() / w.sum()
    c = w * (i - x_bar) / (w * (i - x_bar) ** 2).sum()
    g = np.ascontiguousarray(np.cumsum(c[::-1])[::-1])
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


def estimate_amplitude(r: np.ndarray) -> float:
    """Path gain magnitude from the magnitudes of the n_r x n_t ACF ``r`` of
    a channel-unit component at nonzero lags.

    Lags are weighted by their sample count kappa = (n_r-m)(n_t-n); the
    normalization constant is the sum of those weights.
    """
    return float(np.sqrt(np.vdot(_amplitude_weights(*r.shape), np.abs(r))))


def derotated_mean(h, omega_aoa: float, omega_aod: float):
    """Mean of the channel-unit component h derotated by the unit cisoid
    exp(j(omega_aoa m + omega_aod n)), which is the path's LS gain, and that
    cisoid. The mean's phase is the circular-normal maximum-likelihood
    gain phase."""
    cis = cisoid_sum(1.0, omega_aoa, omega_aod, *h.shape)
    return np.vdot(cis, h) / h.size, cis  # vdot conjugates cis


def _estimate_component(h) -> tuple[PathParams, np.ndarray]:
    """Single-path parameter estimation from a channel-unit component h:
    the estimate and its unit cisoid."""
    r = acf2d_unbiased(h)
    # WLS slopes of the unwrapped phases cumsum(delta) along each lag axis
    omega_aoa, omega_aod = (
        wrap(_slope_weights(len(seq)) @ select_wrap_branch(phase_differences(seq)), -np.pi, np.pi)
        for seq in (r[:, 0], r[0, :])
    )
    mean, cis = derotated_mean(h, omega_aoa, omega_aod)
    # a zero mean has no phase, and np.angle(-0.0 + 0j) would give pi
    gain_phase = float(np.angle(mean)) if mean != 0 else 0.0
    return PathParams.from_freqs(estimate_amplitude(r), gain_phase, omega_aod, omega_aoa), cis


def sic(h_ls, component, l_desired: int, rounds: int, trace=None):
    """SIC of ``l_desired`` paths over ``rounds`` rounds on the n_r x n_t
    spatial LS estimate ``h_ls``: ``component(residual, k, l)`` returns path
    l's estimate in round k and its unit cisoid, and must not write into the
    residual, h_ls minus every other path's latest cancellation gain cis. If
    ``trace`` is a list, each step's round, path, residual and estimate are
    appended to it. Returns the estimates in path order."""
    if l_desired < 1 or rounds < 1:
        raise ValueError("l_desired and rounds must be >= 1")
    estimates = {}
    cancel = {}  # path -> its gain times cisoid, rebuilt only when re-estimated
    for k in range(1, rounds + 1):
        for l in range(1, l_desired + 1):
            residual = h_ls.copy()
            for i, c in cancel.items():
                if i != l:
                    residual -= c
            estimates[l], cis = component(residual, k, l)
            cancel[l] = estimates[l].gain * cis
            if trace is not None:
                trace.append(
                    {"round": k, "path": l, "residual": residual, "estimate": estimates[l]}
                )
    return [estimates[l] for l in range(1, l_desired + 1)]


def run(h_ls, l_desired: int, rounds: int, trace=None):
    """Full TSDCE on the n_r x n_t spatial LS estimate ``h_ls``, within
    `check_counts`: `sic` whose component takes the rank-one SVD step in round
    1 while later paths remain unestimated (and always when a single path is
    requested); from round 2 on it uses the cancellation residual itself."""
    check_counts(l_desired, rounds, *h_ls.shape)

    def component(residual, k, l):
        if k == 1 and (l < l_desired or l_desired == 1):
            residual = extract_rank_one(residual)
        return _estimate_component(residual)

    return sic(h_ls, component, l_desired, rounds, trace)
