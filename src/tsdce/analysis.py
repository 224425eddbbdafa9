"""Baselines and analytic bounds.

Contains the explicit least-squares estimator, a simplified DFT
peak-pick/cancel baseline, the single-path upper bound, the multi-path
upper bound built from the exact finite-N means of the ordered noise
eigenvalues (Laguerre unitary ensemble), and the closed-form
Cramer-Rao bound on the channel matrix from the Fisher information of the
path parameters. The paper's model of those means, as order statistics of
independent Marchenko-Pastur draws, is kept as
`iid_ordered_eigenvalue_mean`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import integrate
from scipy.special import gammaln, roots_laguerre

from .channel import ChannelRealization, PathParams, cisoid_sum
from .observation import Codebook, Observation, to_spatial


class RankDeficiencyError(ValueError):
    """LS system does not have full column rank (QP < n_t * n_r)."""


def ls_estimate_explicit(obs: Observation, cb: Codebook) -> np.ndarray:
    """Least-squares channel estimate from the vectorized observation.

    The normal equations collapse to a scaled matrix product because the
    Kronecker system matrix has orthogonal columns with squared norm
    QP/(n_t n_r); the Kronecker matrix itself is never formed.
    """
    n_t = cb.f.shape[0]
    n_r = cb.w.shape[0]
    q_count, p_count = obs.y.shape
    if q_count * p_count < n_t * n_r:
        raise RankDeficiencyError(
            f"LS needs QP >= n_t*n_r, got {q_count * p_count} < {n_t * n_r}"
        )
    scale = n_t * n_r / (q_count * p_count * np.sqrt(obs.rho))
    return scale * (cb.w @ obs.y @ cb.f.conj().T)


def dft_peak_baseline(
    obs: Observation, L_d: int, n_dft: int = 1024, *, n_t: int, n_r: int, workers: int = 1
):
    """Simplified DFT-domain peak-pick baseline with iterative cancellation.

    Zero-pads the informative spatial crop to n_dft x n_dft, reads the
    strongest DFT bin as the frequency pair, estimates the complex gain
    by derotated averaging, cancels the reconstructed cisoid and repeats.
    Frequency accuracy is limited to the bin width 2*pi/n_dft.

    The padded 2D DFT is pruned: the row pass transforms only the n_r
    nonzero rows, the column pass then fills the whole n_dft x n_dft
    spectrum, which is searched in full (an exact tie between two bins
    goes to the lower AoD bin). ``workers`` threads share each pass; the
    estimates do not depend on it.
    """
    q_count, p_count = obs.y.shape
    if n_dft < max(q_count, p_count) or (n_dft & (n_dft - 1)) != 0:
        raise ValueError("n_dft must be a power of two >= max(Q, P)")
    sp = to_spatial(obs, n_t, n_r)
    work = sp.d_bar
    estimates = []
    for _ in range(L_d):
        rows = sp_fft.fft(work, n=n_dft, axis=1, workers=workers)
        # column pass on the transpose, so each transform writes contiguous
        # memory (twice as fast as a strided axis-0 pass); spectrum_t[p, q]
        # holds the padded 2D DFT at (q, p)
        spectrum_t = sp_fft.fft(rows.T, n=n_dft, axis=1, workers=workers)
        pi_, qi = np.unravel_index(np.argmax(np.abs(spectrum_t)), spectrum_t.shape)
        omega_aoa = 2 * np.pi * qi / n_dft
        omega_aod = 2 * np.pi * pi_ / n_dft
        if omega_aoa > np.pi:
            omega_aoa -= 2 * np.pi
        if omega_aod > np.pi:
            omega_aod -= 2 * np.pi
        cis = cisoid_sum(1.0, omega_aoa, omega_aod, n_r, n_t)
        a_hat = np.vdot(cis, work) / (work.size * np.sqrt(obs.rho))  # derotated mean
        gain = np.sqrt(n_t * n_r) * a_hat
        estimates.append(
            PathParams.from_freqs(abs(gain), np.angle(gain), omega_aod, omega_aoa)
        )
        work = work - np.sqrt(obs.rho) * a_hat * cis
    return estimates


def upper_bound_single_path(snr_c: float, n_t: int, n_r: int) -> float:
    """Mean-SSE upper bound (sqrt(n_r)+sqrt(n_t))^2 / SNR_C for L = 1."""
    if snr_c <= 0:
        raise ValueError("snr_c must be positive")
    return (np.sqrt(n_r) + np.sqrt(n_t)) ** 2 / snr_c


@dataclass(frozen=True)
class MarchenkoPastur:
    """Marchenko-Pastur eigenvalue law for (1/n_t) Z^H Z with CN(0, s2)
    entries, aspect ratio c = n_r/n_t in (0, 1]."""

    sigma_z_sq: float
    c: float
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        if self.sigma_z_sq <= 0:
            raise ValueError("sigma_z_sq must be positive")
        if not 0 < self.c <= 1:
            raise ValueError("c must lie in (0, 1]")
        sq = np.sqrt(self.c)
        object.__setattr__(self, "a", self.sigma_z_sq * (1 - sq) ** 2)
        object.__setattr__(self, "b", self.sigma_z_sq * (1 + sq) ** 2)


def mp_density(mp: MarchenkoPastur, x) -> np.ndarray:
    """Density sqrt((x-a)(b-x)) / (2 pi s2 c x) on (a, b), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > mp.a) & (x < mp.b)
    xi = x[inside]
    out[inside] = np.sqrt((xi - mp.a) * (mp.b - xi)) / (
        2 * np.pi * mp.sigma_z_sq * mp.c * xi
    )
    return float(out) if out.ndim == 0 else out


def _mp_primitive(mp: MarchenkoPastur, x) -> np.ndarray:
    """Closed-form antiderivative of the (unnormalized) density."""
    a, b = mp.a, mp.b
    x = np.clip(np.asarray(x, dtype=float), a, b)
    root = np.sqrt(np.maximum((x - a) * (b - x), 0.0))
    t1 = np.clip((2 * x - a - b) / (b - a), -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = np.where(x > 0, ((a + b) * x - 2 * a * b) / (x * (b - a)), -1.0)
    t2 = np.clip(t2, -1.0, 1.0)
    return root + 0.5 * (a + b) * np.arcsin(t1) - np.sqrt(a * b) * np.arcsin(t2)


def mp_cdf(mp: MarchenkoPastur, x) -> np.ndarray:
    """CDF via the antiderivative, normalized so F(a)=0 and F(b)=1.

    Endpoint normalization makes the result independent of the constant
    factor the raw antiderivative carries.
    """
    fa = _mp_primitive(mp, mp.a)
    fb = _mp_primitive(mp, mp.b)
    val = (_mp_primitive(mp, x) - fa) / (fb - fa)
    return np.clip(val, 0.0, 1.0)


def _log_order_factor(n_r: int, l: int) -> float:
    # log of (n_r - l + 1) * C(n_r, n_r - l + 1), kept in log space so
    # n_r = 64 does not overflow.
    k = n_r - l + 1
    log_binom = gammaln(n_r + 1) - gammaln(k + 1) - gammaln(n_r - k + 1)
    return np.log(k) + log_binom


def iid_ordered_eigenvalue_mean(mp: MarchenkoPastur, l: int, n_r: int) -> float:
    """Mean of the l-th largest of n_r independent draws from the MP law.

    This is the paper's model behind Lemma 4, kept so that the bound as
    published can be reproduced. It ignores the repulsion between the
    eigenvalues of one Wishart matrix; `ordered_eigenvalue_mean` is the
    exact finite-N mean. Integrates x * f_order(x) over (a, b) with the
    substitution x = a + (b-a) sin^2(t), which removes the square-root
    endpoint singularities of the density.
    """
    if not 1 <= l <= n_r:
        raise ValueError("rank index l must lie in 1..n_r")
    log_c = _log_order_factor(n_r, l)

    def integrand(t):
        x = mp.a + (mp.b - mp.a) * np.sin(t) ** 2
        dx = (mp.b - mp.a) * 2.0 * np.sin(t) * np.cos(t)
        f = float(mp_density(mp, x))
        cdf = float(mp_cdf(mp, x))
        if (n_r - l) > 0 and cdf <= 0.0:
            return 0.0
        if (l - 1) > 0 and cdf >= 1.0:
            return 0.0
        log_w = 0.0
        if n_r - l > 0:
            log_w += (n_r - l) * np.log(cdf)
        if l - 1 > 0:
            log_w += (l - 1) * np.log(1.0 - cdf)
        return x * f * np.exp(log_c + log_w) * dx

    val, err = integrate.quad(integrand, 0.0, np.pi / 2, epsabs=1e-10, limit=200)
    if not np.isfinite(val):
        raise ArithmeticError(f"order-statistic quadrature failed (err={err})")
    return float(val)


@functools.lru_cache(maxsize=None)
def _laguerre_ordered_means(n_r: int, n_t: int) -> np.ndarray:
    """Means of the eigenvalues of Z^H Z, largest first, for an n_t x n_r
    matrix Z with CN(0, 1) entries and n_t >= n_r.

    The eigenvalues form the Laguerre unitary ensemble with weight
    x^alpha e^-x, alpha = n_t - n_r. Its correlation kernel is the
    projection onto the first n_r orthonormal Laguerre functions phi_k, so
    the number of eigenvalues in (s, inf) is Poisson-binomial, with success
    probabilities the eigenvalues of the Gram matrix of the phi_k on
    (s, inf) (F. Bornemann, arXiv:0904.1581). Then the l-th largest
    eigenvalue has mean int_0^inf P(count >= l) ds.

    After the shift x = s + t, each Gram entry integrates over t > 0 the
    weight e^-t times a polynomial of degree at most 2 n_r - 2 + alpha in
    t, so Gauss-Laguerre with n_r + alpha // 2 nodes gives it exactly. The s-integral of every rank
    is one tanh-sinh quadrature over shared abscissae, which evaluates
    each batch of abscissae at once. The table is cached per (n_r, n_t)
    and returned read-only.
    """
    alpha = n_t - n_r
    t, w = roots_laguerre(n_r + alpha // 2)
    root_w = np.sqrt(w * np.exp(t))
    k = np.arange(n_r)
    # sqrt(k (k + alpha)): the three-term recurrence of the orthonormal phi_k
    step = np.sqrt(k * (k + alpha))

    def rank_tails(s_all):
        # every rank has the same limits, so every row holds the same abscissae
        s = s_all.reshape(n_r, -1)[0]
        x = s[:, None] + t
        phi = np.empty((n_r,) + x.shape)
        phi[0] = np.exp(0.5 * (alpha * np.log(x) - x - gammaln(alpha + 1))) * root_w
        if n_r > 1:
            phi[1] = (1 + alpha - x) * phi[0] / step[1]
        for j in range(2, n_r):
            phi[j] = ((2 * j - 1 + alpha - x) * phi[j - 1] - step[j - 1] * phi[j - 2]) / step[j]
        gram = np.einsum("ism,jsm->sij", phi, phi)
        probs = np.clip(np.linalg.eigvalsh(gram), 0.0, 1.0)
        # tails[:, l] = P(count >= l), built up one Bernoulli trial at a time
        tails = np.zeros((s.size, n_r + 1))
        tails[:, 0] = 1.0
        for p in probs.T:
            tails[:, 1:] += p[:, None] * (tails[:, :-1] - tails[:, 1:])
        return tails[:, 1:].T.reshape(s_all.shape)

    res = integrate.tanhsinh(
        rank_tails, np.zeros(n_r), np.inf, preserve_shape=True, rtol=1e-12
    )
    if not np.all(res.success):
        raise ArithmeticError(f"ordered-eigenvalue quadrature failed (err={res.error.max()})")
    means = res.integral
    means.setflags(write=False)
    return means


def ordered_eigenvalue_mean(mp: MarchenkoPastur, l: int, n_r: int) -> float:
    """Exact mean of the l-th largest eigenvalue of (1/n_t) Z^H Z.

    Z is n_t x n_r with CN(0, mp.sigma_z_sq) entries and n_t = n_r / mp.c,
    which must be a whole number. The mean is the finite-N one, with the
    eigenvalues' repulsion included (see `_laguerre_ordered_means`); the
    n_r means sum to n_r * sigma_z_sq, and at c = 1 the smallest is
    sigma_z_sq / n_r^2 (A. Edelman, SIAM J. Matrix Anal. Appl. 9(4), 1988).
    The unit-variance table is computed once per (n_r, n_t) and scaled.
    """
    if not 1 <= l <= n_r:
        raise ValueError("rank index l must lie in 1..n_r")
    n_t = round(n_r / mp.c)
    if abs(n_r / mp.c - n_t) > 1e-9 * n_t:
        raise ValueError(f"n_r / c = {n_r / mp.c:g} must be a whole number of antennas")
    return float(mp.sigma_z_sq / n_t * _laguerre_ordered_means(n_r, n_t)[l - 1])


def _top_noise_eigenvalue_sum(L: int, n_t: int, n_r: int, sigma_z_sq: float) -> float:
    """Sum of the means of the L largest eigenvalues of (1/n_t) Z^H Z, Z
    n_t x n_r with CN(0, sigma_z_sq) entries."""
    if not 1 <= L <= n_r:
        raise ValueError("L must lie in 1..n_r")
    mp = MarchenkoPastur(sigma_z_sq=sigma_z_sq, c=n_r / n_t)
    return sum(ordered_eigenvalue_mean(mp, l, n_r) for l in range(1, L + 1))


def upper_bound_multi_path(L: int, rho: float, n_t: int, n_r: int, sigma_z_sq: float) -> float:
    """Mean-SSE upper bound (n_t n_r / rho) * sum_l n_t * lambda_l_mean.

    lambda_l_mean is the exact finite-N mean of the l-th largest noise
    eigenvalue, `ordered_eigenvalue_mean`; the paper's i.i.d. model of it
    is `iid_ordered_eigenvalue_mean`.
    """
    total = _top_noise_eigenvalue_sum(L, n_t, n_r, sigma_z_sq)
    return n_t * n_r / rho * n_t * total


@dataclass(frozen=True)
class FisherModel:
    """Real parameter vector (|a_l|, phase_l, omega_aod_l, omega_aoa_l)
    per path, plus the white residual noise variance."""

    params: np.ndarray
    noise_var: float
    n_t: int
    n_r: int

    def __post_init__(self):
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")
        if len(self.params) % 4 != 0:
            raise ValueError("params length must be a multiple of 4")

    @property
    def n_paths(self) -> int:
        return len(self.params) // 4


def _channel_jacobian(model: FisherModel) -> np.ndarray:
    """Jacobian of vec(H) w.r.t. the 4L real parameters.

    H[m, n] = sum_l |a_l| exp(j(phase_l + w_aoa_l m + w_aod_l n)); each
    column below is the derivative of the vectorized channel w.r.t. one
    parameter, verified against central finite differences in the tests.
    """
    mag, phase, w_aod, w_aoa = model.params.reshape(-1, 4).T
    # one unit-magnitude n_r x n_t cisoid per path
    cis = np.array([
        cisoid_sum(np.exp(1j * p), wa, wd, model.n_r, model.n_t)
        for p, wa, wd in zip(phase, w_aoa, w_aod)
    ])
    m, n = np.indices((model.n_r, model.n_t))
    scaled = 1j * mag[:, None, None] * cis
    # per path: d/d|a|, d/d phase, d/d omega_aod, d/d omega_aoa
    cols = np.stack([cis, scaled, n * scaled, m * scaled], axis=1)
    return cols.reshape(4 * model.n_paths, -1).T


def fisher_matrix(model: FisherModel) -> np.ndarray:
    """Fisher information (2/noise_var) * Re[J^H J]; symmetric PSD."""
    j = _channel_jacobian(model)
    f = (2.0 / model.noise_var) * np.real(j.conj().T @ j)
    return 0.5 * (f + f.T)


def crlb_nmse_bound(channel: ChannelRealization, rho: float, sigma_z_sq: float) -> float:
    """Cramer-Rao bound on ||H_hat - H||^2 / ||H||^2 for one channel.

    Residual variance. The spatial crop is d_bar = sqrt(rho/(n_t n_r)) H + Z
    with Z white, CN(0, sigma_z_sq) entries. Rank-L denoising keeps, on
    average, the noise energy of Z's L largest squared singular values,
    sum_l n_t lambda_l_mean, where lambda_l_mean is the mean of the l-th
    largest eigenvalue of (1/n_t) Z^H Z (`ordered_eigenvalue_mean`). In
    channel units that is (n_t n_r / rho) sum_l n_t lambda_l_mean, the
    multi-path bound. Spread evenly over the n_t n_r entries of H as a
    white residual, as the bound's derivation assumes, it gives
    noise_var = (n_t / rho) sum_l lambda_l_mean per entry.

    Bound. With the Jacobian J of vec(H) in the 4L real path parameters,
    F = (2 / noise_var) Re[J^H J] and the CRLB of H = f(theta) is
    tr(J F^-1 J^H) = tr(F^-1 Re[J^H J]) = (noise_var / 2) rank(F), which is
    2 L noise_var at full rank (S. Kay, Fundamentals of Statistical Signal
    Processing, Vol. I, Sec. 3.8). It is deterministic per channel. For a
    rank-deficient F (a zero-amplitude path, coincident paths) it is the
    pseudo-inverse CRLB tr(J F+ J^H), with F+ inverting each eigenvalue
    lambda_i of F as 1 / max(lambda_i, 1e-12 lambda_max): an eigenvalue
    above that floor adds noise_var / 2, one below it adds less, so the
    value stays finite and continuous as two paths merge. Averaging
    across realizations is left to the caller.
    """
    noise_var = (
        channel.n_t
        / rho
        * _top_noise_eigenvalue_sum(len(channel.paths), channel.n_t, channel.n_r, sigma_z_sq)
    )
    params = np.ravel(
        [(p.gain_magnitude, p.gain_phase, p.omega_aod, p.omega_aoa) for p in channel.paths]
    )
    model = FisherModel(params=params, noise_var=noise_var, n_t=channel.n_t, n_r=channel.n_r)
    vals = np.linalg.eigvalsh(fisher_matrix(model))
    if vals[-1] <= 0:
        raise ArithmeticError("Fisher matrix is identically zero")
    rank = np.sum(vals / np.maximum(vals, 1e-12 * vals[-1]))
    return float(noise_var / 2 * rank / np.linalg.norm(channel.h) ** 2)
