"""Reference models that only the tests use.

`steering_vector` is the unit-norm ULA response, built per angle, and
`beam_angle` the angle of a codebook beam: the oracles of the beams of
`observation.build_codebook`. `ls_estimate_explicit` is the explicit
least-squares solve, the oracle for `observation.to_spatial`. `wls_weights` and `wls_slope` are the
weighted least-squares line fit that `algorithm._slope_weights` folds into
one closed-form vector. `MarchenkoPastur` with its density and CDF, and
`iid_ordered_eigenvalue_mean`, are the paper's model behind Lemma 4:
the ordered noise eigenvalues as order statistics of independent
Marchenko-Pastur draws. `analysis.ordered_eigenvalue_mean` is the exact
finite-N mean that the program uses; this model is kept as the record of
the bound as published. `laguerre_ordered_means_tanhsinh` is that exact
table by adaptive tanh-sinh quadrature, the oracle of the fixed rule in
`analysis._laguerre_ordered_means`. `_channel_jacobian` is the explicit
Jacobian of vec(H) in the path parameters, the oracle of
`analysis.fisher_matrix`. `genie_sic` is TSDCE's per-path step with every
other path cancelled by its true value, which separates the step's own
error from the error that SIC propagates.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import gammaln, roots_laguerre

from tsdce.algorithm import _estimate_component
from tsdce.channel import cisoid_sum
from tsdce.observation import Codebook


def steering_vector(angle: float, n: int) -> np.ndarray:
    """Unit-norm ULA response, Tx and Rx alike: element k =
    exp(-j*pi*k*cos(angle))/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n)
    return np.exp(-1j * np.pi * k * np.cos(angle)) / np.sqrt(n)


def beam_angle(cb: Codebook, side: str, index: int) -> float:
    """Angle of beam ``index`` of the codebook: transmit beam p has cosine
    2p/P and receive beam q cosine -2q/Q, each wrapped into (-1, 1]."""
    if side == "tx":
        cosine = 2.0 * index / cb.f.shape[1]
    elif side == "rx":
        cosine = -2.0 * index / cb.w.shape[1]
    else:
        raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")
    return float(np.arccos(cosine - 2.0 * np.ceil((cosine - 1.0) / 2.0)))


class RankDeficiencyError(ValueError):
    """LS system does not have full column rank (QP < n_t * n_r)."""


def ls_estimate_explicit(y: np.ndarray, cb: Codebook) -> np.ndarray:
    """Least-squares channel estimate from the vectorized Q x P observation y.

    The normal equations collapse to a scaled matrix product because the
    Kronecker system matrix has orthogonal columns with squared norm
    QP/(n_t n_r); the Kronecker matrix itself is never formed.
    """
    n_t = cb.f.shape[0]
    n_r = cb.w.shape[0]
    q_count, p_count = y.shape
    if q_count * p_count < n_t * n_r:
        raise RankDeficiencyError(
            f"LS needs QP >= n_t*n_r, got {q_count * p_count} < {n_t * n_r}"
        )
    scale = n_t * n_r / (q_count * p_count)
    return scale * (cb.w @ y @ cb.f.conj().T)


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
    eigenvalues of one Wishart matrix; `analysis.ordered_eigenvalue_mean`
    is the exact finite-N mean. Integrates x * f_order(x) over (a, b) with the
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


def laguerre_ordered_means_tanhsinh(n_r: int, n_t: int) -> np.ndarray:
    """`analysis._laguerre_ordered_means` with the s-integral of every rank
    taken by one adaptive tanh-sinh quadrature to rtol 1e-12 over [0, inf),
    evaluating each batch of abscissae at once; raises ArithmeticError
    when it does not converge."""
    alpha = n_t - n_r
    t, w = roots_laguerre(n_r + alpha // 2)
    root_w = np.sqrt(w * np.exp(t))
    k = np.arange(n_r)
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
    return res.integral


def genie_sic(h_ls: np.ndarray, paths) -> list:
    """TSDCE's per-path step with a genie: for each true path, cancel every
    other path by its true gain times cisoid and run
    `algorithm._estimate_component` on what is left of the spatial LS
    estimate ``h_ls``. Returns the estimates in the order of ``paths``."""
    n_r, n_t = h_ls.shape
    parts = [cisoid_sum(p.gain, p.omega_aoa, p.omega_aod, n_r, n_t) for p in paths]
    total = sum(parts)
    return [_estimate_component(h_ls - (total - part))[0] for part in parts]


def _channel_jacobian(params, n_t: int, n_r: int) -> np.ndarray:
    """Jacobian of the n_r x n_t vec(H) w.r.t. the 4L real parameters
    ``params``, (|a_l|, phase_l, omega_aod_l, omega_aoa_l) per path.

    H[m, n] = sum_l |a_l| exp(j(phase_l + w_aoa_l m + w_aod_l n)); each
    column below is the derivative of the vectorized channel w.r.t. one
    parameter, verified against central finite differences in the tests.
    """
    mag, phase, w_aod, w_aoa = np.reshape(params, (-1, 4)).T
    # one unit-magnitude n_r x n_t cisoid per path
    cis = np.array([
        cisoid_sum(np.exp(1j * p), wa, wd, n_r, n_t)
        for p, wa, wd in zip(phase, w_aoa, w_aod)
    ])
    m, n = np.indices((n_r, n_t))
    scaled = 1j * mag[:, None, None] * cis
    # per path: d/d|a|, d/d phase, d/d omega_aod, d/d omega_aoa
    cols = np.stack([cis, scaled, n * scaled, m * scaled], axis=1)
    return cols.reshape(len(params), -1).T
