"""Baselines and analytic bounds.

Contains a simplified DFT peak pick run as a component under
`algorithm.sic`, the single-path upper bound, the multi-path upper bound
built from the exact finite-N means of the ordered noise eigenvalues
(Laguerre unitary ensemble), and the closed-form Cramer-Rao bound on the
channel matrix from the Fisher information of the path parameters, with
the noise that the spatial LS estimate itself carries.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algorithm import derotated_mean, sic
from .channel import PathParams, _index, _steering_factors
from .numkit import dft_columns
from .observation import wrap

# Largest number of spectrum bins the dft_peak scan computes in one product,
# the size of its buffers: 64 rows of a 1024-bin spectrum.
_SCAN_BINS = 64 * 1024


def check_n_dft(n_dft: int, n_r: int, n_t: int) -> None:
    """dft_peak's rule on an n_r x n_t estimate: n_dft is a power of two >= max(n_r, n_t)."""
    if not (n_dft >= max(n_r, n_t, 1) and n_dft & (n_dft - 1) == 0):
        raise ValueError(f"n_dft must be a power of two >= max(n_r, n_t), got {n_dft}")


def _coarse_grid(n_dft: int, n_t: int, n_r: int) -> tuple[int, float]:
    """Step c and margin factor kappa of the dft_peak scan's coarse grid.

    kappa = delta (sigma_t + sigma_r), where sigma = (n - 1)/2 is the
    spectrum's type along each axis and delta = c pi / n_dft the greatest
    distance of a bin from its nearest coarse sample. c is the largest
    power of two with kappa <= 1/4, or 1 when c = 2 already exceeds it.
    """
    kappa_per_step = np.pi / n_dft * (n_t + n_r - 2) / 2
    c = 1
    while 2 * c <= n_dft and 2 * c * kappa_per_step <= 0.25:
        c *= 2
    return c, c * kappa_per_step


def _power_blocks(left, right, spec, power):
    """(first row, |bin|^2) of each block of rows of left @ right, formed in
    turn in the front of the flat buffers ``spec`` (complex) and ``power``
    (float): re^2 + im^2 in place, one contiguous pass and one strided add."""
    width = right.shape[1]
    step = len(spec) // width
    spec, power = spec[:step * width].reshape(step, -1), power[:step * width].reshape(step, -1)
    for b in range(0, len(left), step):
        rows = left[b:b + step]
        parts = np.matmul(rows, right, out=spec[:len(rows)]).view(float)
        np.square(parts, out=parts)
        yield b, np.add(parts[:, 0::2], parts[:, 1::2], out=power[:len(rows)])


def _kept_cells(left, f_r_t, c: int, kappa: float, spec, power) -> list[np.ndarray]:
    """The AoD rows and the AoA columns, ascending, that may hold the
    spectrum's maximum: the c bins of each coarse row and column whose
    largest |bin| reaches A (1 - 1e-9) - kappa A / (1 - kappa), A the
    largest coarse |bin| (see `dft_peak_baseline`). The coarse spectrum,
    the bins at k c + c/2 for the `_coarse_grid` (c >= 2, kappa), is formed
    a block of rows at a time in the scan's buffers ``spec`` and ``power``."""
    right = np.ascontiguousarray(f_r_t[:, c // 2::c])
    row_peaks, col_peaks = np.empty(right.shape[1]), np.zeros(right.shape[1])
    for k, block in _power_blocks(left[c // 2::c], right, spec, power):
        block.max(axis=1, out=row_peaks[k:k + len(block)])
        np.maximum(col_peaks, block.max(axis=0), out=col_peaks)
    a = np.sqrt(row_peaks.max())
    floor = (a * (1 - 1e-9) - kappa / (1 - kappa) * a) ** 2  # > 0 as kappa <= 1/4
    return [(np.flatnonzero(peaks >= floor)[:, None] * c + np.arange(c)).ravel()
            for peaks in (row_peaks, col_peaks)]


def _strongest_bin(left, right, spec, power) -> int:
    """Flat index of the largest |bin| of left @ right, the first one on a
    tie, computed a block of rows at a time in ``spec`` and ``power``."""
    best, flat = -1.0, 0
    for b, block in _power_blocks(left, right, spec, power):
        i = int(np.argmax(block))
        if block.flat[i] > best:
            best, flat = block.flat[i], b * right.shape[1] + i
    return flat


def dft_peak_baseline(h_ls, L_d: int, n_dft: int = 1024):
    """Simplified DFT-domain peak-pick baseline with iterative cancellation.

    One `sic` round on the n_r x n_t spatial LS estimate ``h_ls`` whose
    component zero-pads the residual to n_dft x n_dft, reads the strongest DFT
    bin as the frequency pair and takes the derotated mean as the complex
    gain. Frequency accuracy is limited to the bin width 2*pi/n_dft.

    The padded spectrum is never held whole. Its transpose is
    (F_t @ residual^T) @ F_r^T with the cached DFT columns F_t and F_r,
    rows indexed by the AoD bin and columns by the AoA bin, and the left
    factor is formed once per path. A coarse pass keeps the rows and the
    columns that may hold the maximum (`_kept_cells`), a peak near AoA bin 0
    keeping columns at both ends, and only their rectangle is computed
    (`_strongest_bin`) in buffers allocated once per call; where every row
    or column is kept, the factor itself is multiplied, not a gathered copy.

    Bound. Centred, the spectrum g is a 2D exponential sum of type
    sigma_t = (n_t - 1)/2 in AoD and sigma_r = (n_r - 1)/2 in AoA, so by
    Bernstein's inequality each partial derivative is at most sigma M,
    M = max |g|. Every bin lies within delta = c pi / n_dft, in each
    frequency, of the coarse sample k c + c/2 of its own cell of c x c
    bins, so |g(bin)| <= |g(sample)| + kappa M with
    kappa = delta (sigma_t + sigma_r) <= 1/4 (`_coarse_grid`). With A the
    largest coarse |bin|, A <= M (the samples are bins) and
    M <= A / (1 - kappa). So the sample of the cell of the maximum, or of a
    bin tied with it, reads at least A - kappa A / (1 - kappa), and so does
    the maximum of its coarse row and of its coarse column: only rows and
    columns below A (1 - 1e-9) - kappa A / (1 - kappa) are dropped, the
    1e-9 covering rounding. Below c = 2 all are kept and the coarse pass is
    skipped: the scan is the exhaustive one.

    Tie rule. An exact tie goes to the lowest flat index in AoD-major order
    (the lower AoD bin, then the lower AoA bin), as one argmax over the
    whole spectrum would pick: the kept rows and columns are ascending, so
    the rectangle's row-major scan meets that bin first.
    """
    n_r, n_t = h_ls.shape
    check_n_dft(n_dft, n_r, n_t)
    f_t = dft_columns(n_dft, n_t)
    f_r_t = dft_columns(n_dft, n_r).T
    c, kappa = _coarse_grid(n_dft, n_t, n_r)
    every_bin = np.arange(n_dft)
    size = n_dft * min(n_dft, max(_SCAN_BINS // n_dft, 1))  # whole rows, at least one
    spec, power = np.empty(size, dtype=complex), np.empty(size)
    left = np.empty((n_dft, n_r), dtype=complex)

    def component(residual, k, l):
        np.matmul(f_t, residual.T, out=left)
        rows, cols = ((every_bin, every_bin) if c < 2
                      else _kept_cells(left, f_r_t, c, kappa, spec, power))
        flat = _strongest_bin(left if len(rows) == n_dft else left[rows],
                              f_r_t if len(cols) == n_dft else f_r_t[:, cols], spec, power)
        r, q = divmod(flat, len(cols))
        # bins as frequencies in (-pi, pi], Python floats: numpy scalars slow later steps
        omega_aod, omega_aoa = wrap(2 * np.pi * np.array([rows[r], cols[q]]) / n_dft,
                                    -np.pi, np.pi).tolist()
        gain, cis = derotated_mean(residual, omega_aoa, omega_aod)
        return PathParams.from_freqs(abs(gain), np.angle(gain), omega_aod, omega_aoa), cis

    return sic(h_ls, component, L_d, 1)


def upper_bound_single_path(snr_c: float, n_t: int, n_r: int) -> float:
    """Mean-SSE upper bound (sqrt(n_r)+sqrt(n_t))^2 / SNR_C for L = 1."""
    if snr_c <= 0:
        raise ValueError("snr_c must be positive")
    return (np.sqrt(n_r) + np.sqrt(n_t)) ** 2 / snr_c


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
    t, so Gauss-Laguerre with n_r + alpha // 2 nodes gives it exactly. The
    s-integral of every rank is one fixed composite Gauss-Legendre rule,
    64 nodes on each of equal panels at most 8 wide, on [0, S] with
    S = e + 10 e^(1/3) + 40 past the hard edge e = (sqrt(n_t) + sqrt(n_r))^2,
    where P(count >= 1) is below 1e-18 for every n_r <= n_t <= 64. The
    integrand is smooth, so the rule has no failure path; 48 nodes per
    panel would leave the smallest mean at 64 x 64 about 2e-7 off Edelman's
    1/n. The table is cached per (n_r, n_t) and returned read-only.
    """
    alpha = n_t - n_r
    t, w = np.polynomial.laguerre.laggauss(n_r + alpha // 2)
    root_w = np.sqrt(w * np.exp(t))
    k = np.arange(n_r)
    # sqrt(k (k + alpha)): the three-term recurrence of the orthonormal phi_k
    step = np.sqrt(k * (k + alpha))

    edge = (math.sqrt(n_t) + math.sqrt(n_r)) ** 2
    span = edge + 10 * edge ** (1 / 3) + 40
    panels = math.ceil(span / 8)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    width = span / panels
    s = ((np.arange(panels)[:, None] + (nodes + 1) / 2) * width).ravel()

    # the Gram eigenvalues, 4 panels of abscissae at a time to bound the memory
    probs = np.empty((s.size, n_r))
    for lo in range(0, s.size, 4 * 64):
        x = s[lo:lo + 4 * 64, None] + t
        phi = np.empty((n_r,) + x.shape)
        phi[0] = np.exp(0.5 * (alpha * np.log(x) - x - math.lgamma(alpha + 1))) * root_w
        if n_r > 1:
            phi[1] = (1 + alpha - x) * phi[0] / step[1]
        for j in range(2, n_r):
            phi[j] = ((2 * j - 1 + alpha - x) * phi[j - 1] - step[j - 1] * phi[j - 2]) / step[j]
        probs[lo:lo + 4 * 64] = np.linalg.eigvalsh(np.einsum("ism,jsm->sij", phi, phi))
    # tails[:, l] = P(count >= l), built up one Bernoulli trial at a time
    tails = np.zeros((s.size, n_r + 1))
    tails[:, 0] = 1.0
    for p in np.clip(probs, 0.0, 1.0).T:
        tails[:, 1:] += p[:, None] * (tails[:, :-1] - tails[:, 1:])
    means = np.tile(weights * width / 2, panels) @ tails[:, 1:]
    means.setflags(write=False)
    return means


def ordered_eigenvalue_mean(l: int, n_r: int, n_t: int, sigma_z_sq: float) -> float:
    """Exact mean of the l-th largest eigenvalue of (1/n_t) Z^H Z, for an
    n_t x n_r matrix Z with CN(0, sigma_z_sq) entries, 1 <= l <= n_r <= n_t.

    The mean is the finite-N one, with the eigenvalues' repulsion included
    (see `_laguerre_ordered_means`); the n_r means sum to n_r * sigma_z_sq,
    and at n_r = n_t the smallest is sigma_z_sq / n_r^2 (A. Edelman, SIAM
    J. Matrix Anal. Appl. 9(4), 1988). The unit-variance table is computed
    once per (n_r, n_t) and scaled.
    """
    if not 1 <= l <= n_r <= n_t:
        raise ValueError(f"need 1 <= l <= n_r <= n_t, got l = {l}, n_r = {n_r}, n_t = {n_t}")
    if sigma_z_sq <= 0:
        raise ValueError("sigma_z_sq must be positive")
    return float(sigma_z_sq / n_t * _laguerre_ordered_means(n_r, n_t)[l - 1])


def upper_bound_multi_path(L: int, n_t: int, n_r: int, sigma_z_sq: float) -> float:
    """Mean-SSE upper bound n_t n_r * sum_l n_t * lambda_l_mean.

    lambda_l_mean is the exact finite-N mean of the l-th largest
    eigenvalue of (1/n_t) Z^H Z, Z n_t x n_r with CN(0, sigma_z_sq)
    entries (`ordered_eigenvalue_mean`); the sum runs over l = 1..L.
    """
    if not 1 <= L <= n_r:
        raise ValueError("L must lie in 1..n_r")
    total = sum(ordered_eigenvalue_mean(l, n_r, n_t, sigma_z_sq) for l in range(1, L + 1))
    return n_t * n_r * n_t * total


def fisher_matrix(params, noise_var: float, n_t: int, n_r: int) -> np.ndarray:
    """Fisher information (2/noise_var) * Re[J^H J] of the real parameters
    ``params``, (|a_l|, phase_l, omega_aod_l, omega_aoa_l) per path, from the
    n_r x n_t channel H observed in white noise of variance noise_var on each
    entry; symmetric PSD.

    J is the Jacobian of vec(H), H[m, n] = sum_l |a_l| r_l[m] t_l[n] with
    r_l[m] = exp(j(phase_l + w_aoa_l m)) and t_l[n] = exp(j w_aod_l n), in
    the 4L real parameters. Each column is separable: for |a|, phase,
    omega_aod and omega_aoa it is the outer product of r_l, j|a_l| r_l,
    j|a_l| r_l, j|a_l| m r_l with t_l, t_l, n t_l, t_l. Stacking these
    factors as the columns of A (n_r x 4L) and B (n_t x 4L) gives
    J^H J = (A^H A) o (B^H B), entries sum_m m^p conj(r_l) r_k times
    sum_n n^q conj(t_l) t_k with p, q <= 2: neither J nor H is formed.
    The finite-difference-checked J is the tests' oracle.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    if len(params) % 4 != 0:
        raise ValueError("params length must be a multiple of 4")
    mag, phase, w_aod, w_aoa = np.reshape(params, (-1, 4)).T
    r, t = _steering_factors(w_aoa, w_aod, n_r, n_t)
    r, t = r * np.exp(1j * phase), t.T
    scaled = 1j * mag * r
    # columns grouped by parameter, then by path
    a = np.concatenate((r, scaled, scaled, _index(n_r)[:, None] * scaled), axis=1)
    b = np.concatenate((t, t, _index(n_t)[:, None] * t, t), axis=1)
    f = ((a.conj().T @ a) * (b.conj().T @ b)).real
    n = len(params) // 4
    f = f.reshape(4, n, 4, n).transpose(1, 0, 3, 2).reshape(4 * n, 4 * n)  # per path
    return (f + f.T) / noise_var


def crlb_nmse_bound(paths, n_t: int, n_r: int, sigma_z_sq: float) -> float:
    """Cramer-Rao bound on ||H_hat - H||^2 / ||H||^2 for the n_r x n_t
    channel of ``paths``.

    Noise. The spatial crop is d_bar = H / sqrt(n_t n_r) + Z with Z
    white, CN(0, sigma_z_sq) entries, so the spatial LS estimate
    sqrt(n_t n_r) d_bar = H + sqrt(n_t n_r) Z observes every
    entry of H in white noise of variance
    noise_var = n_t n_r sigma_z_sq. That rescaling is one-to-one, so
    this is the CRLB of H from d_bar, and no processing of d_bar (rank-L
    denoising included) can lower it.

    Bound. With the Jacobian J of vec(H) in the 4L real path parameters,
    F = (2 / noise_var) Re[J^H J] and the CRLB of H = f(theta) is
    tr(J F^-1 J^H) = tr(F^-1 Re[J^H J]) = (noise_var / 2) rank(F), which is
    2 L noise_var at full rank (S. Kay, Fundamentals of Statistical Signal
    Processing, Vol. I, Sec. 3.8). It is deterministic per channel. For a
    rank-deficient F (a zero-amplitude path, coincident paths) it is the
    pseudo-inverse CRLB tr(J F+ J^H), with F+ inverting each eigenvalue
    lambda_i of F as 1 / max(lambda_i, 1e-12 lambda_max): an eigenvalue
    above that floor adds noise_var / 2, one below it adds less, so the
    value stays finite and continuous as two paths merge. ||H||^2 is
    |a|^T Re[J^H J]_{|a||a|} |a|, read off F, so neither H nor J is ever
    formed; a zero-norm channel raises ValueError. Averaging
    across realizations is left to the caller. At L = 1, ||H||^2 is
    n_t n_r |a|^2 with |a|^2 exponential, so E[1/||H||^2] diverges and
    the mean over realizations grows with their number.
    """
    noise_var = n_t * n_r * sigma_z_sq
    params = np.ravel(
        [(p.gain_magnitude, p.gain_phase, p.omega_aod, p.omega_aoa) for p in paths]
    )
    f = fisher_matrix(params, noise_var, n_t, n_r)
    mag = params[0::4]
    h_sq = noise_var / 2 * (mag @ f[0::4, 0::4] @ mag)
    if not h_sq > 0:
        raise ValueError("true channel has zero norm")
    vals = np.linalg.eigvalsh(f)  # vals[-1] > 0: F's |a| block holds ||H||^2
    rank = np.sum(vals / np.maximum(vals, 1e-12 * vals[-1]))
    return float(noise_var / 2 * rank / h_sq)
