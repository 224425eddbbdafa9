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
from .channel import PathParams, _index, _steering_factors, wrap_phase
from .numkit import dft_columns

# Largest number of spectrum bins the dft_peak scan computes in one product,
# the size of its buffers: 64 rows of a 1024-bin spectrum.
_SCAN_BINS = 64 * 1024
# The first level of the dft_peak scan has the largest step c with margin
# (c + 1) kappa_1 <= _FIRST_MARGIN < pi/2 (see `dft_peak_baseline`), chosen
# by timing on seed 5151, which no test or workload uses.
_FIRST_MARGIN = 1.2


def check_n_dft(n_dft: int, n_r: int, n_t: int) -> None:
    """dft_peak's rule on an n_r x n_t estimate: n_dft is a power of two >= max(n_r, n_t)."""
    if not (n_dft >= max(n_r, n_t, 1) and n_dft & (n_dft - 1) == 0):
        raise ValueError(f"n_dft must be a power of two >= max(n_r, n_t), got {n_dft}")


def _power_blocks(left, right):
    """(first row, |bin|^2) of each block of at most _SCAN_BINS bins of
    left @ right, whole rows, formed in turn in one pair of buffers:
    re^2 + im^2 in place, one contiguous pass and one strided add."""
    step = max(_SCAN_BINS // right.shape[1], 1)
    spec = np.empty((min(step, len(left)), right.shape[1]), dtype=complex)
    power = np.empty(spec.shape)
    for b in range(0, len(left), step):
        rows = left[b:b + step]
        parts = np.matmul(rows, right, out=spec[:len(rows)]).view(float)
        np.square(parts, out=parts)
        yield b, np.add(parts[:, 0::2], parts[:, 1::2], out=power[:len(rows)])


def _scan(residual, f_t, f_r, levels=None) -> tuple[int, int]:
    """(AoD bin, AoA bin) of the largest |bin| of the spectrum of
    ``residual`` zero-padded to len(f_t) x len(f_t), the first one in
    AoD-major order on a tie, by the level loop of `dft_peak_baseline`. If
    ``levels`` is a list, each level's (c, AoD rows, AoA columns) is
    appended to it, the cells' first bins for c >= 2, the bins at c = 1."""
    n_dft, (n_r, n_t) = len(f_t), residual.shape
    kappa_1 = np.pi / n_dft * (n_t + n_r - 2) / 2
    c = 1
    while 2 * c <= n_dft and (2 * c + 1) * kappa_1 <= _FIRST_MARGIN:
        c *= 2
    rows = cols = np.arange(0, n_dft, c)
    while True:
        if levels is not None:
            levels.append((c, rows, cols))
        row_peaks, col_peaks = np.empty(len(rows)), np.zeros(len(cols))
        best, flat = -1.0, 0
        for b, block in _power_blocks(f_t[rows + c // 2] @ residual.T, f_r[cols + c // 2].T):
            if c == 1:
                i = int(np.argmax(block))
                if block.flat[i] > best:
                    best, flat = block.flat[i], b * len(cols) + i
            else:
                block.max(axis=1, out=row_peaks[b:b + len(block)])
                np.maximum(col_peaks, block.max(axis=0), out=col_peaks)
        if c == 1:
            return int(rows[flat // len(cols)]), int(cols[flat % len(cols)])
        floor = row_peaks.max() * (math.cos((c + 1) * kappa_1) * (1 - 1e-9)) ** 2
        kept_r, kept_c = rows[row_peaks >= floor], cols[col_peaks >= floor]
        # split a kept cell s x s ways, s the largest power of two <= c, and
        # at least 2, whose next level computes no more bins than this one
        s = 2
        while 2 * s <= c and len(kept_r) * len(kept_c) * 4 * s * s <= len(rows) * len(cols):
            s *= 2
        c, cells = c // s, np.arange(0, c, c // s)
        rows, cols = ((kept[:, None] + cells).ravel() for kept in (kept_r, kept_c))


def dft_peak_baseline(h_ls, L_d: int, n_dft: int = 1024):
    """Simplified DFT-domain peak-pick baseline with iterative cancellation.

    One `sic` round on the n_r x n_t spatial LS estimate ``h_ls`` whose
    component zero-pads the residual to n_dft x n_dft, reads the strongest DFT
    bin as the frequency pair and takes the derotated mean as the complex
    gain. Frequency accuracy is limited to the bin width 2*pi/n_dft.

    The padded spectrum is never held whole. Its transpose is
    (F_t @ residual^T) @ F_r^T with the cached DFT columns F_t and F_r, rows
    indexed by the AoD bin and columns by the AoA bin. `_scan` computes it
    level by level on square cells: at step c a cell is c x c bins, read at
    its sample, the bin k c + c/2 of each axis (the bin itself at c = 1). A
    level keeps the rows and the columns whose largest sample reaches the
    floor below and splits each kept cell s x s ways, s the largest power of
    two, at least 2 and at most c, whose next level computes no more bins
    than this one: c itself where one peak stands clear, 2 on noise, where
    the floor keeps many. Only the rows of F_t and F_r that a level reads
    are formed, in products of at most _SCAN_BINS bins; a peak near bin 0
    keeps cells at both ends.

    Bound. Centred, the spectrum g is a 2D exponential sum of type
    sigma_t = (n_t - 1)/2 in AoD and sigma_r = (n_r - 1)/2 in AoA, so along
    a segment of (Delta_t, Delta_r) every f = Re(e^(-j phi) g) is a real one
    of type sigma_t |Delta_t| + sigma_r |Delta_r|, bounded by M = max |g|.
    By Szego's inequality in the form of Duffin and Schaeffer,
    f'^2 + B^2 f^2 <= B^2 M^2 (R. J. Duffin and A. C. Schaeffer, Bull. AMS
    43, 1937), so f = M cos(theta) has |theta'| <= B. A bin lies within
    delta_c = c pi / n_dft of its cell's sample in each frequency, so
    kappa_c = delta_c (sigma_t + sigma_r) = c kappa_1 bounds theta's change
    between them. The bin nearest the maximum of |g| reads at least
    M cos(kappa_1), so the strongest bin, and any bin tied with it, does
    too, and its cell's sample reads at least M cos(kappa_1 + kappa_c)
    >= A cos((c + 1) kappa_1), with A <= M the level's largest sample. So
    only rows and columns whose largest sample is below that floor, times
    1 - 1e-9 for rounding, are dropped; the first level has
    (c + 1) kappa_1 <= _FIRST_MARGIN < pi/2, where the floor is positive.
    Below c = 2 the first level is the exhaustive scan.

    Tie rule. An exact tie goes to the lowest flat index in AoD-major order
    (the lower AoD bin, then the lower AoA bin), as one argmax over the
    whole spectrum would pick: the kept rows and columns stay ascending, so
    the last level's row-major scan meets that bin first.
    """
    n_r, n_t = h_ls.shape
    check_n_dft(n_dft, n_r, n_t)
    f_t, f_r = dft_columns(n_dft, n_t), dft_columns(n_dft, n_r)

    def component(residual, k, l):
        # bins as frequencies in (-pi, pi], Python floats: numpy scalars slow later steps
        omega_aod, omega_aoa = (wrap_phase(2 * np.pi * b / n_dft)
                                for b in _scan(residual, f_t, f_r))
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
