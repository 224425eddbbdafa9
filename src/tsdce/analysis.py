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

# Side, in bins, of the square tiles (AoD rows x AoA columns) of the dft_peak
# scan: the grain at which the coarse grid rules bins out.
_PEAK_BLOCK = 64


def valid_n_dft(n_dft: int, rows: int, cols: int) -> bool:
    """Whether n_dft is a power of two >= max(rows, cols): the DFT sizes of
    dft_peak for an n_r x n_t estimate, and of a sweep for a Q x P one."""
    return n_dft >= max(rows, cols, 1) and n_dft & (n_dft - 1) == 0


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


def _candidate_tiles(left, f_r_t, c: int, kappa: float, spec, power) -> np.ndarray:
    """Mask of the spectrum tiles that may hold its maximum, indexed
    [AoD tile, AoA tile].

    ``left`` (n_dft x n_r) and ``f_r_t`` (n_r x n_dft) are the factors of
    the spectrum's transpose, (c, kappa) its `_coarse_grid` with c >= 2 and
    ``spec``/``power`` the scan's buffers, whose row count is the tile
    side. The coarse samples are the bins at k c + c/2 in each frequency,
    the centres of the cells of c bins, so the sample nearest a bin is that
    of its own cell and a tile's nearest samples are those of its cells
    (one cell holds c / tile whole tiles when c exceeds the tile side): no
    bin's nearest sample lies across the spectrum's edge. A tile is kept
    when the largest |bin| among them, plus kappa A / (1 - kappa), reaches
    A (1 - 1e-9), A the largest coarse |bin|; the bound is stated in
    `dft_peak_baseline`.

    The coarse spectrum is never held whole: it is formed transposed, a
    chunk of AoD samples at a time, in the scan's buffers, and each chunk is
    reduced to its tile maxima before the next.
    """
    n_r, n_dft = f_r_t.shape
    tile = spec.shape[0]
    n_tiles, coarse = n_dft // tile, n_dft // c
    g, r = max(tile // c, 1), max(c // tile, 1)  # coarse samples per tile, tiles per sample
    chunk = min(coarse, tile * c)
    cspec = spec.reshape(-1)[:coarse * chunk].reshape(coarse, chunk)  # [AoA, AoD] sample
    cparts = cspec.view(float)
    cpower = power.reshape(-1)[:coarse * chunk].reshape(coarse, chunk)
    # each chunk's maxima per AoA tile go to spec once its products are spent
    aoa_peaks = spec.view(float).reshape(-1)[:coarse // g * chunk].reshape(-1, chunk)
    peaks = np.empty((n_tiles, n_tiles))  # [AoA tile, AoD tile]
    for k in range(0, coarse, chunk):
        np.matmul(f_r_t[:, c // 2::c].T, left[k * c + c // 2:(k + chunk) * c:c].T, out=cspec)
        np.square(cparts, out=cparts)
        np.add(cparts[:, 0::2], cparts[:, 1::2], out=cpower)
        np.max(cpower.reshape(-1, g, chunk), axis=1, out=aoa_peaks)
        block = aoa_peaks.reshape(len(aoa_peaks), -1, g).max(axis=2)
        peaks[:, k // g * r:(k + chunk) // g * r] = block.repeat(r, axis=0).repeat(r, axis=1)
    peaks = np.sqrt(peaks.T)
    a = peaks.max()
    return peaks + kappa / (1 - kappa) * a >= a * (1 - 1e-9)


def _scan_runs(keep: np.ndarray, tile: int) -> list[tuple[int, int, int]]:
    """(row, lo, hi) of each maximal run of kept tiles in ``keep``, in
    row-major order: AoD rows row..row + tile and AoA columns lo..hi."""
    runs = []
    for i in np.flatnonzero(keep).tolist():
        row, col = divmod(i, keep.shape[1])
        if runs and runs[-1][0] == row * tile and runs[-1][2] == col * tile:
            runs[-1] = (row * tile, runs[-1][1], (col + 1) * tile)
        else:
            runs.append((row * tile, col * tile, (col + 1) * tile))
    return runs


def dft_peak_baseline(h_ls, L_d: int, n_dft: int = 1024):
    """Simplified DFT-domain peak-pick baseline with iterative cancellation.

    One `sic` round on the n_r x n_t spatial LS estimate ``h_ls`` whose
    component zero-pads the residual to n_dft x n_dft, reads the strongest DFT
    bin as the frequency pair and takes the derotated mean as the complex
    gain. Frequency accuracy is limited to the bin width 2*pi/n_dft.

    The padded spectrum is never held whole. With the cached DFT columns
    F_t (n_dft x n_t) and F_r (n_dft x n_r), its transpose is
    (F_t @ residual^T) @ F_r^T, rows indexed by the AoD bin and columns by
    the AoA bin; the left factor is formed once per path into a reused
    buffer. The spectrum is cut into tiles of `_PEAK_BLOCK` x `_PEAK_BLOCK`
    bins, and only the tiles that a coarse grid cannot rule out are scanned
    (`_candidate_tiles`): each row of tiles that keeps any is scanned with
    one product of its rows of the left factor and the columns of F_r^T per
    maximal run of kept tiles (`_scan_runs`), into one reused buffer pair,
    keeping only each run's strongest |bin|^2. The spectrum is periodic, so
    a peak near AoA bin 0 keeps tiles at both ends of its row of tiles,
    which are two short runs.

    Tile bound. Centred, the spectrum g is a 2D exponential sum of type
    sigma_t = (n_t - 1)/2 in AoD and sigma_r = (n_r - 1)/2 in AoA, so by
    Bernstein's inequality each partial derivative is at most sigma M,
    M = max |g|. The bins at k c + c/2, the centres of the cells of c bins,
    form the coarse grid, and every bin lies within delta = c pi / n_dft of
    the sample of its own cell in each frequency, hence
    |g(bin)| <= |g(sample)| + kappa M with kappa = delta (sigma_t + sigma_r)
    <= 1/4 (`_coarse_grid`). Applied to the maximizer, M <= A / (1 - kappa),
    where A is the largest coarse |bin|. A tile is skipped when the largest
    coarse |bin| over the samples nearest its bins, plus kappa A / (1 - kappa),
    is below A (1 - 1e-9): every bin in it is then below A by more than
    rounding, while the coarse samples are spectrum bins themselves, so the
    maximum is at least A and neither it nor a bin tied with it lies in a
    skipped tile. Below c = 2 every tile is kept, and each row of tiles is
    one run of full width.

    Tie rule. An exact tie between two bins goes to the lowest flat index
    in AoD-major order (the lower AoD bin, then the lower AoA bin), as a
    single argmax over the whole spectrum would pick: within a run the
    argmax returns the first such bin, and across runs the lower flat index
    wins a tie, so the pick is the exhaustive scan's.
    """
    n_r, n_t = h_ls.shape
    if not valid_n_dft(n_dft, n_r, n_t):
        raise ValueError("n_dft must be a power of two >= max(n_r, n_t)")
    f_t = dft_columns(n_dft, n_t)
    f_r_t = dft_columns(n_dft, n_r).T
    c, kappa = _coarse_grid(n_dft, n_t, n_r)
    rows = min(_PEAK_BLOCK, n_dft)
    spec = np.empty((rows, n_dft), dtype=complex)
    power = np.empty((rows, n_dft))
    left = np.empty((n_dft, n_r), dtype=complex)

    @functools.cache
    def run_buffers(width):
        # the scan buffers as one run's spectrum, its re, im interleaved along
        # each row, and its |bin|^2
        run = spec.reshape(-1)[:rows * width].reshape(rows, width)
        return run, run.view(float), power.reshape(-1)[:rows * width].reshape(rows, width)

    # without a coarse step nothing is ruled out: each row of tiles is one run
    every_tile = [(b, 0, n_dft) for b in range(0, n_dft, rows)]

    def component(residual, k, l):
        np.matmul(f_t, residual.T, out=left)
        runs = every_tile if c < 2 else _scan_runs(
            _candidate_tiles(left, f_r_t, c, kappa, spec, power), rows)
        best, flat = -1.0, 0
        for b, lo, hi in runs:
            run, parts, run_power = run_buffers(hi - lo)
            np.matmul(left[b:b + rows], f_r_t[:, lo:hi], out=run)
            # re^2 + im^2 in place: one contiguous pass, then one strided add
            np.square(parts, out=parts)
            np.add(parts[:, 0::2], parts[:, 1::2], out=run_power)
            i = int(np.argmax(run_power))
            p = float(run_power.flat[i])
            r, q = divmod(i, hi - lo)
            f = (b + r) * n_dft + lo + q
            if p > best or p == best and f < flat:
                best, flat = p, f
        # bins as frequencies in (-pi, pi], Python floats: numpy scalars slow later steps
        omega_aod, omega_aoa = wrap(2 * np.pi * np.array(divmod(flat, n_dft)) / n_dft,
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
