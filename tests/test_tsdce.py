"""Estimator pipeline tests: rank-one extraction, ACF phase processing,
WLS frequency fitting, gain estimation and the full cancellation loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdce.algorithm import (
    _estimate_component,
    _slope_weights,
    derotated_mean,
    estimate_amplitude,
    extract_rank_one,
    phase_differences,
    reconstruct_channel,
    run,
    select_wrap_branch,
    sic,
)
from tsdce.analysis import crlb_nmse_bound, dft_peak_baseline
from tsdce.bench import nmse_ratio
from tsdce.channel import PathParams, build_channel, cisoid_sum, sample_paths
from tsdce.numkit import SeededRng, acf2d_unbiased
from tsdce.observation import build_codebook, synthesize_observation, to_spatial, wrap
from oracles import beam_angle, genie_sic, wls_slope, wls_weights


def cisoid(n_r, n_t, w_row, w_col, amp=1.0, phase=0.0):
    mm, nn = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
    return amp * np.exp(1j * (phase + w_row * mm + w_col * nn))


def spatial_ls(y, n_t=16, n_r=16):
    """The n_r x n_t spatial LS estimate every estimator takes."""
    return to_spatial(y, n_t, n_r)


def wls_slope_oracle(phases, weights):
    """Closed-form 2x2 weighted normal equations for a line fit."""
    i = np.arange(len(phases), dtype=float)
    a = np.stack([i, np.ones_like(i)], axis=1)
    wa = a * weights[:, None]
    slope, _ = np.linalg.solve(a.T @ wa, wa.T @ phases)
    return slope


def acf2d_oracle(m):
    """Unbiased 2D ACF through a zero-padded FFT (linear correlation)."""
    nr, nt = m.shape
    spec = np.fft.fft2(m, s=(2 * nr, 2 * nt))
    corr = np.fft.ifft2(spec.conj() * spec)[:nr, :nt]
    kappa = (nr - np.arange(nr))[:, None] * (nt - np.arange(nt))[None, :]
    r = corr / kappa
    r[0, 0] = r[0, 0].real
    return r


def select_wrap_branch_oracle(delta):
    """The branch with the smaller sample variance; ties keep delta."""
    wrapped = np.mod(delta, 2.0 * np.pi)
    return wrapped if np.var(wrapped) < np.var(delta) else delta


def estimate_component_oracle(h):
    """Single-path estimate step by step, with every formula written out:
    FFT ACF, np.var branch test, cumsum unwrapping, normal-equation slope,
    kappa-weighted amplitude and the elementwise derotated mean."""
    n_r, n_t = h.shape
    r = acf2d_oracle(h)

    def frequency(seq):
        delta = np.zeros(len(seq))
        delta[1:] = np.angle(seq[1:] * np.conj(seq[:-1]))
        delta = select_wrap_branch_oracle(delta)
        slope = wls_slope_oracle(np.cumsum(delta), wls_weights(len(seq)))
        return wrap(slope, -np.pi, np.pi)

    w_aoa, w_aod = frequency(r[:, 0]), frequency(r[0, :])
    kappa = (n_r - np.arange(n_r))[:, None] * (n_t - np.arange(n_t))[None, :]
    norm = 0.25 * n_r * (n_r + 1) * n_t * (n_t + 1) - n_t * n_r
    acc = np.sum(kappa * np.abs(r)) - kappa[0, 0] * np.abs(r[0, 0])
    mag = np.sqrt(acc / norm)
    m = np.arange(n_r)[:, None]
    n = np.arange(n_t)[None, :]
    mean = np.mean(h * np.exp(-1j * (w_aoa * m + w_aod * n)))
    return mag * np.exp(1j * np.angle(mean)), w_aod, w_aoa


class TestEstimateComponentOracle:
    @pytest.mark.parametrize("n_r, n_t", [(16, 16), (8, 12)])
    def test_matches_oracle_on_noisy_components(self, n_r, n_t):
        cases = 0
        for t in range(60):
            rng = SeededRng(90).substream(t)
            w_row, w_col = rng.uniform(-np.pi, np.pi, size=2)
            amp = rng.uniform(0.2, 1.0)
            noise_std = 10.0 ** rng.uniform(-3.0, -0.5)
            noise = rng.normal(1.0, size=(n_r, n_t)) + 1j * rng.normal(1.0, size=(n_r, n_t))
            h = cisoid(n_r, n_t, w_row, w_col, amp=amp, phase=rng.uniform(-3, 3))
            h = h + noise_std * noise
            if t % 2:
                h = extract_rank_one(h)
            gain, w_aod, w_aoa = estimate_component_oracle(h)
            est, cis = _estimate_component(h)
            assert est.omega_aoa == pytest.approx(w_aoa, abs=1e-10)
            assert est.omega_aod == pytest.approx(w_aod, abs=1e-10)
            assert abs(est.gain - gain) <= 1e-9 * abs(gain)
            assert np.allclose(cis, cisoid(n_r, n_t, w_aoa, w_aod), atol=1e-12)
            cases += 1
        assert cases >= 50


class TestExtractRankOne:
    def test_idempotent_on_rank_one(self):
        m = 1.7 * cisoid(8, 8, 0.9, -1.2, phase=0.4)
        assert np.allclose(extract_rank_one(m), m, atol=1e-10 * np.linalg.norm(m))

    def test_orthogonal_cisoids_keep_strongest(self):
        # on-grid frequencies a DFT bin apart give orthogonal rank-one
        # terms, so the dominant one is recovered exactly
        n = 8
        strong = 2.0 * cisoid(n, n, 2 * np.pi * 2 / n, 2 * np.pi * 5 / n)
        weak = 0.5 * cisoid(n, n, 2 * np.pi * 5 / n, 2 * np.pi * 1 / n)
        out = extract_rank_one(strong + weak)
        assert np.allclose(out, strong, atol=1e-9)

    def test_zero_matrix(self):
        out = extract_rank_one(np.zeros((5, 5), dtype=complex))
        assert np.allclose(out, 0.0)


class TestPhaseDifferences:
    def test_constant_slope(self):
        r = acf2d_unbiased(cisoid(6, 6, 0.5, 0.2))
        d = phase_differences(r[:, 0])
        assert d[0] == 0.0
        assert np.allclose(d[1:], 0.5, atol=1e-10)

    def test_dc(self):
        r = acf2d_unbiased(cisoid(6, 6, 0.0, 0.0))
        assert np.allclose(phase_differences(r[:, 0]), 0.0, atol=1e-12)

    def test_near_pi_principal_value(self):
        r = acf2d_unbiased(cisoid(6, 6, 3.0, 0.0))
        d = phase_differences(r[:, 0])
        assert np.allclose(d[1:], 3.0, atol=1e-10)

    def test_column_and_row_lags(self):
        r = acf2d_unbiased(cisoid(5, 7, 0.4, -0.7))
        assert len(phase_differences(r[:, 0])) == 5
        assert len(phase_differences(r[0, :])) == 7
        assert np.allclose(phase_differences(r[0, :])[1:], -0.7, atol=1e-10)


class TestSelectWrapBranch:
    def test_no_wrap_needed(self):
        d = np.array([0.0, 0.5, 0.5])
        assert np.allclose(select_wrap_branch(d), d)

    def test_sign_flips_near_pi_wrap(self):
        # alternating signs near pi have huge variance unless wrapped
        d = np.array([0.0, 3.1, -3.1, 3.1])
        out = select_wrap_branch(d)
        wrapped = np.mod(d, 2 * np.pi)
        assert np.var(wrapped) < np.var(d)
        assert np.allclose(out, wrapped)
        # the artificial leading zero stays put
        assert out[0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=2, max_size=20))
    def test_matches_variance_comparison(self, vals):
        d = np.array(vals)
        expected = select_wrap_branch_oracle(d)
        out = select_wrap_branch(d)
        # the two tests of the variance gap differ only by rounding, so a
        # near-tie may go either way
        wrapped = np.mod(d, 2 * np.pi)
        if abs(np.var(wrapped) - np.var(d)) > 1e-9 * (1.0 + np.var(d)):
            assert np.array_equal(out, expected)

    def test_all_negative_is_a_tie(self):
        d = np.array([-0.5, -0.2, -0.9])
        assert np.array_equal(select_wrap_branch(d), d)

    def test_constant_sequence_kept(self):
        d = np.full(5, 0.7)
        assert np.allclose(select_wrap_branch(d), d)


class TestUnwrapCumsum:
    """The phases are unwrapped by a cumulative sum of the differences;
    the estimator folds that sum into the slope weights g_M."""

    def test_basic(self):
        d = np.array([0.0, 0.5, 0.5])
        assert _slope_weights(3) @ d == pytest.approx(
            wls_slope(np.array([0.0, 0.5, 1.0]), wls_weights(3)), abs=1e-15)

    def test_zeros(self):
        assert _slope_weights(4) @ np.zeros(4) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=20))
    def test_matches_prefix_sum(self, vals):
        d = np.array(vals)
        ref = [sum(vals[: i + 1]) for i in range(len(vals))]
        expected = wls_slope_oracle(np.array(ref), wls_weights(len(vals)))
        assert _slope_weights(len(vals)) @ d == pytest.approx(expected, abs=1e-9)

    def test_matches_slope_of_each_unit_step(self):
        # g_M[k] is the oracle slope of the k-th unit step, cumsum(e_k); the
        # closed form rounds differently, within a few ulp of max|g_M|
        for m in range(2, 65):
            w = wls_weights(m)
            table = np.array([wls_slope(step, w) for step in np.tri(m).T])
            g = _slope_weights(m)
            assert np.abs(g - table).max() <= 4e-15 * np.abs(table).max()

    def test_cached_read_only(self):
        g = _slope_weights(16)
        assert g is _slope_weights(16)
        assert not g.flags.writeable


class TestWlsWeights:
    def test_m4(self):
        assert np.allclose(wls_weights(4), [20.0, 7.5, 10.0 / 3.0, 1.25])

    def test_m2(self):
        assert np.allclose(wls_weights(2), [6.0, 1.5])

    def test_positive_decreasing(self):
        for m in range(2, 65):
            w = wls_weights(m)
            assert np.all(w > 0)
            assert np.all(np.diff(w) < 0)


class TestWlsSlope:
    def test_exact_line(self):
        phases = 0.3 * np.arange(10)
        assert wls_slope(phases, wls_weights(10)) == pytest.approx(0.3, abs=1e-12)

    def test_offset_invariance(self):
        phases = 0.3 * np.arange(10) + 1.0
        assert wls_slope(phases, wls_weights(10)) == pytest.approx(0.3, abs=1e-12)

    def test_matches_normal_equations(self):
        rng = SeededRng(61)
        phases = 0.4 * np.arange(12) + 0.05 * rng.normal(1.0, size=12)
        w = wls_weights(12)
        assert wls_slope(phases, w) == pytest.approx(wls_slope_oracle(phases, w), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-5, max_value=5))
    def test_recovers_any_line(self, slope, intercept):
        phases = slope * np.arange(8) + intercept
        assert wls_slope(phases, wls_weights(8)) == pytest.approx(slope, abs=1e-9)


class TestEstimateAmplitude:
    @pytest.mark.parametrize("n_r, n_t", [(8, 8), (5, 9)])
    def test_pure_cisoid(self, n_r, n_t):
        # ACF magnitude of a cisoid is |alpha|^2 at every lag, so the
        # weighted average returns |alpha| exactly, at any lag counts
        alpha = 0.65
        h = cisoid(n_r, n_t, 0.7, -0.3, amp=alpha, phase=0.2)
        assert estimate_amplitude(acf2d_unbiased(h)) == pytest.approx(alpha, abs=1e-10)

    def test_noisy_accuracy(self):
        # 3% mean accuracy at high spatial SNR
        alpha = 1.0
        errs = []
        for t in range(300):
            rng = SeededRng(62).substream(t)
            noise = (rng.normal(1.0, size=(16, 16)) + 1j * rng.normal(1.0, size=(16, 16)))
            h = cisoid(16, 16, 0.9, 0.4, amp=alpha) + np.sqrt(256 * 1e-4 / 2) * noise
            errs.append(estimate_amplitude(acf2d_unbiased(h)))
        assert np.mean(errs) == pytest.approx(alpha, rel=0.03)


class TestDerotatedMean:
    @staticmethod
    def phase(d, w_aoa, w_aod):
        return np.angle(derotated_mean(d, w_aoa, w_aod)[0])

    def test_perfect_derotation(self):
        h = cisoid(8, 8, 0.9, -0.4, amp=0.5, phase=0.7)
        mean, _ = derotated_mean(h, 0.9, -0.4)
        assert mean == pytest.approx(0.5 * np.exp(0.7j), abs=1e-12)

    def test_zero_phase(self):
        d = cisoid(8, 8, 0.9, -0.4, amp=0.5, phase=0.0)
        assert self.phase(d, 0.9, -0.4) == pytest.approx(0.0, abs=1e-12)

    def test_frequency_mismatch_first_order(self):
        # small frequency error tilts the sum; phase error stays within
        # the first-order bound (n_r + n_t) * delta / 2
        delta = 1e-3
        d = cisoid(8, 8, 0.9, -0.4, phase=0.3)
        assert abs(self.phase(d, 0.9 + delta, -0.4 + delta) - 0.3) <= (8 + 8) * delta / 2 + 1e-9

    def test_zero_input_gets_zero_phase(self):
        d = np.zeros((4, 4), dtype=complex)
        assert derotated_mean(d, 0.1, 0.1)[0] == 0
        est, _ = _estimate_component(d)
        assert est.gain_phase == 0.0

    def test_returns_unit_cisoid(self):
        # the cisoid the SIC loop cancels with: exactly the one-cisoid
        # cisoid_sum, and the explicit formula to rounding
        d = cisoid(6, 8, -1.1, 0.5, amp=0.3, phase=0.25)
        _, cis = derotated_mean(d, -1.1, 0.5)
        assert np.array_equal(cis, cisoid_sum(1.0, -1.1, 0.5, 6, 8))
        assert np.allclose(cis, cisoid(6, 8, -1.1, 0.5), atol=1e-12)


class TestRun:
    def setup_method(self):
        self.cb = build_codebook(16, 16, 16, 16)

    def test_noiseless_on_grid_recovery(self):
        path = PathParams.from_gain_angles(
            0.8 * np.exp(1j * 0.3),
            beam_angle(self.cb, "tx", 3),
            beam_angle(self.cb, "rx", 3),
        )
        y = synthesize_observation(build_channel([path], 16, 16), self.cb, 0.0)
        est = run(spatial_ls(y), 1, 1)[0]
        assert est.gain_magnitude == pytest.approx(path.gain_magnitude, abs=1e-8)
        assert est.gain_phase == pytest.approx(path.gain_phase, abs=1e-8)
        assert est.omega_aod == pytest.approx(path.omega_aod, abs=1e-8)
        assert est.omega_aoa == pytest.approx(path.omega_aoa, abs=1e-8)

    def test_zero_observation(self):
        h = build_channel([PathParams.from_gain_angles(0.0, 1.0, 1.0)], 16, 16)
        ests = run(spatial_ls(synthesize_observation(h, self.cb, 0.0)), 1, 1)
        assert len(ests) == 1
        assert ests[0].gain_magnitude == 0.0

    def test_gain_scale_equivariance(self):
        h = build_channel(sample_paths(1, SeededRng(71)), 16, 16)
        y = synthesize_observation(h, self.cb, 0.0)
        base = run(spatial_ls(y), 1, 1)[0]
        est = run(spatial_ls(3.0 * y), 1, 1)[0]
        assert est.gain_magnitude == pytest.approx(3.0 * base.gain_magnitude, rel=1e-8)
        assert est.omega_aod == pytest.approx(base.omega_aod, abs=1e-10)
        assert est.gain_phase == pytest.approx(base.gain_phase, abs=1e-8)

    def test_global_phase_equivariance(self):
        h = build_channel(sample_paths(1, SeededRng(72)), 16, 16)
        y = synthesize_observation(h, self.cb, 0.0)
        beta = 1.1
        base = run(spatial_ls(y), 1, 1)[0]
        est = run(spatial_ls(np.exp(1j * beta) * y), 1, 1)[0]
        shift = wrap(est.gain_phase - base.gain_phase, -np.pi, np.pi)
        assert shift == pytest.approx(beta, abs=1e-8)
        assert est.gain_magnitude == pytest.approx(base.gain_magnitude, rel=1e-8)

    def test_frequencies_in_principal_range(self):
        for t in range(10):
            rng = SeededRng(73).substream(t)
            h = build_channel(sample_paths(3, rng), 16, 16)
            y = synthesize_observation(h, self.cb, 0.1, rng)
            for est in run(spatial_ls(y), 3, 2):
                assert -np.pi <= est.omega_aod <= np.pi
                assert -np.pi <= est.omega_aoa <= np.pi

    def test_sic_residual_never_grows(self):
        for t in range(10):
            rng = SeededRng(74).substream(t)
            h = build_channel(sample_paths(3, rng), 16, 16)
            h_ls = spatial_ls(synthesize_observation(h, self.cb, 0.1, rng))
            ests = run(h_ls, 3, 2)
            total = reconstruct_channel(ests, 16, 16)
            assert np.linalg.norm(h_ls - total) <= np.linalg.norm(h_ls) + 1e-12

    # run's range rule, 1 <= l_desired <= min(n_r, n_t) and rounds >= 1, reads
    # the sizes off the estimate's shape
    @pytest.mark.parametrize("l_desired, rounds", [(0, 1), (1, 0), (5, 1)])
    def test_config_validation(self, l_desired, rounds):
        with pytest.raises(ValueError):
            run(np.ones((4, 6), dtype=complex), l_desired, rounds)

    # run takes no sizes: on a non-square estimate it recovers the path to
    # criterion 1's tolerance from the estimate's shape alone
    @pytest.mark.parametrize("n_r, n_t", [(8, 12), (12, 8)])
    def test_noiseless_non_square_recovery(self, n_r, n_t):
        cb = build_codebook(16, 16, n_t, n_r)
        for t in range(10):
            [truth] = sample_paths(1, SeededRng(76).substream(t))
            h = build_channel([truth], n_t, n_r)
            est = run(spatial_ls(synthesize_observation(h, cb, 0.0), n_t, n_r), 1, 1)[0]
            assert abs(est.gain_magnitude - truth.gain_magnitude) < 1e-8
            assert abs(wrap(est.gain_phase - truth.gain_phase, -np.pi, np.pi)) < 1e-8
            assert abs(est.omega_aod - truth.omega_aod) < 1e-8
            assert abs(est.omega_aoa - truth.omega_aoa) < 1e-8
            err = np.linalg.norm(reconstruct_channel([est], n_t, n_r) - h) ** 2
            assert err / np.linalg.norm(h) ** 2 < 1e-15


class TestSic:
    """The driver alone, with a stub component whose estimates are known."""

    def test_residuals_trace_and_path_order(self):
        n_r, n_t = 4, 5
        h_ls = cisoid_sum([1.0, 0.5j, -0.3], [0.1, 1.2, -2.0], [0.4, -0.7, 2.5], n_r, n_t)
        cis = {l: cisoid_sum(1.0, 0.3 * l, -0.2 * l, n_r, n_t) for l in (1, 2, 3)}

        def estimate(k, l):  # a new gain every round, so a stale cancellation shows
            return PathParams.from_freqs(0.1 * k + l, 0.5 * l - k, -0.2 * l, 0.3 * l)

        seen = []

        def component(residual, k, l):
            seen.append(residual.copy())
            return estimate(k, l), cis[l]

        trace = []
        got = sic(h_ls, component, 3, 2, trace)
        assert got == [estimate(2, l) for l in (1, 2, 3)]
        steps = [(k, l) for k in (1, 2) for l in (1, 2, 3)]
        assert [(r["round"], r["path"]) for r in trace] == steps
        for (k, l), record, residual in zip(steps, trace, seen):
            # paths before l were re-estimated this round, those after it last round
            latest = [estimate(k if i < l else k - 1, i) for i in (1, 2, 3)]
            others = [i for i in (1, 2, 3) if i < l or (i > l and k > 1)]
            expected = h_ls - sum(latest[i - 1].gain * cis[i] for i in others)
            np.testing.assert_allclose(residual, expected, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(record["residual"], residual)
            assert record["estimate"] == estimate(k, l)

    # both estimators get the lower bounds from sic; dft_peak may still ask
    # for more paths than min(n_r, n_t)
    def test_rejects_bad_counts(self):
        h = np.ones((4, 5), dtype=complex)

        def component(residual, k, l):
            raise AssertionError("no step may run")

        for l_desired, rounds in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match=">= 1"):
                sic(h, component, l_desired, rounds)
        with pytest.raises(ValueError, match=">= 1"):
            dft_peak_baseline(h, 0, n_dft=64)


class TestSicCallCounts:
    """Kernel calls of one 16x16 L3K3 run, counted in every module that
    binds the kernel, so that no SIC step quietly does duplicate work."""

    KERNELS = {
        "cisoid_sum": 9,  # one unit cisoid per estimate, shared with the cancellation
        "eigh": 2,  # rank-one extraction of paths 1 and 2, round 1
        "acf2d_unbiased": 9,  # one per estimate
    }

    def test_counts(self, monkeypatch):
        import tsdce

        rng = SeededRng(75)
        h = build_channel(sample_paths(3, rng), 16, 16)
        h_ls = spatial_ls(synthesize_observation(h, build_codebook(16, 16, 16, 16), 0.1, rng))
        counts = dict.fromkeys(self.KERNELS, 0)
        for module in (tsdce.numkit, tsdce.channel, tsdce.observation, tsdce.algorithm,
                       np.linalg):
            for name in self.KERNELS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self._counting(counts, name,
                                                                      getattr(module, name)))
        run(h_ls, 3, 3)
        assert counts == self.KERNELS

    @staticmethod
    def _counting(counts, name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


class TestDftPeakCallCounts:
    """Kernel calls of one 16x16 L = 3 dft_peak_baseline call: one `sic`
    round, one derotated mean per path and no rank-one step."""

    CALLS = {"sic": 1, "cisoid_sum": 3, "derotated_mean": 3, "eigh": 0}

    def test_counts(self, monkeypatch):
        import tsdce

        rng = SeededRng(75)
        h = build_channel(sample_paths(3, rng), 16, 16)
        h_ls = spatial_ls(synthesize_observation(h, build_codebook(16, 16, 16, 16), 0.1, rng))
        counts = dict.fromkeys(self.CALLS, 0)
        for module in (tsdce.numkit, tsdce.channel, tsdce.observation, tsdce.algorithm,
                       tsdce.analysis, np.linalg):
            for name in self.CALLS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, TestSicCallCounts._counting(
                        counts, name, getattr(module, name)))
        dft_peak_baseline(h_ls, 3, n_dft=1024)
        assert counts == self.CALLS


class TestReconstructChannel:
    def test_truth_roundtrip(self):
        paths = sample_paths(2, SeededRng(81))
        h = build_channel(paths, 16, 16)
        ests = [PathParams.from_freqs(p.gain_magnitude, p.gain_phase,
                                      p.omega_aod, p.omega_aoa) for p in paths]
        assert np.allclose(reconstruct_channel(ests, 16, 16), h, atol=1e-10)

    def test_single_estimate_rank_one(self):
        est = PathParams.from_freqs(1.0, 0.0, 0.4, -0.9)
        h = reconstruct_channel([est], 16, 16)
        assert np.linalg.svd(h, compute_uv=False)[1] < 1e-10

    def test_noiseless_two_orthogonal_paths(self):
        cb = build_codebook(16, 16, 16, 16)
        g1 = PathParams.from_gain_angles(0.9, beam_angle(cb, "tx", 2), beam_angle(cb, "rx", 5))
        g2 = PathParams.from_gain_angles(0.4 * np.exp(1j * 1.0),
                                         beam_angle(cb, "tx", 7), beam_angle(cb, "rx", 1))
        h = build_channel([g1, g2], 16, 16)
        h_hat = reconstruct_channel(run(spatial_ls(synthesize_observation(h, cb, 0.0)), 2, 2), 16, 16)
        err = np.linalg.norm(h_hat - h) ** 2 / np.linalg.norm(h) ** 2
        assert 10 * np.log10(err) < -160.0


class TestGenieSic:
    def test_per_path_step_near_crlb_at_20db(self):
        # criterion 6's realizations (seed 208, 500 per SNR, L = 3), with
        # every other path cancelled by its true value: what is left of
        # criterion 6's gap is the per-path step's own. 10 dB reads 2.90 dB
        # above the CRLB, too close to 3 to gate.
        cb = build_codebook(16, 16, 16, 16)
        gaps = {}
        for snr_db in (0.0, 10.0, 20.0):
            sigma_n_sq = 10.0 ** (-snr_db / 10.0)
            genie, crlb = [], []
            for t in range(500):
                stream = SeededRng(208).substream((int(snr_db) << 16) | t)
                paths = sample_paths(3, stream)
                h = build_channel(paths, 16, 16)
                y = synthesize_observation(h, cb, sigma_n_sq, stream)
                h_hat = reconstruct_channel(genie_sic(spatial_ls(y), paths), 16, 16)
                genie.append(nmse_ratio(h_hat, h))
                crlb.append(crlb_nmse_bound(paths, 16, 16, sigma_n_sq / 256))
            gaps[snr_db] = 10 * np.log10(np.mean(genie) / np.mean(crlb))
        print("genie-SIC dB above the CRLB at 0/10/20 dB: "
              + "/".join(f"{g:.2f}" for g in gaps.values()))
        assert gaps[20.0] <= 3.0
