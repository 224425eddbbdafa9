import math

import pytest

import checks
import run
from workloads import WORKLOADS

TSDCE = WORKLOADS["sweep_tsdce"]
CRLB = WORKLOADS["bound_crlb"]
HEADER = "method,snr_db,nmse_db,doa_rmse_deg,p_detect,mean_sse,trials,wall_ms"


def run_csv(wall="12.5", ls_sse_20db="2.56", tsdce_nmse_20db="-32.7", trials=TSDCE.trials):
    rows = [
        HEADER,
        f"tsdce,0,-7.3,0.39,0.52,28.5,{trials},449.0",
        f"ls,0,1.77,,0,256,{trials},{wall}",
        f"tsdce,10,-20.4,0.25,0.80,1.66,{trials},512.6",
        f"ls,10,-8.53,,0,25.6,{trials},3.99",
        f"tsdce,20,{tsdce_nmse_20db},0.14,0.96,0.07,{trials},342.7",
        f"ls,20,-18.27,,0,{ls_sse_20db},{trials},2.59",
    ]
    return "\n".join(rows) + "\n"


def per_trial(tsdce_20db=None):
    """Per-trial error ratios whose means are run_csv()'s nmse_db cells."""
    nmse_db = {"tsdce": (-7.3, -20.4, -32.7), "ls": (1.77, -8.53, -18.27)}
    ratios = {m: [[10 ** (db / 10)] * TSDCE.trials for db in dbs] for m, dbs in nmse_db.items()}
    if tsdce_20db is not None:
        ratios["tsdce"][2] = tsdce_20db
    return ratios


def db_of_mean(ratios):
    return f"{10 * math.log10(sum(ratios) / len(ratios)):.6g}"


def crlb_trials(crlb_10db=None, crlb_20db=None):
    """Per-sample CRLB ratios whose means are bound_csv()'s nmse_db cells."""
    ratios = {"crlb": [[10 ** (db / 10)] * CRLB.trials for db in (-9.86, -19.9, -29.9)]}
    for i, override in ((1, crlb_10db), (2, crlb_20db)):
        if override is not None:
            ratios["crlb"][i] = override
    return ratios


def bound_csv(sse_20db="0.26", nmse_20db="-29.9", nmse_10db="-19.9"):
    return (
        "kind,snr_db,mean_sse,nmse_db\n"
        "crlb,0,26.5,-9.86\n"
        f"crlb,10,2.63,{nmse_10db}\n"
        f"crlb,20,{sse_20db},{nmse_20db}\n"
    )


def test_only_wall_ms_may_change_between_sweeps():
    assert checks.same_results(run_csv(), run_csv(wall="99.0"))


@pytest.mark.parametrize("cell", ["ls_sse_20db", "tsdce_nmse_20db", "trials"])
def test_one_perturbed_results_cell_is_rejected(cell):
    value = {"ls_sse_20db": "2.57", "tsdce_nmse_20db": "-32.8", "trials": 41}[cell]
    assert not checks.same_results(run_csv(), run_csv(**{cell: value}))


def _pass(reference, *others):
    texts = (reference,) + others
    return {"reference": reference, "per_trial": per_trial(),
            "sweeps": [{"rc": 0, "same": checks.same_results(reference, t)} for t in texts]}


def test_score_accepts_sweeps_that_differ_only_in_wall_ms():
    passes = [_pass(run_csv(), run_csv(wall="1.0")), _pass(run_csv(wall="7.0"))]
    assert run.score(TSDCE, passes) == (3, 0, [])


def test_score_fails_a_repeat_with_one_perturbed_cell():
    passes = [_pass(run_csv(), run_csv(tsdce_nmse_20db="-32.8"))]
    attempted, failed, problems = run.score(TSDCE, passes)
    assert (attempted, failed) == (2, 1)
    assert problems == ["results differ between sweeps of one process"]


def test_score_fails_a_thread_count_that_changes_a_cell():
    passes = [_pass(run_csv()), _pass(run_csv(ls_sse_20db="2.57"))]
    attempted, failed, problems = run.score(TSDCE, passes)
    assert (attempted, failed) == (2, 1)
    assert problems == ["results differ between processes"]


def test_score_fails_every_sweep_when_the_output_is_wrong():
    bad = run_csv(tsdce_nmse_20db="-10")
    attempted, failed, problems = run.score(TSDCE, [_pass(bad, bad)])
    assert (attempted, failed) == (2, 2) and problems


def test_score_counts_a_sweep_that_exited_non_zero():
    p = _pass(run_csv(), run_csv())
    p["sweeps"][1] = {"rc": 3, "same": False}
    attempted, failed, problems = run.score(TSDCE, [p])
    assert (attempted, failed) == (2, 1)
    assert problems == ["a sweep returned 3"]


def test_correct_sweep_passes_the_output_checks():
    assert checks.check_output(TSDCE, run_csv(), per_trial()) == []
    assert checks.check_output(CRLB, bound_csv(), crlb_trials()) == []
    assert checks.mean_notes(CRLB, bound_csv()) == []


def test_ls_error_must_match_the_analytic_value():
    # six standard deviations at 40 trials is 5.9 %; 10 % off is rejected
    problems = checks.check_output(TSDCE, run_csv(ls_sse_20db="2.82"), per_trial())
    assert len(problems) == 1 and "ls mean_sse" in problems[0]
    assert checks.check_output(TSDCE, run_csv(ls_sse_20db="2.60"), per_trial()) == []


def test_typical_tsdce_trial_must_beat_ls_at_every_snr():
    worse = [10 ** -1.8] * TSDCE.trials  # every trial at -18 dB, ls at -18.27 dB
    text = run_csv(tsdce_nmse_20db=db_of_mean(worse))
    problems = checks.check_output(TSDCE, text, per_trial(tsdce_20db=worse))
    assert problems == ["tsdce median error ratio 0.01585 is not below ls 0.01489 at 20 dB"]
    assert checks.mean_notes(TSDCE, text) == [
        "tsdce nmse_db -18 is not below ls -18.27 at 20 dB (mean over 40 trials; not gated)"
    ]


def test_one_catastrophic_trial_is_noted_not_failed():
    # 39 trials at -35 dB and one at ratio 2 put the mean at -13 dB
    ratios = [10 ** -3.5] * (TSDCE.trials - 1) + [2.0]
    text = run_csv(tsdce_nmse_20db=db_of_mean(ratios))
    assert checks.check_output(TSDCE, text, per_trial(tsdce_20db=ratios)) == []
    notes = checks.mean_notes(TSDCE, text)
    assert len(notes) == 1 and notes[0].startswith("tsdce nmse_db -12.98")
    assert checks.catastrophic_share(per_trial(tsdce_20db=ratios)) == 1 / TSDCE.trials
    assert checks.mean_notes(TSDCE, run_csv()) == []


def test_per_trial_ratios_must_give_the_csv_means():
    problems = checks.check_output(TSDCE, run_csv(tsdce_nmse_20db="-32.6"), per_trial())
    assert problems == ["tsdce per-trial ratios give -32.7 dB at 20 dB, the CSV -32.6 dB"]
    short = per_trial(tsdce_20db=[10 ** -3.27] * (TSDCE.trials - 1))
    assert checks.check_output(TSDCE, run_csv(), short) == [
        "per-trial ratios of tsdce at 20 dB are incomplete"
    ]
    assert checks.check_output(TSDCE, run_csv()) == ["no per-trial error ratios were recorded"]


def test_crlb_curve_must_be_finite():
    problems = checks.check_output(CRLB, bound_csv(sse_20db="nan"), crlb_trials())
    assert problems == ["crlb at 20 dB is not finite"]


def test_median_crlb_sample_must_decrease_in_snr():
    flat = [10 ** -1.9] * CRLB.trials  # 20 dB samples at -19 dB, above 10 dB's -19.9
    text = bound_csv(nmse_20db=db_of_mean(flat))
    assert checks.check_output(CRLB, text, crlb_trials(crlb_20db=flat)) == [
        "median crlb sample is not decreasing in SNR: 0.1033, 0.01023, 0.01259"
    ]


def test_one_heavy_crlb_sample_is_noted_not_failed():
    # one sample at ratio 4 lifts the 10 dB mean above the 0 dB one
    heavy = [10 ** -1.99] * (CRLB.trials - 1) + [4.0]
    text = bound_csv(nmse_10db=db_of_mean(heavy))
    assert checks.check_output(CRLB, text, crlb_trials(crlb_10db=heavy)) == []
    notes = checks.mean_notes(CRLB, text)
    assert len(notes) == 1 and notes[0].startswith("crlb nmse_db is not decreasing in SNR")


def test_missing_rows_and_wrong_trial_counts_are_reported():
    text = "\n".join(run_csv().splitlines()[:-1]) + "\n"
    assert any("no row for ls at 20 dB" in p for p in checks.check_output(TSDCE, text, per_trial()))
    assert checks.check_output(TSDCE, run_csv(trials=39), per_trial())


def test_accuracy_reads_the_estimator_at_20_db():
    assert checks.accuracy(TSDCE, run_csv()) == (-32.7, 0.96)
    assert checks.accuracy(CRLB, bound_csv()) == (-29.9, 0.0)
