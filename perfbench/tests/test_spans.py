import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans
from spans import Span, covered, self_times


def span(id, start, end, parent=None, thread=1, name="numkit.f"):
    return Span(id, name, start, end, parent, thread, None, None)


def test_self_time_subtracts_nested_children():
    tree = [span(0, 0.0, 10.0), span(1, 2.0, 5.0, parent=0), span(2, 3.0, 4.0, parent=1)]
    own = self_times(tree)
    assert own == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})


def test_self_time_counts_overlap_of_children_on_two_threads_once():
    tree = [
        span(0, 0.0, 10.0, thread=1),
        span(1, 1.0, 6.0, parent=0, thread=2),
        span(2, 4.0, 9.0, parent=0, thread=3),
    ]
    own = self_times(tree)
    # the children cover [1, 9]: 8 s of the parent's 10, not 5 + 5
    assert own == pytest.approx({0: 2.0, 1: 5.0, 2: 5.0})


def test_covered_merges_disjoint_nested_and_clipped_intervals():
    assert covered(0.0, 10.0, [(1.0, 2.0), (3.0, 5.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == pytest.approx(7.0)
    assert covered(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, []) == 0.0


def _fake_package():
    """Two 'layers': `inner.work` is imported by name into `outer`."""
    inner = types.ModuleType("inner")
    outer = types.ModuleType("outer")

    def work(x):
        return x + 1

    def _run_trial(x):
        return outer.work(x) + outer.work(x)

    def sweep(n, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(outer._run_trial, range(n)))

    work.__module__ = "inner"
    inner.work = work
    outer.work = work  # as `from .inner import work` binds it
    outer._run_trial = _run_trial
    outer.sweep = sweep
    return inner, outer


def test_instrument_patches_every_binding_and_restores_them():
    inner, outer = _fake_package()
    original = inner.work
    recorder = spans.Recorder()
    restore = spans.instrument(
        recorder, {"channel.work": (inner, "work")}, [inner, outer]
    )
    assert inner.work is not original and outer.work is inner.work
    assert outer.work(1) == 2
    restore()
    assert inner.work is original and outer.work is original
    assert [s.name for s in recorder.spans] == ["channel.work"]


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_thread_spans_hang_under_the_waiting_span(workers):
    inner, outer = _fake_package()
    recorder = spans.Recorder()
    targets = {
        "channel.work": (inner, "work"),
        "bench._run_trial": (outer, "_run_trial"),
        "bench.sweep": (outer, "sweep"),
    }
    restore = spans.instrument(recorder, targets, [inner, outer])
    try:
        assert outer.sweep(6, workers) == [2 * (x + 1) for x in range(6)]
    finally:
        restore()
    by_id = {s.id: s for s in recorder.spans}
    (root,) = [s for s in recorder.spans if s.name == "bench.sweep"]
    trials = [s for s in recorder.spans if s.name == "bench._run_trial"]
    works = [s for s in recorder.spans if s.name == "channel.work"]
    assert root.parent is None and root.thread == threading.get_ident()
    assert len(trials) == 6 and all(t.parent == root.id for t in trials)
    assert len({t.trial for t in trials}) == 6
    assert len(works) == 12
    for w in works:
        parent = by_id[w.parent]
        assert parent.name == "bench._run_trial" and w.trial == parent.trial
        assert w.thread == parent.thread
    own = self_times(recorder.spans)
    assert all(v >= 0.0 for v in own.values())


def test_trial_start_holds_the_sibling_spans_after_it():
    recorder = spans.Recorder()
    loop = recorder.open("cli.main")
    ids = []
    for _ in range(2):
        for name in ("numkit.SeededRng.substream", "channel.sample_paths"):
            s = recorder.open(name)
            ids.append(s.trial)
            recorder.close(s)
    recorder.close(loop)
    assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]
    assert [s.trial for s in recorder.spans if s.name == "cli.main"] == [None]


def test_wrapper_records_the_exception_and_reraises():
    recorder = spans.Recorder()

    def boom():
        raise ArithmeticError("no")

    traced = recorder.wrap("numkit.boom", boom)
    with pytest.raises(ArithmeticError):
        traced()
    calls, _, _ = spans.summarize(recorder.spans, ["numkit"])
    assert calls["numkit.boom"]["errors"] == 1
