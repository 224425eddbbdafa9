"""Outside-in tracing of the tsdce layers.

``instrument`` replaces each traced function with a timing wrapper in
every module namespace that bound it (``from .numkit import dft2d`` copies
the binding into the importing module, so patching the defining module
alone would miss those calls). Each call records a span: name, start,
end, the enclosing span, the thread and a trial id. Spans stay in memory
until the caller writes them out.

The enclosing span is the innermost open span on the same thread. A
span opened on a thread with nothing open (a worker thread of the trial
pool) takes as parent the innermost span open on the thread that created
the recorder, which is the span that is waiting for the pool. Children of
one span can therefore overlap in time; self time subtracts the union of
their intervals, not their sum.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# A trial root opened while no trial is open begins a new Monte Carlo
# trial that holds the span and everything under it (one per sweep trial).
TRIAL_ROOTS = ("bench._run_trial",)
# A trial start opened while no trial is open begins a trial that also
# holds the sibling spans after it, up to the next start: `tsdce bound`
# has no per-sample function, only a cli loop that draws one substream
# per CRLB sample.
TRIAL_STARTS = ("numkit.SeededRng.substream",)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    trial: int | None
    error: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Open:
    __slots__ = ("id", "name", "start", "parent", "trial", "child_trial", "error")

    def __init__(self, id, name, start, parent, trial):
        self.id = id
        self.name = name
        self.start = start
        self.parent = parent
        self.trial = trial
        self.child_trial = None
        self.error = None


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._trials = itertools.count()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Open:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._home:
            try:
                parent = self._home[-1]
            except IndexError:
                parent = None
        if parent is not None and parent.trial is not None:
            trial = parent.trial
        elif name in TRIAL_ROOTS:
            trial = next(self._trials)
        elif name in TRIAL_STARTS:
            trial = next(self._trials)
            if parent is not None:
                parent.child_trial = trial
        else:
            trial = parent.child_trial if parent is not None else None
        span = _Open(next(self._ids), name, 0.0, parent, trial)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: _Open) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            Span(
                span.id,
                span.name,
                span.start,
                end,
                None if span.parent is None else span.parent.id,
                threading.get_ident(),
                span.trial,
                span.error,
            )
        )

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)

        return traced


def instrument(recorder: Recorder, targets, namespaces):
    """Wrap every target in every namespace that binds it.

    ``targets`` maps a span name to ``(owner, attribute)``: a module or a
    class and the name the function has there. ``namespaces`` are the
    module objects whose global bindings are searched. Returns a function
    that restores the originals.
    """
    undo = []
    for span_name, (owner, attr) in targets.items():
        original = owner.__dict__[attr]
        wrapped = recorder.wrap(span_name, original)
        holders = [owner] + [ns for ns in namespaces if ns is not owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id]) for s in spans
    }


def summarize(spans, layers):
    """Per-name call statistics and per-layer self time, in seconds.

    Returns ``(calls, self_by_layer, trial_ids)`` where ``calls`` maps a
    span name to ``{"count", "errors", "p50", "p90"}``.
    """
    durations = defaultdict(list)
    errors = defaultdict(int)
    own = self_times(spans)
    self_by_layer = {layer: 0.0 for layer in layers}
    trial_ids = set()
    for s in spans:
        durations[s.name].append(s.end - s.start)
        if s.error is not None:
            errors[s.name] += 1
        self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) + own[s.id]
        if s.trial is not None:
            trial_ids.add(s.trial)
    calls = {}
    for name, ds in durations.items():
        ds.sort()
        calls[name] = {
            "count": len(ds),
            "errors": errors[name],
            "p50": statistics.median(ds),
            "p90": ds[min(len(ds) - 1, int(0.9 * len(ds)))],
        }
    return calls, self_by_layer, trial_ids


def write_spans(spans, path) -> None:
    """One span per line: id, name, start, end, parent, thread, trial, error."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,name,start,end,parent,thread,trial,error\n")
        for s in spans:
            fh.write(
                f"{s.id},{s.name},{s.start:.9f},{s.end:.9f},"
                f"{'' if s.parent is None else s.parent},{s.thread},"
                f"{'' if s.trial is None else s.trial},{s.error or ''}\n"
            )
