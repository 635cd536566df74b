"""Traced-run instrumentation for the benchmark.

The tracer wraps rsskit's public functions from outside the package.  A
function that other modules import by name (``from .rule import
evaluate``) lives in several namespaces, so every ``rsskit.*`` module
attribute that holds the original function object is rebound to the
wrapper, and ``uninstall`` puts the originals back.

Each wrapper keeps, per function: the call count, inclusive time, self
time (inclusive minus the time of wrapped calls made inside it) and the
number of wrapped calls nested inside it.  Coarse functions (campaigns,
episodes, audits, file I/O) also record one span each, kept in memory
and written out when the run ends.  Fine-grained functions such as
``rule.evaluate`` or ``dynamics.profile_state`` run hundreds of
thousands of times per run, so they record counts and accumulated time
only.
"""
from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

perf_ns = time.perf_counter_ns

COUNT = "count"
SPAN = "span"


class Stat:
    """Accumulated figures for one wrapped function."""

    __slots__ = ("calls", "incl_ns", "self_ns", "nested", "durations", "watched")

    def __init__(self, keep_durations=False, watch=()):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.nested = 0
        self.durations = array("q") if keep_durations else None
        self.watched = {name: 0 for name in watch}


class Spec:
    """How one function is wrapped.

    kind            -- COUNT (counters only) or SPAN (counters plus a span)
    keep_durations  -- keep every call's duration, for percentiles
    watch           -- names of other wrapped functions whose calls made
                       inside this one are counted separately
    on_return       -- hook(tracer, args, kwargs, result, dur_ns, nested)
                       run after the call's clock has stopped
    """

    def __init__(self, kind=COUNT, keep_durations=False, watch=(), on_return=None):
        self.kind = kind
        self.keep_durations = keep_durations
        self.watch = watch
        self.on_return = on_return


def _written_bytes(tracer, args, kwargs, result, dur_ns, nested):
    tracer.extra["trajio.bytes"] += os.path.getsize(args[1])


def _read_bytes(tracer, args, kwargs, result, dur_ns, nested):
    tracer.extra["trajio.bytes"] += os.path.getsize(args[0])


def _report_bytes(tracer, args, kwargs, result, dur_ns, nested):
    tracer.extra["report.bytes"] += len(result.encode("utf-8"))


def _episode(tracer, args, kwargs, result, dur_ns, nested):
    kind = "supervised" if kwargs.get("supervised", True) else "negative"
    extra = tracer.extra
    extra["supervisor.steps"] += len(result.samples)
    extra["supervisor.bc_engagements"] += result.bc_engagements
    extra[f"episode.{kind}.calls"] += 1
    extra[f"episode.{kind}.incl_ns"] += dur_ns
    extra[f"episode.{kind}.nested"] += nested


def _audited(tracer, args, kwargs, result, dur_ns, nested):
    tracer.extra["audit.samples"] += len(args[0].samples)


# Layer -> function -> how it is wrapped.  core holds value types only and
# cli is exercised as a whole by the audit_io workload, so neither is here.
LAYERS = {
    "rule": {
        "safe_distance": Spec(),
        "evaluate": Spec(),
    },
    "dynamics": {
        "worst_case_gap_analysis": Spec(),
        "build_profile": Spec(),
        "analyze_gap": Spec(),
        "profile_state": Spec(),
        "classify_worst_case": Spec(),
        "advance_vehicle": Spec(),
        "refine_crossing": Spec(),
    },
    "supervisor": {
        "run_supervised": Spec(SPAN, on_return=_episode),
        "decide": Spec(keep_durations=True),
        "worst_case_successor": Spec(),
    },
    "response": {
        "proper_response_command": Spec(),
        "advance_phase": Spec(),
    },
    "audit": {
        "audit": Spec(
            SPAN, watch=("rule.evaluate", "audit.check_compliance"), on_return=_audited
        ),
        "check_compliance": Spec(SPAN),
        "attribute_liability": Spec(SPAN),
    },
    "verify": {
        "verify_safety_theorem": Spec(SPAN),
        "falsify_below_threshold": Spec(SPAN),
        "verify_supervised_safety": Spec(SPAN),
    },
    "trajio": {
        "write_trajectory": Spec(SPAN, on_return=_written_bytes),
        "read_trajectory": Spec(SPAN, on_return=_read_bytes),
        "write_metric_csv": Spec(SPAN, on_return=_written_bytes),
    },
    "report": {
        "make_report": Spec(SPAN),
        "dump_report": Spec(SPAN, on_return=_report_bytes),
    },
}


class Tracer:
    """Collects per-function counters and spans while installed."""

    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.stats = {
            f"{layer}.{fn}": Stat(spec.keep_durations, spec.watch)
            for layer, fns in self.layers.items()
            for fn, spec in fns.items()
        }
        self.extra = Counter()
        # (name, span_id, parent_id, trace_id, start_ns, end_ns)
        self.spans = []
        self.trace_id = None
        self._frames = []  # [child_ns, nested_calls] per open wrapped call
        self._open_spans = []
        self._next_span = 0
        self._restore = []

    # -- spans opened by the harness itself (one per campaign or trajectory)

    def begin(self, name, trace_id):
        self.trace_id = trace_id
        span_id = self._new_span_id()
        self._open_spans.append(span_id)
        return (name, span_id, perf_ns())

    def end(self, token):
        name, span_id, t0 = token
        self._open_spans.pop()
        self.spans.append((name, span_id, None, self.trace_id, t0, perf_ns()))

    def _new_span_id(self):
        self._next_span += 1
        return self._next_span

    # -- wrapping

    def wrap(self, name, fn, spec):
        stat = self.stats[name]
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        watched = [(w, self.stats[w]) for w in spec.watch]
        is_span = spec.kind == SPAN
        durations = stat.durations
        on_return = spec.on_return
        tracer = self

        if not (is_span or watched or on_return) and durations is None:
            # The plain counter: the path every fine-grained call takes.
            def counter(*args, **kwargs):
                frame = [0, 0]
                frames.append(frame)
                t0 = perf_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_ns() - t0
                    frames.pop()
                    stat.calls += 1
                    stat.incl_ns += dur
                    stat.self_ns += dur - frame[0]
                    stat.nested += frame[1]
                    if frames:
                        outer = frames[-1]
                        outer[0] += dur
                        outer[1] += frame[1] + 1

            return counter

        def wrapper(*args, **kwargs):
            frame = [0, 0]
            before = [s.calls for _, s in watched] if watched else ()
            if is_span:
                span_id = tracer._new_span_id()
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            frames.append(frame)
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                frames.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.incl_ns += dur
                stat.self_ns += dur - frame[0]
                stat.nested += frame[1]
                if durations is not None:
                    durations.append(dur)
                if frames:
                    outer = frames[-1]
                    outer[0] += dur
                    outer[1] += frame[1] + 1
                if is_span:
                    open_spans.pop()
                    spans.append((name, span_id, parent, tracer.trace_id, t0, t1))
                for (w, s), n0 in zip(watched, before):
                    stat.watched[w] += s.calls - n0
            if on_return is not None:
                on_return(tracer, args, kwargs, result, dur, frame[1])
            return result

        return wrapper

    def install(self):
        """Rebind every rsskit.* attribute holding a wrapped function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "rsskit" or key.startswith("rsskit."))
        ]
        for layer, fns in self.layers.items():
            home = sys.modules[f"rsskit.{layer}"]
            for fn_name, spec in fns.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original, spec)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times relative to the first."""
        base = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, span_id, parent, trace_id, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "name": name, "span": span_id, "parent": parent, "trace": trace_id,
                    "start_ns": t0 - base, "end_ns": t1 - base,
                }) + "\n")


def _noop():
    return None


def wrapper_cost_ns(calls=200_000, repeats=5):
    """Measured cost of one call through an empty counting wrapper, in ns."""
    spec = Spec()
    wrapped = Tracer(layers={"bench": {"noop": spec}}).wrap("bench.noop", _noop, spec)
    costs = []
    for _ in range(repeats):
        t0 = perf_ns()
        for _ in range(calls):
            _noop()
        t1 = perf_ns()
        for _ in range(calls):
            wrapped()
        t2 = perf_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]
