"""Spans around arv's call boundaries, recorded in memory for the traced run.

Each boundary is wrapped where the call is made: ``arv.monitor.translate_stl``
is the name ``build_monitor_pair`` looks up, ``arv.translate.trim`` the one
``translate_stl`` looks up, and so on. When a later change moves a call, the
wrapper list below has to follow it.

A span is ``[name, start, end, parent, op, child_s, calls, busy_s]``:
``parent`` indexes the enclosing span (-1 at the root), ``op`` identifies
the `arv monitor` invocation, ``child_s`` is the time spent in wrapped calls
beneath it and ``busy_s`` its own duration. Calls made once per sample or
per guard (``ValueStream.step``, ``is_sat``) are coalesced into one span per
parent that sums their ``calls`` and ``busy_s``, so a pass over 1e5 samples
keeps a handful of records, not 1e5.

Live-location counts need a look at every location before every step, which
would add harness work to the times of the spans around the steps. They are
therefore collected in a pass of their own (``observing``) that is not timed.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from functools import partial

import arv.automaton
import arv.cli
import arv.monitor
import arv.predicate
import arv.speclang
import arv.translate

perf_counter = time.perf_counter

# (owner, attribute, span name); each call becomes one span
BOUNDARIES = (
    (arv.cli, "main", "cli.main"),
    (arv.cli, "read_trace_csv", "speclang.read_trace_csv"),
    (arv.cli, "parse_spec_text", "speclang.parse_spec_text"),
    (arv.monitor, "robustness", "monitor.robustness"),
    (arv.monitor, "robustness_prefix_series", "monitor.robustness_prefix_series"),
    (arv.monitor, "build_monitor_pair", "monitor.build_monitor_pair"),
    (arv.monitor, "translate_stl", "translate.translate_stl"),
    (arv.monitor, "translate_sre", "translate.translate_sre"),
    (arv.speclang, "unfold_bounded", "speclang.unfold_bounded"),
    (arv.speclang, "eval_stl", "speclang.eval_stl"),
    (arv.translate, "trim", "automaton.trim"),
    (arv.translate, "canonicalize", "automaton.canonicalize"),
    (arv.translate, "eps_eliminate", "automaton.eps_eliminate"),
    (arv.translate, "product", "automaton.product"),
    (arv.automaton, "complement", "automaton.complement"),
    (arv.automaton, "determinize", "automaton.determinize"),
    (arv.automaton, "decorate", "automaton.decorate"),
    (arv.automaton, "compiled_weights", "distance.compiled_weights"),
    (arv.monitor.ValueStream, "__init__", "monitor.ValueStream.__init__"),
)

# per-guard or per-sample calls, coalesced per parent span
COALESCED = (
    (arv.predicate, "is_sat", "predicate.is_sat"),
    (arv.monitor.ValueStream, "step", "monitor.ValueStream.step"),
)


class LiveCounts:
    """Live locations per step, read from ``ValueStream.costs`` before the
    step: a location is live when its cost is not the semiring's zero, which
    is the test ``ValueStream.step`` applies to each edge's source."""

    def __init__(self):
        self.steps = 0
        self.live_sum = 0
        self.peak = 0
        self.edges_swept = 0
        self.live_edges = 0
        self.peak_by_role: dict = defaultdict(int)
        self._out_degree: dict = {}

    def observe(self, stream, role):
        w = stream.w
        key = id(w)
        entry = self._out_degree.get(key)
        if entry is None:
            degree = [0] * w.base.n_locations
            for src, _, _ in w.base.transitions:
                degree[src] += 1
            entry = self._out_degree[key] = (w, degree)
        degree = entry[1]
        e_plus = w.semiring.e_plus
        live = [q for q, c in stream.costs.items() if c != e_plus]
        n = len(live)
        self.steps += 1
        self.live_sum += n
        self.peak = max(self.peak, n)
        self.edges_swept += len(w.base.transitions)
        self.live_edges += sum(degree[q] for q in live)
        if n > self.peak_by_role[role]:
            self.peak_by_role[role] = n


class Recorder:
    """Spans of one traced pass, or live-location counts of an observed one."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.entry = ""  # corpus entry of the running invocation
        self.live = LiveCounts()
        self._coalesced: dict = {}
        self._roles: dict = {}  # id(weighted automaton) -> (automaton, "pos"|"neg")

    def role_of(self, w):
        """(entry, "pos" or "neg") of a weighted automaton from this pass."""
        hit = self._roles.get(id(w))
        return (self.entry, hit[1] if hit is not None else "?")

    def observe(self, fn):
        """``ValueStream.step`` that first counts the stream's live locations."""
        live, role_of = self.live, self.role_of

        def wrapper(stream, *args, **kwargs):
            live.observe(stream, role_of(stream.w))
            return fn(stream, *args, **kwargs)

        return wrapper

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, self.op, 0.0, 1, 0.0]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2], span[7] = t0, t1, t1 - t0
                if parent >= 0:
                    spans[parent][5] += t1 - t0

        return wrapper

    def wrap_coalesced(self, name, fn):
        spans, stack, index = self.spans, self.stack, self._coalesced

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                parent = stack[-1] if stack else -1
                idx = index.get((parent, name))
                if idx is None:
                    index[(parent, name)] = len(spans)
                    spans.append([name, t0, t1, parent, self.op, 0.0, 1, t1 - t0])
                else:
                    span = spans[idx]
                    span[2] = t1
                    span[6] += 1
                    span[7] += t1 - t0
                if parent >= 0:
                    spans[parent][5] += t1 - t0

        return wrapper

    def note_pair(self, fn):
        roles = self._roles

        def wrapper(*args, **kwargs):
            pos, neg = fn(*args, **kwargs)
            roles[id(pos)] = (pos, "pos")
            roles[id(neg)] = (neg, "neg")
            return pos, neg

        return wrapper


@contextlib.contextmanager
def _patched(wrappers):
    """Replaces each ``owner.attr`` by ``wrap(owner.attr)``, then restores it."""
    saved = []
    try:
        for owner, attr, wrap in wrappers:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def tracing(rec: Recorder):
    """Records a timed span for every call across the boundaries."""
    return _patched(
        [(owner, attr, partial(rec.wrap, name)) for owner, attr, name in BOUNDARIES]
        + [(owner, attr, partial(rec.wrap_coalesced, name)) for owner, attr, name in COALESCED]
    )


def observing(rec: Recorder):
    """Counts live locations before every ``ValueStream.step``; times nothing."""
    return _patched([
        (arv.monitor, "build_monitor_pair", rec.note_pair),
        (arv.monitor.ValueStream, "step", rec.observe),
    ])


def totals(spans):
    """Per span name: (busy seconds, self seconds, calls)."""
    busy: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for name, _, _, _, _, child, n, b in spans:
        busy[name] += b
        self_s[name] += b - child
        calls[name] += n
    return busy, self_s, calls


def layer_metrics(rec: Recorder, pass_s: float) -> dict:
    """The per-layer metrics of one traced pass.

    Names ending in ``_self_s`` are self times (the span minus the wrapped
    calls beneath it); other ``_s`` names are inclusive times.
    """
    busy, self_s, calls = totals(rec.spans)
    return {
        "translate.stl_self_s": self_s["translate.translate_stl"],
        "translate.sre_self_s": self_s["translate.translate_sre"],
        "speclang.unfold_s": busy["speclang.unfold_bounded"],
        "automaton.trim_canonicalize_s": busy["automaton.trim"] + busy["automaton.canonicalize"],
        "automaton.eps_eliminate_s": busy["automaton.eps_eliminate"],
        "automaton.product_s": busy["automaton.product"],
        "automaton.determinize_s": busy["automaton.determinize"],
        "automaton.decorate_s": busy["automaton.decorate"],
        "predicate.is_sat_calls": calls["predicate.is_sat"],
        "predicate.is_sat_s": busy["predicate.is_sat"],
        "monitor.step_s": busy["monitor.ValueStream.step"],
        "monitor.steps": calls["monitor.ValueStream.step"],
        "monitor.stream_init_s": busy["monitor.ValueStream.__init__"],
        "distance.compile_weight_s": busy["distance.compiled_weights"],
        "speclang.read_csv_s": busy["speclang.read_trace_csv"],
        "speclang.eval_stl_s": busy["speclang.eval_stl"],
        "speclang.parse_s": busy["speclang.parse_spec_text"],
        "monitor.build_pair_s": busy["monitor.build_monitor_pair"],
        "monitor.prefix_self_s": self_s["monitor.robustness_prefix_series"],
        "cli.invocation_s": busy["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "bench.root_self_s": pass_s - busy["cli.main"],
    }


def live_metrics(live: LiveCounts) -> dict:
    """The live-location metrics of one observed pass."""
    return {
        "monitor.edges_swept": live.edges_swept,
        "monitor.live_locations_mean": live.live_sum / max(live.steps, 1),
        "monitor.live_locations_peak": live.peak,
        "monitor.live_edge_ratio": live.live_edges / max(live.edges_swept, 1),
    }
