"""Span tracing of rfident's layers from outside the package.

For a traced run the public functions listed in ``TRACED`` are rebound, in
every rfident module that holds them, to wrappers that record a span
(name, start, end, parent, attributes). Calls made inside the package look
these names up in their module's globals, so the wrappers see them too.
The originals are restored when the run ends.

Only the layer entry points are traced; per-evaluation helpers such as
``apply_hwi`` (hundreds of thousands of calls in a Monte Carlo run) are not,
which keeps the tracing overhead small.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

TRACED = {
    "constellation": ("moments", "make_constellation"),
    "signal_model": ("synthesize_burst", "read_burst_binary"),
    "fim_crb": ("fim_closed_form", "fim_numerical", "crb_report", "pa_subblock_crb"),
    "estimator": ("nls_estimate", "mc_crb_validation"),
    "features": ("extract_features",),
    "auth": ("simulate_campaign", "feature_table_from_bursts", "run_auth_experiment",
             "balanced_dr", "iwat_score", "glrt_score", "roc_auc"),
}

ROOT = "bench.run"  # span around one workload run, opened by the benchmark


def _enrollment(args, kwargs):
    return kwargs["enrollment"] if "enrollment" in kwargs else args[1]


# Counters read from a call's arguments or result: span name -> fn(args, kwargs, out) -> attrs.
ATTRS = {
    "estimator.nls_estimate": lambda a, k, out: {
        "nfev": out[1].n_evaluations, "converged": out[1].converged},
    "auth.iwat_score": lambda a, k, out: {"pairs": len(_enrollment(a, k))},
    "features.extract_features": lambda a, k, out: {"degenerate": bool(out.degenerate)},
    "auth.balanced_dr": lambda a, k, out: {"excluded": len(out.excluded_satellites)},
}

_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("us_p50", "us"), ("us_p95", "us"))


def _layer_metric_table():
    full = [
        "estimator.nls_estimate", "auth.iwat_score", "features.extract_features",
        "signal_model.synthesize_burst", "signal_model.read_burst_binary",
        "auth.balanced_dr", "auth.glrt_score", "auth.roc_auc",
    ]
    extra = {
        "estimator.nls_estimate": (("nfev_mean", "count"), ("converged_share", "share")),
        "auth.iwat_score": (("pairs_scored", "count"),),
        "features.extract_features": (("degenerate_share", "share"),),
        "auth.balanced_dr": (("excluded", "count"),),
    }
    table = []
    for name in full:
        table += [(f"{name}.{s}", u) for s, u in _STATS + extra.get(name, ())]
    for name in ("auth.simulate_campaign", "auth.feature_table_from_bursts",
                 "auth.run_auth_experiment", "estimator.mc_crb_validation", ROOT):
        table += [(f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    for name in ("fim_crb.fim_closed_form", "fim_crb.fim_numerical", "fim_crb.crb_report",
                 "fim_crb.pa_subblock_crb", "constellation.moments",
                 "constellation.make_constellation"):
        table += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    table += [("trace.run_s", "s"), ("trace.overhead_s", "s")]
    return table


# Every per-layer metric a traced run reports, with its unit, in output order.
LAYER_METRICS = _layer_metric_table()


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, attrs];
    parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(args, kwargs, out)
            return out

        return traced


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Rebind every traced function in each rfident module that holds it,
    and restore the originals on exit."""
    package = importlib.import_module("rfident")
    modules = [package] + [importlib.import_module(f"rfident.{m}") for m in TRACED]
    patched = []
    try:
        for home, names in TRACED.items():
            owner = importlib.import_module(f"rfident.{home}")
            for fname in names:
                original = getattr(owner, fname)
                wrapper = tracer.wrap(f"{home}.{fname}", original)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        setattr(mod, fname, wrapper)
                        patched.append((mod, fname, original))
        yield tracer
    finally:
        for mod, fname, original in patched:
            setattr(mod, fname, original)


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return own


def layer_metrics(spans, traced_run_s: float, untraced_run_s: float) -> dict:
    """Aggregate spans into the LAYER_METRICS values; names never called read 0."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    values = {"trace.run_s": traced_run_s, "trace.overhead_s": traced_run_s - untraced_run_s}
    for name, idx in by_name.items():
        d = dur[idx]
        attrs = [spans[i][4] for i in idx]
        values[f"{name}.calls"] = len(idx)
        values[f"{name}.busy_s"] = float(d.sum())
        values[f"{name}.self_s"] = float(own[idx].sum())
        values[f"{name}.us_p50"] = float(np.percentile(d, 50) * 1e6)
        values[f"{name}.us_p95"] = float(np.percentile(d, 95) * 1e6)
        if name == "estimator.nls_estimate":
            values[f"{name}.nfev_mean"] = float(np.mean([a["nfev"] for a in attrs]))
            values[f"{name}.converged_share"] = float(np.mean([a["converged"] for a in attrs]))
        elif name == "auth.iwat_score":
            values[f"{name}.pairs_scored"] = sum(a["pairs"] for a in attrs)
        elif name == "features.extract_features":
            values[f"{name}.degenerate_share"] = float(np.mean([a["degenerate"] for a in attrs]))
        elif name == "auth.balanced_dr":
            values[f"{name}.excluded"] = sum(a["excluded"] for a in attrs)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}


def accounting(spans, traced_run_s: float) -> dict:
    """For the root span (index 0) and each library span directly under it:
    children busy plus self time, against the traced run time."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = self_times(spans)
    rows: dict = {}
    for i, s in enumerate(spans):
        if s[3] > 0:
            continue
        row = rows.setdefault(s[0], {"children_busy_s": 0.0, "self_s": 0.0})
        row["children_busy_s"] += float(dur[i] - own[i])
        row["self_s"] += float(own[i])
    for row in rows.values():
        row["share_of_run_s"] = (row["children_busy_s"] + row["self_s"]) / traced_run_s
    return rows


def dump_spans(spans) -> list:
    """Spans as JSON rows with times relative to the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    return [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]] for s in spans]
