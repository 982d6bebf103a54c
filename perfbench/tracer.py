"""Span tracer for the lwcf layers, installed from outside the package.

lwcf modules bind each other's functions by name (``from .mimo import
precode``), so a wrapper has to replace every binding of a function, not
just the defining one.  ``Tracer.install`` finds every module attribute of
the lwcf package that *is* a traced function and swaps in one shared
wrapper; ``uninstall`` puts the originals back.

Each call records a span: name, start, end, parent span, trial id, plus one
integer of work (points, frequencies, accepted steps ...) where a layer has
one.  Spans are kept in flat arrays and written out after the run.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LWCF_MODULES = ("antenna", "mimo", "cegmm", "clustering", "cluster_alloc",
                "scenario", "harness", "config", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gain_points(args, kwargs, out):
    return np.broadcast(_arg(args, kwargs, 1, "frequency"),
                        _arg(args, kwargs, 2, "angle")).size


def _psd_freqs(args, kwargs, out):
    return int(np.size(_arg(args, kwargs, 2, "frequency")))


def _accepted_steps(args, kwargs, out):
    return int(round(out / _arg(args, kwargs, 5, "grid_step")))


def _accessible(args, kwargs, out):
    return int(bool(out[1]))


# (module, function, work extractor).  ``harness._trial_rate`` is the sweep
# trial boundary: its spans start a new trial id.
TARGETS = (
    ("antenna", "gain", _gain_points),
    ("mimo", "received_strength_psd", _psd_freqs),
    ("mimo", "rate_density", None),
    ("mimo", "build_channel", None),
    ("mimo", "precode", None),
    ("mimo", "sinr", None),
    ("cegmm", "allocate", None),
    ("cegmm", "evaluate_candidate", _accessible),
    ("cegmm", "bandwidth_search", _accepted_steps),
    ("cegmm", "resolve_overlaps", None),
    ("cegmm", "refit_proposal", None),
    ("cegmm", "em_fit", None),
    ("cegmm", "sample_gmm", None),
    ("cegmm", "initial_proposal", None),
    ("clustering", "kmeans_clustering", None),
    ("clustering", "hierarchical_clustering", None),
    ("clustering", "affinity_propagation", None),
    ("clustering", "per_ap_spectral_efficiency", None),
    ("cluster_alloc", "allocate_clustered", None),
    ("cluster_alloc", "greedy_assign", None),
    ("cluster_alloc", "cluster_subchannel_reward", None),
    ("scenario", "generate_scenario", None),
    ("scenario", "subscenario", None),
    ("config", "load_config", None),
    ("harness", "run_experiment", None),
    ("harness", "equal_bandwidth_baseline", None),
    ("harness", "_trial_rate", None),
)
TRIAL_SPAN = "harness._trial_rate"


def _modules():
    pkg = importlib.import_module("lwcf")
    return [pkg] + [importlib.import_module(f"lwcf.{m}") for m in LWCF_MODULES]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.work = array("q")
        self.errors: dict[int, str] = {}
        self.bindings: list[tuple[object, str, object]] = []
        self.recording = True
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target present in lwcf."""
        modules = _modules()
        for mod_name, fn_name, work in TARGETS:
            home = sys.modules[f"lwcf.{mod_name}"]
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            span = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(span, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.bindings):
            setattr(mod, attr, original)
        self.bindings.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (used for the output gate)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def new_trial(self) -> None:
        """Give the spans that follow a fresh trial id."""
        self._trial = self._trials
        self._trials += 1

    def _wrap(self, span: str, fn, work):
        code = len(self.span_names)
        self.span_names.append(span)
        starts_trial = span == TRIAL_SPAN
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.name)
            outer_trial = tracer._trial
            if starts_trial:
                tracer.new_trial()
            tracer.name.append(code)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.trial.append(tracer._trial)
            tracer.work.append(0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            tracer.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = clock()
                stack.pop()
                tracer.errors[idx] = type(exc).__name__
                if starts_trial:
                    tracer._trial = outer_trial
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if starts_trial:
                tracer._trial = outer_trial
            if work is not None:
                tracer.work[idx] = work(args, kwargs, out)
            return out

        wrapper.__traced__ = span
        return wrapper

    # -- results -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per traced function, zero for functions never called."""
        hist = np.bincount(np.frombuffer(self.name, dtype=np.uint16),
                           minlength=len(self.span_names))
        return {span: int(hist[i]) for i, span in enumerate(self.span_names)}

    def write(self, path: str) -> None:
        """Write every span as CSV: id, name, start, end, parent, trial, work,
        error.  Times are seconds of the process's perf_counter clock."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,trial,work,error\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.span_names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]},"
                         f"{self.trial[i]},{self.work[i]},"
                         f"{self.errors.get(i, '')}\n")

    def layer_metrics(self, region_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``region_s`` is the wall time of the traced region; shares of it are
        each layer's share of the blocking path, since the traced run is one
        thread and every span blocks the result.
        """
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64).astype(np.intp)
        work = np.frombuffer(self.work, dtype=np.int64)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        self_s = dur - child_s
        codes = {s: i for i, s in enumerate(self.span_names)}

        def mask(span):
            return name == codes.get(span, -1)

        def errored(span, exc="SingularChannel"):
            return sum(1 for i, e in self.errors.items()
                       if e == exc and name[i] == codes.get(span, -1))

        def parent_is(spans):
            want = [codes[s] for s in spans if s in codes]
            return has_parent & np.isin(name[np.where(has_parent, parent, 0)],
                                        want)

        out: dict[str, tuple[float, str]] = {}

        def put(metric, value, unit):
            out[metric] = (float(value), unit)

        def ratio(num, den):
            return num / den if den else 0.0

        def record(span, *fields):
            m = mask(span)
            values = {"calls": (m.sum(), "count"), "s": (dur[m].sum(), "s"),
                      "self_s": (self_s[m].sum(), "s")}
            for field in fields:
                put(f"{span}.{field}", *values[field])

        # everything below a bandwidth search (parents precede their
        # children, so one forward pass marks every descendant)
        bs_code = codes.get("cegmm.bandwidth_search", -1)
        under_bs = np.zeros(n, dtype=bool)
        for i in np.flatnonzero(has_parent):
            p = parent[i]
            under_bs[i] = under_bs[p] or name[p] == bs_code

        gain = mask("antenna.gain")
        points = work[gain].sum()
        record("antenna.gain", "calls", "self_s")
        put("antenna.gain.points", points, "count")
        put("antenna.gain.ns_per_point",
            ratio(self_s[gain].sum() * 1e9, points), "ns")
        put("antenna.gain.bandwidth_search_share",
            ratio(self_s[gain & under_bs].sum(), region_s), "frac")

        psd = mask("mimo.received_strength_psd")
        record("mimo.received_strength_psd", "calls", "self_s")
        put("mimo.received_strength_psd.freqs", work[psd].sum(), "count")
        for span in ("mimo.precode", "mimo.build_channel", "mimo.sinr"):
            record(span, "calls", "self_s")
        put("mimo.precode.singular", errored("mimo.precode"), "count")
        record("mimo.rate_density", "calls", "s")

        bs = mask("cegmm.bandwidth_search")
        evaluated = work[psd & parent_is(["cegmm.bandwidth_search"])].sum() / 2
        record("cegmm.bandwidth_search", "calls", "s")
        put("cegmm.bandwidth_search.useful_frac",
            ratio(work[bs].sum(), evaluated), "frac")
        record("cegmm.resolve_overlaps", "calls", "s")
        record("cegmm.refit_proposal", "calls", "s")
        record("cegmm.em_fit", "calls")
        record("cegmm.allocate", "self_s")
        ec = mask("cegmm.evaluate_candidate")
        record("cegmm.evaluate_candidate", "calls")
        put("cegmm.evaluate_candidate.accessible_frac",
            ratio(work[ec].sum(), ec.sum()), "frac")
        loops = ["cegmm.allocate", "cluster_alloc.allocate_clustered"]
        candidates = int((ec & parent_is(loops)).sum())
        in_allocate = parent_is(["cegmm.allocate"])
        unscored = sum(1 for i, e in self.errors.items()
                       if e == "SingularChannel" and in_allocate[i]
                       and name[i] == codes.get("mimo.rate_density", -1))
        put("cegmm.scored_frac", ratio(candidates - unscored, candidates),
            "frac")

        record("clustering.hierarchical_clustering", "s")
        record("clustering.affinity_propagation", "s")
        record("clustering.kmeans_clustering", "s")
        record("clustering.per_ap_spectral_efficiency", "calls", "s")
        record("cluster_alloc.greedy_assign", "calls", "s")
        record("cluster_alloc.cluster_subchannel_reward", "calls")
        put("cluster_alloc.cluster_subchannel_reward.mrt_fallback",
            errored("cluster_alloc.cluster_subchannel_reward"), "count")
        record("cluster_alloc.allocate_clustered", "self_s")
        record("scenario.generate_scenario", "s")
        record("scenario.subscenario", "calls", "s")
        record("config.load_config", "s")

        layer_of = np.array([s.split(".")[0] for s in self.span_names] or [""])
        spanned = 0.0
        for layer in ("scenario", "antenna", "mimo", "cegmm", "clustering",
                      "cluster_alloc", "harness", "config"):
            share = ratio(self_s[layer_of[name] == layer].sum(), region_s)
            spanned += share
            put(f"layer.{layer}.share", share, "frac")
        put("layer.unspanned.share", 1.0 - spanned, "frac")
        put("trace.spans", n, "count")
        return out
