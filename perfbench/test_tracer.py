"""Self-test of the benchmark's tracer on tiny configurations.

    python3 -m pytest perfbench -q

Checks that every binding named below is wrapped and restored, that the
wrapped call counts equal cProfile's ncalls for the same functions, that
tracing leaves the output hash unchanged, and that counts repeat exactly.
"""

import cProfile
import importlib
import os
import pstats
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracer import TARGETS, Tracer  # noqa: E402
from workloads import Runner, Workload  # noqa: E402

# every module that binds each function by name
BINDINGS = {
    "gain": ("antenna", "mimo", "clustering"),
    "received_strength_psd": ("mimo", "cegmm"),
    "rate_density": ("mimo", "cegmm"),
    "build_channel": ("mimo", "clustering", "cluster_alloc"),
    "precode": ("mimo", "clustering", "cluster_alloc"),
    "sinr": ("mimo", "clustering", "cluster_alloc"),
    "evaluate_candidate": ("cegmm", "cluster_alloc"),
    "refit_proposal": ("cegmm", "cluster_alloc"),
    "sample_gmm": ("cegmm", "cluster_alloc"),
    "initial_proposal": ("cegmm", "cluster_alloc"),
    "subscenario": ("scenario", "clustering", "cluster_alloc"),
    "allocate": ("cegmm", "harness"),
    "allocate_clustered": ("cluster_alloc", "harness"),
    "greedy_assign": ("cluster_alloc", "harness"),
    "hierarchical_clustering": ("clustering", "harness"),
    "kmeans_clustering": ("clustering", "harness"),
    "generate_scenario": ("scenario", "harness"),
}

TINY = {
    "plan": Workload("tiny_plan", "plan", (
        "scenario.num_aps=6", "scenario.num_ues=2", "ce.num_samples=6",
        "ce.num_elites=2", "ce.max_iterations=2", "ce.grid_step_hz=100e6"), 1),
    "sweep_clustered": Workload("tiny_clustered", "sweep", (
        "experiment.sweep=num_aps", "experiment.sweep_values=6,8",
        "scenario.num_ues=3", "clustering.mode=kmeans",
        "clustering.num_clusters=2", "experiment.allocator=adaptive_gmm",
        "experiment.workers=1", "experiment.trials=1", "ce.num_samples=4",
        "ce.num_elites=2", "ce.max_iterations=2", "ce.grid_step_hz=100e6"), 1),
    "sweep_static": Workload("tiny_static", "sweep", (
        "experiment.sweep=num_aps", "experiment.sweep_values=8,12",
        "scenario.num_ues=4", "experiment.allocator=equal_bandwidth",
        "clustering.mode=hierarchical", "experiment.workers=1",
        "experiment.trials=1"), 1),
}


def _module(name):
    return importlib.import_module(f"lwcf.{name}")


def test_every_binding_wrapped_then_restored():
    originals = {fn: getattr(_module(mods[0]), fn)
                 for fn, mods in BINDINGS.items()}
    tracer = Tracer()
    with tracer.installed():
        for fn, mods in BINDINGS.items():
            for mod in mods:
                bound = getattr(_module(mod), fn)
                assert getattr(bound, "__traced__", None), f"{mod}.{fn}"
                assert bound.__wrapped__ is originals[fn]
    for fn, mods in BINDINGS.items():
        for mod in mods:
            assert getattr(_module(mod), fn) is originals[fn], f"{mod}.{fn}"


def _profiled_counts(runner):
    prof = cProfile.Profile()
    prof.enable()
    runner.execute(0)
    prof.disable()
    ncalls = {key: v[1] for key, v in pstats.Stats(prof).stats.items()}
    counts = {}
    for mod, fn, _ in TARGETS:
        code = getattr(_module(mod), fn).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[f"{mod}.{fn}"] = ncalls.get(key, 0)
    return counts


def _traced(runner):
    tracer = Tracer()
    with tracer.installed():
        unit = runner.execute(0)
    with tracer.paused():
        runner.check(unit, None)
    return tracer, unit


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counts_match_cprofile_and_repeat(kind):
    runner = Runner(TINY[kind])
    plain = runner.check(runner.execute(0), None)
    want = _profiled_counts(runner)
    first, unit = _traced(runner)
    second, _ = _traced(runner)
    assert first.counts() == want
    assert second.counts() == want
    assert unit.digest == plain.digest
    assert not unit.problems and unit.failed == 0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_layer_metrics_are_consistent(kind):
    tracer, unit = _traced(Runner(TINY[kind]))
    m = tracer.layer_metrics(unit.wall_s)
    shares = [v for k, (v, _) in m.items()
              if k.startswith("layer.") and k != "layer.unspanned.share"]
    assert all(s >= 0.0 for s in shares)
    assert 0.0 <= m["layer.unspanned.share"][0] < 0.2
    assert m["trace.spans"][0] == sum(tracer.counts().values())
    useful = m["cegmm.bandwidth_search.useful_frac"][0]
    if kind == "sweep_static":
        assert m["mimo.received_strength_psd.calls"][0] == 0
        assert useful == 0.0
    else:
        assert 0.0 < useful <= 1.0
        assert m["cegmm.evaluate_candidate.calls"][0] > 0
