"""Workloads of the lwcf benchmark and the output gate that checks them.

A workload is a set of lwcf configuration overrides plus a pool of
``POOL_SIZE`` instances.  One instance is one unit of work -- a single
``allocate`` call for ``plan``, one ``run_experiment`` sweep for the sweep
workloads -- and its output CSV, with the ``wall_time_ms`` column removed,
has a reference SHA-256 in ``reference.json``.  A run visits the pool in
an order drawn from its seed, so every seed gets different inputs and
every output is still checked against a stored reference.

The benchmark drives the entry points the CLI uses: ``load_config`` ->
``generate_scenario`` -> ``allocate`` (as ``lwcf simulate`` does) or
``run_experiment`` (as ``lwcf sweep`` does).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field, replace

import numpy as np

# entry points are looked up on their modules at call time, so that the
# tracer's wrappers (installed on module attributes) see these calls too
from lwcf import cegmm, config, harness, mimo, scenario

POOL_SIZE = 16
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "plan" or "sweep"
    overrides: tuple[str, ...]
    trace_units: int             # units per traced run, fixed: counts repeat
    pool_workers: int = 1        # experiment.workers of the traced run's
                                 # untraced pass, which measures the pool


WORKLOADS = {w.name: w for w in (
    # The paper's core operation: one adaptive allocation at the defaults
    # (32 APs, 10 UEs, ZF, 50 candidates) on the default drop, with the CE
    # search cut to one iteration so a run holds several allocations.
    # The instance picks the optimiser stream (experiment.base_seed).
    Workload("plan", "plan", ("ce.max_iterations=1",), 2),
    # The cluster-aware CE loop.  Three sweep values, so the median trial
    # sits in the middle group instead of between two cost groups.  Timed
    # at one worker: with both cores busy, wall time on a shared machine
    # swings with the other tenants far more than the program does.  The
    # traced run drives the same sweeps through a 2-process pool.
    Workload("sweep_clustered", "sweep", (
        "experiment.sweep=num_aps", "experiment.sweep_values=16,24,32",
        "clustering.mode=kmeans", "clustering.num_clusters=4",
        "experiment.allocator=adaptive_gmm", "experiment.workers=1",
        "experiment.trials=4", "ce.max_iterations=2", "ce.num_samples=5",
        "ce.num_elites=2"), 1, pool_workers=2),
    # No CE search and no received-PSD call: hierarchical clustering and the
    # equal-bandwidth baseline, dominated by channel builds and precoding.
    Workload("sweep_static", "sweep", (
        "experiment.sweep=num_aps", "experiment.sweep_values=64,96,128",
        "scenario.num_ues=20", "experiment.allocator=equal_bandwidth",
        "clustering.mode=hierarchical", "experiment.workers=1",
        "experiment.trials=2"), 5),
)}


def instance_order(seed: int, pool: int = POOL_SIZE) -> list[int]:
    """The order in which a run with this seed visits the instance pool."""
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return order


def digest(csv_text: str) -> str:
    """SHA-256 of CSV text with the wall-clock column dropped."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows and "wall_time_ms" in rows[0]:
        j = rows[0].index("wall_time_ms")
        rows = [r[:j] + r[j + 1:] for r in rows]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Unit:
    """One executed unit: timed wall, per-trial walls and statuses, and the
    raw program output the gate inspects."""

    instance: int
    wall_s: float
    trial_walls: list[float]
    statuses: list[str]
    output: object
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        if self.problems:
            return len(self.statuses)
        return sum(s != "ok" for s in self.statuses)


class Runner:
    """Set-up state of one workload and the unit it times.

    Constructing a Runner is the set-up a user pays before the first trial:
    ``load_config`` plus ``generate_scenario`` of one drop.  ``plan`` reuses
    that drop for every allocation; a sweep draws its own drops per trial,
    so there it only stands for the first trial's set-up.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.app = config.load_config(None, workload.overrides)
        if workload.kind == "plan":
            self.drop = scenario.generate_scenario(self.app.scenario)
        else:
            self.experiment = self.app.experiment()
            first = self.experiment.sweep_values[0]
            self.drop = scenario.generate_scenario(replace(
                self.app.scenario, **{self.experiment.sweep: int(first)}))

    def execute(self, instance: int, workers: int | None = None) -> Unit:
        """Run one instance; only the program call is timed."""
        if self.workload.kind == "plan":
            return self._execute_plan(instance)
        return self._execute_sweep(instance, workers or self.app.workers)

    def _execute_plan(self, instance: int) -> Unit:
        app = self.app
        rng = np.random.default_rng(np.random.SeedSequence((instance, 0)))
        t0 = time.perf_counter()
        try:
            plan = cegmm.allocate(self.drop, app.params, app.band,
                                  app.precoder, app.hyper, app.qos, rng,
                                  total_bandwidth=app.scenario.total_bandwidth)
            status = "ok"
        except cegmm.InfeasibleBand:
            plan, status = None, "infeasible_band"
        except mimo.SingularChannel:
            plan, status = None, "singular_channel"
        wall = time.perf_counter() - t0
        return Unit(instance, wall, [wall], [status], plan)

    def _execute_sweep(self, instance: int, workers: int) -> Unit:
        ex = replace(self.experiment, workers=workers,
                     base_seed=instance * self.experiment.trials)
        t0 = time.perf_counter()
        text = harness.run_experiment(ex)
        wall = time.perf_counter() - t0
        rows = [r for r in csv.DictReader(io.StringIO(text))
                if r["trial"] != "summary"]
        return Unit(instance, wall,
                    [float(r["wall_time_ms"]) / 1e3 for r in rows],
                    [r["status"] for r in rows], text)

    def check(self, unit: Unit, reference: dict | None) -> Unit:
        """Output gate: hash the CSV, compare with the reference, and for a
        plan also check its invariants.  Fills ``digest`` and ``problems``."""
        if self.workload.kind == "plan":
            plan = unit.output
            buf = io.StringIO()
            if plan is not None:
                harness.write_plan_csv(plan, buf)
                app = self.app
                try:
                    cegmm.validate_plan(plan.subchannels, app.band,
                                        app.scenario.total_bandwidth,
                                        app.params.cutoff_frequency)
                except ValueError as exc:
                    unit.problems.append(f"validate_plan: {exc}")
                if not cegmm.check_coherence(plan.subchannels, self.drop,
                                             app.params, app.qos):
                    unit.problems.append("check_coherence failed")
            text = buf.getvalue()
        else:
            text = unit.output
        unit.digest = digest(text)
        if reference is not None:
            want = reference.get(self.workload.name, {}).get(
                str(unit.instance))
            if unit.digest != want:
                unit.problems.append(
                    f"instance {unit.instance}: output hash "
                    f"{unit.digest[:12]} != reference {str(want)[:12]}")
        return unit
