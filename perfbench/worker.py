"""Measurement process of the lwcf benchmark; ``run.py`` starts it.

Modes (first argument):

  probe      import lwcf, build the workload's set-up, print the monotonic
             clock reading at which the first trial is ready, and exit.
  measure    run the workload untraced for ``--seconds`` of timed work and
             print the end-to-end figures as one JSON line.
  trace      run a fixed number of units untraced, then the same units with
             every layer wrapped, and print the per-layer figures as one
             JSON line.  Spans go to ``.perfbench_out/``.
  reference  recompute ``reference.json`` from every instance in the pool,
             for every workload or only the one named.

Each mode expects ``src`` of the checkout on ``PYTHONPATH`` and thread
counts pinned to one; ``run.py`` arranges both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _check_lwcf_origin():
    """Refuse to measure an lwcf other than the checkout's own sources."""
    import lwcf
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(lwcf.__file__).startswith(src):
        raise SystemExit(f"lwcf was imported from {lwcf.__file__}, "
                         f"not from {src}")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are pool workers, if any
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _versions() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__}


def _probe(args) -> dict:
    from workloads import WORKLOADS, Runner
    Runner(WORKLOADS[args.workload])
    return {"ready": time.monotonic()}


def _measure(args) -> dict:
    from workloads import WORKLOADS, Runner, instance_order, load_reference
    reference = load_reference()
    runner = Runner(WORKLOADS[args.workload])
    order = instance_order(args.seed)
    units = []
    timed = 0.0
    while timed < args.seconds:
        unit = runner.execute(order[len(units) % len(order)])
        timed += unit.wall_s
        units.append(runner.check(unit, reference))
    walls = [w for u in units for w in u.trial_walls]
    attempted = len(walls)
    failed = sum(u.failed for u in units)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": [p for u in units for p in u.problems],
        "instances": [u.instance for u in units],
        "unit_s": [u.wall_s for u in units],
        "timed_s": timed,
        "trial_s": walls,
        "metrics": {
            "trials_per_s": [attempted / timed, "1/s"],
            "trial_s_p50": [statistics.median(walls), "s"],
            "peak_rss_mb": [_peak_rss_mb(), "MB"],
        },
        "versions": _versions(),
    }


def _trace(args) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, Runner, instance_order, load_reference
    reference = load_reference()
    workload = WORKLOADS[args.workload]
    runner = Runner(workload)
    chosen = instance_order(args.seed)[:workload.trace_units]

    # untraced, at the pool width: reference hashes and pool occupancy
    workers = workload.pool_workers
    plain = [runner.check(runner.execute(i, workers), reference)
             for i in chosen]
    pool_wall = sum(u.wall_s for u in plain)
    busy = sum(w for u in plain for w in u.trial_walls)
    busy_frac = busy / (workers * pool_wall)
    # untraced in-process, the baseline for the tracing overhead
    if workers == 1:
        serial_wall = pool_wall
    else:
        serial_wall = sum(runner.execute(i, workers=1).wall_s for i in chosen)

    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        traced_runner = Runner(workload)
        setup_s = time.perf_counter() - t0
        traced = []
        for i in chosen:
            if workload.kind == "plan":
                tracer.new_trial()
            unit = traced_runner.execute(i, workers=1)
            with tracer.paused():
                traced.append(traced_runner.check(unit, reference))
    traced_wall = sum(u.wall_s for u in traced)

    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.problems.append(f"instance {b.instance}: traced output differs")
    checked = plain + traced

    metrics = tracer.layer_metrics(setup_s + traced_wall)
    metrics["harness.worker_busy_frac"] = (busy_frac, "frac")
    metrics["trace.overhead_frac"] = (traced_wall / serial_wall - 1.0, "frac")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(spans)
    return {
        "attempted": sum(len(u.statuses) for u in checked),
        "failed": sum(u.failed for u in checked),
        "problems": [p for u in checked for p in u.problems],
        "instances": chosen,
        "counts": tracer.counts(),
        "spans_file": os.path.relpath(spans, ROOT),
        "metrics": {k: list(v) for k, v in metrics.items()},
        "versions": _versions(),
    }


def _reference(args) -> dict:
    from workloads import (POOL_SIZE, REFERENCE_PATH, WORKLOADS, Runner,
                           load_reference)
    ref = load_reference() if args.workload else {}
    ref.update(_versions())
    for name, workload in WORKLOADS.items():
        if args.workload not in (None, name):
            continue
        runner = Runner(workload)
        ref[name] = {}
        for i in range(POOL_SIZE):
            unit = runner.check(runner.execute(i), None)
            if unit.failed:
                raise SystemExit(f"{name} instance {i}: {unit.statuses} "
                                 f"{unit.problems}")
            ref[name][str(i)] = unit.digest
            print(f"{name} {i} {unit.wall_s:.2f}s {unit.digest[:12]}",
                  file=sys.stderr, flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"written": os.path.relpath(REFERENCE_PATH, ROOT)}


MODES = {"probe": _probe, "measure": _measure, "trace": _trace,
         "reference": _reference}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    _check_lwcf_origin()
    from workloads import WORKLOADS
    optional = args.mode == "reference" and args.workload is None
    if not optional and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print(json.dumps(MODES[args.mode](args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
