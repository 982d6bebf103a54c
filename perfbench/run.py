"""Run one workload of the lwcf benchmark and print its metrics.

    python3 perfbench/run.py --workload plan --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; lwcf is imported from its ``src``.  Each
measurement runs in a fresh single-threaded process (``worker.py``).

--trace 0  end-to-end metrics: setup_s (median of several fresh-process
           set-ups), trials_per_s, trial_s_p50 and peak_rss_mb.
--trace 1  per-layer metrics from a run with every lwcf layer wrapped.

Every metric is printed as ``name = value unit``; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, mode: str, timeout: float) -> dict:
    """Run worker.py in its own session; on timeout the whole session (the
    worker and any pool processes it forked) is killed and reaped."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {mode} did not finish in {timeout:.0f} s")
    finally:
        # pool processes left behind by a crashed worker
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n"
                         f"{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_s(args, deadline: float) -> list[float]:
    """Fresh process to first trial ready, once unmeasured to warm the
    bytecode and file caches, then ``SETUP_PROBES`` times."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        ready = _worker(args, "probe", deadline - t0)["ready"]
        times.append(ready - t0)
    return times[1:]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lwcf benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lwcf", "__init__.py")):
        print(f"error: no lwcf sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = _worker(args, "trace", deadline - time.monotonic())
        else:
            setups = _setup_s(args, deadline)
            result = _worker(args, "measure", deadline - time.monotonic())
            result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
            result["setup_probes_s"] = setups
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"versions={result.get('versions')} threads pinned to 1 "
          f"(timings come from a shared machine; see perfbench/README.md)")
    print(f"instances: {result['instances']}")
    if "setup_probes_s" in result:
        probes = [round(t, 4) for t in result["setup_probes_s"]]
        print(f"setup probes: {probes}")
    if "trial_s" in result:
        print(f"trials: n={len(result['trial_s'])} "
              f"timed_s={result['timed_s']:.3f} unit_s="
              f"{[round(u, 3) for u in result['unit_s']]}")
    if "counts" in result:
        print(f"spans written to {result['spans_file']}; calls: "
              + " ".join(f"{k}={v}" for k, v in result["counts"].items()))
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} trials; any failure "
          f"makes the run incorrect)")
    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
