"""One measured workload instance, in a fresh process.

    python3 perfbench/child.py WORKLOAD SUB_SEED TRACE SCRATCH_DIR T_SPAWN [small]

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports, registry set-up and spec validation.  The
measured phase is every ``api.run`` of the instance, reports included.
Prints one JSON object on its last stdout line.  ``small`` runs the
shortened instance the contrast self-test uses.

An untraced pass also samples a *canary* every ``CANARY_EVERY_S``
during the measured phase: a fixed piece of interpreter work, timed
from a ``SIGALRM`` handler, so it runs on the same core, in the same
process and at the same moments as the workload.  The machine's speed
varies by tens of percent over minutes on a shared host, and the
canary follows it.  ``speed`` is ``CANARY_REF_S`` over the median
canary time, raised to ``CANARY_ELASTICITY``; the runner reports host
times multiplied by it.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module)

CANARY_EVERY_S = 0.025
#: Median canary time on the reference machine (a 2-core shared VM,
#: Python 3.11.7); host times are reported at that machine's speed.
CANARY_REF_S = 175e-6
#: How pass times follow canary times: the slope of log(pass time) on
#: log(canary time) over 223 passes of the four workloads on that
#: machine (0.64-0.81 per workload).  The tiny canary gains more than
#: the workloads do when the machine runs fast.
CANARY_ELASTICITY = 0.75
_CANARY_TABLE = {i: i for i in range(64)}


def canary() -> float:
    """Seconds one fixed piece of interpreter work takes (~0.2 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += _CANARY_TABLE.get(i & 63, 0) ^ i
    return time.perf_counter() - start


@contextlib.contextmanager
def canary_samples():
    """Collect a canary time every ``CANARY_EVERY_S`` of the block."""
    samples = []
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(canary()))
    signal.setitimer(signal.ITIMER_REAL, CANARY_EVERY_S, CANARY_EVERY_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv) -> dict:
    workload, seed, traced, scratch_dir, t_spawn = argv[:5]
    seed, traced, t_spawn = int(seed), traced == "1", float(t_spawn)
    recorder = None
    if traced:
        import tracer

        recorder = tracer.install()
    from repro import api

    specs = workloads.build_specs(workload, seed, scratch_dir,
                                  small=argv[5:] == ["small"])
    setup_s = time.monotonic() - t_spawn
    results = []
    # Canary samples inside a traced run would land in the layer spans.
    with (contextlib.nullcontext([]) if traced else canary_samples()) as samples:
        start = time.perf_counter()
        for spec in specs:
            results.append(api.run(spec))
        wall_s = time.perf_counter() - start

    runs = []
    for spec, outcome in zip(specs, results):
        for result in outcome:
            row = workloads.sim_summary(spec, result)
            row["problems"] = workloads.check_run(spec, result, scratch_dir)
            runs.append(row)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "canary_s": statistics.median(samples) if samples else None,
        "speed": ((CANARY_REF_S / statistics.median(samples))
                  ** CANARY_ELASTICITY if samples else None),
        "canary_samples": len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": runs,
    }
    if recorder is not None:
        flat = [result for outcome in results for result in outcome]
        out["layers"] = tracer.layer_metrics(recorder, flat)
        recorder.write(os.path.join(scratch_dir, "spans.bin"))
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
