"""Hot-path wall-clock harness — the perf trajectory's data source.

Unlike the figure benches (simulated time) and ``bench_allocator_ops``
(pytest-benchmark timings), this harness measures *real* wall-clock on
the scenarios the hot-path overhaul targets, and writes the results to
``BENCH_hotpaths.json`` at the repo root so the speedups are recorded,
not asserted:

* ``caching_large_pool`` — malloc/free cycles against a BFC pool
  holding 10k+ free blocks (the O(n) ``list.insert`` memmove regime).
* ``gmlake_pool_churn`` — GMLake best-fit/split/stitch churn over
  hundreds of inactive pBlocks (the per-malloc inactive-scan regime).
* ``serving_steps`` — one online serving run (admissions, decode
  steps, per-step workspace churn through the allocator).
* ``replay_cell`` — one representative cell of the §5 summary grid
  (opt-13b, LR, 4 GPUs) under caching and GMLake.
* ``vmm_stitch`` — stitch and destroy many-chunk sBlocks over
  pre-allocated pBlocks: the VMM driver's map/set-access/unmap work
  alone, with no allocator pools around it.
* ``summary_76`` (``--full`` only) — the entire 76-workload grid,
  single process, the acceptance headline.

``BASELINE_S`` holds the pre-overhaul wall-clock of each scenario,
measured on the reference machine at the commit *before* the hot-path
refactor; ``speedup`` in the JSON is baseline / current, and is left
out for a scenario with no baseline.  Re-measure
with ``--rebaseline`` to print a fresh dict for this machine.

Usage::

    PYTHONPATH=src python benchmarks/hotpaths.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/hotpaths.py           # standard
    PYTHONPATH=src python benchmarks/hotpaths.py --full    # + 76-grid
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.allocators import CachingAllocator
from repro.core import GMLakeAllocator
from repro.core.config import GMLakeConfig
from repro.core.pblock import PBlock
from repro.core.sblock import SBlock
from repro.gpu.device import GpuDevice
from repro.units import CHUNK_SIZE, GB, MB

#: Pre-overhaul wall-clock seconds per scenario (reference machine,
#: measured at the commit before the hot-path refactor).  Keys are
#: ``f"{scenario}@{mode}"`` because quick mode shrinks the workloads.
BASELINE_S: Dict[str, float] = {
    "caching_large_pool@standard": 0.0906,
    "gmlake_pool_churn@standard": 1.7987,
    "serving_steps@standard": 0.3312,
    "replay_cell@standard": 1.9201,
    "serving_backlog@standard": 0.5837,
    "caching_large_pool@quick": 0.0048,
    "gmlake_pool_churn@quick": 0.1694,
    "serving_steps@quick": 0.0933,
    "serving_backlog@quick": 0.3386,
    "replay_cell@quick": 0.9395,
    "summary_76@full": 305.2538,
}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def caching_large_pool(n_blocks: int, cycles: int) -> Dict[str, float]:
    """Malloc/free cycles against a pool with ``n_blocks`` free blocks.

    Build: allocate ``2 * n_blocks`` large-pool blocks of varied sizes,
    free every other one (alternation prevents coalescing), leaving
    ``n_blocks`` cached free blocks.  Timed phase: allocate a size that
    best-fits into an existing free block (split), then free it
    (re-coalesce) — the state-stable cycle every serving step performs.
    """
    allocator = CachingAllocator(GpuDevice(capacity=1024 * GB))
    held = []
    for i in range(2 * n_blocks):
        size = 2 * MB + (i % 997) * 4096
        held.append(allocator.malloc(size))
    for i in range(0, len(held), 2):
        allocator.free(held[i])
    free_blocks = allocator.free_block_count()
    sizes = [1536 * 1024 + (i % 499) * 1024 for i in range(64)]
    start = time.perf_counter()
    for i in range(cycles):
        allocation = allocator.malloc(sizes[i % len(sizes)])
        allocator.free(allocation)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": 2 * cycles,
            "ops_per_s": 2 * cycles / wall, "free_blocks": free_blocks}


def gmlake_pool_churn(n_blocks: int, cycles: int) -> Dict[str, float]:
    """Best-fit/split/stitch churn over a large inactive pPool.

    Build ``n_blocks`` inactive pBlocks (16 recurring sizes), then
    allocate a strictly fresh size every cycle so no request ever hits
    the exact-match fast path: each malloc runs the full best-fit scan
    and stitches dozens of members — pre-overhaul that re-filters and
    re-sorts every inactive pBlock per malloc and pays an O(k²·log k)
    mapping-insert cost per stitch.
    """
    config = GMLakeConfig(max_spool_blocks=256)
    allocator = GMLakeAllocator(GpuDevice(capacity=64 * GB), config)
    held = []
    for i in range(n_blocks):
        size = (2 + (i % 16)) * 2 * MB
        held.append(allocator.malloc(size))
    for allocation in held:
        allocator.free(allocation)
    pool_blocks = len(allocator.ppool)
    start = time.perf_counter()
    for i in range(cycles):
        allocation = allocator.malloc((5 + 2 * i) * 2 * MB)
        allocator.free(allocation)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": 2 * cycles,
            "ops_per_s": 2 * cycles / wall, "pool_blocks": pool_blocks}


def serving_steps(n_requests: int) -> Dict[str, float]:
    """One online serving run: the per-decode-step hot loop."""
    from repro.serve import LengthSampler, PoissonArrivals, run_serving

    arrivals = PoissonArrivals(rate_per_s=4.0)
    lengths = LengthSampler(mean_prompt=512, mean_output=256)
    requests = arrivals.generate(n_requests, lengths, seed=0)
    start = time.perf_counter()
    result = run_serving(requests, "opt-1.3b", allocator="caching",
                         capacity=8 * GB, scheduler="memory-aware")
    wall = time.perf_counter() - start
    steps = result.stats.malloc_count
    return {"wall_s": wall, "ops": steps, "ops_per_s": steps / wall,
            "completed": result.completed}


def serving_backlog(n_requests: int) -> Dict[str, float]:
    """A saturated replica: arrivals far outpace service.

    The admission queue grows to hundreds of requests, which is where
    the event plumbing dominates — pre-overhaul every decode step
    re-scanned the whole queue for timeouts and paid O(q) list
    insert/remove per admission and preemption; the deadline heap and
    deque make those O(log q) / O(1).
    """
    from repro.serve import LengthSampler, PoissonArrivals, run_serving

    arrivals = PoissonArrivals(rate_per_s=40.0)
    lengths = LengthSampler(mean_prompt=512, mean_output=256)
    requests = arrivals.generate(n_requests, lengths, seed=0)
    start = time.perf_counter()
    result = run_serving(requests, "opt-1.3b", allocator="caching",
                         capacity=8 * GB, scheduler="fcfs")
    wall = time.perf_counter() - start
    steps = result.stats.malloc_count
    return {"wall_s": wall, "ops": steps, "ops_per_s": steps / wall,
            "completed": result.completed}


def replay_cell(iterations: int) -> Dict[str, float]:
    """One §5 grid cell (opt-13b, LR, 4 GPUs) under caching + GMLake."""
    from repro.sim.engine import run_workload
    from repro.workloads import TrainingWorkload

    workload = TrainingWorkload("opt-13b", batch_size=4, n_gpus=4,
                                strategies="LR", iterations=iterations)
    start = time.perf_counter()
    base = run_workload(workload, "caching")
    gml = run_workload(workload, "gmlake")
    wall = time.perf_counter() - start
    ops = base.malloc_count + gml.malloc_count
    return {"wall_s": wall, "ops": ops, "ops_per_s": ops / wall}


def vmm_stitch(n_pblocks: int, chunks_per_pblock: int, width: int,
               cycles: int) -> Dict[str, float]:
    """Stitch/StitchFree driver traffic over pre-allocated pBlocks.

    Build ``n_pblocks`` pBlocks of ``chunks_per_pblock`` 2 MB chunks.
    Each cycle stitches a sliding window of ``width`` of them into one
    sBlock (one map and one set-access per member chunk) and destroys
    it (one unmap per chunk).  ``ops`` counts stitches and destroys.
    """
    size = chunks_per_pblock * CHUNK_SIZE
    device = GpuDevice(capacity=n_pblocks * size)
    pblocks = [PBlock.allocate(device, size, CHUNK_SIZE)
               for _ in range(n_pblocks)]
    start = time.perf_counter()
    for i in range(cycles):
        members = [pblocks[(i + k) % n_pblocks] for k in range(width)]
        SBlock.stitch(device, members).destroy(device)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": 2 * cycles,
            "ops_per_s": 2 * cycles / wall,
            "chunks": cycles * width * chunks_per_pblock}


def summary_76() -> Dict[str, float]:
    """The full 76-workload §5 grid, single process (the acceptance
    headline for ``bench_summary_76_workloads.py``)."""
    import bench_summary_76_workloads as grid_bench

    start = time.perf_counter()
    rows = grid_bench.measure()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": len(rows), "ops_per_s": len(rows) / wall}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def scenario_set(mode: str) -> Dict[str, Callable[[], Dict[str, float]]]:
    """The scenarios for one mode (quick shrinks the workloads)."""
    if mode == "quick":
        return {
            "caching_large_pool": lambda: caching_large_pool(4_000, 600),
            "gmlake_pool_churn": lambda: gmlake_pool_churn(200, 120),
            "serving_steps": lambda: serving_steps(60),
            "serving_backlog": lambda: serving_backlog(600),
            "replay_cell": lambda: replay_cell(2),
            "vmm_stitch": lambda: vmm_stitch(16, 32, 8, 200),
        }
    scenarios: Dict[str, Callable[[], Dict[str, float]]] = {
        "caching_large_pool": lambda: caching_large_pool(50_000, 2_000),
        "gmlake_pool_churn": lambda: gmlake_pool_churn(600, 300),
        "serving_steps": lambda: serving_steps(200),
        "serving_backlog": lambda: serving_backlog(1_500),
        "replay_cell": lambda: replay_cell(6),
        "vmm_stitch": lambda: vmm_stitch(64, 32, 8, 2_000),
    }
    if mode == "full":
        scenarios["summary_76"] = summary_76
    return scenarios


def _baseline_key(name: str, mode: str) -> str:
    """BASELINE_S key for one scenario in one mode.

    ``--full`` runs the *standard* workloads plus the grid, so the
    standard baselines apply to everything but the grid itself.
    """
    if name == "summary_76":
        return f"{name}@full"
    return f"{name}@{'quick' if mode == 'quick' else 'standard'}"


def run_harness(mode: str, out_path: Optional[Path] = None,
                compare_baseline: bool = True) -> Dict[str, object]:
    """Run every scenario for ``mode`` and write the results JSON.

    ``compare_baseline=False`` (the ``--rebaseline`` path) omits the
    ``before_s``/``speedup`` fields — the reference-machine baselines
    are meaningless ratios against a different machine's wall-clock.
    """
    results: Dict[str, object] = {}
    for name, fn in scenario_set(mode).items():
        print(f"[hotpaths] {name} ...", flush=True)
        measured = fn()
        before = (BASELINE_S.get(_baseline_key(name, mode))
                  if compare_baseline else None)
        entry = {
            "wall_s": round(measured["wall_s"], 4),
            "ops": int(measured["ops"]),
            "ops_per_s": round(measured["ops_per_s"], 1),
        }
        for extra in ("free_blocks", "pool_blocks", "completed", "chunks"):
            if extra in measured:
                entry[extra] = int(measured[extra])
        if before is not None:
            entry["before_s"] = before
            entry["speedup"] = round(before / measured["wall_s"], 2)
        results[name] = entry
        print(f"[hotpaths]   {entry}", flush=True)
    payload = {
        "bench": "hotpaths",
        "mode": mode,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "baseline": "pre-overhaul commit, reference machine",
        "scenarios": results,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
        print(f"[hotpaths] wrote {out_path}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke)")
    parser.add_argument("--full", action="store_true",
                        help="include the 76-workload grid")
    parser.add_argument("--out", default="BENCH_hotpaths.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="print a BASELINE_S dict for this machine "
                             "instead of speedups")
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else ("full" if args.full else "standard")
    payload = run_harness(mode, Path(args.out),
                          compare_baseline=not args.rebaseline)
    if args.rebaseline:
        base = {_baseline_key(name, mode): entry["wall_s"]
                for name, entry in payload["scenarios"].items()}
        print("BASELINE_S =", json.dumps(base, indent=4))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
