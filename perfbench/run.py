"""The repo benchmark: host cost and simulated outcome of four workloads.

    python3 perfbench/run.py --workload train-replay --seed 1 --seconds 28 --trace 0

Each *pass* runs one instance of the workload (inputs from a sub-seed of
``--seed`` and the pass index) in a fresh child process, cold, as a
``repro run`` user would.  Passes repeat until the next one would end
past ``--seconds``, with at least ``SIM_PASSES`` of them.  Host metrics
are medians over passes, host times taken at the reference machine's
speed (the canary in ``child.py``); ``sim_*`` metrics and per-layer
counts pool the first ``SIM_PASSES`` passes, so they depend on the seed
alone.

``--trace 1`` runs every pass twice, untraced then traced (see
``tracer.py``), checks that tracing changed no simulated outcome, and
reports the per-layer split instead of the end-to-end metrics.

The last stdout line is the JSON result; a result file with a run
manifest goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module)

CHILD_TIMEOUT_S = 150

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_reserved_gb": "GB", "sim_util_ratio": "ratio",
    "sim_throughput_per_s": "1/s", "sim_goodput_per_s": "1/s",
    "sim_completed_frac": "ratio",
}


def layer_unit(name: str) -> str:
    suffix = name.rpartition(".")[2]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_mb"):
        return "MB"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith(("_ratio", "_rate", "_frac")):
        return "ratio"
    return "count"


def git_rev() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload: str, seed: int, traced: bool,
              small: bool = False) -> dict:
    """One instance in a fresh interpreter; returns its JSON report."""
    scratch = os.path.join(OUT, "work", workload)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), workload,
         str(seed), "1" if traced else "0", scratch, repr(t_spawn)]
        + (["small"] if small else []),
        capture_output=True, text=True, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child (seed {seed}) failed:\n"
                           f"{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = os.path.join(scratch, "spans.bin")
    if traced and os.path.exists(spans):
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        os.replace(spans, os.path.join(OUT, "spans", f"{workload}.bin"))
    shutil.rmtree(scratch, ignore_errors=True)
    return report


def run_passes(workload: str, seed: int, seconds: float, traced: bool):
    """Repeat passes until the next would overrun ``seconds``."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while (len(passes) < workloads.SIM_PASSES
           or time.monotonic() - start + longest <= seconds):
        began = time.monotonic()
        seed_k = workloads.sub_seed(workload, seed, len(passes))
        entry = {"sub_seed": seed_k,
                 "untraced": run_child(workload, seed_k, False)}
        if traced:
            entry["traced"] = run_child(workload, seed_k, True)
        passes.append(entry)
        longest = max(longest, time.monotonic() - began)
    return passes


def pass_problems(entry: dict) -> list:
    """Per-run problem lists of one pass (traced runs included)."""
    rows = [row["problems"] for row in entry["untraced"]["runs"]]
    if "traced" in entry:
        for plain, traced in zip(entry["untraced"]["runs"],
                                 entry["traced"]["runs"]):
            problems = list(traced["problems"])
            if traced["digest"] != plain["digest"]:
                problems.append("tracing changed the simulated outcome")
            rows.append(problems)
    return rows


def end_to_end(passes: list) -> "tuple[dict, dict]":
    plain = [p["untraced"] for p in passes]
    # Host times at the reference machine's speed (see child.py).
    metrics = {name: statistics.median(r[name] * r["speed"] for r in plain)
               for name in ("wall_s", "setup_s")}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    pooled = [row for r in plain[:workloads.SIM_PASSES] for row in r["runs"]]
    sim, info = workloads.sim_metrics(pooled)
    metrics.update(sim)
    info = {"raw_wall_s": statistics.median(r["wall_s"] for r in plain),
            "raw_setup_s": statistics.median(r["setup_s"] for r in plain),
            "speed": statistics.median(r["speed"] for r in plain), **info}
    return metrics, info


def per_layer(passes: list) -> dict:
    counted = passes[:workloads.SIM_PASSES]
    metrics = {}
    for name in counted[0]["traced"]["layers"]:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(
                p["traced"]["layers"][name] for p in passes)
        elif name.endswith(("_ratio", "_rate")):
            metrics[name] = statistics.fmean(
                p["traced"]["layers"][name] for p in counted)
        else:
            metrics[name] = sum(p["traced"]["layers"][name] for p in counted)
    metrics["bench.attributed_frac"] = statistics.median(
        sum(v for k, v in p["traced"]["layers"].items()
            if k.endswith(".self_s")) / p["traced"]["wall_s"]
        for p in passes)
    metrics["bench.trace_overhead_frac"] = statistics.median(
        p["traced"]["wall_s"] / p["untraced"]["wall_s"] - 1 for p in passes)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    passes = run_passes(args.workload, args.seed, args.seconds, traced)

    attempted = failed = 0
    for entry in passes:
        for problems in pass_problems(entry):
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED run (sub-seed {entry['sub_seed']}): "
                      + "; ".join(problems))
    if traced:
        metrics, info = per_layer(passes), {}
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, info = end_to_end(passes)
        units = UNITS
    for entry in passes:
        line = f"pass sub-seed {entry['sub_seed']}: " + " ".join(
            f"{kind}: raw wall {entry[kind]['wall_s']:.3f} s setup "
            f"{entry[kind]['setup_s']:.3f} s"
            for kind in ("untraced", "traced") if kind in entry)
        line += f" speed {entry['untraced']['speed']:.3f}"
        print(line)
    for key, value in info.items():
        print(f"{key}: {value}")

    manifest = {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "passes": len(passes),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"manifest": manifest, "info": info, "result": result,
                   "passes": passes}, handle, indent=1)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
