"""The four benchmark workloads: their inputs, output checks and sim metrics.

Every workload drives ``repro.api.run(ExperimentSpec)``, the call behind
``repro run`` / ``repro serve``.  One *instance* of a workload is the list
of specs built from one sub-seed; the runner derives a fresh sub-seed per
pass from ``--seed``, so the program only ever sees the generated specs.

This module must stay importable without ``repro`` on the path: the
runner imports it for workload names and the ``repro`` imports happen
inside the functions the child process calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics

#: Passes whose simulated results form the ``sim_*`` and per-layer counts.
#: Fixed, so those metrics are identical on every run with the same seed.
SIM_PASSES = 2

#: The §5 grid's per-model batch sizes (``bench_summary_76_workloads``).
TRAIN_BATCH = {
    "opt-1.3b": 8, "gpt-2": 16, "opt-6.7b": 8, "llama-7b": 8,
    "glm-10b": 8, "opt-13b": 4, "vicuna-13b": 4, "gpt-neox-20b": 2,
}

WORKLOADS = ("train-replay", "serve-replica", "serve-fleet", "serve-disagg")

#: Requests per serving instance.  With SIM_PASSES pooled, each serving
#: workload reports TTFT percentiles over >= 1000 requests.
SERVE_REQUESTS = {"serve-replica": 250, "serve-fleet": 500,
                  "serve-disagg": 500}


def sub_seed(workload: str, seed: int, pass_index: int) -> int:
    """The seed of one pass's inputs: a pure function of its arguments."""
    return random.Random(f"{workload}/{seed}/{pass_index}").randrange(1 << 31)


def build_specs(workload: str, seed: int, scratch_dir: str,
                small: bool = False) -> list:
    """The ``ExperimentSpec`` list of one workload instance.

    ``small`` shrinks the instance for the contrast self-test; it keeps
    every component so each layer is exercised the same way.
    """
    from repro import api

    if workload == "train-replay":
        models = list(TRAIN_BATCH)[:2] if small else list(TRAIN_BATCH)
        return [api.ExperimentSpec(
            mode="replay", allocators=("caching", "gmlake"),
            workload=api.WorkloadSpec(
                model=model, batch_size=TRAIN_BATCH[model], n_gpus=4,
                strategies="RO", iterations=3 if small else 6, seed=seed))
            for model in models]
    n_requests = SERVE_REQUESTS[workload] // (2 if small else 1)
    if workload == "serve-replica":
        # 30 GB leaves ~4 GB of KV beside opt-13b's weights: the two
        # pooled passes preempt and demote requests on every seed tried,
        # yet the replica keeps up with its arrivals.  Closer to
        # saturation the run is bistable (3 s or 37 s of host time on
        # neighbouring seeds).
        serving = api.ServingSpec(
            model="opt-13b", rate_per_s=2.5, n_requests=n_requests,
            mean_prompt=512, mean_output=256, scheduler="memory-aware",
            kv_cache="chunked", memory_tiers="dram?gb=16,cxl?gb=64",
            seed=seed)
        return [api.ExperimentSpec(mode="serve", capacity="30GB",
                                   allocators=("caching", "gmlake"),
                                   serving=serving)]
    if workload == "serve-fleet":
        trace_path = os.path.join(scratch_dir, "fleet.jsonl")
        serving = api.ServingSpec(
            model="opt-13b", replicas=32,
            arrivals="multi-tenant?rate_per_s=40&shared_prefix_tokens=512",
            n_requests=n_requests, kv_cache="paged-shared",
            faults="replica-crash?mtbf_s=30&mttr_s=5",
            retry="hedge?after_s=1", trace=f"jsonl?path={trace_path}",
            gauge_every_s=1.0, seed=seed)
        return [api.ExperimentSpec(mode="serve", capacity="40GB",
                                   allocators=("gmlake",), serving=serving)]
    if workload == "serve-disagg":
        serving = api.ServingSpec(
            model="opt-13b", rate_per_s=4.0, n_requests=n_requests,
            scheduler="memory-aware", kv_cache="chunked",
            disagg=api.DisaggSpec(prefill_replicas=2, decode_replicas=2,
                                  interconnect="pcie"),
            seed=seed)
        return [api.ExperimentSpec(mode="serve", capacity="40GB",
                                   allocators=("gmlake",), serving=serving)]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Output checks: each returns the problems found in one simulation run
# ----------------------------------------------------------------------
def _members(result) -> list:
    """The per-device results behind one ``ExperimentResult``."""
    raw = result.raw
    if result.mode == "serve-cluster":
        return list(raw.replicas)
    if result.mode == "serve-disagg":
        return list(raw.prefill_results) + list(raw.decode_results)
    return [raw]


def check_run(spec, result, scratch_dir: str) -> list:
    """Problems in one run's outputs; an empty list means it passed."""
    from repro.serve.request import REJECT_REASONS

    problems = []
    for member in _members(result):
        active = member.peak_active_bytes
        reserved = member.peak_reserved_bytes
        if not active <= reserved <= spec.capacity:
            problems.append(f"peaks out of order: active={active} "
                            f"reserved={reserved} capacity={spec.capacity}")
    raw = result.raw
    if spec.mode == "replay":
        if not (raw.oom or raw.iterations_completed == spec.workload.iterations):
            problems.append(f"replay stopped at {raw.iterations_completed} "
                            "iterations without an OOM")
        return problems
    requests = raw.requests
    finished = sum(r.finished for r in requests)
    rejected = 0
    for request in requests:
        if request.rejected:
            rejected += 1
            if request.reject_reason not in REJECT_REASONS:
                problems.append(f"request {request.req_id} rejected with "
                                f"reason {request.reject_reason!r}")
        elif not request.finished:
            problems.append(f"request {request.req_id} ended "
                            f"{request.state.value}")
    attempted = spec.serving.n_requests
    if len(requests) != attempted or finished + rejected != attempted:
        problems.append(f"{finished} finished + {rejected} rejected over "
                        f"{len(requests)} requests != {attempted} attempted")
    if result.mode == "serve-disagg" and raw.pending_imports:
        problems.append(f"{raw.pending_imports} KV imports still pending")
    if spec.serving.trace:
        path = os.path.join(scratch_dir, "fleet.jsonl")
        try:
            with open(path, encoding="utf-8") as handle:
                events = [json.loads(line) for line in handle]
        except (OSError, ValueError) as exc:
            problems.append(f"JSONL trace unreadable: {exc}")
        else:
            finishes = sum(e["kind"] == "finish" for e in events)
            if finishes != finished:
                problems.append(f"trace has {finishes} finish events, "
                                f"run completed {finished}")
    return problems


# ----------------------------------------------------------------------
# Simulated outcomes
# ----------------------------------------------------------------------
def sim_summary(spec, result) -> dict:
    """The pooled-later simulated figures of one run, plus its digest."""
    from repro.units import GB

    raw = result.raw
    row = {
        "reserved_gb": result.peak_reserved_bytes / GB,
        "util": result.utilization_ratio,
        "throughput": result.throughput,
    }
    if spec.mode == "replay":
        row["goodput"] = 0.0 if raw.oom else result.throughput
        row["preemptions"] = 0
        row["done"] = int(raw.iterations_completed == spec.workload.iterations)
        row["attempted"] = 1
        row["latency"] = list(raw.iter_times_s)
        digest = (result.peak_active_bytes, result.peak_reserved_bytes,
                  raw.iter_times_s, raw.oom)
    else:
        row["goodput"] = result.extras()["goodput_req_s"]
        row["preemptions"] = result.extras()["preemptions"]
        row["done"] = sum(r.finished for r in raw.requests)
        row["attempted"] = len(raw.requests)
        row["latency"] = [r.ttft_s for r in raw.requests
                          if r.ttft_s is not None]
        digest = (result.peak_active_bytes, result.peak_reserved_bytes,
                  [(r.req_id, r.first_token_s, r.finished_s,
                    r.reject_reason, r.preemptions, r.retries)
                   for r in raw.requests])
    row["digest"] = hashlib.sha256(repr(digest).encode()).hexdigest()[:16]
    return row


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def sim_metrics(rows: list) -> "tuple[dict, dict]":
    """The ``sim_*`` end-to-end metrics over pooled run summaries, and
    the latency figures printed beside them (TTFT when serving, iteration
    time when training)."""
    latency = [x for row in rows for x in row["latency"]]
    return {
        "sim_reserved_gb": statistics.fmean(r["reserved_gb"] for r in rows),
        "sim_util_ratio": statistics.fmean(r["util"] for r in rows),
        "sim_throughput_per_s": statistics.fmean(r["throughput"] for r in rows),
        "sim_goodput_per_s": statistics.fmean(r["goodput"] for r in rows),
        "sim_completed_frac": (sum(r["done"] for r in rows)
                               / sum(r["attempted"] for r in rows)),
    }, {"preemptions": sum(r["preemptions"] for r in rows),
        "latency_samples": len(latency),
        "sim_latency_p50_s": percentile(latency, 0.50),
        "sim_latency_p99_s": percentile(latency, 0.99)}
