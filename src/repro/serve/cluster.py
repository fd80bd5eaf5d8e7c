"""Multi-GPU serving front-end: one arrival stream over N replicas.

A load balancer dispatches every incoming request to one of N identical
single-GPU replicas at arrival time (no request migration), using a
least-outstanding-work estimator: each replica's backlog of assigned
tokens, drained at the replica's saturated decode rate between
arrivals.  Each replica then runs its own
:class:`~repro.serve.simulator.ServingSimulator` on its own simulated
device, and the results are aggregated the way
:mod:`repro.sim.cluster` aggregates training ranks: the fleet's
makespan is the slowest replica's, memory headlines are worst-replica,
and SLO metrics are computed over the merged request population.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api.result import WorstMemberRunResult
from repro.api.spec import AllocatorLike
from repro.obs.gauges import GaugePoint, GaugeSampler
from repro.obs.trace import FRONTEND_REPLICA, TraceRecorder
from repro.serve.autoscale import Autoscaler, AutoscalerLike, resolve_autoscaler
from repro.serve.faults import (FaultModel, FaultsLike, RetryLike,
                                resolve_faults, resolve_retry)
from repro.serve.kvcache import KVCacheLike, KVCacheMetrics, KVCacheModel
from repro.serve.metrics import ServingReport, ServingReportAccumulator, SloConfig
from repro.serve.preemption import PreemptionLike, PreemptionPolicy
from repro.serve.request import ServeRequest
from repro.serve.scheduler import SchedulerLike
from repro.serve.simulator import (ServingConfig, ServingResult,
                                   ServingSimulator, ServingSurface)
from repro.sim.engine import AllocatorFactory
from repro.units import A100_80GB
from repro.workloads.models import ModelSpec, get_model


class DownCalendar:
    """Materialized crash windows answering "is replica i down at t?".

    The fault model's window streams are pure functions of (seed,
    replica), so the front-end and each replica independently derive
    the *same* schedule — the dispatcher can route around a crash it
    has not "observed" yet without any causality violation, exactly as
    a health-checking load balancer would after one probe interval.

    Windows are materialized lazily per replica, but queries may go
    *backwards* in time (the fleet orchestrator interleaves replicas
    whose clocks drift apart), so materialized windows are kept and
    scanned from the tail.
    """

    def __init__(self, faults: FaultModel, n_replicas: int):
        self._streams = [faults.crash_windows(i) for i in range(n_replicas)]
        self._windows: List[List[Tuple[float, float]]] = [
            [] for _ in range(n_replicas)]

    def down_at(self, replica: int, t_s: float) -> bool:
        """True when ``replica`` is inside a crash window at ``t_s``."""
        stream = self._streams[replica]
        if stream is None:
            return False
        windows = self._windows[replica]
        while not windows or windows[-1][1] <= t_s:
            windows.append(next(stream))
        for start_s, end_s in reversed(windows):
            if end_s <= t_s:
                return False
            if start_s <= t_s:
                return True
        return False


def dispatch_requests(
    requests: Iterable[ServeRequest],
    n_replicas: int,
    drain_tokens_per_s: float = 3000.0,
    autoscaler: Optional[Autoscaler] = None,
    gauges: Optional[GaugeSampler] = None,
    trace: Optional[TraceRecorder] = None,
    fleet: Optional[str] = None,
    down: Optional[DownCalendar] = None,
) -> List[List[ServeRequest]]:
    """Split one arrival stream into per-replica streams.

    Least-outstanding-work: assign each arrival to the replica with the
    smallest estimated token backlog, where backlogs drain at
    ``drain_tokens_per_s`` between arrivals.  This is what a front-end
    can actually compute online — it never peeks at simulation results.

    An ``autoscaler`` (see :mod:`repro.serve.autoscale`) decides per
    arrival how many of the ``n_replicas`` are *active*; arrivals only
    land on active replicas.  ``None`` (or the registered ``"none"``
    policy) keeps every replica active from the first arrival — the
    front-end's original behaviour, bit for bit.

    ``gauges`` / ``trace`` record the active-replica change points the
    autoscaler produces (as :meth:`GaugeSampler.note_active_replicas`
    and front-end ``autoscale`` trace events); dispatch decisions are
    identical with or without them.

    ``fleet`` names the replica pool when a front-end runs several of
    them (disaggregated serving dispatches a ``"prefill"`` and a
    ``"decode"`` fleet independently): change points are then tagged
    with the fleet so per-phase size series stay separable.  ``None``
    (colocated serving) is byte-identical to the original behaviour.

    ``down`` makes dispatch health-aware: replicas inside a crash
    window at the arrival instant are excluded from the candidate set
    (falling back to every active replica when *all* are down, so no
    arrival is ever dropped at the front door).  ``None`` keeps the
    original dispatch, bit for bit.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    backlog = [0.0] * n_replicas
    last_t = 0.0
    active = (autoscaler.initial_replicas(n_replicas)
              if autoscaler is not None else n_replicas)
    noted = None  # last active count reported to the telemetry hooks
    shards: List[List[ServeRequest]] = [[] for _ in range(n_replicas)]
    for request in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
        elapsed = max(0.0, request.arrival_s - last_t)
        last_t = request.arrival_s
        drained = elapsed * drain_tokens_per_s
        # Decay in place (no per-arrival list rebuild).  The clamp at
        # zero is applied per arrival on purpose: a lazily-drained heap
        # would need max(0, b - sum(drains)), which is not float-equal
        # to the iterated max(0, b - drain) sequence and would change
        # dispatch decisions at the margin.
        for i in range(n_replicas):
            drained_backlog = backlog[i] - drained
            backlog[i] = drained_backlog if drained_backlog > 0.0 else 0.0
        if autoscaler is not None:
            active = min(max(autoscaler.decide(backlog, active, n_replicas), 1),
                         n_replicas)
        if active != noted:
            if gauges is not None:
                gauges.note_active_replicas(request.arrival_s, active,
                                            fleet=fleet)
            if trace is not None:
                if fleet is None:
                    trace.record("autoscale", request.arrival_s,
                                 replica=FRONTEND_REPLICA, active=active)
                else:
                    trace.record("autoscale", request.arrival_s,
                                 replica=FRONTEND_REPLICA, active=active,
                                 fleet=fleet)
            noted = active
        if down is None:
            candidates: Iterable[int] = range(active)
        else:
            healthy = [i for i in range(active)
                       if not down.down_at(i, request.arrival_s)]
            candidates = healthy if healthy else range(active)
        target = min(candidates, key=lambda i: (backlog[i], i))
        backlog[target] += float(request.total_tokens)
        shards[target].append(request)
    return shards


@dataclass
class ServeClusterResult(ServingSurface, WorstMemberRunResult):
    """Aggregated outcome of one multi-replica serving run.

    The counts, ``throughput`` and the head of ``extras()`` come from
    :class:`~repro.serve.simulator.ServingSurface` over the merged
    population; memory headlines are worst-replica.  Subclass fields
    tagged ``metadata={"extra": key}`` also report in ``extras()``.
    """

    replicas: List[ServingResult] = field(default_factory=list)
    autoscaler_name: str = "none"
    #: Front-end autoscaling change points: (arrival_s, active count).
    active_replica_points: List[Tuple[float, int]] = field(
        default_factory=list)
    #: How :meth:`summary` names the fleet ("" = "N replicas").
    topology: str = ""

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @cached_property
    def requests(self) -> List[ServeRequest]:
        """The merged request population, in arrival order.

        Each replica's population is already sorted by (arrival,
        req_id) — the dispatcher preserves arrival order within a
        shard — so an n-way ``heapq.merge`` replaces a full re-sort,
        and the merge is computed once per result.
        """
        return list(heapq.merge(
            *(replica.requests for replica in self.replicas),
            key=lambda r: (r.arrival_s, r.req_id)))

    @property
    def makespan_s(self) -> float:
        """The fleet finishes when its slowest replica does."""
        return max((r.makespan_s for r in self.replicas), default=0.0)

    @property
    def min_utilization(self) -> float:
        """The worst replica's memory utilization ratio."""
        return min(r.utilization for r in self.replicas)

    @property
    def max_peak_reserved_gb(self) -> float:
        """The worst replica's reserved peak (capacity planning view)."""
        return max(r.peak_reserved_gb for r in self.replicas)

    # -- the :class:`repro.api.RunResult` shared surface ---------------
    # Memory figures delegate to WorstMemberRunResult (worst replica).
    def _result_members(self) -> List[ServingResult]:
        return self.replicas

    @property
    def kv_cache_name(self) -> str:
        """The fleet's (uniform) KV-cache model name."""
        return self.replicas[0].kv_cache_name if self.replicas else "chunked"

    @property
    def preemption_name(self) -> str:
        """The policy that re-admits preempted work: uniform across a
        colocated fleet, the decode fleet's (listed last) when
        disaggregated."""
        return (self.replicas[-1].preemption_name if self.replicas
                else "recompute")

    @property
    def memory_tiers(self) -> str:
        """The fleet's (uniform) tier hierarchy ("" = none)."""
        return self.replicas[0].memory_tiers if self.replicas else ""

    @property
    def active_replicas(self) -> int:
        """Replicas the front-end actually routed traffic to (an
        autoscaled fleet may leave some replicas idle)."""
        return sum(1 for r in self.replicas if r.requests)

    @property
    def kv_metrics(self) -> Optional[KVCacheMetrics]:
        """Fleet-wide KV-cache metrics, merged across replicas.

        Counters, copy bytes and utilization samples sum; the peak
        fields sum *per-replica* peaks (the fleet's capacity-planning
        upper bound — replicas own disjoint memory, but their peaks
        need not coincide in time).  The merge is field-generic
        (:meth:`KVCacheMetrics.merge_from`), so metrics fields added
        later — per-tier demote/promote dicts, sharing ledgers — are
        merged by construction instead of silently dropped.
        """
        merged: Optional[KVCacheMetrics] = None
        for replica in self.replicas:
            metrics = replica.kv_metrics
            if metrics is None:
                continue
            if merged is None:
                merged = KVCacheMetrics(kv_cache=metrics.kv_cache,
                                        block_tokens=metrics.block_tokens)
            merged.merge_from(metrics)
        return merged

    def extras(self) -> Dict[str, object]:
        """Fleet-specific metrics beyond the shared surface."""
        out: Dict[str, object] = {"n_replicas": self.n_replicas}
        out.update(super().extras())
        if self.autoscaler_name != "none":
            out["autoscaler"] = self.autoscaler_name
            out["active_replicas"] = self.active_replicas
        for f in fields(self):
            if "extra" in f.metadata:
                out[f.metadata["extra"]] = getattr(self, f.name)
        return out

    @property
    def gauge_points(self) -> List[GaugePoint]:
        """Every replica's gauge samples, merged in time order."""
        return sorted((point for replica in self.replicas
                       for point in replica.gauges),
                      key=lambda p: (p.t_s, p.replica))

    def report(self, slo: Optional[SloConfig] = None,
               streaming: bool = False) -> ServingReport:
        """Fleet-wide SLO report over the merged request population.

        ``streaming=True`` folds each replica's requests into a
        :class:`~repro.serve.metrics.ServingReportAccumulator` and
        merges the accumulators — constant memory, never touching the
        merged request list (percentiles come from merged t-digest
        sketches, within sketch tolerance of the exact path).
        """
        memory = dict(utilization=self.min_utilization,
                      peak_reserved_gb=self.max_peak_reserved_gb,
                      migrated_mb=self.migrated_bytes / (1 << 20))
        if not streaming:
            return ServingReport.from_requests(
                self.requests, self.makespan_s, slo, **memory)
        merged: Optional[ServingReportAccumulator] = None
        for replica in self.replicas:
            acc = ServingReportAccumulator(slo)
            for request in replica.requests:
                acc.observe(request)
            merged = acc if merged is None else merged.merge(acc)
        if merged is None:
            merged = ServingReportAccumulator(slo)
        return merged.report(self.makespan_s, **memory)

    def summary(self) -> str:
        """One-line fleet report."""
        topology = self.topology or f"{self.n_replicas} replicas"
        return f"{topology}: {self.report().summary()}"


class FleetEngine:
    """The one fleet engine: steps replicas off a ``(clock, replica)`` heap.

    Replicas must be stepped in clock order only while something can
    move requests between them.  A fleet is *coupled* when crash
    windows (``calendar``) fail victims over to peers or the front-end
    hedges stragglers (``hedge_after_s``); otherwise each replica runs
    ahead without limit, to completion, in replica order — exactly the
    order of serving the shards one after another.

    Coupled, each :meth:`step` ticks the busy replica with the earliest
    clock, and keeps ticking it while its key stays below the heap top,
    so every cross-replica hand-off stays causal: a request re-dispatched
    at ``ready_s`` is injected before any peer's clock passes ``ready_s``.
    Keys are validated when popped: a key whose replica has since moved
    or drained is dead and skipped.  Whatever moves or wakes a replica
    pushes its fresh key — a tick, a failover or hedge injection, and a
    hedge loser's cancel (freeing KV charges the loser's replica host
    time).  So every busy replica's live key is in the heap, and a popped
    live key is the choice a scan over all replicas would make.

    Fleet failover: crash victims (and a crashing replica's queued
    requests) re-enter through :meth:`route`, which picks the healthy
    replica with the fewest outstanding requests at the hand-off
    instant, falling back to the full fleet when everything is down.
    A hedged copy is not re-dispatched; its twin carries on alone.

    Hedging: after each tick, requests still un-admitted past the hedge
    deadline are cloned onto the least-loaded healthy *other* replica;
    the first copy to finish wins and the loser is cancelled (its KV
    freed, the object withdrawn from its replica's population), so the
    merged population keeps exactly one record per request.  A loser
    that already timed out is likewise withdrawn; if both copies
    reject, the clone is dropped and the original's rejection stands.
    """

    def __init__(self, sims: List[ServingSimulator],
                 calendar: Optional[DownCalendar] = None,
                 hedge_after_s: Optional[float] = None,
                 trace: Optional[TraceRecorder] = None):
        self.sims: List[Optional[ServingSimulator]] = sims
        self.calendar = calendar
        self.hedge_after_s = hedge_after_s
        self.trace = trace
        self.coupled = calendar is not None or hedge_after_s is not None
        self._heap: List[Tuple[float, int]] = []
        self._shards: List[List[ServeRequest]] = []
        self._results: List[Optional[ServingResult]] = [None] * len(sims)
        self._hedged: Dict[int, Tuple[ServeRequest, ServeRequest]] = {}
        if calendar is not None:
            for sim in sims:
                sim._fault_sink = self.route

    def run(self, shards: List[List[ServeRequest]]) -> List[ServingResult]:
        """Serve every replica's shard to completion; one result per
        replica, in replica order."""
        self._shards = shards
        # A -1.0 key starts its replica: all of them, in replica order,
        # before any tick (the list is sorted, hence already a heap).
        self._heap = [(-1.0, i) for i in range(len(self.sims))]
        while self.step() is not None:
            pass
        return [result if result is not None else sim.finish()
                for result, sim in zip(self._results, self.sims)]

    def step(self) -> Optional[int]:
        """Start the next replica, or tick the earliest busy one for as
        long as it stays earliest; returns its index, or ``None`` once
        the fleet is drained."""
        heap, sims = self._heap, self.sims
        while heap:
            clock, i = heapq.heappop(heap)
            sim = sims[i]
            if clock < 0.0:
                sim.start(self._shards[i])
                if self.coupled:
                    self._wake(i)
                    return i
                break
            if sim.busy and sim.session.elapsed_s == clock:
                break
        else:
            return None
        while sim.tick():
            if self.hedge_after_s is not None:
                self._hedge(i)
                self._settle()
            if self.coupled and heap and heap[0] < (sim.session.elapsed_s, i):
                self._wake(i)
                break
        if not self.coupled:
            # Drained for good: collect the result and drop the replica,
            # so its memory is free before the next replica starts.
            self._results[i] = sim.finish()
            sims[i] = None
        return i

    def route(self, request: ServeRequest, ready_s: float,
              failover: bool = False) -> None:
        """Inject ``request`` at ``ready_s`` into the least-loaded
        replica healthy then.  Crash victims and failed-over queues
        route alike (``failover`` is informational).

        A hedged copy is withdrawn instead: its twin carries the
        request on, and re-dispatching this copy could land both on one
        replica, whose KV model and timeout heap key by ``req_id``.
        """
        del failover
        if self._hedged.pop(request.req_id, None) is not None:
            self._cancel(request)
            return
        target = self._least_loaded(self._healthy(ready_s)
                                    or range(len(self.sims)))
        request.replica = target
        self._inject(target, request, ready_s)

    def _wake(self, i: int) -> None:
        """Push replica ``i``'s current key, if it has work."""
        sim = self.sims[i]
        if sim.busy:
            heapq.heappush(self._heap, (sim.session.elapsed_s, i))

    def _inject(self, i: int, request: ServeRequest, ready_s: float) -> None:
        self.sims[i].inject(request, ready_s)
        self._wake(i)

    def _least_loaded(self, pool: Iterable[int]) -> int:
        return min(pool, key=lambda j: (self.sims[j].outstanding, j))

    def _healthy(self, t_s: float, exclude: Optional[int] = None) -> List[int]:
        calendar = self.calendar
        return [j for j in range(len(self.sims))
                if j != exclude
                and (calendar is None or not calendar.down_at(j, t_s))]

    def _hedge(self, i: int) -> None:
        sim = self.sims[i]
        now = sim.session.elapsed_s
        for request in list(sim._queue):
            # Hedge a request only while no twin of it is live and it
            # has never been admitted anywhere (a clean clone carries no
            # KV), and leave crash-retried requests to the retry path.
            if (request.req_id in self._hedged
                    or request.admitted_s is not None or request.retries
                    or now - request.arrival_s < self.hedge_after_s):
                continue
            pool = self._healthy(now, exclude=i)
            if not pool:
                continue
            target = self._least_loaded(pool)
            clone = copy.copy(request)
            clone.kv_name = None
            clone.kv_capacity_tokens = 0
            clone.kv_generation = 0
            clone.replica = target
            self._hedged[request.req_id] = (request, clone)
            if self.trace is not None:
                self.trace.request_event("hedge", clone, now, source=i,
                                         target=target)
            self._inject(target, clone, now)

    def _settle(self) -> None:
        for req_id, (original, clone) in list(self._hedged.items()):
            for winner, loser in ((original, clone), (clone, original)):
                if winner.finished:
                    if not loser.finished:
                        self._cancel(loser)
                    del self._hedged[req_id]
                    break
            else:
                if original.rejected and clone.rejected:
                    # Both copies lost; keep the original's rejection
                    # as the request's one record.
                    self._cancel(clone)
                    del self._hedged[req_id]

    def _cancel(self, request: ServeRequest) -> None:
        self.sims[request.replica].cancel(request)
        self._wake(request.replica)


def run_serving_cluster(
    requests: Iterable[ServeRequest],
    model: Union[ModelSpec, str],
    n_replicas: int = 2,
    allocator: Union[AllocatorLike, AllocatorFactory] = "gmlake",
    capacity: int = A100_80GB,
    scheduler: SchedulerLike = "fcfs",
    config: Optional[ServingConfig] = None,
    kv_cache: KVCacheLike = "chunked",
    preemption: PreemptionLike = "recompute",
    autoscaler: AutoscalerLike = "none",
    trace: Optional[TraceRecorder] = None,
    gauges: Optional[GaugeSampler] = None,
    faults: FaultsLike = "none",
    retry: RetryLike = "none",
    memory_tiers: str = "",
) -> ServeClusterResult:
    """Load-balance ``requests`` over ``n_replicas`` single-GPU replicas.

    ``autoscaler`` drives how many replicas take traffic per arrival
    (see :mod:`repro.serve.autoscale`); ``n_replicas`` is the fleet's
    maximum size.  Every replica still runs (an idle replica just
    serves an empty stream), so memory headlines stay comparable.

    A single ``trace`` recorder and ``gauges`` sampler are shared by
    the front-end and every replica: trace events carry their replica
    id (front-end events use :data:`~repro.obs.trace.FRONTEND_REPLICA`)
    and gauge points are tagged per replica, so one Chrome trace shows
    the whole fleet as separate processes.

    ``faults`` / ``retry`` (see :mod:`repro.serve.faults`) inject
    replica failures and drive the recovery policy.  Crash windows make
    dispatch health-aware (crashed replicas are routed around) and fail
    crash victims over to healthy peers; ``hedge`` duplicates
    stragglers across replicas.  Either couples the replicas, and the
    :class:`FleetEngine` then steps them in clock order.
    """
    if isinstance(kv_cache, KVCacheModel):
        raise ValueError(
            "pass kv_cache as a spec string or KVCacheSpec so each "
            "replica builds its own model (a shared instance would mix "
            "block tables across replicas)"
        )
    if isinstance(preemption, PreemptionPolicy):
        raise ValueError(
            "pass preemption as a spec string or PreemptionSpec so each "
            "replica builds its own policy (a shared instance would mix "
            "swap ledgers across replicas)"
        )
    model = get_model(model) if isinstance(model, str) else model
    config = config if config is not None else ServingConfig()
    scaler = resolve_autoscaler(autoscaler)
    fault_model = resolve_faults(faults)
    retry_policy = resolve_retry(retry)
    calendar = (DownCalendar(fault_model, n_replicas)
                if fault_model.has_crashes else None)
    shards = dispatch_requests(requests, n_replicas,
                               drain_tokens_per_s=config.decode_tokens_per_s,
                               autoscaler=scaler, gauges=gauges, trace=trace,
                               down=calendar)
    sims = [
        ServingSimulator(
            model, allocator=allocator, capacity=capacity,
            scheduler=scheduler, config=config, replica_id=replica_id,
            kv_cache=kv_cache, preemption=preemption, trace=trace,
            gauges=gauges, faults=fault_model, retry=retry_policy,
            memory_tiers=memory_tiers,
        )
        for replica_id in range(n_replicas)
    ]
    engine = FleetEngine(sims, calendar, retry_policy.hedge_after_s, trace)
    return ServeClusterResult(
        replicas=engine.run(shards), autoscaler_name=scaler.name,
        active_replica_points=(list(gauges.active_points)
                               if gauges is not None else []))
