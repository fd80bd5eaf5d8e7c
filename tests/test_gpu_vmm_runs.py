"""The run-granular VMM driver against a per-chunk reference model.

:class:`~repro.gpu.vmm.CudaVmm` keeps one mapping record per run of
equal-size chunks and maps, sets access on and unmaps whole runs per
call.  What it exposes must stay per chunk.  :class:`PerChunkVmm` below
is the reference: one record and one charged call per chunk, the
driver's semantics before runs existed (plus the rule that a released
handle cannot be mapped).  The state machine drives both with the same
random call sequence — including failing calls, partial unmaps inside
a run and OOMs in the middle of a create-and-map — and after every step
requires:

* the clock and ``counters.snapshot()`` equal to the last bit (``repr``);
* equal ``mappings_at`` for every reservation;
* equal committed bytes and per-chunk refcounts and release flags;
* the same exception type from every call.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.clock import SimClock
from repro.gpu.latency import LatencyModel
from repro.gpu.phys import PhysicalMemory
from repro.gpu.vaspace import VirtualAddressSpace
from repro.gpu.vmm import CudaVmm, VmmCounters
from repro.units import MB, is_aligned


@dataclass
class _Mapping:
    offset: int
    size: int
    handle: int


class PerChunkVmm:
    """Reference driver: one mapping record and one call per chunk."""

    def __init__(self, phys, vaspace, clock, latency):
        self._phys = phys
        self._va = vaspace
        self._clock = clock
        self._latency = latency
        self.counters = VmmCounters()
        self._maps = {}

    def _spend(self, us):
        self._clock.advance(us)
        self.counters.total_time_us += us

    def mem_address_reserve(self, size):
        self._spend(self._latency.mem_address_reserve(size))
        self.counters.reserve_calls += 1
        va = self._va.reserve(size)
        self._maps[va] = []
        return va

    def mem_create(self, size):
        if size <= 0 or not is_aligned(size, CudaVmm.GRANULARITY):
            raise CudaInvalidValueError(size)
        self._spend(self._latency.mem_create(size))
        self.counters.create_calls += 1
        return self._phys.create(size)

    def map_one(self, va, offset, handle):
        chunk = self._phys.get(handle)
        if chunk.released:
            raise CudaInvalidValueError(handle)
        if va not in self._maps:
            raise CudaInvalidAddressError(va)
        if not self._va.contains(va, offset, chunk.size):
            raise CudaInvalidAddressError(offset)
        maps = self._maps[va]
        idx = bisect.bisect_left(maps, offset, key=lambda m: m.offset)
        for m in maps[max(idx - 1, 0):idx + 1]:
            if offset < m.offset + m.size and m.offset < offset + chunk.size:
                raise CudaInvalidValueError(offset)
        self._spend(self._latency.mem_map(chunk.size))
        self.counters.map_calls += 1
        self._phys.retain(handle)
        maps.insert(idx, _Mapping(offset, chunk.size, handle))

    def mem_map(self, va, offset, handles, create=None):
        if create is not None:
            size, count = create
            for _ in range(count):
                handle = self.mem_create(size)
                handles.append(handle)
                self.map_one(va, offset, handle)
                offset += size
            return
        for handle in handles:
            self.map_one(va, offset, handle)
            offset += self._phys.get(handle).size

    def mem_set_access(self, va, offset, size):
        maps = self._maps.get(va)
        if maps is None:
            raise CudaInvalidAddressError(va)
        end = offset + size
        cursor = offset
        touched = []
        idx = bisect.bisect_right(maps, offset, key=lambda m: m.offset)
        if idx and maps[idx - 1].offset + maps[idx - 1].size > offset:
            idx -= 1
        while idx < len(maps) and maps[idx].offset < end:
            m = maps[idx]
            if m.offset > cursor:
                break
            touched.append(m)
            cursor = m.offset + m.size
            idx += 1
            if cursor >= end:
                break
        if cursor < end:
            raise CudaInvalidAddressError(offset)
        for m in touched:
            self._spend(self._latency.mem_set_access(m.size))
            self.counters.set_access_calls += 1

    def mem_unmap(self, va, offset, size):
        maps = self._maps.get(va)
        if maps is None:
            raise CudaInvalidAddressError(va)
        removed, kept = [], []
        for m in maps:
            inside = m.offset >= offset and m.offset + m.size <= offset + size
            (removed if inside else kept).append(m)
        if not removed:
            raise CudaInvalidValueError(offset)
        maps[:] = kept
        for m in removed:
            self._spend(self._latency.mem_unmap(m.size))
            self.counters.unmap_calls += 1
            self._phys.release_ref(m.handle)

    def mem_release(self, handle):
        chunk = self._phys.get(handle)
        self._spend(self._latency.mem_release(chunk.size))
        self.counters.release_calls += 1
        self._phys.release(handle)

    def mem_address_free(self, va):
        maps = self._maps.get(va)
        if maps is None:
            raise CudaInvalidAddressError(va)
        if maps:
            raise CudaInvalidValueError(va)
        self._spend(self._latency.mem_address_free(0))
        self.counters.address_free_calls += 1
        del self._maps[va]
        self._va.free(va)

    def mappings_at(self, va):
        maps = self._maps.get(va)
        if maps is None:
            raise CudaInvalidAddressError(va)
        return [(m.offset, m.size, m.handle) for m in maps]


def _driver(cls, capacity):
    return cls(PhysicalMemory(capacity=capacity), VirtualAddressSpace(),
               SimClock(), LatencyModel())


#: Unknown handles and addresses the machine also tries.
_BAD_HANDLE = 10 ** 6
_BAD_VA = 0xDEAD_0000

_offsets = st.integers(-2, 40).map(lambda mb: mb * MB)
_sizes = st.integers(0, 24).map(lambda mb: mb * MB)
_chunk_sizes = st.sampled_from([2 * MB, 2 * MB, 4 * MB, 6 * MB])


class RunDriverMachine(RuleBasedStateMachine):
    """Random driver traffic on the run driver and the reference."""

    CAPACITY = 48 * MB

    def __init__(self):
        super().__init__()
        self.runs = _driver(CudaVmm, self.CAPACITY)
        self.ref = _driver(PerChunkVmm, self.CAPACITY)
        self.vas = [_BAD_VA]
        self.handles = [_BAD_HANDLE]

    def both(self, method, *args):
        """Call ``method`` on both drivers; same result or same error."""
        outcomes = []
        for driver in (self.runs, self.ref):
            try:
                outcomes.append(("ok", getattr(driver, method)(*args)))
            except Exception as exc:  # noqa: BLE001 — compared by type
                outcomes.append(("raised", type(exc)))
        assert outcomes[0] == outcomes[1], (method, args, outcomes)
        return outcomes[0]

    @rule(mb=st.integers(1, 16).map(lambda n: 2 * n))
    def reserve(self, mb):
        self.vas.append(self.both("mem_address_reserve", mb * MB)[1])

    @rule(size=st.sampled_from([2 * MB, 4 * MB, 6 * MB, 3 * MB, 0]))
    def create(self, size):
        kind, handle = self.both("mem_create", size)
        if kind == "ok":
            self.handles.append(handle)

    @rule(va=st.integers(0, 10 ** 6), offset=_offsets,
          picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8))
    def map_run(self, va, offset, picks):
        handles = [self.handles[p % len(self.handles)] for p in picks]
        self.both("mem_map", self.vas[va % len(self.vas)], offset, handles)

    @rule(va=st.integers(0, 10 ** 6), offset=_offsets, size=_chunk_sizes,
          count=st.integers(0, 10))
    def create_and_map(self, va, offset, size, count):
        created = ([], [])
        va = self.vas[va % len(self.vas)]
        outcomes = []
        for driver, handles in zip((self.runs, self.ref), created):
            try:
                driver.mem_map(va, offset, handles, create=(size, count))
                outcomes.append(None)
            except Exception as exc:  # noqa: BLE001 — compared by type
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        assert created[0] == created[1]
        self.handles.extend(created[0])

    @rule(va=st.integers(0, 10 ** 6), offset=_offsets, size=_sizes)
    def set_access(self, va, offset, size):
        self.both("mem_set_access", self.vas[va % len(self.vas)], offset, size)

    @rule(va=st.integers(0, 10 ** 6), offset=_offsets, size=_sizes)
    def unmap(self, va, offset, size):
        self.both("mem_unmap", self.vas[va % len(self.vas)], offset, size)

    @rule(pick=st.integers(0, 10 ** 6))
    def release(self, pick):
        self.both("mem_release", self.handles[pick % len(self.handles)])

    @rule(pick=st.integers(0, 10 ** 6))
    def address_free(self, pick):
        self.both("mem_address_free", self.vas[pick % len(self.vas)])

    @invariant()
    def same_driver_state(self):
        runs, ref = self.runs, self.ref
        assert repr(runs._clock.now_us) == repr(ref._clock.now_us)
        assert repr(runs.counters.snapshot()) == repr(ref.counters.snapshot())
        for va in self.vas:
            self.both("mappings_at", va)  # same triples, or the same error
        assert runs._phys.committed == ref._phys.committed
        assert runs._phys.peak_committed == ref._phys.peak_committed

        def chunk_state(phys):
            return {h: (c.size, c.refcount, c.released)
                    for h, c in phys.chunks.items()}

        assert chunk_state(runs._phys) == chunk_state(ref._phys)


TestRunDriverEquivalence = RunDriverMachine.TestCase
TestRunDriverEquivalence.settings = settings(
    max_examples=150, stateful_step_count=40)


# ----------------------------------------------------------------------
# Directed cases the machine reaches only by chance
# ----------------------------------------------------------------------
@pytest.fixture
def pair():
    return _driver(CudaVmm, 64 * MB), _driver(PerChunkVmm, 64 * MB)


def _assert_same(runs, ref):
    assert repr(runs._clock.now_us) == repr(ref._clock.now_us)
    assert repr(runs.counters.snapshot()) == repr(ref.counters.snapshot())


def test_partial_unmap_splits_a_run(pair):
    for driver in pair:
        va = driver.mem_address_reserve(32 * MB)
        driver.mem_map(va, 0, [], create=(2 * MB, 16))
        driver.mem_unmap(va, 8 * MB, 6 * MB)
        driver.mem_set_access(va, 0, 8 * MB)
        driver.mem_set_access(va, 14 * MB, 18 * MB)
    runs, ref = pair
    assert runs.mappings_at(va) == ref.mappings_at(va)
    assert [o for o, _, _ in runs.mappings_at(va)] == (
        [i * 2 * MB for i in range(4)] + [i * 2 * MB for i in range(7, 16)])
    assert len(runs._runs[va]) == 2
    _assert_same(runs, ref)


def test_oom_mid_create_leaves_the_prefix_mapped(pair):
    created = ([], [])
    for driver, handles in zip(pair, created):
        va = driver.mem_address_reserve(128 * MB)
        with pytest.raises(CudaOutOfMemoryError):
            driver.mem_map(va, 0, handles, create=(4 * MB, 20))
    runs, ref = pair
    assert created[0] == created[1] and len(created[0]) == 16
    assert runs.mappings_at(va) == ref.mappings_at(va)
    assert runs.counters.create_calls == 17  # the failed create is charged
    assert runs.counters.map_calls == 16
    _assert_same(runs, ref)


def test_run_failing_mid_way_keeps_chunks_before_it(pair):
    for driver in pair:
        va = driver.mem_address_reserve(8 * MB)
        handles = [driver.mem_create(2 * MB) for _ in range(6)]
        with pytest.raises(CudaInvalidAddressError):
            driver.mem_map(va, 2 * MB, handles)
    runs, ref = pair
    assert len(runs.mappings_at(va)) == 3
    assert runs.mappings_at(va) == ref.mappings_at(va)
    _assert_same(runs, ref)


def test_mixed_chunk_sizes_map_as_separate_runs(pair):
    for driver in pair:
        va = driver.mem_address_reserve(16 * MB)
        handles = [driver.mem_create(size)
                   for size in (2 * MB, 2 * MB, 4 * MB, 2 * MB)]
        driver.mem_map(va, 2 * MB, handles)
        driver.mem_set_access(va, 3 * MB, 6 * MB)
    runs, ref = pair
    assert runs.mappings_at(va) == ref.mappings_at(va)
    assert [run.size for run in runs._runs[va]] == [2 * MB, 4 * MB, 2 * MB]
    _assert_same(runs, ref)
