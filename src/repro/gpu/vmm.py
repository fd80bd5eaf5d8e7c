"""Simulated CUDA low-level virtual memory management (VMM) driver API.

This is the interface the paper's Section 2.5 describes and GMLake is
built on: ``cuMemAddressReserve`` / ``cuMemCreate`` / ``cuMemMap`` /
``cuMemSetAccess`` plus the deallocation family ``cuMemUnmap`` /
``cuMemRelease`` / ``cuMemAddressFree``.

Contracts enforced (matching the real driver):

* Physical chunks are created at 2 MB granularity (sizes must be positive
  multiples of the granularity).
* A mapping binds one whole physical chunk at an offset inside a live VA
  reservation; mappings within one reservation must not overlap.
* The same physical chunk **may** be mapped at several virtual addresses
  simultaneously — the property GMLake's stitching exploits ("the PA in
  VMM can be pointed by multiple VAs").
* A chunk's physical bytes are returned only when every mapping is
  unmapped and the creation handle is released; a released handle
  cannot be mapped again.
* ``cuMemSetAccess`` may only cover mapped bytes.

Every call advances the shared :class:`~repro.gpu.clock.SimClock` by the
:class:`~repro.gpu.latency.LatencyModel` cost and bumps a counter, once
per chunk it touches, which is how end-to-end allocator overhead
(Figures 11/13 throughput) and the Table 1 breakdown are measured.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.clock import SimClock
from repro.gpu.latency import LatencyModel
from repro.gpu.phys import PhysicalMemory
from repro.gpu.vaspace import VirtualAddressSpace
from repro.units import MB, is_aligned


@dataclass
class VmmCounters:
    """Cumulative driver API call counts and time, per device."""

    reserve_calls: int = 0
    create_calls: int = 0
    map_calls: int = 0
    set_access_calls: int = 0
    unmap_calls: int = 0
    release_calls: int = 0
    address_free_calls: int = 0
    total_time_us: float = 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        return {
            "reserve_calls": self.reserve_calls,
            "create_calls": self.create_calls,
            "map_calls": self.map_calls,
            "set_access_calls": self.set_access_calls,
            "unmap_calls": self.unmap_calls,
            "release_calls": self.release_calls,
            "address_free_calls": self.address_free_calls,
            "total_time_us": self.total_time_us,
        }


class _Run:
    """Equal-size chunks mapped back to back from ``offset``."""

    __slots__ = ("offset", "size", "handles")

    def __init__(self, offset: int, size: int, handles: List[int]):
        self.offset = offset
        self.size = size
        self.handles = handles

    @property
    def end(self) -> int:
        return self.offset + self.size * len(self.handles)


#: Runs in a table are sorted and disjoint, so their ends are sorted
#: too: bisecting on the end finds the first run reaching past an offset.
_run_end = attrgetter("end")


class CudaVmm:
    """The simulated ``cuMem*`` driver API for one device.

    The mapping table keeps one record per run of equal-size chunks
    mapped back to back, so a stitch of ``k`` chunks is one table
    insert.  Everything the driver exposes stays per chunk: each chunk
    is one counted call whose latency is added to the clock on its own,
    in the order single-chunk calls would add it; each mapping holds a
    reference on its chunk; and a run that fails at chunk ``i`` leaves
    chunks ``0..i-1`` mapped.
    """

    #: Minimum physical allocation granularity on the simulated device.
    GRANULARITY = 2 * MB

    def __init__(self, phys: PhysicalMemory, vaspace: VirtualAddressSpace,
                 clock: SimClock, latency: LatencyModel):
        self._phys = phys
        self._va = vaspace
        self._clock = clock
        self._latency = latency
        self.counters = VmmCounters()
        # va -> the runs mapped inside that reservation, sorted by offset
        self._runs: Dict[int, List[_Run]] = {}

    # ------------------------------------------------------------------
    def _spend(self, us: float) -> None:
        self._clock.advance(us)
        self.counters.total_time_us += us

    def _spend_each(self, costs: List[float]) -> None:
        """Charge one call per entry of ``costs``, in order."""
        self._clock.advance_each(costs)
        self.counters.total_time_us = reduce(add, costs,
                                             self.counters.total_time_us)

    # ------------------------------------------------------------------
    # Allocation family
    # ------------------------------------------------------------------
    def mem_address_reserve(self, size: int) -> int:
        """Reserve ``size`` bytes of virtual address space."""
        self._spend(self._latency.mem_address_reserve(size))
        self.counters.reserve_calls += 1
        va = self._va.reserve(size)
        self._runs[va] = []
        return va

    def mem_create(self, size: int) -> int:
        """Create a physical chunk of ``size`` bytes; returns its handle.

        ``size`` must be a positive multiple of :attr:`GRANULARITY`.
        """
        self._check_create_size(size)
        self._spend(self._latency.mem_create(size))
        self.counters.create_calls += 1
        return self._phys.create(size)

    def _check_create_size(self, size: int) -> None:
        if size <= 0 or not is_aligned(size, self.GRANULARITY):
            raise CudaInvalidValueError(
                f"cuMemCreate size must be a positive multiple of "
                f"{self.GRANULARITY}, got {size}"
            )

    def mem_map(self, va: int, offset: int, handles: List[int],
                create: Optional[Tuple[int, int]] = None) -> None:
        """Map the chunks ``handles`` back to back from ``va + offset``.

        One ``cuMemMap`` per chunk; a one-element list is a single map.
        Every chunk must lie inside the reservation that starts at
        ``va``, must not overlap an existing mapping there, and must not
        have been released.  A run that fails at chunk ``i`` raises
        after mapping chunks ``0..i-1``.

        ``create=(size, count)`` is ``Alloc``'s pattern: ``count`` new
        chunks of ``size`` bytes, each ``cuMemCreate``-d right before it
        is mapped and charged in that order.  Their handles are appended
        to ``handles`` as they are created, so after a failure (an OOM
        at chunk ``i``) it names every chunk the caller must release.
        """
        runs = self._runs.get(va)
        idx, limit = self._gap(va, runs, offset)
        if create is not None:
            self._create_and_map(va, runs, idx, limit, offset, handles,
                                 *create)
            return
        chunks = self._phys.chunks
        cursor = offset
        new: List[_Run] = []
        run: Optional[_Run] = None
        error: Optional[Exception] = None
        for handle in handles:
            chunk = chunks.get(handle)
            if chunk is None or chunk.released:
                state = "unknown or destroyed" if chunk is None else "released"
                error = CudaInvalidValueError(
                    f"cannot map {state} physical handle {handle}")
                break
            size = chunk.size
            if cursor + size > limit:
                error = self._map_error(va, runs, cursor, size)
                break
            chunk.refcount += 1
            if run is None or run.size != size:
                run = _Run(cursor, size, [])
                new.append(run)
            run.handles.append(handle)
            cursor += size
        if new:
            costs: List[float] = []
            for run in new:
                costs += [self._latency.mem_map(run.size)] * len(run.handles)
            self._spend_each(costs)
            self.counters.map_calls += len(costs)
            runs[idx:idx] = new
        if error is not None:
            raise error

    def _create_and_map(self, va: int, runs: Optional[List[_Run]], idx: int,
                        limit: int, offset: int, handles: List[int],
                        size: int, count: int) -> None:
        """The ``create=`` form of :meth:`mem_map`."""
        self._check_create_size(size)
        fits = max(0, (limit - offset) // size)
        # A chunk is created before its map is checked, so the first
        # chunk that does not fit is still created (and charged).
        created: List[int] = []
        oom: Optional[CudaOutOfMemoryError] = None
        try:
            for _ in range(min(count, fits + 1)):
                created.append(self._phys.create(size))
        except CudaOutOfMemoryError as exc:
            oom = exc
        handles += created
        mapped = created[:fits]
        create_us = self._latency.mem_create(size)
        costs = [create_us, self._latency.mem_map(size)] * len(mapped)
        if len(created) > len(mapped) or oom is not None:
            costs.append(create_us)  # the create of the failing chunk
        self._spend_each(costs)
        self.counters.create_calls += len(created) + (oom is not None)
        self.counters.map_calls += len(mapped)
        if mapped:
            chunks = self._phys.chunks
            for handle in mapped:
                chunks[handle].refcount += 1
            runs.insert(idx, _Run(offset, size, mapped))
        if oom is not None:
            raise oom
        if len(mapped) < count:
            raise self._map_error(va, runs, offset + len(mapped) * size, size)

    def _gap(self, va: int, runs: Optional[List[_Run]],
             offset: int) -> Tuple[int, int]:
        """Where a run mapped at ``offset`` goes in ``runs``, and the end
        of the free range it may fill (``offset`` itself when the start
        is already invalid, so the first chunk fails)."""
        if runs is None or offset < 0:
            return 0, offset
        idx = bisect.bisect_right(runs, offset, key=_run_end)
        limit = self._va.get(va).size
        if idx < len(runs):
            if runs[idx].offset <= offset:
                return idx, offset
            limit = min(limit, runs[idx].offset)
        return idx, limit

    def _map_error(self, va: int, runs: Optional[List[_Run]], offset: int,
                   size: int) -> Exception:
        """The error mapping ``size`` bytes at ``offset`` raises, once
        :meth:`_gap` has ruled the chunk out."""
        if runs is None:
            return CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        if not self._va.contains(va, offset, size):
            return CudaInvalidAddressError(
                f"map of {size} bytes at offset {offset} exceeds "
                f"reservation at {va:#x}"
            )
        return CudaInvalidValueError(
            f"overlapping map at {va:#x}+{offset} (an existing mapping "
            f"covers part of [{offset}, {offset + size}))"
        )

    def mem_set_access(self, va: int, offset: int, size: int) -> None:
        """Grant read/write access to ``[va+offset, va+offset+size)``.

        Every byte of the range must already be mapped; one call is
        charged per chunk the range touches.
        """
        runs = self._runs.get(va)
        if runs is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        end = offset + size
        cursor = offset
        costs: List[float] = []
        # Start at the chunk covering ``offset`` (if any) and walk
        # contiguous runs until the range is covered or a gap appears.
        idx = bisect.bisect_right(runs, offset, key=_run_end)
        first = 0
        if idx < len(runs):
            first = max(0, (offset - runs[idx].offset) // runs[idx].size)
        while idx < len(runs):
            run = runs[idx]
            start = run.offset + first * run.size
            if start > cursor or start >= end:
                break
            stop = min(len(run.handles), -((run.offset - end) // run.size))
            costs += [self._latency.mem_set_access(run.size)] * (stop - first)
            cursor = run.offset + stop * run.size
            if cursor >= end:
                break
            idx += 1
            first = 0
        if cursor < end:
            raise CudaInvalidAddressError(
                f"setAccess range [{offset}, {end}) at {va:#x} is not fully mapped"
            )
        self._spend_each(costs)
        self.counters.set_access_calls += len(costs)

    # ------------------------------------------------------------------
    # Deallocation family
    # ------------------------------------------------------------------
    def mem_unmap(self, va: int, offset: int, size: int) -> None:
        """Unmap every chunk fully contained in the given range.

        A run only partly inside the range is split around it.
        """
        runs = self._runs.get(va)
        if runs is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        end = offset + size
        lo = hi = bisect.bisect_right(runs, offset, key=_run_end)
        kept: List[_Run] = []
        gone: List[_Run] = []
        while hi < len(runs) and runs[hi].offset < end:
            run = runs[hi]
            hi += 1
            step, n = run.size, len(run.handles)
            first = max(0, -((run.offset - offset) // step))
            stop = min(n, (end - run.offset) // step)
            if first >= stop:
                kept.append(run)
                continue
            if first:
                kept.append(_Run(run.offset, step, run.handles[:first]))
            if stop < n:
                kept.append(_Run(run.offset + stop * step, step,
                                 run.handles[stop:]))
            gone.append(_Run(run.offset + first * step, step,
                             run.handles[first:stop]))
        if not gone:
            raise CudaInvalidValueError(
                f"unmap range [{offset}, {end}) at {va:#x} contains no mapping"
            )
        runs[lo:hi] = kept
        costs: List[float] = []
        for run in gone:
            costs += [self._latency.mem_unmap(run.size)] * len(run.handles)
            self._phys.release_refs(run.handles)
        self._spend_each(costs)
        self.counters.unmap_calls += len(costs)

    def mem_release(self, handle: int) -> None:
        """Release the creation reference of a physical chunk."""
        chunk = self._phys.get(handle)
        self._spend(self._latency.mem_release(chunk.size))
        self.counters.release_calls += 1
        self._phys.release(handle)

    def mem_address_free(self, va: int) -> None:
        """Free a VA reservation.  All mappings must be unmapped first."""
        runs = self._runs.get(va)
        if runs is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        if runs:
            left = sum(len(run.handles) for run in runs)
            raise CudaInvalidValueError(
                f"cannot free reservation {va:#x}: {left} mappings remain"
            )
        self._spend(self._latency.mem_address_free(0))
        self.counters.address_free_calls += 1
        del self._runs[va]
        self._va.free(va)

    # ------------------------------------------------------------------
    # Introspection (used by tests and metrics)
    # ------------------------------------------------------------------
    def mappings_at(self, va: int) -> List[Tuple[int, int, int]]:
        """Return ``(offset, size, handle)`` triples mapped at ``va``,
        one per chunk, in offset order."""
        runs = self._runs.get(va)
        if runs is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        return [(run.offset + i * run.size, run.size, handle)
                for run in runs for i, handle in enumerate(run.handles)]

    def is_fully_mapped(self, va: int, size: int) -> bool:
        """True if ``[va, va+size)`` is covered by contiguous mappings."""
        runs = self._runs.get(va)
        if runs is None:
            return False
        cursor = 0
        for run in runs:
            if run.offset > cursor:
                return False
            cursor = max(cursor, run.end)
            if cursor >= size:
                return True
        return cursor >= size
