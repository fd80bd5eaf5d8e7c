"""Physical device memory: capacity accounting and chunk handles.

Real GPUs hand out *physical allocation handles* through ``cuMemCreate``;
the handle owns physical pages until the last mapping is unmapped **and**
the handle is released.  :class:`PhysicalMemory` reproduces exactly that
refcounted lifetime, plus byte-accurate capacity/peak accounting, which
is what the paper's "reserved memory" metric measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.errors import CudaInvalidValueError, CudaOutOfMemoryError
from repro.units import fmt_bytes


@dataclass(slots=True)
class PhysicalChunk:
    """One physical allocation created by ``cuMemCreate``.

    Attributes
    ----------
    handle:
        Opaque integer identifier returned to the caller.
    size:
        Chunk size in bytes.
    refcount:
        1 for the live handle itself plus 1 per active VA mapping.  The
        chunk's bytes return to the device only when this reaches zero,
        which is what lets GMLake's sBlocks alias a pBlock's chunks
        without ever owning memory.
    released:
        True once ``cuMemRelease`` dropped the creation reference; further
        releases are errors even if mappings keep the chunk alive.
    """

    handle: int
    size: int
    refcount: int = 1
    released: bool = False


@dataclass
class PhysicalMemory:
    """Byte-accurate model of one device's physical memory.

    Parameters
    ----------
    capacity:
        Total device memory in bytes (80 GB for the paper's A100s).
    """

    capacity: int
    committed: int = 0
    peak_committed: int = 0
    _chunks: Dict[int, PhysicalChunk] = field(default_factory=dict)
    _next_handle: int = 1

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    # ------------------------------------------------------------------
    @property
    def free(self) -> int:
        """Bytes not currently committed to any live chunk."""
        return self.capacity - self.committed

    @property
    def live_chunk_count(self) -> int:
        """Number of chunks still holding physical memory."""
        return len(self._chunks)

    @property
    def chunks(self) -> Dict[int, PhysicalChunk]:
        """Live chunks by handle.  The VMM layer looks a whole run of
        handles up in one pass and adds each mapping's reference on the
        chunk itself; only this class adds or removes chunks."""
        return self._chunks

    def create(self, size: int) -> int:
        """Commit ``size`` bytes and return a fresh handle.

        Raises
        ------
        CudaInvalidValueError
            If ``size`` is not positive.
        CudaOutOfMemoryError
            If the device does not have ``size`` free bytes.
        """
        if size <= 0:
            raise CudaInvalidValueError(f"cuMemCreate size must be positive, got {size}")
        if size > self.free:
            raise CudaOutOfMemoryError(size, self.free, self.capacity)
        handle = self._next_handle
        self._next_handle += 1
        self._chunks[handle] = PhysicalChunk(handle=handle, size=size)
        self.committed += size
        self.peak_committed = max(self.peak_committed, self.committed)
        return handle

    def get(self, handle: int) -> PhysicalChunk:
        """Look up a live chunk by handle."""
        chunk = self._chunks.get(handle)
        if chunk is None:
            raise CudaInvalidValueError(f"unknown or destroyed physical handle {handle}")
        return chunk

    def retain(self, handle: int) -> None:
        """Add a reference (called by the VMM layer on ``cuMemMap``)."""
        self.get(handle).refcount += 1

    def release_ref(self, handle: int) -> None:
        """Drop one mapping reference; destroy the chunk at zero."""
        self.get(handle)  # raises on an unknown handle
        self.release_refs((handle,))

    def release_refs(self, handles: Iterable[int]) -> None:
        """Drop one mapping reference from each of ``handles`` (live
        handles, as the VMM's mapping table holds), in order."""
        chunks = self._chunks
        for handle in handles:
            chunk = chunks[handle]
            chunk.refcount -= 1
            if chunk.refcount == 0:
                self._destroy(chunk)

    def release(self, handle: int) -> None:
        """``cuMemRelease``: drop the creation reference.

        The chunk keeps its bytes while mappings remain (refcount > 0).
        """
        chunk = self.get(handle)
        if chunk.released:
            raise CudaInvalidValueError(f"physical handle {handle} released twice")
        chunk.released = True
        self.release_ref(handle)

    def _destroy(self, chunk: PhysicalChunk) -> None:
        del self._chunks[chunk.handle]
        self.committed -= chunk.size

    def reset_peak(self) -> None:
        """Reset peak tracking to the current commit level."""
        self.peak_committed = self.committed

    def __repr__(self) -> str:
        return (
            f"PhysicalMemory(committed={fmt_bytes(self.committed)}/"
            f"{fmt_bytes(self.capacity)}, chunks={len(self._chunks)})"
        )
