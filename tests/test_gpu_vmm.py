"""Driver-contract tests for the simulated CUDA VMM API."""

import pytest

from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.device import GpuDevice
from repro.units import GB, MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def vmm(device):
    return device.vmm


class TestReserve:
    def test_reserve_returns_address(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        assert va > 0

    def test_reserve_counts_calls_and_time(self, vmm, device):
        t0 = device.clock.now_us
        vmm.mem_address_reserve(4 * MB)
        assert vmm.counters.reserve_calls == 1
        assert device.clock.now_us > t0

    def test_address_free_requires_no_mappings(self, vmm):
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, [handle])
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_address_free(va)

    def test_address_free_unknown_va(self, vmm):
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_address_free(0xDEAD)


class TestCreate:
    def test_create_commits_physical(self, vmm, device):
        vmm.mem_create(4 * MB)
        assert device.used_memory == 4 * MB

    def test_create_requires_granularity(self, vmm):
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_create(3 * MB)

    def test_create_rejects_zero(self, vmm):
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_create(0)

    def test_create_oom(self, vmm):
        with pytest.raises(CudaOutOfMemoryError):
            vmm.mem_create(2 * GB)


class TestMap:
    def test_map_within_reservation(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        h1 = vmm.mem_create(2 * MB)
        h2 = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, [h1])
        vmm.mem_map(va, 2 * MB, [h2])
        assert vmm.is_fully_mapped(va, 4 * MB)

    def test_map_beyond_reservation_rejected(self, vmm):
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_map(va, 2 * MB, [handle])

    def test_overlapping_map_rejected(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        h1 = vmm.mem_create(2 * MB)
        h2 = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, [h1])
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_map(va, 0, [h2])

    def test_map_to_unreserved_va_rejected(self, vmm):
        handle = vmm.mem_create(2 * MB)
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_map(0xBEEF, 0, [handle])

    def test_same_chunk_mappable_at_multiple_vas(self, vmm):
        """The aliasing property GMLake's stitching relies on."""
        handle = vmm.mem_create(2 * MB)
        va1 = vmm.mem_address_reserve(2 * MB)
        va2 = vmm.mem_address_reserve(2 * MB)
        vmm.mem_map(va1, 0, [handle])
        vmm.mem_map(va2, 0, [handle])
        assert vmm.is_fully_mapped(va1, 2 * MB)
        assert vmm.is_fully_mapped(va2, 2 * MB)

    def test_released_handle_cannot_be_mapped(self, vmm, device):
        """cuMemMap rejects a handle after cuMemRelease, even while
        another mapping keeps the chunk's memory alive."""
        handle = vmm.mem_create(2 * MB)
        va1 = vmm.mem_address_reserve(2 * MB)
        va2 = vmm.mem_address_reserve(2 * MB)
        vmm.mem_map(va1, 0, [handle])
        vmm.mem_release(handle)
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_map(va2, 0, [handle])
        assert vmm.counters.map_calls == 1
        assert vmm.mappings_at(va2) == []
        assert device.phys.get(handle).refcount == 1
        vmm.mem_unmap(va1, 0, 2 * MB)
        assert device.used_memory == 0

    def test_mappings_at_reports_layout(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        h1 = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 2 * MB, [h1])
        assert vmm.mappings_at(va) == [(2 * MB, 2 * MB, h1)]


class TestSetAccess:
    def test_set_access_over_mapped_range(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        for offset in (0, 2 * MB):
            vmm.mem_map(va, offset, [vmm.mem_create(2 * MB)])
        vmm.mem_set_access(va, 0, 4 * MB)
        assert vmm.counters.set_access_calls == 2  # one per chunk

    def test_set_access_over_hole_rejected(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        vmm.mem_map(va, 0, [vmm.mem_create(2 * MB)])
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_set_access(va, 0, 4 * MB)

    def test_set_access_unknown_va(self, vmm):
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_set_access(0x123, 0, 2 * MB)


class TestUnmapRelease:
    def test_unmap_releases_physical_after_release(self, vmm, device):
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, [handle])
        vmm.mem_release(handle)  # mapping still holds the chunk
        assert device.used_memory == 2 * MB
        vmm.mem_unmap(va, 0, 2 * MB)
        assert device.used_memory == 0

    def test_release_before_unmap_order_is_safe(self, vmm, device):
        """Either teardown order frees the chunk exactly once."""
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, [handle])
        vmm.mem_unmap(va, 0, 2 * MB)
        assert device.used_memory == 2 * MB  # creation ref remains
        vmm.mem_release(handle)
        assert device.used_memory == 0

    def test_unmap_nothing_rejected(self, vmm):
        va = vmm.mem_address_reserve(2 * MB)
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_unmap(va, 0, 2 * MB)

    def test_aliased_chunk_survives_one_unmap(self, vmm, device):
        handle = vmm.mem_create(2 * MB)
        va1 = vmm.mem_address_reserve(2 * MB)
        va2 = vmm.mem_address_reserve(2 * MB)
        vmm.mem_map(va1, 0, [handle])
        vmm.mem_map(va2, 0, [handle])
        vmm.mem_release(handle)
        vmm.mem_unmap(va1, 0, 2 * MB)
        assert device.used_memory == 2 * MB
        vmm.mem_unmap(va2, 0, 2 * MB)
        assert device.used_memory == 0

    def test_full_lifecycle_restores_device(self, vmm, device):
        va = vmm.mem_address_reserve(8 * MB)
        handles = []
        for offset in range(0, 8 * MB, 2 * MB):
            handle = vmm.mem_create(2 * MB)
            handles.append(handle)
            vmm.mem_map(va, offset, [handle])
        vmm.mem_set_access(va, 0, 8 * MB)
        vmm.mem_unmap(va, 0, 8 * MB)
        for handle in handles:
            vmm.mem_release(handle)
        vmm.mem_address_free(va)
        assert device.used_memory == 0
        assert device.vaspace.live_count == 0


class TestRuntime:
    def test_cuda_malloc_free_cycle(self, device):
        runtime = device.runtime
        ptr = runtime.cuda_malloc(100 * MB)
        assert device.used_memory == 100 * MB
        assert runtime.size_of(ptr) == 100 * MB
        runtime.cuda_free(ptr)
        assert device.used_memory == 0

    def test_cuda_free_unknown_rejected(self, device):
        with pytest.raises(CudaInvalidAddressError):
            device.runtime.cuda_free(0x42)

    def test_cuda_malloc_oom(self, device):
        with pytest.raises(CudaOutOfMemoryError):
            device.runtime.cuda_malloc(2 * GB)

    def test_runtime_and_vmm_share_physical_budget(self, device):
        device.runtime.cuda_malloc(512 * MB)
        device.vmm.mem_create(256 * MB)
        assert device.used_memory == 768 * MB
        with pytest.raises(CudaOutOfMemoryError):
            device.vmm.mem_create(512 * MB)

    def test_counters_and_clock_advance(self, device):
        t0 = device.clock.now_us
        ptr = device.runtime.cuda_malloc(2 * MB)
        device.runtime.cuda_free(ptr)
        assert device.runtime.counters.malloc_calls == 1
        assert device.runtime.counters.free_calls == 1
        assert device.clock.now_us > t0

    def test_driver_time_accumulates(self, device):
        ptr = device.runtime.cuda_malloc(2 * MB)
        device.runtime.cuda_free(ptr)
        device.vmm.mem_create(2 * MB)
        assert device.driver_time_us() > 0
