"""Shared fixtures and hypothesis profiles for the test suite.

Hypothesis settings live here, not per-file: every property test runs
under the ``ci`` profile (no deadline — CI machines stall; printed
reproduction blobs — a shrunk failure must be replayable from the log)
unless ``HYPOTHESIS_PROFILE`` selects another.  ``ci`` is derandomized
and keeps no example database, so one commit always gets one verdict,
whatever a developer's local ``.hypothesis/`` holds.  The nightly CI
job exports ``HYPOTHESIS_PROFILE=nightly``: random search with the
example database and a deeper example budget; each failure it finds is
pinned as an explicit ``@example``.  Individual tests only override
``max_examples``.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import GMLakeAllocator, GpuDevice
from repro.allocators import CachingAllocator, NativeAllocator, VmmNaiveAllocator
from repro.units import GB

_COMMON = dict(
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("ci", derandomize=True, database=None, **_COMMON)
settings.register_profile("nightly", max_examples=400, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def device() -> GpuDevice:
    """A full-size simulated A100-80GB."""
    return GpuDevice()


@pytest.fixture
def small_device() -> GpuDevice:
    """A 1 GB device, so OOM paths are cheap to trigger."""
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def gmlake(device) -> GMLakeAllocator:
    return GMLakeAllocator(device)


@pytest.fixture
def caching(device) -> CachingAllocator:
    return CachingAllocator(device)


@pytest.fixture
def native(device) -> NativeAllocator:
    return NativeAllocator(device)


@pytest.fixture
def vmm_naive(device) -> VmmNaiveAllocator:
    return VmmNaiveAllocator(device)
