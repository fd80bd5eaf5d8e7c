"""Simulated wall clock.

Every component that models time (driver API calls, kernel compute,
host/device transfers) advances one shared :class:`SimClock`.  Time is a
float microsecond count; experiments convert to seconds for reporting
(e.g. the x-axis of the paper's Figure 14 memory trace).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Sequence


class SimClock:
    """A monotonically advancing simulated clock.

    The clock never goes backwards; :meth:`advance` with a negative
    duration is a programming error and raises ``ValueError``.
    """

    __slots__ = ("_now_us",)

    def __init__(self, start_us: float = 0.0):
        if start_us < 0:
            raise ValueError(f"start_us must be non-negative, got {start_us}")
        self._now_us = float(start_us)

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_us / 1e3

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / 1e6

    def advance(self, duration_us: float) -> float:
        """Advance the clock by ``duration_us`` and return the new time."""
        if duration_us < 0:
            raise ValueError(f"cannot advance clock by {duration_us} us")
        self._now_us += duration_us
        return self._now_us

    def advance_each(self, durations: Sequence[float]) -> float:
        """Advance by each of ``durations`` in turn, one addition at a
        time, so the result is bit-identical to one :meth:`advance` per
        duration (a single summed advance would round differently)."""
        if durations and min(durations) < 0:
            raise ValueError(f"cannot advance clock by {min(durations)} us")
        self._now_us = reduce(add, durations, self._now_us)
        return self._now_us

    def reset(self) -> None:
        """Reset the clock to zero (used between benchmark repetitions)."""
        self._now_us = 0.0

    def __repr__(self) -> str:
        return f"SimClock(now_us={self._now_us:.3f})"
