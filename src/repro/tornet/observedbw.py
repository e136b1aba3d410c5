"""Observed-bandwidth self-estimation (paper §2, tor-spec §2.1.1).

A relay's *observed bandwidth* is "the highest Tor throughput that the
relay was able to sustain for any 10-second period during the last 5
days". The relay publishes it in its server descriptor every 18 hours, and
the *advertised bandwidth* is the minimum of the observed bandwidth and any
configured rate limit.

This heuristic is the root cause of the under-estimation the paper's §3
quantifies: an under-utilised relay never sustains its capacity for 10
seconds, so it never learns it. The implementation keeps a 10-second
sliding window of per-second byte counts plus per-day maxima of the window
mean, so memory stays O(window + days) regardless of run length.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.units import DAY

#: Length of the sustained-throughput window, seconds.
WINDOW_SECONDS = 10
#: History horizon, days.
HISTORY_DAYS = 5


class ObservedBandwidth:
    """Tracks a relay's observed bandwidth (bytes/second).

    Two recording granularities are supported:

    - :meth:`record_second` -- per-second byte counts, exact semantics;
      :meth:`record_series` records a run of consecutive seconds with
      the same result;
    - :meth:`record_span` -- a constant rate sustained over a span of
      seconds (used by coarse-grained simulations); any span of at least
      ``WINDOW_SECONDS`` contributes its rate directly.
    """

    def __init__(self, now: int = 0):
        self._window: deque[float] = deque(maxlen=WINDOW_SECONDS)
        self._window_sum = 0.0
        # Day bucket -> best 10 s mean seen during that day (bytes/sec).
        self._day_max: dict[int, float] = {}
        self._now = int(now)

    @property
    def now(self) -> int:
        return self._now

    def _day(self, t: int) -> int:
        return t // DAY

    def _note_window_mean(self, t: int, mean_rate: float) -> None:
        day = self._day(t)
        if mean_rate > self._day_max.get(day, 0.0):
            self._day_max[day] = mean_rate
        self._expire(t)

    def _expire(self, t: int) -> None:
        cutoff = self._day(t) - HISTORY_DAYS
        stale = [d for d in self._day_max if d < cutoff]
        for d in stale:
            del self._day_max[d]

    def record_second(self, bytes_forwarded: float, t: int | None = None) -> None:
        """Record one second of forwarding ending at time ``t``."""
        t = self._now + 1 if t is None else int(t)
        if t < self._now:
            raise ValueError("time moved backwards")
        if t > self._now + 1:
            # Idle gap: the sliding window drains.
            self._window.clear()
            self._window_sum = 0.0
        self._now = t
        if len(self._window) == WINDOW_SECONDS:
            self._window_sum -= self._window[0]
        self._window.append(bytes_forwarded)
        self._window_sum += bytes_forwarded
        if len(self._window) == WINDOW_SECONDS:
            self._note_window_mean(t, self._window_sum / WINDOW_SECONDS)

    def record_series(self, values: Iterable[float]) -> None:
        """Record consecutive seconds of forwarding, ending at ``now + len``.

        The same state as ``record_second(v)`` for each value in turn:
        the window sum keeps its subtract-then-add order, and the day
        maxima see every full-window mean. Expiry runs once, at the last
        second that noted a mean: days only grow, so an earlier expiry
        could only have removed days that this one removes too, and no
        expired day is ever written again.
        """
        window = self._window
        window_sum = self._window_sum
        day_max = self._day_max
        t = self._now
        noted = None
        for value in values:
            t += 1
            if len(window) == WINDOW_SECONDS:
                window_sum -= window[0]
            window.append(value)
            window_sum += value
            if len(window) == WINDOW_SECONDS:
                mean_rate = window_sum / WINDOW_SECONDS
                day = t // DAY
                if mean_rate > day_max.get(day, 0.0):
                    day_max[day] = mean_rate
                noted = t
        self._window_sum = window_sum
        self._now = t
        if noted is not None:
            self._expire(noted)

    def record_span(self, rate_bytes_per_sec: float, start: int,
                    duration: int) -> None:
        """Record a constant ``rate`` sustained from ``start`` for ``duration`` s."""
        if duration <= 0:
            return
        end = start + duration
        if duration >= WINDOW_SECONDS:
            # A full window at this rate exists within the span; attribute it
            # to each day the span touches.
            day = self._day(start)
            while day <= self._day(end - 1):
                if rate_bytes_per_sec > self._day_max.get(day, 0.0):
                    self._day_max[day] = rate_bytes_per_sec
                day += 1
            self._now = max(self._now, end)
            self._window.clear()
            self._window_sum = 0.0
            self._expire(end)
        else:
            for t in range(start, end):
                self.record_second(rate_bytes_per_sec, t + 1)

    def observed(self, t: int | None = None) -> float:
        """Current observed bandwidth (bytes/sec): best window in 5 days."""
        t = self._now if t is None else int(t)
        self._expire(t)
        if not self._day_max:
            return 0.0
        return max(self._day_max.values())
