"""Reference slot packers the production packer is tested against.

Both are the historical implementations, kept verbatim as oracles:

- :func:`linear_rescan_slots` is the campaign loop's packing step as it
  stood before :func:`repro.core.schedule.first_fit_slots`: every slot
  rescans the whole waiting queue in order, taking each item that still
  fits. The campaign oracle (``tests/api/test_campaign_oracle.py``)
  packs with it, and ``tests/core/test_schedule.py`` compares the
  production packer with it on generated queues.
- :func:`bisect_greedy_pack_slots` is the §7 efficiency scheduler as it
  stood before it became :func:`first_fit_slots` over the descending
  order: a bisect on the ascending requirement list per pick.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Sequence

from repro.core.params import FlashFlowParams
from repro.errors import ScheduleError


def linear_rescan_slots(
    required: Sequence[float], team_capacity: float
) -> list[list[int]]:
    """Pack queue positions into slots by rescanning the queue per slot."""
    slots: list[list[int]] = []
    waiting: deque[int] = deque(range(len(required)))
    while waiting:
        residual = team_capacity
        this_slot: list[int] = []
        deferred: deque[int] = deque()
        while waiting:
            position = waiting.popleft()
            if required[position] <= residual + 1e-6:
                this_slot.append(position)
                residual -= required[position]
            else:
                deferred.append(position)
        if not this_slot:
            # Unreachable while every requirement is capped at the team
            # capacity.
            this_slot.append(deferred.popleft())
        slots.append(this_slot)
        waiting = deferred
    return slots


def bisect_greedy_pack_slots(
    estimates: dict[str, float],
    params: FlashFlowParams,
    team_capacity: float,
) -> list[list[str]]:
    """Largest-relay-that-fits packing via a bisect per pick."""
    # Ascending by requirement; ties keep the descending-capacity scan
    # order of the original linear pass (stable sort + reversal).
    asc = sorted(estimates, key=lambda fp: estimates[fp], reverse=True)[::-1]
    required = {
        fp: min(params.allocation_factor * max(estimates[fp], 1.0),
                team_capacity)
        for fp in estimates
    }
    keys = [required[fp] for fp in asc]
    slots: list[list[str]] = []
    while asc:
        residual = team_capacity
        slot: list[str] = []
        while True:
            index = bisect.bisect_right(keys, residual + 1e-6) - 1
            if index < 0:
                break
            fp = asc.pop(index)
            keys.pop(index)
            slot.append(fp)
            residual -= required[fp]
        if not slot:
            raise ScheduleError(
                "a relay requires more than the whole team capacity"
            )
        slots.append(slot)
    return slots
