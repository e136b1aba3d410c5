"""Measurement scheduling (paper §4.3).

Each 24-hour period is divided into t-second slots. Before a period
starts, the BWAuths derive a shared random seed (Tor's shared-randomness
protocol); each then locally computes the same schedule:

- every *old* relay gets a slot chosen uniformly at random among slots with
  enough unallocated team capacity for ``f * z0``;
- *new* relays are measured first-come-first-served in the earliest slots
  with sufficient residual capacity.

The schedule is secret (derived from the private seed), which prevents
both selective-capacity relays and targeted denial-of-service (§5).

:func:`greedy_pack_slots` implements the §7 efficiency scheduler: pack
relays largest-first into consecutive slots to find the *fastest* the
network can be measured. It and the campaign loop
(:func:`repro.api.campaign.run_period_rounds`) share one packer,
:func:`first_fit_slots`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.params import FlashFlowParams
from repro.errors import ScheduleError


@dataclass
class SlotAssignment:
    """One relay's scheduled measurement."""

    fingerprint: str
    slot: int
    required_capacity: float
    is_new: bool = False


@dataclass
class PeriodSchedule:
    """A full measurement period's schedule for one BWAuth."""

    params: FlashFlowParams
    team_capacity: float
    seed: bytes
    assignments: dict[str, SlotAssignment] = field(default_factory=dict)
    slot_load: dict[int, float] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.team_capacity <= 0:
            raise ScheduleError("team capacity must be positive")
        # Dense mirror of ``slot_load`` for vectorised feasibility scans;
        # loads are accumulated exactly like the dict (same float adds).
        self._loads = np.zeros(self.n_slots, dtype=float)
        for slot, load in self.slot_load.items():
            if 0 <= slot < self._loads.size:
                self._loads[slot] = load

    @property
    def n_slots(self) -> int:
        return self.params.slots_per_period

    def residual(self, slot: int) -> float:
        return self.team_capacity - self.slot_load.get(slot, 0.0)

    def _place(self, assignment: SlotAssignment) -> None:
        if assignment.fingerprint in self.assignments:
            raise ScheduleError(
                f"{assignment.fingerprint} already scheduled this period"
            )
        if assignment.required_capacity > self.residual(assignment.slot) + 1e-6:
            raise ScheduleError(
                f"slot {assignment.slot} lacks capacity for "
                f"{assignment.fingerprint}"
            )
        self.assignments[assignment.fingerprint] = assignment
        self.slot_load[assignment.slot] = (
            self.slot_load.get(assignment.slot, 0.0)
            + assignment.required_capacity
        )
        if 0 <= assignment.slot < self._loads.size:
            self._loads[assignment.slot] = self.slot_load[assignment.slot]

    @classmethod
    def build(
        cls,
        params: FlashFlowParams,
        team_capacity: float,
        estimates: dict[str, float],
        seed: bytes,
    ) -> "PeriodSchedule":
        """Schedule every old relay at a random feasible slot.

        ``estimates`` maps fingerprint -> existing capacity estimate z0.
        Required slot capacity per relay is ``min(f * z0, team capacity)``
        (a relay guessed above what the team can supply still gets its
        best-effort full-team slot).
        """
        schedule = cls(params=params, team_capacity=team_capacity, seed=seed)
        rng = random.Random(seed)
        order = sorted(estimates)  # determinism: same seed => same schedule
        rng.shuffle(order)
        for fingerprint in order:
            required = min(
                params.allocation_factor * max(estimates[fingerprint], 1.0),
                team_capacity,
            )
            # Vectorised feasibility scan over all slots; elementwise this
            # is the same ``residual(slot) + 1e-6 >= required`` test, and
            # rng.choice draws exactly one value either way, keeping the
            # schedule identical to the per-slot Python loop.
            feasible = np.flatnonzero(
                (team_capacity - schedule._loads) + 1e-6 >= required
            )
            if feasible.size == 0:
                raise ScheduleError(
                    f"no slot can hold {fingerprint} "
                    f"(needs {required:.0f} bit/s)"
                )
            slot = int(rng.choice(feasible))
            schedule._place(
                SlotAssignment(
                    fingerprint=fingerprint,
                    slot=slot,
                    required_capacity=required,
                )
            )
        return schedule

    def add_new_relay(self, fingerprint: str, z0: float,
                      earliest_slot: int = 0) -> SlotAssignment:
        """Schedule a newly appeared relay FCFS (paper §4.3).

        New relays take the first slot at/after ``earliest_slot`` (their
        arrival time) with enough residual capacity.
        """
        required = min(
            self.params.allocation_factor * max(z0, 1.0), self.team_capacity
        )
        earliest_slot = max(0, earliest_slot)
        window = self._loads[earliest_slot:]
        fits = (self.team_capacity - window) + 1e-6 >= required
        if fits.any():
            slot = earliest_slot + int(np.argmax(fits))
            assignment = SlotAssignment(
                fingerprint=fingerprint,
                slot=slot,
                required_capacity=required,
                is_new=True,
            )
            self._place(assignment)
            return assignment
        raise ScheduleError(
            f"no remaining slot can hold new relay {fingerprint}"
        )

    def remove_relay(self, fingerprint: str) -> SlotAssignment:
        """Unschedule a relay that left the network mid-deployment.

        The assignment's capacity is released back to its slot, so later
        :meth:`add_new_relay` calls can re-slot arriving relays into the
        freed space -- the churn-aware path continuous deployments use
        when the consensus drops a relay between schedule computation
        and measurement. Returns the removed assignment.
        """
        assignment = self.assignments.pop(fingerprint, None)
        if assignment is None:
            raise ScheduleError(f"{fingerprint} is not scheduled this period")
        remaining = (
            self.slot_load.get(assignment.slot, 0.0)
            - assignment.required_capacity
        )
        if remaining > 1e-6:
            self.slot_load[assignment.slot] = remaining
        else:
            # The slot is empty (up to float residue): drop it entirely so
            # slots_in_use/makespan shrink back, mirroring never-assigned.
            self.slot_load.pop(assignment.slot, None)
            remaining = 0.0
        if 0 <= assignment.slot < self._loads.size:
            self._loads[assignment.slot] = remaining
        return assignment

    def reslot_relay(self, fingerprint: str,
                     earliest_slot: int = 0) -> SlotAssignment:
        """Move a scheduled relay to the earliest feasible slot.

        Removal + FCFS re-insertion (the relay keeps its required
        capacity and ``is_new`` flag): used when churn frees earlier
        capacity and a late-slotted relay can be pulled forward. Raises
        :class:`ScheduleError` -- with the original assignment restored
        -- if no slot at/after ``earliest_slot`` fits.
        """
        removed = self.remove_relay(fingerprint)
        earliest_slot = max(0, earliest_slot)
        window = self._loads[earliest_slot:]
        fits = (
            (self.team_capacity - window) + 1e-6
            >= removed.required_capacity
        )
        if not fits.any():
            self._place(removed)
            raise ScheduleError(
                f"no slot at/after {earliest_slot} can re-slot {fingerprint}"
            )
        assignment = SlotAssignment(
            fingerprint=fingerprint,
            slot=earliest_slot + int(np.argmax(fits)),
            required_capacity=removed.required_capacity,
            is_new=removed.is_new,
        )
        self._place(assignment)
        return assignment

    def slots_in_use(self) -> int:
        return len(self.slot_load)

    def makespan_slots(self) -> int:
        """Index (exclusive) of the last used slot."""
        if not self.slot_load:
            return 0
        return max(self.slot_load) + 1

    def by_slot(self) -> dict[int, list[SlotAssignment]]:
        out: dict[int, list[SlotAssignment]] = {}
        for a in self.assignments.values():
            out.setdefault(a.slot, []).append(a)
        return out


def first_fit_slots(
    required: Sequence[float], team_capacity: float
) -> list[list[int]]:
    """Pack a queue of items into consecutive slots, first fit.

    Each slot starts with ``team_capacity`` of residual and repeatedly
    takes the leftmost waiting item with ``required <= residual + 1e-6``,
    subtracting its requirement, until no waiting item fits; the next
    slot then starts over on the items left. Returns the slots in order,
    each a list of positions into ``required`` in the order taken.

    Within a slot the residual only falls, so an item a slot skipped can
    never fit later in the same slot: the leftmost fitting item is
    exactly the one a linear rescan of the waiting queue would take
    next, and the slots, their order and the float sequence of
    ``residual -= required`` are those of the rescan. A min segment tree
    over queue positions finds that item in O(log n), so a queue of n
    items packs in O(n log n) instead of O(n x slots).

    Raises :class:`ScheduleError` on a non-finite requirement or team
    capacity, and when an item needs more than a whole empty slot.
    """
    if not (math.isfinite(team_capacity) and team_capacity > 0):
        raise ScheduleError(
            f"team capacity must be positive and finite, got {team_capacity!r}"
        )
    values = [float(r) for r in required]
    for position, value in enumerate(values):
        if not math.isfinite(value):
            raise ScheduleError(
                f"item {position} has non-finite required capacity {value!r}"
            )
    n = len(values)
    size = 1
    while size < n:
        size *= 2
    # tree[size + i] holds item i's requirement (inf once packed or for
    # padding); every inner node holds the minimum of its two children.
    tree = [math.inf] * (2 * size)
    tree[size:size + n] = values
    for node in range(size - 1, 0, -1):
        tree[node] = min(tree[2 * node], tree[2 * node + 1])

    slots: list[list[int]] = []
    remaining = n
    while remaining:
        residual = team_capacity
        slot: list[int] = []
        while True:
            limit = residual + 1e-6
            if not tree[1] <= limit:
                break
            # Descend to the leftmost leaf whose requirement fits.
            node = 1
            while node < size:
                node *= 2
                if not tree[node] <= limit:
                    node += 1
            position = node - size
            slot.append(position)
            residual -= values[position]
            tree[node] = math.inf
            node //= 2
            while node:
                smallest = min(tree[2 * node], tree[2 * node + 1])
                if tree[node] == smallest:
                    break
                tree[node] = smallest
                node //= 2
        if not slot:
            raise ScheduleError(
                "an item requires more than the whole team capacity"
            )
        slots.append(slot)
        remaining -= len(slot)
    return slots


def greedy_pack_slots(
    estimates: dict[str, float],
    params: FlashFlowParams,
    team_capacity: float,
) -> list[list[str]]:
    """Pack relays into the fewest consecutive slots (paper §7).

    "We greedily assign relays to each slot in order, with each assignment
    choosing the largest relay for which there is available capacity to
    measure." Returns the list of slots, each a list of fingerprints.

    Requirements ``min(f * z0, team capacity)`` never increase along the
    descending-estimate order, so "the largest relay that still fits" is
    the first fitting relay in that order: :func:`first_fit_slots` over
    the descending order (ties keep their input order) is exactly this
    greedy scheduler.
    """
    order = sorted(estimates, key=lambda fp: estimates[fp], reverse=True)
    required = [
        min(params.allocation_factor * max(estimates[fp], 1.0), team_capacity)
        for fp in order
    ]
    return [
        [order[position] for position in slot]
        for slot in first_fit_slots(required, team_capacity)
    ]
