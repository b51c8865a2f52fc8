"""Controller-side handling of buffer-full events.

Full buffers are transferred in batches into the VM's cumulative log, which
counts, for every page, how many times it has appeared. One handler
invocation drains every pending full event, so a burst of events costs a
single activation, and resumes each drained buffer by resetting its index.

The returned duration is virtual time: the caller's event loop keeps the
drained trackers in their dropping state for exactly that long before the
transfer becomes visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Tuple

from .errors import ProtocolError
from .tracker import Tracker


class CumulativeLog:
    """Map from page number to the number of times it was logged.

    When ``hot_threshold`` is given, the count of pages at or above it is
    maintained incrementally (``hot_count``), which keeps periodic working
    set observations O(1).
    """

    __slots__ = ("counts", "total", "hot_threshold", "hot_count")

    def __init__(self, hot_threshold: int | None = None):
        if hot_threshold is not None and hot_threshold < 1:
            raise ProtocolError("hot_threshold: must be >= 1 when set")
        self.counts: dict[int, int] = {}
        self.total = 0
        self.hot_threshold = hot_threshold
        self.hot_count = 0

    def add_snapshot(self, snapshot: Sequence[int]) -> None:
        """Fold one buffer snapshot into the counts."""
        counts = self.counts
        get = counts.get
        tau = self.hot_threshold
        if tau is None:
            for gppn in snapshot:
                counts[gppn] = get(gppn, 0) + 1
        else:
            hot = self.hot_count
            for gppn in snapshot:
                c = get(gppn, 0) + 1
                counts[gppn] = c
                if c == tau:
                    hot += 1
            self.hot_count = hot
        self.total += len(snapshot)

    @property
    def distinct_count(self) -> int:
        return len(self.counts)

    def pages_with_at_least(self, threshold: int) -> int:
        if threshold == self.hot_threshold:
            return self.hot_count
        return sum(1 for c in self.counts.values() if c >= threshold)


@dataclass
class FullEvent:
    """A raised buffer-full event awaiting handling."""

    vcpu: int
    snapshot: Tuple[int, ...]
    applied: bool = field(default=False, compare=False)


def batch_duration_ns(events: Sequence[FullEvent], trackers: Mapping[int, Tracker]) -> int:
    """Virtual time one invocation needs for ``events`` (entries x per-entry cost)."""
    return sum(len(ev.snapshot) * trackers[ev.vcpu].config.handler_latency_per_entry_ns
               for ev in events)


def handle_full(events: Sequence[FullEvent], log: CumulativeLog,
                trackers: Mapping[int, Tracker]) -> int:
    """Drain ``events`` into the cumulative log; returns the duration.

    ``trackers`` maps each vCPU to its tracker. All listed trackers must
    still be stopped (negative index); each event may be applied once.
    Counts from every snapshot are folded in first, then every drained
    tracker's index is reset so logging resumes.
    """
    seen: set[int] = set()
    for ev in events:
        tracker = trackers[ev.vcpu]
        if tracker.index >= 0:
            raise ProtocolError(
                f"handle_full: tracker of vcpu {ev.vcpu} has index {tracker.index}, "
                f"no full event outstanding"
            )
        if ev.applied:
            raise ProtocolError(f"handle_full: snapshot from vcpu {ev.vcpu} already applied")
        if ev.vcpu in seen:
            raise ProtocolError(f"handle_full: two snapshots from one tracker (vcpu {ev.vcpu})")
        seen.add(ev.vcpu)
    for ev in events:
        log.add_snapshot(ev.snapshot)
        ev.applied = True
    for ev in events:
        trackers[ev.vcpu].reset_index()
    return batch_duration_ns(events, trackers)


__all__ = ["CumulativeLog", "FullEvent", "batch_duration_ns", "handle_full"]
