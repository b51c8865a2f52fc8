"""Handling of buffer-full events: held rounds folded into the cumulative log.

The cumulative log counts how many times each page has been logged.
:func:`handle_full` is the one place where a full round reaches it: it reads
each tracker's held round in place, as the hypervisor does during the exit
(pml) or the controller's handler does (paml), then resets the index. One
paml invocation drains every pending full event, so a burst of events costs
a single activation.

The duration from :func:`batch_duration_ns` is virtual time: the caller's
event loop keeps the drained trackers in their dropping state for exactly
that long before the transfer becomes visible.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ProtocolError
from .tracker import Tracker


class CumulativeLog:
    """Map from page number to the number of times it was logged.

    The count of pages at or above ``hot_threshold`` is maintained
    incrementally (``hot_count``), which keeps periodic working set
    observations O(1).
    """

    __slots__ = ("counts", "total", "hot_threshold", "hot_count")

    def __init__(self, hot_threshold: int):
        if hot_threshold < 1:
            raise ProtocolError("hot_threshold: must be >= 1")
        self.counts: dict[int, int] = {}
        self.total = 0
        self.hot_threshold = hot_threshold
        self.hot_count = 0

    def add_snapshot(self, snapshot: Sequence[int]) -> None:
        """Fold one round of logged entries into the counts."""
        counts = self.counts
        get = counts.get
        tau = self.hot_threshold
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


def batch_duration_ns(batch: Sequence[Tracker]) -> int:
    """Virtual time one invocation needs for the held rounds of ``batch``."""
    return sum(len(t.round) * t.config.handler_latency_per_entry_ns for t in batch)


def handle_full(batch: Sequence[Tracker], log: CumulativeLog) -> None:
    """Fold the held round of each tracker in ``batch`` into the log, then reset its index.

    Every tracker is listed once, and it must be stopped by a full event
    (negative index); a folded round is gone with its reset, so folding
    again without a new full event is rejected.
    """
    if len(set(map(id, batch))) < len(batch):
        raise ProtocolError("handle_full: a tracker is listed twice in the batch")
    for tracker in batch:
        if tracker.index >= 0:
            raise ProtocolError(f"handle_full: a tracker has index {tracker.index}, no full event outstanding")
    for tracker in batch:
        log.add_snapshot(tracker.round)
        tracker.reset_index()


__all__ = ["CumulativeLog", "batch_duration_ns", "handle_full"]
