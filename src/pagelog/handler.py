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

from typing import Mapping, Sequence

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


def batch_duration_ns(vcpus: Sequence[int], trackers: Mapping[int, Tracker]) -> int:
    """Virtual time one invocation needs for the held rounds of ``vcpus``."""
    return sum(len(trackers[v].round) * trackers[v].config.handler_latency_per_entry_ns
               for v in vcpus)


def handle_full(vcpus: Sequence[int], log: CumulativeLog,
                trackers: Mapping[int, Tracker]) -> None:
    """Fold the held round of each listed vCPU into the log, then reset its index.

    ``trackers`` maps each vCPU to its tracker. Every vCPU is listed once,
    and its tracker must be stopped by a full event (negative index); a
    folded round is gone with its reset, so folding again without a new
    full event is rejected.
    """
    if len(set(vcpus)) < len(vcpus):
        raise ProtocolError(f"handle_full: a vcpu is listed twice in {list(vcpus)}")
    for v in vcpus:
        index = trackers[v].index
        if index >= 0:
            raise ProtocolError(
                f"handle_full: tracker of vcpu {v} has index {index}, no full event outstanding"
            )
    for v in vcpus:
        log.add_snapshot(trackers[v].round)
        trackers[v].reset_index()


__all__ = ["CumulativeLog", "batch_duration_ns", "handle_full"]
