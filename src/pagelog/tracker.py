"""Hardware page-logging model: write-only (PML) and all-access (PAML) modes.

Both modes share one mechanism: a fixed-size in-memory buffer of logged page
numbers and a decrementing index register that starts at ``capacity - 1``.
They differ in what gets logged and in who pays for a full buffer.

PML mode logs only walks that set a page's dirty flag. Entries fill slots
``capacity-1`` down to ``0``; when the index decrements below zero the
processor raises an exit handled on the VM's own CPU: the VM is stalled for
``vmexit_cost_ns``, the buffer snapshot is handed over, and the index is
reset before the VM resumes. No walk is ever lost.

PAML mode logs every walk, read or write, regardless of the dirty flag. A
full buffer is detected when the index reads zero *before* logging: the
index drops to -1, the triggering page is not logged, and a full event is
raised for an external handler while the VM keeps running. Until the
handler resets the index, further walks are dropped and counted as missed.
Each round therefore transfers ``capacity - 1`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import ProtocolError, ValidationError

DEFAULT_BUFFER_ENTRIES = 512
DEFAULT_VMEXIT_COST_NS = 4000
DEFAULT_HANDLER_LATENCY_PER_ENTRY_NS = 20
# Upper bound on buffer entries; Tracker allocates every slot up front.
MAX_BUFFER_ENTRIES = 65536


class TrackingMode(Enum):
    OFF = "off"
    PML = "pml"
    PAML = "paml"

    @classmethod
    def parse(cls, name: str) -> "TrackingMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValidationError(f"mode: unknown mode {name!r} (expected one of {valid})") from None


# Return codes of Tracker.observe_raw; kept as plain ints for the hot path.
OBS_LOGGED = 0
OBS_DROPPED = 1
OBS_IGNORED = 2
OBS_FULL = 3


@dataclass(frozen=True)
class TrackingConfig:
    mode: TrackingMode = TrackingMode.PAML
    buffer_entries: int = DEFAULT_BUFFER_ENTRIES
    vmexit_cost_ns: int = DEFAULT_VMEXIT_COST_NS
    handler_latency_per_entry_ns: int = DEFAULT_HANDLER_LATENCY_PER_ENTRY_NS

    def validate(self) -> None:
        if not 2 <= self.buffer_entries <= MAX_BUFFER_ENTRIES:
            raise ValidationError(f"buffer_entries: must be within 2..{MAX_BUFFER_ENTRIES}")
        if self.vmexit_cost_ns < 0:
            raise ValidationError("vmexit_cost_ns: must be >= 0")
        if self.handler_latency_per_entry_ns < 0:
            raise ValidationError("handler_latency_per_entry_ns: must be >= 0")


@dataclass(frozen=True)
class LogBuffer:
    """Point-in-time view of the logging buffer and its index register."""

    capacity: int
    slots: tuple
    index: int


@dataclass(frozen=True)
class TrackerStats:
    full_events: int = 0
    missed_gpas: int = 0
    logged: int = 0
    vm_stall_ns: int = 0

    def merged(self, other: "TrackerStats") -> "TrackerStats":
        return TrackerStats(
            full_events=self.full_events + other.full_events,
            missed_gpas=self.missed_gpas + other.missed_gpas,
            logged=self.logged + other.logged,
            vm_stall_ns=self.vm_stall_ns + other.vm_stall_ns,
        )


class Tracker:
    """Per-vCPU logging hardware instance."""

    __slots__ = (
        "config",
        "_mode",
        "_capacity",
        "_slots",
        "index",
        "full_events",
        "missed_gpas",
        "logged",
        "vm_stall_ns",
        "_pending_snapshot",
    )

    def __init__(self, config: TrackingConfig):
        config.validate()
        self.config = config
        self._mode = config.mode
        self._capacity = config.buffer_entries
        self._slots: list[int] = [0] * self._capacity
        self.index = self._capacity - 1
        self.full_events = 0
        self.missed_gpas = 0
        self.logged = 0
        self.vm_stall_ns = 0
        self._pending_snapshot: Optional[tuple] = None

    def observe_raw(self, gppn: int, dirty_set: bool) -> int:
        """Feed one walk; returns an OBS_* code.

        On OBS_FULL the transferred snapshot is available once via
        :meth:`take_full_snapshot`.
        """
        mode = self._mode
        if mode is TrackingMode.PAML:
            i = self.index
            if i > 0:
                self._slots[i] = gppn
                self.index = i - 1
                self.logged += 1
                return OBS_LOGGED
            if i == 0:
                # Buffer detected full; the triggering page is not logged.
                self.index = -1
                self.full_events += 1
                self._pending_snapshot = tuple(
                    self._slots[j] for j in range(self._capacity - 1, 0, -1)
                )
                return OBS_FULL
            self.missed_gpas += 1
            return OBS_DROPPED
        if mode is TrackingMode.PML:
            if not dirty_set:
                return OBS_IGNORED
            i = self.index
            self._slots[i] = gppn
            self.logged += 1
            i -= 1
            if i < 0:
                # Synchronous exit on the VM's CPU: stall, hand over, reset.
                self.full_events += 1
                self.vm_stall_ns += self.config.vmexit_cost_ns
                self._pending_snapshot = tuple(
                    self._slots[j] for j in range(self._capacity - 1, -1, -1)
                )
                self.index = self._capacity - 1
                return OBS_FULL
            self.index = i
            return OBS_LOGGED
        raise ProtocolError("observe_raw: tracking mode is off")

    def take_full_snapshot(self) -> tuple:
        """Return and consume the snapshot of the last full event, in log order."""
        snap = self._pending_snapshot
        if snap is None:
            raise ProtocolError("take_full_snapshot: no full event pending")
        self._pending_snapshot = None
        return snap

    def reset_index(self) -> None:
        """Resume logging after a PAML full event."""
        if self.index >= 0:
            raise ProtocolError(f"reset_index: index is {self.index}, no full event outstanding")
        self.index = self._capacity - 1

    def drain_residual(self) -> tuple:
        """Entries logged since the last reset, in log order; empties the round.

        Used at end of run so that partially filled buffers are not lost.
        """
        if self.index < 0:
            return ()
        snap = tuple(self._slots[j] for j in range(self._capacity - 1, self.index, -1))
        self.index = self._capacity - 1
        return snap

    def stats(self) -> TrackerStats:
        return TrackerStats(
            full_events=self.full_events,
            missed_gpas=self.missed_gpas,
            logged=self.logged,
            vm_stall_ns=self.vm_stall_ns,
        )

    def buffer_state(self) -> LogBuffer:
        return LogBuffer(capacity=self._capacity, slots=tuple(self._slots), index=self.index)


__all__ = [
    "DEFAULT_BUFFER_ENTRIES",
    "DEFAULT_VMEXIT_COST_NS",
    "DEFAULT_HANDLER_LATENCY_PER_ENTRY_NS",
    "TrackingMode",
    "OBS_LOGGED",
    "OBS_DROPPED",
    "OBS_IGNORED",
    "OBS_FULL",
    "TrackingConfig",
    "LogBuffer",
    "TrackerStats",
    "Tracker",
]
