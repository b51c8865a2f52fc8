"""Hardware page-logging model: write-only (PML) and all-access (PAML) modes.

Both modes share one mechanism: a fixed-size in-memory buffer of logged page
numbers and a decrementing index register that starts at ``capacity - 1``.
The entries logged since the last reset form one round (``Tracker.round``,
in log order). A full event stops the register at -1 and holds the round
until the handler (:func:`pagelog.handler.handle_full`) folds it into the
cumulative log and resets the index. The modes differ in what gets logged
and in who pays for a full buffer.

PML mode logs only walks that set a page's dirty flag. The walk that fills
the last slot raises an exit handled on the VM's own CPU: the VM is stalled
for ``vmexit_cost_ns`` and the round is folded before the VM resumes, so no
walk is ever lost and a full round holds ``capacity`` entries.

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

from .errors import ProtocolError, ValidationError

# Upper bound on buffer entries, and so on the length of one held round.
MAX_BUFFER_ENTRIES = 65536


class TrackingMode(Enum):
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
    buffer_entries: int = 512
    vmexit_cost_ns: int = 4000
    handler_latency_per_entry_ns: int = 20

    def __post_init__(self) -> None:
        if not 2 <= self.buffer_entries <= MAX_BUFFER_ENTRIES:
            raise ValidationError(f"buffer_entries: must be within 2..{MAX_BUFFER_ENTRIES}")
        if self.vmexit_cost_ns < 0:
            raise ValidationError("vmexit_cost_ns: must be >= 0")
        if self.handler_latency_per_entry_ns < 0:
            raise ValidationError("handler_latency_per_entry_ns: must be >= 0")


class Tracker:
    """Per-vCPU logging hardware instance."""

    __slots__ = (
        "config",
        "_mode",
        "round",
        "index",
        "full_events",
        "missed_gpas",
        "logged",
        "vm_stall_ns",
    )

    def __init__(self, config: TrackingConfig):
        self.config = config
        self._mode = config.mode
        self.round: list[int] = []
        self.index = config.buffer_entries - 1
        self.full_events = 0
        self.missed_gpas = 0
        self.logged = 0
        self.vm_stall_ns = 0

    def observe_raw(self, gppn: int, dirty_set: bool) -> int:
        """Feed one walk; returns an OBS_* code.

        On OBS_FULL the index is -1 and ``round`` is held until the handler
        folds it and calls :meth:`reset_index`.
        """
        if self._mode is TrackingMode.PAML:
            i = self.index
            if i > 0:
                self.round.append(gppn)
                self.index = i - 1
                self.logged += 1
                return OBS_LOGGED
            if i == 0:
                # Buffer detected full; the triggering page is not logged.
                self.index = -1
                self.full_events += 1
                return OBS_FULL
            self.missed_gpas += 1
            return OBS_DROPPED
        if not dirty_set:
            return OBS_IGNORED
        i = self.index
        if i < 0:
            raise ProtocolError("observe_raw: pml round held, the VM is stalled until it is folded")
        self.round.append(gppn)
        self.logged += 1
        if i > 0:
            self.index = i - 1
            return OBS_LOGGED
        # Synchronous exit on the VM's CPU: the VM stalls until the fold.
        self.index = -1
        self.full_events += 1
        self.vm_stall_ns += self.config.vmexit_cost_ns
        return OBS_FULL

    def reset_index(self) -> None:
        """Start a new round once a held one has been folded."""
        if self.index >= 0:
            raise ProtocolError(f"reset_index: index is {self.index}, no full event outstanding")
        self.index = self.config.buffer_entries - 1
        self.round = []

    def drain_residual(self) -> list:
        """Return the open round, in log order, and start a new one.

        Gives nothing while a round is held. Used for flush-on-query and at
        end of run so that partially filled buffers are not lost.
        """
        if self.index < 0:
            return []
        snap = self.round
        self.round = []
        self.index = self.config.buffer_entries - 1
        return snap


__all__ = [
    "TrackingMode",
    "OBS_LOGGED",
    "OBS_DROPPED",
    "OBS_IGNORED",
    "OBS_FULL",
    "TrackingConfig",
    "Tracker",
]
