"""Hardware page-logging model: write-only (PML) and all-access (PAML) modes.

Both modes share one mechanism: a fixed-size in-memory buffer of logged page
numbers and a decrementing index register that starts at ``capacity - 1``.
The entries logged since the last reset form one round (``Tracker.round``,
in log order). A full event stops the register at -1 and holds the round
until the handler (:func:`pagelog.handler.handle_full`) folds it into the
cumulative log and resets the index. The modes differ in what gets logged
and in who pays for a full buffer.

The round is the only logging state a tracker stores. The index register
is derived from it, as the SDM defines it: ``capacity - 1`` less the round's
length, or -1 while the round is held; so are ``logged`` and ``vm_stall_ns``.

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

    __slots__ = ("config", "_paml", "_last", "round", "_held", "_folded", "full_events", "missed_gpas")

    def __init__(self, config: TrackingConfig):
        self.config = config
        # Resolved once: an Enum member read costs more than a bool test.
        self._paml = config.mode is TrackingMode.PAML
        self._last = config.buffer_entries - 1  # the index register's start
        self.round: list[int] = []
        self._held = False  # a full event stopped the index; the round awaits its fold
        self._folded = 0  # entries of earlier rounds, folded or drained
        self.full_events = 0
        self.missed_gpas = 0

    @property
    def index(self) -> int:
        """The index register: the next free slot, counting down, or -1 while held."""
        return -1 if self._held else self._last - len(self.round)

    @property
    def logged(self) -> int:
        return self._folded + len(self.round)

    @property
    def vm_stall_ns(self) -> int:
        return 0 if self._paml else self.full_events * self.config.vmexit_cost_ns

    def observe_raw(self, gppn: int, dirty_set: bool) -> int:
        """Feed one walk; returns an OBS_* code.

        On OBS_FULL the index is -1 and ``round`` is held until the handler
        folds it and calls :meth:`reset_index`.
        """
        if self._paml:
            if self._held:
                self.missed_gpas += 1
                return OBS_DROPPED
            r = self.round
            if len(r) < self._last:
                r.append(gppn)
                return OBS_LOGGED
            # Index 0 detected before logging; the triggering page is not logged.
            self._held = True
            self.full_events += 1
            return OBS_FULL
        if not dirty_set:
            return OBS_IGNORED
        if self._held:
            raise ProtocolError("observe_raw: pml round held, the VM is stalled until it is folded")
        r = self.round
        r.append(gppn)
        if len(r) <= self._last:
            return OBS_LOGGED
        # Synchronous exit on the VM's CPU: the VM stalls until the fold.
        self._held = True
        self.full_events += 1
        return OBS_FULL

    def reset_index(self) -> None:
        """Start a new round once a held one has been folded."""
        if not self._held:
            raise ProtocolError(f"reset_index: index is {self.index}, no full event outstanding")
        self._held = False
        self._folded += len(self.round)
        self.round = []

    def drain_residual(self) -> list:
        """Return the open round, in log order, and start a new one.

        Gives nothing while a round is held. Used for flush-on-query and at
        end of run so that partially filled buffers are not lost.
        """
        if self._held:
            return []
        snap = self.round
        self._folded += len(snap)
        self.round = []
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
