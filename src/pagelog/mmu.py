"""TLB and second-level dirty-flag model.

The TLB decides which accesses reach the page-table walker: only walks feed
the logging hardware. The model is a set-associative LRU cache keyed by the
guest physical page number, with the set index ``gppn mod n_sets``. Each
set is a deque bounded at ``ways``, least recently used first, so a miss is
one append that evicts in C.

Dirty flags live in a per-page table that outlives TLB evictions, mirroring
the second-level page-table entry. A write to a page whose dirty flag is
clear always takes the walk path, even when a (clean) translation is
resident: hardware must update the in-memory flag, and that microwalk is
what write-logging hardware hooks. Such an access is classified as a Miss.
Once the flag is set, writes behave exactly like reads.

Flags are never cleared, so each page takes at most one dirty walk per TLB,
and a TLB's output depends on its access stream alone. Each vCPU has its
own TLB and therefore its own flag table. A run's walk stage is ``walk_codes``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import trace as trace_mod
from .errors import ValidationError
from .trace import Trace

# Return codes of Tlb.lookup_raw; kept as plain ints for the hot path.
TLB_HIT = 0
TLB_WALK = 1
TLB_WALK_DIRTY = 2

MAX_TLB_ENTRIES = 65536
MAX_TLB_WAYS = 64
# Upper bound on a trace's distinct vCPU ids: the walk stage scans each chunk
# once per vCPU.
MAX_VCPUS = 256


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of a single vCPU's TLB. Defaults model a 4-way, 64-entry TLB."""

    entries: int = 64
    ways: int = 4

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValidationError("ways: must be >= 1")
        if self.ways > MAX_TLB_WAYS:
            raise ValidationError(f"ways: must be <= {MAX_TLB_WAYS}")
        if self.entries < self.ways:
            raise ValidationError("entries: must be >= ways")
        if self.entries > MAX_TLB_ENTRIES:
            raise ValidationError(f"entries: must be <= {MAX_TLB_ENTRIES}")
        if self.entries % self.ways != 0:
            raise ValidationError("entries: must be a multiple of ways")

    @property
    def n_sets(self) -> int:
        return self.entries // self.ways


class Tlb:
    """Set-associative LRU TLB plus the per-page dirty-flag table."""

    __slots__ = ("_n_sets", "_sets", "_dirty")

    def __init__(self, config: TlbConfig = TlbConfig()):
        self._n_sets = config.n_sets
        # Each set holds its pages least recently used first. A deque's `in`
        # and `remove` scan the set, so a hit costs O(ways) (README
        # "Performance").
        self._sets: defaultdict[int, deque[int]] = defaultdict(partial(deque, (), config.ways))
        self._dirty: set[int] = set()

    def lookup_raw(self, gppn: int, is_write: bool) -> int:
        """Classify one access; returns TLB_HIT, TLB_WALK or TLB_WALK_DIRTY.

        Walk outcomes install (or refresh) the translation.
        """
        s = self._sets[gppn % self._n_sets]
        # Residency first; a first write takes the walk either way, to set
        # the dirty flag, and still refreshes or installs the translation.
        if gppn in s:
            s.remove(gppn)
            s.append(gppn)
            if is_write and gppn not in self._dirty:
                self._dirty.add(gppn)
                return TLB_WALK_DIRTY
            return TLB_HIT
        s.append(gppn)  # a full deque drops its least recently used page
        if is_write and gppn not in self._dirty:
            self._dirty.add(gppn)
            return TLB_WALK_DIRTY
        return TLB_WALK


def walk_codes(trace: Trace, tlb_config: TlbConfig) -> np.ndarray:
    """One int8 ``TLB_*`` code per access: each vCPU's TLB over that vCPU's accesses.

    Each TLB lives for the whole trace; chunks only bound the index columns.
    """
    vcpu_ids = trace.vcpu_ids()
    if len(vcpu_ids) > MAX_VCPUS:
        raise ValidationError(f"vcpu: {len(vcpu_ids)} distinct vCPU ids, more than {MAX_VCPUS}")
    tlbs = {v: Tlb(tlb_config) for v in vcpu_ids}
    codes = np.empty(len(trace), dtype=np.int8)
    for lo in range(0, len(trace), trace_mod._CHUNK):
        chunk = slice(lo, lo + trace_mod._CHUNK)
        gs, ws, vs = trace.gppn[chunk], trace.is_write[chunk], trace.vcpu[chunk]
        for v in vcpu_ids:
            mine = np.flatnonzero(vs == v)
            codes[lo + mine] = np.frombuffer(
                bytes(map(tlbs[v].lookup_raw, gs[mine].tolist(), ws[mine].tolist())), np.int8)
    return codes


__all__ = [
    "TLB_HIT",
    "TLB_WALK",
    "TLB_WALK_DIRTY",
    "TlbConfig",
    "Tlb",
    "walk_codes",
]
