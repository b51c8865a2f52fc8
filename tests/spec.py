"""An independent statement of the hardware model, in plain Python lists.

It shares no code with ``pagelog``.

The walk stage. Each vCPU has its own TLB: ``n_sets``
sets of at most ``ways`` pages each, a page in set ``page % n_sets``, each
set kept least recently used first. Each vCPU also has its own dirty flags,
which are never cleared. A write to a page whose flag is clear walks to set
it, resident or not. Every other access hits when the page is resident and
walks when it is not. Each access leaves its page most recently used in its
set, and a walk into a full set first evicts the least recently used page.

The logging buffer. Each vCPU has its own buffer of ``capacity`` entries and
an index that counts down from ``capacity - 1``. The entries logged since the
last reset form the open round. paml logs every walk while the index is
above 0; at 0 the buffer is full: the walk that finds it so is not logged,
the round is held, and every walk is dropped until the round is folded. pml
ignores walks that set no dirty flag and logs the others; the walk that
finds the index at 0 is logged, and the buffer then exits to the hypervisor,
which stalls the VM for the exit cost, so no walk comes while the round is
held. A fold takes a held round and resets the index; a drain takes the open
round, and nothing while a round is held, and resets the index too.
"""

HIT, WALK, DIRTY_WALK = 0, 1, 2  # the codes of pagelog.mmu.TLB_*


def walk_codes(accesses, n_sets, ways):
    """The code of each ``(vcpu, page, is_write)`` access, in order."""
    sets = {}  # (vcpu, set index) -> pages, least recently used first
    dirty = set()  # (vcpu, page) pairs whose flag is set
    codes = []
    for vcpu, page, is_write in accesses:
        lru = sets.setdefault((vcpu, page % n_sets), [])
        if is_write and (vcpu, page) not in dirty:
            dirty.add((vcpu, page))
            codes.append(DIRTY_WALK)
        else:
            codes.append(HIT if page in lru else WALK)
        if page in lru:
            lru.remove(page)
        elif len(lru) == ways:
            del lru[0]
        lru.append(page)
    return codes


LOGGED, DROPPED, IGNORED, FULL = 0, 1, 2, 3  # the codes of pagelog.tracker.OBS_*
REFUSED = "refused"  # an event the model rules out; it changes nothing


class Buffer:
    """One vCPU's logging buffer, in ``mode`` "paml" or "pml"."""

    def __init__(self, mode, capacity, exit_cost_ns):
        self.mode, self.capacity, self.exit_cost_ns = mode, capacity, exit_cost_ns
        self.entries = []  # the open or held round, in log order
        self.index = capacity - 1
        self.held = False
        self.full_events = self.missed = self.logged = self.stall_ns = 0

    def walk(self, page, sets_dirty_flag):
        """The outcome of one walk to ``page``."""
        if self.mode == "pml" and not sets_dirty_flag:
            return IGNORED
        if self.held:
            if self.mode == "pml":
                return REFUSED  # the VM is stalled until the fold
            self.missed += 1
            return DROPPED
        if self.mode == "paml" and self.index == 0:
            self.held = True
            self.full_events += 1
            return FULL
        self.entries.append(page)
        self.logged += 1
        if self.index == 0:  # pml: the exit
            self.held = True
            self.full_events += 1
            self.stall_ns += self.exit_cost_ns
            return FULL
        self.index -= 1
        return LOGGED

    def fold(self):
        """The held round, taken by the handler."""
        if not self.held:
            return REFUSED
        self.held = False
        return self._take()

    def drain(self):
        """The open round; nothing while a round is held."""
        return [] if self.held else self._take()

    def _take(self):
        entries, self.entries = self.entries, []
        self.index = self.capacity - 1
        return entries

    def counters(self):
        """``(full events, missed walks, logged entries, VM stall ns)``."""
        return self.full_events, self.missed, self.logged, self.stall_ns
