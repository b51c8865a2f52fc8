"""An independent statement of the whole run, in plain Python lists.

It shares no code with ``pagelog``. Each rule names its source: the Intel
SDM Vol. 3C definition of Page-Modification Logging (one 512-entry buffer
and one index per VMCS, the index counting down from 511, and an entry
logged when an EPT dirty flag goes from 0 to 1), the paper (PRL logs "both
read and write accesses" "without impacting user VMs"; PML "does not allow
accurate WSS estimation because read accesses are not tracked and hot pages
cannot be identified"), or, where neither fixes a detail, the README.

The walk stage. Each vCPU has its own TLB: ``n_sets`` sets of at most
``ways`` pages each, a page in set ``page % n_sets``, each set kept least
recently used first (README). Each vCPU also has its own dirty flags, which
are never cleared. A write to a page whose flag is clear walks to set it,
resident or not, since the flag lives in the EPT entry that the walk
reaches (SDM). Every other access hits when the page is resident and walks
when it is not. Each access leaves its page most recently used in its set,
and a walk into a full set first evicts the least recently used page.

The logging buffer. Each vCPU has its own buffer of ``capacity`` entries and
an index that counts down from ``capacity - 1`` (SDM: one per VMCS). The
entries logged since the last reset form the open round. paml logs every
walk, read or write (paper), while the index is above 0; at 0 the buffer is
full: the walk that finds it so is not logged, the round is held, and every
walk is dropped until the round is folded, while the VM keeps running
(paper: "without impacting user VMs"). pml ignores walks that set no dirty
flag and logs the others (SDM); the walk that finds the index at 0 is
logged, and the buffer then exits to the hypervisor, which stalls the VM for
the exit cost, so no walk comes while the round is held (README). A fold
takes a held round and resets the index; a drain takes the open round, and
nothing while a round is held, and resets the index too.

The run (``run``). A pml round is folded into the log at its exit. A held
paml round waits for the handler: an idle handler takes every pending round
as one batch, which ends ``latency_ns`` per entry later, and a batch ending
takes the rounds that came while it ran (README). Every ``mu_ns`` from the
first access the estimator observes the log: its hot pages, logged at least
``tau`` times, and its distinct pages (paper: hot pages need read accesses
logged). pml reads every open round first (flush-on-query), since one write
logs a page once (README). At one instant, accesses come first, then batch
ends, then observations. After the last access the handler finishes its
batches, every open round is drained, and one more observation is taken at
the last access's instant.
"""

from types import SimpleNamespace

HIT, WALK, DIRTY_WALK = 0, 1, 2  # the codes of pagelog.mmu.TLB_*


def walk_codes(accesses, n_sets, ways):
    """The code of each ``(vcpu, page, is_write)`` access, in order."""
    sets = {}  # (vcpu, set index) -> pages, least recently used first
    dirty = set()  # the dirty flags that are set
    codes = []
    for vcpu, page, is_write in accesses:
        lru = sets.setdefault((vcpu, page % n_sets), [])
        flag = (vcpu, page)  # each vCPU has its own dirty flags
        if is_write and flag not in dirty:
            dirty.add(flag)
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


def run(accesses, mode, n_sets, ways, capacity, exit_cost_ns, latency_ns, tau, mu_ns):
    """The run of ``(t, vcpu, page, is_write)`` accesses, in time order."""
    codes = walk_codes([access[1:] for access in accesses], n_sets, ways)
    buffers = {v: Buffer(mode, capacity, exit_cost_ns) for v in sorted({a[1] for a in accesses})}
    counts = {}  # page -> times logged
    pending, batch, done_at, busy_ns = [], None, None, 0
    observations, dropped = [], set()
    next_obs = (accesses[0][0] if accesses else 0) + mu_ns

    def log(entries):
        for page in entries:
            counts[page] = counts.get(page, 0) + 1

    def observe(t):
        observations.append((t, sum(c >= tau for c in counts.values()), len(counts)))

    def start_batch(now):
        nonlocal batch, done_at, busy_ns
        batch, pending[:] = pending[:], []
        duration = latency_ns * sum(len(buffers[v].entries) for v in batch)
        busy_ns += duration
        done_at = now + duration

    def end_batch():
        nonlocal batch
        for v in batch:
            log(buffers[v].fold())
        batch = None
        if pending:
            start_batch(done_at)

    def fire(now):
        """The batch ends and observations due strictly before ``now``."""
        nonlocal next_obs
        while True:
            if batch is not None and done_at < now and done_at <= next_obs:
                end_batch()
            elif next_obs < now:
                if mode == "pml":
                    for buffer in buffers.values():
                        log(buffer.drain())
                observe(next_obs)
                next_obs += mu_ns
            else:
                return

    for (t, v, page, _), code in zip(accesses, codes):
        fire(t)
        if code == HIT:
            continue
        outcome = buffers[v].walk(page, code == DIRTY_WALK)
        if outcome == DROPPED:
            dropped.add(page)
        elif outcome == FULL and mode == "pml":
            log(buffers[v].fold())
        elif outcome == FULL:
            pending.append(v)
            if batch is None:
                start_batch(t)
    if accesses:
        fire(accesses[-1][0] + 1)
    while batch is not None:
        end_batch()
    for buffer in buffers.values():
        log(buffer.drain())
    if accesses:
        observe(accesses[-1][0])
    return SimpleNamespace(
        codes=codes, walks=sum(code != HIT for code in codes),
        counters={v: buffer.counters() for v, buffer in buffers.items()},
        counts=counts, log_total=sum(counts.values()), handler_busy_ns=busy_ns,
        observations=observations, dropped_pages=dropped,
    )
