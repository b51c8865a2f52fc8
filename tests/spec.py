"""An independent statement of the hardware model, in plain Python lists.

It shares no code with ``pagelog``. Each vCPU has its own TLB: ``n_sets``
sets of at most ``ways`` pages each, a page in set ``page % n_sets``, each
set kept least recently used first. Each vCPU also has its own dirty flags,
which are never cleared. A write to a page whose flag is clear walks to set
it, resident or not. Every other access hits when the page is resident and
walks when it is not. Each access leaves its page most recently used in its
set, and a walk into a full set first evicts the least recently used page.
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
