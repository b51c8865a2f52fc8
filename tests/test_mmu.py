import numpy as np
import pytest

import spec
from helpers import small_traces
from pagelog.errors import ValidationError
from pagelog.mmu import MAX_VCPUS, TLB_HIT, TLB_WALK, TLB_WALK_DIRTY, Tlb, TlbConfig, walk_codes
from pagelog.trace import Trace

READ, WRITE = False, True


def test_first_touch_write_misses_and_sets_dirty():
    assert Tlb().lookup_raw(5, WRITE) == TLB_WALK_DIRTY


def test_repeat_access_hits():
    tlb = Tlb()
    assert tlb.lookup_raw(5, WRITE) == TLB_WALK_DIRTY
    assert tlb.lookup_raw(5, WRITE) == TLB_HIT
    assert tlb.lookup_raw(5, READ) == TLB_HIT


def test_lru_eviction_within_set():
    # Pages 1..65 on a 64-entry 4-way TLB: five of them land in page 1's set,
    # so page 1 is the LRU victim and re-accessing it misses.
    tlb = Tlb(TlbConfig(entries=64, ways=4))
    pages = [*range(1, 66), 1]
    codes = [tlb.lookup_raw(p, READ) for p in pages]
    assert codes == spec.walk_codes([(0, p, READ) for p in pages], 16, 4)
    assert codes[-1] == TLB_WALK


def test_lru_model_agreement_random():
    rng = np.random.default_rng(2)
    tlb = Tlb(TlbConfig(entries=16, ways=4))
    pages = [int(rng.integers(0, 40)) for _ in range(4000)]
    assert [tlb.lookup_raw(p, READ) for p in pages] == spec.walk_codes([(0, p, READ) for p in pages], 4, 4)


def test_write_to_clean_resident_page_walks():
    # A write must reach the page tables to set the dirty flag even when a
    # clean translation is resident; afterwards writes hit like reads.
    tlb = Tlb()
    assert tlb.lookup_raw(3, READ) == TLB_WALK
    assert tlb.lookup_raw(3, WRITE) == TLB_WALK_DIRTY
    assert tlb.lookup_raw(3, WRITE) == TLB_HIT


def test_dirty_persists_across_eviction():
    tlb = Tlb(TlbConfig(entries=4, ways=1))
    assert tlb.lookup_raw(0, WRITE) == TLB_WALK_DIRTY
    for p in range(4, 24, 4):  # same set as page 0, evicts it
        tlb.lookup_raw(p, READ)
    assert tlb.lookup_raw(0, WRITE) == TLB_WALK  # evicted, and the flag is still set


def test_capacity_and_partition_invariants():
    # Agreeing code for code with a spec whose sets never hold more than
    # `ways` pages means the TLB keeps to its capacity and its partition.
    tlb = Tlb(TlbConfig(entries=16, ways=4))
    rng = np.random.default_rng(7)
    accesses = [(0, int(rng.integers(0, 200)), bool(rng.integers(0, 2))) for _ in range(5000)]
    assert [tlb.lookup_raw(p, w) for _, p, w in accesses] == spec.walk_codes(accesses, 4, 4)


def test_dirty_set_once_per_page_between_clears():
    # Flags are never cleared, so a page takes at most one dirty walk over
    # the TLB's lifetime, and only writes take one.
    tlb = Tlb(TlbConfig(entries=8, ways=2))
    rng = np.random.default_rng(9)
    seen_dirty: set[int] = set()
    for i in range(3000):
        p = int(rng.integers(0, 30))
        is_write = bool(rng.integers(0, 2))
        if tlb.lookup_raw(p, is_write) == TLB_WALK_DIRTY:
            assert is_write and p not in seen_dirty
            seen_dirty.add(p)


def test_walk_event_invariant():
    # Only a write can set the dirty flag: reads never take a dirty walk.
    tlb = Tlb(TlbConfig(entries=8, ways=4))
    rng = np.random.default_rng(11)
    for _ in range(2000):
        assert tlb.lookup_raw(int(rng.integers(0, 25)), READ) in (TLB_HIT, TLB_WALK)
        tlb.lookup_raw(int(rng.integers(0, 25)), WRITE)


@pytest.mark.parametrize(
    "entries,ways,field",
    [(63, 4, "entries"), (2, 4, "entries"), (4, 0, "ways"), (131072, 4, "entries")],
)
def test_config_validation(entries, ways, field):
    with pytest.raises(ValidationError, match=field):
        Tlb(TlbConfig(entries=entries, ways=ways))


def test_sets_are_made_on_first_use():
    # A TLB holds only the sets its accesses touched, so its memory grows
    # with its vCPU's accesses, not with its geometry.
    tlb = Tlb(TlbConfig(entries=65536, ways=1))
    assert len(tlb._sets) == 0
    assert tlb.lookup_raw(65537, WRITE) == TLB_WALK_DIRTY
    assert list(tlb._sets) == [1]


def test_walk_codes_bounds_distinct_vcpus():
    def trace(n_vcpus):
        ids = np.arange(n_vcpus)
        return Trace(ids, ids, ids, np.zeros(n_vcpus, dtype=bool))

    assert walk_codes(trace(MAX_VCPUS), TlbConfig()).tolist() == [TLB_WALK] * MAX_VCPUS
    with pytest.raises(ValidationError, match=rf"^vcpu: {MAX_VCPUS + 1} distinct vCPU ids"):
        walk_codes(trace(MAX_VCPUS + 1), TlbConfig())


def test_walk_codes_match_spec_on_six_pages_in_one_two_way_set():
    # Every trace of up to 6 accesses over 6 pages of one 2-way set, with
    # writes, each trace on its own vCPU. A first write to a resident page
    # must leave it most recently used; random traces over many pages seldom
    # write to a resident page whose later order matters.
    cases = small_traces(6, 6, 1)
    assert len(cases) == 14946
    for lo in range(0, len(cases), MAX_VCPUS):
        accesses = [(k, p, w) for k, case in enumerate(cases[lo:lo + MAX_VCPUS]) for _, p, w in case]
        vcpu, gppn, is_write = (np.array(column) for column in zip(*accesses))
        trace = Trace(np.arange(len(accesses)), vcpu, gppn, is_write)
        got = walk_codes(trace, TlbConfig(entries=2, ways=2)).tolist()
        want = spec.walk_codes(accesses, 1, 2)
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"access {i}: code {got[i]}, spec {want[i]}, in {cases[lo + accesses[i][0]]}")
