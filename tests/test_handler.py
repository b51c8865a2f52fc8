import pytest

from pagelog.errors import ProtocolError
from pagelog.handler import CumulativeLog, FullEvent, handle_full
from pagelog.tracker import OBS_FULL, Tracker, TrackingConfig, TrackingMode


def _full_tracker(pages, entries=4, latency=20):
    """Drive a PAML tracker to its full event; returns (tracker, snapshot)."""
    tr = Tracker(
        TrackingConfig(
            mode=TrackingMode.PAML, buffer_entries=entries, handler_latency_per_entry_ns=latency
        )
    )
    snap = None
    for p in pages:
        if tr.observe_raw(p, False) == OBS_FULL:
            snap = tr.take_full_snapshot()
    assert snap is not None and tr.index < 0
    return tr, snap


def test_counting_and_reset():
    tr, snap = _full_tracker([5, 5, 9, 1])
    assert snap == (5, 5, 9)
    log = CumulativeLog()
    dur = handle_full([FullEvent(0, snap)], log, {0: tr})
    assert log.counts == {5: 2, 9: 1}
    assert tr.index == 3
    assert dur == 3 * 20


def test_two_vcpus_merged_in_one_invocation():
    tr_a, snap_a = _full_tracker([1, 2, 3, 0])
    tr_b, snap_b = _full_tracker([3, 3, 4, 0])
    log = CumulativeLog()
    events = [FullEvent(0, snap_a), FullEvent(1, snap_b)]
    dur = handle_full(events, log, {0: tr_a, 1: tr_b})
    assert log.counts == {1: 1, 2: 1, 3: 3, 4: 1}
    assert log.total == 6
    assert dur == 6 * 20
    assert tr_a.index == 3 and tr_b.index == 3


def test_empty_event_list():
    log = CumulativeLog()
    assert handle_full([], log, {}) == 0
    assert log.total == 0 and log.counts == {}


def test_rejects_tracker_not_stopped():
    tr = Tracker(TrackingConfig(mode=TrackingMode.PAML, buffer_entries=4))
    with pytest.raises(ProtocolError, match="no full event outstanding"):
        handle_full([FullEvent(0, (1, 2, 3))], CumulativeLog(), {0: tr})


def test_rejects_double_apply():
    tr, snap = _full_tracker([1, 2, 3, 0])
    log = CumulativeLog()
    ev = FullEvent(0, snap)
    handle_full([ev], log, {0: tr})
    # force the stopped state again to isolate the idempotence guard
    for _ in range(4):
        tr.observe_raw(9, False)
    assert tr.index < 0
    with pytest.raises(ProtocolError, match="already applied"):
        handle_full([ev], log, {0: tr})


def test_rejects_duplicate_tracker_in_batch():
    tr, snap = _full_tracker([1, 2, 3, 0])
    events = [FullEvent(0, snap), FullEvent(0, snap[::-1])]
    with pytest.raises(ProtocolError, match="two snapshots"):
        handle_full(events, CumulativeLog(), {0: tr})


def test_batching_equivalence():
    # k events in one invocation vs k invocations: identical counts.
    snaps = [(1, 2, 2), (2, 3, 4), (4, 4, 4)]

    def fresh(n):
        out = []
        for i in range(n):
            tr, _ = _full_tracker([0, 0, 0, 0], latency=0)
            out.append(tr)
        return out

    batched = fresh(3)
    log_one = CumulativeLog()
    events = [FullEvent(v, s) for v, s in enumerate(snaps)]
    assert handle_full(events, log_one, dict(enumerate(batched))) == 0

    split = fresh(3)
    log_many = CumulativeLog()
    for v, s in enumerate(snaps):
        handle_full([FullEvent(v, s)], log_many, {v: split[v]})

    assert log_one.counts == log_many.counts
    assert log_one.total == log_many.total == 9


def test_count_conservation_total():
    log = CumulativeLog()
    log.add_snapshot((1, 1, 2))
    log.add_snapshot((2, 3))
    assert log.total == 5
    assert sum(log.counts.values()) == 5
    assert log.distinct_count == 3
    assert all(c >= 1 for c in log.counts.values())


def test_hot_count_tracks_threshold_crossings():
    log = CumulativeLog(hot_threshold=3)
    log.add_snapshot((7, 7))
    assert log.hot_count == 0
    log.add_snapshot((7,))
    assert log.hot_count == 1
    log.add_snapshot((7, 7))  # stays counted once
    assert log.hot_count == 1
    assert log.pages_with_at_least(3) == 1
    assert log.pages_with_at_least(5) == 1
    assert log.pages_with_at_least(6) == 0
