import pytest

from pagelog.errors import ProtocolError
from pagelog.handler import CumulativeLog, batch_duration_ns, handle_full
from pagelog.tracker import OBS_FULL, Tracker, TrackingConfig, TrackingMode


def _full_tracker(pages, entries=4, latency=20, mode=TrackingMode.PAML):
    """Drive a tracker to its full event; it then holds its round."""
    tr = Tracker(
        TrackingConfig(mode=mode, buffer_entries=entries, handler_latency_per_entry_ns=latency)
    )
    outcomes = [tr.observe_raw(p, True) for p in pages]
    assert outcomes[-1] == OBS_FULL and tr.index < 0
    return tr


def test_counting_and_reset():
    tr = _full_tracker([5, 5, 9, 1])
    assert tr.round == [5, 5, 9]
    log = CumulativeLog(1)
    assert batch_duration_ns([tr]) == 3 * 20
    handle_full([tr], log)
    assert log.counts == {5: 2, 9: 1}
    assert tr.index == 3
    assert tr.round == []


def test_pml_round_folded_with_its_trigger():
    tr = _full_tracker([5, 6, 7, 8], mode=TrackingMode.PML)
    log = CumulativeLog(1)
    handle_full((tr,), log)
    assert log.counts == {5: 1, 6: 1, 7: 1, 8: 1}
    assert (tr.index, tr.round) == (3, [])


def test_two_vcpus_merged_in_one_invocation():
    tr_a = _full_tracker([1, 2, 3, 0])
    tr_b = _full_tracker([3, 3, 4, 0])
    log = CumulativeLog(1)
    assert batch_duration_ns([tr_a, tr_b]) == 6 * 20
    handle_full([tr_a, tr_b], log)
    assert log.counts == {1: 1, 2: 1, 3: 3, 4: 1}
    assert log.total == 6
    assert tr_a.index == 3 and tr_b.index == 3


def test_empty_event_list():
    log = CumulativeLog(1)
    assert batch_duration_ns([]) == 0
    handle_full([], log)
    assert log.total == 0 and log.counts == {}


def test_rejects_tracker_not_stopped():
    tr = Tracker(TrackingConfig(mode=TrackingMode.PAML, buffer_entries=4))
    tr.observe_raw(1, False)
    with pytest.raises(ProtocolError, match="no full event outstanding"):
        handle_full([tr], CumulativeLog(1))


def test_rejects_double_apply():
    # A folded round is gone with its reset: folding again is rejected.
    tr = _full_tracker([1, 2, 3, 0])
    log = CumulativeLog(1)
    handle_full([tr], log)
    with pytest.raises(ProtocolError, match="no full event outstanding"):
        handle_full([tr], log)
    assert log.total == 3


def test_rejects_duplicate_tracker_in_batch():
    tr = _full_tracker([1, 2, 3, 0])
    log = CumulativeLog(1)
    with pytest.raises(ProtocolError, match="listed twice"):
        handle_full([tr, tr], log)
    assert log.total == 0 and tr.index < 0  # nothing folded, round still held


def test_batching_equivalence():
    # k events in one invocation vs k invocations: identical counts.
    rounds = [(1, 2, 2), (2, 3, 4), (4, 4, 4)]

    def fresh():
        return [_full_tracker([*r, 0], latency=0) for r in rounds]

    batched = fresh()
    log_one = CumulativeLog(1)
    assert batch_duration_ns(batched) == 0
    handle_full(batched, log_one)

    split = fresh()
    log_many = CumulativeLog(1)
    for tr in split:
        handle_full([tr], log_many)

    assert log_one.counts == log_many.counts
    assert log_one.total == log_many.total == 9


def test_count_conservation_total():
    log = CumulativeLog(1)
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
    log.add_snapshot((8, 8, 8, 9))
    assert log.hot_count == 2


def test_hot_threshold_required_and_positive():
    with pytest.raises(TypeError):
        CumulativeLog()
    with pytest.raises(ProtocolError, match="hot_threshold"):
        CumulativeLog(0)
