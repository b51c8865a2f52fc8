import numpy as np
import pytest

from pagelog.errors import ProtocolError, ValidationError
from pagelog.tracker import (
    OBS_DROPPED,
    OBS_FULL,
    OBS_IGNORED,
    OBS_LOGGED,
    Tracker,
    TrackingConfig,
    TrackingMode,
)


def paml(entries=512, **kw):
    return Tracker(TrackingConfig(mode=TrackingMode.PAML, buffer_entries=entries, **kw))


def pml(entries=512, **kw):
    return Tracker(TrackingConfig(mode=TrackingMode.PML, buffer_entries=entries, **kw))


def test_pml_ignores_clean_walks():
    tr = pml()
    assert tr.observe_raw(9, False) == OBS_IGNORED
    assert tr.logged == 0


def test_paml_logs_read_walk_at_top_slot():
    tr = paml()
    assert tr.observe_raw(9, False) == OBS_LOGGED
    assert tr.round == [9]
    assert tr.index == 510


def test_paml_full_event_semantics():
    tr = paml(entries=8)
    for i in range(7):
        assert tr.observe_raw(100 + i, False) == OBS_LOGGED
    assert tr.index == 0
    assert tr.observe_raw(999, False) == OBS_FULL
    assert tr.index == -1
    assert tr.round == [100 + i for i in range(7)]  # 999 is not logged
    assert tr.missed_gpas == 0
    # next walk before reset is dropped and counted
    assert tr.observe_raw(55, False) == OBS_DROPPED
    assert tr.missed_gpas == 1
    assert tr.full_events == 1
    assert tr.round == [100 + i for i in range(7)]  # held until folded
    assert tr.drain_residual() == []


def test_reset_index_protocol():
    tr = paml(entries=8)
    for i in range(8):
        tr.observe_raw(i, False)
    assert tr.index == -1
    tr.reset_index()
    assert tr.index == 7
    assert tr.round == []
    with pytest.raises(ProtocolError, match="reset_index"):
        tr.reset_index()


def test_reset_index_default_size():
    tr = paml()
    for i in range(512):
        tr.observe_raw(i, False)
    assert tr.index == -1
    tr.reset_index()
    assert tr.index == 511


def test_fresh_tracker_stats_zero():
    tr = paml()
    assert (tr.full_events, tr.missed_gpas, tr.logged, tr.vm_stall_ns) == (0, 0, 0, 0)


def test_pml_full_round_of_512():
    tr = pml(vmexit_cost_ns=4000)
    outcomes = [tr.observe_raw(i, True) for i in range(512)]
    assert outcomes[:-1] == [OBS_LOGGED] * 511
    assert outcomes[-1] == OBS_FULL
    assert tr.round == list(range(512))  # log order, the trigger included
    assert tr.full_events == 1
    assert tr.logged == 512
    assert tr.vm_stall_ns == 4000
    assert tr.index == -1  # held: the VM stays stalled until the fold
    with pytest.raises(ProtocolError, match="round held"):
        tr.observe_raw(600, True)
    assert tr.observe_raw(600, False) == OBS_IGNORED
    tr.reset_index()
    assert (tr.index, tr.round) == (511, [])


def test_paml_round_logs_511():
    tr = paml()
    for i in range(511):
        assert tr.observe_raw(i, False) == OBS_LOGGED
    assert tr.observe_raw(511, False) == OBS_FULL
    assert tr.full_events == 1
    assert tr.logged == 511


def test_paml_conservation_random():
    rng = np.random.default_rng(3)
    for trial in range(20):
        entries = int(rng.choice([2, 3, 4, 8, 32]))
        tr = paml(entries=entries)
        walks = int(rng.integers(1, 400))
        fulls_seen = 0
        for i in range(walks):
            out = tr.observe_raw(int(rng.integers(0, 50)), False)
            if out == OBS_FULL:
                assert len(tr.round) == entries - 1
                fulls_seen += 1
            # reset with random delay: sometimes immediately, sometimes later
            if tr.index < 0 and rng.integers(0, 3) == 0:
                tr.reset_index()
            assert -1 <= tr.index <= entries - 1
        assert tr.logged + tr.missed_gpas + tr.full_events == walks
        assert tr.full_events == fulls_seen
        assert tr.vm_stall_ns == 0


def test_pml_log_set_subset_of_paml():
    # Same walk stream through both modes with immediate reset: the pages a
    # write-only tracker logs are a subset of the written pages and of what
    # the all-access tracker logs.
    rng = np.random.default_rng(5)
    stream = []
    dirty = set()
    for _ in range(2000):
        p = int(rng.integers(0, 64))
        w = bool(rng.integers(0, 2))
        ds = w and p not in dirty
        if ds:
            dirty.add(p)
        stream.append((p, ds, w))

    logged = {TrackingMode.PML: set(), TrackingMode.PAML: set()}
    for mode in (TrackingMode.PML, TrackingMode.PAML):
        tr = Tracker(TrackingConfig(mode=mode, buffer_entries=16))
        for p, ds, _w in stream:
            out = tr.observe_raw(p, ds)
            if out == OBS_FULL:
                logged[mode].update(tr.round)
                tr.reset_index()
        logged[mode].update(tr.drain_residual())

    written = {p for p, _ds, w in stream if w}
    assert logged[TrackingMode.PML] <= written
    assert logged[TrackingMode.PML] <= logged[TrackingMode.PAML]


def test_drain_residual():
    tr = paml(entries=8)
    for i in range(3):
        tr.observe_raw(10 + i, False)
    assert tr.drain_residual() == [10, 11, 12]
    assert tr.index == 7
    assert tr.drain_residual() == []


def test_parameterized_buffer_reset():
    tr = paml(entries=8)
    for i in range(8):
        tr.observe_raw(i, False)
    tr.reset_index()
    assert tr.index == 7


def test_config_validation():
    with pytest.raises(ValidationError, match="buffer_entries"):
        Tracker(TrackingConfig(buffer_entries=1))


def test_config_rejects_buffer_above_65536():
    # 10^9 entries used to pass validation.
    Tracker(TrackingConfig(buffer_entries=65536))
    with pytest.raises(ValidationError, match="buffer_entries"):
        Tracker(TrackingConfig(buffer_entries=65537))
