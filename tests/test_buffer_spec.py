"""One vCPU's logging buffer against the spec, over every short event sequence.

An event is a walk, a fold by the handler or a drain. Walks name their pages
by first occurrence, so sequences that differ only in page names run once.
"""

from types import SimpleNamespace

import pytest

import spec
from pagelog.errors import ProtocolError
from pagelog.handler import handle_full
from pagelog.tracker import Tracker, TrackingConfig, TrackingMode

EXIT_COST_NS = 7


def event_sequences(max_len, n_pages):
    """Every sequence of at most ``max_len`` events, shortest first, the empty one included."""
    found = []

    def extend(events, pages):
        found.append(events)
        if len(events) < max_len:
            for p in range(min(pages + 1, n_pages)):
                for dirty in (False, True):
                    extend(events + [("walk", p, dirty)], max(pages, p + 1))
            extend(events + [("fold",)], pages)
            extend(events + [("drain",)], pages)

    extend([], 0)
    return sorted(found, key=len)  # a failure names a shortest failing sequence


def engine_run(config, events):
    """Each event's outcome, and the counters, from ``Tracker`` and ``handle_full``."""
    tracker = Tracker(config)
    folded = []
    log = SimpleNamespace(add_snapshot=lambda entries: folded.append(list(entries)))
    outcomes = []
    for event in events:
        try:
            if event[0] == "walk":
                outcomes.append(tracker.observe_raw(event[1], event[2]))
            elif event[0] == "fold":
                handle_full((tracker,), log)
                outcomes.append(folded.pop())
            else:
                outcomes.append(tracker.drain_residual())
        except ProtocolError:
            outcomes.append(spec.REFUSED)
    return outcomes, (tracker.full_events, tracker.missed_gpas, tracker.logged, tracker.vm_stall_ns)


def spec_run(mode, capacity, events):
    buffer = spec.Buffer(mode, capacity, EXIT_COST_NS)
    outcomes = [buffer.walk(e[1], e[2]) if e[0] == "walk" else getattr(buffer, e[0])()
                for e in events]
    return outcomes, buffer.counters()


@pytest.mark.parametrize("mode", [TrackingMode.PAML, TrackingMode.PML])
@pytest.mark.parametrize("capacity", [2, 3])
def test_buffer_matches_spec_exhaustively(mode, capacity):
    cases = event_sequences(6, 2)
    assert len(cases) == 28057
    config = TrackingConfig(mode=mode, buffer_entries=capacity, vmexit_cost_ns=EXIT_COST_NS)
    for events in cases:
        got, want = engine_run(config, events), spec_run(mode.value, capacity, events)
        if got != want:
            pytest.fail(f"{events}: engine {got}, spec {want}")
