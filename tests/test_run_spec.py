"""Whole runs against the spec, over every small timed trace.

Each trace names its pages and vCPUs by first occurrence and takes every
gap from ``GAPS`` between its accesses, so ties between accesses, batch ends
and observations all occur. It runs on a one-entry TLB, since
``test_walk_spec.py`` covers the TLB geometries, and under every setting of
a small grid. Traces run shortest first, so a failure names a shortest
failing case and its first differing field.
"""

import itertools

import numpy as np
import pytest

import spec
from helpers import fields, small_traces
from pagelog import mmu, sim
from pagelog.estimator import EstimatorParams
from pagelog.trace import Trace
from pagelog.tracker import TrackingConfig, TrackingMode

EXIT_COST_NS = 5
GAPS = (0, 1, 3)


def timed_traces(n_vcpus):
    """Every trace of 1-3 accesses over 3 pages that uses all ``n_vcpus`` vCPUs, with its times."""
    for accesses in sorted(small_traces(3, 3, n_vcpus), key=len):
        if len({v for v, _, _ in accesses}) == n_vcpus:
            for gaps in itertools.product(GAPS, repeat=len(accesses) - 1):
                yield [(t, *access) for t, access in zip(itertools.accumulate(gaps, initial=0), accesses)]


@pytest.mark.parametrize("n_vcpus,capacities,latencies,count", [
    (1, (2, 3), (0, 1, 2), 18528),
    (2, (2,), (0, 2), 17664),
])
def test_runs_match_spec_exhaustively(n_vcpus, capacities, latencies, count):
    settings = [(mode, capacity, latency, tau, mu)
                for mode in ("paml", "pml") for capacity in capacities for latency in latencies
                for tau in (1, 2) for mu in (1, 2)]
    engine_settings = [(TrackingConfig(TrackingMode(mode), capacity, EXIT_COST_NS, latency),
                        EstimatorParams(tau=tau, mu_s=mu / 1e9, omega_s=mu / 1e9))
                       for mode, capacity, latency, tau, mu in settings]
    cases = 0
    for accesses in timed_traces(n_vcpus):
        trace = Trace(*(np.array(column) for column in zip(*accesses)))
        codes = mmu.walk_codes(trace, mmu.TlbConfig(entries=1, ways=1))
        for (mode, capacity, latency, tau, mu), (tracking, params) in zip(settings, engine_settings):
            got = fields(codes, sim._simulate(trace, codes, tracking, params))
            want = vars(spec.run(accesses, mode, 1, 1, capacity, EXIT_COST_NS, latency, tau, mu))
            name = next((name for name in got if got[name] != want[name]), None)
            if name is not None:
                pytest.fail(f"{accesses}, {mode} capacity {capacity} latency {latency} tau {tau} "
                            f"mu {mu}: {name} engine {got[name]}, spec {want[name]}")
            cases += 1
    assert cases == count
