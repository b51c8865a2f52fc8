"""Whole runs against the spec at the benchmark's sizes.

The three workloads of the benchmark, restated here at full size and seed
1: a paml RWRW run (102,400 accesses), a cold prefix and hot loop run in
both modes (64,000 accesses each) and a 4-vCPU pml replay (25,000 lines)
read back through a trace file; and a skewed 4-vCPU trace of 10^5 accesses
in both modes. The exhaustive spec tests stop at a few accesses; at these
sizes handler batches, full events and observations interleave thousands of
times, which is where a handler completion fired late or an observation
taken out of order shows.
"""

import dataclasses
import io

import numpy as np
import pytest

from helpers import assert_engine_matches_spec
from pagelog.estimator import EstimatorParams
from pagelog.mmu import TlbConfig
from pagelog.sim import parse_scenario_text
from pagelog.trace import Trace, generate, read_trace, write_trace
from pagelog.tracker import TrackingConfig, TrackingMode

PAML_RWRW = """\
workload.pattern = rwrw
workload.n_pages = 6400
workload.d_iters = 8
workload.seed = 1
workload.inter_access_gap_ns = 100
tracking.mode = paml
estimator.tau = 7
estimator.mu_s = 0.001408
estimator.omega_s = 0.005632
estimators = prl, vmware, oracle
vmware.sample_size = 1000
vmware.period_s = 0.000128
seed = 1
"""

COMPARE_HOTSET = """\
workload.pattern = rrww
workload.n_pages = 6400
workload.d_iters = 600
workload.hot_pages = 48
workload.cold_prefix = true
workload.seed = 1
workload.inter_access_gap_ns = 100
estimator.tau = 50
estimator.mu_s = 0.000192
estimator.omega_s = 0.000768
seed = 1
"""

REPLAY_4VCPU = """\
workload.trace = trace.csv
tracking.mode = pml
tracking.buffer_entries = 64
tracking.vmexit_cost_ns = 4000
estimator.tau = 8
estimator.mu_s = 4.1666e-05
estimator.omega_s = 0.000166664
estimators = pml, vmware, oracle
vm_pages = 3000
vmware.sample_size = 1000
vmware.period_s = 4.166e-06
seed = 1
"""


def replay_trace(seed=1, lines=25_000, hot=1_000, cold=2_000, vcpus=4):
    """Line ``i`` belongs to vCPU ``i % vcpus``, which sweeps a shared hot array
    from its own phase and, in the first half of its stream, touches its own
    part of a cold array once; half of the accesses are writes."""
    rng = np.random.default_rng(seed)
    per, cold_per = lines // vcpus, cold // vcpus
    streams = []
    for v in range(vcpus):
        is_cold = np.zeros(per, dtype=bool)
        is_cold[rng.choice(per // 2, size=cold_per, replace=False)] = True
        stream = np.empty(per, dtype=np.int64)
        stream[is_cold] = hot + v * cold_per + np.arange(cold_per)
        stream[~is_cold] = (np.arange(per - cold_per) + v * hot // vcpus) % hot
        streams.append(stream)
    gppn = np.stack(streams, axis=1).reshape(-1)
    n = len(gppn)
    return Trace(np.arange(n) * 25, np.tile(np.arange(vcpus), per), gppn,
                 rng.integers(0, 100, size=n) < 50)


def _runs(name):
    """``(trace, tracking)`` of each run of a workload, with its scenario."""
    if name == "replay_4vcpu":
        scenario = parse_scenario_text(REPLAY_4VCPU)
        written = io.BytesIO()
        write_trace(replay_trace(), written)
        written.seek(0)
        trace = read_trace(written)
        assert trace == replay_trace()
        return scenario, [(trace, scenario.tracking)]
    scenario = parse_scenario_text({"paml_rwrw": PAML_RWRW, "compare_hotset": COMPARE_HOTSET}[name])
    trace = generate(scenario.workload)
    if name == "paml_rwrw":
        return scenario, [(trace, scenario.tracking)]
    return scenario, [(trace, dataclasses.replace(scenario.tracking, mode=mode))
                      for mode in (TrackingMode.PAML, TrackingMode.PML)]


@pytest.mark.parametrize("name,accesses", [
    ("paml_rwrw", 102_400), ("compare_hotset", 64_000), ("replay_4vcpu", 25_000),
])
def test_bench_workloads_match_spec(name, accesses):
    scenario, runs = _runs(name)
    for trace, tracking in runs:
        assert len(trace) == accesses
        assert_engine_matches_spec(trace, tracking, scenario.tlb, scenario.estimator)


def zipf_trace(seed=1, n=100_000, vcpus=4, pages=3_000):
    """Pages drawn from Zipf(1.2), the tail past ``pages`` folded back onto
    them, on vCPUs drawn uniformly, 30% writes, one access every 25 ns."""
    rng = np.random.default_rng(seed)
    gppn = (rng.zipf(1.2, size=n) - 1) % pages
    return Trace(np.arange(n) * 25, rng.integers(0, vcpus, size=n), gppn, rng.random(n) < 0.3)


@pytest.mark.parametrize("mode", list(TrackingMode))
def test_zipf_trace_over_four_vcpus_matches_spec(mode):
    # A hot head of pages that stay resident and a long tail that keeps
    # walking: unlike the cyclic workloads, rounds mix reuses and first touches.
    trace = zipf_trace()
    assert len(trace.vcpu_ids()) == 4
    tracking = TrackingConfig(mode=mode, buffer_entries=64, handler_latency_per_entry_ns=20)
    assert_engine_matches_spec(trace, tracking, TlbConfig(), EstimatorParams(tau=4, mu_s=5e-5, omega_s=2e-4))
