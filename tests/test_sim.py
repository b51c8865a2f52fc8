import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from helpers import assert_engine_matches_spec, fields, spec_run

from pagelog.errors import ValidationError
from pagelog.estimator import EstimatorParams, VmwareParams
from pagelog import sim
from pagelog import trace as trace_mod
from pagelog.mmu import TLB_HIT, TLB_WALK_DIRTY, Tlb, TlbConfig, walk_codes
from pagelog.sim import (
    ESTIMATOR_ORACLE,
    ESTIMATOR_PML,
    ESTIMATOR_PRL,
    ESTIMATOR_VMWARE,
    OBS_DTYPE,
    Scenario,
    _simulate,
    load_scenario,
    parse_scenario_text,
    report_to_json,
    run,
    run_paired,
)
from pagelog.tracker import Tracker, TrackingConfig, TrackingMode
from pagelog.trace import Pattern, Trace, WorkloadSpec, generate, write_trace_file

US = 1e-6
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def paml_scenario(workload, latency=2, buffer_entries=512, tau=50, mu_s=1e-3, omega_s=4e-3,
                  estimators=(ESTIMATOR_PRL, ESTIMATOR_ORACLE), **kw):
    return Scenario(
        workload=workload,
        tracking=TrackingConfig(mode=TrackingMode.PAML, buffer_entries=buffer_entries,
                                handler_latency_per_entry_ns=latency),
        estimator=EstimatorParams(tau=tau, mu_s=mu_s, omega_s=omega_s),
        estimators_enabled=frozenset(estimators),
        **kw,
    )


def test_run_is_deterministic():
    sc = paml_scenario(WorkloadSpec(n_pages=300, pattern=Pattern.RRWW, d_iters=20))
    a, b = run(sc), run(sc)
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
def test_report_to_json_is_the_indented_dump(chunk, monkeypatch):
    # report_to_json writes the observations from their columns; the text must
    # be that of the plain dump, early instants and chunk seams included.
    if chunk is not None:
        monkeypatch.setattr(trace_mod, "_CHUNK", chunk)
    sc = paml_scenario(WorkloadSpec(n_pages=300, pattern=Pattern.RRWW, d_iters=20), mu_s=2e-5)
    early = Trace(np.array([0, 100, 8000]), np.array([0, 1, 0]), np.array([1, 2, 3]),
                  np.array([True, False, True]))
    empty = Trace(*(np.zeros(0, dtype) for dtype in (np.int64, np.int32, np.int64, bool)))
    for report in (run(sc), run(sc, trace=early), run(sc, trace=empty)):
        assert report_to_json(report) == json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


def test_paml_never_stalls_the_vm():
    sc = paml_scenario(WorkloadSpec(n_pages=600, pattern=Pattern.WRITE_INTENSITY, wi=80, d_iters=8))
    rep = run(sc)
    assert rep.full_events > 0
    assert rep.vm_stall_ns == 0
    assert rep.overhead_percent == 0.0


def test_pml_read_only_workload_never_exits():
    sc = Scenario(
        workload=WorkloadSpec(n_pages=600, pattern=Pattern.WRITE_INTENSITY, wi=0, d_iters=8),
        tracking=TrackingConfig(mode=TrackingMode.PML),
        estimator=EstimatorParams(tau=1, mu_s=1e-4, omega_s=4e-4),
        estimators_enabled=frozenset({ESTIMATOR_ORACLE}),
    )
    rep = run(sc)
    assert rep.full_events == 0
    assert rep.overhead_percent == 0.0
    assert rep.logged == 0


def test_pml_overhead_accounting():
    wl = WorkloadSpec(n_pages=2048, pattern=Pattern.WRITE_INTENSITY, wi=100, d_iters=3)
    sc = Scenario(
        workload=wl,
        tracking=TrackingConfig(mode=TrackingMode.PML, vmexit_cost_ns=4000),
        estimator=EstimatorParams(),  # default 30 s interval: no observations
        estimators_enabled=frozenset({ESTIMATOR_ORACLE}),
    )
    rep = run(sc)
    assert rep.full_events == 4  # 2048 first-write walks / 512
    assert rep.vm_stall_ns == 4 * 4000
    assert rep.overhead_percent == pytest.approx(4 * 4000 / rep.span_ns * 100, abs=1e-12)
    assert rep.vm_effective_runtime_ns == rep.span_ns + 16000


def test_access_precedes_handler_completion_at_same_instant():
    # buffer of 2 entries, 100 ns/entry handling, 100 ns access gap: the round
    # is logged, full, dropped (the walk landing exactly at the completion
    # instant is processed first, so it is dropped), repeating.
    wl = WorkloadSpec(n_pages=300, pattern=Pattern.WRITE_INTENSITY, wi=0, d_iters=3,
                      inter_access_gap_ns=100)
    sc = paml_scenario(wl, latency=100, buffer_entries=2, tau=1)
    rep = run(sc)
    assert rep.walks == 900
    assert rep.logged == 300
    assert rep.full_events == 300
    assert rep.missed_gpas == 300


def test_conservation_and_final_drain():
    sc = paml_scenario(WorkloadSpec(n_pages=333, pattern=Pattern.WWRR, d_iters=7), latency=20,
                       buffer_entries=64)
    rep = run(sc)
    assert rep.logged + rep.missed_gpas + rep.full_events == rep.walks
    assert rep.log_total == rep.logged


def test_engine_matches_reference_composition():
    rng = np.random.default_rng(17)
    patterns = list(Pattern)
    geometries = [(4, 1), (16, 4), (64, 4), (8, 8)]
    for trial in range(25):
        n = int(rng.integers(1, 260))
        workload = WorkloadSpec(
            n_pages=n,
            pattern=patterns[trial % 4],
            d_iters=int(rng.integers(1, 6)),
            wi=int(rng.integers(0, 101)),
            hot_pages=int(rng.integers(1, n + 1)),
            cold_prefix=bool(rng.integers(0, 2)),
            seed=trial,
            inter_access_gap_ns=int(rng.choice([0, 1, 10, 100])),
        )
        tracking = TrackingConfig(
            mode=TrackingMode.PML if rng.integers(0, 2) else TrackingMode.PAML,
            buffer_entries=int(rng.choice([2, 4, 8, 32, 512])),
            handler_latency_per_entry_ns=int(rng.choice([0, 1, 20, 100])),
        )
        entries, ways = geometries[int(rng.integers(0, len(geometries)))]
        tlb = TlbConfig(entries=entries, ways=ways)
        trace = generate(workload)
        span = max(trace.span_ns, 7)
        mu_ns = max(1, span // 7)
        params = EstimatorParams(tau=int(rng.integers(1, 6)), mu_s=mu_ns / 1e9,
                                 omega_s=3 * mu_ns / 1e9)
        assert_engine_matches_spec(trace, tracking, tlb, params)


@st.composite
def multi_vcpu_runs(draw):
    """A random 1-4-vCPU trace with sparse vCPU ids up to the int32 edge, plus engine settings."""
    vcpu_ids = draw(st.lists(st.integers(0, 1000) | st.just(2**31 - 1), min_size=1, max_size=4,
                             unique=True))
    n = draw(st.integers(1, 300))
    n_pages = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.sampled_from([0, 1, 10, 100]), min_size=n, max_size=n))
    vcpu = draw(st.lists(st.sampled_from(vcpu_ids), min_size=n, max_size=n))
    gppn = draw(st.lists(st.integers(0, n_pages - 1), min_size=n, max_size=n))
    is_write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    trace = Trace(np.cumsum(gaps), np.array(vcpu), np.array(gppn), np.array(is_write))
    tracking = TrackingConfig(
        mode=draw(st.sampled_from([TrackingMode.PML, TrackingMode.PAML])),
        buffer_entries=draw(st.sampled_from([2, 4, 8, 32, 512])),
        handler_latency_per_entry_ns=draw(st.sampled_from([0, 1, 20, 100])),
    )
    entries, ways = draw(st.sampled_from([(4, 1), (16, 4), (64, 4), (8, 8)]))
    mu_ns = max(1, max(trace.span_ns, 7) // 7)
    params = EstimatorParams(tau=draw(st.integers(1, 5)), mu_s=mu_ns / 1e9,
                             omega_s=3 * mu_ns / 1e9)
    return trace, tracking, TlbConfig(entries=entries, ways=ways), params


# Three vCPUs fill their buffers at one instant, so two rounds are pending
# when the first batch ends: the next batch must take both.
THREE_PENDING = (
    Trace(np.array([0, 0, 0, 0, 0, 0, 4]), np.array([0, 0, 1, 1, 2, 2, 0]), np.arange(7),
          np.zeros(7, dtype=bool)),
    TrackingConfig(mode=TrackingMode.PAML, buffer_entries=2, handler_latency_per_entry_ns=1),
    TlbConfig(entries=4, ways=1),
    EstimatorParams(tau=1, mu_s=1e-9, omega_s=1e-9),
)


@settings(max_examples=150, deadline=None)
@given(multi_vcpu_runs())
@example(THREE_PENDING)
def test_multi_vcpu_engine_matches_reference(case):
    assert_engine_matches_spec(*case)


@settings(max_examples=100, deadline=None)
@given(multi_vcpu_runs(), st.sampled_from([1, 3, 7]))
def test_chunk_seams_match_reference(case, chunk):
    # Both stages work on chunks of the trace. The TLBs and the event loop's
    # state must carry across every seam, so tiny chunks put many seams
    # between a page's accesses and between a round's entries.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_mod, "_CHUNK", chunk)
        assert_engine_matches_spec(*case)


@settings(max_examples=150, deadline=None)
@given(multi_vcpu_runs())
def test_conservation_laws_of_both_modes(case):
    trace, tracking, tlb, params = case
    out = _simulate(trace, walk_codes(trace, tlb), tracking, params)
    trackers = out.trackers.values()
    full_events, missed_gpas, logged = (sum(getattr(t, name) for t in trackers)
                                        for name in ("full_events", "missed_gpas", "logged"))
    assert out.log.total == logged
    if tracking.mode is TrackingMode.PAML:
        assert out.walks == logged + full_events + missed_gpas
        assert all(t.vm_stall_ns == 0 for t in trackers)
        # Every held round has capacity - 1 entries, and a batch folds each one.
        assert out.handler_busy_ns == (full_events * (tracking.buffer_entries - 1)
                                       * tracking.handler_latency_per_entry_ns)
    else:
        # Dirty flags are never cleared and each vCPU's TLB keeps its own.
        written = {(v, g) for v, g, w in zip(trace.vcpu.tolist(), trace.gppn.tolist(),
                                             trace.is_write.tolist()) if w}
        assert logged == len(written)
        for t in trackers:
            # <=, not ==: every observation drains partial buffers (flush-on-query).
            assert t.full_events <= t.logged // tracking.buffer_entries
            assert t.vm_stall_ns == t.full_events * tracking.vmexit_cost_ns
            assert t.missed_gpas == 0
        assert out.handler_busy_ns == 0


def _in_both_modes(case):
    """The engine fields of ``case`` run in each tracking mode."""
    trace, tracking, tlb, params = case
    codes = walk_codes(trace, tlb)
    return [fields(codes, _simulate(trace, codes, dataclasses.replace(tracking, mode=mode), params))
            for mode in TrackingMode]


def _native_reports(trace, tracking, tlb, params):
    """The JSON reports of ``trace`` in each mode, with that mode's estimator and the oracle."""
    return [report_to_json(run(Scenario(
        workload=WorkloadSpec(n_pages=80, pattern=Pattern.RWRW),
        tracking=dataclasses.replace(tracking, mode=mode), tlb=tlb, estimator=params,
        estimators_enabled=frozenset({native, ESTIMATOR_ORACLE})), trace=trace))
        for mode, (native, _) in sim.NATIVE.items()]


@settings(max_examples=100, deadline=None)
@given(multi_vcpu_runs(), st.data())
def test_shifting_the_clock_shifts_only_the_observation_instants(case, data):
    # Metamorphic: the engine reads only differences of timestamps, so a
    # trace shifted in time, up to its last access at 2^63-1 ns, gives the
    # same run at shifted instants. A handler batch may then end past 2^63-1.
    trace, *config = case
    limit = 2**63 - 1 - int(trace.t[-1])
    shift = data.draw(st.integers(0, limit) | st.just(limit), label="shift")
    shifted = Trace(trace.t + shift, trace.vcpu, trace.gppn, trace.is_write)
    for want, got in zip(_in_both_modes(case), _in_both_modes((shifted, *config))):
        want["observations"] = [(t + shift, *rest) for t, *rest in want["observations"]]
        assert got == want


@settings(max_examples=100, deadline=None)
@given(multi_vcpu_runs(), st.randoms(use_true_random=False))
def test_relabelling_vcpus_permutes_only_their_counters(case, rnd):
    # Metamorphic: vCPU ids only name TLBs and buffers. A bijection onto new
    # ids, up to the int32 edge, permutes the per-vCPU counters and leaves
    # every report field as it was.
    trace, *config = case
    old = trace.vcpu_ids()
    new = rnd.sample([*range(1001), 2**31 - 1], len(old))
    relabel = dict(zip(old, new))
    relabelled = Trace(trace.t, np.array([relabel[v] for v in trace.vcpu.tolist()]), trace.gppn,
                       trace.is_write)
    for want, got in zip(_in_both_modes(case), _in_both_modes((relabelled, *config))):
        want["counters"] = {relabel[v]: c for v, c in want["counters"].items()}
        assert got == want
    assert _native_reports(relabelled, *config) == _native_reports(trace, *config)


@settings(max_examples=100, deadline=None)
@given(multi_vcpu_runs(), st.randoms(use_true_random=False))
def test_relabelling_pages_within_their_sets_renames_only_the_log_counts(case, rnd):
    # Metamorphic: a page number only picks the page's TLB set and names its
    # log entry. A bijection that keeps each page's set (pi(g) = g mod n_sets)
    # on the pages up to the highest touched one renames the log's counts and
    # leaves every other field, and the prl, pml and oracle estimates, as they
    # were. vmware samples page numbers, so it is left out.
    trace, *config = case
    n_sets = config[1].n_sets
    perm = np.arange(trace.max_gppn + 1)
    for r in range(n_sets):
        perm[r::n_sets] = rnd.sample(perm[r::n_sets].tolist(), len(perm[r::n_sets]))
    relabelled = Trace(trace.t, trace.vcpu, perm[trace.gppn], trace.is_write)
    for want, got in zip(_in_both_modes(case), _in_both_modes((relabelled, *config))):
        want["counts"] = {int(perm[g]): c for g, c in want["counts"].items()}
        assert got == want
    assert _native_reports(relabelled, *config) == _native_reports(trace, *config)


@pytest.mark.parametrize("chunk", [3, trace_mod._CHUNK])
@pytest.mark.parametrize("mode", list(TrackingMode))
def test_engine_makes_the_per_access_calls_the_benchmark_counts(mode, chunk, monkeypatch):
    # README "Performance": the benchmark's tracer counts Tlb.lookup_raw and
    # Tracker.observe_raw calls, so the engine must make one lookup per access
    # and one observe call per walk its mode logs. Counted here with wrappers
    # like the tracer's, in case the engine bypasses a hooked method.
    monkeypatch.setattr(trace_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    n = 400
    trace = Trace(np.arange(n) * 10, rng.integers(0, 2, n), rng.integers(0, 60, n), rng.random(n) < 0.5)
    calls = Counter()

    def counting(name, method):
        def wrapped(obj, a, b):
            calls[name] += 1
            return method(obj, a, b)
        return wrapped

    monkeypatch.setattr(Tlb, "lookup_raw", counting("lookup_raw", Tlb.lookup_raw))
    monkeypatch.setattr(Tracker, "observe_raw", counting("observe_raw", Tracker.observe_raw))
    codes = walk_codes(trace, TlbConfig(entries=16, ways=4))
    assert calls["lookup_raw"] == n
    tracking = TrackingConfig(mode=mode, buffer_entries=4, handler_latency_per_entry_ns=20)
    out = _simulate(trace, codes, tracking, EstimatorParams(tau=2, mu_s=5e-7, omega_s=2e-6))
    logged_walks = codes == TLB_WALK_DIRTY if mode is TrackingMode.PML else codes != TLB_HIT
    assert calls["observe_raw"] == np.count_nonzero(logged_walks)
    assert sum(t.full_events for t in out.trackers.values()) > 1  # full rounds reach the handler


def test_pml_observations_drain_only_trackers_fed_since_the_last(monkeypatch):
    # 256 vCPUs write once each over 10,000 observations. Flush-on-query used
    # to drain every tracker at every observation: 2,560,256 calls.
    n = 256
    trace = Trace(np.arange(n) * 39_216, np.arange(n), np.arange(n), np.ones(n, dtype=bool))
    calls = []
    drain = Tracker.drain_residual
    monkeypatch.setattr(Tracker, "drain_residual", lambda tracker: calls.append(1) or drain(tracker))
    out = _simulate(trace, walk_codes(trace, TlbConfig()), TrackingConfig(mode=TrackingMode.PML),
                    EstimatorParams(tau=1, mu_s=1e-6, omega_s=4e-6))
    assert len(out.observations) == 10_001
    assert len(calls) <= 2 * n
    # Each observation still sees every write made by its instant.
    assert out.observations.distinct_pages.tolist() == np.searchsorted(
        trace.t, out.observations.t_ns, side="right").tolist()


def test_dropped_hot_pages_reappear_with_enough_repetition():
    # Stationary cyclic workload with a deliberately slow handler: pages are
    # dropped while the buffer is stopped yet still cross the hot threshold.
    wl = WorkloadSpec(n_pages=200, pattern=Pattern.RRWW, d_iters=50, inter_access_gap_ns=100)
    tracking = TrackingConfig(mode=TrackingMode.PAML, buffer_entries=64,
                              handler_latency_per_entry_ns=50)
    params = EstimatorParams(tau=50, mu_s=1e-3, omega_s=4e-3)
    trace = generate(wl)
    ref = spec_run(trace, tracking, TlbConfig(), params)
    assert ref.counters[0][1] > 0  # missed walks
    assert len(ref.dropped_pages) > 0
    for page in ref.dropped_pages:
        assert ref.counts[page] >= params.tau


def test_prl_equals_walk_oracle_when_nothing_is_missed():
    # No handler latency: nothing dropped; every page's walk count crosses tau,
    # so the converged estimate equals an oracle over walk events.
    wl = WorkloadSpec(n_pages=200, pattern=Pattern.RRWW, d_iters=55, inter_access_gap_ns=100)
    pass_s = 400 * 100e-9
    sc = paml_scenario(wl, latency=0, mu_s=6 * pass_s, omega_s=24 * pass_s)
    rep = run(sc)
    assert rep.missed_gpas == 0

    trace = generate(wl)
    codes = spec_run(trace, sc.tracking, sc.tlb, sc.estimator).codes
    walk_counts = Counter(g for g, code in zip(trace.gppn.tolist(), codes) if code != spec.HIT)
    walk_oracle = sum(1 for c in walk_counts.values() if c >= 50)

    est = rep.estimates[ESTIMATOR_PRL]
    assert est.converged
    assert est.wss_pages == walk_oracle == 200


def test_multi_vcpu_trace_merges_into_one_log():
    # Two vCPUs with disjoint page ranges; full events from both flow into a
    # single per-VM cumulative log.
    per = 600
    t = np.arange(2 * per, dtype=np.int64) * 50
    vcpu = np.tile(np.array([0, 1], dtype=np.int32), per)
    gppn = np.empty(2 * per, dtype=np.int64)
    gppn[0::2] = np.arange(per) % 100
    gppn[1::2] = 1000 + (np.arange(per) % 100)
    trace = Trace(t, vcpu, gppn, np.zeros(2 * per, dtype=bool), ground_truth_wss_pages=200)

    tracking = TrackingConfig(mode=TrackingMode.PAML, buffer_entries=32,
                              handler_latency_per_entry_ns=5)
    params = EstimatorParams(tau=2, mu_s=1e-5, omega_s=4e-5)
    sc = Scenario(workload=WorkloadSpec(n_pages=2000, pattern=Pattern.RWRW),
                  tracking=tracking, estimator=params,
                  estimators_enabled=frozenset({ESTIMATOR_PRL}), vm_pages=2000)
    rep = run(sc, trace=trace)
    assert rep.walks > 0
    assert rep.logged + rep.missed_gpas + rep.full_events == rep.walks
    assert rep.log_distinct == 200
    ref = spec_run(trace, tracking, TlbConfig(), params)
    summed = tuple(map(sum, zip(*ref.counters.values())))
    assert summed == (rep.full_events, rep.missed_gpas, rep.logged, rep.vm_stall_ns)


def test_oracle_and_vmware_alone_agree_in_both_modes():
    # What an off run reported: with no native estimator, vmware runs to the
    # last access, and neither estimate depends on the logging mode.
    reports = [run(Scenario(
        workload=WorkloadSpec(n_pages=100, pattern=Pattern.RWRW, d_iters=2),
        tracking=TrackingConfig(mode=mode),
        estimator=EstimatorParams(tau=4, mu_s=1e-5, omega_s=4e-5),
        estimators_enabled=frozenset({ESTIMATOR_ORACLE, ESTIMATOR_VMWARE}),
        vmware=VmwareParams(sample_size=10, period_s=2e-6),
    )) for mode in (TrackingMode.PML, TrackingMode.PAML)]
    assert reports[0].estimates == reports[1].estimates
    assert reports[0].estimates[ESTIMATOR_ORACLE].wss_pages == 100
    assert len(reports[0].estimates[ESTIMATOR_VMWARE].observations) == reports[0].span_ns // 2000


def test_estimator_requires_matching_mode():
    wl = WorkloadSpec(n_pages=10, pattern=Pattern.RWRW)
    with pytest.raises(ValidationError, match="prl requires"):
        run(Scenario(workload=wl, tracking=TrackingConfig(mode=TrackingMode.PML),
                     estimators_enabled=frozenset({ESTIMATOR_PRL})))
    with pytest.raises(ValidationError, match="pml requires"):
        run(Scenario(workload=wl, tracking=TrackingConfig(mode=TrackingMode.PAML),
                     estimators_enabled=frozenset({ESTIMATOR_PML})))


def test_vm_pages_bounds_trace():
    sc = paml_scenario(WorkloadSpec(n_pages=100, pattern=Pattern.RWRW), vm_pages=50)
    with pytest.raises(ValidationError, match="vm_pages"):
        run(sc)


def test_run_paired_rows():
    # 600 pages so the first write pass overflows a 512-entry buffer.
    wl = WorkloadSpec(n_pages=600, pattern=Pattern.RWRW, d_iters=100, inter_access_gap_ns=100)
    pass_s = 1200 * 100e-9
    sc = paml_scenario(wl, latency=1, mu_s=11 * pass_s, omega_s=44 * pass_s, tau=50)
    cmp = run_paired(sc)
    names = [r.estimator for r in cmp.rows]
    assert names == [ESTIMATOR_PRL, ESTIMATOR_PML, ESTIMATOR_VMWARE, ESTIMATOR_ORACLE]
    by_name = {r.estimator: r for r in cmp.rows}
    assert by_name[ESTIMATOR_ORACLE].error_pages == 0
    assert by_name[ESTIMATOR_PRL].error_pages <= 1
    assert by_name[ESTIMATOR_PML].error_pages <= 1  # every page is written
    assert by_name[ESTIMATOR_PRL].overhead_percent == 0.0
    assert by_name[ESTIMATOR_PML].overhead_percent > 0.0


def test_run_paired_on_read_phase_prefix():
    # A workload cut during its opening read phase: write-only logging has
    # seen nothing while all-access logging has already covered the array.
    # With the hot threshold at 1 the offline oracle equals the touched set.
    full = generate(WorkloadSpec(n_pages=800, pattern=Pattern.RRWW, d_iters=1))
    cut = 800 // 2  # halfway through the read pass
    fragment = Trace(full.t[:cut].copy(), full.vcpu[:cut].copy(),
                     full.gppn[:cut].copy(), full.is_write[:cut].copy(),
                     ground_truth_wss_pages=cut)
    # The stability window exceeds the fragment: mid-phase measurement, the
    # loop cannot have converged yet and reports the current (closing) count.
    mu_ns = 2 * fragment.span_ns
    sc = paml_scenario(WorkloadSpec(n_pages=800, pattern=Pattern.RRWW, d_iters=1),
                       tau=1, mu_s=mu_ns / 1e9, omega_s=4 * mu_ns / 1e9)
    cmp = run_paired(sc, trace=fragment)
    by_name = {r.estimator: r for r in cmp.rows}
    assert by_name[ESTIMATOR_ORACLE].wss_pages == cut
    assert by_name[ESTIMATOR_PML].wss_pages == 0
    assert by_name[ESTIMATOR_PML].error_pages == cut  # 100% of the touched set
    assert by_name[ESTIMATOR_PRL].error_pages == 0


def test_overhead_zero_iff_paml_or_no_fulls():
    wl = WorkloadSpec(n_pages=2048, pattern=Pattern.WRITE_INTENSITY, wi=100, d_iters=2)
    paml = paml_scenario(wl, estimators=(ESTIMATOR_ORACLE,), tau=1)
    pml_sc = Scenario(workload=wl, tracking=TrackingConfig(mode=TrackingMode.PML),
                      estimators_enabled=frozenset({ESTIMATOR_ORACLE}))
    rep_paml, rep_pml = run(paml), run(pml_sc)
    assert rep_paml.full_events > 0 and rep_paml.overhead_percent == 0.0
    assert rep_pml.full_events > 0 and rep_pml.overhead_percent > 0.0


# -- scenario files -----------------------------------------------------------


FULL_SCENARIO = """
# comment line
workload.pattern = rrww
workload.n_pages = 256
workload.d_iters = 4
workload.cold_prefix = true
workload.hot_pages = 64
workload.inter_access_gap_ns = 50
workload.seed = 9

tracking.mode = paml
tracking.buffer_entries = 128
tracking.vmexit_cost_ns = 5000
tracking.handler_latency_per_entry_ns = 3

tlb.entries = 32
tlb.ways = 2

estimator.tau = 8
estimator.mu_s = 0.0001
estimator.omega_s = 0.0004
estimator.epsilon_bytes = 2048

estimators = prl, oracle, vmware
vm_pages = 512
vmware.sample_size = 50
vmware.period_s = 0.0002
seed = 21
"""


def test_parse_full_scenario():
    sc = parse_scenario_text(FULL_SCENARIO, name="demo")
    assert sc.name == "demo"
    assert sc.workload.pattern is Pattern.RRWW
    assert sc.workload.cold_prefix and sc.workload.hot_pages == 64
    assert sc.workload.seed == 9
    assert sc.tracking.buffer_entries == 128
    assert sc.tlb.entries == 32 and sc.tlb.ways == 2
    assert sc.estimator.tau == 8 and sc.estimator.epsilon_bytes == 2048
    assert sc.estimators_enabled == {ESTIMATOR_PRL, ESTIMATOR_ORACLE, ESTIMATOR_VMWARE}
    assert sc.vm_pages == 512
    assert sc.vmware == VmwareParams(sample_size=50, period_s=0.0002)
    assert sc.seed == 21
    run(sc)  # parses into something executable


def test_parse_defaults_and_seed_flows_to_workload():
    sc = parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = 8\nseed = 5\n")
    assert sc.workload.seed == 5
    assert sc.tracking.mode is TrackingMode.PAML
    assert sc.estimators_enabled == {ESTIMATOR_PRL, ESTIMATOR_ORACLE}
    assert sc.estimator.tau == 50 and sc.estimator.mu_s == 30.0


def test_minimal_scenario_takes_dataclass_defaults():
    sc = parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = 8\n")
    assert sc.workload == WorkloadSpec(n_pages=8, pattern=Pattern.RWRW)
    assert sc.tracking == TrackingConfig()
    assert sc.tlb == TlbConfig()
    assert sc.estimator == EstimatorParams()
    assert sc.vmware == VmwareParams()


SECTIONS = {"workload": WorkloadSpec, "tracking": TrackingConfig, "tlb": TlbConfig,
            "estimator": EstimatorParams, "vmware": VmwareParams}


@pytest.mark.parametrize(
    "section,f",
    [(section, f) for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)],
    ids=lambda x: getattr(x, "name", x),
)
def test_every_section_field_is_a_scenario_key(section, f):
    kv = {"workload.pattern": "rwrw", "workload.n_pages": "8"}
    if f.default is None:  # workload.hot_pages
        kv[f"{section}.{f.name}"], want = "8", 8
    elif f.default is not dataclasses.MISSING:
        want = f.default
        kv[f"{section}.{f.name}"] = str(getattr(want, "value", want))
    sc = parse_scenario_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    if f.default is not dataclasses.MISSING:
        assert getattr(getattr(sc, section), f.name) == want


@pytest.mark.parametrize("key", ["tlb.entries", "tracking.buffer_entries"])
def test_parse_rejects_sizes_above_65536(key):
    # Both are allocated up front; 10^9 entries used to pass validation.
    text = f"workload.pattern = rwrw\nworkload.n_pages = 8\n{key} = 131072\n"
    with pytest.raises(ValidationError, match=key.split(".")[1]):
        parse_scenario_text(text)


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError, match="unknown scenario key"):
        parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = 8\nbogus = 1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_scenario_text("seed = 1\nseed = 2\n")


def test_parse_requires_exactly_one_workload_source(tmp_path):
    with pytest.raises(ValidationError, match="workload"):
        parse_scenario_text("tracking.mode = paml\n")
    with pytest.raises(ValidationError, match="not allowed together"):
        parse_scenario_text("workload.trace = t.csv\nworkload.n_pages = 8\n")


def test_parse_trace_path_resolved_and_loaded(tmp_path):
    from pagelog.trace import write_trace_file

    trace = generate(WorkloadSpec(n_pages=40, pattern=Pattern.RWRW, d_iters=3))
    write_trace_file(trace, tmp_path / "w.csv")
    text = "workload.trace = w.csv\nestimator.tau = 2\nestimator.mu_s = 1e-6\nestimator.omega_s = 4e-6\n"
    sc = parse_scenario_text(text, base_dir=tmp_path)
    rep = run(sc)
    assert rep.trace_len == len(trace)
    assert rep.ground_truth_wss_pages == 40
    assert rep.allocated_pages == 40  # max gppn + 1


@pytest.mark.parametrize("value", ["1e-10", "0", "nan", "inf"])
def test_parse_rejects_vmware_period_below_1ns(value):
    # A period that rounds to 0 ns used to hang estimate_vmware; it is now
    # rejected even when the vmware estimator is not enabled.
    text = f"workload.pattern = rwrw\nworkload.n_pages = 8\nvmware.period_s = {value}\n"
    with pytest.raises(ValidationError, match="period_s"):
        parse_scenario_text(text)


def test_parse_rejects_vmware_sample_size_below_1():
    text = "workload.pattern = rwrw\nworkload.n_pages = 8\nvmware.sample_size = 0\n"
    with pytest.raises(ValidationError, match="sample_size"):
        parse_scenario_text(text)


@pytest.mark.parametrize("line,key", [
    ("seed = -1", "seed"),
    ("workload.seed = -5", "workload.seed"),
    ("vm_pages = 9223372036854775808", "vm_pages"),
    ("vmware.sample_size = 32769", "vmware.sample_size"),
])
def test_parse_rejects_values_the_run_cannot_take(line, key):
    # Each used to pass validation and end the run in a numpy error: a
    # negative seed in default_rng, 2^63 pages in rng.choice, and 2^15 + 1
    # samples a period beyond the block budget of the vmware baseline.
    text = f"workload.pattern = wi\nworkload.n_pages = 8\nestimators = vmware\n{line}\n"
    with pytest.raises(ValidationError, match=rf"^{key}: "):
        parse_scenario_text(text)


def test_parse_bad_values():
    with pytest.raises(ValidationError, match="tracking.mode|mode"):
        parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = 8\ntracking.mode = turbo\n")
    # A third mode, off, used to skip the walk stage and the event loop.
    with pytest.raises(ValidationError, match=r"^mode: unknown mode 'off' \(expected one of pml, paml\)$"):
        parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = 8\ntracking.mode = off\n")
    with pytest.raises(ValidationError, match="boolean"):
        parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = 8\nworkload.cold_prefix = maybe\n")
    with pytest.raises(ValidationError, match="integer"):
        parse_scenario_text("workload.pattern = rwrw\nworkload.n_pages = eight\n")


def test_clock_starts_at_first_access():
    # The same trace shifted to start at t = 1 s reports the same results at
    # shifted instants. The observation clock and the vmware periods used to
    # start at t = 0: 100,001 observations, prl converged at 0 pages before
    # the first access, and vmware sampled 25 periods that held no access.
    n, t0 = 100, 10**9
    base = Trace(np.arange(n) * 1000, np.zeros(n), np.arange(n) % 20, np.arange(n) % 3 == 0)
    shifted = Trace(base.t + t0, base.vcpu, base.gppn, base.is_write)
    sc = Scenario(
        workload=WorkloadSpec(n_pages=20, pattern=Pattern.RWRW),
        tracking=TrackingConfig(mode=TrackingMode.PAML, buffer_entries=8),
        tlb=TlbConfig(entries=4, ways=1),
        estimator=EstimatorParams(tau=2, mu_s=1e-5, omega_s=4e-5),
        estimators_enabled=frozenset({ESTIMATOR_PRL, ESTIMATOR_VMWARE, ESTIMATOR_ORACLE}),
        vm_pages=20, vmware=VmwareParams(sample_size=5, period_s=2e-6),
    )
    a, b = run(sc, trace=base), run(sc, trace=shifted)
    assert len(a.observations) == len(b.observations) == 10
    assert [(o.t_ns - t0, o.hot_pages, o.distinct_pages) for o in b.observations] == [
        (o.t_ns, o.hot_pages, o.distinct_pages) for o in a.observations]
    assert b.estimates == a.estimates
    assert a.estimates[ESTIMATOR_PRL].wss_pages > 0


@pytest.mark.parametrize("mode,native", [(TrackingMode.PAML, ESTIMATOR_PRL),
                                         (TrackingMode.PML, ESTIMATOR_PML)])
def test_run_over_full_int64_span(mode, native):
    # An access past 2^62 ns used to make the event loop fold the handler
    # batch of an idle handler, and end in a TypeError.
    trace = Trace(np.array([0, 2**63 - 1]), np.zeros(2), np.array([1, 2]), np.ones(2, dtype=bool))
    sc = Scenario(
        workload=WorkloadSpec(n_pages=3, pattern=Pattern.RWRW),
        tracking=TrackingConfig(mode=mode, buffer_entries=2),
        estimator=EstimatorParams(tau=1, mu_s=1e4, omega_s=4e4),
        estimators_enabled=frozenset({native, ESTIMATOR_VMWARE, ESTIMATOR_ORACLE}),
        vmware=VmwareParams(sample_size=2),
    )
    rep = run(sc, trace=trace)
    assert rep.span_ns == 2**63 - 1
    assert len(rep.observations) == (2**63 - 1) // 10**13 + 1
    assert tuple(rep.observations[-1]) == (2**63 - 1, rep.log_distinct, rep.log_distinct)
    assert rep.walks == 2 and rep.log_total == rep.logged
    assert rep.estimates[ESTIMATOR_ORACLE].wss_pages == 2


def test_vmware_periods_bounded():
    # 1,000,001 periods of 1 ns used to be walked one rng draw at a time.
    sc = Scenario(
        workload=WorkloadSpec(n_pages=2, pattern=Pattern.RWRW, inter_access_gap_ns=333_334),
        estimators_enabled=frozenset({ESTIMATOR_VMWARE}),
        vmware=VmwareParams(sample_size=1, period_s=1e-9),
    )
    with pytest.raises(ValidationError, match="vmware.period_s"):
        run(sc)


def test_vmware_sample_larger_than_allocation_fails_before_the_walk_stage(monkeypatch):
    # The default 100 samples cannot be drawn from 3 pages. The run used to
    # fail inside estimate_vmware, after the walk stage and the event loop.
    def walk_stage(*args):
        raise AssertionError("the walk stage ran")

    monkeypatch.setattr(sim, "walk_codes", walk_stage)
    sc = Scenario(workload=WorkloadSpec(n_pages=3, pattern=Pattern.RWRW), vm_pages=3,
                  estimators_enabled=frozenset({ESTIMATOR_PRL, ESTIMATOR_VMWARE}))
    message = r"^vmware\.sample_size: 100 samples exceed the 3-page allocation$"
    with pytest.raises(ValidationError, match=message):
        run(sc)
    # The paml pass of a paired run always samples, whatever the scenario enables.
    with pytest.raises(ValidationError, match=message):
        run_paired(dataclasses.replace(sc, estimators_enabled=frozenset({ESTIMATOR_ORACLE})))


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
def test_replayed_trace_reports_like_its_generated_workload(path, tmp_path):
    write_trace_file(generate(load_scenario(path).workload), tmp_path / "trace.csv")
    lines = [line for line in path.read_text().splitlines() if not line.startswith("workload.")]
    replay = tmp_path / path.name
    replay.write_text("\n".join(lines + ["workload.trace = trace.csv", ""]))
    assert load_scenario(replay).workload is None
    assert report_to_json(run(load_scenario(replay))) == report_to_json(run(load_scenario(path)))


@pytest.mark.parametrize("build,field", [
    (lambda: EstimatorParams(mu_s=1e-12), "mu_s"),
    (lambda: TlbConfig(entries=3, ways=2), "entries"),
    (lambda: TrackingConfig(buffer_entries=1), "buffer_entries"),
    (lambda: WorkloadSpec(n_pages=0, pattern=Pattern.RWRW), "n_pages"),
    (lambda: VmwareParams(sample_size=0), "vmware.sample_size"),
    (Scenario, "workload"),
], ids=["estimator", "tlb", "tracking", "workload", "vmware", "scenario"])
def test_configs_refuse_bad_values_when_built(build, field):
    # Configs used to be checked only where a stage called validate():
    # EstimatorParams(mu_s=1e-12) was built, and a run then divided by zero.
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}:"):
        build()


def test_observations_bounded():
    # One observation per mu of span: 1,000,001 used to be built one by one,
    # and a replayed 1 s trace with mu_s = 1e-9 would have asked for 1e9.
    def scenario(gap_ns):
        return Scenario(
            workload=WorkloadSpec(n_pages=2, pattern=Pattern.WRITE_INTENSITY,
                                  inter_access_gap_ns=gap_ns),
            estimator=EstimatorParams(tau=1, mu_s=1e-6, omega_s=4e-6),
        )

    with pytest.raises(ValidationError, match="estimator.mu_s"):
        run(scenario(1_000_001_000))
    observations = run(scenario(1_000_000_000)).observations
    assert len(observations) == 1_000_000 + 1
    assert observations.dtype == OBS_DTYPE
