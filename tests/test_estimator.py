import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_vmware

from pagelog import trace as trace_mod
from pagelog.errors import PredicateContractError, ValidationError
from pagelog.estimator import (
    EstimatorParams,
    VmwareParams,
    estimate_epsilon,
    estimate_from_series,
    estimate_oracle,
    estimate_vmware,
)
from pagelog.handler import CumulativeLog
from pagelog.trace import Pattern, Trace, WorkloadSpec, generate

MS = 1e-3


def params(tau=50, mu_s=1 * MS, omega_s=4 * MS, epsilon=0, page_size=4096):
    return EstimatorParams(tau=tau, mu_s=mu_s, omega_s=omega_s, page_size=page_size, epsilon_bytes=epsilon)


# -- convergence loop ---------------------------------------------------------


def test_converges_at_first_flat_window():
    p = params()
    est = estimate_from_series(np.array([0, 1, 2, 3, 4, 4, 4, 4, 4]), p)
    assert est.converged and est.converged_index == 8
    assert est.observations == (0, 1, 2, 3, 4, 4, 4, 4, 4)
    assert all(type(v) is int for v in est.observations)
    assert est.wss_pages == 4


def test_flat_zero_prefix_converges_to_zero():
    p = params()
    est = estimate_from_series(np.array([0, 0, 0, 0, 0, 7]), p)
    assert est.converged and est.converged_index == 4
    assert est.observations == (0, 0, 0, 0, 0)  # the sixth sample comes after convergence
    assert est.wss_pages == 0


def test_decrease_after_convergence_is_not_an_error():
    # The live estimation process stops at convergence and never sees the rest.
    est = estimate_from_series(np.array([1, 1, 1, 1, 1, 0, 7, 2]), params())
    assert est.converged_index == 4
    assert est.observations == (1, 1, 1, 1, 1) and est.wss_pages == 1
    with pytest.raises(ValidationError, match=r"dist: observation 4 decreased \(0 < 1\)"):
        estimate_from_series(np.array([1, 1, 1, 1, 0, 0]), params())


def test_unconverged_series():
    est = estimate_from_series(np.array([1, 2, 3, 4, 5, 6]), params())
    assert not est.converged and est.converged_index is None
    assert est.wss_pages == 6  # the last observation


def test_empty_series():
    est = estimate_from_series(np.array([]), params())
    assert est.wss_pages == 0 and not est.converged


def test_monotonicity_enforced():
    with pytest.raises(ValidationError, match="dist"):
        estimate_from_series(np.array([3, 2]), params())


def test_convergence_index_matches_bruteforce():
    # The brute force is the live loop: it reads one observation at a time and
    # stops at convergence, so only a decrease up to there is an error.
    rng = np.random.default_rng(4)
    p = params(omega_s=3 * MS)
    k = p.window
    assert k == 3
    for _ in range(200):
        choices = [-1, 0, 0, 1, 2] if rng.integers(0, 4) == 0 else [0, 1, 2]
        steps = rng.choice(choices, size=12)
        series = np.cumsum(steps).tolist()
        expected = "unconverged"
        for i in range(len(series)):
            if i and series[i] < series[i - 1]:
                expected = f"dist: observation {i} decreased ({series[i]} < {series[i - 1]})"
                break
            if i >= k and series[i] - series[i - k] == 0:
                expected = i
                break
        try:
            est = estimate_from_series(np.array(series), p)
        except ValidationError as exc:
            assert str(exc) == expected
            continue
        if expected == "unconverged":
            assert not est.converged and est.observations == tuple(series)
        else:
            assert est.converged and est.converged_index == expected
            assert est.observations == tuple(series[:expected + 1])


def test_omega_must_be_multiple_of_mu():
    with pytest.raises(ValidationError, match="omega"):
        estimate_from_series(np.array([0]), EstimatorParams(mu_s=0.3, omega_s=1.0))


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(tau=0), "tau"),
        (dict(mu_s=0), "mu_s"),
        (dict(omega_s=-1), "omega_s"),
        (dict(epsilon_bytes=-1), "epsilon_bytes"),
        # Intervals that round to 0 ns used to divide by zero in the checks.
        (dict(mu_s=1e-10), "mu_s"),
        (dict(omega_s=4.9e-10), "omega_s"),
        (dict(mu_s=float("nan")), "mu_s"),
        (dict(omega_s=float("inf")), "omega_s"),
        (dict(mu_s=1e300), "mu_s"),
    ],
)
def test_params_validation(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        EstimatorParams(**kwargs)


# -- log-view estimators -------------------------------------------------------


def _observed(snapshots, tau, counter):
    """Fold one snapshot per observation into a log; its ``counter`` after each."""
    log = CumulativeLog(hot_threshold=tau)
    series = []
    for snap in snapshots:
        log.add_snapshot(snap)
        series.append(getattr(log, counter))
    return np.array(series)


def test_single_hot_page():
    p = params(tau=3, epsilon=100)
    snaps = [(9,), (9, 9), (9, 9), (9,), (), (), ()]
    est = estimate_from_series(_observed(snaps, p.tau, "hot_count"), p)
    assert est.wss_pages == 1
    assert est.m_bytes == 4096 + 100
    assert est.converged


def test_prl_counts_only_hot_pages():
    p = params(tau=2)
    snaps = [(1, 1, 1, 1, 1, 2, 3, 3)] + [()] * 4
    est = estimate_from_series(_observed(snaps, p.tau, "hot_count"), p)
    assert est.wss_pages == 2


def test_pml_counts_distinct_ignoring_tau():
    p = params(tau=50)
    snaps = [(1, 2, 3)] + [()] * 4
    est = estimate_from_series(_observed(snaps, p.tau, "distinct_count"), p)
    assert est.wss_pages == 3


def test_eq1_consistency_property():
    rng = np.random.default_rng(6)
    for _ in range(40):
        eps = int(rng.integers(0, 10000))
        page = int(rng.choice([512, 4096, 16384]))
        p = params(tau=1, epsilon=eps, page_size=page)
        wss = int(rng.integers(0, 3000))
        est = estimate_from_series(np.array([wss] * 5), p)
        assert (est.m_bytes - eps) % page == 0
        assert (est.m_bytes - eps) // page == est.wss_pages


# -- oracle --------------------------------------------------------------------


def test_oracle_empty_trace():
    tr = Trace(np.array([], dtype=np.int64), np.array([], dtype=np.int32),
               np.array([], dtype=np.int64), np.array([], dtype=bool))
    assert estimate_oracle(tr, params()).wss_pages == 0


def test_oracle_threshold_boundary():
    def single_page_trace(n):
        return Trace(
            np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int32),
            np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool),
        )

    p = params(tau=7)
    assert estimate_oracle(single_page_trace(7), p).wss_pages == 1
    assert estimate_oracle(single_page_trace(6), p).wss_pages == 0


def test_oracle_on_cold_prefix_trace():
    spec = WorkloadSpec(n_pages=400, pattern=Pattern.RRWW, d_iters=25,
                        hot_pages=100, cold_prefix=True)
    tr = generate(spec)
    est = estimate_oracle(tr, params(tau=50))
    assert est.wss_pages == tr.ground_truth_wss_pages == 100


# -- sampling baseline -----------------------------------------------------------


def _uniform_trace(touch_pages, passes, gap=100):
    gppn = np.tile(np.arange(touch_pages, dtype=np.int64), passes)
    n = len(gppn)
    return Trace(np.arange(n, dtype=np.int64) * gap, np.zeros(n, dtype=np.int32),
                 gppn, np.zeros(n, dtype=bool))


def test_vmware_full_coverage():
    tr = _uniform_trace(500, 10)
    pass_ns = 500 * 100
    est = estimate_vmware(tr, 500, params(), VmwareParams(100, 2 * pass_ns / 1e9), seed=1)
    assert est.wss_pages == 500


def test_vmware_untouched_memory():
    tr = Trace(np.array([], dtype=np.int64), np.array([], dtype=np.int32),
               np.array([], dtype=np.int64), np.array([], dtype=bool))
    est = estimate_vmware(tr, 1000, params(), seed=3)
    assert est.wss_pages == 0


@pytest.mark.parametrize("period_s", [0.0, 1e-10, float("nan")])
def test_vmware_period_must_be_whole_ns(period_s):
    # A period that rounds to 0 ns used to loop forever.
    with pytest.raises(ValidationError, match="period_s"):
        estimate_vmware(_uniform_trace(10, 2), 50, params(), VmwareParams(5, period_s))


def test_vmware_sample_larger_than_allocation():
    tr = _uniform_trace(10, 2)
    with pytest.raises(ValidationError, match="sample_size"):
        estimate_vmware(tr, 50, params(), VmwareParams(sample_size=100))


@pytest.mark.parametrize("allocated", [0, 2**63])
def test_vmware_allocation_bounded(allocated):
    # 2^63 pages used to end in an OverflowError from rng.choice.
    with pytest.raises(ValidationError, match=r"^allocated_pages: must be within 1\.\.2\^63-1$"):
        estimate_vmware(_uniform_trace(10, 2), allocated, params(), VmwareParams(sample_size=5))


def test_vmware_sample_size_bounded():
    # 2^31 samples used to ask numpy for a 16 GiB block; the bound is checked
    # before anything is drawn.
    with pytest.raises(ValidationError, match=r"^vmware\.sample_size: must be within 1\.\.32768$"):
        estimate_vmware(_uniform_trace(10, 2), 2**31, params(), VmwareParams(sample_size=2**31))


def test_vmware_sampled_pages_bounded(monkeypatch):
    # 2^15 samples in each of 3,100 periods passed the bound on periods; at
    # that bound such draws would have taken minutes. Nothing is drawn.
    def no_draws(*args):
        raise AssertionError("the baseline drew samples")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    tr = Trace(np.array([0, 3_100_000]), np.zeros(2), np.array([0, 1]), np.zeros(2, dtype=bool))
    with pytest.raises(ValidationError, match=r"^vmware\.period_s: .* 3100 sampling periods of 32768 pages"):
        estimate_vmware(tr, 40_000, params(), VmwareParams(1 << 15, 1e-6))


def test_vmware_hot_subset_sampling_noise():
    # 10% of a 5000-page allocation is touched every period; the per-seed
    # estimate is one (hyper)binomial draw scaled by the allocation.
    allocation = 5000
    hot = 500
    tr = _uniform_trace(hot, 12)
    pass_ns = hot * 100
    period_s = 2 * pass_ns / 1e9
    estimates = [
        estimate_vmware(tr, allocation, params(), VmwareParams(100, period_s), seed=s).wss_pages
        for s in range(60)
    ]
    p_hot = hot / allocation
    sigma = allocation * np.sqrt(p_hot * (1 - p_hot) / 100)  # 150 pages
    mean = float(np.mean(estimates))
    std = float(np.std(estimates, ddof=1))
    assert abs(mean - hot) <= 4 * sigma / np.sqrt(60)
    assert 0.5 * sigma <= std <= 1.5 * sigma


def test_vmware_deterministic_per_seed():
    tr = _uniform_trace(300, 8)
    a = estimate_vmware(tr, 3000, params(), VmwareParams(period_s=300 * 100 / 1e9), seed=42)
    b = estimate_vmware(tr, 3000, params(), VmwareParams(period_s=300 * 100 / 1e9), seed=42)
    assert a == b


@st.composite
def vmware_cases(draw):
    """A random 0-4-vCPU trace, allocation, sample, period, seed and end instant."""
    n = draw(st.integers(0, 120))
    t = draw(st.integers(0, 500)) + np.cumsum(
        draw(st.lists(st.sampled_from([0, 1, 10, 100]), min_size=n, max_size=n)), dtype=np.int64)
    vcpu = draw(st.lists(st.sampled_from(draw(st.lists(st.integers(0, 2**31 - 1), min_size=1,
                                                       max_size=4))), min_size=n, max_size=n))
    # Pages up to 80 against allocations of at most 60: a direct caller may
    # pass a trace that touches pages outside the allocation.
    gppn = draw(st.lists(st.integers(0, 80), min_size=n, max_size=n))
    trace = Trace(t, np.array(vcpu, dtype=np.int32), np.array(gppn, dtype=np.int64),
                  np.zeros(n, dtype=bool))
    allocated = draw(st.integers(1, 60))
    sample_size = min(draw(st.sampled_from([1, 2, 3]) | st.integers(1, 60)), allocated)
    span = trace.span_ns
    period_ns = draw(st.integers(max(1, span // 64), 2 * max(1, span)))
    t0 = int(t[0]) if n else 0
    k = draw(st.integers(0, span // period_ns + 2))
    until = draw(st.sampled_from([
        None,
        t0 - draw(st.integers(1, 100)),         # before the first access
        t0 + k * period_ns + period_ns // 2,    # in the middle of a period
        t0 + k * period_ns,                     # on a period boundary
    ]))
    return trace, allocated, sample_size, period_ns / 1e9, draw(st.integers(0, 2**32)), until


@settings(max_examples=300, deadline=None)
@given(vmware_cases(), st.sampled_from([None, 1, 3, 7, 24, 56]))
def test_vmware_matches_per_period_reference(case, chunk):
    # Blocks hold _CHUNK // 8 // sample_size periods (at least one), and
    # accesses go in chunks of _CHUNK rows, so tiny chunks put block seams
    # between periods and access seams inside them. The per-period draws keep
    # the rng stream.
    trace, allocated, sample_size, period_s, seed, until = case
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(trace_mod, "_CHUNK", chunk)
        est = estimate_vmware(trace, allocated, params(), VmwareParams(sample_size, period_s),
                              seed=seed, until_ns=until)
    observations, wss = reference_vmware(trace, allocated, sample_size, period_s, seed, until)
    assert est.observations == observations
    assert est.wss_pages == wss
    assert all(type(v) is int for v in est.observations)


@pytest.mark.parametrize("allocated", [2**61, 2**62, 2**63 - 1])
def test_vmware_huge_allocation_matches_reference(allocated):
    # Keys of period x allocation + page must fit int64: a block holds 3
    # periods at 2^61 pages and one from 2^62 up.
    tr = _uniform_trace(7, 8, gap=10)
    est = estimate_vmware(tr, allocated, params(), VmwareParams(2, 30e-9), seed=3)
    assert (est.observations, est.wss_pages) == reference_vmware(tr, allocated, 2, 30e-9, 3)
    assert len(est.observations) == 18


def test_vmware_page_past_a_small_allocation_matches_reference():
    # Page 2^63-1 lies beyond the 10-page allocation: it takes no key, and the
    # keys of the allocation's pages still fit int64. Seed 1 samples page 5
    # in the first period.
    tr = Trace(t=[0, 100], vcpu=[0, 0], gppn=[5, 2**63 - 1], is_write=[False, False])
    est = estimate_vmware(tr, 10, params(), VmwareParams(2, 1e-8), seed=1)
    assert (est.observations, est.wss_pages) == reference_vmware(tr, 10, 2, 1e-8, 1)
    assert est.observations == (5,) + (0,) * 9


# -- kernel footprint probe ------------------------------------------------------


def test_epsilon_first_shrink_crashes():
    start = 2048.0
    assert estimate_epsilon(lambda m: m >= start, start_bytes=start) == start


def test_epsilon_iteration_cap_guard():
    with pytest.raises(PredicateContractError, match="never failed"):
        estimate_epsilon(lambda m: True, start_bytes=1000.0, max_iterations=1)


def test_epsilon_derived_recurrence():
    # Oracle: iterate the 0.95 recurrence directly.
    threshold, start = 300.0, 2048.0
    expected = start
    while 0.95 * expected >= threshold:
        expected = 0.95 * expected
    got = estimate_epsilon(lambda m: m >= threshold, start_bytes=start)
    assert abs(got - expected) <= 0.01
    assert abs(got - 306.97) < 0.5  # 2048 x 0.95^37
    steps = round(np.log(got / start) / np.log(0.95))
    assert steps == 37


def test_epsilon_return_invariant():
    rng = np.random.default_rng(8)
    for _ in range(25):
        threshold = float(rng.uniform(10, 1800))
        boots = lambda m: m >= threshold
        r = estimate_epsilon(boots, start_bytes=2048.0)
        assert boots(r) and not boots(0.95 * r)


def test_epsilon_contract_error_when_start_unbootable():
    with pytest.raises(PredicateContractError, match="start size"):
        estimate_epsilon(lambda m: False, start_bytes=1000.0)
