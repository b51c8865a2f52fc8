"""Acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints one
``[acceptance] criterion N PASS`` line (run with ``pytest -s`` to see them
on success). Heavy runs are cached at module scope and shared between
criteria.

Scenario parameters are sized so that the estimation loop's observation
interval is coarse relative to each workload's warm-up: pages cross the hot
threshold between the fourth and fifth observation, which keeps the first
stability window ahead of the crossing and lets the loop converge on the
plateau.
"""

import numpy as np
import pytest

from pagelog.cli import main
from pagelog.estimator import EstimatorParams, VmwareParams, estimate_epsilon
from pagelog.sim import (
    ESTIMATOR_ORACLE,
    ESTIMATOR_PML,
    ESTIMATOR_PRL,
    ESTIMATOR_VMWARE,
    Scenario,
    run,
)
from pagelog.tracker import TrackingConfig, TrackingMode
from pagelog.trace import Pattern, WorkloadSpec, generate

GAP = 100  # ns
PAGES_400MB = 102400  # 400 MB of 4 KB pages
ONE_MB_PAGES = 256

_CACHE: dict = {}


def cached(name, builder):
    if name not in _CACHE:
        _CACHE[name] = builder()
    return _CACHE[name]


def _pass_seconds(accesses_per_pass, gap=GAP):
    return accesses_per_pass * gap * 1e-9


def _paml(workload, tau, mu_s, omega_s, buffer_entries=512, latency=2,
          estimators=(ESTIMATOR_PRL, ESTIMATOR_ORACLE), **kw):
    return Scenario(
        workload=workload,
        tracking=TrackingConfig(mode=TrackingMode.PAML, buffer_entries=buffer_entries,
                                handler_latency_per_entry_ns=latency),
        estimator=EstimatorParams(tau=tau, mu_s=mu_s, omega_s=omega_s),
        estimators_enabled=frozenset(estimators),
        **kw,
    )


def _pml(workload, tau, mu_s, omega_s, **kw):
    return Scenario(
        workload=workload,
        tracking=TrackingConfig(mode=TrackingMode.PML),
        estimator=EstimatorParams(tau=tau, mu_s=mu_s, omega_s=omega_s),
        estimators_enabled=frozenset({ESTIMATOR_PML, ESTIMATOR_ORACLE}),
        **kw,
    )


# -- criterion 1 scenarios: full 400 MB arrays ---------------------------------


def _accuracy_scenario(pattern):
    if pattern is Pattern.RWRW:
        # walks per page: pass 1 gives 2 (read walk + dirty-flag walk), later
        # passes 1; count tau=50 crossed during pass 49.
        d = 100
        p = _pass_seconds(2 * PAGES_400MB)
        mu = 11 * p
    else:
        # RRWW and WWRR walk twice per page per pass; crossing in pass 25.
        d = 55
        p = _pass_seconds(2 * PAGES_400MB)
        mu = 6 * p
    wl = WorkloadSpec(n_pages=PAGES_400MB, pattern=pattern, d_iters=d, inter_access_gap_ns=GAP)
    return _paml(wl, tau=50, mu_s=mu, omega_s=4 * mu)


def _accuracy_report(pattern):
    return cached(f"accuracy-{pattern.value}", lambda: run(_accuracy_scenario(pattern)))


@pytest.mark.parametrize("pattern", [Pattern.RWRW, Pattern.RRWW, Pattern.WWRR])
def test_criterion_1_prl_accuracy_400mb(pattern):
    rep = _accuracy_report(pattern)
    prl = rep.estimates[ESTIMATOR_PRL]
    oracle = rep.estimates[ESTIMATOR_ORACLE]
    error = abs(prl.wss_pages - oracle.wss_pages)
    assert oracle.wss_pages == PAGES_400MB
    assert error <= ONE_MB_PAGES
    print(f"[acceptance] criterion 1 PASS ({pattern.value}): |prl-oracle| = {error} pages "
          f"(<= {ONE_MB_PAGES}), prl={prl.wss_pages}, converged={prl.converged}")


# -- criterion 2: write-only logging misses reads (L1) -------------------------


def _l1_workload(wi):
    return WorkloadSpec(n_pages=2000, pattern=Pattern.WRITE_INTENSITY, wi=wi,
                        d_iters=40, seed=13, inter_access_gap_ns=GAP)


def _l1_report(wi):
    def build():
        mu = 2 * _pass_seconds(2000)
        return run(_pml(_l1_workload(wi), tau=50, mu_s=mu, omega_s=4 * mu))
    return cached(f"l1-wi{wi}", build)


def test_criterion_2_pml_read_only_underestimates():
    rep = _l1_report(0)
    est = rep.estimates[ESTIMATOR_PML]
    assert est.wss_pages == 0
    assert est.converged
    details = []
    for wi in (50, 80):
        rep_w = _l1_report(wi)
        trace = generate(_l1_workload(wi))
        distinct_written = int(np.unique(trace.gppn[trace.is_write]).size)
        est_w = rep_w.estimates[ESTIMATOR_PML]
        assert abs(est_w.wss_pages - distinct_written) <= 0.02 * distinct_written
        details.append(f"wi={wi} -> {est_w.wss_pages} vs {distinct_written} written")
    print(f"[acceptance] criterion 2 PASS: wi=0 -> 0 pages; " + "; ".join(details)
          + " (within 2%)")


# -- criterion 3: write-only logging cannot separate hot from cold (L2) --------


def _l2_reports():
    def build():
        wl = WorkloadSpec(n_pages=1000, pattern=Pattern.RRWW, d_iters=60, hot_pages=100,
                          cold_prefix=True, inter_access_gap_ns=GAP)
        mu = 6.5 * _pass_seconds(200)
        paml = run(_paml(wl, tau=50, mu_s=mu, omega_s=4 * mu))
        pml = run(_pml(wl, tau=50, mu_s=mu, omega_s=4 * mu))
        return paml, pml
    return cached("l2", build)


def test_criterion_3_cold_prefix():
    paml, pml = _l2_reports()
    pml_est = pml.estimates[ESTIMATOR_PML]
    prl_est = paml.estimates[ESTIMATOR_PRL]
    assert pml_est.wss_pages == 1000
    assert abs(prl_est.wss_pages - 100) <= 1
    print(f"[acceptance] criterion 3 PASS: pml={pml_est.wss_pages} (=N), "
          f"prl={prl_est.wss_pages} (=M+-1), ground truth 100")


# -- criterion 4: overhead asymmetry (L3) ---------------------------------------


def test_criterion_4_overhead_asymmetry():
    wl = WorkloadSpec(n_pages=2048, pattern=Pattern.WRITE_INTENSITY, wi=100, d_iters=3,
                      inter_access_gap_ns=GAP)
    base = dict(estimator=EstimatorParams(), estimators_enabled=frozenset({ESTIMATOR_ORACLE}))
    pml_rep = run(Scenario(workload=wl, tracking=TrackingConfig(mode=TrackingMode.PML,
                                                                vmexit_cost_ns=4000), **base))
    paml_rep = run(Scenario(workload=wl, tracking=TrackingConfig(mode=TrackingMode.PAML), **base))
    assert pml_rep.full_events >= 1
    assert pml_rep.overhead_percent > 0
    expected = pml_rep.full_events * 4000 / pml_rep.span_ns * 100
    assert abs(pml_rep.overhead_percent - expected) <= 1e-9
    assert paml_rep.overhead_percent == 0.0
    assert paml_rep.vm_stall_ns == 0
    print(f"[acceptance] criterion 4 PASS: pml overhead {pml_rep.overhead_percent:.6f}% "
          f"({pml_rep.full_events} exits), paml overhead 0 exactly")


# -- criterion 5: missed pages stay negligible across buffer sizes ---------------


def _missed_report(buffer_entries):
    # 4000 pages, not a power of two: walks per pass must not be an exact
    # multiple of the logging round, or the unlogged trigger slot would land
    # on the same pages every pass and starve their counts.
    def build():
        wl = WorkloadSpec(n_pages=4000, pattern=Pattern.RRWW, d_iters=50,
                          inter_access_gap_ns=15000)
        mu = 5.5 * _pass_seconds(2 * 4000, gap=15000)
        return run(_paml(wl, tau=50, mu_s=mu, omega_s=4 * mu,
                         buffer_entries=buffer_entries, latency=20))
    return cached(f"missed-{buffer_entries}", build)


def test_criterion_5_missed_accounting_table_shape():
    reps = {b: _missed_report(b) for b in (512, 1024)}
    for b, rep in reps.items():
        frac = rep.missed_gpas / rep.walks
        assert frac <= 0.001, f"buffer {b}: missed fraction {frac:.5%}"
    wss = {b: rep.estimates[ESTIMATOR_PRL].wss_pages for b, rep in reps.items()}
    assert abs(wss[512] - wss[1024]) <= 1
    print("[acceptance] criterion 5 PASS: "
          + ", ".join(
              f"{b} entries -> {reps[b].full_events} fulls, "
              f"{reps[b].missed_gpas} missed ({reps[b].missed_gpas / reps[b].walks:.4%})"
              for b in (512, 1024))
          + f"; wss {wss[512]} vs {wss[1024]}")


# -- criterion 6: conservation over randomized scenarios -------------------------


def test_criterion_6_conservation_200_scenarios():
    rng = np.random.default_rng(2024)
    patterns = list(Pattern)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(1, 400))
        spec = WorkloadSpec(
            n_pages=n,
            pattern=patterns[trial % 4],
            d_iters=int(rng.integers(1, 7)),
            wi=int(rng.integers(0, 101)),
            hot_pages=int(rng.integers(1, n + 1)),
            cold_prefix=bool(rng.integers(0, 2)),
            seed=trial,
            inter_access_gap_ns=int(rng.choice([1, 10, 100])),
        )
        tracking = TrackingConfig(
            mode=TrackingMode.PAML,
            buffer_entries=int(rng.choice([2, 4, 8, 32, 512])),
            handler_latency_per_entry_ns=int(rng.choice([0, 1, 20, 100])),
        )
        trace = generate(spec)
        mu_ns = max(1, trace.span_ns // 6 or 1)
        params = EstimatorParams(tau=int(rng.integers(1, 6)),
                                 mu_s=mu_ns / 1e9, omega_s=2 * mu_ns / 1e9)
        sc = Scenario(workload=spec, tracking=tracking, estimator=params,
                      estimators_enabled=frozenset({ESTIMATOR_PRL}))
        rep = run(sc, trace=trace)
        assert rep.logged + rep.missed_gpas + rep.full_events == rep.walks
        assert rep.log_total == rep.logged
        checked += 1
    assert checked == 200
    print(f"[acceptance] criterion 6 PASS: conservation held on {checked} randomized runs")


# -- criterion 7: series shape and convergence rule ------------------------------


def _suite_series():
    """(name, series, params, estimate, expect_converged) for every cached run."""
    entries = []
    for pattern in (Pattern.RWRW, Pattern.RRWW, Pattern.WWRR):
        rep = _accuracy_report(pattern)
        entries.append((f"accuracy-{pattern.value}", [o.hot_pages for o in rep.observations],
                        _accuracy_scenario(pattern).estimator, rep.estimates[ESTIMATOR_PRL], True))
    for wi in (0, 50):
        rep = _l1_report(wi)
        entries.append((f"l1-wi{wi}", [o.distinct_pages for o in rep.observations],
                        rep_params(tau=50, mu_s=2 * _pass_seconds(2000)),
                        rep.estimates[ESTIMATOR_PML], True))
    paml, pml = _l2_reports()
    mu = 6.5 * _pass_seconds(200)
    entries.append(("l2-paml", [o.hot_pages for o in paml.observations],
                    rep_params(tau=50, mu_s=mu), paml.estimates[ESTIMATOR_PRL], True))
    entries.append(("l2-pml", [o.distinct_pages for o in pml.observations],
                    rep_params(tau=50, mu_s=mu), pml.estimates[ESTIMATOR_PML], True))
    for b in (512, 1024):
        rep = _missed_report(b)
        entries.append((f"missed-{b}", [o.hot_pages for o in rep.observations],
                        rep_params(tau=50, mu_s=5.5 * _pass_seconds(2 * 4000, gap=15000)),
                        rep.estimates[ESTIMATOR_PRL], True))
    return entries


def rep_params(tau, mu_s):
    return EstimatorParams(tau=tau, mu_s=mu_s, omega_s=4 * mu_s)


def test_criterion_7_dist_monotone_and_first_convergence():
    rows = _suite_series()
    assert rows
    for name, series, params, estimate, expect_converged in rows:
        assert all(b >= a for a, b in zip(series, series[1:])), f"{name}: dist not monotone"
        k = params.window
        first = next((i for i in range(len(series)) if i >= k and series[i] == series[i - k]), None)
        if expect_converged:
            assert estimate.converged, f"{name}: expected convergence"
        if estimate.converged:
            assert first == estimate.converged_index, (
                f"{name}: converged at {estimate.converged_index}, first flat window at {first}"
            )
            assert estimate.wss_pages == series[first]
    print(f"[acceptance] criterion 7 PASS: {len(rows)} series monotone, "
          "all convergences at the first flat window")


# -- criterion 8: sampling baseline noise matches the binomial model --------------


def test_criterion_8_vmware_binomial_noise():
    allocation = 10000
    hot = 1000
    sample_size = 100
    p_hot = hot / allocation
    pass_s = _pass_seconds(hot)
    estimates = []
    for seed in range(100):
        wl = WorkloadSpec(n_pages=hot, pattern=Pattern.WRITE_INTENSITY, wi=50,
                          d_iters=30, seed=seed, inter_access_gap_ns=GAP)
        sc = _paml(
            wl, tau=10, mu_s=2.2 * pass_s, omega_s=8.8 * pass_s, latency=1,
            estimators=(ESTIMATOR_PRL, ESTIMATOR_VMWARE),
            vm_pages=allocation, vmware=VmwareParams(sample_size, 2 * pass_s),
            seed=seed,
        )
        rep = run(sc)
        assert rep.estimates[ESTIMATOR_PRL].wss_pages == hot  # tracking stays exact
        estimates.append(rep.estimates[ESTIMATOR_VMWARE].wss_pages)
    sigma = allocation * np.sqrt(p_hot * (1 - p_hot) / sample_size)  # 300 pages
    mean = float(np.mean(estimates))
    std = float(np.std(estimates, ddof=1))
    assert abs(mean - hot) <= 3 * sigma / np.sqrt(len(estimates))
    assert 0.75 * sigma <= std <= 1.25 * sigma
    print(f"[acceptance] criterion 8 PASS: mean {mean:.1f} (true {hot}), "
          f"std {std:.1f} vs binomial sigma {sigma:.1f} (within 25%)")


# -- criterion 9: kernel-footprint shrink probe ------------------------------------


def test_criterion_9_epsilon_recurrence():
    mb = 1.0
    threshold, start = 300 * mb, 2048 * mb
    expected = start
    while 0.95 * expected >= threshold:
        expected = 0.95 * expected
    got = estimate_epsilon(lambda m: m >= threshold, start_bytes=start)
    assert abs(got - expected) <= 0.01 * mb
    print(f"[acceptance] criterion 9 PASS: epsilon = {got:.4f} MB "
          f"(recurrence oracle {expected:.4f} MB, 2048 x 0.95^37)")


# -- criterion 10: determinism -----------------------------------------------------


ACCEPT_SCENARIO = """
workload.pattern = rrww
workload.n_pages = 1000
workload.d_iters = 60
workload.hot_pages = 100
workload.cold_prefix = true
tracking.mode = paml
tracking.handler_latency_per_entry_ns = 2
estimator.tau = 50
estimator.mu_s = 0.00013
estimator.omega_s = 0.00052
estimators = prl, oracle
seed = 3
"""


def test_criterion_10_byte_identical_reports(tmp_path):
    scn = tmp_path / "det.scn"
    scn.write_text(ACCEPT_SCENARIO)
    outs = []
    for tag in ("a", "b"):
        cmp_path = tmp_path / f"cmp_{tag}.csv"
        rep_path = tmp_path / f"rep_{tag}.csv"
        assert main(["compare", str(scn), "-o", str(cmp_path)]) == 0
        assert main(["run", str(scn), "-o", str(rep_path)]) == 0
        outs.append((cmp_path.read_bytes(), rep_path.read_bytes()))
    assert outs[0] == outs[1]
    sc_reports = [run(_l2_scenario()).to_json_dict() for _ in range(2)]
    assert sc_reports[0] == sc_reports[1]
    print("[acceptance] criterion 10 PASS: comparison and report CSVs byte-identical across reruns")


def _l2_scenario():
    wl = WorkloadSpec(n_pages=1000, pattern=Pattern.RRWW, d_iters=60, hot_pages=100,
                      cold_prefix=True, inter_access_gap_ns=GAP)
    mu = 6.5 * _pass_seconds(200)
    return _paml(wl, tau=50, mu_s=mu, omega_s=4 * mu)
