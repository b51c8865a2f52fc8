"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

PM = run.import_program(run.ROOT)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    p = bench("--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", trace,
              "--size", "tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    record = json.loads(p.stdout.splitlines()[-2])["record"]
    assert record["machine"]["nproc"] >= 1
    assert record["input"]["accesses"] > 0


def test_spec_matches_the_script():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "paml_rwrw", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def _sample(name, tmp_path):
    wl = workloads.prepare(name, 3, "tiny", tmp_path)
    if wl.replay_columns is not None:
        run.write_replay_trace(PM, wl)
    s = run.operation(PM, wl)
    ref = workloads.reference(s.trace.vcpu, s.trace.gppn, s.trace.is_write,
                              s.scenario.estimator.tau)
    return s, ref


@pytest.fixture(scope="module")
def paml(tmp_path_factory):
    return _sample("paml_rwrw", tmp_path_factory.mktemp("paml"))


@pytest.fixture(scope="module")
def pml(tmp_path_factory):
    return _sample("replay_4vcpu", tmp_path_factory.mktemp("pml"))


def _fired(sample, ref, tamper):
    report = copy.deepcopy(next(iter(sample.reports.values())))
    tamper(report)
    tracking = sample.scenario.tracking
    return checks.check_pass(report, ref, tracking.buffer_entries, tracking.vmexit_cost_ns)


def _set(key, delta):
    def tamper(report):
        report[key] += delta
    return tamper


def _oracle(report):
    report["estimates"]["oracle"]["wss_pages"] += 1


def test_untampered_reports_pass(paml, pml):
    assert _fired(*paml, lambda r: None) == []
    assert _fired(*pml, lambda r: None) == []


@pytest.mark.parametrize("tamper, fired", [
    (_set("walks", 1), "paml walks"),
    (_set("missed_gpas", -1), "paml walks"),
    (_set("log_total", 1), "paml log_total"),
    (_set("vm_stall_ns", 1), "paml vm_stall_ns"),
    (_set("trace_len", 1), "trace_len"),
    (_oracle, "oracle"),
])
def test_paml_checks_fire(paml, tamper, fired):
    assert [f.split(":")[0] for f in _fired(*paml, tamper)] == [fired]


@pytest.mark.parametrize("tamper, fired", [
    (_set("log_distinct", -1), ["pml log_distinct"]),
    (_set("vm_stall_ns", 1), ["pml vm_stall_ns"]),
    (_set("full_events", 1000), ["pml vm_stall_ns", "pml full_events"]),
    (_oracle, ["oracle"]),
])
def test_pml_checks_fire(pml, tamper, fired):
    assert [f.split(":")[0] for f in _fired(*pml, tamper)] == fired


def test_pml_logged_counts_each_vcpu_write_once(pml):
    sample, ref = pml
    assert ref.vcpus == workloads.REPLAY_VCPUS
    assert ref.written_pairs > ref.written_pages
    assert [f.split(":")[0] for f in _fired(sample, ref, _set("logged", 1))] == ["pml logged"]


def test_row_pin_and_repeat_checks_fire(paml):
    sample, _ = paml
    errors = checks.estimator_errors(sample.reports)
    assert checks.check_rows(dict(errors), errors) == []
    assert checks.check_rows({**errors, "prl": errors["prl"] + 1}, errors)
    pins = checks.pinned(sample.reports)
    assert checks.check_pins(pins, copy.deepcopy(pins)) == []
    tampered = copy.deepcopy(pins)
    tampered["paml"]["walks"] += 1
    assert [f.split(":")[0] for f in checks.check_pins(pins, tampered)] == ["pin paml.walks"]
    other = copy.deepcopy(sample.reports)
    other["paml"]["logged"] += 1
    assert checks.check_same(sample.reports, copy.deepcopy(sample.reports), "repeat") == []
    assert checks.check_same(other, sample.reports, "repeat") == [
        "repeat: reports differ in logged"]


def test_tracer_restores_the_package_and_counts(paml, tmp_path):
    sample, _ = paml
    originals = (PM["mmu"].Tlb.lookup_raw, PM["sim"].handle_full, PM["sim"].run,
                 PM["estimator"].estimate_oracle)
    wl = workloads.prepare("paml_rwrw", 3, "tiny", tmp_path)
    with tracing.Tracer(tracing.calibrate(rounds=1, calls=100)) as tracer:
        traced = run.operation(PM, wl)
    assert (PM["mmu"].Tlb.lookup_raw, PM["sim"].handle_full, PM["sim"].run,
            PM["estimator"].estimate_oracle) == originals
    assert traced.reports == sample.reports
    m = tracer.metrics(traced.reports, traced.accesses)
    report = traced.reports["paml"]
    assert m["mmu.lookups"] == report["trace_len"]
    assert m["mmu.walks"] == report["walks"]
    assert m["handler.entries"] == report["log_total"]
    assert m["handler.batches"] == report["full_events"]
    assert tracer.absent == []


def test_missing_name_is_reported_absent(monkeypatch, paml, tmp_path):
    monkeypatch.delattr(PM["estimator"], "estimate_vmware")
    wl = workloads.prepare("paml_rwrw", 3, "tiny", tmp_path)
    with tracing.Tracer(tracing.Calibration()) as tracer:
        traced = run.operation(PM, wl)
    assert tracer.absent == ["pagelog.estimator.estimate_vmware"]
    m = tracer.metrics(traced.reports, traced.accesses)
    assert "estimator.vmware_s" not in m and "estimator.oracle_s" in m
