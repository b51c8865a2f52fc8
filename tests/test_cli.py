import hashlib
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from pagelog.cli import main
from pagelog.trace import Trace, write_trace_file

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_SCENARIO = """
workload.pattern = rrww
workload.n_pages = 200
workload.d_iters = 55
workload.inter_access_gap_ns = 100
tracking.mode = paml
tracking.handler_latency_per_entry_ns = 2
estimator.tau = 50
estimator.mu_s = 0.00024
estimator.omega_s = 0.00096
estimators = prl, oracle
seed = 3
"""

PML_SCENARIO = """
workload.pattern = wi
workload.wi = 100
workload.n_pages = 1024
workload.d_iters = 3
tracking.mode = pml
estimator.tau = 1
estimator.mu_s = 0.00005
estimator.omega_s = 0.0002
estimators = pml, oracle
seed = 1
"""


@pytest.fixture
def scn(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL_SCENARIO)
    return str(path)


@pytest.fixture
def pml_scn(tmp_path):
    path = tmp_path / "pml.scn"
    path.write_text(PML_SCENARIO)
    return str(path)


def test_gen_writes_sidecar_and_rows(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["gen", "--pattern", "rwrw", "--pages", "16", "--iters", "2",
               "--seed", "7", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#wss=16"
    assert len(lines) == 1 + 16 * 2 * 2
    assert lines[1] == "0,0,0,R"
    assert "wrote 64 accesses" in capsys.readouterr().out


def test_gen_wi_zero_has_no_write_lines(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["gen", "--pattern", "wi", "--wi", "0", "--pages", "30",
                 "--iters", "2", "-o", str(out)]) == 0
    body = out.read_text().splitlines()[1:]
    assert all(line.endswith(",R") for line in body)


@pytest.mark.parametrize("args,sha256", [
    (["--pattern", "wi", "--wi", "37", "--pages", "5000", "--iters", "3", "--seed", "11"],
     "95462fbd309cff42b7a63a7f8f8b06087dadbdf58d77792f096efddbc86d6190"),
    # 320,000 lines: more than one 2^18-line write chunk.
    (["--pattern", "rrww", "--pages", "200000", "--iters", "20", "--hot", "3000",
      "--cold-prefix", "--gap", "977", "--seed", "5"],
     "c91c12402e2b169234aa4e9130421e42df0896d190315e31f60a255f62be3b6f"),
], ids=["wi", "rrww-cold-prefix"])
def test_gen_file_bytes_pinned(tmp_path, args, sha256):
    # Digests of the files the per-line writer produced before trace I/O moved onto arrays.
    out = tmp_path / "t.csv"
    assert main(["gen", *args, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# Digests of the reports of each scenarios/*.scn before trace generation
# built one pass and repeated it: (run --json on stdout, run -o CSV file).
REPORT_SHA256 = {
    "cold_prefix": ("df290c55c1f378f43f30bd5a302d7ea06e19d5a5128d9a3d3c7663411b2844ff",
                    "05e2ee2936cb41a9da3ee196aa850e0c50085423906c44fbeb4157e832e46baf"),
    "pml_write_heavy": ("de1e7f1f2af179995bc80a9626fede6cefa1b47b1caebe46a7f8e91ecf58b561",
                        "d0855ef5c97289a382144ea3f9a7edf552be17ea63d99907365c4dee0d753a0a"),
    "rwrw_small": ("141a7221dd48174960cfb66d9c596fffb7645551147da8b6381e9578f2556f0d",
                   "4c271e78fdabad97a07071529063094a8b963fe53486e6b3476d72c55a624acd"),
}
COMPARE_SHA256 = "c93f5835fde18cb6f9bcbbad27678600ecd6ceab60343cd314dc6d285c3f5c23"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_run_reports_pinned(name, tmp_path, capsys):
    json_sha, csv_sha = REPORT_SHA256[name]
    scenario = str(SCENARIOS / f"{name}.scn")
    assert main(["run", scenario, "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == json_sha
    out = tmp_path / "report.csv"
    assert main(["run", scenario, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


def test_compare_scenarios_pinned(capsys):
    assert sorted(p.stem for p in SCENARIOS.glob("*.scn")) == sorted(REPORT_SHA256)
    assert main(["compare", *sorted(str(p) for p in SCENARIOS.glob("*.scn"))]) == 0
    assert _sha256(capsys.readouterr().out) == COMPARE_SHA256


# Digests of the outputs the pins above miss, for each scenarios/*.scn, recorded
# before the run counters moved onto SimReport as four summed fields:
# (run summary on stdout, dist on stdout).
SUMMARY_DIST_SHA256 = {
    "cold_prefix": ("d990804d18eff6883817f4a3f5c315ebac6004d5291a74725a3c0b12ca7afba6",
                    "42202835efaca047569f315bf30921e99c8cb7a4168cf64c11bcb8600a27674a"),
    "pml_write_heavy": ("5d316b2f47bb71062b39f12021a2dd683341f2064bc74c85f2ae594bc964ac7a",
                        "76658c96f90bbf066c798fb698a4cf692aa9376cb68a2e814f00818ba9105c4d"),
    "rwrw_small": ("a280eb763faff8e6613be2efc9202bd63d33e64c16ca8a3928e39219eecfeef2",
                   "90770bd14bfec4cc0a7e7f3e52050b683a9133b2620fb1065749d3eb67501fdc"),
}


@pytest.mark.parametrize("name", sorted(SUMMARY_DIST_SHA256))
def test_run_summary_and_dist_pinned(name, capsys):
    summary_sha, dist_sha = SUMMARY_DIST_SHA256[name]
    scenario = str(SCENARIOS / f"{name}.scn")
    assert main(["run", scenario]) == 0
    assert _sha256(capsys.readouterr().out) == summary_sha
    assert main(["dist", scenario]) == 0
    assert _sha256(capsys.readouterr().out) == dist_sha


# A 2-vCPU trace with sparse vCPU ids and a 40% write mix, replayed from a file.
TWO_VCPU_SCENARIO = """
workload.trace = two_vcpu.csv
tracking.mode = {mode}
tracking.buffer_entries = 16
tracking.handler_latency_per_entry_ns = 3
estimator.tau = 2
estimator.mu_s = 0.00002
estimator.omega_s = 0.00008
estimators = {estimators}
vmware.period_s = 0.0001
seed = 5
"""
# Digests of run --json of that scenario, recorded with SUMMARY_DIST_SHA256.
TWO_VCPU_JSON_SHA256 = {
    "pml": "d15e613940aa83c38c4c3e6767e80c62e23b1e2b54bb7ddfe6047a8a61a3ee5d",
    "paml": "b9d11b1f88130288e274484b6a69aa3272c72bd6f2c71dd22aaf73d7ac87b594",
}


def _two_vcpu_trace() -> Trace:
    rng = np.random.default_rng(2024)
    n = 4000
    t = np.cumsum(rng.integers(1, 200, n))
    vcpu = rng.choice(np.array([1, 4]), n)
    gppn = rng.integers(0, 600, n)
    return Trace(t, vcpu, gppn, rng.random(n) < 0.4)


@pytest.mark.parametrize("mode,estimators", [("pml", "pml, oracle"), ("paml", "prl, oracle, vmware")])
def test_multi_vcpu_trace_reports_pinned(mode, estimators, tmp_path, capsys):
    write_trace_file(_two_vcpu_trace(), tmp_path / "two_vcpu.csv")
    scenario = tmp_path / "two_vcpu.scn"
    scenario.write_text(TWO_VCPU_SCENARIO.format(mode=mode, estimators=estimators))
    assert main(["run", str(scenario), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == TWO_VCPU_JSON_SHA256[mode]


def test_gen_malformed_flag_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--pattern", "rwrw", "--pages", "not-a-number", "-o", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


def test_gen_invalid_spec_exit1(tmp_path, capsys):
    rc = main(["gen", "--pattern", "wi", "--wi", "140", "--pages", "10",
               "-o", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "wi" in capsys.readouterr().err


def test_gen_negative_seed_exit1(tmp_path, capsys):
    rc = main(["gen", "--pattern", "wi", "--pages", "10", "--seed", "-3",
               "-o", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "workload.seed" in capsys.readouterr().err


def test_gen_access_count_bounded_exit1(tmp_path, capsys):
    # The WorkloadSpec refuses the count when built, so this asks for no memory.
    rc = main(["gen", "--pattern", "rwrw", "--pages", "1000000000000",
               "-o", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "workload.n_pages" in capsys.readouterr().err


def test_run_summary_and_exit0(scn, capsys):
    assert main(["run", scn]) == 0
    out = capsys.readouterr().out
    assert "mode=paml" in out
    assert "prl: wss=200" in out


def test_run_json(scn, capsys):
    assert main(["run", scn, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "paml"
    assert data["estimates"]["prl"]["wss_pages"] == 200
    assert data["estimates"]["prl"]["converged"] is True


def test_run_writes_report_csv(scn, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["run", scn, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("key,value\n")
    assert "wss_prl_pages,200" in text
    assert "overhead_percent,0.000000000" in text


def test_run_missing_file_exit2(capsys):
    assert main(["run", "/no/such/file.scn"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario_exit1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("workload.pattern = rwrw\nworkload.n_pages = 8\nmystery = 1\n")
    assert main(["run", str(bad)]) == 1
    assert "unknown scenario key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,named",
    [(b"workload.pattern = rwrw\nworkload.n_pages = 8 # \xe9t\xe9\n", "bad.scn"),
     (b"workload.trace = t\x00.csv\n", "workload.trace"),
     (b"workload.pattern = rwrw\nworkload.n_pages = 8\ntlb.replacement = lru\n",
      "unknown scenario key"),
     (b"workload.pattern = rwrw\nworkload.n_pages = 8\n"
      b"workload.inter_access_gap_ns = 9223372036854775808\n", "workload.inter_access_gap_ns"),
     (b"workload.pattern = rwrw\nworkload.n_pages = 1000000000000\n", "workload.n_pages"),
     (b"workload.pattern = rwrw\nworkload.n_pages = 8\nworkload.d_iters = 1000000000000\n",
      "workload.n_pages"),
     (b"workload.pattern = rwrw\nworkload.n_pages = 8\ntracking.mode = off\n",
      "mode: unknown mode 'off' (expected one of pml, paml)")],
    ids=["not-utf8", "nul-in-trace-path", "removed-tlb-replacement", "gap-past-int64",
         "pages-past-max-accesses", "passes-past-max-accesses", "removed-mode-off"],
)
def test_run_rejected_scenario_exit1(tmp_path, capsys, data, named):
    # not-utf8, nul-in-trace-path and gap-past-int64 used to end in a
    # UnicodeDecodeError, ValueError or OverflowError traceback; the two
    # 10^12-page and 10^12-pass workloads passed validation, and generating
    # them would have asked for about 10^12 accesses.
    bad = tmp_path / "bad.scn"
    bad.write_bytes(data)
    assert main(["run", str(bad)]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key", ["estimator.mu_s", "vmware.period_s"])
def test_run_interval_below_1ns_exit1(tmp_path, capsys, key):
    # Values rounding to 0 ns used to end in a ZeroDivisionError traceback
    # (mu_s) or an endless sampling loop (vmware.period_s).
    bad = tmp_path / "bad.scn"
    bad.write_text("workload.pattern = rwrw\nworkload.n_pages = 8\n"
                   f"estimators = prl, vmware\n{key} = 1e-10\n")
    assert main(["run", str(bad)]) == 1
    assert key.split(".")[1] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_vmware_sample_larger_than_allocation_exit1(tmp_path, capsys, command):
    # The default 100 samples cannot be drawn from 3 pages; the run used to
    # fail inside the sampling baseline with a message naming sample_size alone.
    bad = tmp_path / "bad.scn"
    bad.write_text("workload.pattern = rwrw\nworkload.n_pages = 3\nvm_pages = 3\n"
                   "estimators = prl, vmware\n")
    assert main([command, str(bad)]) == 1
    assert "vmware.sample_size" in capsys.readouterr().err


def test_run_bad_trace_file_exit2(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("0,0,7,X\n")
    scn = tmp_path / "s.scn"
    scn.write_text("workload.trace = t.csv\n")
    assert main(["run", str(scn)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_run_trace_field_out_of_range_exit2(tmp_path, capsys):
    # Used to end in an OverflowError traceback from numpy.
    (tmp_path / "t.csv").write_text("0,0,1,R\n0,0,9223372036854775808,R\n")
    scn = tmp_path / "s.scn"
    scn.write_text("workload.trace = t.csv\n")
    assert main(["run", str(scn)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_run_crlf_trace_exit2(tmp_path, capsys):
    # CRLF line endings were read before the reader took one grammar.
    (tmp_path / "t.csv").write_bytes(b"0,0,1,R\r\n5,0,2,W\r\n")
    scn = tmp_path / "s.scn"
    scn.write_text("workload.trace = t.csv\n")
    assert main(["run", str(scn)]) == 2
    assert "line 1: bad op code" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_run_non_seekable_trace_exit1(tmp_path, capsys):
    # The reader counts a file's lines before it parses them, so it cannot
    # read a pipe.
    fifo = tmp_path / "t.csv"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as f:
                f.write(b"0,0,1,R\n")
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    scn = tmp_path / "s.scn"
    scn.write_text("workload.trace = t.csv\n")
    assert main(["run", str(scn)]) == 1
    writer.join(timeout=10)
    assert "workload.trace: the stream is not seekable" in capsys.readouterr().err


def test_trace_page_past_vmware_range_exit1(tmp_path, capsys):
    # Page 2^63 - 1 makes a 2^63-page allocation, which the sampling baseline
    # cannot draw from: compare used to end in an OverflowError traceback.
    (tmp_path / "big.csv").write_text("0,0,9223372036854775807,R\n100,0,5,W\n")
    scn = tmp_path / "s.scn"
    scn.write_text("workload.trace = big.csv\n")
    assert main(["compare", str(scn)]) == 1
    assert "vm_pages" in capsys.readouterr().err
    assert main(["run", str(scn)]) == 0


def test_compare_rows(scn, capsys):
    assert main(["compare", scn]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "estimator,wss_pages,error_pages,full_events,missed_gpas,overhead_percent"
    assert len(lines) == 5
    oracle = [l for l in lines if l.startswith("oracle,")][0]
    assert oracle.split(",")[2] == "0"


COLD_PREFIX_SCENARIO = """
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


def test_compare_cold_prefix_pml_error_is_cold_page_count(tmp_path, capsys):
    scn = tmp_path / "cold.scn"
    scn.write_text(COLD_PREFIX_SCENARIO)
    assert main(["compare", str(scn)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert rows["pml"][1] == "1000"
    assert rows["pml"][2] == "900"  # N - M cold pages counted as hot
    assert int(rows["prl"][2]) <= 1


def test_dist_single_hot_page_series(tmp_path, capsys):
    scn = tmp_path / "one.scn"
    # a single page stays TLB-resident, so it walks exactly once
    scn.write_text(
        "workload.pattern = wi\nworkload.wi = 100\nworkload.n_pages = 1\n"
        "workload.d_iters = 400\nestimator.tau = 1\n"
        "estimator.mu_s = 0.000005\nestimator.omega_s = 0.00002\n"
        "estimators = prl\nseed = 2\n"
    )
    assert main(["dist", str(scn)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    dist = [int(l.split(",")[2]) for l in lines[1:]]
    assert max(dist) == 1
    assert dist == sorted(dist)
    assert dist[-1] == 1


def test_compare_deterministic_bytes(scn, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", scn, "-o", str(a)]) == 0
    assert main(["compare", scn, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_multiple_scenarios(scn, pml_scn, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["compare", scn, pml_scn, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("scenario,estimator,")
    assert text.splitlines()[1].startswith("small,")
    assert len(text.strip().splitlines()) == 1 + 8


def test_dist_series_monotone_with_convergence_flag(scn, capsys):
    assert main(["dist", scn]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,t_ns,dist,is_convergence_point"
    rows = [line.split(",") for line in lines[1:]]
    dist = [int(r[2]) for r in rows]
    assert dist == sorted(dist)
    flags = [int(r[3]) for r in rows]
    assert sum(flags) == 1
    k = 4  # omega / mu in the scenario
    first = next(i for i in range(len(dist)) if i >= k and dist[i] == dist[i - k])
    assert flags.index(1) == first


def test_dist_pml_mode_uses_distinct_series(pml_scn, capsys):
    assert main(["dist", pml_scn]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert int(lines[-1].split(",")[2]) == 1024


def test_outdir_env_resolves_relative_outputs(scn, tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    monkeypatch.setenv("PAGELOG_OUTDIR", str(outdir))
    assert main(["compare", scn, "-o", "cmp.csv"]) == 0
    assert (outdir / "cmp.csv").exists()
