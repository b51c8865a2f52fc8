import hashlib
import json

import pytest

from pagelog.cli import main

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


def test_gen_malformed_flag_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--pattern", "rwrw", "--pages", "not-a-number", "-o", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


def test_gen_invalid_spec_exit1(tmp_path, capsys):
    rc = main(["gen", "--pattern", "wi", "--wi", "140", "--pages", "10",
               "-o", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "wi" in capsys.readouterr().err


def test_gen_access_count_bounded_exit1(tmp_path, capsys):
    # generate() validates before it allocates, so this asks for no memory.
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
      "workload.n_pages")],
    ids=["not-utf8", "nul-in-trace-path", "removed-tlb-replacement", "gap-past-int64",
         "pages-past-max-accesses", "passes-past-max-accesses"],
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
