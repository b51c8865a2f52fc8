"""Correctness checks over the program's reports.

Each check returns a list of failure strings, empty when the report passes,
so that a test can tamper with one field and see exactly that check fire.
Reports are read through ``SimReport.to_json_dict()``, the serialised report
whose existing keys later changes keep (new counters are only appended).
"""

from __future__ import annotations

from workloads import Reference

# Fields pinned at the default seed, per engine pass.
PINNED = ("walks", "logged", "full_events", "missed_gpas", "log_distinct")

# Estimators that read the hardware log; their errors make up log_error_pages.
LOG_ESTIMATORS = ("prl", "pml")


def _expect(failures: list, name: str, ok: bool, detail: str) -> None:
    if not ok:
        failures.append(f"{name}: {detail}")


def check_pass(report: dict, ref: Reference, buffer_entries: int, vmexit_cost_ns: int) -> list:
    """Conservation laws of one engine pass, and the oracle against numpy."""
    f: list = []
    mode = report["mode"]
    walks, logged = report["walks"], report["logged"]
    full, missed, stall = report["full_events"], report["missed_gpas"], report["vm_stall_ns"]
    _expect(f, "trace_len", report["trace_len"] == ref.accesses,
            f"{report['trace_len']} != {ref.accesses} accesses")
    oracle = report["estimates"].get("oracle", {}).get("wss_pages")
    _expect(f, "oracle", oracle == ref.oracle_pages,
            f"{oracle} != {ref.oracle_pages} pages referenced >= tau times")
    if mode == "paml":
        _expect(f, "paml walks", walks == logged + full + missed,
                f"walks {walks} != logged {logged} + full_events {full} + missed_gpas {missed}")
        _expect(f, "paml log_total", report["log_total"] == logged,
                f"log_total {report['log_total']} != logged {logged}")
        _expect(f, "paml vm_stall_ns", stall == 0, f"{stall} != 0")
    elif mode == "pml":
        # Dirty flags are never cleared and each vCPU's TLB keeps its own, so
        # every distinct (vCPU, page) write is logged exactly once.
        _expect(f, "pml logged", logged == ref.written_pairs,
                f"{logged} != {ref.written_pairs} distinct (vcpu, page) writes")
        _expect(f, "pml log_distinct", report["log_distinct"] == ref.written_pages,
                f"{report['log_distinct']} != {ref.written_pages} distinct written pages")
        _expect(f, "pml vm_stall_ns", stall == full * vmexit_cost_ns,
                f"{stall} != full_events {full} x {vmexit_cost_ns} ns")
        # <=, not ==: every observation drains partial buffers (flush-on-query).
        _expect(f, "pml full_events", full <= logged // buffer_entries,
                f"{full} > logged {logged} // {buffer_entries}")
    else:
        f.append(f"mode: unexpected mode {mode!r}")
    return f


def estimator_errors(reports: dict) -> dict:
    """|estimate - oracle| per estimator, over all passes of one run."""
    errors = {}
    for report in reports.values():
        estimates = report["estimates"]
        oracle = estimates["oracle"]["wss_pages"]
        for name, est in estimates.items():
            if name != "oracle":
                errors[name] = abs(est["wss_pages"] - oracle)
    return errors


def check_rows(rows: dict, errors: dict) -> list:
    """The paired comparison's error column against the reports' estimates.

    ``rows`` maps estimator name to the ``error_pages`` the comparison printed.
    """
    f: list = []
    for name, err in errors.items():
        _expect(f, f"row {name}", rows.get(name) == err,
                f"error_pages {rows.get(name)} != |estimate - oracle| {err}")
    return f


def pinned(reports: dict) -> dict:
    """The pinned fields of each pass, as JSON-compatible values."""
    out = {}
    for mode, report in reports.items():
        fields = {k: report[k] for k in PINNED}
        fields["estimates"] = {
            name: {"wss_pages": est["wss_pages"], "converged_index": est["converged_index"]}
            for name, est in sorted(report["estimates"].items())
        }
        out[mode] = fields
    return out


def check_pins(got: dict, want: dict) -> list:
    """Pinned fields against the values recorded from the seed code."""
    f: list = []
    for mode in sorted(set(got) | set(want)):
        g, w = got.get(mode), want.get(mode)
        if g is None or w is None:
            f.append(f"pin {mode}: pass missing ({'recorded' if g is None else 'produced'} only)")
            continue
        for key in sorted(set(g) | set(w)):
            _expect(f, f"pin {mode}.{key}", g.get(key) == w.get(key),
                    f"{g.get(key)} != recorded {w.get(key)}")
    return f


def check_same(got: dict, want: dict, what: str) -> list:
    """Two runs of the same inputs must report identical simulated results."""
    if got == want:
        return []
    diff = sorted(k for mode in set(got) | set(want)
                  for k in set(got.get(mode, {})) | set(want.get(mode, {}))
                  if got.get(mode, {}).get(k) != want.get(mode, {}).get(k))
    return [f"{what}: reports differ in {', '.join(diff) or 'passes'}"]
