"""Shared test utilities.

``counters`` and ``fields`` read an engine run (``pagelog.sim._simulate``)
under the names of ``spec.run``'s fields, so that a test compares the two
field by field; ``assert_engine_matches_spec`` does so for one trace and
its settings. ``tests/spec.py`` is the one reference model of a run.
``small_traces`` lists every small trace for the exhaustive checks against it.

``reference_write_trace`` is the trace file writer as it was before trace
I/O moved onto arrays: one formatted string per access. ``reference_read_trace``
states the file grammar one line at a time, in plain Python over
``bytes.split``: the first line that breaks it raises its
``TraceParseError``. The array paths must give the same bytes, and the same
trace or ``TraceParseError``.

``reference_generate`` is the workload generator as it was before it built
one pass and repeated it: one pattern pass, with its own ``wi`` draw, per
pass, and the passes concatenated. ``generate`` must give the same trace.

``reference_vmware`` is the sampling baseline as it was before it sampled in
blocks of periods: one sample draw, one ``searchsorted`` and one ``isin`` per
period. ``estimate_vmware`` must give the same series and estimate.
"""

from __future__ import annotations

from typing import BinaryIO, Optional

import numpy as np

import spec
from pagelog.errors import TraceParseError, ValidationError
from pagelog.estimator import MAX_VMWARE_PERIODS, whole_ns
from pagelog.mmu import walk_codes
from pagelog.sim import _simulate
from pagelog.trace import Pattern, Trace, WorkloadSpec


def counters(trackers: dict) -> dict:
    """``{vcpu: (full_events, missed_gpas, logged, vm_stall_ns)}`` of a run's trackers."""
    return {v: (t.full_events, t.missed_gpas, t.logged, t.vm_stall_ns) for v, t in trackers.items()}


def fields(codes, out) -> dict:
    """A run's walk codes and engine output, named as the fields of ``spec.run``."""
    return {"codes": codes.tolist(), "walks": out.walks, "counters": counters(out.trackers),
            "counts": out.log.counts, "log_total": out.log.total,
            "handler_busy_ns": out.handler_busy_ns, "observations": out.observations.tolist()}


def spec_run(trace, tracking, tlb, params):
    """``spec.run`` over ``trace`` with a run's settings."""
    accesses = list(zip(trace.t.tolist(), trace.vcpu.tolist(), trace.gppn.tolist(),
                        trace.is_write.tolist()))
    return spec.run(accesses, tracking.mode.value, tlb.n_sets, tlb.ways, tracking.buffer_entries,
                    tracking.vmexit_cost_ns, tracking.handler_latency_per_entry_ns, params.tau,
                    params.mu_ns)


def assert_engine_matches_spec(trace, tracking, tlb, params):
    """The walk stage and the event loop give ``spec.run``'s fields."""
    codes = walk_codes(trace, tlb)
    assert codes.dtype == np.int8
    got = fields(codes, _simulate(trace, codes, tracking, params))
    want = vars(spec_run(trace, tracking, tlb, params))
    assert got == {name: want[name] for name in got}


def small_traces(max_len, n_pages, n_vcpus):
    """Every non-empty trace of at most ``max_len`` accesses, names by first occurrence."""
    found = []

    def extend(trace, pages, vcpus):
        if trace:
            found.append(trace)
        if len(trace) < max_len:
            for v in range(min(vcpus + 1, n_vcpus)):
                for p in range(min(pages + 1, n_pages)):
                    for w in (False, True):
                        extend(trace + [(v, p, w)], max(pages, p + 1), max(vcpus, v + 1))

    extend([], 0, 0)
    return found


_WSS_SIDECAR = b"#wss="
_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1


def reference_write_trace(trace: Trace, sink: BinaryIO) -> None:
    if trace.ground_truth_wss_pages is not None:
        sink.write(f"#wss={trace.ground_truth_wss_pages}\n".encode("ascii"))
    n = len(trace)
    chunk = 1 << 18
    t = trace.t
    vcpu = trace.vcpu
    gppn = trace.gppn
    w = trace.is_write
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        lines = [
            f"{t[i]},{vcpu[i]},{gppn[i]},{'W' if w[i] else 'R'}"
            for i in range(lo, hi)
        ]
        sink.write(("\n".join(lines) + "\n").encode("ascii"))


def reference_read_trace(source: BinaryIO) -> Trace:
    lines = source.read().split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # after the last LF
    ground_truth: Optional[int] = None
    ts: list[int] = []
    vcpus: list[int] = []
    gppns: list[int] = []
    writes: list[bool] = []
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and line.startswith(b"#"):
            value = line[len(_WSS_SIDECAR):] if line.startswith(_WSS_SIDECAR) else b""
            if value.startswith(b"-") and value[1:].isdigit():
                raise TraceParseError("negative #wss sidecar value", lineno)
            if not value.isdigit() or len(value) > 19 or int(value) > _INT64_MAX:
                raise TraceParseError("bad #wss sidecar value", lineno)
            ground_truth = int(value)
            continue
        parts = line.split(b",")
        if len(parts) != 4:
            raise TraceParseError(f"expected 4 fields, got {len(parts)}", lineno)
        if not all(part.isdigit() for part in parts[:3]):
            raise TraceParseError("non-integer field", lineno)
        op = parts[3].decode("ascii", errors="replace")
        if op not in ("R", "W"):
            raise TraceParseError(f"bad op code {op!r} (expected R or W)", lineno)
        if (len(parts[0]) > 19 or len(parts[1]) > 10 or len(parts[2]) > 19
                or int(parts[0]) > _INT64_MAX or int(parts[1]) > _INT32_MAX
                or int(parts[2]) > _INT64_MAX):
            raise TraceParseError("field out of range (t, gppn < 2^63; vcpu < 2^31)", lineno)
        t = int(parts[0])
        if ts and t < ts[-1]:
            raise TraceParseError("timestamps must be non-decreasing", lineno)
        ts.append(t)
        vcpus.append(int(parts[1]))
        gppns.append(int(parts[2]))
        writes.append(op == "W")
    return Trace(
        np.array(ts, dtype=np.int64),
        np.array(vcpus, dtype=np.int32),
        np.array(gppns, dtype=np.int64),
        np.array(writes, dtype=bool),
        ground_truth_wss_pages=ground_truth,
    )


def _reference_pattern_pass(spec: WorkloadSpec, n: int, rng: np.random.Generator):
    idx = np.arange(n, dtype=np.int64)
    if spec.pattern is Pattern.WRITE_INTENSITY:
        pages = idx
        writes = rng.integers(0, 100, size=n) < spec.wi
    elif spec.pattern is Pattern.RWRW:
        pages = np.repeat(idx, 2)
        writes = np.tile(np.array([False, True]), n)
    elif spec.pattern is Pattern.RRWW:
        pages = np.concatenate([idx, idx])
        writes = np.concatenate([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    else:
        pages = np.concatenate([idx, idx])
        writes = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
    return pages, writes


def reference_generate(spec: WorkloadSpec) -> Trace:
    rng = np.random.default_rng(spec.seed)
    n_main = spec.effective_hot_pages if spec.cold_prefix else spec.n_pages
    page_chunks = []
    write_chunks = []
    if spec.cold_prefix:
        page_chunks.append(np.arange(spec.n_pages, dtype=np.int64))
        write_chunks.append(np.ones(spec.n_pages, dtype=bool))
    for _ in range(spec.d_iters):
        pages, writes = _reference_pattern_pass(spec, n_main, rng)
        page_chunks.append(pages)
        write_chunks.append(writes)
    gppn = np.concatenate(page_chunks)
    is_write = np.concatenate(write_chunks)
    total = len(gppn)
    t = np.arange(total, dtype=np.int64) * spec.inter_access_gap_ns
    vcpu = np.zeros(total, dtype=np.int32)
    return Trace(t, vcpu, gppn, is_write, ground_truth_wss_pages=n_main)


def reference_vmware(trace: Trace, allocated_pages: int, sample_size: int, period_s: float,
                     seed: int, until_ns: Optional[int] = None) -> tuple:
    """``(observations, wss_pages)`` of the sampling baseline, one period at a time."""
    period_ns = whole_ns("period_s", period_s)
    t = trace.t
    g = trace.gppn
    t0 = int(t[0]) if len(t) else 0
    if until_ns is None:
        until_ns = int(t[-1]) if len(t) else 0
    n_periods = (until_ns - t0) // period_ns
    if n_periods > MAX_VMWARE_PERIODS:
        raise ValidationError("vmware.period_s: too many sampling periods")
    rng = np.random.default_rng(seed)
    per_period: list[int] = []
    for k in range(max(n_periods, 1)):
        start = t0 + k * period_ns
        end = start + period_ns if n_periods > 0 else until_ns + 1
        sample = rng.choice(allocated_pages, size=sample_size, replace=False)
        lo, hi = np.searchsorted(t, (start, end), side="left")
        faulted = int(np.isin(sample, g[lo:hi]).sum())
        per_period.append(round(faulted / sample_size * allocated_pages))
    return tuple(per_period), per_period[-1]
