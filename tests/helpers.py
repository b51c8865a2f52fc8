"""Shared test utilities.

``reference_run`` replays a trace by composing the public per-access APIs
one access at a time, with non-incremental hot counting. It fires due
handler completions and observations before every access, where the engine
fires them before walks only, so it is an independent route to the same
semantics as ``pagelog.sim.run``. It is used to cross-check the engine on
small scenarios, and to expose per-walk outcomes (e.g. which pages were
dropped) that the engine does not report. Like the engine, it returns its
trackers by vCPU id, so ``counters`` compares each vCPU's counters.

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

from types import SimpleNamespace
from typing import BinaryIO, Optional

import numpy as np

from pagelog.errors import TraceParseError, ValidationError
from pagelog.estimator import MAX_VMWARE_PERIODS, EstimatorParams, whole_ns
from pagelog.handler import CumulativeLog, batch_duration_ns, handle_full
from pagelog.mmu import TLB_HIT, TLB_WALK_DIRTY, Tlb, TlbConfig
from pagelog.tracker import (
    OBS_DROPPED,
    OBS_FULL,
    Tracker,
    TrackingConfig,
    TrackingMode,
)
from pagelog.trace import Pattern, Trace, WorkloadSpec


def reference_run(trace: Trace, tracking: TrackingConfig, tlb_config: TlbConfig,
                  params: EstimatorParams):
    mode = tracking.mode
    synchronous = mode is TrackingMode.PML
    log = CumulativeLog(params.tau)
    vcpus = sorted({int(v) for v in trace.vcpu.tolist()})
    tlbs = {v: Tlb(tlb_config) for v in vcpus}
    trackers = {v: Tracker(tracking) for v in vcpus}

    mu = params.mu_ns
    tau = params.tau
    next_obs = (int(trace.t[0]) if len(trace) else 0) + mu
    observations = []
    pending: list[Tracker] = []
    batch = None
    busy_until = 0
    walks = 0
    dropped_pages: set[int] = set()

    def hot_count():
        return sum(1 for c in log.counts.values() if c >= tau)

    def fire(now):
        nonlocal batch, busy_until, next_obs
        while True:
            ct = busy_until if batch is not None else None
            if (ct is None or ct >= now) and next_obs >= now:
                return
            if ct is not None and ct <= next_obs:
                handle_full(batch, log)
                batch = None
                if pending:
                    nb = pending[:]
                    pending.clear()
                    batch = nb
                    busy_until = ct + batch_duration_ns(nb)
            else:
                if synchronous:
                    for v in vcpus:
                        res = trackers[v].drain_residual()
                        if res:
                            log.add_snapshot(res)
                observations.append((next_obs, hot_count(), len(log.counts)))
                next_obs += mu

    for t, vcpu, gppn, is_write in zip(trace.t.tolist(), trace.vcpu.tolist(),
                                       trace.gppn.tolist(), trace.is_write.tolist()):
        fire(t)
        code = tlbs[vcpu].lookup_raw(gppn, is_write)
        if code == TLB_HIT:
            continue
        walks += 1
        tracker = trackers[vcpu]
        outcome = tracker.observe_raw(gppn, code == TLB_WALK_DIRTY)
        if outcome == OBS_DROPPED:
            dropped_pages.add(gppn)
        elif outcome == OBS_FULL:
            if synchronous:
                handle_full((tracker,), log)
            else:
                pending.append(tracker)
                if batch is None:
                    batch = pending[:]
                    pending.clear()
                    busy_until = t + batch_duration_ns(batch)

    end_t = int(trace.t[-1]) if len(trace) else 0
    fire(end_t + 1)
    while batch is not None:
        handle_full(batch, log)
        batch = None
        if pending:
            batch = pending[:]
            pending.clear()
    for v in vcpus:
        res = trackers[v].drain_residual()
        if res:
            log.add_snapshot(res)
    if len(trace):
        observations.append((end_t, hot_count(), len(log.counts)))

    return SimpleNamespace(
        walks=walks,
        trackers=trackers,
        log=log,
        observations=observations,
        dropped_pages=dropped_pages,
    )


def counters(trackers: dict) -> dict:
    """``{vcpu: (full_events, missed_gpas, logged, vm_stall_ns)}`` of a run's trackers."""
    return {v: (t.full_events, t.missed_gpas, t.logged, t.vm_stall_ns) for v, t in trackers.items()}


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
