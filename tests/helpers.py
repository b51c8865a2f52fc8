"""Shared test utilities.

``reference_run`` replays a trace by composing the public per-access APIs
one access at a time, with non-incremental hot counting. It fires due
handler completions and observations before every access, where the engine
fires them before walks only, so it is an independent route to the same
semantics as ``pagelog.sim.run``. It is used to cross-check the engine on
small scenarios, and to expose per-walk outcomes (e.g. which pages were
dropped) that the engine does not report.

``reference_write_trace`` and ``reference_read_trace`` are the trace file
writer and reader as they were before trace I/O moved onto arrays: one
formatted string, and one parsed line, per access. The array paths must
give the same bytes, and the same trace or ``TraceParseError``.
"""

from __future__ import annotations

from dataclasses import astuple
from types import SimpleNamespace
from typing import BinaryIO, Optional

import numpy as np

from pagelog.errors import TraceParseError
from pagelog.estimator import EstimatorParams
from pagelog.handler import CumulativeLog, batch_duration_ns, handle_full
from pagelog.mmu import TLB_HIT, TLB_WALK_DIRTY, Tlb, TlbConfig
from pagelog.tracker import (
    OBS_DROPPED,
    OBS_FULL,
    Tracker,
    TrackerStats,
    TrackingConfig,
    TrackingMode,
)
from pagelog.trace import Trace


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
    pending: list[int] = []
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
                handle_full(batch, log, trackers)
                batch = None
                if pending:
                    nb = pending[:]
                    pending.clear()
                    batch = nb
                    busy_until = ct + batch_duration_ns(nb, trackers)
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
                handle_full((vcpu,), log, trackers)
            else:
                pending.append(vcpu)
                if batch is None:
                    batch = pending[:]
                    pending.clear()
                    busy_until = t + batch_duration_ns(batch, trackers)

    end_t = int(trace.t[-1]) if len(trace) else 0
    fire(end_t + 1)
    while batch is not None:
        handle_full(batch, log, trackers)
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

    stats = TrackerStats(*map(sum, zip(*(astuple(trackers[v].stats()) for v in vcpus))))
    return SimpleNamespace(
        walks=walks,
        stats=stats,
        log=log,
        observations=observations,
        dropped_pages=dropped_pages,
    )


_WSS_SIDECAR = "#wss="
_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1


def reference_write_trace(trace: Trace, sink: BinaryIO) -> None:
    if trace.ground_truth_wss_pages is not None:
        sink.write(f"{_WSS_SIDECAR}{trace.ground_truth_wss_pages}\n".encode("ascii"))
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
    ground_truth: Optional[int] = None
    ts: list[int] = []
    vcpus: list[int] = []
    gppns: list[int] = []
    writes: list[bool] = []
    prev_t = None
    for lineno, raw in enumerate(source, start=1):
        line = raw.decode("ascii", errors="replace").strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1 and line.startswith(_WSS_SIDECAR):
                try:
                    ground_truth = int(line[len(_WSS_SIDECAR):])
                except ValueError:
                    raise TraceParseError("bad #wss sidecar value", lineno) from None
                if ground_truth < 0:
                    raise TraceParseError("negative #wss sidecar value", lineno)
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise TraceParseError(f"expected 4 fields, got {len(parts)}", lineno)
        try:
            t = int(parts[0])
            vcpu = int(parts[1])
            gppn = int(parts[2])
        except ValueError:
            raise TraceParseError("non-integer field", lineno) from None
        op = parts[3]
        if op == "W":
            is_w = True
        elif op == "R":
            is_w = False
        else:
            raise TraceParseError(f"bad op code {op!r} (expected R or W)", lineno)
        if t < 0 or vcpu < 0 or gppn < 0:
            raise TraceParseError("negative field", lineno)
        if t > _INT64_MAX or gppn > _INT64_MAX or vcpu > _INT32_MAX:
            raise TraceParseError("field out of range (t, gppn < 2^63; vcpu < 2^31)", lineno)
        if prev_t is not None and t < prev_t:
            raise TraceParseError("timestamps must be non-decreasing", lineno)
        prev_t = t
        ts.append(t)
        vcpus.append(vcpu)
        gppns.append(gppn)
        writes.append(is_w)
    return Trace(
        np.array(ts, dtype=np.int64),
        np.array(vcpus, dtype=np.int32),
        np.array(gppns, dtype=np.int64),
        np.array(writes, dtype=bool),
        ground_truth_wss_pages=ground_truth,
    )
