"""Per-layer tracing, built from outside the package by wrapping its public calls.

Coarse calls (trace I/O, the simulate call, handler batches, estimators) are
timed on every call, with nested time charged to the enclosing call so that a
layer's self time can be taken. Per-access calls (``Tlb.lookup_raw`` and
``Tracker.observe_raw``, millions per run) count every call and its return
code but time only every ``SAMPLE_EVERY``-th call, and their time is scaled up
from the sample: a timer around every call costs more than the call itself.

The wrappers replace each function wherever a ``pagelog`` module holds it,
because ``pagelog.sim`` binds ``handle_full`` and the estimators at import.
A name the package no longer has is reported absent; the layer's metrics
are then left out rather than failing the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from statistics import median

# Odd and prime, so that no short periodic access pattern (RWRW alternates
# a walking read and a hitting write) aligns with the sampled calls.
SAMPLE_EVERY = 31

# (module, attribute path, metric key). Keys ending in _s are timed layers;
# "sim" is the simulate call whose self time is the engine loop.
COARSE = (
    ("pagelog.trace", "generate", "trace.generate_s"),
    ("pagelog.trace", "read_trace_file", "trace.read_s"),
    ("pagelog.trace", "write_trace_file", "trace.write_s"),
    ("pagelog.handler", "handle_full", "handler.fold_s"),
    ("pagelog.handler", "CumulativeLog.add_snapshot", "handler.fold_s"),
    ("pagelog.estimator", "estimate_oracle", "estimator.oracle_s"),
    ("pagelog.estimator", "estimate_vmware", "estimator.vmware_s"),
    ("pagelog.estimator", "estimate_from_series", "estimator.series_s"),
    ("pagelog.sim", "run", "sim"),
    ("pagelog.sim", "run_paired", "sim"),
)
HOT = (
    ("pagelog.mmu", "Tlb.lookup_raw", "mmu.lookup_s"),
    ("pagelog.tracker", "Tracker.observe_raw", "tracker.observe_s"),
)


@dataclass(frozen=True)
class Calibration:
    """Costs the tracer itself adds, subtracted from what it measures."""

    timer_s: float = 0.0     # one back-to-back perf_counter pair
    wrapper_s: float = 0.0   # one call through a per-access wrapper, beyond the call itself


def calibrate(rounds: int = 5, calls: int = 20_000) -> Calibration:
    """Median costs over ``rounds`` batches of ``calls``."""
    pc = time.perf_counter
    timer, wrapper = [], []
    probe = Tracer(Calibration())

    def nothing(obj, a, b):
        return 0

    probe.codes["probe"] = [0, 0, 0, 0]
    probe.sampled["probe"] = [0.0, 0]
    wrapped = probe._hot(nothing, "probe")
    for _ in range(rounds):
        t0 = pc()
        for _ in range(calls):
            pc()
            pc()
        t1 = pc()
        for _ in range(calls):
            nothing(None, 0, 0)
        t2 = pc()
        for _ in range(calls):
            wrapped(None, 0, 0)
        t3 = pc()
        timer.append((t1 - t0) / calls)
        wrapper.append(((t3 - t2) - (t2 - t1)) / calls)
    return Calibration(median(timer), max(0.0, median(wrapper)))


class Tracer:
    """Wraps the package's layer boundaries while installed; one per traced call."""

    def __init__(self, calibration: Calibration):
        self.cal = calibration
        self.total: dict = {}        # key -> seconds, outermost call of that key
        self.child: dict = {}        # key -> seconds spent in other keys' calls inside it
        self.codes: dict = {}        # hot key -> per-return-code call counts
        self.sampled: dict = {}      # hot key -> [seconds, timed calls]
        self.entries = 0             # snapshot entries folded into the cumulative log
        self.batch_entries = 0       # ... of which inside handle_full batches
        self.batches = 0             # handle_full calls
        self.absent: list = []       # wrapped names the package does not have
        self.missing: set = set()    # metric keys left out because of them
        self._frames: list = []      # open coarse calls: [key, child seconds]
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, path, key in COARSE:
            self._patch(module, path, key, lambda fn, k=key, p=path: self._coarse(fn, k, p))
        for module, path, key in HOT:
            self.codes[key] = [0, 0, 0, 0]
            self.sampled[key] = [0.0, 0]
            self._patch(module, path, key, lambda fn, k=key: self._hot(fn, k))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, module: str, path: str, key: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, name = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{path}")
            self.missing.add(key)
            return
        wrapped = make(original)
        if owner_name:
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapped)
            return
        for other_name, other in list(sys.modules.items()):
            if other_name.split(".")[0] != "pagelog" or other is None:
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, wrapped)

    # -- wrappers ---------------------------------------------------------------

    def _coarse(self, fn, key: str, path: str):
        pc = time.perf_counter
        frames = self._frames
        is_fold = path == "CumulativeLog.add_snapshot"
        is_batch = path == "handle_full"

        def wrapped(*args, **kwargs):
            parent = frames[-1] if frames else None
            if is_fold:
                n = len(args[1])
                self.entries += n
                if parent is not None and parent[0] == "handler.fold_s":
                    self.batch_entries += n
            elif is_batch:
                self.batches += 1
            frame = [key, 0.0]
            frames.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                frames.pop()
                if parent is None or parent[0] != key:
                    self.total[key] = self.total.get(key, 0.0) + dt
                    self.child[key] = self.child.get(key, 0.0) + frame[1]
                    if parent is not None:
                        parent[1] += dt
                else:
                    parent[1] += frame[1]

        return wrapped

    def _hot(self, fn, key: str):
        pc = time.perf_counter
        counts = self.codes[key]
        sampled = self.sampled[key]
        every = SAMPLE_EVERY
        countdown = [0]

        def wrapped(obj, a, b):
            n = countdown[0]
            if n:
                countdown[0] = n - 1
                code = fn(obj, a, b)
            else:
                countdown[0] = every - 1
                t0 = pc()
                code = fn(obj, a, b)
                sampled[0] += pc() - t0
                sampled[1] += 1
            counts[code] += 1
            return code

        return wrapped

    # -- results ----------------------------------------------------------------

    def hot_seconds(self, key: str) -> float:
        """Estimated time in a per-access call: sampled time scaled to all calls."""
        seconds, timed = self.sampled[key]
        calls = sum(self.codes[key])
        if not timed:
            return 0.0
        return max(0.0, seconds / timed - self.cal.timer_s) * calls

    def metrics(self, reports: dict, accesses: int) -> dict:
        """Per-layer values of one traced call; ``reports`` are its pass reports.

        A per-access layer the simulate call never entered is left out, like a
        missing one: its counts would read zero while the work happened elsewhere.
        """
        m: dict = {}
        passes = list(reports.values())

        def total(field):
            return sum(r[field] for r in passes)

        hits, walks, dirty, _ = self.codes.get("mmu.lookup_s", (0, 0, 0, 0))
        lookups = hits + walks + dirty
        if lookups:
            m["mmu.lookup_s"] = self.hot_seconds("mmu.lookup_s")
            m["mmu.lookups"] = lookups
            m["mmu.hits"] = hits
            m["mmu.walks"] = walks + dirty
            m["mmu.dirty_walks"] = dirty
            m["mmu.hit_ratio"] = hits / lookups
            m["sim.engine_passes"] = lookups / accesses if accesses else 0.0
        if sum(self.codes.get("tracker.observe_s", ())):
            m["tracker.observe_s"] = self.hot_seconds("tracker.observe_s")
        logged = total("logged")
        m["tracker.logged"] = logged
        m["tracker.full_events"] = total("full_events")
        m["tracker.missed_gpas"] = total("missed_gpas")
        m["tracker.logged_ratio"] = logged / total("walks") if total("walks") else 0.0
        m["tracker.vm_stall_ns"] = total("vm_stall_ns")
        m["handler.busy_ns"] = total("handler_busy_ns")
        for key in ("handler.fold_s", "trace.read_s", "trace.write_s", "trace.generate_s",
                    "estimator.oracle_s", "estimator.vmware_s", "estimator.series_s"):
            if key not in self.missing:
                m[key] = self.total.get(key, 0.0)
        if "handler.fold_s" not in self.missing:
            m["handler.batches"] = self.batches
            m["handler.entries"] = self.entries
            m["handler.mean_batch_entries"] = self.batch_entries / self.batches if self.batches else 0.0
        m["estimator.observations"] = sum(len(r["observations"]) for r in passes)
        native = [e["converged_index"] for r in passes for n, e in sorted(r["estimates"].items())
                  if n in ("prl", "pml")]
        m["estimator.converged_index"] = native[0] if native and native[0] is not None else -1
        if "sim" in self.total and "sim" not in self.missing:
            # The per-access wrappers run inside the simulate call; take out
            # both the time inside them and what they add around each call.
            inner = sum(m.get(k, 0.0) + sum(self.codes[k]) * self.cal.wrapper_s
                        for k in self.sampled if k in m)
            m["sim.self_s"] = self.total["sim"] - self.child.get("sim", 0.0) - inner
        return m
