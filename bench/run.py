#!/usr/bin/env python3
"""Host-time benchmark of the pagelog pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paml_rwrw --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop with a single caller: each
operation loads the scenario, materialises its trace and runs the simulate
call, and the next operation starts when it returns. Operations repeat until
``--seconds`` have passed (at least ``MIN_ROUNDS``) and every one is
checked for correctness. The process moves between its allowed CPUs every
``MOVE_EVERY_S``. A host time is the minimum over the operations, scaled by
the host's speed in the run as a fixed reference loop measures it (see
``REF_S``). With ``--trace 1`` untraced and traced operations
alternate, and the per-layer metrics of the traced ones are reported instead
of the end-to-end metrics.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (machine, versions, inputs, estimates). The exit code is 0 when
every check passed, 1 when one failed and 2 when the program cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
MIN_ROUNDS = 3  # operations, or untraced/traced pairs with --trace 1, however short --seconds
MOVE_EVERY_S = 2.0  # seconds on one CPU before the run moves to the next

# Host-speed reference: a fixed pure-Python loop of dict and list work, like
# the simulator's per-access path, run after every operation. Other tenants
# slow the whole machine by up to 2x for minutes, longer than a run, and they
# slow this loop much as they slow the program. Every host time reported is
# the run's fastest time scaled by REF_S / (the loop's fastest time), so it
# reads as host seconds on a machine where the loop takes REF_S (about its
# time on an idle 2-vCPU Xeon VM); the raw times are in the run record. The
# loop does not depend on the program, so a change to the program moves the
# scaled time as it moves the raw one.
REF_PAGES = 8_192
REF_KEYS = [(i * 7919) % REF_PAGES for i in range(100_000)]
REF_TABLE = {key: [key, 0] for key in range(REF_PAGES)}
REF_S = 4.5e-3

END_TO_END = {
    "setup_s": "s",
    "sim_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "log_error_pages": "pages",
    "vmware_error_pages": "pages",
}
PER_LAYER = {
    "mmu.lookup_s": "s",
    "mmu.lookups": "count",
    "mmu.hits": "count",
    "mmu.walks": "count",
    "mmu.dirty_walks": "count",
    "mmu.hit_ratio": "ratio",
    "sim.self_s": "s",
    "sim.engine_passes": "count",
    "tracker.observe_s": "s",
    "tracker.logged": "count",
    "tracker.full_events": "count",
    "tracker.missed_gpas": "count",
    "tracker.logged_ratio": "ratio",
    "tracker.vm_stall_ns": "ns",
    "handler.fold_s": "s",
    "handler.batches": "count",
    "handler.entries": "count",
    "handler.mean_batch_entries": "count",
    "handler.busy_ns": "ns",
    "trace.read_s": "s",
    "trace.read_lines_per_s": "1/s",
    "trace.write_s": "s",
    "trace.generate_s": "s",
    "estimator.oracle_s": "s",
    "estimator.vmware_s": "s",
    "estimator.series_s": "s",
    "estimator.observations": "count",
    "estimator.converged_index": "count",
    "tracing_overhead_s": "s",
}


def import_program(root: Path) -> dict:
    """Import the pagelog modules from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "pagelog" / "__init__.py").is_file():
        raise ImportError(f"no pagelog package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"pagelog.{name}")
            for name in ("trace", "mmu", "tracker", "handler", "estimator", "sim")}
    where = Path(mods["sim"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"pagelog was imported from {where}, not from {src}")
    return mods


@dataclass
class Sample:
    """One operation: its host times and what it produced."""

    setup_s: float
    sim_s: float
    scenario: object
    trace: object          # dropped once verified, so samples do not pile up traces
    accesses: int
    reports: dict          # pass name -> SimReport.to_json_dict()
    rows: dict | None      # paired comparison: estimator -> error_pages


def operation(pm: dict, wl: workloads.Workload) -> Sample:
    """Load, materialise and simulate once; only the program's calls are timed."""
    sim, trace_mod = pm["sim"], pm["trace"]
    t0 = time.perf_counter()
    scenario = sim.load_scenario(wl.scenario_path)
    if scenario.workload is not None:
        trace = trace_mod.generate(scenario.workload)
    else:
        trace = trace_mod.read_trace_file(scenario.trace_path)
    t1 = time.perf_counter()
    if wl.paired:
        result = sim.run_paired(scenario, trace=trace)
    else:
        result = sim.run(scenario, trace=trace)
    t2 = time.perf_counter()
    if wl.paired:
        reports = {mode: r.to_json_dict() for mode, r in result.reports.items()}
        rows = {row.estimator: row.error_pages for row in result.rows}
    else:
        reports = {result.mode: result.to_json_dict()}
        rows = None
    return Sample(t1 - t0, t2 - t1, scenario, trace, len(trace), reports, rows)


class Verifier:
    """Runs every check on every operation; the first one fixes the references."""

    def __init__(self, wl: workloads.Workload, pins: dict | None):
        self.wl = wl
        self.pins = pins
        self.ref: workloads.Reference | None = None
        self.first: dict | None = None
        self.seen: set = set()

    def __call__(self, s: Sample) -> list:
        wl, trace = self.wl, s.trace
        tau = s.scenario.estimator.tau
        if self.ref is None:
            if wl.replay_columns is not None:
                _, vcpu, gppn, is_write = wl.replay_columns
            else:
                vcpu, gppn, is_write = trace.vcpu, trace.gppn, trace.is_write
            self.ref = workloads.reference(vcpu, gppn, is_write, tau)
            self.first = s.reports
        f: list = []
        if len(trace) != wl.expected_len:
            f.append(f"trace: {len(trace)} accesses, expected {wl.expected_len}")
        if wl.replay_columns is not None:
            cols = (trace.t, trace.vcpu, trace.gppn, trace.is_write)
            if not all(np.array_equal(a, b) for a, b in zip(cols, wl.replay_columns)):
                f.append("trace: file read back differs from the columns written")
        tracking = s.scenario.tracking
        for report in s.reports.values():
            f += checks.check_pass(report, self.ref, tracking.buffer_entries, tracking.vmexit_cost_ns)
        if s.rows is not None:
            f += checks.check_rows(s.rows, checks.estimator_errors(s.reports))
        f += checks.check_same(s.reports, self.first, "repeat")
        if self.pins is not None:
            f += checks.check_pins(checks.pinned(s.reports), self.pins)
        for msg in f:
            if msg not in self.seen:
                self.seen.add(msg)
                print(f"check failed: {msg}", file=sys.stderr)
        return f


def git_revision(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(ROOT),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Measured:
    """Everything one run's operations produced."""

    plain: list            # untraced samples
    traced: list           # traced samples
    layers: list           # per-layer values of each traced sample
    absent: set            # wrapped names the package does not have
    raised: int            # operations that raised
    failed: int            # operations that raised or failed a check
    reference: list        # host time of the reference loop after each operation


def reference_loop() -> float:
    """Host time of the second of two passes of the fixed reference loop.

    The first pass, untimed, brings the table back into the caches, so that
    what the operation before left there does not change the time.
    """
    table = REF_TABLE
    for key in REF_KEYS:
        table[key][1] += 1
    t0 = time.perf_counter()
    for key in REF_KEYS:
        table[key][1] += 1
    return time.perf_counter() - t0


def allowed_cpus() -> list:
    """The CPUs this process may run on, before the run moves between them."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def measure(pm: dict, wl: workloads.Workload, seconds: float, traced: bool,
            verify: Verifier) -> Measured:
    """Run operations for ``seconds``, untraced and traced in turn when ``traced``."""
    m = Measured([], [], [], set(), 0, 0, [])
    cal = tracing.calibrate() if traced else None
    cpus = allowed_cpus()
    deadline = time.perf_counter() + seconds
    rounds = moves = 0
    next_move = 0.0
    while time.perf_counter() < deadline or rounds < MIN_ROUNDS:
        if len(cpus) > 1 and time.perf_counter() >= next_move:
            # Move to the next allowed CPU every MOVE_EVERY_S: when other
            # tenants slow one of them, the rounds on the others still run
            # undisturbed. Rarely, so few operations start on cold caches.
            os.sched_setaffinity(0, {cpus[moves % len(cpus)]})
            moves += 1
            next_move = time.perf_counter() + MOVE_EVERY_S
        rounds += 1
        for use_tracer in ((False, True) if traced else (False,)):
            tracer = tracing.Tracer(cal) if use_tracer else None
            gc.collect()  # every operation starts from the same heap, untimed
            try:
                if tracer is None:
                    s = operation(pm, wl)
                else:
                    with tracer:
                        s = operation(pm, wl)
            except Exception:  # the loop must go on and count the failure
                traceback.print_exc()
                m.raised += 1
                m.failed += 1
                continue
            m.failed += bool(verify(s))
            s.trace = None
            m.reference.append(reference_loop())
            if tracer is None:
                m.plain.append(s)
            else:
                m.traced.append(s)
                m.layers.append(tracer.metrics(s.reports, s.accesses))
                m.absent.update(tracer.absent)
    return m


def timing_summary(values: list) -> dict:
    """Sample count, minimum, median, and the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    out = {"n": len(xs), "min": xs[0], "median": median(xs)}
    if len(xs) > 10:
        out["tail"] = {"percentile": 100 * (len(xs) - 10) / len(xs), "value": xs[-11]}
    return out


def end_to_end(plain: list, wl_errors: dict, scale: float) -> dict:
    setup_s = min(s.setup_s for s in plain) * scale
    sim_s = min(s.sim_s for s in plain) * scale
    accesses = plain[0].accesses
    log_err = sum(v for k, v in wl_errors.items() if k in checks.LOG_ESTIMATORS)
    values = {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "accesses_per_s": accesses / (setup_s + sim_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "log_error_pages": log_err,
        "vmware_error_pages": wl_errors.get("vmware", 0),
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}


def per_layer(m: Measured, write_s: float | None, scale: float) -> dict:
    values = {key: min(d[key] for d in m.layers if key in d)
              for key in set().union(*m.layers)}
    if write_s is not None:
        values["trace.write_s"] = write_s
    values["tracing_overhead_s"] = (min(t.setup_s + t.sim_s for t in m.traced)
                                    - min(p.setup_s + p.sim_s for p in m.plain))
    for key in values:
        if PER_LAYER.get(key) == "s":
            values[key] *= scale
    read_s = values.get("trace.read_s")
    if read_s is not None:
        values["trace.read_lines_per_s"] = m.traced[0].accesses / read_s if read_s else 0.0
    return {k: _metric(values[k], PER_LAYER[k]) for k in PER_LAYER if k in values}


def write_replay_trace(pm: dict, wl: workloads.Workload) -> None:
    """Write the replay workload's trace file through the program's own writer."""
    t, vcpu, gppn, is_write = wl.replay_columns
    trace = pm["trace"].Trace(t, vcpu, gppn, is_write,
                              ground_truth_wss_pages=workloads.REPLAY_HOT[wl.size])
    pm["trace"].write_trace_file(trace, wl.scenario_path.parent / workloads.REPLAY_FILE)


def run_workload(pm: dict, name: str, seed: int, seconds: float, traced: bool,
                 size: str, workdir: Path) -> tuple:
    """Prepare, measure and verify one workload; returns (result, record)."""
    wl = workloads.prepare(name, seed, size, workdir)
    write_s = None
    if wl.replay_columns is not None:
        if traced:
            with tracing.Tracer(tracing.Calibration()) as tracer:
                write_replay_trace(pm, wl)
            write_s = tracer.total.get("trace.write_s")
        else:
            write_replay_trace(pm, wl)
    pins = None
    if seed == DEFAULT_SEED and size == "full":
        pins = json.loads(PINS.read_text(encoding="utf-8")).get(name, {})
    verify = Verifier(wl, pins)
    cpus = allowed_cpus()
    m = measure(pm, wl, seconds, traced, verify)
    attempted = len(m.plain) + len(m.traced) + m.raised
    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": traced,
        "machine": machine(),
        "load": "closed loop, one caller, one thread",
        "cpus": cpus,
    }
    if not m.plain or (traced and not m.traced):
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(m.failed, 1),
                "metrics": {}}, record
    first = m.plain[0]
    errors = checks.estimator_errors(first.reports)
    record["input"] = {
        "accesses": first.accesses,
        "pages": verify.ref.pages,
        "vcpus": verify.ref.vcpus,
        "modes": list(first.reports),
        "engine_call": "sim.run_paired" if wl.paired else "sim.run",
    }
    record["reference"] = verify.ref.as_dict()
    record["pinned"] = checks.pinned(first.reports)
    record["errors"] = errors
    record["operations"] = {
        "untraced": len(m.plain),
        "traced": len(m.traced),
        "setup_s": timing_summary([s.setup_s for s in m.plain]),
        "sim_s": timing_summary([s.sim_s for s in m.plain]),
        "reference_s": timing_summary(m.reference),
    }
    scale = REF_S / min(m.reference)
    record["scale"] = scale
    if traced:
        record["absent"] = sorted(m.absent)
        metrics = per_layer(m, write_s, scale)
    else:
        metrics = end_to_end(m.plain, errors, scale)
    result = {"correct": m.failed == 0, "attempted": attempted, "failed": m.failed,
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs every workload at a small size, for self-tests")
    args = parser.parse_args(argv)
    try:
        pm = import_program(ROOT)
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            result, record = run_workload(pm, args.workload, args.seed, args.seconds,
                                          bool(args.trace), args.size, Path(tmp))
    finally:
        try:
            work.rmdir()
        except OSError:
            pass
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
