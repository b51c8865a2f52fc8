"""Deterministic virtual-time simulation binding trace, TLB, tracker and handler.

One run replays a trace through per-vCPU TLBs; every walk feeds that vCPU's
logging hardware; full buffers flow to the handler; the VM's cumulative log
is observed every ``mu`` of virtual time to build the estimation series.

The engine has two stages. The walk stage, ``mmu.walk_codes``, yields one
TLB outcome per access, once per trace: dirty flags are never cleared, so
the outcomes depend on no tracker or handler state, nor on the mode. The
event loop then runs over the walks the mode can log, every walk in paml and
dirty walks in pml (other walks are ignored and change no state). Only those
walks change state, so due completions and observations fired before each
of them come out the same as if they were fired before every access.

Event ordering is fixed: within one virtual instant, VM accesses are
processed first, then due handler completions, then estimator observations.
Virtual time comes exclusively from trace timestamps and configured costs;
no wall clock is consulted anywhere, so identical scenarios produce
identical reports.

Full rounds reach the cumulative log only through ``handle_full``. Write-only
(PML) full events are handled synchronously: the VM is stalled, the round is
folded at the same instant, and the stall is charged to the VM's effective
runtime. All-access (PAML) full events are queued for an asynchronous
handler invocation; the transfer becomes visible when the invocation's
virtual duration elapses, and walks arriving in between are dropped.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import trace as trace_mod
from .errors import ValidationError
from .estimator import (
    EstimatorParams,
    VmwareParams,
    WssEstimate,
    estimate_from_series,
    estimate_oracle,
    estimate_vmware,
)
from .handler import CumulativeLog, batch_duration_ns, handle_full
from .mmu import TLB_WALK_DIRTY, TlbConfig, walk_codes
from .tracker import OBS_FULL, Tracker, TrackingConfig, TrackingMode
from .trace import Trace, WorkloadSpec, decimal_rows, generate, read_trace_file

ESTIMATOR_PRL = "prl"
ESTIMATOR_PML = "pml"
ESTIMATOR_VMWARE = "vmware"
ESTIMATOR_ORACLE = "oracle"
ALL_ESTIMATORS = (ESTIMATOR_PRL, ESTIMATOR_PML, ESTIMATOR_VMWARE, ESTIMATOR_ORACLE)
# The estimator each logging mode feeds and the observation column it reads:
# prl counts pages logged at least tau times, pml counts distinct pages.
NATIVE = {TrackingMode.PAML: (ESTIMATOR_PRL, "hot_pages"),
          TrackingMode.PML: (ESTIMATOR_PML, "distinct_pages")}


@dataclass(frozen=True)
class Scenario:
    """Everything one reproducible run needs."""

    workload: Optional[WorkloadSpec] = None
    trace_path: Optional[str] = None
    tracking: TrackingConfig = TrackingConfig()
    tlb: TlbConfig = TlbConfig()
    estimator: EstimatorParams = EstimatorParams()
    estimators_enabled: frozenset = frozenset({ESTIMATOR_ORACLE})
    seed: int = 0
    vm_pages: Optional[int] = None
    vmware: VmwareParams = VmwareParams()
    name: str = "scenario"

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.trace_path is None):
            raise ValidationError("workload: exactly one of workload and trace_path is required")
        if self.seed < 0:
            raise ValidationError("seed: must be >= 0")
        unknown = set(self.estimators_enabled) - set(ALL_ESTIMATORS)
        if unknown:
            raise ValidationError(f"estimators: unknown estimator(s) {sorted(unknown)}")
        for mode, (name, _) in NATIVE.items():
            if name in self.estimators_enabled and self.tracking.mode is not mode:
                raise ValidationError(f"estimators: {name} requires tracking mode {mode.value}")
        if self.vm_pages is not None and not 1 <= self.vm_pages <= trace_mod._INT64_MAX:
            raise ValidationError("vm_pages: must be within 1..2^63-1")


# One row per estimator observation: its instant and the cumulative log's counters.
OBS_DTYPE = np.dtype([("t_ns", np.int64), ("hot_pages", np.int64), ("distinct_pages", np.int64)])


def _csv_value(value) -> str:
    """One CSV cell: floats to 9 decimals, booleans in lower case, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.9f}"
    return str(value)


@dataclass
class SimReport:
    """Per-run statistics and estimates."""

    scenario_name: str
    mode: str
    trace_len: int
    span_ns: int
    walks: int
    full_events: int  # the four tracker counters, summed over vCPUs
    missed_gpas: int
    logged: int
    vm_stall_ns: int
    ground_truth_wss_pages: Optional[int]
    allocated_pages: int
    log_total: int
    log_distinct: int
    handler_busy_ns: int
    observations: np.recarray  # of OBS_DTYPE
    estimates: dict

    @property
    def vm_effective_runtime_ns(self) -> int:
        return self.span_ns + self.vm_stall_ns

    @property
    def overhead_percent(self) -> float:
        if self.span_ns == 0:
            return 0.0
        return self.vm_stall_ns / self.span_ns * 100.0

    @property
    def pvm_utilization_percent(self) -> float:
        if self.span_ns == 0:
            return 0.0
        return self.handler_busy_ns / self.span_ns * 100.0

    def scalar_fields(self) -> list:
        """``(name, value)`` of every scalar report field, in report order."""
        return [
            ("scenario", self.scenario_name),
            ("mode", self.mode),
            ("trace_len", self.trace_len),
            ("span_ns", self.span_ns),
            ("walks", self.walks),
            ("full_events", self.full_events),
            ("missed_gpas", self.missed_gpas),
            ("logged", self.logged),
            ("vm_stall_ns", self.vm_stall_ns),
            ("vm_effective_runtime_ns", self.vm_effective_runtime_ns),
            ("overhead_percent", self.overhead_percent),
            ("handler_busy_ns", self.handler_busy_ns),
            ("pvm_utilization_percent", self.pvm_utilization_percent),
            ("ground_truth_wss_pages", self.ground_truth_wss_pages),
            ("allocated_pages", self.allocated_pages),
            ("log_total", self.log_total),
            ("log_distinct", self.log_distinct),
        ]

    def to_json_dict(self) -> dict:
        d = dict(self.scalar_fields())
        d["observations"] = [dict(zip(OBS_DTYPE.names, o)) for o in self.observations.tolist()]
        d["estimates"] = {name: dataclasses.asdict(est) for name, est in self.estimates.items()}
        return d

    def csv_rows(self) -> list:
        """Flat key,value rows for the report CSV."""
        rows = [(k, _csv_value(v)) for k, v in self.scalar_fields()]
        for name in ALL_ESTIMATORS:
            if name in self.estimates:
                est = self.estimates[name]
                rows.append((f"wss_{name}_pages", _csv_value(est.wss_pages)))
                rows.append((f"wss_{name}_m_bytes", _csv_value(est.m_bytes)))
                rows.append((f"wss_{name}_converged", _csv_value(est.converged)))
        return rows

    def summary_text(self) -> str:
        lines = [
            f"scenario {self.scenario_name}: mode={self.mode} accesses={self.trace_len} "
            f"span={self.span_ns} ns walks={self.walks}",
            f"  tracker: logged={self.logged} full_events={self.full_events} "
            f"missed={self.missed_gpas} stall={self.vm_stall_ns} ns "
            f"overhead={self.overhead_percent:.4f}%",
            f"  log: total={self.log_total} distinct={self.log_distinct} "
            f"ground_truth={self.ground_truth_wss_pages}",
        ]
        for name in ALL_ESTIMATORS:
            if name in self.estimates:
                est = self.estimates[name]
                flag = "converged" if est.converged else "not converged"
                lines.append(f"  {name}: wss={est.wss_pages} pages ({est.m_bytes} bytes, {flag})")
        return "\n".join(lines)


class _EngineOutput(NamedTuple):
    walks: int
    trackers: dict  # vCPU id -> Tracker, in id order
    log: CumulativeLog
    observations: np.recarray
    handler_busy_ns: int


# Upper bound on observations per run, as MAX_VMWARE_PERIODS bounds periods.
MAX_OBSERVATIONS = 1_000_000
_NEVER = math.inf  # busy_until and next_obs when none is pending; a batch can end past 2^63-1 ns


def _simulate(trace: Trace, codes: np.ndarray, tracking: TrackingConfig,
              params: EstimatorParams) -> _EngineOutput:
    """Run the event loop over the walks in ``codes`` that the tracking mode can log."""
    synchronous = tracking.mode is TrackingMode.PML
    log = CumulativeLog(params.tau)
    trackers = {v: Tracker(tracking) for v in trace.vcpu_ids()}
    observe = {v: tracker.observe_raw for v, tracker in trackers.items()}

    n = len(trace)
    mu = params.mu_ns
    # The instants are known up front: every mu after the first access, then
    # the end of the trace. The loop fills in the counters.
    k = trace.span_ns // mu
    observations = np.recarray(k + 1 if n else 0, dtype=OBS_DTYPE)
    next_obs = int(trace.t[0]) + mu if k else _NEVER  # the clock starts at the first access
    if k:
        observations.t_ns[:k] = next_obs + mu * np.arange(k, dtype=np.int64)
    hot, distinct = observations.hot_pages, observations.distinct_pages
    filled = 0
    pending: list[Tracker] = []  # trackers whose held rounds await a handler batch
    fed: dict = {}  # pml: the trackers fed since the last observation, by vCPU id
    batch: Optional[list] = None
    busy_until = _NEVER
    due = next_obs  # min(busy_until, next_obs): the next instant anything fires
    handler_busy_ns = 0

    def start_batch(now: int) -> None:
        """Hand every pending held round to one handler invocation."""
        nonlocal batch, busy_until, due, handler_busy_ns
        batch = pending[:]
        pending.clear()
        dur = batch_duration_ns(batch)
        handler_busy_ns += dur
        busy_until = now + dur
        due = min(busy_until, next_obs)

    def drain_residuals(drained) -> None:
        for tracker in drained:
            residual = tracker.drain_residual()
            if residual:
                log.add_snapshot(residual)

    def fire_due(now: int) -> None:
        """Apply handler completions and observations strictly before ``now``."""
        nonlocal batch, busy_until, next_obs, filled, due
        while True:
            ct = busy_until
            due = min(ct, next_obs)
            if due >= now:
                return
            if ct <= next_obs:
                handle_full(batch, log)
                batch, busy_until = None, _NEVER
                if pending:
                    start_batch(ct)
            else:
                if synchronous:
                    # Synchronous-mode collection reads the hardware buffer on
                    # demand (flush-on-query), so partially filled buffers are
                    # visible to the estimator, not only full ones. Only a
                    # tracker fed since the last observation holds entries.
                    drain_residuals(fed.values())
                    fed.clear()
                hot[filled], distinct[filled] = log.hot_count, log.distinct_count
                filled += 1
                next_obs = next_obs + mu if filled < k else _NEVER

    for lo in range(0, n, trace_mod._CHUNK):
        chunk = codes[lo:lo + trace_mod._CHUNK]
        walk = lo + np.flatnonzero(chunk == TLB_WALK_DIRTY if synchronous else chunk)
        for t, g, v in zip(trace.t[walk].tolist(), trace.gppn[walk].tolist(), trace.vcpu[walk].tolist()):
            if due < t:
                fire_due(t)
            if synchronous:
                fed[v] = trackers[v]
            # Every walk is fed as dirty: pml is fed only walks that set a
            # dirty flag, and paml logs a walk whatever its flag.
            if observe[v](g, True) == OBS_FULL:
                if synchronous:
                    handle_full((trackers[v],), log)
                else:
                    pending.append(trackers[v])
                    if batch is None:
                        start_batch(t)

    # Fire what is left, a handler batch ending past the last access too,
    # then fold in the partially filled buffers.
    fire_due(_NEVER)
    drain_residuals(trackers.values())
    if n:
        # Closing observation: the estimation process reads the fully drained
        # log once the workload ends, so traces shorter than a buffer round
        # (or an observation interval) still yield their final counts.
        observations[k] = (int(trace.t[-1]), log.hot_count, log.distinct_count)

    return _EngineOutput(int(np.count_nonzero(codes)), trackers, log, observations, handler_busy_ns)


def _allocated_pages(scenario: Scenario, trace: Trace) -> int:
    if scenario.vm_pages is not None:
        return scenario.vm_pages
    if scenario.workload is not None:
        return scenario.workload.n_pages
    return trace.max_gppn + 1 if len(trace) else 1


def _checked(scenario: Scenario, trace: Optional[Trace]) -> tuple:
    """Check a run against its trace before any TLB work; returns ``(trace, allocated pages)``."""
    if trace is None and scenario.workload is not None:
        trace = generate(scenario.workload)
    elif trace is None:
        trace = read_trace_file(scenario.trace_path)
    allocated = _allocated_pages(scenario, trace)
    if len(trace) and trace.max_gppn >= allocated:
        raise ValidationError(
            f"vm_pages: trace references page {trace.max_gppn} outside the "
            f"{allocated}-page allocation"
        )
    if ESTIMATOR_VMWARE in scenario.estimators_enabled and allocated > trace_mod._INT64_MAX:
        raise ValidationError(f"vm_pages: vmware cannot sample a {allocated}-page allocation, above 2^63-1")
    if ESTIMATOR_VMWARE in scenario.estimators_enabled and scenario.vmware.sample_size > allocated:
        raise ValidationError(
            f"vmware.sample_size: {scenario.vmware.sample_size} samples exceed the "
            f"{allocated}-page allocation"
        )
    n_obs = trace.span_ns // scenario.estimator.mu_ns
    if n_obs > MAX_OBSERVATIONS:
        raise ValidationError(
            f"estimator.mu_s: {scenario.estimator.mu_s!r} s needs {n_obs} observations over the "
            f"trace's span, more than {MAX_OBSERVATIONS}"
        )
    return trace, allocated


def run(scenario: Scenario, trace: Optional[Trace] = None) -> SimReport:
    """Execute one scenario and assemble its report.

    ``trace`` may be passed to reuse an already materialised workload that
    matches what the scenario would produce.
    """
    trace, allocated = _checked(scenario, trace)
    return _report(scenario, trace, allocated, walk_codes(trace, scenario.tlb))


def _report(scenario: Scenario, trace: Trace, allocated: int, codes: np.ndarray) -> SimReport:
    """Run the event loop and the enabled estimators over a checked trace and its walk codes."""
    mode = scenario.tracking.mode
    params = scenario.estimator
    enabled = scenario.estimators_enabled

    out = _simulate(trace, codes, scenario.tracking, params)

    estimates: dict[str, WssEstimate] = {}
    native: Optional[WssEstimate] = None
    name, column = NATIVE[mode]
    if name in enabled:
        native = estimates[name] = estimate_from_series(out.observations[column], params)
    if ESTIMATOR_ORACLE in enabled:
        estimates[ESTIMATOR_ORACLE] = estimate_oracle(trace, params)
    if ESTIMATOR_VMWARE in enabled:
        if native is not None and native.converged:
            until = int(out.observations.t_ns[native.converged_index])
        else:
            until = int(trace.t[-1]) if len(trace) else 0
        estimates[ESTIMATOR_VMWARE] = estimate_vmware(trace, allocated, params, scenario.vmware,
                                                      seed=scenario.seed, until_ns=until)

    trackers = out.trackers.values()
    return SimReport(
        scenario_name=scenario.name,
        mode=mode.value,
        trace_len=len(trace),
        span_ns=trace.span_ns,
        walks=out.walks,
        full_events=sum(t.full_events for t in trackers),
        missed_gpas=sum(t.missed_gpas for t in trackers),
        logged=sum(t.logged for t in trackers),
        vm_stall_ns=sum(t.vm_stall_ns for t in trackers),
        ground_truth_wss_pages=trace.ground_truth_wss_pages,
        allocated_pages=allocated,
        log_total=out.log.total,
        log_distinct=out.log.distinct_count,
        handler_busy_ns=out.handler_busy_ns,
        observations=out.observations,
        estimates=estimates,
    )


@dataclass(frozen=True)
class PairedRow:
    estimator: str
    wss_pages: int
    error_pages: int
    full_events: int
    missed_gpas: int
    overhead_percent: float


@dataclass
class PairedComparison:
    """All four estimators run against the identical trace."""

    scenario_name: str
    rows: list
    reports: dict
    ground_truth_wss_pages: Optional[int]

    def csv_lines(self, with_scenario: bool = False) -> list:
        names = [f.name for f in dataclasses.fields(PairedRow)]
        prefix = [self.scenario_name] if with_scenario else []
        lines = [",".join((["scenario"] if with_scenario else []) + names)]
        for r in self.rows:
            lines.append(",".join(prefix + [_csv_value(getattr(r, n)) for n in names]))
        return lines


def run_paired(scenario: Scenario, trace: Optional[Trace] = None) -> PairedComparison:
    """Run the all-access, write-only, sampling and oracle estimators on one trace."""

    def paired(mode: TrackingMode, *others: str) -> Scenario:
        """The scenario in ``mode`` with that mode's estimator, the oracle and ``others``."""
        enabled = frozenset({NATIVE[mode][0], ESTIMATOR_ORACLE, *others})
        return dataclasses.replace(scenario, tracking=dataclasses.replace(scenario.tracking, mode=mode),
                                   estimators_enabled=enabled)

    paml_scenario = paired(TrackingMode.PAML, ESTIMATOR_VMWARE)
    trace, allocated = _checked(paml_scenario, trace)
    codes = walk_codes(trace, scenario.tlb)  # one walk stage for both modes
    paml_report = _report(paml_scenario, trace, allocated, codes)
    pml_report = _report(paired(TrackingMode.PML), trace, allocated, codes)

    oracle = paml_report.estimates[ESTIMATOR_ORACLE]

    def row(name: str, report: SimReport, counted: bool) -> PairedRow:
        est = report.estimates[name]
        return PairedRow(
            estimator=name,
            wss_pages=est.wss_pages,
            error_pages=abs(est.wss_pages - oracle.wss_pages),
            full_events=report.full_events if counted else 0,
            missed_gpas=report.missed_gpas if counted else 0,
            overhead_percent=report.overhead_percent if counted else 0.0,
        )

    rows = [row(ESTIMATOR_PRL, paml_report, True), row(ESTIMATOR_PML, pml_report, True),
            row(ESTIMATOR_VMWARE, paml_report, False), row(ESTIMATOR_ORACLE, paml_report, False)]
    return PairedComparison(
        scenario_name=scenario.name,
        rows=rows,
        reports={"paml": paml_report, "pml": pml_report},
        ground_truth_wss_pages=trace.ground_truth_wss_pages,
    )


# ---------------------------------------------------------------------------
# Scenario files: flat key = value text
# ---------------------------------------------------------------------------

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parser(convert: Callable[[str], object], expected: str) -> Callable[[str, str], object]:
    """A ``(key, text) -> value`` parser whose errors name the key."""
    def parse(key: str, value: str):
        try:
            return convert(value)
        except (KeyError, ValueError):
            raise ValidationError(f"{key}: expected {expected}, got {value!r}") from None
    return parse


_parse_bool = _parser(lambda value: _BOOL_VALUES[value.strip().lower()], "a boolean")
_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")


def _value_parser(hint) -> Callable[[str, str], object]:
    """The text-to-value parser for one config field's type hint."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    hint = args[0] if args else hint  # Optional[X] parses as X
    if isinstance(hint, type) and issubclass(hint, Enum):
        return lambda key, value: hint.parse(value)
    return {int: _parse_int, float: _parse_float, bool: _parse_bool}[hint]


def _keys(section: str, cls) -> tuple:
    """``(key, field name, parser)`` for each field of a config dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple((f"{section}.{f.name}", f.name, _value_parser(hints[f.name]))
                 for f in dataclasses.fields(cls))


# Every scenario key besides workload.trace and estimators, with its parser.
# The dataclasses declare the keys of their sections and all defaults.
_WORKLOAD_KEYS = _keys("workload", WorkloadSpec)
_TRACKING_KEYS = _keys("tracking", TrackingConfig)
_TLB_KEYS = _keys("tlb", TlbConfig)
_ESTIMATOR_KEYS = _keys("estimator", EstimatorParams)
_VMWARE_KEYS = _keys("vmware", VmwareParams)
_SCENARIO_KEYS = (("seed", "seed", _parse_int), ("vm_pages", "vm_pages", _parse_int))


def _take(kv: dict, keys: tuple) -> dict:
    """Parse and remove the keys present in ``kv``; absent ones keep their defaults."""
    return {name: parse(key, kv.pop(key)) for key, name, parse in keys if key in kv}


def parse_scenario_text(text: str, name: str = "scenario", base_dir: Optional[Path] = None) -> Scenario:
    """Parse the flat ``key = value`` scenario format.

    Every value is parsed and unknown keys are rejected, so that typos fail
    loudly, before any config is built; an omitted key takes its dataclass
    default. ``workload.trace`` paths are resolved against ``base_dir`` when
    given.
    """
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"scenario line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key in kv:
            raise ValidationError(f"scenario line {lineno}: duplicate key {key!r}")
        kv[key] = value

    top = _take(kv, _SCENARIO_KEYS)
    vmware = _take(kv, _VMWARE_KEYS)
    spec = None
    trace_path = kv.pop("workload.trace", None)
    if trace_path is not None:
        if "\0" in trace_path:
            raise ValidationError("workload.trace: path contains a NUL byte")
        if base_dir is not None:
            trace_path = str((base_dir / trace_path).resolve())
        for k in list(kv):
            if k.startswith("workload."):
                raise ValidationError(f"{k}: not allowed together with workload.trace")
    else:
        if "workload.pattern" not in kv or "workload.n_pages" not in kv:
            raise ValidationError("workload.pattern: required (with workload.n_pages) unless workload.trace is set")
        spec = _take(kv, _WORKLOAD_KEYS)
    tracking, tlb, estimator = (_take(kv, keys) for keys in (_TRACKING_KEYS, _TLB_KEYS, _ESTIMATOR_KEYS))
    estimators_value = kv.pop("estimators", None)
    if kv:
        raise ValidationError(f"unknown scenario key(s): {', '.join(sorted(kv))}")

    seed = top.get("seed", Scenario.seed)
    if seed < 0:  # before the workload, which inherits it as workload.seed
        raise ValidationError("seed: must be >= 0")
    workload = None if spec is None else WorkloadSpec(**{"seed": seed, **spec})
    tracking = TrackingConfig(**tracking)
    if estimators_value is None:
        enabled = {ESTIMATOR_ORACLE, NATIVE[tracking.mode][0]}
    else:
        enabled = {e.strip().lower() for e in estimators_value.split(",") if e.strip()}

    return Scenario(
        workload=workload,
        trace_path=trace_path,
        tracking=tracking,
        tlb=TlbConfig(**tlb),
        estimator=EstimatorParams(**estimator),
        estimators_enabled=frozenset(enabled),
        vmware=VmwareParams(**vmware),
        name=name,
        **top,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p}: not UTF-8 text (byte {exc.start})") from None
    return parse_scenario_text(text, name=p.stem, base_dir=p.parent)


def report_to_json(report: SimReport) -> str:
    """``json.dumps(report.to_json_dict(), indent=2, sort_keys=True)``.

    The observation list, which may hold a million rows, is written straight
    from its columns and spliced into the dump of the other fields.
    """
    text = json.dumps(dataclasses.replace(report, observations=report.observations[:0]).to_json_dict(),
                      indent=2, sort_keys=True)
    if not len(report.observations):
        return text
    names = sorted(OBS_DTYPE.names)
    keys = [f"\n      {json.dumps(name)}: ".encode("ascii") for name in names]
    pieces = [b"    {" + keys[0], *(b"," + key for key in keys[1:]), b"\n    },\n"]
    rows = [chunk.tobytes().decode("ascii")
            for chunk, _ in decimal_rows(pieces, [report.observations[name] for name in names])]
    rows[-1] = rows[-1][:-2]  # no comma after the last row
    head, _, tail = text.partition('\n  "observations": []')
    return "".join([head, '\n  "observations": [\n', *rows, "\n  ]", tail])


__all__ = [
    "ESTIMATOR_PRL",
    "ESTIMATOR_PML",
    "ESTIMATOR_VMWARE",
    "ESTIMATOR_ORACLE",
    "ALL_ESTIMATORS",
    "NATIVE",
    "Scenario",
    "OBS_DTYPE",
    "SimReport",
    "PairedRow",
    "PairedComparison",
    "run",
    "run_paired",
    "parse_scenario_text",
    "load_scenario",
    "report_to_json",
]
