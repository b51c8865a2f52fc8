"""Deterministic simulator of hardware page-access logging and WSS estimation.

The package models the memory-tracking pipeline of a virtualized host at
desk scale: synthetic guest workloads are replayed through a per-vCPU TLB,
page walks feed logging hardware in either write-only or all-access mode,
full buffers are drained into the VM's cumulative log, and working-set-size
estimators observe that log over virtual time.
"""

from .errors import PredicateContractError, ProtocolError, TraceParseError, ValidationError
from .estimator import (
    EstimatorParams,
    VmwareParams,
    WssEstimate,
    estimate_epsilon,
    estimate_oracle,
    estimate_vmware,
)
from .handler import CumulativeLog, handle_full
from .mmu import Tlb, TlbConfig
from .sim import (
    PairedComparison,
    Scenario,
    SimReport,
    load_scenario,
    parse_scenario_text,
    run,
    run_paired,
)
from .trace import (
    Pattern,
    Trace,
    WorkloadSpec,
    generate,
    read_trace,
    read_trace_file,
    write_trace,
    write_trace_file,
)
from .tracker import Tracker, TrackingConfig, TrackingMode

__version__ = "0.1.0"

__all__ = [
    "PredicateContractError",
    "ProtocolError",
    "TraceParseError",
    "ValidationError",
    "EstimatorParams",
    "VmwareParams",
    "WssEstimate",
    "estimate_epsilon",
    "estimate_oracle",
    "estimate_vmware",
    "CumulativeLog",
    "handle_full",
    "Tlb",
    "TlbConfig",
    "PairedComparison",
    "Scenario",
    "SimReport",
    "load_scenario",
    "parse_scenario_text",
    "run",
    "run_paired",
    "Pattern",
    "Trace",
    "WorkloadSpec",
    "generate",
    "read_trace",
    "read_trace_file",
    "write_trace",
    "write_trace_file",
    "Tracker",
    "TrackingConfig",
    "TrackingMode",
]
