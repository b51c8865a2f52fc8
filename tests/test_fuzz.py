"""Fuzz the input layers: scenario text and files, trace files, and runs.

Whatever the bytes, parsing may fail only with the package's documented
error for that input (``ValidationError`` for scenarios, ``TraceParseError``
for traces), never with another exception. A scenario that parses must run
to a report, alone and paired, or fail with a ``ValidationError`` naming a
scenario key.
"""

import dataclasses
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagelog.errors import TraceParseError, ValidationError
from pagelog.estimator import EstimatorParams, VmwareParams
from pagelog.mmu import TlbConfig
from pagelog.sim import load_scenario, parse_scenario_text, run, run_paired
from pagelog.trace import WorkloadSpec, read_trace
from pagelog.tracker import TrackingConfig

SECTIONS = {"workload": WorkloadSpec, "tracking": TrackingConfig, "tlb": TlbConfig,
            "estimator": EstimatorParams, "vmware": VmwareParams}
KEYS = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
        for f in dataclasses.fields(cls)]
KEYS += ["workload.trace", "estimators", "seed", "vm_pages"]

values = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["rwrw", "wi", "paml", "pml", "off", "true", "prl, oracle, vmware"]),
)
scenario_lines = st.one_of(
    st.tuples(st.sampled_from(KEYS), values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)
scenario_texts = st.lists(scenario_lines, max_size=12).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(scenario_texts)
@example("workload.trace = t\x00.csv")
def test_scenario_text_raises_only_validation_error(text):
    try:
        parse_scenario_text(text, base_dir=Path("."))
    except ValidationError:
        pass


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.scn"


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=64), scenario_texts.map(str.encode)))
@example(b"seed = 1\n\x80\n")
def test_scenario_file_raises_only_validation_error(scenario_file, data):
    scenario_file.write_bytes(data)
    try:
        load_scenario(scenario_file)
    except ValidationError:
        pass


trace_fields = st.one_of(st.integers(-2**70, 2**70).map(str), st.text("0123456789-_ x", max_size=6))
trace_lines = st.one_of(
    st.tuples(trace_fields, trace_fields, trace_fields, st.sampled_from(["R", "W", "X", ""]))
    .map(lambda parts: ",".join(parts).encode()),
    st.integers().map(lambda n: f"#wss={n}".encode()),
    st.binary(max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(trace_lines, max_size=8).map(b"\n".join))
@example(b"0,0,9223372036854775808,W\n")
def test_trace_bytes_raise_only_trace_parse_error(data):
    try:
        read_trace(io.BytesIO(data))
    except TraceParseError:
        pass


# Small workloads with adversarial integers in every key that takes one.
EDGE_INTS = [2**31, 2**63 - 1, 2**63, 2**64, 2**70, -2**70]
edge_ints = st.one_of(st.integers(-5, 5), st.sampled_from(EDGE_INTS))
INT_KEYS = ["seed", "workload.seed", "vm_pages", "vmware.sample_size", "tracking.buffer_entries",
            "tracking.handler_latency_per_entry_ns", "tracking.vmexit_cost_ns", "tlb.entries",
            "tlb.ways", "estimator.tau", "estimator.epsilon_bytes", "estimator.page_size"]


@st.composite
def runnable_scenarios(draw):
    mode = draw(st.sampled_from(["paml", "pml"]))
    native = {"paml": ["prl"], "pml": ["pml"]}[mode]
    mu_ns = draw(st.integers(200, 5000))
    lines = [
        f"workload.pattern = {draw(st.sampled_from(['wi', 'rwrw', 'rrww', 'wwrr']))}",
        f"workload.n_pages = {draw(st.integers(1, 48))}",
        f"workload.d_iters = {draw(st.integers(1, 3))}",
        f"tracking.mode = {mode}",
        f"estimator.mu_s = {mu_ns / 1e9!r}",
        f"estimator.omega_s = {mu_ns * draw(st.integers(1, 4)) / 1e9!r}",
        f"vmware.period_s = {draw(st.integers(1000, 20000)) / 1e9!r}",
        f"estimators = {', '.join(draw(st.sets(st.sampled_from(native + ['vmware', 'oracle']))))}",
    ]
    # The default of 100 samples exceeds every allocation drawn here.
    ints = {"vmware.sample_size": draw(st.integers(1, 8))}
    for key in draw(st.lists(st.sampled_from(INT_KEYS), unique=True, max_size=5)):
        ints[key] = draw(edge_ints)
    return "\n".join(lines + [f"{key} = {value}" for key, value in ints.items()])


def _names_a_key(exc):
    name = str(exc).split(":", 1)[0]
    return name in KEYS or name in {key.rsplit(".", 1)[-1] for key in KEYS}


@settings(max_examples=200, deadline=None)
@given(runnable_scenarios())
@example("workload.pattern = rwrw\nworkload.n_pages = 8\nestimators = vmware\nseed = -1")
@example("workload.pattern = wi\nworkload.n_pages = 8\nworkload.seed = -5")
@example("workload.pattern = rwrw\nworkload.n_pages = 8\nestimators = vmware\nvm_pages = 9223372036854775808")
@example("workload.pattern = rwrw\nworkload.n_pages = 8\nestimators = vmware\n"
         "vm_pages = 9223372036854775807\nvmware.sample_size = 9223372036854775807")
def test_scenario_runs_end_in_a_report_or_validation_error(text):
    try:
        scenario = parse_scenario_text(text)
    except ValidationError as exc:
        assert _names_a_key(exc), exc
        return
    for call in (run, run_paired):
        try:
            call(scenario)
        except ValidationError as exc:
            assert _names_a_key(exc), exc
