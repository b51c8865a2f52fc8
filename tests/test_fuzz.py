"""Fuzz the input layers: scenario text and files, and trace files.

Whatever the bytes, parsing may fail only with the package's documented
error for that input (``ValidationError`` for scenarios, ``TraceParseError``
for traces), never with another exception. No scenario is run here.
"""

import dataclasses
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pagelog.errors import TraceParseError, ValidationError
from pagelog.estimator import EstimatorParams
from pagelog.mmu import TlbConfig
from pagelog.sim import load_scenario, parse_scenario_text
from pagelog.trace import WorkloadSpec, read_trace
from pagelog.tracker import TrackingConfig

SECTIONS = {"workload": WorkloadSpec, "tracking": TrackingConfig, "tlb": TlbConfig,
            "estimator": EstimatorParams}
KEYS = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
        for f in dataclasses.fields(cls)]
KEYS += ["workload.trace", "estimators", "seed", "vm_pages", "vmware.sample_size",
         "vmware.period_s"]

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
