import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_read_trace, reference_write_trace
from pagelog import trace as trace_mod
from pagelog.errors import TraceParseError, ValidationError
from pagelog.trace import (
    MAX_ACCESSES,
    Pattern,
    Trace,
    WorkloadSpec,
    generate,
    read_trace,
    read_trace_file,
    write_trace,
    write_trace_file,
)


def test_rwrw_full_array():
    spec = WorkloadSpec(n_pages=102400, pattern=Pattern.RWRW, d_iters=3)
    tr = generate(spec)
    assert len(tr) == 102400 * 2 * 3
    assert tr.distinct_pages() == 102400
    assert tr.ground_truth_wss_pages == 102400
    # R,W alternation on each page
    assert not tr.is_write[0] and tr.is_write[1]
    assert tr.gppn[0] == tr.gppn[1] == 0
    assert tr.gppn[2] == tr.gppn[3] == 1


def test_single_page_write_only():
    spec = WorkloadSpec(n_pages=1, pattern=Pattern.WRITE_INTENSITY, wi=100, d_iters=5)
    tr = generate(spec)
    assert len(tr) == 5
    assert set(tr.gppn.tolist()) == {0}
    assert tr.is_write.all()


def test_cold_prefix_shape():
    spec = WorkloadSpec(
        n_pages=1000, pattern=Pattern.RRWW, d_iters=10, hot_pages=100, cold_prefix=True
    )
    tr = generate(spec)
    prefix = tr.gppn[:1000]
    assert tr.is_write[:1000].all()
    assert np.array_equal(prefix, np.arange(1000))
    assert tr.gppn[1000:].max() == 99
    assert tr.ground_truth_wss_pages == 100


def test_generate_is_pure():
    spec = WorkloadSpec(n_pages=300, pattern=Pattern.WRITE_INTENSITY, wi=37, d_iters=4, seed=11)
    assert generate(spec) == generate(spec)


def test_different_seeds_differ():
    a = generate(WorkloadSpec(n_pages=300, pattern=Pattern.WRITE_INTENSITY, d_iters=4, seed=1))
    b = generate(WorkloadSpec(n_pages=300, pattern=Pattern.WRITE_INTENSITY, d_iters=4, seed=2))
    assert a != b


@pytest.mark.parametrize("wi,expect_writes", [(0, 0), (100, 1200)])
def test_write_intensity_extremes(wi, expect_writes):
    tr = generate(WorkloadSpec(n_pages=300, pattern=Pattern.WRITE_INTENSITY, wi=wi, d_iters=4))
    assert int(tr.is_write.sum()) == expect_writes


@pytest.mark.parametrize("pattern", list(Pattern))
def test_ground_truth_matches_post_prefix_scan(pattern):
    for seed in range(8):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(1, 200))
        hot = int(rng.integers(1, n + 1))
        cold = bool(rng.integers(0, 2))
        spec = WorkloadSpec(
            n_pages=n,
            pattern=pattern,
            d_iters=int(rng.integers(1, 5)),
            wi=int(rng.integers(0, 101)),
            hot_pages=hot,
            cold_prefix=cold,
            seed=seed,
        )
        tr = generate(spec)
        suffix_start = n if cold else 0
        distinct = len(set(tr.gppn[suffix_start:].tolist()))
        assert tr.ground_truth_wss_pages == distinct


def test_timestamps_spacing_and_vcpu():
    tr = generate(WorkloadSpec(n_pages=10, pattern=Pattern.RRWW, d_iters=2, inter_access_gap_ns=250))
    assert np.array_equal(np.diff(tr.t), np.full(len(tr) - 1, 250))
    assert (tr.vcpu == 0).all()


def test_rrww_wwrr_pass_structure():
    rr = generate(WorkloadSpec(n_pages=4, pattern=Pattern.RRWW, d_iters=1))
    assert rr.is_write.tolist() == [False] * 4 + [True] * 4
    ww = generate(WorkloadSpec(n_pages=4, pattern=Pattern.WWRR, d_iters=1))
    assert ww.is_write.tolist() == [True] * 4 + [False] * 4


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(n_pages=0, pattern=Pattern.RWRW), "n_pages"),
        (dict(n_pages=10, pattern=Pattern.RWRW, d_iters=0), "d_iters"),
        (dict(n_pages=10, pattern=Pattern.WRITE_INTENSITY, wi=101), "wi"),
        (dict(n_pages=10, pattern=Pattern.RWRW, hot_pages=11), "hot_pages"),
        (dict(n_pages=10, pattern=Pattern.RWRW, hot_pages=0), "hot_pages"),
        (dict(n_pages=10, pattern=Pattern.RWRW, inter_access_gap_ns=-1), "inter_access_gap_ns"),
    ],
)
def test_spec_validation_names_field(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        generate(WorkloadSpec(**kwargs))


def test_pattern_parse():
    assert Pattern.parse("RWRW") is Pattern.RWRW
    with pytest.raises(ValidationError, match="pattern"):
        Pattern.parse("bogus")


# -- file format -------------------------------------------------------------


def test_single_access_line_format():
    tr = Trace(
        np.array([0]), np.array([0]), np.array([7]), np.array([True]),
        ground_truth_wss_pages=None,
    )
    buf = io.BytesIO()
    write_trace(tr, buf)
    assert buf.getvalue() == b"0,0,7,W\n"


def test_round_trip_identity(tmp_path):
    spec = WorkloadSpec(n_pages=120, pattern=Pattern.WRITE_INTENSITY, wi=42, d_iters=3, seed=5)
    tr = generate(spec)
    buf = io.BytesIO()
    write_trace(tr, buf)
    buf.seek(0)
    assert read_trace(buf) == tr

    path = tmp_path / "t.csv"
    write_trace_file(tr, path)
    assert read_trace_file(path) == tr
    assert path.read_bytes().startswith(b"#wss=120\n")


def test_round_trip_without_sidecar():
    tr = Trace(np.array([0, 5]), np.array([0, 1]), np.array([3, 4]), np.array([False, True]))
    buf = io.BytesIO()
    write_trace(tr, buf)
    buf.seek(0)
    back = read_trace(buf)
    assert back == tr
    assert back.ground_truth_wss_pages is None


def test_parse_error_bad_op():
    with pytest.raises(TraceParseError, match="line 1"):
        read_trace(io.BytesIO(b"0,0,7,X\n"))


def test_parse_error_line_number_after_sidecar():
    data = b"#wss=3\n0,0,1,R\n0,0,oops,W\n"
    with pytest.raises(TraceParseError, match="line 3"):
        read_trace(io.BytesIO(data))


def test_parse_error_field_count():
    with pytest.raises(TraceParseError, match="4 fields"):
        read_trace(io.BytesIO(b"0,0,7\n"))


@pytest.mark.parametrize(
    "line",
    [b"9223372036854775808,0,1,R", b"0,2147483648,1,R", b"0,0,9223372036854775808,R"],
    ids=["t", "vcpu", "gppn"],
)
def test_parse_error_field_out_of_range(line):
    # Values beyond the column's integer width used to raise OverflowError.
    with pytest.raises(TraceParseError, match="line 2: field out of range"):
        read_trace(io.BytesIO(b"0,0,1,R\n" + line + b"\n"))


def test_parse_largest_in_range_fields():
    tr = read_trace(io.BytesIO(b"9223372036854775807,2147483647,9223372036854775807,W\n"))
    assert (tr.t[0], tr.vcpu[0], tr.gppn[0]) == (2**63 - 1, 2**31 - 1, 2**63 - 1)


def test_parse_error_negative_wss_sidecar():
    # Used to be accepted and reported as ground_truth=-5.
    with pytest.raises(TraceParseError, match="line 1: negative #wss"):
        read_trace(io.BytesIO(b"#wss=-5\n0,0,1,R\n"))


def test_parse_error_decreasing_time():
    with pytest.raises(TraceParseError, match="non-decreasing"):
        read_trace(io.BytesIO(b"5,0,1,R\n4,0,2,R\n"))


def test_trace_constructor_rejects_decreasing_time():
    with pytest.raises(ValidationError, match="t"):
        Trace(np.array([5, 4]), np.zeros(2), np.array([1, 2]), np.zeros(2, dtype=bool))


@pytest.mark.parametrize("cold_prefix", [False, True])
@pytest.mark.parametrize("pattern", list(Pattern))
def test_gap_bounded_by_int64_timestamps(pattern, cold_prefix):
    # Past the bound, timestamps used to wrap to negative values (2^62) or
    # generation ended in an OverflowError (2^63).
    spec = WorkloadSpec(n_pages=5, pattern=pattern, d_iters=3, hot_pages=2, cold_prefix=cold_prefix)
    n = len(generate(spec))
    largest = dataclasses.replace(spec, inter_access_gap_ns=(2**63 - 1) // (n - 1))
    assert generate(largest).t[-1] == (n - 1) * largest.inter_access_gap_ns
    for gap in (largest.inter_access_gap_ns + 1, 2**62, 2**63):
        with pytest.raises(ValidationError, match="workload.inter_access_gap_ns"):
            generate(dataclasses.replace(spec, inter_access_gap_ns=gap))


@pytest.mark.parametrize("pattern", list(Pattern))
@pytest.mark.parametrize("cold_prefix", [False, True])
def test_access_count_bounded(pattern, cold_prefix):
    # Only validate() runs: the specs at the bound would hold 10^8 accesses,
    # and 10^12 pages or passes used to pass validation.
    per_page = 1 if pattern is Pattern.WRITE_INTENSITY else 2
    if cold_prefix:
        spec = WorkloadSpec(n_pages=MAX_ACCESSES - per_page * 1000, pattern=pattern,
                            hot_pages=1000, cold_prefix=True)
    else:
        spec = WorkloadSpec(n_pages=MAX_ACCESSES // per_page, pattern=pattern)
    spec.validate()
    for bad in (dataclasses.replace(spec, d_iters=2), dataclasses.replace(spec, n_pages=10**12),
                dataclasses.replace(spec, d_iters=10**12)):
        with pytest.raises(ValidationError, match="workload.n_pages"):
            bad.validate()


# -- array reader and writer against the per-line reference -------------------

BIG = [0, 1, 2**31 - 1, 2**31, 10**17, 10**18 - 1, 10**18, 2**63 - 1]
# Field edits. Most make a field the array reader refuses and the per-line
# parser may still accept (signs, spaces, '_', 19 digits); the rest are edge
# values both take (leading zeros, 18 digits, 2^31 - 1).
FIELD_EDITS = [
    lambda f: "+" + f, lambda f: "-" + f, lambda f: " " + f, lambda f: f + " ",
    lambda f: f[:1] + "_" + f[1:], lambda f: "00" + f, lambda f: "", lambda f: "x",
    lambda f: "9" * 18, lambda f: "1" + "0" * 18, lambda f: "9" * 19, lambda f: "9" * 20,
    lambda f: "9223372036854775808", lambda f: "2147483648", lambda f: "2147483647",
    lambda f: f + ",0", lambda f: "w", lambda f: "\xff",
]
LINE_EDITS = ["", "\r", "#c", "#wss=5", " ", "0,0,0", "0,0,0,R,", "1,2,3,R\r"]
SIDECARS = [None, "#wss=12", "#wss=0", "#wss=007", "#wss=", "#wss=-5", "#wss= 7", "#wss=+3",
            "#wss=" + "9" * 18, "#wss=" + "9" * 19, "#wss=x", "#wss=5\r", "#note"]


@st.composite
def trace_files(draw):
    """Bytes of a trace file: canonical, then a few edits that may make it anything else."""
    n = draw(st.integers(0, 12))
    ints = st.one_of(st.sampled_from(BIG), st.integers(0, 10**18 - 1), st.integers(0, 99))
    ts = sorted(draw(st.lists(ints, min_size=n, max_size=n)))
    rows = [[str(t), str(draw(st.one_of(st.sampled_from([0, 3, 2**31 - 1]), st.integers(0, 2**31 - 1)))),
             str(draw(ints)), draw(st.sampled_from("RW"))] for t in ts]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, 3))
        row[j] = draw(st.sampled_from(FIELD_EDITS))(row[j])
    if len(rows) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 2))
        rows[i][0], rows[i + 1][0] = rows[i + 1][0], rows[i][0]  # decreasing t unless equal
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(LINE_EDITS))
        i = draw(st.integers(0, len(lines)))
        if edit == "\r" and i < len(lines):
            lines[i] += edit
        else:
            lines.insert(i, edit)
    sidecar = draw(st.sampled_from(SIDECARS))
    if sidecar is not None:
        lines.insert(draw(st.sampled_from([0, 0, 0, min(1, len(lines))])), sidecar)
    text = "".join(line + "\n" for line in lines)
    if text and draw(st.integers(0, 5)) == 0:
        text = text[:-1]  # no final newline
    return text.encode("utf-8")


def _outcome(read, data):
    try:
        return read(io.BytesIO(data))
    except TraceParseError as exc:
        return f"TraceParseError: {exc}"


@settings(max_examples=600, deadline=None)
@given(trace_files(), st.sampled_from([None, 1, 3, 7]))
@example(b"0,0,0,R\n", 1)
@example(b"#wss=3\n", None)
@example(b"", None)
@example(b"5,0,1,R\n4,0,2,R\n", 1)  # decreasing across a chunk seam
@example(b"9223372036854775807,2147483647,9223372036854775807,W\n", None)
def test_read_trace_matches_per_line_reference(data, chunk):
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(trace_mod, "_CHUNK", chunk)
        assert _outcome(read_trace, data) == _outcome(reference_read_trace, data)


non_negative = st.one_of(st.sampled_from([0, 2**63 - 1, 2**31 - 1]), st.integers(0, 2**63 - 1))
# Negative times only in traces of their own: Trace takes np.diff of t, which
# wraps for spans beyond 2^63 - 1.
negative = st.one_of(st.sampled_from([-1, -(2**63)]), st.integers(-(2**63), -1))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 12))
    t = sorted(draw(st.lists(draw(st.sampled_from([non_negative, negative])), min_size=n, max_size=n)))
    vcpu = draw(st.lists(st.one_of(st.sampled_from([0, 2**31 - 1, -(2**31)]),
                                   st.integers(-(2**31), 2**31 - 1)), min_size=n, max_size=n))
    gppn = draw(st.lists(non_negative, min_size=n, max_size=n))
    is_write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    wss = draw(st.one_of(st.none(), st.sampled_from([0, 2**63 - 1]), st.integers(0, 10**6)))
    return Trace(np.array(t, np.int64), np.array(vcpu, np.int32), np.array(gppn, np.int64),
                 np.array(is_write, bool), ground_truth_wss_pages=wss)


@settings(max_examples=300, deadline=None)
@given(traces(), st.sampled_from([None, 1, 3, 7]))
def test_write_trace_matches_per_line_reference(tr, chunk):
    ours, ref = io.BytesIO(), io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(trace_mod, "_CHUNK", chunk)
        write_trace(tr, ours)
        if tr.t.min(initial=0) >= 0 and tr.vcpu.min(initial=0) >= 0:
            ours.seek(0)
            assert read_trace(ours) == tr
    reference_write_trace(tr, ref)
    assert ours.getvalue() == ref.getvalue()


def test_canonical_file_takes_array_path(monkeypatch):
    # The differential test above holds as well if the array reader refuses
    # everything; this pins that canonical files never reach the per-line parser.
    tr = generate(WorkloadSpec(n_pages=50, pattern=Pattern.WRITE_INTENSITY, wi=40, d_iters=3,
                               inter_access_gap_ns=10**15))
    big = Trace(np.array([0, 10**18 - 1]), np.array([2**31 - 1, 0]),
                np.array([10**18 - 1, 0]), np.array([True, False]))

    def refuse(source):
        raise AssertionError("canonical stream reached the per-line parser")

    monkeypatch.setattr(trace_mod, "_read_lines", refuse)
    monkeypatch.setattr(trace_mod, "_CHUNK", 7)
    for expected in (tr, big):
        buf = io.BytesIO()
        write_trace(expected, buf)
        buf.seek(0)
        assert read_trace(buf) == expected
