import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_generate, reference_read_trace, reference_write_trace
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
    assert np.unique(tr.gppn).size == 102400
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


def test_trace_constructor_accepts_full_int64_span():
    # The order check used to take np.diff of t, which wraps past 2^63 - 1.
    tr = Trace(np.array([0, 2**63 - 1]), np.zeros(2), np.array([1, 2]), np.zeros(2, dtype=bool))
    assert tr.t.tolist() == [0, 2**63 - 1]
    assert tr.span_ns == 2**63 - 1
    with pytest.raises(ValidationError, match="non-decreasing"):
        Trace(np.array([2**63 - 1, 0]), np.zeros(2), np.array([1, 2]), np.zeros(2, dtype=bool))


@pytest.mark.parametrize(
    "t,vcpu,wss,match",
    [
        ([-1, 5], [0, 0], None, "t: must be non-negative"),
        ([-(2**63), 2**63 - 1], [0, 0], None, "t: must be non-negative"),
        ([0, 5], [0, -1], None, "vcpu: must be non-negative"),
        ([0, 5], [0, 0], -1, "ground_truth_wss_pages: must be non-negative"),
        ([0, 5], [0, 2**31], None, "vcpu: values do not fit int32"),
        ([0, 5], [0, 2**32], None, "vcpu: values do not fit int32"),
        ([0, 0.5], [0, 0], None, "t: values do not fit int64"),
        ([0, 2**70], [0, 0], None, "t: values do not fit int64"),
    ],
)
def test_trace_constructor_refuses_what_files_cannot_carry(t, vcpu, wss, match):
    # Each used to be accepted: negative values were written to files that
    # read_trace refuses, vcpu = 2^32 wrapped to 0, and the span of
    # t = [-2^63, 2^63 - 1] wrapped to -1.
    with pytest.raises(ValidationError, match=match):
        Trace(np.array(t), np.array(vcpu), np.array([1, 2]), np.zeros(2, dtype=bool),
              ground_truth_wss_pages=wss)


@pytest.mark.filterwarnings("error")
def test_trace_constructor_refuses_gppn_past_int64():
    # gppn = 2^64, like t = 2^70 above, used to raise OverflowError from numpy's
    # cast. [1, 2^63] makes a float64 column, whose cast used to warn first.
    for gppn in ([1, 2**64], [1, 2**63]):
        with pytest.raises(ValidationError, match="gppn: values do not fit int64"):
            Trace(np.array([0, 5]), np.array([0, 0]), gppn, np.zeros(2, dtype=bool))


def test_wss_sidecar_is_bounded_by_int64():
    # Larger values used to be accepted, then write_trace could not write one
    # of more than 4,300 digits.
    tr = Trace(np.array([0]), np.array([0]), np.array([1]), np.array([True]),
               ground_truth_wss_pages=2**63 - 1)
    buf = io.BytesIO()
    write_trace(tr, buf)
    assert buf.getvalue() == b"#wss=9223372036854775807\n0,0,1,W\n"
    buf.seek(0)
    assert read_trace(buf) == tr
    for value, digits in ((2**63, b"9223372036854775808"), (10**5000, b"1" + b"0" * 5000)):
        with pytest.raises(ValidationError, match="ground_truth_wss_pages: must be at most 2"):
            Trace(np.array([0]), np.array([0]), np.array([1]), np.array([True]),
                  ground_truth_wss_pages=value)
        with pytest.raises(TraceParseError, match="line 1: bad #wss sidecar value"):
            read_trace(io.BytesIO(b"#wss=" + digits + b"\n0,0,1,W\n"))


# Forms the grammar refuses, each named by its 1-based line.
REFUSED = [
    (b"0,0,1,R\r\n", "line 1: bad op code 'R\\r'"),
    (b"0,0,1,R\n\n5,0,2,W\n", "line 2: expected 4 fields, got 1"),
    (b"#wss=3\n0,0,1,R\n# note\n", "line 3: expected 4 fields, got 1"),
    (b"0,0,1,R\n+5,0,2,W\n", "line 2: non-integer field"),
    (b"0,0,1,R\n5,-1,2,W\n", "line 2: non-integer field"),
    (b"0,0,1,R\n5,0, 2,W\n", "line 2: non-integer field"),
    (b"0,0,1,R\n5,0,2 ,W\n", "line 2: non-integer field"),
    (b"0,0,1_000,R\n", "line 1: non-integer field"),
    (b"0,0,1,R\n" + b"0" * 19 + b"5,0,2,W\n", "line 2: field out of range"),
    (b"0,0,1,R\n5,00000000003,2,W\n", "line 2: field out of range"),
    (b"0,0,1,R\n5,0," + b"0" * 20 + b",W\n", "line 2: field out of range"),
    (b"#note\n0,0,1,R\n", "line 1: bad #wss sidecar value"),
    (b"#wss=+3\n0,0,1,R\n", "line 1: bad #wss sidecar value"),
    (b"#wss= 3\n0,0,1,R\n", "line 1: bad #wss sidecar value"),
    (b"#wss=3\r\n0,0,1,R\n", "line 1: bad #wss sidecar value"),
    (b"#wss=\n0,0,1,R\n", "line 1: bad #wss sidecar value"),
]


@pytest.mark.parametrize("data,match", REFUSED)
def test_refused_forms_name_their_line(data, match):
    with pytest.raises(TraceParseError, match=re.escape(match)):
        read_trace(io.BytesIO(data))


@st.composite
def workload_specs(draw):
    n_pages = draw(st.integers(1, 300))
    return WorkloadSpec(
        n_pages=n_pages,
        pattern=draw(st.sampled_from(list(Pattern))),
        d_iters=draw(st.integers(1, 40)),
        wi=draw(st.integers(0, 100)),
        hot_pages=draw(st.one_of(st.none(), st.integers(1, n_pages))),
        cold_prefix=draw(st.booleans()),
        seed=draw(st.one_of(st.integers(0, 5), st.integers(0, 2**32))),
        inter_access_gap_ns=draw(st.one_of(st.sampled_from([0, 1, 100]), st.integers(0, 10**9))),
    )


@settings(max_examples=400, deadline=None)
@given(workload_specs(), st.sampled_from([None, 7]))
def test_generate_matches_per_pass_reference(spec, chunk):
    # With 7-row blocks, the seams of the wi draws fall inside passes.
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(trace_mod, "_CHUNK", chunk)
        tr = generate(spec)
    assert len(tr) == spec.access_count
    assert tr == reference_generate(spec)


def test_generate_many_tiny_passes():
    # One draw per pass used to take 8.3 s for n_pages = 1, d_iters = 10^6.
    spec = WorkloadSpec(n_pages=1, pattern=Pattern.WRITE_INTENSITY, wi=30, d_iters=50_000, seed=3)
    assert generate(spec) == reference_generate(spec)


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
    # Only the specs' own checks run: the specs at the bound would hold 10^8
    # accesses, and 10^12 pages or passes used to pass validation.
    per_page = 1 if pattern is Pattern.WRITE_INTENSITY else 2
    if cold_prefix:
        spec = WorkloadSpec(n_pages=MAX_ACCESSES - per_page * 1000, pattern=pattern,
                            hot_pages=1000, cold_prefix=True)
    else:
        spec = WorkloadSpec(n_pages=MAX_ACCESSES // per_page, pattern=pattern)
    for bad in (dict(d_iters=2), dict(n_pages=10**12), dict(d_iters=10**12)):
        with pytest.raises(ValidationError, match="workload.n_pages"):
            dataclasses.replace(spec, **bad)


# -- array reader and writer against the per-line reference -------------------

BIG = [0, 1, 2**31 - 1, 2**31, 10**17, 10**18 - 1, 10**18, 2**63 - 1]
# Field edits. Most make a line that breaks the grammar (signs, spaces, '_',
# 20 digits, values past the column's range), so most edited files give
# errors; the rest are edge values the grammar takes (leading zeros, 18 and
# 19 digits, 2^31 - 1).
FIELD_EDITS = [
    lambda f: "+" + f, lambda f: "-" + f, lambda f: " " + f, lambda f: f + " ",
    lambda f: f[:1] + "_" + f[1:], lambda f: "00" + f, lambda f: "", lambda f: "x",
    lambda f: "9" * 18, lambda f: "1" + "0" * 18, lambda f: "9" * 19, lambda f: "9" * 20,
    lambda f: "9223372036854775808", lambda f: "2147483648", lambda f: "2147483647",
    lambda f: f + ",0", lambda f: "w", lambda f: "\xff",
]
LINE_EDITS = ["", "\r", "#c", "#wss=5", " ", "0,0,0", "0,0,0,R,", "1,2,3,R\r"]
SIDECARS = [None, "#wss=12", "#wss=0", "#wss=007", "#wss=", "#wss=-5", "#wss= 7", "#wss=+3",
            "#wss=" + "9" * 18, "#wss=" + "9" * 19, "#wss=9223372036854775807",
            "#wss=9223372036854775808", "#wss=" + "0" * 20, "#wss=x", "#wss=5\r", "#note"]


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
    # Steps of 1, 3 and 7 lines through a buffer of 16 bytes a line: seams
    # fall between lines, inside them and inside the sidecar, and long lines
    # grow the buffer.
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(trace_mod, "_CHUNK", chunk)
            mp.setattr(trace_mod, "_READ_LINES", chunk)
        assert _outcome(read_trace, data) == _outcome(reference_read_trace, data)


non_negative = st.one_of(st.sampled_from([0, 2**63 - 1, 2**31 - 1]), st.integers(0, 2**63 - 1))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 12))
    t = sorted(draw(st.lists(non_negative, min_size=n, max_size=n)))
    vcpu = draw(st.lists(st.one_of(st.sampled_from([0, 2**31 - 1]), st.integers(0, 2**31 - 1)),
                         min_size=n, max_size=n))
    gppn = draw(st.lists(non_negative, min_size=n, max_size=n))
    is_write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    wss = draw(st.one_of(st.none(), st.sampled_from([0, 2**63 - 1]), st.integers(0, 10**6)))
    return Trace(np.array(t, np.int64), np.array(vcpu, np.int32), np.array(gppn, np.int64),
                 np.array(is_write, bool), ground_truth_wss_pages=wss)


@settings(max_examples=300, deadline=None)
@given(traces(), st.sampled_from([None, 1, 3, 7]))
def test_write_trace_matches_per_line_reference(tr, chunk):
    # Every trace the constructor accepts round-trips through a file.
    ours, ref = io.BytesIO(), io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(trace_mod, "_CHUNK", chunk)
        write_trace(tr, ours)
        ours.seek(0)
        assert read_trace(ours) == tr
    reference_write_trace(tr, ref)
    assert ours.getvalue() == ref.getvalue()


def test_canonical_file_takes_array_path(monkeypatch):
    # The differential test above holds as well if the array checks refuse
    # everything; this pins that written files never reach the line checks.
    tr = generate(WorkloadSpec(n_pages=50, pattern=Pattern.WRITE_INTENSITY, wi=40, d_iters=3,
                               inter_access_gap_ns=10**15))
    big = Trace(np.array([0, 10**18 - 1]), np.array([2**31 - 1, 0]),
                np.array([10**18 - 1, 0]), np.array([True, False]))
    largest = Trace(np.array([10**18, 2**63 - 1]), np.array([0, 0]),
                    np.array([2**63 - 1, 10**18]), np.array([False, True]))

    def refuse(lines, first_lineno, prev_t):
        raise AssertionError("a written stream reached the line checks")

    monkeypatch.setattr(trace_mod, "_first_error", refuse)
    monkeypatch.setattr(trace_mod, "_CHUNK", 7)
    monkeypatch.setattr(trace_mod, "_READ_LINES", 7)
    for expected in (tr, big, largest):
        buf = io.BytesIO()
        write_trace(expected, buf)
        buf.seek(0)
        assert read_trace(buf) == expected


@pytest.mark.parametrize("sidecar", [b"", b"#wss=2\n"])
@pytest.mark.parametrize("last_lf", [b"\n", b""])
def test_access_lines_bounded(sidecar, last_lf, monkeypatch):
    # A file had no bound. It is counted before any column exists, so a bad
    # line under the bound does not hide the refusal.
    monkeypatch.setattr(trace_mod, "MAX_ACCESSES", 3)
    monkeypatch.setattr(trace_mod, "_READ_LINES", 2)
    first = 1 + len(sidecar.splitlines())
    lines = [b"0,0,1,R", b"5,0,2,W", b"5,1,3,R"]
    assert len(read_trace(io.BytesIO(sidecar + b"\n".join(lines) + last_lf))) == 3
    for extra in (b"9,0,4,W", b"oops"):
        data = sidecar + b"\n".join([*lines, extra]) + last_lf
        with pytest.raises(TraceParseError, match=f"^line {first + 3}: more than 3 access lines$"):
            read_trace(io.BytesIO(data))
    with pytest.raises(TraceParseError, match=f"^line {first + 3}: more than 3 access lines$"):
        read_trace(io.BytesIO(sidecar + b"0,0,1,R\nbad\n\n\n" + last_lf))


class _Pipe(io.BytesIO):
    def seekable(self):
        return False


def test_non_seekable_stream_refused():
    with pytest.raises(ValidationError, match="^workload.trace: the stream is not seekable"):
        read_trace(_Pipe(b"0,0,1,R\n"))


class _Rewritten(io.BytesIO):
    """A stream whose bytes are replaced when the reader seeks back after counting."""

    def __init__(self, counted, parsed):
        super().__init__(counted)
        self.parsed = parsed

    def seek(self, pos, whence=0):
        super().seek(0)
        self.truncate()
        self.write(self.parsed)
        return super().seek(pos, whence)


@pytest.mark.parametrize("parsed", [b"0,0,1,R\n5,0,2,W\n9,0,3,R\n", b"0,0,1,R\n"])
def test_stream_changed_between_passes_refused(parsed):
    # The columns are sized from the count, so a stream that gains or loses
    # lines before the parse is refused rather than overrun or left short.
    with pytest.raises(ValidationError, match="^workload.trace: the stream changed while it was read$"):
        read_trace(_Rewritten(b"0,0,1,R\n5,0,2,W\n", parsed))


def test_read_starts_at_the_stream_position():
    buf = io.BytesIO(b"skipped\n#wss=1\n0,0,1,R\n")
    buf.seek(8)
    assert read_trace(buf) == Trace(np.array([0]), np.array([0]), np.array([1]), np.array([False]),
                                    ground_truth_wss_pages=1)


def test_read_peak_is_the_columns_plus_one_step(tmp_path):
    # The reader used to hold the whole file, an offset per line and a padded
    # copy of each chunk: 7.3x the columns on the benchmark's replay file.
    def traced_read(path):
        tracemalloc.start()
        try:
            tr = read_trace_file(path)
            return tr, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def write(n, path):
        rng = np.random.default_rng(5)
        tr = Trace(np.arange(n) * 1000, rng.integers(0, 4, n), rng.integers(0, 10**6, n),
                   rng.integers(0, 2, n).astype(bool))
        write_trace_file(tr, path)
        return tr

    step = write(trace_mod._READ_LINES, tmp_path / "step.csv")
    _, step_peak = traced_read(tmp_path / "step.csv")
    columns_of_step = sum(c.nbytes for c in (step.t, step.vcpu, step.gppn, step.is_write))
    big = write(16 * trace_mod._READ_LINES, tmp_path / "big.csv")
    tr, peak = traced_read(tmp_path / "big.csv")
    assert tr == big
    columns = sum(c.nbytes for c in (tr.t, tr.vcpu, tr.gppn, tr.is_write))
    assert peak <= 1.3 * columns + (step_peak - columns_of_step)


@pytest.mark.parametrize("chunk", [1, 3, 7, None])
def test_vcpu_ids_merge_chunks(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(trace_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(3)
    for n, top in ((0, 1), (1, 1), (40, 3), (40, 2**31 - 1), (200, 30)):
        vcpu = rng.integers(0, top, n)
        tr = Trace(np.zeros(n), vcpu, np.zeros(n), np.zeros(n, dtype=bool))
        assert tr.vcpu_ids() == sorted(set(vcpu.tolist()))


def test_vcpu_ids_are_a_new_list_each_call():
    # The ids are merged once per trace; changing a returned list must not
    # change what the next caller gets.
    tr = Trace(np.zeros(4), np.array([3, 1, 3, 0]), np.zeros(4), np.zeros(4, dtype=bool))
    ids = tr.vcpu_ids()
    ids.append(7)
    assert tr.vcpu_ids() == [0, 1, 3]
