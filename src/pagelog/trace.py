"""Synthetic memory-access workloads and the trace file format.

A trace is an ordered sequence of guest memory references, one per "array
entry" operation of the workload templates: a cyclic parse of n_pages pages
repeated d_iters times, with the read/write mix controlled by the pattern.
Traces are stored column-wise (numpy arrays) so that generation stays
vectorised and multi-million-access traces stay cheap to hold and replay.

Patterns:

* ``wi``    -- one access per page per pass; each access is a write with
               probability ``wi`` percent, a read otherwise.
* ``rwrw``  -- every page is read then immediately written, each pass.
* ``rrww``  -- a full read pass over all pages, then a full write pass.
* ``wwrr``  -- a full write pass, then a full read pass.

With ``cold_prefix`` enabled, a single write pass over all ``n_pages`` pages
precedes the main loop and the main loop then touches only the first
``hot_pages`` pages; the generator's ground truth is the post-prefix
distinct page count.

File format: CSV text, one access per line, ``t,vcpu,gppn,R|W``, LF line
endings, no header. An optional first line ``#wss=<pages>`` carries the
generator's ground-truth working set size.

The writer formats whole columns at once. The reader parses a file in the
canonical form that the writer emits as arrays, and hands anything else to a
per-line parser, which alone reports parse errors.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TraceParseError, ValidationError

PAGE_SIZE = 4096  # bytes per guest page; all defaults assume 4 KB pages

DEFAULT_INTER_ACCESS_GAP_NS = 100
# Upper bound on the accesses of a generated workload; generate() holds them all.
MAX_ACCESSES = 100_000_000


class Pattern(Enum):
    WRITE_INTENSITY = "wi"
    RWRW = "rwrw"
    RRWW = "rrww"
    WWRR = "wwrr"

    @classmethod
    def parse(cls, name: str) -> "Pattern":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValidationError(f"pattern: unknown pattern {name!r} (expected one of {valid})") from None


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload.

    ``n_pages`` is the total array size in pages, ``d_iters`` the pass count,
    ``wi`` the write intensity in percent (``wi`` pattern only) and
    ``hot_pages`` the size of the hot subset used after a cold prefix.
    """

    n_pages: int
    pattern: Pattern
    d_iters: int = 1
    wi: int = 50
    hot_pages: Optional[int] = None
    cold_prefix: bool = False
    seed: int = 0
    inter_access_gap_ns: int = DEFAULT_INTER_ACCESS_GAP_NS

    def validate(self) -> None:
        if self.n_pages < 1:
            raise ValidationError("n_pages: must be >= 1")
        if self.d_iters < 1:
            raise ValidationError("d_iters: must be >= 1")
        if not 0 <= self.wi <= 100:
            raise ValidationError("wi: must be within 0..100")
        hot = self.effective_hot_pages
        if hot < 1:
            raise ValidationError("hot_pages: must be >= 1")
        if hot > self.n_pages:
            raise ValidationError("hot_pages: must not exceed n_pages")
        if self.inter_access_gap_ns < 0:
            raise ValidationError("inter_access_gap_ns: must be >= 0")
        # generate() emits the prefix, then 2 accesses per page and pass (1 for wi).
        prefix, n_main = (self.n_pages, hot) if self.cold_prefix else (0, self.n_pages)
        per_pass = (1 if self.pattern is Pattern.WRITE_INTENSITY else 2) * n_main
        accesses = prefix + self.d_iters * per_pass
        if accesses > MAX_ACCESSES:
            raise ValidationError(f"workload.n_pages: {accesses} accesses, more than {MAX_ACCESSES}")
        if (accesses - 1) * self.inter_access_gap_ns > _INT64_MAX:
            raise ValidationError(
                "workload.inter_access_gap_ns: the last timestamp (accesses - 1) x gap "
                "exceeds 2^63-1 ns"
            )

    @property
    def effective_hot_pages(self) -> int:
        return self.n_pages if self.hot_pages is None else self.hot_pages


class Trace:
    """An immutable access trace held as parallel columns.

    Columns: ``t`` (int64 ns, non-decreasing), ``vcpu`` (int32), ``gppn``
    (int64) and ``is_write`` (bool). ``ground_truth_wss_pages`` carries the
    generator's known hot-page count, or None for traces read from files
    without the sidecar line.
    """

    __slots__ = ("t", "vcpu", "gppn", "is_write", "ground_truth_wss_pages")

    def __init__(
        self,
        t: np.ndarray,
        vcpu: np.ndarray,
        gppn: np.ndarray,
        is_write: np.ndarray,
        ground_truth_wss_pages: Optional[int] = None,
    ):
        n = len(t)
        if not (len(vcpu) == len(gppn) == len(is_write) == n):
            raise ValidationError("trace columns: lengths differ")
        self.t = np.ascontiguousarray(t, dtype=np.int64)
        self.vcpu = np.ascontiguousarray(vcpu, dtype=np.int32)
        self.gppn = np.ascontiguousarray(gppn, dtype=np.int64)
        self.is_write = np.ascontiguousarray(is_write, dtype=bool)
        if n and np.any(np.diff(self.t) < 0):
            raise ValidationError("t: timestamps must be non-decreasing")
        if n and self.gppn.min() < 0:
            raise ValidationError("gppn: must be non-negative")
        self.ground_truth_wss_pages = ground_truth_wss_pages

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.ground_truth_wss_pages == other.ground_truth_wss_pages
            and len(self) == len(other)
            and bool(np.array_equal(self.t, other.t))
            and bool(np.array_equal(self.vcpu, other.vcpu))
            and bool(np.array_equal(self.gppn, other.gppn))
            and bool(np.array_equal(self.is_write, other.is_write))
        )

    @property
    def span_ns(self) -> int:
        """Virtual duration covered by the trace (last minus first timestamp)."""
        if len(self.t) == 0:
            return 0
        return int(self.t[-1] - self.t[0])

    @property
    def max_gppn(self) -> int:
        return int(self.gppn.max()) if len(self.gppn) else -1

    def distinct_pages(self) -> int:
        return int(np.unique(self.gppn).size) if len(self.gppn) else 0


def _pattern_pass(spec: WorkloadSpec, n: int, rng: np.random.Generator):
    """Page and write columns for one pass of the main loop over n pages."""
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
    elif spec.pattern is Pattern.WWRR:
        pages = np.concatenate([idx, idx])
        writes = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
    else:  # pragma: no cover - enum is closed
        raise ValidationError(f"pattern: unsupported {spec.pattern}")
    return pages, writes


def generate(spec: WorkloadSpec) -> Trace:
    """Produce the deterministic trace described by ``spec``.

    Pure function of its argument: the same workload spec (seed included)
    always yields an identical trace. Randomness (``wi`` pattern only)
    comes from a seeded PCG64 stream, which is reproducible across
    platforms.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_main = spec.effective_hot_pages if spec.cold_prefix else spec.n_pages

    page_chunks = []
    write_chunks = []
    if spec.cold_prefix:
        page_chunks.append(np.arange(spec.n_pages, dtype=np.int64))
        write_chunks.append(np.ones(spec.n_pages, dtype=bool))
    for _ in range(spec.d_iters):
        pages, writes = _pattern_pass(spec, n_main, rng)
        page_chunks.append(pages)
        write_chunks.append(writes)

    gppn = np.concatenate(page_chunks)
    is_write = np.concatenate(write_chunks)
    total = len(gppn)
    t = np.arange(total, dtype=np.int64) * spec.inter_access_gap_ns
    vcpu = np.zeros(total, dtype=np.int32)

    ground_truth = n_main  # distinct pages referenced after any prefix
    return Trace(t, vcpu, gppn, is_write, ground_truth_wss_pages=ground_truth)


# ---------------------------------------------------------------------------
# Trace file I/O
# ---------------------------------------------------------------------------

_WSS_SIDECAR = "#wss="
_INT64_MAX = 2**63 - 1  # largest t and gppn the columns hold
_INT32_MAX = 2**31 - 1  # largest vcpu
_CHUNK = 1 << 18  # lines per step of the array reader and writer; bounds their temporaries
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10^19: digit counts up to 2^64
# The sidecar line as write_trace emits it; any other '#' line goes to the per-line parser.
_CANONICAL_SIDECAR = re.compile(rb"#wss=(\d{1,18})\n")
_PAD = 18  # bytes ahead of each reader chunk, so that every field has a full-width window


def decimal_rows(pieces: Sequence[bytes], columns: Sequence[np.ndarray]) -> Iterator[tuple]:
    """Rows ``pieces[0] + str(columns[0][i]) + pieces[1] + ... + pieces[-1]`` as bytes.

    Takes ``len(columns) + 1`` pieces and integer columns of one length.
    Yields, for each chunk of up to ``_CHUNK`` rows, the chunk's rows
    concatenated into one uint8 array, and the end offset of each row in it.
    A column is written one digit position at a time over all rows, into a
    matrix as wide as its widest value, and the unused cells are dropped.
    """
    n = len(columns[0])
    fixed = sum(map(len, pieces))
    for lo in range(0, n, _CHUNK):
        chunk = [col[lo:lo + _CHUNK] for col in columns]
        widths = []
        for col in chunk:
            mag, neg = _magnitude(col)
            widths.append(np.searchsorted(_POW10, mag, side="right") + 1 + neg)
        text = np.empty((len(chunk[0]), fixed + sum(int(w.max()) for w in widths)), np.uint8)
        keep = np.ones(text.shape, dtype=bool)
        pos = 0
        for k, piece in enumerate(pieces):
            text[:, pos:pos + len(piece)] = np.frombuffer(piece, np.uint8)
            pos += len(piece)
            if k == len(chunk):
                break
            mag, neg = _magnitude(chunk[k])
            width = widths[k]
            w = int(width.max())
            block = text[:, pos:pos + w]
            for j in range(w - 1, -1, -1):
                q = mag // 10
                mag -= q * 10
                block[:, j] = mag
                mag = q
            block += ord("0")
            rows = np.flatnonzero(neg)
            block[rows, w - width[rows]] = ord("-")
            keep[:, pos:pos + w] = np.arange(w) >= (w - width)[:, None]
            pos += w
        yield text[keep], np.cumsum(sum(widths) + fixed)


def _magnitude(col: np.ndarray) -> tuple:
    """``|col|`` as uint64, -2^63 included, and where ``col`` is negative."""
    neg = col < 0
    mag = col.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement
    return mag, neg


def write_trace(trace: Trace, sink: BinaryIO) -> None:
    """Serialise ``trace`` as CSV text onto a binary stream."""
    if trace.ground_truth_wss_pages is not None:
        sink.write(f"{_WSS_SIDECAR}{trace.ground_truth_wss_pages}\n".encode("ascii"))
    lo = 0
    for text, ends in decimal_rows((b"", b",", b",", b",R\n"), (trace.t, trace.vcpu, trace.gppn)):
        text[ends[trace.is_write[lo:lo + len(ends)]] - 2] = ord("W")
        lo += len(ends)
        sink.write(text)


def read_trace(source: BinaryIO) -> Trace:
    """Parse a trace stream written by :func:`write_trace`.

    Raises :class:`TraceParseError` with the offending 1-based line number
    on any malformed line. The ``#wss=`` sidecar is optional. A stream in the
    canonical form that :func:`write_trace` emits is parsed as arrays. Any
    other stream, every malformed one included, goes to the per-line parser,
    which reads a canonical stream to the same trace.
    """
    data = source.read()
    trace = _read_canonical(data)
    return trace if trace is not None else _read_lines(io.BytesIO(data))


def _read_canonical(data: bytes) -> Optional[Trace]:
    """The trace in ``data`` if it is in canonical form, else None.

    Canonical: an optional ``#wss=<digits>`` first line, then lines
    ``<digits>,<digits>,<digits>,R|W``, each ending in LF, with 1 to 18
    digits in ``t`` and ``gppn`` and 1 to 10 in ``vcpu``, ``vcpu`` < 2^31 and
    ``t`` non-decreasing. The per-line parser reads such a stream to the
    same trace: the range and order checks are the only ones of its checks
    that these lines can fail.
    """
    ground_truth = None
    start = 0
    if data.startswith(b"#"):
        sidecar = _CANONICAL_SIDECAR.match(data)
        if sidecar is None:
            return None
        ground_truth = int(sidecar[1])
        start = sidecar.end()
    if len(data) > start and data[-1:] != b"\n":
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf[start:] == ord("\n"))
    ends += start
    n = len(ends)
    t = np.empty(n, np.int64)
    vcpu = np.empty(n, np.int32)
    gppn = np.empty(n, np.int64)
    is_write = np.empty(n, bool)
    prev_t = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        stop = int(ends[hi - 1]) + 1
        columns = _parse_lines(buf[start:stop], ends[lo:hi] - start)
        if columns is None:
            return None
        ct = columns[0]
        if ct[0] < prev_t or np.any(ct[1:] < ct[:-1]):
            return None
        t[lo:hi], vcpu[lo:hi], gppn[lo:hi], is_write[lo:hi] = columns
        prev_t = ct[-1]
        start = stop
    return Trace(t, vcpu, gppn, is_write, ground_truth_wss_pages=ground_truth)


def _parse_lines(lines: np.ndarray, ends: np.ndarray) -> Optional[tuple]:
    """Columns of whole lines (bytes, each LF at ``ends``) if every line is canonical."""
    n = len(ends)
    commas = np.flatnonzero(lines == ord(","))
    # Commas, ops and LFs are the only bytes that may not be digits.
    if len(commas) != 3 * n or np.count_nonzero(lines - ord("0") > 9) != 5 * n:
        return None
    op = lines[ends - 1]
    is_write = op == ord("W")
    if not np.all(is_write | (op == ord("R"))):
        return None
    # With each line's third comma just before its op, every line holds
    # exactly three commas, and the fields between them are all digits.
    commas += _PAD
    c = commas.reshape(n, 3).T
    if np.any(c[2] != ends + (_PAD - 2)):
        return None
    padded = np.empty(_PAD + len(lines), np.uint8)
    padded[_PAD:] = lines
    starts = np.empty(n, np.int64)
    starts[0] = _PAD
    starts[1:] = ends[:-1] + 1 + _PAD
    t = _decimal(padded, starts, c[0], 18)
    vcpu = _decimal(padded, c[0] + 1, c[1], 10)
    gppn = _decimal(padded, c[1] + 1, c[2], 18)
    if t is None or vcpu is None or gppn is None or vcpu.max() > _INT32_MAX:
        return None
    return t, vcpu, gppn, is_write


def _decimal(padded: np.ndarray, start: np.ndarray, end: np.ndarray, most: int) -> Optional[np.ndarray]:
    """Values of the all-digit fields ``padded[start:end]``, or None unless each has 1..most digits."""
    length = end - start
    if length.min() < 1 or length.max() > most:
        return None
    w = int(length.max())
    # Each field right-aligned in a w-byte window, the bytes ahead of it zeroed.
    digits = sliding_window_view(padded, w)[end - w] - ord("0")
    digits *= np.arange(w) >= (w - length)[:, None]
    value = np.zeros(len(length), np.int64)
    for j in range(w):
        value *= 10
        value += digits[:, j]
    return value


def _read_lines(source: BinaryIO) -> Trace:
    """The per-line parser: it accepts every form the format allows and raises every parse error."""
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


def write_trace_file(trace: Trace, path) -> None:
    with open(path, "wb") as f:
        write_trace(trace, f)


def read_trace_file(path) -> Trace:
    with open(path, "rb") as f:
        return read_trace(f)


__all__ = [
    "PAGE_SIZE",
    "Pattern",
    "WorkloadSpec",
    "Trace",
    "generate",
    "decimal_rows",
    "write_trace",
    "read_trace",
    "write_trace_file",
    "read_trace_file",
]
