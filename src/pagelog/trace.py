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

A generated trace is built in place: its columns are allocated once, the
prefix is written first, and one main-loop pass is built once and repeated
into the rest. The ``wi`` writes of all passes are drawn from the seeded
stream in blocks of at most ``_CHUNK`` rows, in pass order.

File format: CSV text, one access per line, ``t,vcpu,gppn,R|W``, no header.
An optional first line ``#wss=<digits>`` carries the generator's ground-truth
working set size. Fields are ASCII digits: 1 to 19, below 2^63, in ``t``,
``gppn`` and ``#wss``; 1 to 10, below 2^31, in ``vcpu``; ``t`` does not
decrease. Each line ends in LF; the last may omit it.

A file holds at most ``MAX_ACCESSES`` access lines. The writer formats
whole columns at once. The reader counts a stream's lines, then parses
cache-sized steps of whole lines as arrays into columns sized from the
count, and names the first line that breaks the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np

from .errors import TraceParseError, ValidationError

PAGE_SIZE = 4096  # bytes per guest page; all defaults assume 4 KB pages

# Upper bound on the accesses of a generated workload and of a trace file.
MAX_ACCESSES = 100_000_000
_CHUNK = 1 << 18  # rows per step of every chunked stage, read at call time; bounds temporaries


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
    inter_access_gap_ns: int = 100

    def __post_init__(self) -> None:
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
        if self.seed < 0:
            raise ValidationError("workload.seed: must be >= 0")
        accesses = self.access_count
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

    @property
    def access_count(self) -> int:
        """Accesses of the trace: the prefix, then 2 per page and pass (1 for wi)."""
        prefix, n_main = (self.n_pages, self.effective_hot_pages) if self.cold_prefix else (0, self.n_pages)
        return prefix + self.d_iters * (1 if self.pattern is Pattern.WRITE_INTENSITY else 2) * n_main


class Trace:
    """An immutable access trace held as parallel columns.

    Columns: ``t`` (int64 ns, non-decreasing), ``vcpu`` (int32), ``gppn``
    (int64) and ``is_write`` (bool). ``ground_truth_wss_pages`` carries the
    generator's known hot-page count, or None for traces read from files
    without the sidecar line. The constructor refuses negative values, a
    ground truth above 2^63-1 and integers that change in the cast to their
    column's dtype, which the file format cannot carry: every trace
    round-trips through a file.
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
        self.t = _integer_column("t", t, np.int64)
        self.vcpu = _integer_column("vcpu", vcpu, np.int32)
        self.gppn = _integer_column("gppn", gppn, np.int64)
        self.is_write = np.ascontiguousarray(is_write, dtype=bool)
        if n and np.any(self.t[1:] < self.t[:-1]):
            raise ValidationError("t: timestamps must be non-decreasing")
        if n and self.t[0] < 0:  # t is sorted: its first value is its least
            raise ValidationError("t: must be non-negative")
        if n and self.vcpu.min() < 0:
            raise ValidationError("vcpu: must be non-negative")
        if n and self.gppn.min() < 0:
            raise ValidationError("gppn: must be non-negative")
        if ground_truth_wss_pages is not None and ground_truth_wss_pages < 0:
            raise ValidationError("ground_truth_wss_pages: must be non-negative")
        if ground_truth_wss_pages is not None and ground_truth_wss_pages > _INT64_MAX:
            raise ValidationError("ground_truth_wss_pages: must be at most 2^63-1")
        self.ground_truth_wss_pages = ground_truth_wss_pages

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.ground_truth_wss_pages == other.ground_truth_wss_pages
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

    def vcpu_ids(self) -> list:
        """The distinct vCPU ids, ascending, merged from those of each ``_CHUNK`` rows.

        Each step sorts the ids so far with the next rows and keeps each value
        unlike its predecessor, so the memory stays O(chunk + ids). Once the
        ids outnumber a chunk, the last step takes all the remaining rows.
        """
        ids = self.vcpu[:0]
        for lo in range(0, len(self.vcpu), _CHUNK):
            rows = self.vcpu[lo:lo + _CHUNK] if len(ids) <= _CHUNK else self.vcpu[lo:]
            ids = np.sort(np.concatenate([ids, rows]))
            first = np.ones(len(ids), dtype=bool)
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            ids = ids[first]
            if len(rows) > _CHUNK:
                break
        return ids.tolist()


def _integer_column(name: str, values, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array; refuses a cast that changes a value."""
    values = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):  # a value the cast changes is refused below
            column = np.asarray(values, dtype=dtype)
    except OverflowError:  # Python ints past the int64 range
        raise ValidationError(f"{name}: values do not fit {np.dtype(dtype).name}") from None
    if values.dtype != dtype and not np.array_equal(column, values):
        raise ValidationError(f"{name}: values do not fit {np.dtype(dtype).name}")
    return column


def _pattern_pass(pattern: Pattern, n: int):
    """Page and write columns of one main-loop pass over n pages; writes None for wi."""
    idx = np.arange(n, dtype=np.int64)
    if pattern is Pattern.WRITE_INTENSITY:
        return idx, None
    if pattern is Pattern.RWRW:
        return np.repeat(idx, 2), np.tile(np.array([False, True]), n)
    first_half = np.arange(2 * n) < n
    if pattern is Pattern.RRWW:
        return np.concatenate([idx, idx]), ~first_half
    if pattern is Pattern.WWRR:
        return np.concatenate([idx, idx]), first_half
    raise ValidationError(f"pattern: unsupported {pattern}")  # pragma: no cover - enum is closed


def generate(spec: WorkloadSpec) -> Trace:
    """Produce the deterministic trace described by ``spec``.

    Pure function of its argument: the same workload spec (seed included)
    always yields an identical trace. The columns are allocated once; the
    main-loop pass is built once and repeated into them. The ``wi`` writes
    come from a seeded PCG64 stream, which is reproducible across
    platforms: one value per access, in pass order.
    """
    n_main = spec.effective_hot_pages if spec.cold_prefix else spec.n_pages
    prefix = spec.n_pages if spec.cold_prefix else 0
    total = spec.access_count

    gppn = np.empty(total, dtype=np.int64)
    is_write = np.empty(total, dtype=bool)
    vcpu = np.zeros(total, dtype=np.int32)
    gppn[:prefix] = np.arange(prefix, dtype=np.int64)
    is_write[:prefix] = True
    pages, writes = _pattern_pass(spec.pattern, n_main)
    gppn[prefix:].reshape(spec.d_iters, len(pages))[:] = pages
    if writes is not None:
        is_write[prefix:].reshape(spec.d_iters, len(pages))[:] = writes
    else:
        rng = np.random.default_rng(spec.seed)
        # Blocks of the flat main loop draw the same values as one draw per
        # pass: PCG64 keeps its spare 32-bit half across calls.
        main = is_write[prefix:]
        for lo in range(0, len(main), _CHUNK):
            block = main[lo:lo + _CHUNK]
            np.less(rng.integers(0, 100, size=len(block)), spec.wi, out=block)
    t = np.arange(total, dtype=np.int64)
    t *= spec.inter_access_gap_ns

    ground_truth = n_main  # distinct pages referenced after any prefix
    return Trace(t, vcpu, gppn, is_write, ground_truth_wss_pages=ground_truth)


# ---------------------------------------------------------------------------
# Trace file I/O
# ---------------------------------------------------------------------------

_WSS_SIDECAR = b"#wss="
_INT64_MAX = 2**63 - 1  # largest t and gppn the columns hold
_INT32_MAX = 2**31 - 1  # largest vcpu
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10^18: digit counts below 2^63
_PLACE = 10 ** np.arange(19, dtype=np.uint64)  # the value of each digit place of a 19-digit field
_PAD = 18  # bytes ahead of the read buffer, so that every digit place of every field can be gathered
_READ_LINES = 2**14  # lines per parse step; the read buffer and every temporary stay cache-sized
_LINE_BYTES = 16  # read buffer bytes per line of a step; only a line longer than the buffer grows it


def decimal_rows(pieces: Sequence[bytes], columns: Sequence[np.ndarray]) -> Iterator[tuple]:
    """Rows ``pieces[0] + str(columns[0][i]) + pieces[1] + ... + pieces[-1]`` as bytes.

    Takes ``len(columns) + 1`` pieces and non-negative integer columns of one
    length, with values below 2^63. Yields, for each chunk of up to
    ``_CHUNK`` rows, the chunk's rows concatenated into one uint8 array, and
    the end offset of each row in it. A column is written one digit position
    at a time over all rows, into a matrix as wide as its widest value, and
    the unused cells are dropped.
    """
    n = len(columns[0])
    fixed = sum(map(len, pieces))
    for lo in range(0, n, _CHUNK):
        chunk = [col[lo:lo + _CHUNK] for col in columns]
        widths = [np.searchsorted(_POW10, col, side="right") + 1 for col in chunk]
        text = np.empty((len(chunk[0]), fixed + sum(int(w.max()) for w in widths)), np.uint8)
        keep = np.ones(text.shape, dtype=bool)
        pos = 0
        for k, piece in enumerate(pieces):
            text[:, pos:pos + len(piece)] = np.frombuffer(piece, np.uint8)
            pos += len(piece)
            if k == len(chunk):
                break
            value, width = chunk[k].astype(np.int64), widths[k]
            w = int(width.max())
            block = text[:, pos:pos + w]
            for j in range(w - 1, -1, -1):
                q = value // 10
                value -= q * 10
                block[:, j] = value
                value = q
            block += ord("0")
            keep[:, pos:pos + w] = np.arange(w) >= (w - width)[:, None]
            pos += w
        yield text[keep], np.cumsum(sum(widths) + fixed)


def write_trace(trace: Trace, sink: BinaryIO) -> None:
    """Serialise ``trace`` as CSV text onto a binary stream."""
    if trace.ground_truth_wss_pages is not None:
        sink.write(b"%s%d\n" % (_WSS_SIDECAR, trace.ground_truth_wss_pages))
    lo = 0
    for text, ends in decimal_rows((b"", b",", b",", b",R\n"), (trace.t, trace.vcpu, trace.gppn)):
        text[ends[trace.is_write[lo:lo + len(ends)]] - 2] = ord("W")
        lo += len(ends)
        sink.write(text)


def read_trace(source: BinaryIO) -> Trace:
    """Parse a trace stream in the grammar that :func:`write_trace` emits.

    Raises :class:`TraceParseError` naming the first line (1-based) that
    breaks the grammar of the module docstring. The stream is read twice,
    so it must be seekable: once to count its lines, refusing more than
    ``MAX_ACCESSES`` access lines before any column exists, then once to
    parse them, in steps of at most ``_READ_LINES`` whole lines through one
    reused buffer, straight into columns sized from the count.
    """
    if not source.seekable():
        raise ValidationError("workload.trace: the stream is not seekable; the reader counts its lines first")
    raw = bytearray(_PAD + _READ_LINES * _LINE_BYTES + 1)  # + 1: room for a missing last LF
    start = source.tell()
    n, sidecar = _count_access_lines(source, raw)
    source.seek(start)
    first_lineno = 1 + sidecar
    if n > MAX_ACCESSES:
        raise TraceParseError(f"more than {MAX_ACCESSES} access lines", first_lineno + MAX_ACCESSES)
    t = np.empty(n, np.int64)
    vcpu = np.empty(n, np.int32)
    gppn = np.empty(n, np.int64)
    is_write = np.empty(n, bool)
    ground_truth = None
    lo = 0
    prev_t = 0
    for buf, begin, ends in _line_blocks(source, raw):
        if sidecar:
            ground_truth = _sidecar(bytes(buf[begin:ends[0]]))
            sidecar = False
            begin, ends = int(ends[0]) + 1, ends[1:]
            if not len(ends):
                continue
        hi = lo + len(ends)
        if hi > n:
            raise ValidationError("workload.trace: the stream changed while it was read")
        if (not _parse_lines(buf, begin, ends, (t[lo:hi], vcpu[lo:hi], gppn[lo:hi], is_write[lo:hi]))
                or t[lo] < prev_t or np.any(t[lo + 1:hi] < t[lo:hi - 1])):
            raise _first_error(bytes(buf[begin:ends[-1]]).split(b"\n"), first_lineno + lo, int(prev_t))
        prev_t = t[hi - 1]
        lo = hi
    if lo != n:
        raise ValidationError("workload.trace: the stream changed while it was read")
    return Trace(t, vcpu, gppn, is_write, ground_truth_wss_pages=ground_truth)


def _count_access_lines(source: BinaryIO, raw: bytearray) -> tuple:
    """``(access lines, whether line 1 is a sidecar)`` of the rest of ``source``, read into ``raw``."""
    buf = np.frombuffer(raw, np.uint8)
    lfs = 0
    first = last = b""
    with memoryview(raw) as view:
        while got := source.readinto(view[_PAD:]):
            lfs += np.count_nonzero(buf[_PAD:_PAD + got] == ord("\n"))
            first = first or raw[_PAD:_PAD + 1]
            last = raw[_PAD + got - 1:_PAD + got]
    sidecar = first == b"#"
    return lfs + (last not in (b"", b"\n")) - sidecar, sidecar


def _line_blocks(source: BinaryIO, raw: bytearray) -> Iterator[tuple]:
    """The whole lines of ``source``, at most ``_READ_LINES`` at a time, read into ``raw`` after ``_PAD`` bytes.

    Yields ``(buf, begin, ends)``: a uint8 view of the buffer, the offset of
    the block's first line and the offsets of its LFs. A last line without
    LF gets one. A line longer than the buffer grows the buffer.
    """
    buf = np.frombuffer(raw, np.uint8)
    stop = _PAD  # end of the bytes held
    eof = False
    while not eof:
        with memoryview(raw) as view:
            while stop < len(raw) - 1 and not eof:
                got = source.readinto(view[stop:-1])
                eof = not got
                stop += got
        if eof and stop > _PAD and raw[stop - 1] != ord("\n"):
            raw[stop] = ord("\n")
            stop += 1
        ends = np.flatnonzero(buf[_PAD:stop] == ord("\n"))
        if not len(ends) and not eof:
            raw = raw + bytes(len(raw))
            buf = np.frombuffer(raw, np.uint8)
            continue
        ends += _PAD
        begin = _PAD
        for k in range(0, len(ends), _READ_LINES):
            block = ends[k:k + _READ_LINES]
            yield buf, begin, block
            begin = int(block[-1]) + 1
        raw[_PAD:_PAD + stop - begin] = raw[begin:stop]
        stop = _PAD + stop - begin


def _sidecar(line: bytes) -> int:
    """The value of a ``#wss=`` first line."""
    value = line[len(_WSS_SIDECAR):] if line.startswith(_WSS_SIDECAR) else b""
    if value[:1] == b"-" and value[1:].isdigit():
        raise TraceParseError("negative #wss sidecar value", 1)
    if not (value.isdigit() and len(value) <= 19 and int(value) <= _INT64_MAX):
        raise TraceParseError("bad #wss sidecar value", 1)
    return int(value)


def _parse_lines(buf: np.ndarray, begin: int, ends: np.ndarray, columns: tuple) -> bool:
    """Parse the whole lines ``buf[begin:ends[-1] + 1]``, each LF at ``ends``, into the slices ``columns``.

    False unless every line keeps the grammar, order aside; the columns then
    hold anything.
    """
    t, vcpu, gppn, is_write = columns
    n = len(ends)
    lines = buf[begin:ends[-1] + 1]
    commas = np.flatnonzero(lines == ord(","))
    # Commas, ops and LFs are the only bytes that may not be digits.
    if len(commas) != 3 * n or np.count_nonzero(lines - ord("0") > 9) != 5 * n:
        return False
    op = buf[ends - 1]
    np.equal(op, ord("W"), out=is_write)
    if not np.all(is_write | (op == ord("R"))):
        return False
    # With each line's third comma just before its op, every line holds
    # exactly three commas, and the fields between them are all digits.
    commas += begin
    c = commas.reshape(n, 3).T
    if np.any(c[2] != ends - 2):
        return False
    starts = np.empty(n, np.int64)
    starts[0] = begin
    starts[1:] = ends[:-1] + 1
    wide = np.empty(n, np.uint64)
    if not (_decimal(buf, c[0], c[0] - starts, _INT64_MAX, t.view(np.uint64))
            and _decimal(buf, c[1], c[1] - c[0] - 1, _INT32_MAX, wide)
            and _decimal(buf, c[2], c[2] - c[1] - 1, _INT64_MAX, gppn.view(np.uint64))):
        return False
    vcpu[:] = wide
    return True


def _decimal(buf: np.ndarray, end: np.ndarray, length: np.ndarray, largest: int, out: np.ndarray) -> bool:
    """Write the values of the digit fields ``buf[end - length:end]`` into the uint64 ``out``.

    One gather per digit place, counted from the last digit; a place at or
    beyond the shortest field is masked in the fields it does not reach.
    False unless each field fits ``largest`` in width and value.
    """
    shortest, longest = int(length.min()), int(length.max())
    if shortest < 1 or longest > len(str(largest)):
        return False
    last = end - (1 + _PAD)  # each field's last digit in buf[_PAD:]; place j reads buf[_PAD - j:]
    scaled = np.empty(len(end), np.uint64)
    for j in range(longest):
        digit = buf[_PAD - j:][last]
        digit -= ord("0")
        if j >= shortest:
            digit *= length > j
        if j:
            np.multiply(digit, _PLACE[j], out=scaled)
            out += scaled
        else:
            out[:] = digit
    return out.max() <= largest


def _first_error(lines: list, first_lineno: int, prev_t: int) -> TraceParseError:
    """The error of the first line in a chunk's ``lines`` that breaks the grammar.

    The checks go in the order: field count, non-integer, op code, range, order
    against ``prev_t``, the t before the chunk.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split(b",")
        if len(fields) != 4:
            return TraceParseError(f"expected 4 fields, got {len(fields)}", lineno)
        t, vcpu, gppn, op = fields
        if not (t.isdigit() and vcpu.isdigit() and gppn.isdigit()):
            return TraceParseError("non-integer field", lineno)
        if op not in (b"R", b"W"):
            op = op.decode("ascii", errors="replace")
            return TraceParseError(f"bad op code {op!r} (expected R or W)", lineno)
        limits = ((t, _INT64_MAX), (vcpu, _INT32_MAX), (gppn, _INT64_MAX))
        if any(len(f) > len(str(largest)) or int(f) > largest for f, largest in limits):
            return TraceParseError("field out of range (t, gppn < 2^63; vcpu < 2^31)", lineno)
        if int(t) < prev_t:
            return TraceParseError("timestamps must be non-decreasing", lineno)
        prev_t = int(t)
    raise AssertionError("the array checks refused lines that pass every line check")


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
