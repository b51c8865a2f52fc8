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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Optional

import numpy as np

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


def write_trace(trace: Trace, sink: BinaryIO) -> None:
    """Serialise ``trace`` as CSV text onto a binary stream."""
    if trace.ground_truth_wss_pages is not None:
        sink.write(f"{_WSS_SIDECAR}{trace.ground_truth_wss_pages}\n".encode("ascii"))
    n = len(trace)
    chunk = 1 << 18
    t = trace.t
    vcpu = trace.vcpu
    gppn = trace.gppn
    w = trace.is_write
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        lines = [
            f"{t[i]},{vcpu[i]},{gppn[i]},{'W' if w[i] else 'R'}"
            for i in range(lo, hi)
        ]
        sink.write(("\n".join(lines) + "\n").encode("ascii"))


def read_trace(source: BinaryIO) -> Trace:
    """Parse a trace stream written by :func:`write_trace`.

    Raises :class:`TraceParseError` with the offending 1-based line number
    on any malformed line. The ``#wss=`` sidecar is optional.
    """
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
    "write_trace",
    "read_trace",
    "write_trace_file",
    "read_trace_file",
]
