"""Working-set-size estimation algorithms.

All estimators share one convergence rule: the cumulative log is observed
every ``mu`` seconds of virtual time, the i-th observation yields a
distinct-page count ``dist[i]``, and the loop ends at the first
``i >= omega/mu`` with ``dist[i] - dist[i - omega/mu] == 0`` (the count has
been stable for the whole ``omega`` window). ``dist`` is non-decreasing by
construction since pages only ever accumulate log entries.

Estimators:

* :func:`estimate_from_series` -- the convergence loop over one observation
  series: ``prl`` feeds it the count of pages logged at least ``tau`` times
  (all-access logging; identifies hot pages), ``pml`` the count of distinct
  logged pages (write-only logging records a page once, so ``tau`` cannot
  apply).
* :func:`estimate_vmware` -- the sampling baseline: each period,
  ``VmwareParams.sample_size`` random pages have their present bit
  invalidated and the faulting fraction scales to the allocation size.
* :func:`estimate_oracle` -- offline ground truth straight from the trace,
  no TLB filtering and no buffer losses.
* :func:`estimate_epsilon` -- the multiplicative-shrink probe for the guest
  kernel footprint added by Eq.-style totals (``m_bytes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import trace as trace_mod
from .errors import PredicateContractError, ValidationError
from .trace import PAGE_SIZE, Trace

# Upper bounds on sampling periods and on sampled pages per run. At 100
# samples a period costs about 11 us, nearly all of it the period's rng.choice
# draw; the draw grows with the sample size, so the pages are bounded too.
MAX_VMWARE_PERIODS = 1_000_000
MAX_VMWARE_SAMPLES = 10**8
# Upper bound on samples per period: one period's int64 keys fit the block
# budget of estimate_vmware, _CHUNK // 8 keys.
MAX_VMWARE_SAMPLE_SIZE = 1 << 15

_NS_PER_S = 1_000_000_000


def whole_ns(name: str, seconds: float) -> int:
    """``seconds`` in whole nanoseconds; rejects values that are not finite or round to 0."""
    ns = seconds * _NS_PER_S
    if not (math.isfinite(ns) and round(ns) >= 1):
        raise ValidationError(f"{name}: must be finite and at least 1 ns, got {seconds!r}")
    return round(ns)


@dataclass(frozen=True)
class EstimatorParams:
    """Knobs of the estimation loop.

    ``tau``: minimum log count for a page to be considered hot.
    ``mu_s``: observation interval, virtual seconds.
    ``omega_s``: stability window, virtual seconds; must be a multiple of ``mu_s``.
    """

    tau: int = 50
    mu_s: float = 30.0
    omega_s: float = 120.0
    page_size: int = PAGE_SIZE
    epsilon_bytes: int = 0

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValidationError("tau: must be >= 1")
        whole_ns("mu_s", self.mu_s)
        whole_ns("omega_s", self.omega_s)
        if self.page_size < 1:
            raise ValidationError("page_size: must be >= 1")
        if self.epsilon_bytes < 0:
            raise ValidationError("epsilon_bytes: must be >= 0")
        if self.omega_ns % self.mu_ns != 0:
            raise ValidationError("omega_s: must be an integer multiple of mu_s")

    @property
    def mu_ns(self) -> int:
        return round(self.mu_s * _NS_PER_S)

    @property
    def omega_ns(self) -> int:
        return round(self.omega_s * _NS_PER_S)

    @property
    def window(self) -> int:
        """Stability window expressed in observations (omega / mu)."""
        return self.omega_ns // self.mu_ns


@dataclass(frozen=True)
class VmwareParams:
    """Knobs of the sampling baseline: pages sampled per period, and the period in virtual seconds."""

    sample_size: int = 100
    period_s: float = 30.0

    def __post_init__(self) -> None:
        if not 1 <= self.sample_size <= MAX_VMWARE_SAMPLE_SIZE:
            raise ValidationError(f"vmware.sample_size: must be within 1..{MAX_VMWARE_SAMPLE_SIZE}")
        whole_ns("vmware.period_s", self.period_s)

    @property
    def period_ns(self) -> int:
        return round(self.period_s * _NS_PER_S)


@dataclass(frozen=True)
class WssEstimate:
    """Result of one estimator: hot-page count plus the Eq.-style byte total."""

    wss_pages: int
    m_bytes: int
    observations: Tuple[int, ...]
    converged: bool
    converged_index: Optional[int] = None


def _m_bytes(wss_pages: int, params: EstimatorParams) -> int:
    return wss_pages * params.page_size + params.epsilon_bytes


def estimate_from_series(dist: np.ndarray, params: EstimatorParams) -> WssEstimate:
    """Run the convergence loop over an observation series and build the estimate.

    The loop ends at the first ``i >= k`` with ``dist[i] == dist[i - k]``;
    unconverged, the estimate is the last observation. Raises if the series
    decreases up to that point, since counts over a cumulative log are
    monotone; a live estimation process never sees what comes after it.
    """
    k = params.window
    dist = np.asarray(dist, dtype=np.int64)
    stable = np.flatnonzero(dist[k:] == dist[:-k])
    converged_index = int(stable[0]) + k if len(stable) else None
    seen = dist if converged_index is None else dist[:converged_index + 1]
    decreases = np.flatnonzero(seen[1:] < seen[:-1])
    if len(decreases):
        i = int(decreases[0]) + 1
        raise ValidationError(f"dist: observation {i} decreased ({seen[i]} < {seen[i - 1]})")
    wss = int(seen[-1]) if len(seen) else 0
    return WssEstimate(
        wss_pages=wss,
        m_bytes=_m_bytes(wss, params),
        observations=tuple(seen.tolist()),
        converged=converged_index is not None,
        converged_index=converged_index,
    )


def estimate_oracle(trace: Trace, params: EstimatorParams) -> WssEstimate:
    """Ground truth from the raw trace: pages referenced at least tau times."""
    if len(trace) == 0:
        wss = 0
    else:
        _, counts = np.unique(trace.gppn, return_counts=True)
        wss = int((counts >= params.tau).sum())
    return WssEstimate(
        wss_pages=wss,
        m_bytes=_m_bytes(wss, params),
        observations=(wss,),
        converged=True,
        converged_index=None,
    )


def estimate_vmware(
    trace: Trace,
    allocated_pages: int,
    params: EstimatorParams,
    vmware: VmwareParams = VmwareParams(),
    seed: int = 0,
    until_ns: Optional[int] = None,
) -> WssEstimate:
    """Sampling baseline over a trace feed.

    Periods start at the trace's first access. Each period a fresh sample
    of ``vmware.sample_size`` distinct pages is drawn uniformly from the
    allocation; pages touched during their period count as faulted, and
    the faulted fraction scales to ``allocated_pages``. The reported value
    is the estimate of the last period completed by ``until_ns`` (the
    caller passes the comparison estimator's convergence instant); with no
    completed period, the open period is evaluated at that instant.
    """
    if not 1 <= allocated_pages <= trace_mod._INT64_MAX:
        raise ValidationError("allocated_pages: must be within 1..2^63-1")
    sample_size, period_ns = vmware.sample_size, vmware.period_ns
    if sample_size > allocated_pages:
        raise ValidationError("vmware.sample_size: must not exceed allocated pages")
    t = trace.t
    g = trace.gppn
    t0 = int(t[0]) if len(t) else 0  # periods start at the first access
    if until_ns is None:
        until_ns = int(t[-1]) if len(t) else 0
    n_periods = (until_ns - t0) // period_ns  # periods completed by until_ns
    if n_periods > MAX_VMWARE_PERIODS or n_periods * sample_size > MAX_VMWARE_SAMPLES:
        raise ValidationError(
            f"vmware.period_s: {vmware.period_s!r} s needs {n_periods} sampling periods of "
            f"{sample_size} pages, more than {MAX_VMWARE_PERIODS} periods or {MAX_VMWARE_SAMPLES} pages"
        )

    # Each block of periods draws its samples in period order, as one
    # rng.choice per period, and counts every period's faulted pages with one
    # isin over (period, page) keys. No sample lies beyond the allocation, so
    # only accesses inside it are keyed; accesses go in chunks, which bound
    # temporaries.
    # A block's int64 sample keys fill at most _CHUNK bytes: blocks of _CHUNK
    # keys (2 MiB) raised glibc's mmap threshold, and the next trace read then
    # faulted more pages.
    rng = np.random.default_rng(seed)
    n = max(n_periods, 1)
    block = max(1, min(trace_mod._CHUNK // 8 // sample_size, trace_mod._INT64_MAX // allocated_pages))
    faulted = np.empty(n, dtype=np.int64)
    for k in range(0, n, block):
        b = min(block, n - k)
        sampled = np.empty((b, sample_size), dtype=np.int64)
        for row in sampled:
            row[:] = rng.choice(allocated_pages, size=sample_size, replace=False)
        sampled += np.arange(0, b * allocated_pages, allocated_pages, dtype=np.int64)[:, None]
        start = t0 + k * period_ns
        # With no completed period, the open one runs up to until_ns inclusive.
        end = start + b * period_ns if n_periods > 0 else until_ns + 1
        lo, hi = np.searchsorted(t, (start, end), side="left")
        hit = np.zeros(sampled.shape, dtype=bool)
        for a in range(lo, hi, trace_mod._CHUNK):
            z = min(a + trace_mod._CHUNK, hi)
            inside = g[a:z] < allocated_pages
            keys = (t[a:z][inside] - start) // period_ns * allocated_pages + g[a:z][inside]
            hit |= np.isin(sampled, keys)
        faulted[k:k + b] = hit.sum(axis=1)
    per_period = [round(f / sample_size * allocated_pages) for f in faulted.tolist()]
    wss = per_period[-1]
    return WssEstimate(
        wss_pages=wss,
        m_bytes=_m_bytes(wss, params),
        observations=tuple(per_period),
        converged=True,
        converged_index=None,
    )


def estimate_epsilon(
    boots_ok: Callable[[float], bool],
    start_bytes: float = 2 * 1024**3,
    max_iterations: int = 500,
) -> float:
    """Find the minimal-but-bootable memory size by 5% shrink steps.

    Repeatedly shrinks a candidate size to 95% of the current value and
    probes ``boots_ok``; the last size that still booted is returned. The
    probe must be monotone (true above some threshold, false below). The
    returned value is verified against the probe; an inconsistent answer
    raises :class:`PredicateContractError`, as does exceeding
    ``max_iterations`` shrink steps without a failure.
    """
    if start_bytes <= 0:
        raise ValidationError("start_bytes: must be > 0")
    if max_iterations < 1:
        raise ValidationError("max_iterations: must be >= 1")
    epsilon = float(start_bytes)
    epsilon_verified = False
    for _ in range(max_iterations):
        cur_mem = 0.95 * epsilon
        if not boots_ok(cur_mem):
            if not epsilon_verified and not boots_ok(epsilon):
                raise PredicateContractError(
                    "boots_ok: failed at the start size; predicate is not "
                    "monotone-true above any reachable threshold"
                )
            return epsilon
        epsilon = cur_mem
        epsilon_verified = True
    raise PredicateContractError(
        f"boots_ok: never failed within {max_iterations} shrink steps"
    )


__all__ = [
    "EstimatorParams",
    "VmwareParams",
    "WssEstimate",
    "whole_ns",
    "estimate_from_series",
    "estimate_oracle",
    "estimate_vmware",
    "estimate_epsilon",
]
