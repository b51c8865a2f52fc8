"""The benchmark's workloads: scenario text, replay trace and reference counts.

Every input is a pure function of ``(workload, seed, size)``. The program
under test only sees the files written here (a scenario, plus a trace file
for the replay workload); the reference counts that the correctness checks
compare against are computed with numpy straight from the trace columns.

Why each workload exists (see README.md for the layer map):

* ``paml_rwrw``: read-then-write passes over 25 MB, far beyond TLB reach,
  logged in paml mode. Half of all accesses walk, so the TLB, the tracker,
  the handler, the observation series and both baselines all carry load.
* ``compare_hotset``: a cold write prefix, then a read/write hot loop of 48
  pages, which fits in the default 64-entry, 4-way TLB. After the prefix
  nearly every access hits, so the TLB and the engine loop do the work, twice
  (``run_paired`` simulates paml and pml); the tracker and handler idle.
* ``replay_4vcpu``: a 4-vCPU interleaved trace with a seeded write mix,
  replayed from a file in pml mode. It is the only workload that parses a
  trace file, runs the multi-vCPU engine loop and charges pml exit stalls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

NAMES = ("paml_rwrw", "compare_hotset", "replay_4vcpu")
SIZES = ("full", "tiny")

GAP_NS = 100  # generated workloads: one access every 100 ns

# Pages the vmware baseline samples per period. At full size ten times the
# default of 100, so that one period's sampling noise stays small against
# the estimator's error.
VMWARE_SAMPLES = {"full": 1000, "tiny": 100}

# paml_rwrw. A pass is 2 x 6,400 accesses. Each page is logged at most once
# per pass (twice in the first), so tau = 7 of 8 passes counts the pages whose
# walks paml dropped at most twice; the error measures those drops. A vmware
# period of 1/10 pass samples many short periods.
RWRW_PAGES = {"full": 6_400, "tiny": 2_048}
RWRW_PASSES = 8
RWRW_TAU = 7

# compare_hotset. The estimation loop converges after the cold prefix, and the
# open vmware period (default 30 s) then covers the whole prefix.
HOTSET_PAGES = {"full": 6_400, "tiny": 2_048}
HOTSET_HOT = 48
HOTSET_PASSES = {"full": 600, "tiny": 200}

# replay_4vcpu. Each vCPU sweeps a shared hot array (phase-shifted) and, in
# the first half of its stream, touches its own quarter of a cold array once.
REPLAY_VCPUS = 4
REPLAY_FILE = "trace.csv"
REPLAY_LINES = {"full": 25_000, "tiny": 6_000}
REPLAY_HOT = {"full": 1_000, "tiny": 200}
REPLAY_COLD = {"full": 2_000, "tiny": 200}
REPLAY_WRITE_PCT = 50
REPLAY_GAP_NS = 25  # one line every 25 ns, so each vCPU accesses every 100 ns
REPLAY_TAU = 8
REPLAY_BUFFER = 64
REPLAY_VMEXIT_NS = 4000


@dataclass(frozen=True)
class Workload:
    """One prepared workload: its scenario file and what the run must do."""

    name: str
    seed: int
    size: str
    scenario_path: Path
    paired: bool          # run through sim.run_paired instead of sim.run
    expected_len: int     # accesses the materialised trace must hold
    replay_columns: tuple | None = None  # (t, vcpu, gppn, is_write) written to the trace file


def _scenario_rwrw(seed: int, size: str) -> tuple[str, int]:
    n = RWRW_PAGES[size]
    pass_ns = 2 * n * GAP_NS
    mu_ns = pass_ns * 11 // 10
    text = f"""\
workload.pattern = rwrw
workload.n_pages = {n}
workload.d_iters = {RWRW_PASSES}
workload.seed = {seed}
workload.inter_access_gap_ns = {GAP_NS}
tracking.mode = paml
estimator.tau = {RWRW_TAU}
estimator.mu_s = {mu_ns / 1e9!r}
estimator.omega_s = {4 * mu_ns / 1e9!r}
estimators = prl, vmware, oracle
vmware.sample_size = {VMWARE_SAMPLES[size]}
vmware.period_s = {pass_ns // 10 / 1e9!r}
seed = {seed}
"""
    return text, 2 * n * RWRW_PASSES


def _scenario_hotset(seed: int, size: str) -> tuple[str, int]:
    n = HOTSET_PAGES[size]
    d = HOTSET_PASSES[size]
    prefix_ns = n * GAP_NS
    mu_ns = -(-prefix_ns * 3 // 10 // 1000) * 1000  # whole microseconds
    text = f"""\
workload.pattern = rrww
workload.n_pages = {n}
workload.d_iters = {d}
workload.hot_pages = {HOTSET_HOT}
workload.cold_prefix = true
workload.seed = {seed}
workload.inter_access_gap_ns = {GAP_NS}
estimator.tau = 50
estimator.mu_s = {mu_ns / 1e9!r}
estimator.omega_s = {4 * mu_ns / 1e9!r}
seed = {seed}
"""
    return text, n + 2 * HOTSET_HOT * d


def replay_columns(seed: int, size: str) -> tuple:
    """The replay trace's columns, line ``i`` belonging to vCPU ``i % 4``."""
    rng = np.random.default_rng(seed)
    hot, cold = REPLAY_HOT[size], REPLAY_COLD[size]
    per = REPLAY_LINES[size] // REPLAY_VCPUS
    cold_per = cold // REPLAY_VCPUS
    streams = []
    for v in range(REPLAY_VCPUS):
        is_cold = np.zeros(per, dtype=bool)
        is_cold[rng.choice(per // 2, size=cold_per, replace=False)] = True
        stream = np.empty(per, dtype=np.int64)
        stream[is_cold] = hot + v * cold_per + np.arange(cold_per)
        stream[~is_cold] = (np.arange(per - cold_per) + v * hot // REPLAY_VCPUS) % hot
        streams.append(stream)
    gppn = np.stack(streams, axis=1).reshape(-1)
    n = len(gppn)
    vcpu = np.tile(np.arange(REPLAY_VCPUS, dtype=np.int32), per)
    is_write = rng.integers(0, 100, size=n) < REPLAY_WRITE_PCT
    t = np.arange(n, dtype=np.int64) * REPLAY_GAP_NS
    return t, vcpu, gppn, is_write


def _scenario_replay(seed: int, size: str) -> str:
    span_ns = REPLAY_LINES[size] * REPLAY_GAP_NS
    mu_ns = span_ns // 15
    return f"""\
workload.trace = {REPLAY_FILE}
tracking.mode = pml
tracking.buffer_entries = {REPLAY_BUFFER}
tracking.vmexit_cost_ns = {REPLAY_VMEXIT_NS}
estimator.tau = {REPLAY_TAU}
estimator.mu_s = {mu_ns / 1e9!r}
estimator.omega_s = {4 * mu_ns / 1e9!r}
estimators = pml, vmware, oracle
vm_pages = {REPLAY_HOT[size] + REPLAY_COLD[size]}
vmware.sample_size = {VMWARE_SAMPLES[size]}
vmware.period_s = {mu_ns // 10 / 1e9!r}
seed = {seed}
"""


def prepare(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Write the workload's scenario into ``workdir``; the trace file is left
    to the caller, which writes it through the program's own writer."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (expected one of {', '.join(SIZES)})")
    path = workdir / f"{name}.scn"
    columns = None
    if name == "paml_rwrw":
        text, n = _scenario_rwrw(seed, size)
    elif name == "compare_hotset":
        text, n = _scenario_hotset(seed, size)
    else:
        columns = replay_columns(seed, size)
        text, n = _scenario_replay(seed, size), len(columns[0])
    path.write_text(text, encoding="utf-8")
    return Workload(name, seed, size, path, name == "compare_hotset", n, columns)


@dataclass(frozen=True)
class Reference:
    """Counts the checks compare the program's reports against."""

    accesses: int
    pages: int
    vcpus: int
    oracle_pages: int        # pages referenced at least tau times
    written_pages: int       # distinct pages written
    written_pairs: int       # distinct (vcpu, page) pairs written

    def as_dict(self) -> dict:
        return asdict(self)


def reference(vcpu, gppn, is_write, tau: int) -> Reference:
    """Reference counts over a trace's columns."""
    if len(gppn) == 0:
        return Reference(0, 0, 0, 0, 0, 0)
    counts = np.bincount(gppn)
    width = int(gppn.max()) + 1
    written = gppn[is_write]
    return Reference(
        accesses=len(gppn),
        pages=int(np.count_nonzero(counts)),
        vcpus=int(np.unique(vcpu).size),
        oracle_pages=int(np.count_nonzero(counts >= tau)),
        written_pages=int(np.unique(written).size),
        written_pairs=int(np.unique(vcpu[is_write].astype(np.int64) * width + written).size),
    )
