"""The walk stage against the spec, over every small trace.

Traces number their pages (and vCPUs) by first occurrence, so each class of
traces that differ only in names is run once. Many traces run as distinct
vCPUs of one trace, since each vCPU has its own TLB and flags.
"""

import numpy as np
import pytest

import spec
from helpers import small_traces
from pagelog.mmu import MAX_VCPUS, TlbConfig, walk_codes
from pagelog.trace import Trace


@pytest.mark.parametrize("n_vcpus,max_len,count", [(1, 6, 9394), (2, 4, 1970)])
@pytest.mark.parametrize("n_sets", [1, 2, 3])
@pytest.mark.parametrize("ways", [1, 2])
def test_walk_codes_match_spec_exhaustively(n_vcpus, max_len, count, n_sets, ways):
    cases = small_traces(max_len, 3, n_vcpus)
    assert len(cases) == count
    per_trace = MAX_VCPUS // n_vcpus
    for lo in range(0, len(cases), per_trace):
        accesses = [(k * n_vcpus + v, p, w)
                    for k, case in enumerate(cases[lo:lo + per_trace]) for v, p, w in case]
        vcpu, gppn, is_write = (np.array(column) for column in zip(*accesses))
        trace = Trace(np.arange(len(accesses)), vcpu, gppn, is_write)
        got = walk_codes(trace, TlbConfig(entries=n_sets * ways, ways=ways)).tolist()
        want = spec.walk_codes(accesses, n_sets, ways)
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            case = cases[lo + accesses[i][0] // n_vcpus]
            pytest.fail(f"access {i}: code {got[i]}, spec {want[i]}, in {case}")
