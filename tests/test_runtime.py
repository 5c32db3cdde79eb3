import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyst.errors import NumericError
from levyst.runtime import WorkerPool, WorkPlan
from levyst.sampler import reduce_sum


def test_reduce_sum_fixed_order():
    parts = [0.1, 0.2, 0.3]
    expected = (0.1 + 0.2) + 0.3
    assert reduce_sum(parts) == expected
    assert reduce_sum([5.0]) == 5.0


def test_reduce_sum_worker_count_invariance():
    # chunked evaluation then in-order reduction is identical for any split
    rng = np.random.default_rng(1)
    parts = list(rng.standard_normal(11))
    serial = reduce_sum(parts)
    for w in (2, 3, 5):
        splits = np.array_split(parts, w)
        combined = [x for chunk in splits for x in chunk]
        assert reduce_sum(combined) == serial


def test_reduce_sum_rejects_nonfinite():
    with pytest.raises(NumericError):
        reduce_sum([1.0, float("nan")])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
       st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_reduce_sum_chunking_property(parts, w):
    serial = reduce_sum(parts)
    splits = np.array_split(parts, min(w, len(parts)))
    assert reduce_sum([x for c in splits for x in c]) == serial


def test_pool_run_phase_and_map():
    pool = WorkerPool()
    plan = WorkPlan(parity="odd", assignments=((0, 2), (4, 6), (8,)))
    results = pool.run_phase(plan, lambda k: k * k)
    assert results == {k: k * k for k in plan.indices}
    out = pool.map_indices([4, 1, 7], lambda k: -k)
    assert out == [-4, -1, -7]


def test_pool_serial_equivalence():
    def fn(k):
        return k * 0.5 + 1.0

    plan1 = WorkPlan(parity="even", assignments=((1, 3, 5, 7, 9, 11),))
    plan4 = WorkPlan(parity="even", assignments=((1, 3), (5, 7), (9,), (11,)))
    pool = WorkerPool()
    assert pool.run_phase(plan1, fn) == pool.run_phase(plan4, fn)
