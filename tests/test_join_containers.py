"""A join's finish step holds no container per key.

A list per key and side, or per key group's rows, lives until the join returns: it survives a
collection or two, is promoted to the oldest generation and is walked by every full collection
after.  The finish step (``engine/operators/join.py``) collects into two flat lists and emits
once, and the shuffle slices a key's values only for the one reducer call that takes them.
These guards count the live ``list`` objects (collector off, so only reference counting frees
anything) on one 8 x 2 rows-per-key shape at two key counts, and require the count not to
grow with the keys:

- after ``_merge_join`` returns;
- at the peak over the hash join's reducer calls, sampled every :data:`_EVERY` calls by a
  :class:`~repro.engine.operators.join._JoinedGroups` subclass.
"""

from __future__ import annotations

import gc
import random
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.engine.operators.join import _hash_join, _JoinedGroups, _merge_join
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Emitted

from emitted import emitted

_KEY_COUNTS = (1_000, 4_000)
#: Reducer calls between two samples of the hash join's peak.
_EVERY = 125


def _live_lists() -> int:
    """Lists allocated since the last collection (all of them, with the collector off)."""
    return sum(type(obj) is list for obj in gc.get_objects(generation=0))


def _keyed_sides(keys: int) -> tuple[Emitted, Emitted]:
    """8 left rows and 2 right rows per key, shuffled, keyed as the join's scans emit them."""
    rng = random.Random(keys)
    left = [(i % keys, (i % keys, rng.randrange(1_000_000))) for i in range(keys * 8)]
    right = [(i % keys, (rng.randrange(1_000_000),)) for i in range(keys * 2)]
    rng.shuffle(left)
    rng.shuffle(right)
    return emitted(left), emitted(right)


class _PeakGroups(_JoinedGroups):
    """The collector, sampling the live lists every :data:`_EVERY` reducer calls."""

    def __init__(self, baseline: int) -> None:
        super().__init__()
        self.baseline, self.calls, self.peak = baseline, 0, 0

    def __call__(self, key, lefts, rights):
        emitted = super().__call__(key, lefts, rights)
        self.calls += 1
        if self.calls % _EVERY == 0:
            self.peak = max(self.peak, _live_lists() - self.baseline)
        return emitted


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _merge_lists(keys: int) -> int:
    """Lists alive when ``_merge_join`` has returned, beyond the inputs."""
    left, right = _keyed_sides(keys)
    system = SimpleNamespace(cluster=SimpleNamespace(alive_nodes=[]))
    before = _live_lists()
    joined = _JoinedGroups()
    _merge_join(system, left, right, joined)
    lists = _live_lists() - before
    assert len(joined.rows()) == keys * 16
    return lists


def _hash_peak_lists(keys: int) -> int:
    """The most lists alive at a sampled reducer call of the hash join, beyond the inputs."""
    left, right = _keyed_sides(keys)
    system = SimpleNamespace(
        cluster=Cluster.homogeneous(4, seed=1),
        cost=CostModel(CostParameters(enable_variance=False)),
    )
    query = SimpleNamespace(name="j", left_path="/left")
    joined = _PeakGroups(_live_lists())
    _hash_join(system, query, left, right, Counters(), joined)
    assert joined.calls == keys and len(joined.rows()) == keys * 16
    return joined.peak


def test_a_merge_join_keeps_no_list_per_key(collector_off):
    small, big = (_merge_lists(keys) for keys in _KEY_COUNTS)
    assert big <= small, (small, big)


def test_a_hash_join_holds_no_list_per_key_across_its_reducer_calls(collector_off):
    small, big = (_hash_peak_lists(keys) for keys in _KEY_COUNTS)
    assert big <= small, (small, big)
