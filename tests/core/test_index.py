"""Tests for repro.core.index (the shared DatasetIndex layer)."""

import datetime
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.index import DatasetIndex, kway_union
from repro.errors import DatasetError

DAY0 = datetime.date(2015, 8, 17)


def snap(day_offset, ips, hits=None, days=1):
    return Snapshot(
        DAY0 + datetime.timedelta(days=day_offset * days),
        days,
        np.array(ips, dtype=np.uint32),
        None if hits is None else np.array(hits, dtype=np.uint64),
    )


def make_dataset():
    return ActivityDataset(
        [
            snap(0, [10, 20, 300], [1, 2, 3]),
            snap(1, [], []),
            snap(2, [20, 300, 400, 70000], [4, 5, 6, 7]),
            snap(3, [70000], [8]),
        ]
    )


def naive_union(dataset):
    return np.unique(np.concatenate([s.ips for s in dataset]))


class TestDatasetIndexLayers:
    def test_all_ips_matches_naive_union(self):
        ds = make_dataset()
        assert np.array_equal(ds.index.all_ips, naive_union(ds))
        assert ds.index.all_ips.dtype == np.uint32

    def test_index_is_memoized_per_dataset(self):
        ds = make_dataset()
        assert ds.index is ds.index
        assert ds.all_ips() is ds.all_ips()  # same cached array, no recompute

    def test_cached_arrays_are_read_only(self):
        ds = make_dataset()
        for array in (ds.index.all_ips, ds.index.windows_active,
                      ds.index.total_hits, ds.index.snapshot_positions(0)):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_snapshot_positions_match_searchsorted(self):
        ds = make_dataset()
        union = naive_union(ds)
        for position, snapshot in enumerate(ds):
            expected = np.searchsorted(union, snapshot.ips)
            assert np.array_equal(ds.index.snapshot_positions(position), expected)

    def test_per_ip_stats_match_naive(self):
        ds = make_dataset()
        ips, windows, hits = ds.per_ip_stats()
        union = naive_union(ds)
        assert np.array_equal(ips, union)
        expected_windows = [sum(int(ip) in s for s in ds) for ip in union]
        expected_hits = [sum(s.hits_of(int(ip)) for s in ds) for ip in union]
        assert windows.tolist() == expected_windows
        assert hits.tolist() == expected_hits
        assert hits.dtype == np.uint64

    def test_positions_of_subset(self):
        ds = make_dataset()
        subset = np.array([20, 70000], dtype=np.uint32)
        pos = ds.index.positions_of(subset)
        assert np.array_equal(ds.index.all_ips[pos], subset)

    def test_single_snapshot_dataset(self):
        ds = ActivityDataset([snap(0, [1, 5], [2, 3])])
        assert ds.index.all_ips.tolist() == [1, 5]
        assert ds.index.windows_active.tolist() == [1, 1]
        assert ds.index.total_hits.tolist() == [2, 3]


class TestKwayUnionMatchesPairwiseMerge:
    """The k-way fast path must be bit-identical to the merge fold."""

    def test_kway_union_basic(self):
        parts = [snap(0, [10, 20], [1, 2]), snap(1, [20, 30], [5, 7])]
        ips, hits = kway_union(parts)
        assert ips.tolist() == [10, 20, 30]
        assert hits.tolist() == [1, 7, 7]
        assert ips.dtype == np.uint32 and hits.dtype == np.uint64

    def test_union_snapshot_rejects_bad_range(self):
        ds = make_dataset()
        with pytest.raises(DatasetError):
            ds.union_snapshot(2, 1)
        with pytest.raises(DatasetError):
            ds.union_snapshot(0, len(ds))
        with pytest.raises(DatasetError):
            ds.union_snapshot(-1, 1)

    def test_union_of_empty_snapshots(self):
        ds = ActivityDataset([snap(0, [], []), snap(1, [], [])])
        union = ds.union_snapshot(0, 1)
        assert union.num_active == 0
        assert union.days == 2


@st.composite
def sparse_datasets(draw):
    """Random sparse snapshots: empty ones and duplicate-heavy unions."""
    num_days = draw(st.integers(min_value=2, max_value=10))
    # A narrow address range forces heavy cross-snapshot duplication.
    ip_bound = draw(st.sampled_from([8, 50, 4_000_000_000]))
    snapshots = []
    for day in range(num_days):
        ips = draw(
            st.lists(
                st.integers(min_value=0, max_value=ip_bound),
                min_size=0,
                max_size=20,
            )
        )
        unique = sorted(set(ips))
        hits = draw(
            st.lists(
                st.integers(min_value=1, max_value=2**40),
                min_size=len(unique),
                max_size=len(unique),
            )
        )
        snapshots.append(snap(day, unique, hits))
    return ActivityDataset(snapshots)


def pairwise_fold(snapshots):
    """The seed implementation: a left fold of two-way merges."""
    return reduce(lambda a, b: a.merge(b), snapshots)


class TestUnionProperties:
    @settings(max_examples=60)
    @given(sparse_datasets(), st.integers(min_value=1, max_value=5))
    def test_aggregate_bit_identical_to_merge_fold(self, ds, num_windows):
        if len(ds) // num_windows == 0:
            num_windows = len(ds)
        agg = ds.aggregate(num_windows)
        for group_index, merged in enumerate(agg):
            group = ds.snapshots[
                group_index * num_windows : (group_index + 1) * num_windows
            ]
            reference = pairwise_fold(group)
            assert np.array_equal(merged.ips, reference.ips)
            assert np.array_equal(merged.hits, reference.hits)
            assert merged.ips.dtype == reference.ips.dtype
            assert merged.hits.dtype == reference.hits.dtype
            assert merged.start == reference.start
            assert merged.days == reference.days

    @settings(max_examples=60)
    @given(sparse_datasets(), st.data())
    def test_union_snapshot_bit_identical_to_merge_fold(self, ds, data):
        first = data.draw(st.integers(min_value=0, max_value=len(ds) - 1))
        last = data.draw(st.integers(min_value=first, max_value=len(ds) - 1))
        union = ds.union_snapshot(first, last)
        reference = pairwise_fold(ds.snapshots[first : last + 1])
        assert np.array_equal(union.ips, reference.ips)
        assert np.array_equal(union.hits, reference.hits)
        assert union.days == reference.days

    @settings(max_examples=40)
    @given(sparse_datasets())
    def test_index_stats_match_streaming_reference(self, ds):
        ips, windows, hits = ds.per_ip_stats()
        reference_windows = np.zeros(ips.size, dtype=np.int64)
        reference_hits = np.zeros(ips.size, dtype=np.uint64)
        for snapshot in ds:
            pos = np.searchsorted(ips, snapshot.ips)
            reference_windows[pos] += 1
            reference_hits[pos] += snapshot.hits
        assert np.array_equal(windows, reference_windows)
        assert np.array_equal(hits, reference_hits)
