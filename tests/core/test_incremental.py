"""Property tests pinning the analysis folds to their reference bodies.

``IncrementalBlockMetrics`` and ``IncrementalChurn`` fold in one window
column at a time; the set-based bodies in
``tests/core/reference_analyses.py`` over the equivalent
:class:`ActivityDataset` are the executable reference.  Equality is
exact (``np.array_equal`` on the float64 STU, not allclose): the folds
accumulate the same integers and perform the same single division, so
any drift is a bug, not rounding.

The crash-boundary property mirrors the serve lifecycle: fold a prefix,
"crash", build fresh accumulators, replay the prefix, continue with the
suffix — the result must be indistinguishable from never crashing.
"""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import churn, metrics
from repro.core.analyze import analyze
from repro.core.churn import IncrementalChurn
from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.fold import BlockColumn, BlockSeries
from repro.core.io import save_store
from repro.core.metrics import IncrementalBlockMetrics
from repro.errors import DatasetError
from tests.core.reference_analyses import block_series as reference_series
from tests.core.reference_analyses import (
    churn_by_window_size,
    compute_block_metrics,
    transition_churn,
)

DAY0 = datetime.date(2015, 8, 17)


def columns_strategy(min_snapshots=1):
    """Lists of sorted-unique uint32 columns over a handful of /24s."""
    addresses = st.integers(min_value=0, max_value=5 * 256 - 1)
    column = st.lists(addresses, min_size=0, max_size=40, unique=True).map(
        lambda vals: np.array(sorted(vals), dtype=np.uint32) + np.uint32(0x0A000000)
    )
    return st.lists(column, min_size=min_snapshots, max_size=8)


def dataset_from(columns, window_days=1):
    snapshots = []
    for position, ips in enumerate(columns):
        snapshots.append(
            Snapshot(
                DAY0 + datetime.timedelta(days=position * window_days),
                window_days,
                ips,
                np.ones(ips.size, dtype=np.uint64),
            )
        )
    return ActivityDataset(snapshots)


def assert_metrics_equal(incremental, batch):
    assert np.array_equal(incremental.bases, batch.bases)
    assert np.array_equal(incremental.filling_degree, batch.filling_degree)
    # Exact, not allclose: same integer accumulations, same division.
    assert np.array_equal(incremental.stu, batch.stu)
    assert incremental.window_days == batch.window_days


class TestIncrementalBlockMetrics:
    @settings(max_examples=60, deadline=None)
    @given(columns=columns_strategy())
    def test_matches_batch_after_every_prefix(self, columns):
        accumulator = IncrementalBlockMetrics(window_days=1)
        for position, ips in enumerate(columns):
            accumulator.update(ips)
            prefix = columns[: position + 1]
            if not any(col.size for col in prefix):
                with pytest.raises(DatasetError):
                    accumulator.result()
                continue
            assert_metrics_equal(
                accumulator.result(), compute_block_metrics(dataset_from(prefix))
            )

    @settings(max_examples=40, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2), data=st.data())
    def test_crash_boundary_replay_is_invisible(self, columns, data):
        crash_at = data.draw(
            st.integers(min_value=1, max_value=len(columns) - 1), label="crash_at"
        )
        uninterrupted = IncrementalBlockMetrics(window_days=1)
        for ips in columns:
            uninterrupted.update(ips)
        # Crash after `crash_at` columns: fresh accumulator, replay the
        # committed prefix, then continue with the live suffix.
        restarted = IncrementalBlockMetrics(window_days=1)
        for ips in columns[:crash_at]:
            restarted.update(ips)
        for ips in columns[crash_at:]:
            restarted.update(ips)
        if not any(col.size for col in columns):
            return
        assert_metrics_equal(restarted.result(), uninterrupted.result())
        assert_metrics_equal(
            restarted.result(), compute_block_metrics(dataset_from(columns))
        )

    def test_weekly_window_days_scale(self):
        accumulator = IncrementalBlockMetrics(window_days=7)
        columns = [
            np.array([0x0A000001, 0x0A000002], dtype=np.uint32),
            np.array([0x0A000002], dtype=np.uint32),
        ]
        for ips in columns:
            accumulator.update(ips)
        batch = compute_block_metrics(dataset_from(columns, window_days=7))
        assert_metrics_equal(accumulator.result(), batch)
        assert accumulator.result().window_days == 14

    def test_rejects_bad_window(self):
        with pytest.raises(DatasetError, match="window"):
            IncrementalBlockMetrics(window_days=0)


class TestIncrementalChurn:
    @settings(max_examples=60, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2))
    def test_matches_batch_transitions(self, columns):
        accumulator = IncrementalChurn()
        for ips in columns:
            accumulator.update(ips)
        assert accumulator.num_snapshots == len(columns)
        assert accumulator.transitions() == transition_churn(dataset_from(columns))

    @settings(max_examples=40, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2), data=st.data())
    def test_crash_boundary_replay_is_invisible(self, columns, data):
        crash_at = data.draw(
            st.integers(min_value=1, max_value=len(columns) - 1), label="crash_at"
        )
        restarted = IncrementalChurn()
        for ips in columns[:crash_at]:
            restarted.update(ips)
        for ips in columns[crash_at:]:
            restarted.update(ips)
        assert restarted.transitions() == transition_churn(dataset_from(columns))

    def test_summary_matches_batch_summary(self):
        columns = [
            np.array([1, 2, 3], dtype=np.uint32),
            np.array([2, 3, 4], dtype=np.uint32),
            np.array([4], dtype=np.uint32),
        ]
        accumulator = IncrementalChurn()
        for ips in columns:
            accumulator.update(ips)
        summary = accumulator.summary(window_days=1)
        assert summary.window_days == 1
        assert list(summary.transitions) == transition_churn(dataset_from(columns))


def fed(fold, columns):
    for ips in columns:
        fold.update(ips)
    return fold


BLOCK_A = 0x0A000000
BLOCK_B = 0x0A000100
BLOCK_C = 0xC0A80000


def column(*ips):
    return np.array(sorted(ips), dtype=np.uint32)


class TestFoldEdges:
    def test_block_first_seen_mid_run_grows_bases(self):
        # C first appears after A (a row appended), then B, which sorts
        # between them (a row inserted mid-table).
        columns = [
            column(BLOCK_A + 1, BLOCK_A + 2),
            column(BLOCK_A + 2, BLOCK_C + 7),
            column(BLOCK_A + 200, BLOCK_B + 7, BLOCK_C + 255),
            column(BLOCK_B + 0),
        ]
        block_metrics = IncrementalBlockMetrics(window_days=1)
        daily = IncrementalChurn()
        for position, ips in enumerate(columns):
            shared = BlockColumn(ips)  # one split feeds both folds
            block_metrics.update(shared)
            daily.update(shared)
            prefix = dataset_from(columns[: position + 1])
            assert_metrics_equal(block_metrics.result(), compute_block_metrics(prefix))
            if position:
                assert daily.transitions() == transition_churn(prefix)
        assert block_metrics.result().bases.tolist() == [BLOCK_A, BLOCK_B, BLOCK_C]

    def test_shared_column_feeds_folds_with_different_histories(self):
        # A split is reused across folds; its placement must not leak
        # from a fold that has seen other /24s.
        history, ips = [column(BLOCK_C + 1)], column(BLOCK_A + 3, BLOCK_B + 4)
        shared = BlockColumn(ips)
        fresh = fed(IncrementalBlockMetrics(window_days=1), [shared])
        seasoned = fed(IncrementalBlockMetrics(window_days=1), history + [shared])
        assert_metrics_equal(fresh.result(), compute_block_metrics(dataset_from([ips])))
        assert_metrics_equal(
            seasoned.result(), compute_block_metrics(dataset_from(history + [ips]))
        )

    def test_all_empty_columns(self):
        columns = [column(), column(), column()]
        block_metrics = fed(IncrementalBlockMetrics(window_days=1), columns)
        assert block_metrics.num_snapshots == 3
        with pytest.raises(DatasetError, match="no active addresses"):
            block_metrics.result()
        daily = fed(IncrementalChurn(), columns)
        assert daily.transitions() == transition_churn(dataset_from(columns))
        assert all(t.up_count == t.down_count == 0 for t in daily.transitions())

    def test_trailing_partial_window_counts_toward_nothing(self):
        columns = [column(BLOCK_A + day) for day in range(7)]
        weekly_three = fed(IncrementalChurn(window=3), columns)
        # Days 0-2 and 3-5 are windows; day 6 fills no window.
        assert len(weekly_three.transitions()) == 1
        expected = churn_by_window_size(dataset_from(columns), [3])[3]
        assert weekly_three.summary(3) == expected
        transition = weekly_three.transitions()[0]
        assert (transition.active_before, transition.active_after) == (3, 3)
        assert (transition.up_count, transition.down_count) == (3, 3)

    @settings(max_examples=40, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2), window=st.integers(1, 4))
    def test_window_fold_matches_reference_after_every_prefix(self, columns, window):
        fold = IncrementalChurn(window)
        for position, ips in enumerate(columns):
            fold.update(ips)
            prefix = dataset_from(columns[: position + 1])
            if len(prefix) // window < 2:
                assert fold.transitions() == []
                continue
            assert fold.summary(window) == churn_by_window_size(prefix, [window])[window]

    @settings(max_examples=40, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2), data=st.data())
    def test_merge_of_disjoint_ranges_equals_one_fold(self, columns, data):
        split = data.draw(st.sampled_from([BLOCK_A + 256 * k for k in range(6)]))
        low = [ips[ips < split] for ips in columns]
        high = [ips[ips >= split] for ips in columns]
        for make in (lambda: IncrementalBlockMetrics(1), lambda: IncrementalChurn(2)):
            whole = fed(make(), columns)
            merged = fed(make(), high)  # merge order does not matter
            merged.merge(fed(make(), low))
            if isinstance(whole, IncrementalChurn):
                assert merged.transitions() == whole.transitions()
            elif any(ips.size for ips in columns):
                assert_metrics_equal(merged.result(), whole.result())

    def test_series_grows_rows_mid_run_and_reads_hits(self):
        # C, then A before it; every channel equals the reference loop's.
        columns = [column(BLOCK_C + 1), column(BLOCK_A + 1, BLOCK_C + 1, BLOCK_C + 2)]
        dataset = dataset_from(columns)
        series = BlockSeries(DAY0, 1, len(columns))
        for snapshot in dataset:
            series.update(BlockColumn(snapshot.ips, snapshot.hits * np.uint64(3)))
        expected = reference_series(dataset)
        assert np.array_equal(series.bases, expected.bases)
        assert np.array_equal(series.active, expected.active)
        assert np.array_equal(series.hits, 3 * expected.hits)
        assert np.array_equal(series.churn, expected.churn)
        with pytest.raises(DatasetError, match="without its hits"):
            BlockSeries(DAY0, 1, 1).update(column(BLOCK_A + 1))

    def test_merge_rejects_overlap_and_mismatched_snapshots(self):
        one = fed(IncrementalChurn(), [column(BLOCK_A + 1), column(BLOCK_A + 2)])
        with pytest.raises(DatasetError, match="overlapping"):
            one.merge(fed(IncrementalChurn(), [column(BLOCK_A + 3), column()]))
        with pytest.raises(DatasetError, match="snapshots"):
            one.merge(fed(IncrementalChurn(), [column(BLOCK_B + 3)]))


class TestErrorTexts:
    """Every way of running a fold reports a bad request in the same words."""

    @staticmethod
    def message(call):
        with pytest.raises(DatasetError) as raised:
            call()
        return str(raised.value)

    def test_need_two_windows(self, tmp_path):
        dataset = dataset_from([column(BLOCK_A + 1)])
        store = save_store(tmp_path / "store", dataset)
        messages = {
            self.message(call)
            for call in (
                lambda: churn.transition_churn(dataset),
                lambda: churn.transition_churn_streamed(store),
                lambda: churn.daily_churn(dataset),
                lambda: churn.daily_churn_streamed(store),
                lambda: analyze(dataset),
                lambda: analyze(store),
                lambda: fed(IncrementalChurn(), [column(BLOCK_A + 1)]).summary(1).up_min,
            )
        }
        store.close()
        assert len(messages) == 2
        assert all("need at least two windows to measure churn" in m for m in messages)
        assert "need at least two windows to measure churn" in messages

    def test_no_usable_window_sizes(self, tmp_path):
        dataset = dataset_from([column(BLOCK_A + day) for day in range(5)])
        store = save_store(tmp_path / "store", dataset)
        messages = {
            self.message(call)
            for call in (
                lambda: churn.churn_by_window_size(dataset, [3, 5]),
                lambda: churn.churn_by_window_size_streamed(store, [3, 5]),
                lambda: analyze(dataset, sweep=[3, 5]),
                lambda: analyze(store, sweep=[3, 5]),
            )
        }
        store.close()
        assert messages == {
            "no usable window sizes in [3, 5]: every size leaves fewer than "
            "two windows over 5 days"
        }

    def test_no_active_addresses(self, tmp_path):
        dataset = dataset_from([column(), column()])
        store = save_store(tmp_path / "store", dataset)
        messages = {
            self.message(call)
            for call in (
                lambda: metrics.compute_block_metrics(dataset),
                lambda: metrics.compute_block_metrics_streamed(store),
                lambda: analyze(store).block_metrics(),
                lambda: fed(IncrementalBlockMetrics(1), [column()]).result(),
            )
        }
        store.close()
        assert messages == {"dataset has no active addresses"}
