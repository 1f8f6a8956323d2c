"""Tests for the segmented live store: readers, crash points, write cost.

A live store commits one snapshot per append as immutable segments in
``gen_<k>/`` plus a manifest listing every live segment.  These tests
pin the contract from four sides:

- every reader of a segmented store (and the streamed analyses over
  it) equals the batch store of the same dataset, for drawn interval
  sequences whose /24s appear and vanish between appends;
- failing the n-th ``os.fsync``/``os.replace`` of one append, for
  every n, leaves the store committed at k or k+1 with the pinned
  SHA-256 of that count, and finishing the run gives the batch SHA;
- a commit writes its own column, its manifest and the pointer —
  nothing proportional to history;
- refused opens and refused resumes close every handle they opened.
"""

import datetime
import gc
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import churn, metrics
from repro.core.analyze import analyze
from repro.core.dataset import ActivityDataset
from repro.core.io import open_store, save_store
from repro.core.store import (
    DatasetStore,
    RawNpzReader,
    StoreAppender,
    generation_dir_name,
    shard_file_name,
    store_manifest_path,
)
from repro.errors import DatasetError
from repro.obs.manifest import dataset_digest
from tests.core import reference_analyses as reference
from tests.core.test_store import (
    assert_series_analyses_match,
    daily_datasets,
    make_dataset,
    snap,
)

DAY0 = datetime.date(2015, 8, 17)

#: Bytes per address of one ``(uint32 ips, uint64 hits)`` column.
COLUMN_BYTES_PER_ADDRESS = 12

#: Upper bound on one segment file's bytes beyond its column data: the
#: six header members plus the two column members' ``.npy`` headers and
#: zip entries.  A constant of the format, independent of history.
SEGMENT_OVERHEAD_BYTES = 4096


def append_columns(root, dataset, *, shard_blocks):
    with StoreAppender(
        root, start=dataset.start, window_days=1, shard_blocks=shard_blocks
    ) as appender:
        for snapshot in dataset:
            appender.append(snapshot.ips, snapshot.hits)
        return appender.store


def prefix_sha(dataset, count):
    return dataset_digest(ActivityDataset(list(dataset)[:count]))


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def manifest_files(root):
    return sorted(
        os.path.join(directory, name)
        for directory, _dirs, files in os.walk(root)
        for name in files
        if name == "store.manifest.json"
    )


def same_columns(a, b):
    return a[0].dtype == b[0].dtype and a[1].dtype == b[1].dtype and (
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    )


def assert_readers_equal(live, batch, dataset):
    """Every reader of *live* equals the batch store's, and the dataset's."""
    assert live.dataset_sha256 == batch.dataset_sha256
    assert live.digest() == batch.dataset_sha256
    live.verify()
    assert live.num_snapshots == batch.num_snapshots
    assert live.num_blocks == batch.num_blocks
    assert np.array_equal(live.active_counts(), batch.active_counts())
    assert np.array_equal(live.active_block_bases(), batch.active_block_bases())
    for index, snapshot in enumerate(dataset):
        full = live.column_slice(index, 0, 2**32 - 1)
        assert same_columns(full, (snapshot.ips, snapshot.hits))
        # A sub-range cutting across segment boundaries.
        lo, hi = 0x0A000080, 0x51000010
        assert same_columns(
            live.column_slice(index, lo, hi), batch.column_slice(index, lo, hi)
        )
    for got, expected in zip(live.to_dataset(), dataset):
        assert same_columns((got.ips, got.hits), (expected.ips, expected.hits))
    live_runs = list(live.iter_union_runs())
    batch_runs = list(batch.iter_union_runs())
    assert len(live_runs) == len(batch_runs)
    for got, expected in zip(live_runs, batch_runs):
        assert same_columns(got, expected)
    # The address-range views stream the batch store's shard ranges.
    assert [(v.base_lo, v.base_hi) for v in live.shards] == [
        (s.info.base_lo, s.info.base_hi) for s in batch.shards
    ]
    for view, shard in zip(live.shards, batch.shards):
        for index in range(len(dataset)):
            assert same_columns(view.columns(index), shard.columns(index))
        view.close()
        shard.close()


def assert_analyses_equal(live, batch, dataset):
    """Both stores' streamed analyses equal the reference bodies."""
    sizes = [1, 2, len(dataset)]
    expected_sweep = reference.churn_by_window_size(dataset, sizes)
    for store in (live, batch):
        folded = analyze(store, sweep=sizes)
        if any(snapshot.ips.size for snapshot in dataset):
            expected = reference.compute_block_metrics(dataset)
            for got in (
                metrics.compute_block_metrics_streamed(store),
                folded.block_metrics(),
            ):
                assert np.array_equal(got.bases, expected.bases)
                assert np.array_equal(got.filling_degree, expected.filling_degree)
                assert np.array_equal(got.stu, expected.stu)
        assert churn.daily_churn_streamed(store) == reference.daily_churn(dataset)
        assert folded.churn() == reference.daily_churn(dataset)
        assert churn.churn_by_window_size_streamed(store, sizes) == expected_sweep
        assert folded.sweep() == expected_sweep


class TestSegmentedReadersEqualBatch:
    @settings(max_examples=25, deadline=None)
    @given(daily_datasets(), st.integers(min_value=1, max_value=3))
    def test_live_store_equals_batch_store(self, dataset, shard_blocks):
        with tempfile.TemporaryDirectory() as work:
            batch = save_store(
                os.path.join(work, "batch"), dataset, shard_blocks=shard_blocks
            )
            root = os.path.join(work, "live")
            live = append_columns(root, dataset, shard_blocks=shard_blocks)
            reopened = open_store(root)
            for store in (live, reopened):
                assert_readers_equal(store, batch, dataset)
                assert_analyses_equal(store, batch, dataset)
            assert_series_analyses_match(dataset, [batch, live, reopened])
            live.close()
            reopened.close()
            batch.close()

    def test_empty_interval_writes_no_segment(self, tmp_path):
        dataset = ActivityDataset(
            [snap(0, [0x0A000001]), snap(1, []), snap(2, [0x0B000002])]
        )
        root = tmp_path / "live"
        store = append_columns(root, dataset, shard_blocks=1)
        # Commit 2 wrote only a manifest, which commit 3's superseded.
        assert os.listdir(root / generation_dir_name(2)) == []
        assert store.dataset_sha256 == dataset_digest(dataset)
        assert store.column_slice(1, 0, 2**32 - 1)[0].size == 0
        store.close()

    def test_single_commit_is_the_batch_layout(self, tmp_path):
        dataset = ActivityDataset([make_dataset()[0]])
        store = append_columns(tmp_path / "live", dataset, shard_blocks=2)
        assert store.is_batch_layout
        assert store.shards == store.segments
        store.close()


class _Crash(Exception):
    """Stands in for the process dying at a durability point."""


class TestCrashPoints:
    """Fail the n-th ``os.fsync``/``os.replace`` of one append, every n."""

    @pytest.mark.parametrize("shard_blocks", [1, 2])
    @pytest.mark.parametrize("interval", [1, 2, 3])
    def test_every_durability_point_recovers(
        self, tmp_path, monkeypatch, interval, shard_blocks
    ):
        dataset = make_dataset()
        columns = [(s.ips, s.hits) for s in dataset]
        batch_sha = dataset_digest(dataset)
        real_fsync, real_replace = os.fsync, os.replace
        outcomes = []
        for failing_call in range(1, 100):
            root = tmp_path / f"crash-{failing_call}"
            appender = StoreAppender(
                root, start=DAY0, window_days=1, shard_blocks=shard_blocks
            )
            for ips, hits in columns[: interval - 1]:
                appender.append(ips, hits)
            calls = [0]

            def failing(real):
                def call(*args, **kwargs):
                    calls[0] += 1
                    if calls[0] == failing_call:
                        raise _Crash(f"call {failing_call}")
                    return real(*args, **kwargs)

                return call

            monkeypatch.setattr(os, "fsync", failing(real_fsync))
            monkeypatch.setattr(os, "replace", failing(real_replace))
            try:
                appender.append(*columns[interval - 1])
                crashed = False
            except _Crash:
                crashed = True
            finally:
                monkeypatch.setattr(os, "fsync", real_fsync)
                monkeypatch.setattr(os, "replace", real_replace)
                appender.close()
            # Restart from disk alone.
            with StoreAppender(
                root, start=DAY0, window_days=1, shard_blocks=shard_blocks
            ) as resumed:
                committed = resumed.committed
                assert committed in (interval - 1, interval)
                if committed:
                    with open_store(root) as store:
                        assert store.dataset_sha256 == prefix_sha(dataset, committed)
                        assert store.digest() == store.dataset_sha256
                        store.verify()
                for ips, hits in columns[committed:]:
                    resumed.append(ips, hits)
                assert resumed.store.dataset_sha256 == batch_sha
            outcomes.append(committed)
            shutil.rmtree(root)
            if not crashed:
                break
        else:
            pytest.fail("the append never completed without a failure")
        # Every durability point was hit: early failures leave k, the
        # pointer rename commits k+1, and the last run saw no failure.
        assert len(outcomes) > 6
        assert outcomes[0] == interval - 1 and outcomes[-1] == interval
        assert outcomes == sorted(outcomes)


class TestCommitWrites:
    def test_commit_writes_only_its_column_and_manifest(self, tmp_path):
        # Thirty days over a handful of /24s: whatever k is, gen_<k>
        # holds the column's segment(s) and one manifest, nothing more.
        rng = np.random.default_rng(3)
        bases = np.array(
            [0x0A000000, 0x0A000100, 0x0A000200, 0x51000000, 0xC0000000],
            dtype=np.uint32,
        )
        snapshots = []
        for day in range(30):
            offsets = rng.choice(bases.size * 256, size=200, replace=False)
            ips = np.sort(bases[offsets // 256] + (offsets % 256).astype(np.uint32))
            snapshots.append(snap(day, ips, rng.integers(1, 9, size=ips.size)))
        dataset = ActivityDataset(snapshots)
        root = tmp_path / "live"
        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=2
        ) as appender:
            for k, snapshot in enumerate(dataset, start=1):
                appender.append(snapshot.ips, snapshot.hits)
                gen_dir = root / generation_dir_name(k)
                names = sorted(os.listdir(gen_dir))
                assert "store.manifest.json" in names
                segments = [n for n in names if n != "store.manifest.json"]
                assert all(name.startswith("shard_") for name in segments)
                segment_bytes = sum(os.path.getsize(gen_dir / n) for n in segments)
                column_bytes = COLUMN_BYTES_PER_ADDRESS * snapshot.ips.size
                assert column_bytes <= segment_bytes
                assert segment_bytes <= (
                    column_bytes + SEGMENT_OVERHEAD_BYTES * len(segments)
                ), f"commit {k} wrote {segment_bytes} bytes of segments"
                # The superseded manifest is gone: manifest bytes on disk
                # are the live manifest's, not a sum over history.
                assert manifest_files(root) == [
                    store_manifest_path(gen_dir)
                ], f"commit {k} left superseded manifests"

    def test_resume_drops_a_lingering_superseded_manifest(self, tmp_path):
        # A crash between the pointer flip and the drop leaves the old
        # manifest behind; the next start deletes it.
        dataset = make_dataset()
        root = tmp_path / "live"
        append_columns(root, dataset, shard_blocks=1).close()
        last = root / generation_dir_name(len(dataset))
        previous = root / generation_dir_name(len(dataset) - 1)
        shutil.copy(store_manifest_path(last), store_manifest_path(previous))
        with StoreAppender(root, start=DAY0, window_days=1, shard_blocks=1):
            pass
        assert manifest_files(root) == [store_manifest_path(last)]

    def test_append_does_not_reopen_old_segments(self, tmp_path, monkeypatch):
        dataset = make_dataset()
        root = tmp_path / "live"
        appender = StoreAppender(root, start=DAY0, window_days=1, shard_blocks=1)
        appender.append(dataset[0].ips, dataset[0].hits)
        appender.append(dataset[1].ips, dataset[1].hits)
        old = list(appender.store.segments)
        monkeypatch.setattr(
            DatasetStore, "open", lambda *a: pytest.fail("append reopened")
        )
        parsed = []
        real_parse = RawNpzReader._read_npy_header
        monkeypatch.setattr(
            RawNpzReader,
            "_read_npy_header",
            staticmethod(lambda stream: parsed.append(1) or real_parse(stream)),
        )
        store = appender.append(dataset[2].ips, dataset[2].hits)
        assert store.segments[: len(old)] == old
        # Only the new segments' two column members are parsed (for the
        # digest); old segments keep their header, sizes and layout.
        assert len(parsed) == 2 * (len(store.segments) - len(old))
        appender.close()


class TestHandleRelease:
    def test_refused_resume_closes_the_store(self, tmp_path):
        root = tmp_path / "live"
        append_columns(root, make_dataset(), shard_blocks=1).close()
        gc.collect()
        before = open_fds()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(DatasetError, match="window") as excinfo:
                StoreAppender(root, start=DAY0, window_days=7, shard_blocks=1)
            # The traceback keeps the refused appender's frame alive.
            assert excinfo.value is not None
            assert open_fds() == before
            del excinfo
            gc.collect()

    def test_failed_open_closes_validated_shards(self, tmp_path):
        short = ActivityDataset(
            [snap(0, [0x0A000001, 0x0B000001]), snap(1, [0x0B000002])]
        )
        root = tmp_path / "a"
        save_store(root, make_dataset(), shard_blocks=1).close()
        save_store(tmp_path / "b", short, shard_blocks=1).close()
        # The last shard of "a" now disagrees on the day range: open()
        # has validated the earlier shards when it fails.
        shutil.copy(tmp_path / "b" / shard_file_name(1, 2), root / shard_file_name(3, 4))
        gc.collect()
        before = open_fds()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(DatasetError) as excinfo:
                DatasetStore.open(root)
            assert excinfo.value is not None
            assert open_fds() == before
            del excinfo
            gc.collect()

    def test_readers_hold_handles_bounded_by_one_commit(
        self, tmp_path, monkeypatch
    ):
        # One segment per commit over a long history: every reader —
        # and the streamed analyses, and a serve-style replay — must
        # hold at most a few segments open at once, never one per
        # commit (that would exhaust file handles on a year-long
        # series).
        bases = [0x0A000000, 0x0A000100, 0x51000000, 0xC0000000]
        snapshots = [
            snap(day, [bases[day % len(bases)] + day % 256], [day + 1])
            for day in range(150)
        ]
        dataset = ActivityDataset(snapshots)
        root = tmp_path / "live"
        append_columns(root, dataset, shard_blocks=1).close()
        gc.collect()
        baseline = open_fds()
        peak = [baseline]
        real_init = RawNpzReader.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            peak[0] = max(peak[0], open_fds())

        monkeypatch.setattr(RawNpzReader, "__init__", counting_init)
        store = open_store(root)
        assert len(store.segments) == len(dataset)
        metrics.compute_block_metrics_streamed(store)
        churn.daily_churn_streamed(store)
        churn.churn_by_window_size_streamed(store, [1, 7])
        for index in range(len(dataset)):
            store.column_slice(index, 0, 2**32 - 1)
        store.to_dataset()
        store.active_counts()
        store.active_block_bases()
        list(store.iter_union_runs())
        store.digest()
        store.verify()
        store.close()
        with StoreAppender(root, start=DAY0, window_days=1, shard_blocks=1):
            pass
        # Two descriptors per open reader; a handful of readers at once.
        assert peak[0] - baseline <= 8, f"{peak[0] - baseline} fds held at peak"
        gc.collect()
        assert open_fds() == baseline
