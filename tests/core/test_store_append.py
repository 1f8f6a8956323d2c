"""Tests for the live-store append path (StoreAppender + generations).

Pins the crash-safety contract: commit k writes its segments, then a
manifest listing every live segment, then flips ``live.json`` to k;
a crash at either named phase leaves a state from which deterministic
replay rebuilds the identical bytes.  ``test_store_segments`` fails
every durability point of an append, not only the named phases.
"""

import datetime
import json
import os

import numpy as np
import pytest

from repro.core.io import open_store, save_store
from repro.core.store import (
    COMMIT_PHASE_FINALIZED,
    COMMIT_PHASE_FLIPPED,
    DatasetStore,
    StoreAppender,
    generation_dir_name,
    is_store,
    live_pointer_path,
    read_live_pointer,
    resolve_store_root,
    store_manifest_path,
)
from repro.errors import DatasetError
from tests.core.test_store import make_dataset

DAY0 = datetime.date(2015, 8, 17)


def columns_of(dataset):
    return [(s.ips, s.hits) for s in dataset]


def append_all(root, dataset, *, shard_blocks=2, commit_hook=None):
    with StoreAppender(
        root,
        start=DAY0,
        window_days=1,
        shard_blocks=shard_blocks,
        commit_hook=commit_hook,
    ) as appender:
        for ips, hits in columns_of(dataset):
            appender.append(ips, hits)
        assert appender.store is not None
        return appender.store.dataset_sha256


class TestAppend:
    def test_appended_store_matches_batch_store(self, tmp_path):
        dataset = make_dataset()
        batch = save_store(tmp_path / "batch", dataset, shard_blocks=2)
        live_sha = append_all(tmp_path / "live", dataset)
        assert live_sha == batch.dataset_sha256
        batch.close()

    def test_generation_equals_committed_count(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"
        with StoreAppender(root, start=DAY0, window_days=1) as appender:
            assert appender.committed == 0
            for count, (ips, hits) in enumerate(columns_of(dataset), start=1):
                store = appender.append(ips, hits)
                assert appender.committed == count
                assert store.num_snapshots == count
        pointer = read_live_pointer(root)
        assert pointer == len(dataset)

    def test_pointer_resolution_through_open_store(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"
        append_all(root, dataset)
        assert is_store(root)
        resolved = resolve_store_root(root)
        assert os.path.basename(resolved) == generation_dir_name(len(dataset))
        with open_store(root) as store:
            for expected, got in zip(dataset, store.to_dataset()):
                assert np.array_equal(expected.ips, got.ips)
                assert np.array_equal(expected.hits, got.hits)

    def test_only_live_files_remain(self, tmp_path):
        # No segment is rewritten or collected, and superseded manifests
        # are dropped: every file under the root is a segment the
        # committed manifest lists, that manifest, or the pointer.
        dataset = make_dataset()
        root = tmp_path / "live"
        append_all(root, dataset, shard_blocks=1)
        with open_store(root) as store:
            live = {os.path.realpath(segment.path) for segment in store.segments}
        allowed = {
            os.path.realpath(store_manifest_path(resolve_store_root(root))),
            os.path.realpath(live_pointer_path(root)),
        }
        for directory, _dirs, files in os.walk(root):
            for name in files:
                path = os.path.realpath(os.path.join(directory, name))
                assert path in live or path in allowed, f"stray file {path}"
        generations = sorted(
            name for name in os.listdir(root) if name.startswith("gen_")
        )
        assert generations == [
            generation_dir_name(k) for k in range(1, len(dataset) + 1)
        ]

    def test_new_blocks_between_appends(self, tmp_path):
        # The second interval activates a /24 far below every block of
        # the first: the union re-tiling must keep ranges sorted and
        # the earlier column intact.
        root = tmp_path / "live"
        with StoreAppender(root, start=DAY0, window_days=1, shard_blocks=1) as app:
            app.append(
                np.array([0x0A000001, 0x0B000005], dtype=np.uint32),
                np.array([3, 4], dtype=np.uint64),
            )
            store = app.append(
                np.array([0x01000002, 0x0A000001], dtype=np.uint32),
                np.array([7, 8], dtype=np.uint64),
            )
            back = store.to_dataset()
        assert np.array_equal(
            back[0].ips, np.array([0x0A000001, 0x0B000005], dtype=np.uint32)
        )
        assert np.array_equal(back[0].hits, np.array([3, 4], dtype=np.uint64))
        assert np.array_equal(
            back[1].ips, np.array([0x01000002, 0x0A000001], dtype=np.uint32)
        )
        assert np.array_equal(back[1].hits, np.array([7, 8], dtype=np.uint64))

    def test_resume_validates_header(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"
        append_all(root, dataset)
        with pytest.raises(DatasetError, match="window"):
            StoreAppender(root, start=DAY0, window_days=7)
        with pytest.raises(DatasetError, match="start"):
            StoreAppender(
                root, start=DAY0 + datetime.timedelta(days=1), window_days=1
            )

    def test_plain_store_root_is_rejected(self, tmp_path):
        save_store(tmp_path / "plain", make_dataset(), shard_blocks=2).close()
        with pytest.raises(DatasetError, match="plain"):
            StoreAppender(tmp_path / "plain", start=DAY0, window_days=1)

    def test_unsorted_column_is_rejected(self, tmp_path):
        with StoreAppender(tmp_path / "live", start=DAY0, window_days=1) as app:
            with pytest.raises(DatasetError, match="ascending"):
                app.append(
                    np.array([5, 3], dtype=np.uint32),
                    np.array([1, 1], dtype=np.uint64),
                )


class _Bomb(Exception):
    pass


class TestCrashProtocol:
    def run_with_crash(self, tmp_path, crash_interval, crash_phase):
        """Append with a hook that raises at one commit phase, then
        reopen and finish — the result must match an untouched run."""
        dataset = make_dataset()
        root = tmp_path / "live"

        def hook(phase):
            if phase == crash_phase and hook.interval == crash_interval:
                raise _Bomb(phase)

        columns = columns_of(dataset)
        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=2, commit_hook=hook
        ) as appender:
            survived = 0
            for interval, (ips, hits) in enumerate(columns, start=1):
                hook.interval = interval
                try:
                    appender.append(ips, hits)
                    survived += 1
                except _Bomb:
                    break
        # "Restart": a fresh appender continues from the durable state.
        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=2
        ) as resumed:
            recovered = resumed.committed
            for ips, hits in columns[recovered:]:
                resumed.append(ips, hits)
            sha = resumed.store.dataset_sha256
        batch = save_store(tmp_path / "batch", dataset, shard_blocks=2)
        assert sha == batch.dataset_sha256
        batch.close()
        return survived, recovered

    def test_crash_after_finalize_before_flip(self, tmp_path):
        # Generation written, pointer not flipped: the interval is NOT
        # committed; replay rebuilds the stale generation bit-identically.
        survived, recovered = self.run_with_crash(
            tmp_path, 2, COMMIT_PHASE_FINALIZED
        )
        assert survived == 1
        assert recovered == 1

    def test_crash_after_flip_before_gc(self, tmp_path):
        # Pointer flipped: the interval IS committed even though the
        # append never returned.
        survived, recovered = self.run_with_crash(
            tmp_path, 2, COMMIT_PHASE_FLIPPED
        )
        assert survived == 1
        assert recovered == 2

    def test_stale_generation_is_ignored_on_open(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"

        def hook(phase):
            if phase == COMMIT_PHASE_FINALIZED and hook.interval == 3:
                raise _Bomb(phase)

        columns = columns_of(dataset)
        with StoreAppender(
            root, start=DAY0, window_days=1, commit_hook=hook
        ) as appender:
            for interval, (ips, hits) in enumerate(columns, start=1):
                hook.interval = interval
                try:
                    appender.append(ips, hits)
                except _Bomb:
                    break
        # gen_000003 holds a complete manifest, but the pointer still
        # names gen_000002 — resolution must follow the pointer.
        assert os.path.isdir(root / generation_dir_name(3))
        assert read_live_pointer(root) == 2
        resolved = resolve_store_root(root)
        assert os.path.basename(resolved) == generation_dir_name(2)
        with open_store(root) as store:
            assert store.num_snapshots == 2


class TestPointerEdges:
    def test_corrupt_pointer_raises(self, tmp_path):
        root = tmp_path / "live"
        os.makedirs(root)
        with open(live_pointer_path(root), "w") as handle:
            handle.write("{nope")
        with pytest.raises(DatasetError, match="pointer"):
            read_live_pointer(root)

    def test_wrong_schema_raises(self, tmp_path):
        root = tmp_path / "live"
        os.makedirs(root)
        with open(live_pointer_path(root), "w") as handle:
            json.dump({"schema": 99, "generation": 1}, handle)
        with pytest.raises(DatasetError, match="schema"):
            read_live_pointer(root)

    def test_missing_pointer_is_none(self, tmp_path):
        assert read_live_pointer(tmp_path) is None


class TestColumnSlice:
    def test_slice_reassembles_full_columns(self, tmp_path):
        dataset = make_dataset()
        store = save_store(tmp_path / "store", dataset, shard_blocks=2)
        for index, snapshot in enumerate(dataset):
            ips, hits = store.column_slice(index, 0, 2**32 - 1)
            assert np.array_equal(ips, snapshot.ips)
            assert np.array_equal(hits, snapshot.hits)
        store.close()

    def test_slice_respects_bounds(self, tmp_path):
        dataset = make_dataset()
        store = save_store(tmp_path / "store", dataset, shard_blocks=2)
        ips, hits = store.column_slice(0, 0x0A000100, 0x0A0001FF)
        assert np.array_equal(ips, np.array([0x0A000103], dtype=np.uint32))
        assert np.array_equal(hits, np.array([4], dtype=np.uint64))
        empty_ips, empty_hits = store.column_slice(0, 0xF0000000, 0xF00000FF)
        assert empty_ips.size == 0 and empty_hits.size == 0
        assert empty_ips.dtype == np.uint32 and empty_hits.dtype == np.uint64
        store.close()

    def test_active_block_bases_union(self, tmp_path):
        dataset = make_dataset()
        store = save_store(tmp_path / "store", dataset, shard_blocks=2)
        bases = DatasetStore.open(store.root).active_block_bases()
        assert bases.tolist() == [0x0A000000, 0x0A000100, 0x0B000000, 0xC0000200]
        store.close()
