"""Regression tests: streamed analyses must not leak shard handles.

The streamed churn/metrics folds used to close each shard only on the
happy path; a corrupt shard (or any exception raised mid-fold) leaked
the open ``RawNpzReader`` for every shard already opened.  These tests
raise from a mid-stream shard and assert that every opened reader was
closed anyway — for every caller of the one shard loop, including the
single pass that feeds every fold at once.
"""

import pytest

from repro.core.analyze import analyze
from repro.core.churn import churn_by_window_size_streamed, transition_churn_streamed
from repro.core.io import save_store
from repro.core.metrics import compute_block_metrics_streamed
from tests.core.test_store import make_dataset


class _MidStreamFailure(Exception):
    pass


def open_store_with_failing_shard(tmp_path, fail_index=1):
    """A 2+-shard store whose shard ``fail_index`` raises on read."""
    store = save_store(tmp_path / "store", make_dataset(), shard_blocks=2)
    assert len(store.shards) >= 2
    closed = []
    for position, shard in enumerate(store.shards):
        shard.closed_log = closed
        original_columns = shard.columns
        original_close = shard.close

        def close(shard=shard, original_close=original_close):
            # Record only closes of an actually-open reader: the leak
            # being tested is an open handle, not a no-op close.
            if shard._reader is not None:
                closed.append(shard.info.name)
            original_close()

        shard.close = close
        if position == fail_index:
            def columns(index, shard=shard):
                shard.reader()  # open the handle first, as the real read does
                raise _MidStreamFailure(shard.info.name)

            shard.columns = columns
        else:
            shard.columns = original_columns
    return store, closed


def assert_no_leaks(store, closed):
    for shard in store.shards:
        assert shard._reader is None, f"leaked reader: {shard.info.name}"
    assert len(closed) >= 2  # the healthy shard AND the failing one


@pytest.mark.parametrize(
    "streamed",
    [
        transition_churn_streamed,
        compute_block_metrics_streamed,
        lambda store: churn_by_window_size_streamed(store, [1]),
        lambda store: analyze(store, sweep=[1, 2, 3]),
    ],
    ids=["churn", "metrics", "churn_by_window", "single_pass"],
)
def test_failing_shard_does_not_leak_handles(tmp_path, streamed):
    store, closed = open_store_with_failing_shard(tmp_path)
    with pytest.raises(_MidStreamFailure):
        streamed(store)
    assert_no_leaks(store, closed)
    store.close()


@pytest.mark.parametrize("fail_index", [0, 1])
def test_single_pass_with_every_fold_closes_every_shard(tmp_path, fail_index):
    """The single pass opens each shard once for all its folds;
    a failure in any shard still releases every handle it opened."""
    store, closed = open_store_with_failing_shard(tmp_path, fail_index)
    sizes = list(range(1, len(store) // 2 + 1))
    with pytest.raises(_MidStreamFailure):
        analyze(store, churn=True, sweep=sizes)
    for shard in store.shards:
        assert shard._reader is None, f"leaked reader: {shard.info.name}"
    assert closed  # the failing shard's opened reader was released
    store.close()


def test_happy_path_closes_every_shard(tmp_path):
    store = save_store(tmp_path / "store", make_dataset(), shard_blocks=2)
    transition_churn_streamed(store)
    compute_block_metrics_streamed(store)
    analyze(store, sweep=[1, 2])
    for shard in store.shards:
        assert shard._reader is None
    store.close()
