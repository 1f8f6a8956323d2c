"""Reference for the FD/STU and churn folds: the set-based bodies.

The library defines filling degree / STU once
(:class:`repro.core.metrics.IncrementalBlockMetrics`) and churn once
(:class:`repro.core.churn.IncrementalChurn`), as folds over /24 presence
rows.  These are the implementations they replaced — address unions
through the dataset index, ``Snapshot.up_from``/``down_to`` set
differences, and window unions through ``aggregate_to_window`` — kept
in the test tree as the executable specification every path
(in-memory, streamed, live) is compared against.  Never imported by the
library.
"""

from collections.abc import Sequence

import numpy as np

from repro.core.churn import ChurnSummary, TransitionChurn
from repro.core.dataset import ActivityDataset
from repro.core.metrics import BLOCK_SIZE, BlockMetrics
from repro.core.windows import (
    PAPER_WINDOW_SIZES,
    aggregate_to_window,
    usable_window_sizes,
)
from repro.errors import DatasetError


def compute_block_metrics(dataset: ActivityDataset) -> BlockMetrics:
    """FD from the address union's /24 bincount, STU from per-snapshot bincounts."""
    index = dataset.index
    if index.all_ips.size == 0:
        raise DatasetError("dataset has no active addresses")
    bases = index.block_bases
    activity = np.zeros(bases.size, dtype=np.int64)
    for position in range(len(dataset)):
        block_idx = index.snapshot_block_index(position)
        if block_idx.size == 0:
            continue
        activity += np.bincount(block_idx, minlength=bases.size)
    return BlockMetrics(
        bases=bases,
        filling_degree=np.bincount(index.ip_block_index, minlength=bases.size),
        stu=activity / (BLOCK_SIZE * len(dataset)),
        window_days=dataset.total_days,
    )


def transition_churn(dataset: ActivityDataset) -> list[TransitionChurn]:
    """Set differences between every consecutive pair of snapshots."""
    if len(dataset) < 2:
        raise DatasetError("need at least two windows to measure churn")
    return [
        TransitionChurn(
            up_count=int(after.up_from(before).size),
            down_count=int(before.down_to(after).size),
            active_before=before.num_active,
            active_after=after.num_active,
        )
        for before, after in zip(dataset.snapshots, dataset.snapshots[1:])
    ]


def daily_churn(dataset: ActivityDataset) -> ChurnSummary:
    if dataset.window_days != 1:
        raise DatasetError("daily churn expects a daily dataset")
    return ChurnSummary(1, tuple(transition_churn(dataset)))


def churn_by_window_size(
    dataset: ActivityDataset, window_sizes: Sequence[int] | None = None
) -> dict[int, ChurnSummary]:
    """Transition churn of every usable size's aggregated window unions."""
    if dataset.window_days != 1:
        raise DatasetError("the window-size sweep expects a daily dataset")
    candidates = list(PAPER_WINDOW_SIZES if window_sizes is None else window_sizes)
    for size in candidates:
        if size < 1:
            raise DatasetError(f"bad window size: {size}")
    sizes = usable_window_sizes(dataset, candidates)
    if not sizes:
        raise DatasetError(
            f"no usable window sizes in {candidates}: every size leaves "
            f"fewer than two windows over {len(dataset)} days"
        )
    return {
        size: ChurnSummary(
            size, tuple(transition_churn(aggregate_to_window(dataset, size)))
        )
        for size in sizes
    }
