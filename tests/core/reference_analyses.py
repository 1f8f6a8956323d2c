"""Reference for the analysis folds: the bodies they replaced.

The library defines filling degree / STU once
(:class:`repro.core.metrics.IncrementalBlockMetrics`), churn once
(:class:`repro.core.churn.IncrementalChurn`) and the per-/24 window
series behind monthly STU and event detection once
(:class:`repro.core.fold.BlockSeries`), as folds over /24 presence
rows.  These are the implementations they replaced — address unions
and /24 scatters through the dataset index, ``Snapshot.up_from``/
``down_to`` set differences, window unions through
``aggregate_to_window``, per-month ``bincount`` loops and the
detector's own per-/24 placement loop — kept in the test tree as the
executable specification every path (in-memory, streamed, live) is
compared against.  Never imported by the library.
"""

import datetime
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any
from unittest import mock

import numpy as np
from numpy.typing import NDArray

from repro.core import change, detect
from repro.core.churn import ChurnSummary, TransitionChurn
from repro.core.dataset import ActivityDataset
from repro.core.fold import ROW_WORDS, BlockColumn, row_bits
from repro.core.metrics import BLOCK_SIZE, BlockMetrics, MonthlyStu
from repro.core.seasonal import WeekdayProfile
from repro.core.windows import (
    PAPER_WINDOW_SIZES,
    aggregate_to_window,
    usable_window_sizes,
)
from repro.errors import DatasetError


def _block_layer(dataset: ActivityDataset) -> tuple[NDArray[Any], NDArray[Any]]:
    """Sorted /24 bases of the address union, and each union address's row."""
    return np.unique(dataset.index.all_ips & np.uint32(0xFFFFFF00), return_inverse=True)


def _snapshot_block_index(dataset: ActivityDataset, ip_block_index, position):
    """Per address of snapshot *position*, its /24's row (for ``bincount``)."""
    return ip_block_index[dataset.index.snapshot_positions(position)]


def compute_block_metrics(dataset: ActivityDataset) -> BlockMetrics:
    """FD from the address union's /24 bincount, STU from per-snapshot bincounts."""
    index = dataset.index
    if index.all_ips.size == 0:
        raise DatasetError("dataset has no active addresses")
    bases, ip_block_index = _block_layer(dataset)
    activity = np.zeros(bases.size, dtype=np.int64)
    for position in range(len(dataset)):
        block_idx = _snapshot_block_index(dataset, ip_block_index, position)
        if block_idx.size == 0:
            continue
        activity += np.bincount(block_idx, minlength=bases.size)
    return BlockMetrics(
        bases=bases,
        filling_degree=np.bincount(ip_block_index, minlength=bases.size),
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


def monthly_stu(dataset: ActivityDataset, month_days: int = 28) -> MonthlyStu:
    """Per-month ``bincount`` of every day's /24 scatter, over ``256 × month_days``."""
    if dataset.window_days != 1:
        raise DatasetError("monthly STU expects a daily dataset")
    num_months = len(dataset) // month_days
    if num_months < 1:
        raise DatasetError(
            f"dataset of {len(dataset)} days has no full {month_days}-day month"
        )
    all_bases, ip_block_index = _block_layer(dataset)
    stu_matrix = np.zeros((all_bases.size, num_months))
    for month in range(num_months):
        for day in range(month * month_days, (month + 1) * month_days):
            idx = _snapshot_block_index(dataset, ip_block_index, day)
            if idx.size == 0:
                continue
            stu_matrix[:, month] += np.bincount(idx, minlength=all_bases.size)
    stu_matrix /= BLOCK_SIZE * month_days
    return MonthlyStu(
        bases=all_bases,
        stu_matrix=stu_matrix,
        dropped_days=len(dataset) - num_months * month_days,
    )


def detect_change(dataset: ActivityDataset, month_days: int = 28) -> change.ChangeDetection:
    """The library's change detection over :func:`monthly_stu` above."""
    with mock.patch.object(change, "monthly_stu", monthly_stu):
        return change.detect_change(dataset, month_days)


@dataclass(frozen=True)
class BlockSeries:
    """Per-block × per-window channel matrices, and the windows' dating."""

    bases: NDArray[Any]
    active: NDArray[Any]
    hits: NDArray[Any]
    churn: NDArray[Any]
    start: datetime.date
    window_days: int

    def __len__(self) -> int:
        return int(self.active.shape[1])


def block_series(dataset: ActivityDataset) -> BlockSeries:
    """Active/hits/churn matrices over the union of observed /24s.

    Churn is the set bits of ``now ^ before`` over ``now | before``,
    on the presence rows of consecutive windows.
    """
    columns = [BlockColumn(snap.ips) for snap in dataset.snapshots]
    bases = np.unique(np.concatenate([column.bases for column in columns]))
    bases = bases.astype(np.uint64)
    active = np.zeros((bases.size, len(dataset)), dtype=np.float64)
    hits = np.zeros_like(active)
    churn = np.zeros_like(active)
    before = np.zeros((bases.size, ROW_WORDS), dtype=np.uint64)
    for window, (snap, column) in enumerate(zip(dataset.snapshots, columns)):
        rows = np.searchsorted(bases, column.bases.astype(np.uint64))
        now = np.zeros_like(before)
        now[rows] = column.words
        active[rows, window] = column.counts
        hits[:, window] = np.bincount(
            np.repeat(rows, column.counts),
            weights=snap.hits.astype(np.float64),
            minlength=bases.size,
        )
        if window:
            union = row_bits(now | before)
            seen = union > 0
            changed = row_bits(now ^ before)[seen]
            churn[seen, window] = changed / union[seen]
        before = now
    return BlockSeries(bases, active, hits, churn, dataset.start, dataset.window_days)


def detect_events(dataset: ActivityDataset) -> list[detect.DetectedEvent]:
    """The library's event detector over :func:`block_series` above."""
    with mock.patch.object(detect, "block_series", block_series):
        return detect.detect_events(dataset)


def weekday_profile(dataset: ActivityDataset) -> WeekdayProfile:
    """Per-weekday means from a loop over the snapshots."""
    if dataset.window_days != 1:
        raise DatasetError("weekday profile expects a daily dataset")
    totals = np.zeros(7)
    samples = np.zeros(7, dtype=np.int64)
    for snapshot in dataset:
        day = snapshot.start.weekday()
        totals[day] += snapshot.num_active
        samples[day] += 1
    with np.errstate(invalid="ignore"):
        mean = np.where(samples > 0, totals / np.maximum(samples, 1), 0.0)
    return WeekdayProfile(mean_active=mean, samples=samples)
