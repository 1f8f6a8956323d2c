"""Block activity metrics: filling degree and spatio-temporal utilization.

The two metrics of Sec. 5.1, computed per /24 block:

- **Filling degree (FD)** — the number of distinct addresses in the
  block that were active at least once in the observation window
  (1..256).  Separates static assignment (sparse, typically <64) from
  cycling dynamic pools (≈256).
- **Spatio-temporal utilization (STU)** — active address-days divided
  by the maximum possible (256 × days), in (0, 1].  Separates heavily
  used pools from barely used ones regardless of filling degree.

Both are one fold, :class:`IncrementalBlockMetrics`, over the
dataset's snapshot columns (see :mod:`repro.core.fold`).  Monthly STU
(:func:`monthly_stu`, Fig. 8a) sums the active channel of the per-/24
series fold, :class:`~repro.core.fold.BlockSeries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.core.fold import ROW_WORDS, BlockColumn, BlockFold, BlockSeries, Source, block_series
from repro.core.fold import row_bits, run_folds
from repro.errors import DatasetError
from repro.net.ipv4 import block_of
from repro.obs import context as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store import DatasetStore

BLOCK_SIZE = 256


@dataclass(frozen=True)
class BlockMetrics:
    """Per-/24 filling degree and STU over one observation window."""

    bases: np.ndarray            # sorted /24 base addresses
    filling_degree: np.ndarray   # 1..256 per block
    stu: np.ndarray              # (0, 1] per block
    window_days: int             # total days in the observation window

    def __post_init__(self) -> None:
        if not (self.bases.size == self.filling_degree.size == self.stu.size):
            raise DatasetError("misaligned block metric arrays")

    @property
    def num_blocks(self) -> int:
        return int(self.bases.size)

    def index_of(self, base: int) -> int:
        """Row index of a block base; raises if the block is inactive."""
        pos = int(np.searchsorted(self.bases, base))
        if pos >= self.bases.size or int(self.bases[pos]) != base:
            raise DatasetError(f"block {base:#010x} not active in this window")
        return pos

    def fd_of(self, base: int) -> int:
        return int(self.filling_degree[self.index_of(base)])

    def stu_of(self, base: int) -> float:
        return float(self.stu[self.index_of(base)])

    def select(self, mask: np.ndarray) -> "BlockMetrics":
        """Metrics restricted to the blocks where *mask* is True."""
        return BlockMetrics(
            bases=self.bases[mask],
            filling_degree=self.filling_degree[mask],
            stu=self.stu[mask],
            window_days=self.window_days,
        )


def compute_block_metrics(dataset: ActivityDataset) -> BlockMetrics:
    """FD and STU for every /24 with any activity in *dataset*.

    STU counts one unit per (address, snapshot) pair; with a daily
    dataset that is exactly the paper's active address-days.  For
    coarser windows the denominator scales accordingly (an address
    active in a week contributes one unit out of the week's one).
    """
    with obs.span("analyze/block_metrics"):
        return run_folds(dataset, lambda: IncrementalBlockMetrics(dataset.window_days)).result()


def compute_block_metrics_streamed(store: "DatasetStore") -> BlockMetrics:
    """:func:`compute_block_metrics` streamed shard-at-a-time over a store."""
    with obs.span("analyze/block_metrics_streamed"):
        return run_folds(store, lambda: IncrementalBlockMetrics(store.window_days)).result()


class IncrementalBlockMetrics(BlockFold):
    """FD/STU as a fold over snapshot columns — their one definition.

    Per /24: the presence row of every address ever active (FD is its
    bit count) and the ``int64`` count of active address-columns (STU
    is that over ``256 × columns``, one division at :meth:`result`).
    Exact integers, so in-memory, streamed and live runs agree bit for bit.
    """

    def __init__(self, window_days: int) -> None:
        if window_days < 1:
            raise DatasetError(f"bad window length: {window_days}")
        super().__init__(
            {
                "ever": np.zeros((0, ROW_WORDS), dtype=np.uint64),
                "activity": np.zeros(0, dtype=np.int64),
            }
        )
        self._window_days = window_days

    def update(self, column: BlockColumn | np.ndarray) -> None:
        """Fold the next snapshot column (sorted unique ``uint32``) in."""
        column, rows = self._admit(column)
        self._rows["ever"][rows] |= column.words
        self._rows["activity"][rows] += column.counts

    def merge(self, other: "IncrementalBlockMetrics") -> None:
        if other._window_days != self._window_days:
            raise DatasetError("cannot merge block metrics of different windows")
        super().merge(other)

    def result(self) -> BlockMetrics:
        """The metrics over every snapshot folded in so far."""
        if self._bases.size == 0:
            raise DatasetError("dataset has no active addresses")
        fd = row_bits(self._rows["ever"])
        obs.add("analyze_blocks_total", int(self._bases.size))
        return BlockMetrics(
            bases=self._bases,
            filling_degree=fd,
            stu=self._rows["activity"] / (BLOCK_SIZE * self._num_snapshots),
            window_days=self._num_snapshots * self._window_days,
        )


def activity_matrix(dataset: ActivityDataset, block_base: int) -> np.ndarray:
    """The Fig. 6/7 spatio-temporal view: a 256 × windows boolean matrix.

    Row *r* is address ``block_base + r``; column *c* is snapshot *c*;
    a True cell means the address was active in that window.
    """
    base = block_of(block_base, 24)
    matrix = np.zeros((BLOCK_SIZE, len(dataset)), dtype=bool)
    for column, snapshot in enumerate(dataset):
        lo = int(np.searchsorted(snapshot.ips, base))
        hi = int(np.searchsorted(snapshot.ips, base + BLOCK_SIZE))
        offsets = snapshot.ips[lo:hi].astype(np.int64) - base
        matrix[offsets, column] = True
    return matrix


def block_metrics_from_matrix(matrix: np.ndarray) -> tuple[int, float]:
    """``(FD, STU)`` of one activity matrix — the Fig. 6 annotations."""
    if matrix.shape[0] != BLOCK_SIZE or matrix.ndim != 2 or matrix.shape[1] == 0:
        raise DatasetError(f"expected a 256 x windows matrix, got {matrix.shape}")
    fd = int(matrix.any(axis=1).sum())
    stu = float(matrix.sum() / matrix.size)
    return fd, stu


@dataclass(frozen=True)
class MonthlyStu:
    """Per-block STU per month, and the trailing days left out.

    :attr:`dropped_days` counts the trailing days that did not fill a
    whole month and were therefore excluded from every column.
    """

    bases: np.ndarray        # sorted /24 base addresses
    stu_matrix: np.ndarray   # blocks x months
    dropped_days: int


def monthly_stu(source: Source | BlockSeries, month_days: int = 28) -> MonthlyStu:
    """Per-block STU for each month-sized chunk of a daily dataset or store.

    Returns a :class:`MonthlyStu` with one row per active block and
    one column per month: each row sums the active channel of the
    /24's :class:`~repro.core.fold.BlockSeries` over the month, over
    ``256 × month_days``.  Blocks are the union of blocks active in any
    day; months without activity contribute STU 0.  This is the input
    to the change detection of Sec. 5.2 (Fig. 8a).

    Truncation rule: months are non-overlapping ``month_days``-day
    chunks from the start of the dataset; the trailing
    ``len(dataset) % month_days`` days that do not fill a month are
    excluded.  The excluded count is reported as
    ``result.dropped_days`` rather than dropped silently.
    """
    if source.window_days != 1:
        raise DatasetError("monthly STU expects a daily dataset")
    num_months = len(source) // month_days
    if num_months < 1:
        raise DatasetError(
            f"dataset of {len(source)} days has no full {month_days}-day month"
        )
    with obs.span("analyze/monthly_stu"):
        series = block_series(source)
        days = num_months * month_days
        active = series.active[:, :days].reshape(series.bases.size, num_months, month_days)
        return MonthlyStu(
            bases=series.bases,
            stu_matrix=active.sum(axis=2) / (BLOCK_SIZE * month_days),
            dropped_days=len(source) - days,
        )
