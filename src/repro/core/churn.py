"""Up/down events and churn percentages (Sec. 4.1, Figs. 4a/4b).

The paper defines an **up event** for an address that is absent in one
window but present in the next, and a **down event** for the reverse.
The headline findings these functions reproduce:

- ~8% of active addresses come and go between consecutive days, with
  weekday/weekend swings up to ~14% (Fig. 4a/4b at x=1);
- churn does *not* vanish at coarser granularity: at 7-day windows and
  beyond it plateaus around 5% (Fig. 4b) — the set of active addresses
  is in constant flux at every timescale.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.core.fold import (
    ROW_WORDS,
    BlockColumn,
    BlockFold,
    FoldGroup,
    Source,
    popcount,
    run_folds,
)
from repro.core.windows import PAPER_WINDOW_SIZES, usable_window_sizes
from repro.errors import DatasetError
from repro.obs import context as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store import DatasetStore


@dataclass(frozen=True)
class TransitionChurn:
    """Churn between one pair of consecutive windows."""

    up_count: int
    down_count: int
    active_before: int
    active_after: int

    @property
    def up_fraction(self) -> float:
        """Up events over the later window's active count (paper's def.)."""
        return self.up_count / self.active_after if self.active_after else 0.0

    @property
    def down_fraction(self) -> float:
        """Down events over the earlier window's active count."""
        return self.down_count / self.active_before if self.active_before else 0.0


@dataclass(frozen=True)
class ChurnSummary:
    """Min/median/max of up/down fractions over all transitions.

    The statistics require at least one transition; accessing any of
    them on an empty summary raises a clear
    :class:`~repro.errors.DatasetError` instead of numpy's cryptic
    zero-size reduction error.
    """

    window_days: int
    transitions: tuple[TransitionChurn, ...]

    def _fractions(self, which: str) -> np.ndarray:
        if not self.transitions:
            raise DatasetError(
                f"churn summary for {self.window_days}d windows has no "
                "transitions — need at least two windows to measure churn"
            )
        return np.array([getattr(t, which) for t in self.transitions])

    @property
    def up_min(self) -> float:
        return float(self._fractions("up_fraction").min())

    @property
    def up_median(self) -> float:
        return float(np.median(self._fractions("up_fraction")))

    @property
    def up_max(self) -> float:
        return float(self._fractions("up_fraction").max())

    @property
    def down_min(self) -> float:
        return float(self._fractions("down_fraction").min())

    @property
    def down_median(self) -> float:
        return float(np.median(self._fractions("down_fraction")))

    @property
    def down_max(self) -> float:
        return float(self._fractions("down_fraction").max())


def check_churn_windows(num_snapshots: int) -> None:
    """Churn is measured between windows: it needs at least two."""
    if num_snapshots < 2:
        raise DatasetError("need at least two windows to measure churn")


def sweep_sizes(source: Source, window_sizes: Sequence[int] | None) -> list[int]:
    """The Fig. 4b sizes (default :data:`PAPER_WINDOW_SIZES`) leaving two windows.

    Explicit and default sizes are filtered alike; if none is usable
    this raises rather than return an empty sweep.
    """
    if source.window_days != 1:
        raise DatasetError("the window-size sweep expects a daily dataset")
    candidates = list(PAPER_WINDOW_SIZES if window_sizes is None else window_sizes)
    for size in candidates:
        if size < 1:
            raise DatasetError(f"bad window size: {size}")
    sizes = usable_window_sizes(source, candidates)
    if not sizes:
        raise DatasetError(
            f"no usable window sizes in {candidates}: every size leaves "
            f"fewer than two windows over {len(source)} days"
        )
    return sizes


def _transitions(source: Source) -> list[TransitionChurn]:
    check_churn_windows(len(source))
    return run_folds(source, IncrementalChurn).transitions()


def transition_churn(dataset: ActivityDataset) -> list[TransitionChurn]:
    """Churn for every consecutive window pair of *dataset*."""
    with obs.span("analyze/churn/transitions"):
        return _transitions(dataset)


def transition_churn_streamed(store: "DatasetStore") -> list[TransitionChurn]:
    """:func:`transition_churn` streamed shard-at-a-time over a store."""
    with obs.span("analyze/churn/transitions_streamed"):
        return _transitions(store)


def _daily(source: Source) -> ChurnSummary:
    if source.window_days != 1:
        raise DatasetError("daily churn expects a daily dataset")
    return ChurnSummary(1, tuple(_transitions(source)))


def daily_churn(dataset: ActivityDataset) -> ChurnSummary:
    """Fig. 4a's companion numbers: daily up/down event statistics."""
    with obs.span("analyze/churn/transitions"):
        return _daily(dataset)


def daily_churn_streamed(store: "DatasetStore") -> ChurnSummary:
    """:func:`daily_churn` streamed shard-at-a-time over a store."""
    with obs.span("analyze/churn/transitions_streamed"):
        return _daily(store)


def up_down_event_series(dataset: ActivityDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-transition up/down event counts (the Fig. 4a bars)."""
    transitions = transition_churn(dataset)
    ups = np.array([t.up_count for t in transitions], dtype=np.int64)
    downs = np.array([t.down_count for t in transitions], dtype=np.int64)
    return ups, downs


def _sweep(
    source: Source, window_sizes: Sequence[int] | None
) -> dict[int, ChurnSummary]:
    sizes = sweep_sizes(source, window_sizes)
    group = run_folds(
        source, lambda: FoldGroup({size: IncrementalChurn(size) for size in sizes})
    )
    return {size: fold.summary(size) for size, fold in group.folds.items()}


def churn_by_window_size(
    dataset: ActivityDataset, window_sizes: Sequence[int] | None = None
) -> dict[int, ChurnSummary]:
    """The Fig. 4b sweep: churn statistics per aggregation window size.

    For every usable size (:func:`sweep_sizes`) churn is measured
    between consecutive non-overlapping windows, each size one
    :class:`IncrementalChurn` fed in the same pass.
    """
    with obs.span("analyze/churn/window_sweep"):
        return _sweep(dataset, window_sizes)


def churn_by_window_size_streamed(
    store: "DatasetStore", window_sizes: Sequence[int] | None = None
) -> dict[int, ChurnSummary]:
    """:func:`churn_by_window_size` streamed shard-at-a-time over a store."""
    with obs.span("analyze/churn/window_sweep_streamed"):
        return _sweep(store, window_sizes)


class IncrementalChurn(BlockFold):
    """Churn at window size *window* as a fold — its one definition.

    Per /24 it keeps the presence row of the window being filled (the
    OR of its columns) and of the last complete one.  A filled window
    records its active, up (``now & ~before``) and down (``before &
    ~now``) bit counts; a trailing window that never fills counts for
    nothing.
    """

    def __init__(self, window: int = 1) -> None:
        if window < 1:
            raise DatasetError(f"bad window size: {window}")
        super().__init__(
            {
                "filling": np.zeros((0, ROW_WORDS), dtype=np.uint64),
                "last": np.zeros((0, ROW_WORDS), dtype=np.uint64),
            }
        )
        self._window = window
        #: ``(active, ups, downs)`` of each complete window.
        self._counts: list[tuple[int, int, int]] = []

    def update(self, column: BlockColumn | np.ndarray) -> None:
        """Fold the next snapshot column (sorted unique ``uint32``) in."""
        column, rows = self._admit(column)
        self._rows["filling"][rows] |= column.words
        if self._num_snapshots % self._window:
            return
        now, before = self._rows["filling"], self._rows["last"]
        self._counts.append(
            (popcount(now), popcount(now & ~before), popcount(before & ~now))
        )
        self._rows["last"] = now
        self._rows["filling"] = np.zeros_like(now)

    def merge(self, other: "IncrementalChurn") -> None:
        if other._window != self._window:
            raise DatasetError("cannot merge churn folds of different windows")
        super().merge(other)
        self._counts = [
            (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            for a, b in zip(self._counts, other._counts)
        ]

    def transitions(self) -> list[TransitionChurn]:
        """Churn for every consecutive pair of complete windows so far."""
        obs.add("analyze_churn_transitions_total", max(len(self._counts) - 1, 0))
        return [
            TransitionChurn(
                up_count=after[1],
                down_count=after[2],
                active_before=before[0],
                active_after=after[0],
            )
            for before, after in zip(self._counts, self._counts[1:])
        ]

    def summary(self, window_days: int) -> ChurnSummary:
        """The :class:`ChurnSummary` over all transitions so far."""
        return ChurnSummary(window_days, tuple(self.transitions()))


def churn_plateau(summaries: dict[int, ChurnSummary], from_size: int = 7) -> float:
    """Median up-churn across window sizes >= *from_size*.

    The paper's striking observation is that this does not decay to
    zero — it sits near 5% for weekly and coarser windows.
    """
    values = [
        summary.up_median for size, summary in summaries.items() if size >= from_size
    ]
    if not values:
        raise DatasetError(f"no window sizes >= {from_size} in summary dict")
    return float(np.median(values))
