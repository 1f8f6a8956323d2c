"""One pass for all: FD/STU, churn, the Fig. 4b sweep and the /24 series.

Every analysis is a fold (:mod:`repro.core.fold`); :func:`analyze`
feeds all requested folds from one read of each column, so each store
shard is opened once for all of them.  The per-/24 series feeds change
and event detection.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.churn import ChurnSummary, IncrementalChurn, check_churn_windows, sweep_sizes
from repro.core.fold import BlockColumn, BlockSeries, FoldGroup, Source, run_folds
from repro.core.metrics import BlockMetrics, IncrementalBlockMetrics
from repro.obs import context as obs


class AnalysisPass:
    """One pass's folds: FD/STU, churn per window (1 doubles as sweep size 1), the /24 series."""

    def __init__(
        self, source: Source, windows: Sequence[int], sizes: Sequence[int], series: bool
    ) -> None:
        self._window_days = source.window_days
        self._sizes = sizes
        self._metrics = IncrementalBlockMetrics(source.window_days)
        self._churn = FoldGroup({window: IncrementalChurn(window) for window in windows})
        self._series = FoldGroup(
            {"series": BlockSeries(source.start, source.window_days, len(source))} if series else {}
        )

    def update(self, column: BlockColumn) -> None:
        self._metrics.update(column)
        self._churn.update(column)
        self._series.update(column)

    def merge(self, other: AnalysisPass) -> None:
        self._metrics.merge(other._metrics)
        self._churn.merge(other._churn)
        self._series.merge(other._series)

    def block_metrics(self) -> BlockMetrics:
        """FD/STU per active /24 (raises when no address was active)."""
        return self._metrics.result()

    def churn(self) -> ChurnSummary:
        """Churn between consecutive snapshots, at the source's window."""
        return self._churn.folds[1].summary(self._window_days)

    def sweep(self) -> dict[int, ChurnSummary]:
        """The Fig. 4b sweep over the requested usable sizes."""
        return {size: self._churn.folds[size].summary(size) for size in self._sizes}

    def series(self) -> BlockSeries:
        """The per-/24 series (a ``KeyError`` unless the pass was asked for it)."""
        return self._series.folds["series"]


def analyze(
    source: Source, *, churn: bool = True, series: bool = False, sweep: Sequence[int] | None = None
) -> AnalysisPass:
    """FD/STU, plus churn, the /24 series and the Fig. 4b sweep if asked, in one pass.

    *sweep* lists window sizes (``None``: no sweep); the usable ones are
    kept, under the rules and errors of
    :func:`~repro.core.churn.churn_by_window_size`.  Every check runs
    before any column is read; the series' readers check their own.
    """
    if churn:
        check_churn_windows(len(source))
    sizes = [] if sweep is None else sweep_sizes(source, sweep)
    windows = sorted(set(sizes) | ({1} if churn else set()))
    with obs.span("analyze/pass"):
        return run_folds(source, lambda: AnalysisPass(source, windows, sizes, series))
