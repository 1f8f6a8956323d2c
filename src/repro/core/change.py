"""Change detection: stable vs. restructured blocks (Sec. 5.2, Fig. 8a).

The paper's first-order partition of the active space: compute each
/24's spatio-temporal utilization per month, take the month-to-month
difference with the largest magnitude, and call the block *major
change* when that difference exceeds ±0.25.  About 9.8% of active
blocks cross the threshold — these are the reallocated, reconfigured,
or repurposed blocks of Fig. 7; the remaining ~90% are *in situ*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fold import BlockSeries, Source
from repro.core.metrics import monthly_stu
from repro.errors import DatasetError

#: The paper's major-change threshold on |ΔSTU| (Sec. 5.2).
DEFAULT_CHANGE_THRESHOLD = 0.25


@dataclass(frozen=True)
class ChangeDetection:
    """Per-block maximum monthly STU change and the major/minor split."""

    bases: np.ndarray
    max_change: np.ndarray  # signed; the entry with the largest |value|
    threshold: float

    def __post_init__(self) -> None:
        if self.bases.size != self.max_change.size:
            raise DatasetError("misaligned change-detection arrays")
        if not 0.0 < self.threshold <= 1.0:
            raise DatasetError(f"bad change threshold: {self.threshold}")

    @property
    def major_mask(self) -> np.ndarray:
        return np.abs(self.max_change) > self.threshold

    @property
    def major_fraction(self) -> float:
        """Fraction of active blocks with major change (paper: ~9.8%)."""
        if self.bases.size == 0:
            return 0.0
        return float(self.major_mask.mean())

    @property
    def major_bases(self) -> np.ndarray:
        return self.bases[self.major_mask]

    @property
    def stable_bases(self) -> np.ndarray:
        return self.bases[~self.major_mask]

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (x, F(x)) of the Fig. 8a CDF over signed max changes."""
        values = np.sort(self.max_change)
        return values, np.arange(1, values.size + 1) / values.size


def detect_change(
    source: Source | BlockSeries,
    month_days: int = 28,
    threshold: float = DEFAULT_CHANGE_THRESHOLD,
) -> ChangeDetection:
    """Fig. 8a: the max month-to-month STU change per active /24.

    *source* is a daily dataset or store, or its already folded
    :class:`~repro.core.fold.BlockSeries`.

    The sign of the reported change is kept (a block switched off shows
    a negative change, a lit-up block a positive one); the magnitude is
    compared against *threshold* for the major/minor split.
    """
    monthly = monthly_stu(source, month_days)
    stu = monthly.stu_matrix
    if stu.shape[1] < 2:
        raise DatasetError("change detection needs at least two months")
    diffs = np.diff(stu, axis=1)
    # Pick, per block, the diff with the largest magnitude (signed).
    arg = np.argmax(np.abs(diffs), axis=1)
    max_change = diffs[np.arange(diffs.shape[0]), arg]
    return ChangeDetection(bases=monthly.bases, max_change=max_change, threshold=threshold)


def threshold_sensitivity(
    detection: ChangeDetection, thresholds: np.ndarray | list[float]
) -> dict[float, float]:
    """Major-change fraction as a function of the threshold.

    The paper picks ±0.25 "based on anecdotal examination"; this sweep
    (used by the ablation benchmark) shows how the stable/major split
    would move under other choices.
    """
    out = {}
    for threshold in thresholds:
        if not 0.0 < threshold <= 1.0:
            raise DatasetError(f"bad threshold in sweep: {threshold}")
        out[float(threshold)] = float((np.abs(detection.max_change) > threshold).mean())
    return out
