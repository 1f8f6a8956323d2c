"""Day-of-week structure in address activity (Fig. 4a's texture).

The paper's daily series shows fewer active addresses on weekends, and
the churn maxima in Fig. 4b come from weekday/weekend boundaries.
This module extracts that structure explicitly: a per-weekday activity
profile, the weekend dip, and the identification of which transitions
carry the churn spikes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.churn import transition_churn
from repro.core.dataset import ActivityDataset
from repro.core.fold import Source
from repro.errors import DatasetError

WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


@dataclass(frozen=True)
class WeekdayProfile:
    """Mean active addresses per day of week, plus the weekend dip."""

    mean_active: np.ndarray  # length 7, indexed Monday=0
    samples: np.ndarray      # observations per weekday

    def __post_init__(self) -> None:
        if self.mean_active.shape != (7,) or self.samples.shape != (7,):
            raise DatasetError("weekday profile arrays must have length 7")

    @property
    def weekend_dip(self) -> float:
        """Weekend mean over weekday mean (< 1 when weekends are quieter)."""
        observed = self.samples > 0
        for name, days in (("weekday (Mon-Fri)", slice(0, 5)), ("weekend (Sat-Sun)", slice(5, 7))):
            if not observed[days].any():
                raise DatasetError(f"no {name} observations: the weekend dip needs both")
        weekday_mean = float(self.mean_active[:5][observed[:5]].mean())
        weekend_mean = float(self.mean_active[5:][observed[5:]].mean())
        if weekday_mean == 0:
            raise DatasetError("no weekday activity: the weekend dip is undefined")
        return weekend_mean / weekday_mean

    def quietest_day(self) -> str:
        observed = np.where(self.samples > 0, self.mean_active, np.inf)
        return WEEKDAY_NAMES[int(np.argmin(observed))]


def weekday_profile(source: Source) -> WeekdayProfile:
    """Per-weekday mean active counts of a daily dataset or store (its headers only)."""
    if source.window_days != 1:
        raise DatasetError("weekday profile expects a daily dataset")
    counts = source.active_counts()
    days = (source.start.weekday() + np.arange(counts.size)) % 7
    totals = np.bincount(days, weights=counts, minlength=7)
    samples = np.bincount(days, minlength=7).astype(np.int64)
    mean = np.where(samples > 0, totals / np.maximum(samples, 1), 0.0)
    return WeekdayProfile(mean_active=mean, samples=samples)


def churn_by_boundary(dataset: ActivityDataset) -> dict[str, float]:
    """Median up-churn split by transition type.

    Returns medians for ``weekday->weekday``, ``weekday->weekend`` and
    ``weekend->weekday`` transitions — the Fig. 4b maxima live on the
    boundary transitions.
    """
    if dataset.window_days != 1:
        raise DatasetError("boundary churn expects a daily dataset")
    transitions = transition_churn(dataset)
    buckets: dict[str, list[float]] = {
        "weekday->weekday": [],
        "weekday->weekend": [],
        "weekend->weekday": [],
        "weekend->weekend": [],
    }
    for index, transition in enumerate(transitions):
        before = (dataset.start.weekday() + index) % 7
        after = (before + 1) % 7
        key = (
            ("weekday" if before < 5 else "weekend")
            + "->"
            + ("weekday" if after < 5 else "weekend")
        )
        buckets[key].append(transition.up_fraction)
    return {
        key: float(np.median(values)) if values else float("nan")
        for key, values in buckets.items()
    }
