"""User behaviour models.

Address activity, as the CDN sees it, is the interplay between the
operator's assignment policy and what users do (paper Sec. 5): people
go online on some days and not others, office networks sleep on
weekends, engaged users are online nearly every day and also pull much
more traffic.

The model here is deliberately simple and explicit:

- Every *subscriber* (a household line, an office machine, a handset)
  has a scalar **engagement** in (0, 1), drawn from a right-skewed
  distribution.  Engagement drives both the probability of being
  active on a given day and the subscriber's traffic volume — that
  positive coupling is what produces the paper's Fig. 9a correlation
  between days-active and daily hits.
- A **weekday factor** per network type modulates activity: work
  networks drop sharply on weekends, residential networks barely move.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Network types whose users follow office schedules.
WORK_TYPES = frozenset({"university", "enterprise"})


#: Fraction of subscribers that are casual (sporadically online).
CASUAL_FRACTION = 0.10

#: Daily-hits model parameters (see :func:`daily_hits`).
BASE_HITS = 18.0
ENGAGEMENT_BOOST = 3.2
HITS_SIGMA = 0.9


def draw_engagement(rng: np.random.Generator, size: int) -> np.ndarray:
    """Per-subscriber engagement scores in (0, 1).

    A two-population mixture: most lines belong to always-on
    households (CPE online nearly every day, Beta(14, 1.15), mean
    ≈0.92) with a casual minority (Beta(1.6, 3.2), mean ≈0.33).  The
    mixture puts the day-over-day churn of the active address set near
    the paper's ~8% (Fig. 4b at x=1): churn ≈ E[p(1-p)]/E[p] ≈ 0.10
    for these parameters.  Values are clipped away from 0 and 1 — the
    0.97 ceiling means even an always-on household misses a day or two
    a month, so the strictly-every-day population (Fig. 9) is made of
    gateways and bots, not lucky households.
    """
    scores = rng.beta(14.0, 1.15, size=size)
    casual = rng.random(size) < CASUAL_FRACTION
    num_casual = int(np.count_nonzero(casual))
    if num_casual:
        scores[casual] = rng.beta(1.6, 3.2, size=num_casual)
    # minimum(maximum(...)) is np.clip's element-wise operation without
    # its dispatch overhead — bit-identical values.
    return np.minimum(np.maximum(scores, 0.02), 0.97)


def weekday_factor(
    day_of_week: int,
    network_type: str,
    weekend_residential_factor: float,
    weekend_work_factor: float,
) -> float:
    """Activity multiplier for a day of week (0 = Monday ... 6 = Sunday)."""
    if not 0 <= day_of_week <= 6:
        raise ConfigError(f"day_of_week out of range: {day_of_week}")
    if day_of_week < 5:
        return 1.0
    if network_type in WORK_TYPES:
        return weekend_work_factor
    return weekend_residential_factor


def scaled_activity_probability(
    engagement: np.ndarray, factor: float
) -> np.ndarray:
    """Per-subscriber activity probability for a known weekday factor.

    Split out of :func:`activity_probability` so callers that resolve
    the factor once per day (the policies' day bodies) share the
    exact clip/multiply with :func:`activity_probability`.  ``minimum(maximum(x))``
    is the element-wise operation ``np.clip`` performs, without the
    dispatch overhead — bit-identical values.
    """
    return np.minimum(np.maximum(np.asarray(engagement) * factor, 0.0), 0.99)


def activity_probability(
    engagement: np.ndarray,
    day_of_week: int,
    network_type: str,
    weekend_residential_factor: float = 0.97,
    weekend_work_factor: float = 0.35,
) -> np.ndarray:
    """Per-subscriber probability of being active on the given day."""
    factor = weekday_factor(
        day_of_week, network_type, weekend_residential_factor, weekend_work_factor
    )
    return scaled_activity_probability(engagement, factor)


def hit_medians(
    engagement: np.ndarray,
    base_hits: float = BASE_HITS,
    engagement_boost: float = ENGAGEMENT_BOOST,
) -> np.ndarray:
    """Per-subscriber median daily hits: ``base * exp(boost * eng)``.

    Element-wise, so a pool may maintain the medians incrementally
    (recomputing only churned subscribers) and still match a full
    recompute bit for bit.
    """
    return base_hits * np.exp(engagement_boost * np.asarray(engagement))


def hits_from_medians(
    medians: np.ndarray,
    normals: np.ndarray,
    sigma: float = HITS_SIGMA,
) -> np.ndarray:
    """Turn standard-normal draws into daily hit counts (element-wise).

    The deterministic half of :func:`daily_hits`, split out so
    ``days_activity`` can draw the normals day by day (the
    RNG-consumption-order contract) yet evaluate the log-normal math
    once over a whole horizon's concatenated rows.  Element-wise, so
    any grouping of rows yields bit-identical values.

    ``normals`` is consumed as scratch space (overwritten in place) —
    every caller passes a freshly drawn or freshly concatenated array.
    """
    normals = np.asarray(normals, dtype=np.float64)
    np.multiply(normals, sigma, out=normals)
    np.exp(normals, out=normals)
    np.multiply(normals, medians, out=normals)
    draws = normals.astype(np.int64)
    np.maximum(draws, 1, out=draws)
    return draws


def hits_from_normals(
    engagement: np.ndarray,
    normals: np.ndarray,
    base_hits: float = BASE_HITS,
    engagement_boost: float = ENGAGEMENT_BOOST,
    sigma: float = HITS_SIGMA,
) -> np.ndarray:
    """Daily hit counts from engagement scores and normal draws."""
    return hits_from_medians(
        hit_medians(engagement, base_hits, engagement_boost), normals, sigma
    )


def daily_hits(
    engagement: np.ndarray,
    rng: np.random.Generator,
    base_hits: float = BASE_HITS,
    engagement_boost: float = ENGAGEMENT_BOOST,
    sigma: float = HITS_SIGMA,
) -> np.ndarray:
    """Requests issued by each active subscriber on one day.

    Log-normal around an engagement-dependent median::

        median = base_hits * exp(engagement_boost * engagement)

    A casual user (engagement 0.1) issues ~25 requests/day; a heavy
    user (engagement 0.9) several hundreds — matching the paper's
    observation that addresses active almost every day also issue far
    more requests (Fig. 9a).  Returns integers >= 1.

    The log-normal is drawn as ``exp(sigma * standard_normal())`` —
    the same bitstream consumption as ``rng.lognormal`` — so it equals
    the policies' per-day normals fed through :func:`hits_from_medians`.
    """
    engagement = np.asarray(engagement)
    normals = rng.standard_normal(size=engagement.shape)
    return hits_from_normals(
        engagement, normals, base_hits=base_hits,
        engagement_boost=engagement_boost, sigma=sigma,
    )
