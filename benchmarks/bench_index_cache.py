"""Shared DatasetIndex cache: one union per dataset instead of one per figure.

Before the index layer, every analysis recomputed the sorted union of
ever-active addresses (and its searchsorted projections) from scratch:
block metrics, monthly STU, per-AS churn, traffic bins, and the
visibility comparison each paid the dominant union/index cost again,
and window aggregation folded pairwise ``merge`` calls (quadratic in
the window size).  This bench replays that seed behaviour — the naive
implementations below are verbatim ports of the pre-index code — and
compares it against the shared-index pass over the same dataset.

Asserted: the combined metrics + asview + traffic + visibility pass is
at least 2x faster with the shared index, and the k-way union sweep
produces bit-identical snapshots to the pairwise fold.
"""

import time
from functools import reduce

import numpy as np

from conftest import SCAN_DAY, print_comparison
from repro.core.asview import per_as_churn, top_contributors
from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.metrics import (
    BLOCK_SIZE,
    BlockMetrics,
    compute_block_metrics,
    monthly_stu,
)
from repro.core.traffic import cumulative_by_days_active, hits_by_days_active
from repro.core.visibility import visibility_at_granularities
from repro.core.windows import PAPER_WINDOW_SIZES, usable_window_sizes
from repro.net.ipv4 import blocks_of

# ---------------------------------------------------------------------------
# Naive reference implementations: verbatim ports of the seed code paths
# (pre-DatasetIndex), kept here as the benchmark baseline.
# ---------------------------------------------------------------------------


def _naive_all_ips(dataset):
    return np.unique(np.concatenate([snapshot.ips for snapshot in dataset]))


def _naive_aggregate(dataset, num_windows):
    full = len(dataset) // num_windows
    merged = []
    for group_index in range(full):
        group = dataset.snapshots[
            group_index * num_windows : (group_index + 1) * num_windows
        ]
        merged.append(reduce(lambda a, b: a.merge(b), group))
    return ActivityDataset(merged)


def _naive_union_snapshot(dataset, first, last):
    return reduce(
        lambda a, b: a.merge(b), dataset.snapshots[first : last + 1]
    )


def _naive_block_metrics(dataset):
    all_ips = _naive_all_ips(dataset)
    bases = np.unique(blocks_of(all_ips, 24))
    fd = np.bincount(
        np.searchsorted(bases, blocks_of(all_ips, 24)), minlength=bases.size
    )
    activity = np.zeros(bases.size, dtype=np.int64)
    for snapshot in dataset:
        if snapshot.ips.size == 0:
            continue
        block_idx = np.searchsorted(bases, blocks_of(snapshot.ips, 24))
        activity += np.bincount(block_idx, minlength=bases.size)
    stu = activity / (BLOCK_SIZE * len(dataset))
    return BlockMetrics(
        bases=bases,
        filling_degree=fd.astype(np.int64),
        stu=stu,
        window_days=dataset.total_days,
    )


def _naive_monthly_stu(dataset, month_days=28):
    num_months = len(dataset) // month_days
    all_bases = np.unique(blocks_of(_naive_all_ips(dataset), 24))
    stu_matrix = np.zeros((all_bases.size, num_months))
    for month in range(num_months):
        chunk = dataset.slice(month * month_days, (month + 1) * month_days - 1)
        for snapshot in chunk:
            if snapshot.ips.size == 0:
                continue
            idx = np.searchsorted(all_bases, blocks_of(snapshot.ips, 24))
            stu_matrix[:, month] += np.bincount(idx, minlength=all_bases.size)
    stu_matrix /= BLOCK_SIZE * month_days
    return all_bases, stu_matrix


def _naive_per_ip_stats(dataset):
    ips = _naive_all_ips(dataset)
    windows_active = np.zeros(ips.size, dtype=np.int32)
    total_hits = np.zeros(ips.size, dtype=np.uint64)
    for snapshot in dataset:
        pos = np.searchsorted(ips, snapshot.ips)
        windows_active[pos] += 1
        total_hits[pos] += snapshot.hits
    return ips, windows_active, total_hits


def _naive_hits_by_days_active(dataset):
    from repro.core.traffic import _LOG_BINS, HitsByActivity, _log_bin

    ips, windows_active, total_hits = _naive_per_ip_stats(dataset)
    histograms = np.zeros((len(dataset), _LOG_BINS), dtype=np.int64)
    for snapshot in dataset:
        pos = np.searchsorted(ips, snapshot.ips)
        bins_for_ip = windows_active[pos] - 1
        log_bins = _log_bin(snapshot.hits)
        np.add.at(histograms, (bins_for_ip, log_bins), 1)
    ip_counts = np.bincount(windows_active - 1, minlength=len(dataset))
    hit_totals = np.bincount(
        windows_active - 1,
        weights=total_hits.astype(np.float64),
        minlength=len(dataset),
    )
    return HitsByActivity(
        num_windows=len(dataset),
        histograms=histograms,
        ip_counts=ip_counts.astype(np.int64),
        hit_totals=hit_totals.astype(np.int64),
    )


def _naive_per_as_churn(dataset, origins, window_days, min_active_ips=1000):
    from repro.core.asview import ASChurn

    all_ips = _naive_all_ips(dataset)
    origins = np.asarray(origins, dtype=np.int64)
    windowed = _naive_aggregate(dataset, window_days)
    routed = origins >= 0
    asns, as_codes = np.unique(origins[routed], return_inverse=True)
    codes = np.full(all_ips.size, -1, dtype=np.int64)
    codes[routed] = as_codes
    num_as = asns.size
    active_per_as = np.bincount(codes[routed], minlength=num_as)
    presence_prev = windowed[0].contains_many(all_ips)
    up_fractions = np.zeros((len(windowed) - 1, num_as))
    down_fractions = np.zeros((len(windowed) - 1, num_as))
    for index in range(1, len(windowed)):
        presence_now = windowed[index].contains_many(all_ips)
        ups = presence_now & ~presence_prev & routed
        downs = presence_prev & ~presence_now & routed
        active_now = presence_now & routed
        active_prev = presence_prev & routed
        up_counts = np.bincount(codes[ups], minlength=num_as)
        down_counts = np.bincount(codes[downs], minlength=num_as)
        now_counts = np.bincount(codes[active_now], minlength=num_as)
        prev_counts = np.bincount(codes[active_prev], minlength=num_as)
        with np.errstate(divide="ignore", invalid="ignore"):
            up_fractions[index - 1] = np.where(
                now_counts > 0, up_counts / np.maximum(now_counts, 1), 0.0
            )
            down_fractions[index - 1] = np.where(
                prev_counts > 0, down_counts / np.maximum(prev_counts, 1), 0.0
            )
        presence_prev = presence_now
    keep = active_per_as >= min_active_ips
    return ASChurn(
        window_days=window_days,
        asns=asns[keep],
        median_up=np.median(up_fractions[:, keep], axis=0),
        median_down=np.median(down_fractions[:, keep], axis=0),
        active_ips=active_per_as[keep],
    )


def _naive_top_contributors(dataset, origins, first_range, second_range):
    all_ips = _naive_all_ips(dataset)
    origins = np.asarray(origins, dtype=np.int64)
    first = _naive_union_snapshot(dataset, *first_range)
    second = _naive_union_snapshot(dataset, *second_range)
    appeared = second.up_from(first)
    disappeared = first.down_to(second)

    def rank(ips):
        pos = np.searchsorted(all_ips, ips)
        asns = origins[pos]
        asns = asns[asns >= 0]
        values, counts = np.unique(asns, return_counts=True)
        order = np.argsort(counts)[::-1]
        return [int(v) for v in values[order][:10]]

    top_appear = rank(appeared)
    top_disappear = rank(disappeared)
    return top_appear, top_disappear, len(set(top_appear) & set(top_disappear))


# ---------------------------------------------------------------------------
# The combined multi-figure pass, naive vs. shared index.
# ---------------------------------------------------------------------------

_PERIODS = ((0, 13), (98, 111))


def _naive_pass(dataset, origins, month_ips, icmp, routing):
    results = {}
    results["metrics"] = _naive_block_metrics(dataset)
    results["monthly"] = _naive_monthly_stu(dataset)
    results["churn"] = _naive_per_as_churn(dataset, origins, window_days=7)
    results["contrib"] = _naive_top_contributors(dataset, origins, *_PERIODS)
    stats = _naive_hits_by_days_active(dataset)
    results["traffic"] = (stats, cumulative_by_days_active(stats))
    # The seed visibility path re-uniqued (re-sorted) its input each call.
    results["visibility"] = visibility_at_granularities(
        np.unique(np.asarray(month_ips, dtype=np.uint32).copy()), icmp, routing
    )
    return results


def _indexed_pass(dataset, origins, month_ips, icmp, routing):
    results = {}
    results["metrics"] = compute_block_metrics(dataset)
    monthly = monthly_stu(dataset)
    results["monthly"] = (monthly.bases, monthly.stu_matrix)
    results["churn"] = per_as_churn(dataset, origins, window_days=7)
    results["contrib"] = top_contributors(dataset, origins, *_PERIODS)
    stats = hits_by_days_active(dataset)
    results["traffic"] = (stats, cumulative_by_days_active(stats))
    results["visibility"] = visibility_at_granularities(month_ips, icmp, routing)
    return results


def _check_equivalent(naive, indexed):
    """The cached pass must reproduce the naive results exactly."""
    assert np.array_equal(naive["metrics"].bases, indexed["metrics"].bases)
    assert np.array_equal(
        naive["metrics"].filling_degree, indexed["metrics"].filling_degree
    )
    assert np.allclose(naive["metrics"].stu, indexed["metrics"].stu)
    assert np.array_equal(naive["monthly"][0], indexed["monthly"][0])
    assert np.allclose(naive["monthly"][1], indexed["monthly"][1])
    assert np.array_equal(naive["churn"].asns, indexed["churn"].asns)
    assert np.allclose(naive["churn"].median_up, indexed["churn"].median_up)
    assert naive["contrib"] == indexed["contrib"]
    assert np.array_equal(
        naive["traffic"][0].histograms, indexed["traffic"][0].histograms
    )
    assert np.array_equal(
        naive["traffic"][0].ip_counts, indexed["traffic"][0].ip_counts
    )
    for granularity in ("ip", "slash24", "prefix", "as"):
        assert naive["visibility"][granularity] == indexed["visibility"][granularity]


def test_shared_index_pass_2x_faster(daily_dataset, origins_for_daily, daily_run, icmp_union, month_union):
    routing = daily_run.routing.table_at(SCAN_DAY)
    args = (origins_for_daily, month_union.ips, icmp_union, routing)

    # Fresh dataset objects so each timed pass starts with a cold cache.
    naive_ds = ActivityDataset(daily_dataset.snapshots)
    indexed_ds = ActivityDataset(daily_dataset.snapshots)

    start = time.perf_counter()
    naive = _naive_pass(naive_ds, *args)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    indexed = _indexed_pass(indexed_ds, *args)
    indexed_seconds = time.perf_counter() - start

    _check_equivalent(naive, indexed)
    speedup = naive_seconds / indexed_seconds

    print_comparison(
        "Shared DatasetIndex — combined metrics+asview+traffic+visibility pass",
        [
            ("naive (seed) pass", "recomputes union per figure",
             f"{naive_seconds:.2f}s"),
            ("shared-index pass", "one union per dataset",
             f"{indexed_seconds:.2f}s"),
            ("speedup", ">=2x required", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 2.0, (
        f"shared index pass only {speedup:.2f}x faster "
        f"({naive_seconds:.2f}s naive vs {indexed_seconds:.2f}s indexed)"
    )


def test_kway_window_sweep_matches_pairwise_fold(daily_dataset):
    """Fig. 4b sweep: k-way union vs. the quadratic pairwise fold."""
    sizes = usable_window_sizes(daily_dataset, PAPER_WINDOW_SIZES)

    start = time.perf_counter()
    pairwise = [_naive_aggregate(daily_dataset, size) for size in sizes]
    pairwise_seconds = time.perf_counter() - start

    sweep_ds = ActivityDataset(daily_dataset.snapshots)
    start = time.perf_counter()
    kway = [sweep_ds.aggregate(size) for size in sizes]
    kway_seconds = time.perf_counter() - start

    for reference, fast in zip(pairwise, kway):
        assert len(reference) == len(fast)
        for ref_snap, fast_snap in zip(reference, fast):
            assert isinstance(fast_snap, Snapshot)
            assert np.array_equal(ref_snap.ips, fast_snap.ips)
            assert np.array_equal(ref_snap.hits, fast_snap.hits)

    print_comparison(
        "Fig. 4b window sweep — pairwise merge fold vs. k-way union",
        [
            ("pairwise fold", "quadratic in window size", f"{pairwise_seconds:.2f}s"),
            ("k-way union", "linear in window size", f"{kway_seconds:.2f}s"),
            ("speedup", "bit-identical results", f"{pairwise_seconds / kway_seconds:.1f}x"),
        ],
    )
    assert kway_seconds <= pairwise_seconds
