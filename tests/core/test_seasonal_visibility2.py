"""Tests for repro.core.seasonal and the grouped Fig. 2b classification."""

import datetime
import warnings

import numpy as np
import pytest

from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.seasonal import (
    WEEKDAY_NAMES,
    churn_by_boundary,
    weekday_profile,
)
from repro.core.visibility import classify_icmp_only_grouped
from repro.errors import DatasetError
from repro.net.prefix import Prefix
from repro.net.sets import IPSet
from repro.routing.table import RoutingTable

MONDAY = datetime.date(2015, 8, 17)  # the paper's day 0 is a Monday


def make_dataset(counts_by_day, first_day=0):
    """counts_by_day: list of active-count ints starting *first_day* days
    after a Monday."""
    snapshots = []
    for index, count in enumerate(counts_by_day, start=first_day):
        ips = np.arange(count, dtype=np.uint32)
        snapshots.append(
            Snapshot(MONDAY + datetime.timedelta(days=index), 1, ips)
        )
    return ActivityDataset(snapshots)


class TestWeekdayProfile:
    def test_profile_means(self):
        # Two weeks: 100 on weekdays, 80 on weekends.
        counts = ([100] * 5 + [80] * 2) * 2
        profile = weekday_profile(make_dataset(counts))
        assert profile.mean_active[:5].tolist() == [100] * 5
        assert profile.mean_active[5:].tolist() == [80, 80]
        assert profile.weekend_dip == pytest.approx(0.8)
        assert profile.quietest_day() in ("Sat", "Sun")

    def test_partial_week(self):
        profile = weekday_profile(make_dataset([50, 60, 70]))
        assert profile.samples.tolist() == [1, 1, 1, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "counts, first_day, missing",
        [([50, 60, 70], 0, "weekend"), ([40, 30], 5, "weekday")],
    )
    def test_weekend_dip_names_a_missing_class(self, counts, first_day, missing):
        # Mon-Wed only, or Sat-Sun only: the dip was NaN, with numpy's
        # "Mean of empty slice" warning, instead of an error.
        profile = weekday_profile(make_dataset(counts, first_day))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match=f"no {missing} "):
                profile.weekend_dip

    def test_weekend_dip_rejects_silent_weekdays(self):
        profile = weekday_profile(make_dataset([0] * 5 + [40, 30]))
        with pytest.raises(DatasetError, match="no weekday activity"):
            profile.weekend_dip

    def test_rejects_weekly_dataset(self):
        ds = make_dataset([10] * 14).aggregate(7)
        with pytest.raises(DatasetError):
            weekday_profile(ds)

    def test_weekday_names_aligned(self):
        assert WEEKDAY_NAMES[0] == "Mon"
        assert len(WEEKDAY_NAMES) == 7

    def test_simulated_world_dips_on_weekend(self):
        from repro.sim import CDNObservatory, InternetPopulation, small_config

        world = InternetPopulation.build(small_config(seed=71))
        dataset = CDNObservatory(world).collect_daily(28).dataset
        profile = weekday_profile(dataset)
        assert profile.weekend_dip < 1.0


class TestChurnByBoundary:
    def test_boundary_churn_split(self):
        # Weekday set A, weekend set B: boundary transitions churn.
        weekday_ips = set(range(100))
        weekend_ips = set(range(50, 150))
        days = []
        for index in range(14):
            day = (MONDAY + datetime.timedelta(days=index)).weekday()
            days.append(weekday_ips if day < 5 else weekend_ips)
        snapshots = [
            Snapshot(
                MONDAY + datetime.timedelta(days=index),
                1,
                np.array(sorted(ips), dtype=np.uint32),
            )
            for index, ips in enumerate(days)
        ]
        boundary = churn_by_boundary(ActivityDataset(snapshots))
        assert boundary["weekday->weekday"] == 0.0
        assert boundary["weekday->weekend"] == pytest.approx(0.5)
        assert boundary["weekend->weekday"] == pytest.approx(0.5)

    def test_rejects_weekly(self):
        ds = make_dataset([10] * 14).aggregate(7)
        with pytest.raises(DatasetError):
            churn_by_boundary(ds)


class TestGroupedICMPOnly:
    def make_world(self):
        block_srv = Prefix.parse("10.1.0.0/24")   # pure server block
        block_rtr = Prefix.parse("10.2.0.0/24")   # pure router block
        block_unk = Prefix.parse("10.3.0.0/24")   # unknown responders
        cdn = np.arange(100, dtype=np.uint32)     # block 0.0.0.0/24-ish
        icmp = IPSet(
            [
                (block_srv.first, block_srv.first + 9),
                (block_rtr.first, block_rtr.first + 4),
                (block_unk.first, block_unk.first + 7),
            ]
        )
        servers = IPSet([(block_srv.first, block_srv.first + 9)])
        routers = IPSet([(block_rtr.first, block_rtr.first + 4)])
        routing = RoutingTable(
            [
                (Prefix.parse("0.0.0.0/8"), 50),
                (Prefix.parse("10.1.0.0/16"), 100),
                (Prefix.parse("10.2.0.0/16"), 200),
                (Prefix.parse("10.3.0.0/16"), 300),
            ]
        )
        return cdn, icmp, servers, routers, routing

    def test_groups_at_all_granularities(self):
        cdn, icmp, servers, routers, routing = self.make_world()
        grouped = classify_icmp_only_grouped(cdn, icmp, servers, routers, routing)
        assert set(grouped) == {"ip", "slash24", "prefix", "as"}
        ip = grouped["ip"]
        assert (ip.server, ip.router, ip.unknown) == (10, 5, 8)
        for granularity in ("slash24", "prefix", "as"):
            cls = grouped[granularity]
            assert cls.server == 1
            assert cls.router == 1
            assert cls.unknown == 1

    def test_infrastructure_share_grows_with_aggregation(self):
        """One server IP marks its whole /24 as infrastructure."""
        block = Prefix.parse("10.9.0.0/24")
        cdn = np.empty(0, dtype=np.uint32)
        icmp = IPSet([(block.first, block.first + 99)])
        servers = IPSet([(block.first, block.first)])  # a single server
        routing = RoutingTable([(Prefix.parse("10.9.0.0/16"), 100)])
        grouped = classify_icmp_only_grouped(cdn, icmp, servers, IPSet(), routing)
        assert grouped["ip"].infrastructure_fraction < 0.05
        assert grouped["slash24"].infrastructure_fraction == 1.0

    def test_empty_icmp_only(self):
        cdn = np.arange(100, dtype=np.uint32)
        icmp = IPSet.from_ips(cdn[:50])
        grouped = classify_icmp_only_grouped(
            cdn, icmp, IPSet(), IPSet(), RoutingTable()
        )
        assert all(cls.total == 0 for cls in grouped.values())
