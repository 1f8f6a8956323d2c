"""Tests for repro.core.metrics, change, addressing, potential."""

import dataclasses
import datetime

import numpy as np
import pytest

from repro.core.addressing import (
    AddressingDissection,
    dissect_by_rdns,
    fd_cdf,
    pool_utilization,
)
from repro.core.change import detect_change, threshold_sensitivity
from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.metrics import (
    BlockMetrics,
    activity_matrix,
    block_metrics_from_matrix,
    compute_block_metrics,
    monthly_stu,
)
from repro.core.potential import potential_utilization
from repro.errors import DatasetError
from repro.rdns.classify import AssignmentTag

DAY0 = datetime.date(2015, 1, 1)
BLOCK_A = 100 << 8
BLOCK_B = 200 << 8


def make_dataset(day_sets):
    return ActivityDataset(
        [
            Snapshot(
                DAY0 + datetime.timedelta(days=index),
                1,
                np.array(sorted(ips), dtype=np.uint32),
            )
            for index, ips in enumerate(day_sets)
        ]
    )


class TestBlockMetrics:
    def test_fd_counts_distinct_addresses(self):
        days = [
            {BLOCK_A + 0, BLOCK_A + 1},
            {BLOCK_A + 1, BLOCK_A + 2},
        ]
        metrics = compute_block_metrics(make_dataset(days))
        assert metrics.fd_of(BLOCK_A) == 3

    def test_stu_is_active_ip_days_over_max(self):
        days = [{BLOCK_A + i for i in range(128)}, {BLOCK_A + i for i in range(128)}]
        metrics = compute_block_metrics(make_dataset(days))
        assert metrics.stu_of(BLOCK_A) == pytest.approx(0.5)

    def test_full_utilization(self):
        days = [{BLOCK_A + i for i in range(256)}] * 3
        metrics = compute_block_metrics(make_dataset(days))
        assert metrics.fd_of(BLOCK_A) == 256
        assert metrics.stu_of(BLOCK_A) == pytest.approx(1.0)

    def test_multiple_blocks(self):
        days = [{BLOCK_A + 1, BLOCK_B + 1, BLOCK_B + 2}]
        metrics = compute_block_metrics(make_dataset(days))
        assert metrics.num_blocks == 2
        assert metrics.fd_of(BLOCK_B) == 2

    def test_unknown_block_raises(self):
        metrics = compute_block_metrics(make_dataset([{BLOCK_A}]))
        with pytest.raises(DatasetError):
            metrics.fd_of(BLOCK_B)

    def test_select(self):
        days = [{BLOCK_A + 1, BLOCK_B + 1}]
        metrics = compute_block_metrics(make_dataset(days))
        picked = metrics.select(metrics.bases == BLOCK_A)
        assert picked.num_blocks == 1

    def test_fig6_annotation_ranges(self):
        """Sim policies land in the FD/STU regions the paper annotates."""
        from repro.sim.config import SimulationConfig
        from repro.sim.policies import PolicyKind, make_policy

        config = SimulationConfig()
        expectations = {
            PolicyKind.STATIC: (lambda fd, stu: fd < 128 and stu < 0.35),
            PolicyKind.DYNAMIC_SHORT: (lambda fd, stu: fd > 240),
            PolicyKind.ROUND_ROBIN: (lambda fd, stu: fd > 200 and stu < 0.45),
        }
        for kind, check in expectations.items():
            policy = make_policy(kind, 5, "residential", config, 1_000_000)
            days = []
            for day in range(112):
                activity = policy.day_activity(day % 7)
                days.append({BLOCK_A + int(o) for o in activity.offsets})
            metrics = compute_block_metrics(make_dataset(days))
            fd, stu = metrics.fd_of(BLOCK_A), metrics.stu_of(BLOCK_A)
            assert check(fd, stu), f"{kind}: FD={fd}, STU={stu:.2f}"


class TestActivityMatrix:
    def test_matrix_matches_dataset(self):
        days = [{BLOCK_A + 3}, {BLOCK_A + 3, BLOCK_A + 7}]
        matrix = activity_matrix(make_dataset(days), BLOCK_A)
        assert matrix.shape == (256, 2)
        assert matrix[3].tolist() == [True, True]
        assert matrix[7].tolist() == [False, True]
        assert matrix.sum() == 3

    def test_accepts_any_address_in_block(self):
        days = [{BLOCK_A + 3}]
        a = activity_matrix(make_dataset(days), BLOCK_A)
        b = activity_matrix(make_dataset(days), BLOCK_A + 99)
        assert np.array_equal(a, b)

    def test_metrics_from_matrix(self):
        days = [{BLOCK_A + i for i in range(64)}] * 4
        matrix = activity_matrix(make_dataset(days), BLOCK_A)
        fd, stu = block_metrics_from_matrix(matrix)
        assert fd == 64
        assert stu == pytest.approx(0.25)

    def test_matrix_shape_validation(self):
        with pytest.raises(DatasetError):
            block_metrics_from_matrix(np.zeros((10, 10), dtype=bool))


class TestMonthlySTU:
    def test_per_month_values(self):
        month = 4  # tiny "months" for the test
        active = {BLOCK_A + i for i in range(64)}
        days = [active] * 4 + [set()] * 3 + [{BLOCK_A}] * 1
        result = monthly_stu(make_dataset(days), month_days=month)
        bases, stu = result.bases, result.stu_matrix
        assert bases.tolist() == [BLOCK_A]
        assert stu.shape == (1, 2)
        assert stu[0, 0] == pytest.approx(64 / 256)
        assert stu[0, 1] == pytest.approx(1 / (256 * 4))

    def test_rejects_short_dataset(self):
        with pytest.raises(DatasetError):
            monthly_stu(make_dataset([{1}] * 3), month_days=28)

    def test_rejects_weekly_dataset(self):
        ds = make_dataset([{1}] * 14).aggregate(7)
        with pytest.raises(DatasetError):
            monthly_stu(ds, month_days=1)

    def test_exposes_dropped_trailing_days(self):
        """Regression: the trailing partial month was silently dropped;
        callers could not tell 9 days analysed as 2 "months" apart
        from 8."""
        result = monthly_stu(make_dataset([{BLOCK_A}] * 9), month_days=4)
        assert result.dropped_days == 1
        assert result.stu_matrix.shape[1] == 2
        exact = monthly_stu(make_dataset([{BLOCK_A}] * 8), month_days=4)
        assert exact.dropped_days == 0

    def test_result_fields_are_named(self):
        """A frozen record of named fields, not a tuple to unpack."""
        result = monthly_stu(make_dataset([{BLOCK_A}] * 8), month_days=4)
        assert result.bases.tolist() == [BLOCK_A]
        assert result.stu_matrix.shape == (1, 2)
        assert result.dropped_days == 0
        assert not isinstance(result, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.dropped_days = 1


class TestChangeDetection:
    def make_changing_dataset(self):
        """Block A stable, block B switches off in month 2."""
        month = 4
        days = []
        for day in range(3 * month):
            active = {BLOCK_A + i for i in range(128)}
            if day < month:
                active |= {BLOCK_B + i for i in range(200)}
            else:
                active |= {BLOCK_B}  # nearly dark
            days.append(active)
        return make_dataset(days)

    def test_detects_major_change(self):
        detection = detect_change(self.make_changing_dataset(), month_days=4)
        assert BLOCK_B in detection.major_bases.tolist()
        assert BLOCK_A in detection.stable_bases.tolist()

    def test_change_sign_is_kept(self):
        detection = detect_change(self.make_changing_dataset(), month_days=4)
        row = detection.bases.tolist().index(BLOCK_B)
        assert detection.max_change[row] < -0.25  # switched off

    def test_major_fraction(self):
        detection = detect_change(self.make_changing_dataset(), month_days=4)
        assert detection.major_fraction == pytest.approx(0.5)

    def test_cdf_monotone(self):
        detection = detect_change(self.make_changing_dataset(), month_days=4)
        x, y = detection.cdf()
        assert (np.diff(x) >= 0).all()
        assert y[-1] == pytest.approx(1.0)

    def test_threshold_sensitivity_monotone(self):
        detection = detect_change(self.make_changing_dataset(), month_days=4)
        sweep = threshold_sensitivity(detection, [0.1, 0.25, 0.5, 0.9])
        values = list(sweep.values())
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sensitivity_rejects_bad_threshold(self):
        detection = detect_change(self.make_changing_dataset(), month_days=4)
        with pytest.raises(DatasetError):
            threshold_sensitivity(detection, [0.0])

    def test_needs_two_months(self):
        ds = make_dataset([{BLOCK_A}] * 5)
        with pytest.raises(DatasetError):
            detect_change(ds, month_days=4)


class TestAddressingDissection:
    def make_metrics(self):
        bases = np.array([BLOCK_A, BLOCK_B, 300 << 8], dtype=np.uint32)
        fd = np.array([30, 255, 120])
        stu = np.array([0.05, 0.9, 0.4])
        return BlockMetrics(bases=bases, filling_degree=fd, stu=stu, window_days=112)

    def test_dissection_respects_tags(self):
        tags = {BLOCK_A: AssignmentTag.STATIC, BLOCK_B: AssignmentTag.DYNAMIC}
        dissection = dissect_by_rdns(self.make_metrics(), tags)
        assert dissection.fd_static.tolist() == [30]
        assert dissection.fd_dynamic.tolist() == [255]
        assert dissection.fd_all.size == 3

    def test_fraction_properties(self):
        dissection = AddressingDissection(
            fd_all=np.array([10, 255, 255, 100]),
            fd_static=np.array([10, 40, 80]),
            fd_dynamic=np.array([255, 253, 100]),
        )
        assert dissection.static_low_fd_fraction == pytest.approx(2 / 3)
        assert dissection.dynamic_high_fd_fraction == pytest.approx(2 / 3)
        assert dissection.all_high_fd_fraction == pytest.approx(0.5)
        assert dissection.all_low_fd_fraction == pytest.approx(0.25)

    def test_empty_tag_population(self):
        dissection = dissect_by_rdns(self.make_metrics(), {})
        assert dissection.static_low_fd_fraction == 0.0
        assert dissection.dynamic_high_fd_fraction == 0.0

    def test_fd_cdf(self):
        x, y = fd_cdf(np.array([5, 1, 3]))
        assert x.tolist() == [1, 3, 5]
        assert y.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])


class TestPoolUtilization:
    def make_metrics(self):
        bases = (np.arange(5, dtype=np.uint32) + 1) << 8
        fd = np.array([255, 256, 252, 100, 256])
        stu = np.array([0.9, 1.0, 0.3, 0.5, 0.85])
        return BlockMetrics(bases=bases, filling_degree=fd, stu=stu, window_days=112)

    def test_selects_high_fd_pools(self):
        pools = pool_utilization(self.make_metrics())
        assert pools.num_pools == 4  # FD 100 excluded

    def test_fraction_helpers(self):
        pools = pool_utilization(self.make_metrics())
        assert pools.fraction_above(0.8) == pytest.approx(3 / 4)
        assert pools.fraction_below(0.6) == pytest.approx(1 / 4)
        assert pools.fully_utilized_count == 1

    def test_histogram_totals(self):
        pools = pool_utilization(self.make_metrics())
        counts, edges = pools.histogram(num_bins=10)
        assert counts.sum() == pools.num_pools
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_rejects_bad_threshold(self):
        with pytest.raises(DatasetError):
            pool_utilization(self.make_metrics(), fd_threshold=0)


class TestPotentialUtilization:
    def make_metrics(self):
        bases = (np.arange(6, dtype=np.uint32) + 1) << 8
        fd = np.array([20, 40, 255, 256, 255, 128])
        stu = np.array([0.02, 0.05, 0.3, 0.9, 0.5, 0.4])
        return BlockMetrics(bases=bases, filling_degree=fd, stu=stu, window_days=112)

    def test_report_counts(self):
        tags = {256: AssignmentTag.STATIC, 512: AssignmentTag.STATIC}
        report = potential_utilization(self.make_metrics(), tags)
        assert report.total_blocks == 6
        assert report.low_fd_blocks == 2
        assert report.low_fd_static_tagged == 2
        assert report.dynamic_pool_blocks == 3
        assert report.underutilized_pool_blocks == 2

    def test_reclaimable_addresses_formula(self):
        report = potential_utilization(self.make_metrics(), {})
        expected = int(np.floor(256 * (1 - 0.3 / 0.8))) + int(
            np.floor(256 * (1 - 0.5 / 0.8))
        )
        assert report.reclaimable_addresses == expected

    def test_fractions(self):
        report = potential_utilization(self.make_metrics(), {})
        assert report.low_fd_fraction == pytest.approx(2 / 6)
        assert report.underutilized_pool_fraction == pytest.approx(2 / 3)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(DatasetError):
            potential_utilization(self.make_metrics(), {}, low_stu_threshold=0.9, pool_target_stu=0.8)
