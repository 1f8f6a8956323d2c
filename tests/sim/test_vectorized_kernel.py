"""The shard kernel and the policy bodies, pinned and property-tested.

Each policy kind has one day body, driven over a horizon by the base
class's ``days_activity``; the engine has one block-major kernel,
resumable over window-aligned day ranges.  Three kinds of check hold
them in place:

- pins: a per-kind digest of rows, snapshots and RNG end state,
  recorded when the historical scalar ``day_activity`` twins were
  still the oracle (the golden run and the scenario catalog pin the
  engine the same way);
- segmentation invariance: a horizon simulated in one call equals the
  same horizon cut into pieces, for policies and for the kernel;
- the day-major reference loop (``tests/sim/reference_kernel.py``),
  which pins the kernel's block-major transposition.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CollectionError, ConfigError
from repro.sim import InternetPopulation, SimulationConfig
from repro.sim.engine import (
    ShardTask,
    _ShardState,
    _simulate_shard_blocks,
    _validate_windowing,
    run_sharded_collection,
    simulate_shard,
)
from repro.sim.policies import PolicyKind, make_policy
from tests.sim.reference_kernel import simulate_shard_reference

CONFIG = SimulationConfig()
ALL_KINDS = sorted(PolicyKind, key=lambda kind: kind.value)


def horizon(lo, hi):
    """Weekdays and (growing) traffic scales of the days ``[lo, hi)``."""
    days = range(lo, hi)
    return [day % 7 for day in days], [1.25 ** (day / 7.0) for day in days]


def run_policy(policy, cuts, snapshot_days):
    """Simulate ``[cuts[0], cuts[-1])`` as one call per piece between cuts.

    Returns per-day ``(ids, hits, offsets)`` rows and the snapshots,
    both keyed by absolute day.
    """
    rows = {}
    snapshots = {}
    for lo, hi in zip(cuts, cuts[1:]):
        day_of_weeks, traffic_scales = horizon(lo, hi)
        activity = policy.days_activity(
            day_of_weeks,
            traffic_scales,
            snapshot_days=[day - lo for day in snapshot_days if lo <= day < hi],
        )
        assert activity.num_days == hi - lo
        for rel in range(hi - lo):
            part = activity.day_slice(rel)
            rows[lo + rel] = (
                activity.sub_ids[part],
                activity.sub_hits[part],
                activity.sub_offsets[part],
            )
        for rel, offsets in activity.snapshots.items():
            snapshots[lo + rel] = offsets
    return rows, snapshots


class TestBatchedEqualsScalar:
    """Property: one ``days_activity`` call == the same days in pieces.

    Any cuts ``[0, k)`` then ``[k, n)``, down to one-day steps.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        kind=st.sampled_from(ALL_KINDS),
        network_type=st.sampled_from(["residential", "work"]),
        num_days=st.integers(min_value=1, max_value=18),
        data=st.data(),
    )
    def test_rows_snapshots_and_rng_state(
        self, seed, kind, network_type, num_days, data
    ):
        cuts = sorted(
            data.draw(st.sets(st.integers(min_value=1, max_value=num_days - 1)))
            if num_days > 1
            else set()
        )
        snapshot_days = data.draw(
            st.sets(st.integers(min_value=0, max_value=num_days - 1), max_size=4)
        )
        splits = {
            "whole": [0, num_days],
            "cut": [0, *cuts, num_days],
            "one-day": list(range(num_days + 1)),
        }
        results = {}
        for name, split in splits.items():
            policy = make_policy(kind, seed, network_type, CONFIG, sub_base=5_000_000)
            rows, snapshots = run_policy(policy, split, snapshot_days)
            results[name] = (rows, snapshots, policy._rng.bit_generator.state)
        rows, snapshots, rng_state = results.pop("whole")
        for name, (got_rows, got_snapshots, got_rng_state) in results.items():
            for day, (ids, hits, offs) in rows.items():
                got_ids, got_hits, got_offs = got_rows[day]
                assert np.array_equal(got_ids, ids), (name, day)
                assert np.array_equal(got_hits, hits), (name, day)
                assert np.array_equal(got_offs, offs), (name, day)
                assert got_hits.dtype == hits.dtype
            assert set(got_snapshots) == set(snapshot_days)
            for day, offsets in snapshots.items():
                assert np.array_equal(got_snapshots[day], offsets), (name, day)
            # The decisive check: every split consumed the exact same
            # stream, so any future draw stays identical too.
            assert got_rng_state == rng_state, name

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_future_days_unperturbed(self, kind):
        # After a batched horizon, the next one-day step must match a
        # run stepped one day at a time — no hidden state skew.
        stepped = make_policy(kind, 77, "residential", CONFIG, sub_base=9_000_000)
        batched = make_policy(kind, 77, "residential", CONFIG, sub_base=9_000_000)
        for day in range(9):
            stepped.day_activity(day % 7, 1.0)
        batched.days_activity([day % 7 for day in range(9)], [1.0] * 9)
        expected = stepped.day_activity(2, 1.25)
        got = batched.day_activity(2, 1.25)
        assert np.array_equal(expected.sub_ids, got.sub_ids)
        assert np.array_equal(expected.sub_hits, got.sub_hits)
        assert np.array_equal(expected.sub_offsets, got.sub_offsets)


#: Per-kind SHA-256 of :func:`policy_digest`, recorded under numpy
#: 2.4.6 while the scalar ``day_activity`` twins were still held equal
#: to ``days_activity``: the external pin of every policy body,
#: crawler included (the golden world has no crawler block).
POLICY_DIGESTS = {
    "static": "2ae59b6ac87b076d77ff18fe987f95d27a33e2f0012ca4bc87e3d3b13b69cf31",
    "dynamic_short": "ac6ba7e0b6bec84e47936a07a353b7e61c44f50d284b5c960c831e6508b0a74c",
    "dynamic_long": "cfe31e08e05b096ae16f4bf6792a8fa97204e10bdecd9717a035a07ecf6408dd",
    "round_robin": "bc207fd781d8216b9c7e52406591b6e67e30c5a7ed1e14946872119d471151fc",
    "gateway": "9cf940cd755b7d5758012d436e7234ed173c73302e79eee0ffec63327fec2fff",
    "crawler": "4ee284c138b8646e4b3756935f12a4d059e152d4972926d2046849ad40f4ac58",
    "server": "6f01ab6177638a0913d0ead06e15f7ba43426710847db086bf249dd524189f7b",
    "router": "407206ff1860f0716f33fed5a69d1f2ca25c6578c2533911f0ec9f5e93fcc31d",
    "unused": "4276e717e18938d42835542474f074beeca9c9d8e924f440975f99ecc4feca16",
}

#: Pieces the pinned 23-day horizon is simulated in, and its scan days.
PIN_CUTS = (0, 1, 5, 6, 13, 23)
PIN_SNAPSHOTS = (0, 4, 5, 12, 22)

#: Seed 5 takes the short-lease ">256 active" branch; seed 9 builds a
#: server that fetches updates.
PIN_SEEDS = (5, 9, 20160314)


def _hash_arrays(digest, *arrays):
    for array in arrays:
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())


def policy_digest(kind):
    """SHA-256 over both network types and :data:`PIN_SEEDS` of one kind.

    Covers every piece's day starts, rows and snapshots, one more day
    through the ``day_activity`` wrapper, and the RNG end state.
    """
    digest = hashlib.sha256()
    for seed in PIN_SEEDS:
        for network_type in ("residential", "work"):
            policy = make_policy(kind, seed, network_type, CONFIG, sub_base=7_000_000)
            for lo, hi in zip(PIN_CUTS, PIN_CUTS[1:]):
                day_of_weeks, traffic_scales = horizon(lo, hi)
                activity = policy.days_activity(
                    day_of_weeks,
                    traffic_scales,
                    snapshot_days=[day - lo for day in PIN_SNAPSHOTS if lo <= day < hi],
                )
                _hash_arrays(
                    digest,
                    activity.day_starts,
                    activity.sub_ids,
                    activity.sub_hits,
                    activity.sub_offsets,
                )
                for day in sorted(activity.snapshots):
                    digest.update(str(lo + day).encode())
                    _hash_arrays(digest, activity.snapshots[day])
            today = policy.day_activity(3, 1.5)
            _hash_arrays(
                digest,
                today.offsets,
                today.hits,
                today.sub_ids,
                today.sub_hits,
                today.sub_offsets,
            )
            digest.update(repr(policy._rng.bit_generator.state).encode())
    return digest.hexdigest()


class TestPolicyDigest:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_policy_body_unchanged(self, kind):
        assert policy_digest(kind) == POLICY_DIGESTS[kind.value], (
            f"{kind.value} digest pinned under numpy 2.4.6, "
            f"running numpy {np.__version__}"
        )


@pytest.fixture(scope="module")
def world():
    config = SimulationConfig(seed=2027, num_ases=12, mean_blocks_per_as=2.5)
    return InternetPopulation.build(config)


def assert_shard_results_equal(ref, vec):
    assert ref.addr_days == vec.addr_days
    assert len(ref.window_ips) == len(vec.window_ips)
    for window in range(len(ref.window_ips)):
        assert np.array_equal(ref.window_ips[window], vec.window_ips[window])
        assert np.array_equal(ref.window_hits[window], vec.window_hits[window])
        assert ref.window_ips[window].dtype == vec.window_ips[window].dtype
    # UA dict insertion order differs (day-major vs block-major); every
    # consumer sorts by base, so content equality is the contract.
    assert sorted(ref.ua_samples) == sorted(vec.ua_samples)
    for base in ref.ua_samples:
        assert ref.ua_samples[base] == vec.ua_samples[base], base
    if ref.login_trace is None:
        assert vec.login_trace is None
    else:
        assert len(ref.login_trace) == len(vec.login_trace)
        for day in range(len(ref.login_trace)):
            assert np.array_equal(ref.login_trace[day][0], vec.login_trace[day][0])
            assert np.array_equal(ref.login_trace[day][1], vec.login_trace[day][1])
    assert list(ref.scan_states) == list(vec.scan_states)
    for day in ref.scan_states:
        assert list(ref.scan_states[day]) == list(vec.scan_states[day])
        for index in ref.scan_states[day]:
            ref_kind, ref_offsets = ref.scan_states[day][index]
            vec_kind, vec_offsets = vec.scan_states[day][index]
            assert ref_kind == vec_kind
            assert np.array_equal(ref_offsets, vec_offsets)
    assert list(ref.final_kinds.items()) == list(vec.final_kinds.items())


def draw_task(world, data):
    """A shard task over the whole world with drawn horizon and extras."""
    blocks = world.blocks
    block_indexes = st.integers(min_value=0, max_value=len(blocks) - 1).map(
        lambda i: blocks[i].index
    )
    num_days = data.draw(st.sampled_from([4, 6, 8, 12]))
    window_days = data.draw(
        st.sampled_from([w for w in (1, 2, 3, 4, 6) if num_days % w == 0])
    )
    # Mid-stream policy swaps: any block, any kind, any day —
    # including day 0, same-day double swaps, and out-of-range
    # days the kernel must ignore.
    directives = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=num_days + 3),
                block_indexes,
                st.sampled_from([kind.value for kind in ALL_KINDS]),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=6,
        )
    )
    # Scenario hit-volume windows, outages (factor 0) included.
    perturbations = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_days - 1),
                st.integers(min_value=1, max_value=num_days),
                st.sampled_from([0.0, 0.5, 2.5]),
                st.lists(block_indexes, min_size=1, max_size=8).map(tuple),
            ),
            max_size=2,
        )
    )
    lo = data.draw(st.integers(min_value=0, max_value=num_days - 1))
    hi = data.draw(st.integers(min_value=lo, max_value=num_days - 1))
    ua_window = data.draw(st.sampled_from([None, (lo, hi)]))
    scan_days = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=num_days - 1), max_size=3)
            )
        )
    )
    login_rate = data.draw(st.sampled_from([0.0, 0.3]))
    return ShardTask(
        shard_index=0,
        config=world.config,
        blocks=tuple(blocks),
        num_days=num_days,
        window_days=window_days,
        ua_window=ua_window,
        scan_days=scan_days,
        login_panel_rate=login_rate,
        directives=tuple(directives),
        perturbations=tuple(perturbations),
    )


class TestKernelMatchesReference:
    """Property: the block-major shard kernel == the day-major spec."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_with_directive_swaps_and_windows(self, world, data):
        task = draw_task(world, data)
        assert_shard_results_equal(simulate_shard_reference(task), simulate_shard(task))


class TestKernelSegmentation:
    """Property: the kernel over ``[0, n)`` == over window-aligned pieces."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_pieces_equal_one_call(self, world, data):
        task = draw_task(world, data)
        boundaries = range(task.window_days, task.num_days, task.window_days)
        cuts = sorted(data.draw(st.sets(st.sampled_from(boundaries))) if boundaries else ())
        state = _ShardState(task)
        for lo, hi in zip([0, *cuts], [*cuts, task.num_days]):
            _simulate_shard_blocks(state, lo, hi)
        assert_shard_results_equal(simulate_shard(task), state.result())

    @pytest.mark.parametrize(
        ("lo", "hi"), [(2, 6), (0, 3), (0, 0), (0, 12)], ids=["gap", "unaligned", "empty", "past"]
    )
    def test_rejects_ranges_that_do_not_continue(self, world, lo, hi):
        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=tuple(world.blocks[:3]),
            num_days=6,
            window_days=2,
            ua_window=None,
            scan_days=(),
            login_panel_rate=0.0,
            directives=(),
        )
        with pytest.raises(CollectionError, match="does not continue"):
            _simulate_shard_blocks(_ShardState(task), lo, hi)


class TestScanSnapshotIsolation:
    """Scan states are private copies, not views of live policy state."""

    @pytest.mark.parametrize(
        "kind",
        [PolicyKind.DYNAMIC_LONG, PolicyKind.DYNAMIC_SHORT, PolicyKind.ROUND_ROBIN],
        ids=lambda kind: kind.value,
    )
    def test_later_churn_cannot_mutate_snapshot(self, kind):
        policy = make_policy(kind, 13, "residential", CONFIG, sub_base=1_000_000)
        activity = policy.days_activity([0, 1, 2, 3], [1.0] * 4, snapshot_days=[1])
        snapshot = activity.snapshots[1]
        frozen = snapshot.copy()
        # Keep simulating: lease churn rewrites the policy's internal
        # offset arrays in place.  The handed-out snapshot must not move.
        policy.days_activity([4, 5, 6, 0, 1, 2, 3, 4, 5, 6], [1.0] * 10)
        assert np.array_equal(snapshot, frozen)

    def test_shard_scan_states_own_their_memory(self, world):
        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=tuple(world.blocks),
            num_days=6,
            window_days=3,
            ua_window=None,
            scan_days=(1, 4),
            login_panel_rate=0.0,
            directives=(),
        )
        result = simulate_shard(task)
        assert set(result.scan_states) == {1, 4}
        for states in result.scan_states.values():
            for _, offsets in states.values():
                # An owned array (base None) cannot alias policy state
                # that later days mutate in place.
                assert offsets.base is None


class TestPartialWindowRejected:
    """num_days % window_days != 0 fails loudly on every code path."""

    def test_validator_accepts_exact_multiples(self):
        _validate_windowing(14, 7)
        _validate_windowing(14, 1)
        _validate_windowing(14, 14)

    @pytest.mark.parametrize(
        ("num_days", "window_days"),
        [(13, 7), (15, 7), (5, 3), (1, 2)],
    )
    def test_validator_rejects_trailing_partials(self, num_days, window_days):
        with pytest.raises(ConfigError, match="not a multiple"):
            _validate_windowing(num_days, window_days)

    @pytest.mark.parametrize("bad", [(0, 7), (14, 0), (-7, 7), (14, -1)])
    def test_validator_rejects_degenerate_horizons(self, bad):
        with pytest.raises(ConfigError):
            _validate_windowing(*bad)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collection_refuses_before_simulating(self, world, workers, tmp_path):
        with pytest.raises(ConfigError, match="not a multiple"):
            run_sharded_collection(
                world,
                num_days=13,
                window_days=7,
                ua_window=None,
                scan_days=(),
                login_panel_rate=0.0,
                directives=(),
                workers=workers,
            )
        # The resume path validates before touching any checkpoint.
        with pytest.raises(ConfigError, match="not a multiple"):
            run_sharded_collection(
                world,
                num_days=13,
                window_days=7,
                ua_window=None,
                scan_days=(),
                login_panel_rate=0.0,
                directives=(),
                workers=workers,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )
        assert list(tmp_path.iterdir()) == []

    def test_shard_kernel_validates_too(self, world):
        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=tuple(world.blocks[:2]),
            num_days=5,
            window_days=3,
            ua_window=None,
            scan_days=(),
            login_panel_rate=0.0,
            directives=(),
        )
        with pytest.raises(ConfigError, match="not a multiple"):
            simulate_shard(task)
        with pytest.raises(ConfigError, match="not a multiple"):
            simulate_shard_reference(task)
