"""Reference for the engine's shard kernel: the day-major loop.

The engine (:mod:`repro.sim.engine`) runs one block-major kernel; this
is the loop it was transposed from, kept in the test tree as the
executable specification ``tests/sim/test_vectorized_kernel.py``
compares it against.  Slow; never imported by the library.
"""

import datetime
from collections import Counter

import numpy as np

from repro.sim.engine import (
    LOGIN_PANEL_SALT,
    ShardResult,
    ShardTask,
    _partial_column,
    _validate_windowing,
    block_ua_rng,
)
from repro.sim.policies import BLOCK_SIZE, AddressPolicy, PolicyKind
from repro.sim.scenario import build_day_factor_tables, perturb_hits
from repro.sim.useragents import sample_uas
from repro.sim.util import hash_coin


def simulate_shard_reference(task: ShardTask) -> ShardResult:
    """The historical day-major loop, kept as executable spec.

    For each day, for each block, one ``day_activity`` call — the
    one-day wrapper over ``days_activity``.  The engine's block-major
    kernel must produce bit-identical :class:`ShardResult` payloads to
    this loop for every configuration: directives, window sums,
    UA/login/scan order and scenario perturbations.
    """
    config = task.config
    _validate_windowing(task.num_days, task.window_days)
    blocks = task.blocks
    block_by_index = {block.index: block for block in blocks}
    policies: dict[int, AddressPolicy] = {
        block.index: block.make_policy(config) for block in blocks
    }
    current_kinds: dict[int, PolicyKind] = {block.index: block.kind for block in blocks}
    directives_by_day: dict[int, list[tuple[int, str, int]]] = {}
    for day, block_index, kind_value, salt in task.directives:
        directives_by_day.setdefault(day, []).append((block_index, kind_value, salt))
    factor_tables = build_day_factor_tables(task.perturbations, task.num_days)

    ua_rngs: dict[int, np.random.Generator] = {}
    ua_samples: dict[int, Counter] = {}
    login_trace: list[tuple[np.ndarray, np.ndarray]] | None = (
        [] if task.login_panel_rate > 0 else None
    )
    scan_day_set = set(task.scan_days)
    scan_states: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]] = {}

    window_ips: list[np.ndarray] = []
    window_hits: list[np.ndarray] = []
    pending_ips: list[np.ndarray] = []
    pending_hits: list[np.ndarray] = []
    addr_days = 0

    for day in range(task.num_days):
        date = config.start_date + datetime.timedelta(days=day)
        day_of_week = date.weekday()
        traffic_scale = config.traffic_weekly_growth ** (day / 7.0)
        for block_index, kind_value, salt in directives_by_day.get(day, ()):
            block = block_by_index[block_index]
            kind = PolicyKind(kind_value)
            policies[block_index] = block.make_policy(config, kind=kind, salt=salt)
            current_kinds[block_index] = kind

        in_ua_window = (
            task.ua_window is not None
            and task.ua_window[0] <= day <= task.ua_window[1]
        )
        trace_ips: list[np.ndarray] = []
        trace_users: list[np.ndarray] = []
        for block in blocks:
            activity = policies[block.index].day_activity(day_of_week, traffic_scale)
            if not activity.offsets.size:
                continue
            day_factors = factor_tables.get(block.index)
            if day_factors is None:
                pending_ips.append(block.base + activity.offsets.astype(np.uint32))
                pending_hits.append(activity.hits)
                addr_days += int(activity.offsets.size)
            else:
                # Perturbed window column only: UA sampling and the
                # login panel below observe the unperturbed rows, so
                # every RNG stream keeps the scenario-free call order.
                per_offset = np.bincount(
                    activity.sub_offsets,
                    weights=perturb_hits(activity.sub_hits, day_factors[day]),
                    minlength=BLOCK_SIZE,
                )
                offsets = np.flatnonzero(per_offset)
                if offsets.size:
                    pending_ips.append(block.base + offsets.astype(np.uint32))
                    pending_hits.append(per_offset[offsets])
                    addr_days += int(offsets.size)
            if in_ua_window and activity.sub_ids.size:
                rng = ua_rngs.get(block.index)
                if rng is None:
                    rng = ua_rngs[block.index] = block_ua_rng(config.seed, block.index)
                ua_ids = sample_uas(
                    rng,
                    activity.sub_ids,
                    activity.sub_hits,
                    config.ua_sample_rate,
                    bot_profile=(current_kinds[block.index] is PolicyKind.CRAWLER),
                )
                if ua_ids.size:
                    ua_samples.setdefault(block.base, Counter()).update(ua_ids.tolist())
            if login_trace is not None and activity.sub_ids.size:
                panel = hash_coin(activity.sub_ids, LOGIN_PANEL_SALT, task.login_panel_rate)
                if panel.any():
                    trace_ips.append(
                        (block.base + activity.sub_offsets[panel]).astype(np.uint32)
                    )
                    trace_users.append(activity.sub_ids[panel])
        if login_trace is not None:
            if trace_ips:
                login_trace.append(
                    (np.concatenate(trace_ips), np.concatenate(trace_users))
                )
            else:
                login_trace.append(
                    (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64))
                )
        if day in scan_day_set:
            scan_states[day] = {
                block.index: (
                    current_kinds[block.index],
                    policies[block.index].assigned_offsets().copy(),
                )
                for block in blocks
            }
        if (day + 1) % task.window_days == 0:
            ips, hits = _partial_column(pending_ips, pending_hits)
            window_ips.append(ips)
            window_hits.append(hits)
            pending_ips, pending_hits = [], []

    return ShardResult(
        shard_index=task.shard_index,
        window_ips=window_ips,
        window_hits=window_hits,
        ua_samples=ua_samples,
        login_trace=login_trace,
        scan_states=scan_states,
        final_kinds=current_kinds,
        addr_days=addr_days,
    )
