"""The three benchmark workloads: ``collect``, ``analyze`` and ``serve``.

Each workload drives the public API of ``repro.sim``, ``repro.core`` and
``repro.serve`` in this process, with one worker and no HTTP thread.  It
has a set-up, a timed main phase and correctness checks that run outside
the timed phase.  A failed check, or a check or restart that raises, is
a failed operation; it never aborts the run.  The main phase runs once
and is repeated, on fresh stores, until its passes have taken
``Sizes.seconds`` (the benchmark's ``--seconds``).  The repeats come
after everything else the run measures, so that their number, which
depends on the machine's speed, moves only the throughput's sample.

The end-to-end metrics mean the same on every workload:

- ``setup_s``: median wall time of the set-up;
- ``addr_days_per_s``: address-days handled per second of the main
  phase over all its passes (collected on ``collect`` and ``serve``,
  analysed on ``analyze``; per address-day, so the world's size cancels);
- ``peak_rss_mb``: peak resident memory of the first pass of the main
  phase (on ``serve``, of the first 56 ticks and the restarts).

``serve`` also restarts: it constructs a new service on the committed
root and replays with verification.  The restart time is reported as a
figure (``restart_s``), not as an end-to-end metric: replay is
simulation, whose cost on a 600-/24 world differs by about 20% (IQR)
from one seed to the next, so it cannot be held to a 25% bound.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench.tracer import Tracer

#: Bytes one active address adds to an appended column (uint32 ip + uint64 hits).
COLUMN_BYTES_PER_ADDRESS = 4 + 8

#: Worlds collected per ``collect`` run; pooling two halves the
#: world-to-world variance of a single ~2000-/24 world.
COLLECT_WORLDS = 2

#: Serve restarts (new service + verified replay) per run.
RESTARTS = 3


@dataclass(frozen=True)
class Sizes:
    """How big each workload is; the smoke test shrinks these."""

    days: int = 56
    setup_repeats: int = 5
    #: The main phase repeats until its passes have run this long (the
    #: benchmark's ``--seconds``); it always runs once.
    seconds: float = 0.0
    #: ``(num_ases, mean_blocks_per_as)`` of the collect/analyze world.
    batch_world: tuple[int, float] = (1330, 1.0)
    #: ``(num_ases, mean_blocks_per_as)`` of the serve world.
    serve_world: tuple[int, float] = (400, 1.0)


@dataclass(frozen=True)
class Faults:
    """Deliberate defects the smoke test injects to prove checks fire."""

    corrupt_shard: bool = False
    restart_seed: int | None = None


@dataclass
class Ledger:
    """Operations attempted and failed; a failure is recorded, not raised."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def done(self, count: int = 1) -> None:
        """Count *count* operations that completed."""
        self.attempted += count

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}".rstrip(": "))
        return ok

    def guarded(self, label: str, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Run one operation; an exception is a failed operation."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception:  # the run must go on and report the failure
            self.failures.append(f"{label}: {traceback.format_exc(limit=4)}")
            return False, None


@dataclass
class Result:
    """What one pass of a workload measured."""

    metrics: dict[str, float]
    #: Ungated figures (``analyze_s``, ``tick_p80_ms`` ...), with units.
    figures: dict[str, tuple[float, str]]
    #: Store I/O counts read from the files on disk, by metric name.
    io: dict[str, float]
    identity: dict[str, Any]
    ledger: Ledger
    detail: dict[str, Any] = field(default_factory=dict)


# -- process measurements ---------------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS high-water mark at the current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as stream:
        stream.write("5")


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MiB."""
    with open("/proc/self/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def tree_bytes(path: str) -> int:
    """Bytes of every regular file under *path*."""
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation, as numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@contextmanager
def _timer(out: list[float]) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        out.append(time.perf_counter() - start)


def _phase(tracer: Tracer | None, name: str) -> Any:
    return nullcontext() if tracer is None else tracer.phase(name)


def _repeats(sizes: Sizes, times: list[float]) -> Iterator[int]:
    """Numbers of the main phase's later passes, until *times* sum to the budget."""
    count = 1
    while sum(times) < sizes.seconds:
        yield count
        count += 1


# -- worlds -----------------------------------------------------------------


def world_config(seed: int, shape: tuple[int, float]) -> Any:
    """The ``SimulationConfig`` of a ``(num_ases, mean_blocks_per_as)`` world."""
    from repro.sim.config import SimulationConfig

    num_ases, blocks_per_as = shape
    return SimulationConfig(
        seed=seed, num_ases=num_ases, mean_blocks_per_as=blocks_per_as
    )


def _build_worlds(
    seeds: list[int], sizes: Sizes, tracer: Tracer | None
) -> tuple[list[Any], list[float]]:
    """Build the batch worlds ``setup_repeats`` times; keep the last build."""
    from repro.sim.population import InternetPopulation

    times: list[float] = []
    worlds: list[Any] = []
    for _ in range(sizes.setup_repeats):
        with _phase(tracer, "setup"), _timer(times):
            worlds = [InternetPopulation.build(world_config(s, sizes.batch_world)) for s in seeds]
    return worlds, times


def _verify_store(root: str) -> tuple[str, str, int]:
    """Re-hash every shard of the store at *root*; return its digests and addr-days."""
    from repro.core.io import open_store

    with open_store(root) as store:
        store.verify()
        return store.dataset_sha256, store.digest(), int(store.active_counts().sum())


def _corrupt_one_byte(root: str) -> None:
    shard = sorted(name for name in os.listdir(root) if name.endswith(".npz"))[0]
    path = os.path.join(root, shard)
    with open(path, "r+b") as stream:
        stream.seek(os.path.getsize(path) // 2)
        byte = stream.read(1)
        stream.seek(-1, os.SEEK_CUR)
        stream.write(bytes([byte[0] ^ 0xFF]))


# -- collect ----------------------------------------------------------------


def run_collect(
    seed: int, work: str, sizes: Sizes, tracer: Tracer | None, faults: Faults
) -> Result:
    """Batch collection of ``days`` daily windows into an out-of-core store."""
    from repro.sim.cdn import CDNObservatory

    ledger = Ledger()
    seeds = [seed * COLLECT_WORLDS + i for i in range(COLLECT_WORLDS)]
    worlds, setup_times = _build_worlds(seeds, sizes, tracer)

    collect_times: list[float] = []

    def collect_pass(count: int) -> tuple[list[str], int]:
        roots, addr_days = [], 0
        for world_seed, world in zip(seeds, worlds):
            root = os.path.join(work, f"collect-{count}-{world_seed}")
            with _phase(tracer, "collect"), _timer(collect_times):
                result = CDNObservatory(world).collect_daily(sizes.days, store_dir=root)
            ledger.done()
            addr_days += result.perf.addr_days
            result.store.close()
            roots.append(root)
        return roots, addr_days

    reset_peak_rss()
    roots, addr_days = collect_pass(0)
    peak = peak_rss_mb()
    pass_addr_days = [addr_days]
    for count in _repeats(sizes, collect_times):
        repeat_roots, repeat_addr_days = collect_pass(count)
        pass_addr_days.append(repeat_addr_days)
        for root in repeat_roots:
            shutil.rmtree(root)

    # The first pass's stores are checked; later passes were the same work.
    ledger.check(
        "every pass collects the same addr-days",
        len(set(pass_addr_days)) == 1,
        f"addr-days per pass {pass_addr_days}",
    )
    if faults.corrupt_shard:
        _corrupt_one_byte(roots[0])
    io_bytes = sum(tree_bytes(root) for root in roots)
    stored_addr_days = 0
    for world_seed, root in zip(seeds, roots):
        ok, verified = ledger.guarded(
            f"collect world {world_seed} verify", lambda root=root: _verify_store(root)
        )
        if ok:
            manifest_sha, streamed_sha, active = verified
            stored_addr_days += active
            ledger.check(
                f"collect world {world_seed} digest",
                manifest_sha == streamed_sha,
                f"streamed {streamed_sha} != manifest {manifest_sha}",
            )
    ledger.check(
        "collect addr-days",
        stored_addr_days == addr_days,
        f"engine counted {addr_days}, stores hold {stored_addr_days}",
    )

    blocks = sum(len(world.blocks) for world in worlds)
    collect_s = sum(collect_times)
    rate = sum(pass_addr_days) / collect_s
    return Result(
        metrics={
            "setup_s": statistics.median(setup_times),
            "addr_days_per_s": rate,
            "peak_rss_mb": peak,
        },
        figures={
            "collect_s": (collect_s / len(pass_addr_days), "s"),
            "collect_addr_days_per_s": (rate, "addr-days/s"),
            "passes": (float(len(pass_addr_days)), "count"),
        },
        io={"core.store.bytes_written": float(io_bytes)},
        identity={
            "world_seeds": seeds,
            "world_blocks": blocks,
            "addr_days": addr_days,
            "block_days": blocks * sizes.days,
        },
        ledger=ledger,
    )


# -- analyze ----------------------------------------------------------------


def _analyses(root: str, month_days: int) -> dict[str, Any]:
    """What ``repro analyze all <store> --detect-events`` runs, plus the sweep."""
    from repro.core import change, churn, detect, metrics, potential, seasonal, traffic
    from repro.core.io import open_store

    out: dict[str, Any] = {}
    with open_store(root) as store:
        out["metrics"] = metrics.compute_block_metrics_streamed(store)
        out["churn"] = churn.daily_churn_streamed(store)
        dataset = store.to_dataset()
        out["change"] = change.detect_change(dataset, month_days=month_days)
        out["traffic"] = traffic.top_share_series(dataset, 0.10)
        out["potential"] = potential.potential_utilization(
            metrics.compute_block_metrics(dataset)
        )
        out["weekday"] = seasonal.weekday_profile(dataset)
        out["events"] = detect.detect_events(dataset)
        out["sweep"] = churn.churn_by_window_size_streamed(store)
        out["addr_days"] = int(store.active_counts().sum())
    return out


def _same_block_metrics(a: Any, b: Any) -> bool:
    return (
        a.window_days == b.window_days
        and np.array_equal(a.bases, b.bases)
        and np.array_equal(a.filling_degree, b.filling_degree)
        and np.array_equal(a.stu, b.stu)
    )


def run_analyze(
    seed: int, work: str, sizes: Sizes, tracer: Tracer | None, faults: Faults
) -> Result:
    """Store reads and analysis folds over a collected store; no simulation."""
    from repro.core import churn, metrics
    from repro.core.io import open_store
    from repro.sim.cdn import CDNObservatory
    from repro.sim.population import InternetPopulation

    ledger = Ledger()
    root = os.path.join(work, "analyze-store")
    setup_times: list[float] = []
    with _phase(tracer, "setup"), _timer(setup_times):
        world = InternetPopulation.build(world_config(seed, sizes.batch_world))
        CDNObservatory(world).collect_daily(sizes.days, store_dir=root).store.close()

    reset_peak_rss()
    analyze_times: list[float] = []
    with _phase(tracer, "analyze"), _timer(analyze_times):
        results = _analyses(root, sizes.days // 2)
    ledger.done()
    peak = peak_rss_mb()
    for _ in _repeats(sizes, analyze_times):
        with _phase(tracer, "analyze"), _timer(analyze_times):
            _analyses(root, sizes.days // 2)
        ledger.done()

    with open_store(root) as store:
        dataset = store.to_dataset()
        ledger.check(
            "streamed FD/STU == in-memory",
            _same_block_metrics(results["metrics"], metrics.compute_block_metrics(dataset)),
        )
        ledger.check(
            "streamed daily churn == in-memory",
            results["churn"] == churn.daily_churn(dataset),
        )
        ledger.check(
            "streamed window sweep == in-memory",
            results["sweep"] == churn.churn_by_window_size(dataset),
        )

    addr_days = results["addr_days"]
    analyze_s = statistics.median(analyze_times)
    return Result(
        metrics={
            "setup_s": setup_times[0],
            "addr_days_per_s": addr_days * len(analyze_times) / sum(analyze_times),
            "peak_rss_mb": peak,
        },
        figures={
            "analyze_s": (analyze_s, "s"),
            "passes": (float(len(analyze_times)), "count"),
        },
        io={"core.store.bytes_written": 0.0},
        identity={
            "world_seeds": [seed],
            "world_blocks": len(world.blocks),
            "addr_days": addr_days,
            "block_days": len(world.blocks) * sizes.days,
        },
        ledger=ledger,
        detail={"events_detected": len(results["events"])},
    )


# -- serve ------------------------------------------------------------------


def _committed_generation_dir(root: str) -> str:
    from repro.core.store import generation_dir_name, read_live_pointer

    generation = read_live_pointer(root)
    if generation is None:
        raise RuntimeError(f"no committed generation under {root}")
    return os.path.join(root, generation_dir_name(generation))


def run_serve(
    seed: int, work: str, sizes: Sizes, tracer: Tracer | None, faults: Faults
) -> Result:
    """``repro serve`` as a closed loop of daily ticks, then restarts."""
    from repro.obs import context as obs_api
    from repro.obs.context import ObsContext
    from repro.obs.manifest import dataset_digest
    from repro.serve.service import ObservatoryService
    from repro.sim.cdn import CDNObservatory
    from repro.sim.population import InternetPopulation

    ledger = Ledger()
    config = world_config(seed, sizes.serve_world)
    published: dict[str, Any] = {}

    def publish(text: str, status: dict[str, Any]) -> None:
        published["metrics"] = text
        published["status"] = status

    def service(root: str, cfg: Any, ctx: ObsContext) -> ObservatoryService:
        return ObservatoryService(
            cfg,
            num_days=sizes.days,
            store_root=root,
            window_days=1,
            ctx=ctx,
            publish=publish,
            pace_seconds=0.0,
            verify_replay=True,
        )

    setup_times: list[float] = []
    for attempt in range(sizes.setup_repeats):
        root = os.path.join(work, f"serve-{attempt}")
        ctx = ObsContext()
        with _phase(tracer, "setup"), _timer(setup_times), obs_api.activate(ctx):
            live = service(root, config, ctx)
            live.catch_up()
        if attempt + 1 < sizes.setup_repeats:
            live.close()
            shutil.rmtree(root)

    tick_times: list[float] = []

    def tick_pass(
        live: ObservatoryService, tick_root: str, ctx: ObsContext, count: int
    ) -> tuple[list[int], int, dict[str, Any]]:
        """Tick *live* to its horizon and close it.

        Returns the bytes of each new generation, the bytes of the
        appended columns and the final status.
        """
        published.clear()
        pass_bytes: list[int] = []
        appended = 0
        with obs_api.activate(ctx):
            for _ in range(live.total_intervals):
                with _phase(tracer, "tick"), _timer(tick_times):
                    live.run_one_interval()
                pass_bytes.append(tree_bytes(_committed_generation_dir(tick_root)))
                appended += COLUMN_BYTES_PER_ADDRESS * live.status()["last_interval_active"]
        ledger.done(live.total_intervals)
        ledger.check(
            f"pass {count}: /metrics rendered every tick",
            "repro_serve_intervals_committed_total" in published.get("metrics", ""),
        )
        status = live.status()
        # A restart is a new process: the old service's memory must not
        # count toward the restarts' peak RSS.
        live.close()
        return pass_bytes, appended, status

    reset_peak_rss()
    generation_bytes, appended_bytes, status = tick_pass(live, root, ctx, 0)
    del live
    live_sha = status["dataset_sha256"]

    restart_cfg = (
        config
        if faults.restart_seed is None
        else world_config(faults.restart_seed, sizes.serve_world)
    )
    restart_times: list[float] = []
    replayed: list[int] = []
    for attempt in range(RESTARTS):
        ctx = ObsContext()
        restarted: list[Any] = []

        def restart() -> int:
            with obs_api.activate(ctx):
                restarted.append(service(root, restart_cfg, ctx))
                return restarted[-1].catch_up()

        with _phase(tracer, "restart"), _timer(restart_times):
            ok, count = ledger.guarded(f"restart {attempt}", restart)
        if ok:
            replayed.append(count)
            ledger.check(
                f"restart {attempt} replayed every committed interval",
                count == status["committed"],
                f"replayed {count} of {status['committed']}",
            )
            ledger.check(
                f"restart {attempt} keeps the dataset SHA-256",
                restarted[-1].status()["dataset_sha256"] == live_sha,
            )
        for svc in restarted:
            svc.close()
    peak = peak_rss_mb()

    for count in _repeats(sizes, tick_times):
        # A later pass ticks a fresh service; constructing it is not timed.
        ctx = ObsContext()
        repeat_root = os.path.join(work, f"serve-pass-{count}")
        with obs_api.activate(ctx):
            live = service(repeat_root, config, ctx)
            live.catch_up()
        repeat_status = tick_pass(live, repeat_root, ctx, count)[2]
        del live
        ledger.check(
            f"pass {count} ends at the first pass's SHA-256",
            repeat_status["dataset_sha256"] == live_sha,
        )
        shutil.rmtree(repeat_root)

    population = InternetPopulation.build(config)
    batch = CDNObservatory(population).collect_daily(sizes.days)
    batch_sha = dataset_digest(batch.dataset)
    ledger.check(
        "live SHA-256 == batch collect_daily SHA-256",
        live_sha == batch_sha,
        f"live {live_sha} != batch {batch_sha}",
    )

    blocks = len(population.blocks)
    passes = len(tick_times) // status["committed"]
    restart_s = statistics.median(restart_times)
    return Result(
        metrics={
            "setup_s": statistics.median(setup_times),
            "addr_days_per_s": status["addr_days"] * passes / sum(tick_times),
            "peak_rss_mb": peak,
        },
        figures={
            "tick_p50_ms": (percentile(tick_times, 50) * 1e3, "ms"),
            "tick_p80_ms": (percentile(tick_times, 80) * 1e3, "ms"),
            "tick_samples": (float(len(tick_times)), "count"),
            "restart_s": (restart_s, "s"),
            "passes": (float(passes), "count"),
        },
        io={
            "tick.core.store.bytes_written": float(sum(generation_bytes)),
            "tick.core.store.append_write_amp": sum(generation_bytes)
            / max(appended_bytes, 1),
            "restart.serve.replayed_intervals": float(
                statistics.median(replayed) if replayed else 0
            ),
        },
        identity={
            "world_seeds": [seed],
            "world_blocks": blocks,
            "addr_days": status["addr_days"],
            "block_days": blocks * sizes.days,
        },
        ledger=ledger,
        detail={
            "tick_ms": [round(t * 1e3, 3) for t in tick_times],
            "generation_bytes": generation_bytes,
            "restart_s": [round(t, 4) for t in restart_times],
        },
    )


WORKLOADS: dict[str, Callable[[int, str, Sizes, Tracer | None, Faults], Result]] = {
    "collect": run_collect,
    "analyze": run_analyze,
    "serve": run_serve,
}
