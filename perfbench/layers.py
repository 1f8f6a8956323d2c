"""Which program calls the traced run wraps, and the per-layer metric names.

Every wrapped call is named ``<layer>.<operation>``, where the layer is
the module it lives in (``core.store``, ``sim.engine`` ...).  A traced
run reports, for each name, its summed self time as ``<name>_s`` and,
where listed, its call count as ``<name>_calls``.  Only the main phase
of ``collect`` and ``analyze`` reports bare names.  Serve reports its
layers twice, under a ``tick.`` and a ``restart.`` prefix, so that the
per-tick cost and the restart cost can be read apart; set-up reports
only ``setup.sim.population.build_s``.
"""

from __future__ import annotations

from typing import Any

from perfbench.tracer import Tracer

#: Main phases of ``collect`` and ``analyze``: their spans report bare names.
MAIN_PHASES = ("collect", "analyze")

#: Phase prefixes of the serve workload.
SERVE_PHASES = ("tick", "restart")

#: Phases that repeat until ``--seconds``; they report per pass, so that
#: the figures track the code and not the time budget.
REPEATED_PHASES = ("collect", "analyze", "tick")

#: Set-up spans reported (as ``setup.<name>_s``); the rest of set-up is
#: only in ``setup.wall_s``, so a set-up store build never shows as a
#: main-phase layer.
SETUP_NAMES = ("sim.population.build",)

#: End-to-end metric names and units (the ``end_to_end`` list of BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "addr_days_per_s": "addr-days/s",
    "peak_rss_mb": "MiB",
}


def _policy_names(method: str) -> list[str]:
    from repro.sim.policies import PolicyKind

    return [f"sim.policies.{kind.value}.{method}" for kind in PolicyKind]


def batch_names() -> tuple[list[str], list[str]]:
    """``(timed, counted)`` span names of the collect and analyze phases."""
    days = _policy_names("days_activity")
    timed = [
        "sim.engine.simulate_shard",
        *days,
        "sim.cdn.routing_step",
        "core.store.add_shard",
        "core.store.finalize",
        "core.store.open",
        "core.store.to_dataset",
        "core.metrics.streamed",
        "core.metrics.inmemory",
        "core.churn.daily_streamed",
        "core.churn.window_sweep_streamed",
        "core.detect.detect_events",
        "core.change.detect_change",
        "core.traffic.top_share_series",
        "core.potential.potential_utilization",
        "core.seasonal.weekday_profile",
    ]
    return timed, ["sim.engine.simulate_shard", *days]


def serve_names() -> tuple[list[str], list[str]]:
    """``(timed, counted)`` span names of one serve phase (tick or restart)."""
    day = _policy_names("day_activity")
    timed = [
        "sim.population.build",
        "sim.engine.advance_window",
        *day,
        "sim.cdn.routing_step",
        "core.store.append",
        "core.store.column_slice",
        "core.store.add_shard",
        "core.store.finalize",
        "core.store.open",
        "core.metrics.incremental_update",
        "core.churn.incremental_update",
        "core.io.save_routing_series",
        "obs.write_manifest",
        "obs.to_prometheus",
        "serve.catch_up",
    ]
    return timed, ["sim.engine.advance_window", "core.store.column_slice", *day]


#: Store I/O counts measured from the files on disk, with units.
BATCH_COUNTS = {"core.store.bytes_written": "bytes"}
SERVE_COUNTS = {
    "core.store.bytes_written": "bytes",
    "core.store.append_write_amp": "ratio",
    "serve.replayed_intervals": "count",
}

#: Traced wall time of each phase (the base of every self-time share);
#: the collect and analyze phases are ``main``.
PHASE_WALL = {
    "setup": "setup",
    "collect": "main",
    "analyze": "main",
    "tick": "tick",
    "restart": "restart",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units: dict[str, str] = {f"setup.{name}_s": "s" for name in SETUP_NAMES}
    timed, counted = batch_names()
    units.update({f"{name}_s": "s" for name in timed})
    units.update({f"{name}_calls": "count" for name in counted})
    units.update(BATCH_COUNTS)
    timed, counted = serve_names()
    for phase in SERVE_PHASES:
        units.update({f"{phase}.{name}_s": "s" for name in timed})
        units.update({f"{phase}.{name}_calls": "count" for name in counted})
        units.update({f"{phase}.{name}": unit for name, unit in SERVE_COUNTS.items()})
    units.update({f"{name}.wall_s": "s" for name in dict.fromkeys(PHASE_WALL.values())})
    units.update({f"overhead.{name}": unit for name, unit in END_TO_END.items()})
    return units


def install(tracer: Tracer) -> None:
    """Wrap every traced layer call; undo with :meth:`Tracer.restore`."""
    import repro.core.change as change
    import repro.core.churn as churn
    import repro.core.detect as detect
    import repro.core.io as core_io
    import repro.core.metrics as metrics
    import repro.core.potential as potential
    import repro.core.seasonal as seasonal
    import repro.core.store as store
    import repro.core.traffic as traffic
    import repro.obs.export as export
    import repro.obs.manifest as manifest
    import repro.serve.service as service
    import repro.sim.cdn as cdn
    import repro.sim.engine as engine
    import repro.sim.policies as policies
    import repro.sim.population as population

    tracer.patch_method(population.InternetPopulation, "build", "sim.population.build")
    tracer.patch_function(engine, "simulate_shard", "sim.engine.simulate_shard")
    tracer.patch_method(
        engine.LiveShardSimulator, "advance_window", "sim.engine.advance_window"
    )
    for cls in _policy_classes(policies):
        for method in ("days_activity", "day_activity"):
            tracer.patch_method(
                cls, method, f"sim.policies.{cls.kind.value}.{method}"
            )
    tracer.patch_method(cdn.RoutingEvolution, "step", "sim.cdn.routing_step")
    for cls, method, name in (
        (store.StoreWriter, "add_shard", "core.store.add_shard"),
        (store.StoreWriter, "finalize", "core.store.finalize"),
        (store.StoreAppender, "append", "core.store.append"),
        (store.DatasetStore, "column_slice", "core.store.column_slice"),
        (store.DatasetStore, "open", "core.store.open"),
        (store.DatasetStore, "to_dataset", "core.store.to_dataset"),
        (metrics.IncrementalBlockMetrics, "update", "core.metrics.incremental_update"),
        (churn.IncrementalChurn, "update", "core.churn.incremental_update"),
        (service.ObservatoryService, "catch_up", "serve.catch_up"),
    ):
        tracer.patch_method(cls, method, name)
    for module, function, name in (
        (metrics, "compute_block_metrics_streamed", "core.metrics.streamed"),
        (metrics, "compute_block_metrics", "core.metrics.inmemory"),
        (churn, "daily_churn_streamed", "core.churn.daily_streamed"),
        (churn, "churn_by_window_size_streamed", "core.churn.window_sweep_streamed"),
        (detect, "detect_events", "core.detect.detect_events"),
        (change, "detect_change", "core.change.detect_change"),
        (traffic, "top_share_series", "core.traffic.top_share_series"),
        (potential, "potential_utilization", "core.potential.potential_utilization"),
        (seasonal, "weekday_profile", "core.seasonal.weekday_profile"),
        (core_io, "save_routing_series", "core.io.save_routing_series"),
        (manifest, "write_manifest", "obs.write_manifest"),
        (export, "to_prometheus", "obs.to_prometheus"),
    ):
        tracer.patch_function(module, function, name)


def _policy_classes(policies: Any) -> list[type]:
    """The concrete policy class of each ``PolicyKind``."""
    found: dict[str, type] = {}
    stack = list(policies.AddressPolicy.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "kind" in vars(cls):
            found[cls.kind.value] = cls
    missing = {kind.value for kind in policies.PolicyKind} - set(found)
    if missing:
        raise RuntimeError(f"no policy class for kinds: {sorted(missing)}")
    return [found[kind.value] for kind in policies.PolicyKind]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Self times, call counts and phase walls from *tracer*, by reported name.

    The main phase ran *passes* times; its figures are per pass.  Every
    name of :func:`per_layer_units` that no span touched is 0.
    """
    values = {name: 0.0 for name in per_layer_units()}

    def share(phase: str) -> float:
        return 1.0 / passes if phase in REPEATED_PHASES else 1.0

    for phase, seconds in tracer.phase_s.items():
        values[f"{PHASE_WALL[phase]}.wall_s"] += seconds * share(phase)
    for (phase, name), seconds in tracer.self_s.items():
        prefix = "" if phase in MAIN_PHASES else f"{phase}."
        if f"{prefix}{name}_s" in values:
            values[f"{prefix}{name}_s"] += seconds * share(phase)
        if f"{prefix}{name}_calls" in values:
            values[f"{prefix}{name}_calls"] += tracer.calls[(phase, name)] * share(phase)
    return values
