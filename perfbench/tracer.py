"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of :mod:`repro` from the
benchmark's own code; nothing under ``src/`` changes.  Wrappers are
installed only in a traced worker process, before any world is built,
so every bound method the program takes afterwards is a wrapped one.

Each wrapped call is a span (name, start, end, parent).  Hot spans are
folded into per-name aggregates as they close -- calls, inclusive time
(outermost occurrence of a name only) and self time (the span minus the
time its child spans cover) -- so memory stays flat however many
millions of calls a run makes.  Coarse spans (scenario, study, cache,
engine and kernel-loop boundaries) are also kept whole in memory and
written out with the aggregates when the run ends.

Self time of ``kernel.run`` includes the private glue the kernel
dispatches into (``WirelessMedium._deliver_batch``, ``Node._guarded``
and the like): only public calls are wrapped.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

#: Spans kept whole (the rest are only aggregated).
COARSE = frozenset({
    "scenario.build_world", "scenario.run", "kernel.run", "metrics.summary",
    "parallel.run_configs", "cache.get", "cache.put", "study.expand",
    "study.run_study", "shard.compute_ownership",
})


def import_layers() -> None:
    """Import every module the tracer wraps, so that a traced and an
    untraced run time the same work (imports stay outside both)."""
    import repro.core.protocol  # noqa: F401
    import repro.energy.model  # noqa: F401
    import repro.harness.cli  # noqa: F401 - loads the CLI's imports
    import repro.sim.shard.engine  # noqa: F401
    import repro.study.engine  # noqa: F401


class Tracer:
    """Collects spans from wrapped calls in this process."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: List[list] = []     # [name, start, child_s, index]
        self._active: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []     # coarse: (name, start, end, parent)
        self.mediums: list = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, name: str) -> list:
        index = -1
        if name in COARSE:
            parent = next((e[3] for e in reversed(self._stack)
                           if e[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        self._active[name] = self._active.get(name, 0) + 1
        entry = [name, self._clock(), 0.0, index]
        self._stack.append(entry)
        return entry

    def _exit(self, entry: list) -> None:
        end = self._clock()
        self._stack.pop()
        name, start, child_s, index = entry
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        depth = self._active[name] - 1
        self._active[name] = depth
        if depth == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """A wrapper timing ``fn`` as span ``name``; ``after(args,
        result)`` runs once the span has closed."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(entry)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a class or module) with ``wrapper``.

        A module-level function is also replaced in every loaded
        :mod:`repro` module that imported it by name.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "") \
                    .startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Time ``owner.attr`` as span ``name``."""
        self.patch(owner, attr, self.span(name, getattr(owner, attr), after))

    def install(self) -> None:
        """Wrap the public calls of every layer the benchmark reports."""
        # Imported here: the tracer must be installed before any world
        # exists, and only in traced workers.
        import_layers()
        from repro import study
        from repro.core import topics
        from repro.core.protocol import FrugalPubSub
        from repro.core.stack import delivery, forwarding, membership
        from repro.core.tables import EventTable
        from repro.energy.model import EnergyModel
        from repro.harness import cache, parallel, scenario
        from repro.mobility.base import MobilityModel
        from repro.net.medium import WirelessMedium
        from repro.net.node import Node
        from repro.sim import batch, kernel, space
        from repro.sim.shard import engine as shard_engine

        count = self.count
        wrap = self.wrap

        # harness.scenario
        wrap(scenario, "build_world", "scenario.build_world")
        wrap(scenario, "run_scenario", "scenario.run")
        wrap(scenario.ScenarioResult, "summary", "metrics.summary")
        wrap(shard_engine, "compute_ownership", "shard.compute_ownership")

        # harness.parallel: EngineStats deltas around each batch.
        original_run_configs = parallel.ParallelRunner.run_configs

        def run_configs(runner, configs):
            before = (runner.stats.executed, runner.stats.cache_hits)
            result = original_run_configs(runner, configs)
            count("parallel.cells_executed",
                  runner.stats.executed - before[0])
            count("parallel.cache_hits", runner.stats.cache_hits - before[1])
            return result
        self.patch(parallel.ParallelRunner, "run_configs",
                   self.span("parallel.run_configs", run_configs))

        # harness.cache
        def after_get(args, result):
            count("cache.get_hits", result is not None)

        def after_put(args, result):
            cache_obj, scenario_result = args
            count("cache.bytes_written", cache_obj.path_for(
                scenario_result.config).stat().st_size)
        wrap(cache.ResultCache, "get", "cache.get", after_get)
        wrap(cache.ResultCache, "put", "cache.put", after_put)
        wrap(cache, "config_digest", "cache.digest")

        # study
        wrap(study.engine, "expand", "study.expand",
             lambda args, cells: count("study.cells", len(cells)))
        wrap(study.engine, "run_study", "study.run_study")

        # sim.kernel: events processed per loop; arming calls counted.
        original_run = kernel.Simulator.run

        def sim_run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return original_run(sim, *args, **kwargs)
            finally:
                count("kernel.events", sim.events_processed - before)
        self.patch(kernel.Simulator, "run", self.span("kernel.run", sim_run))
        # Every timer armed: on the kernel heap (``schedule`` goes through
        # ``call_at``) and on the coalescing timer wheel, whose entries
        # heartbeat and GC ticks arm (``TimerWheel.schedule`` goes
        # through ``TimerWheel.call_at``).
        original_call_at = kernel.Simulator.call_at

        def call_at(sim, *args):
            count("kernel.schedules")
            return original_call_at(sim, *args)
        self.patch(kernel.Simulator, "call_at", call_at)
        original_wheel_call_at = kernel.TimerWheel.call_at

        def wheel_call_at(wheel, *args):
            count("kernel.schedules")
            count("kernel.wheel_schedules")
            return original_wheel_call_at(wheel, *args)
        self.patch(kernel.TimerWheel, "call_at", wheel_call_at)

        # net.medium, sim.batch, sim.space
        original_init = WirelessMedium.__init__
        mediums = self.mediums

        def medium_init(medium, *args, **kwargs):
            original_init(medium, *args, **kwargs)
            mediums.append(medium)
        self.patch(WirelessMedium, "__init__", medium_init)
        wrap(WirelessMedium, "broadcast", "medium.broadcast")
        wrap(batch.LegTable, "audible", "batch.audible",
             lambda args, result: count("batch.candidates", len(args[1])))
        wrap(batch.TxLog, "corrupt_verdicts", "batch.corrupt_verdicts")
        wrap(batch.TxLog, "busy", "batch.busy")
        wrap(space.SpatialGrid, "query_radius", "space.query_radius")

        # net.node, mobility
        wrap(Node, "receive", "node.receive")
        wrap(MobilityModel, "position", "mobility.position")

        # heartbeat path
        wrap(FrugalPubSub, "on_message", "protocol.on_message")
        wrap(FrugalPubSub, "advertised_topics", "protocol.advertised_topics")
        wrap(membership.HeartbeatMembership, "on_heartbeat",
             "membership.on_heartbeat")
        wrap(membership.TTLMembership, "on_heartbeat",
             "membership.on_heartbeat")
        wrap(EventTable, "valid_ids_for", "tables.valid_ids_for")
        wrap(topics, "subscriptions_related", "topics.subscriptions_related")

        # forwarding, delivery
        wrap(forwarding.BackoffForwarding, "send_batch", "forwarding.send_batch",
             lambda args, result: count("forwarding.events", len(args[1])))
        wrap(forwarding.BackoffForwarding, "compute_events_to_send",
             "forwarding.compute")
        wrap(delivery.DeliveryLayer, "deliver_once", "delivery.deliver_once",
             lambda args, result: count("delivery.useful", bool(result)))
        wrap(delivery.DeliveryLayer, "hand_off", "delivery.hand_off")

        # energy
        for attr in ("note_tx", "note_rx", "sleep", "wake"):
            wrap(EnergyModel, attr, f"energy.{attr}")

        # faults: every up/down transition of a node
        for attr in ("crash", "recover", "power_down", "repower"):
            wrap(Node, attr, f"faults.{attr}")

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer figures this trace yields (calls, counts, time)."""
        calls, total, self_ = self.calls, self.total_s, self.self_s
        counts = self.counts

        def c(name):
            return calls.get(name, 0)

        def t(name):
            return total.get(name, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        audible_candidates = counts.get("batch.candidates", 0)
        gets = c("cache.get")
        study_run = t("study.run_study")
        out = {
            "scenario.build_world_s": t("scenario.build_world"),
            "scenario.run_s": t("scenario.run"),
            "parallel.cells_executed": counts.get("parallel.cells_executed",
                                                  0),
            "parallel.cache_hits": counts.get("parallel.cache_hits", 0),
            "cache.gets": gets,
            "cache.puts": c("cache.put"),
            "cache.get_s": t("cache.get"),
            "cache.put_s": t("cache.put"),
            "cache.digest_s": t("cache.digest"),
            "cache.hit_ratio": ratio(counts.get("cache.get_hits", 0), gets),
            "cache.bytes_written": counts.get("cache.bytes_written", 0),
            "study.cells": counts.get("study.cells", 0),
            "study.expand_s": t("study.expand"),
            "study.analysis_s": (study_run - self._nested_run_configs_s()
                                 if study_run else 0.0),
            "kernel.events": counts.get("kernel.events", 0),
            "kernel.schedules": counts.get("kernel.schedules", 0),
            "kernel.wheel_schedules": counts.get("kernel.wheel_schedules", 0),
            "kernel.self_s": self_.get("kernel.run", 0.0),
            "medium.broadcasts": c("medium.broadcast"),
            "medium.frames_sent": sum(m.frames_sent for m in self.mediums),
            "medium.broadcast_s": t("medium.broadcast"),
            "batch.audible_calls": c("batch.audible"),
            "batch.candidates": audible_candidates,
            "batch.audible_s": t("batch.audible"),
            "batch.corrupt_verdicts_s": t("batch.corrupt_verdicts"),
            "batch.busy_calls": c("batch.busy"),
            "batch.busy_s": t("batch.busy"),
            "space.query_radius_calls": c("space.query_radius"),
            "space.query_radius_s": t("space.query_radius"),
            "medium.useful_ratio": ratio(c("node.receive"),
                                         audible_candidates),
            "node.receive_calls": c("node.receive"),
            "node.receive_s": t("node.receive"),
            "mobility.position_calls": c("mobility.position"),
            "mobility.position_s": t("mobility.position"),
            "protocol.on_message_calls": c("protocol.on_message"),
            "protocol.on_message_s": t("protocol.on_message"),
            "protocol.advertised_topics_calls":
                c("protocol.advertised_topics"),
            "protocol.advertised_topics_s": t("protocol.advertised_topics"),
            "membership.on_heartbeat_calls": c("membership.on_heartbeat"),
            "membership.on_heartbeat_s": t("membership.on_heartbeat"),
            "tables.valid_ids_for_s": t("tables.valid_ids_for"),
            "topics.subscriptions_related_calls":
                c("topics.subscriptions_related"),
            "topics.subscriptions_related_s":
                t("topics.subscriptions_related"),
            "forwarding.send_batch_calls": c("forwarding.send_batch"),
            "forwarding.events_per_batch": ratio(
                counts.get("forwarding.events", 0),
                c("forwarding.send_batch")),
            "forwarding.compute_s": t("forwarding.compute"),
            "delivery.deliver_once_calls": c("delivery.deliver_once"),
            "delivery.useful_ratio": ratio(counts.get("delivery.useful", 0),
                                           c("delivery.deliver_once")),
            "delivery.hand_off_calls": c("delivery.hand_off"),
            "energy.note_tx_calls": c("energy.note_tx"),
            "energy.note_rx_calls": c("energy.note_rx"),
            "energy.self_s": sum(self_.get(f"energy.{a}", 0.0) for a in
                                 ("note_tx", "note_rx", "sleep", "wake")),
            "faults.transitions": sum(c(f"faults.{a}") for a in
                                      ("crash", "recover", "power_down",
                                       "repower")),
            "faults.self_s": sum(self_.get(f"faults.{a}", 0.0) for a in
                                 ("crash", "recover", "power_down",
                                  "repower")),
            "metrics.summary_s": t("metrics.summary"),
        }
        return out

    def _nested_run_configs_s(self) -> float:
        """Time of the engine batches issued from inside ``run_study``."""
        nested = 0.0
        for name, start, end, parent in self.spans:
            if name == "parallel.run_configs" and parent >= 0 \
                    and self.spans[parent][0] == "study.run_study":
                nested += end - start
        return nested

    def dump(self) -> Dict[str, object]:
        """Everything recorded, as plain data for the trace file."""
        return {
            "aggregates": {name: {"calls": self.calls[name],
                                  "total_s": self.total_s.get(name, 0.0),
                                  "self_s": self.self_s[name]}
                           for name in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }
