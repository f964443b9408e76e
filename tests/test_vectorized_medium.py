"""Paired verification of the vec frame engine.

The vec stack (spatial grid + numpy batch engine + coalesced timer
wheel) claims **bit-identity** with the flat reference, not statistical
closeness.  This suite holds it to that claim:

* exact ``==`` on summaries across all five scenario families — fig11
  (random waypoint), fig14 (city section), fig17 (flooding sweep
  representative), energy-lifetime and rwp-churn-faults — vec == flat;
* engine invariance: serial == ``jobs=4`` == cached for the vec
  configs;
* property-style randomized frames: scripted broadcast storms over
  random node layouts must produce identical per-node delivery traces
  and identical collision/loss counters under both engines;
* randomized range queries against a moving population must return the
  identical node sets (``nodes_within``), vectorized vs manual scalar
  re-computation.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.energy import DutyCycleConfig, EnergyConfig, PowerProfile
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.cache import ResultCache
from repro.harness.parallel import ParallelRunner
from repro.harness.scenario import (CitySectionSpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    run_scenario)
from repro.net import RadioConfig
from repro.net.medium import MediumConfig, WirelessMedium
from repro.net.messages import Heartbeat
from repro.sim import Simulator
from repro.sim.space import Vec2


def _fig11() -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=10,
        mobility=RandomWaypointSpec(width=1000.0, height=1000.0,
                                    speed_min=5.0, speed_max=15.0),
        duration=40.0, warmup=4.0,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=30.0),))


def _fig14() -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=6,
        mobility=CitySectionSpec(),
        duration=30.0, warmup=5.0,
        radio=RadioConfig.paper_city_section(),
        publications=(Publication(at=2.0, validity=25.0),))


def _fig17() -> ScenarioConfig:
    # The frugality-sweep family's non-frugal representative: flooding
    # stresses the medium with the densest traffic of any protocol.
    return _fig11().with_changes(protocol="simple-flooding",
                                 flood_period=1.0)


def _energy_lifetime() -> ScenarioConfig:
    return _fig11().with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(),
        battery_capacity_j=30.0,
        duty_cycle=DutyCycleConfig.heartbeat_aligned(1.0, 0.5)))


def _rwp_churn_faults() -> ScenarioConfig:
    return _fig11().with_changes(faults=FaultConfig(
        plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.25,
                                   duration=10.0),)),
        churn=ChurnConfig(mean_session_s=15.0, mean_rest_s=5.0,
                          fraction=0.5),
        outages=(RegionalOutage(at=8.0, duration=6.0,
                                center=(450.0, 450.0), radius_m=250.0),),
        loss=LinkLossConfig(link_loss_min=0.05, link_loss_max=0.15,
                            burst_rate_per_s=0.05,
                            burst_mean_duration_s=2.0,
                            burst_loss_probability=0.8)))


FAMILIES = {
    "fig11": _fig11,
    "fig14": _fig14,
    "fig17": _fig17,
    "energy-lifetime": _energy_lifetime,
    "rwp-churn-faults": _rwp_churn_faults,
}

SEEDS = [0, 1]


class TestEqualityLadder:
    """vec == flat, exactly, everywhere."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_summaries_bit_identical(self, family, seed):
        cfg = FAMILIES[family]().with_changes(seed=seed)
        vec = run_scenario(cfg).summary()
        flat = run_scenario(cfg.with_flat_medium()).summary()
        assert vec == flat, f"{family}/s{seed}: vec != flat"

    def test_default_config_is_vectorized(self):
        """The vec engine is the default, and the flat oracle is
        selectable — the pairing above is meaningful."""
        cfg = _fig11()
        assert cfg.medium.spatial_index
        assert cfg.coalesced_timers
        flat = cfg.with_flat_medium()
        assert not flat.medium.spatial_index
        assert not flat.coalesced_timers


class TestEngineInvariance:
    """The vec stack under the execution engine: fan-out and
    cache replay must be invisible."""

    def test_serial_jobs4_cached_identical(self, tmp_path):
        cfg = _fig11()
        serial = ParallelRunner(jobs=1).run_seeds(cfg, SEEDS)
        with ParallelRunner(jobs=4) as pool:
            fanned = pool.run_seeds(cfg, SEEDS)
        cache = ResultCache(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, cache=cache)
        first = warm.run_seeds(cfg, SEEDS)
        replay = warm.run_seeds(cfg, SEEDS)
        for multi in (fanned, first, replay):
            assert [r.summary() for r in multi.results] == \
                [r.summary() for r in serial.results]
        assert warm.stats.executed == len(SEEDS)  # second pass ran nothing


class _Stub:
    """A parked test node: fixed position, always listening, records
    every received payload."""

    def __init__(self, node_id, pos):
        self.id = node_id
        self.pos = pos
        self.alive = True
        self.asleep = False
        self.silenced = False
        self.received = []

    @property
    def listening(self):
        return self.alive and not self.asleep and not self.silenced

    def position(self):
        return self.pos

    def receive(self, message):
        self.received.append((message.sender, message.kind))


def _storm_trace(cfg: MediumConfig, seed: int):
    """Run a randomized broadcast storm and capture its full outcome."""
    layout_rng = random.Random(1000 + seed)
    sim = Simulator()
    medium = WirelessMedium(sim, RadioConfig(range_override_m=150.0),
                            config=cfg, rng=random.Random(seed))
    nodes = [_Stub(i, Vec2(layout_rng.uniform(0, 600),
                           layout_rng.uniform(0, 600)))
             for i in range(24)]
    for node in nodes:
        medium.register(node)
    schedule_rng = random.Random(2000 + seed)
    for _ in range(120):
        at = schedule_rng.uniform(0.0, 0.5)
        sender = schedule_rng.randrange(len(nodes))
        sim.call_at(at, medium.broadcast, sender,
                    Heartbeat(sender=sender,
                              subscriptions=frozenset((".t",))))
    sim.run_until_idle()
    return {
        "received": {n.id: n.received for n in nodes},
        "sent": medium.frames_sent,
        "delivered": medium.frames_delivered,
        "collided": medium.frames_collided,
        "lost": medium.frames_lost_random,
    }


class TestRandomizedFrames:
    """Property-style: batched and flat receiver/collision resolution
    agree frame for frame on randomized storms."""

    @pytest.mark.parametrize("seed", range(6))
    def test_storm_traces_identical(self, seed):
        vec = MediumConfig(csma_enabled=False)      # overlap guaranteed
        flat = MediumConfig(csma_enabled=False, spatial_index=False)
        assert _storm_trace(vec, seed) == _storm_trace(flat, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_storm_traces_identical_with_csma_and_loss(self, seed):
        vec = MediumConfig(frame_loss_probability=0.2)
        flat = MediumConfig(frame_loss_probability=0.2,
                            spatial_index=False)
        assert _storm_trace(vec, seed) == _storm_trace(flat, seed)


class TestRangeQueries:
    """nodes_within: batched interpolation == per-node scalar recompute,
    on a population that is actually moving."""

    def test_moving_population_queries_match_scalar_recompute(self):
        from repro.harness.scenario import build_world

        cfg = _fig11().with_changes(n_processes=30, seed=7)
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        query_rng = random.Random(42)
        checked = 0
        for stop_at in (3.0, 9.5, 17.25):
            world.sim.run(until=stop_at)
            medium = world.medium
            assert medium._legs is not None   # vec engine active
            for _ in range(20):
                center = Vec2(query_rng.uniform(0, 1000),
                              query_rng.uniform(0, 1000))
                radius = query_rng.uniform(10.0, 500.0)
                got = medium.nodes_within(center, radius)
                want = [node for node in
                        sorted(medium.nodes.values(), key=lambda n: n.id)
                        if node.position().distance_to(center) <= radius]
                assert got == want
                checked += len(want)
        assert checked > 50   # the queries actually exercised hits


class TestNodesWithinFlatFallback:
    """Regression for the flat-fallback hot path: the sorted node list
    is maintained incrementally, and out-of-order (re-)registrations
    must keep query results and ordering unchanged."""

    def _flat_medium(self):
        sim = Simulator()
        cfg = MediumConfig(spatial_index=False)
        return sim, WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                   config=cfg, rng=random.Random(0))

    def test_results_sorted_after_out_of_order_registration(self):
        _, medium = self._flat_medium()
        for node_id in (5, 1, 9, 3, 7):
            medium.register(_Stub(node_id, Vec2(float(node_id), 0.0)))
        got = medium.nodes_within(Vec2(0.0, 0.0), 50.0)
        assert [n.id for n in got] == [1, 3, 5, 7, 9]
        assert got == [node for _, node in sorted(medium.nodes.items())]

    def test_unregister_then_reregister_keeps_order(self):
        _, medium = self._flat_medium()
        for node_id in range(6):
            medium.register(_Stub(node_id, Vec2(float(node_id), 0.0)))
        medium.unregister(2)
        medium.unregister(5)
        medium.register(_Stub(2, Vec2(2.0, 0.0)))   # repower-style rejoin
        got = medium.nodes_within(Vec2(0.0, 0.0), 50.0)
        assert [n.id for n in got] == [0, 1, 2, 3, 4]
        assert got == [node for _, node in sorted(medium.nodes.items())]

    def test_radius_filter_still_applies(self):
        _, medium = self._flat_medium()
        for node_id in range(4):
            medium.register(_Stub(node_id, Vec2(30.0 * node_id, 0.0)))
        got = medium.nodes_within(Vec2(0.0, 0.0), 45.0)
        assert [n.id for n in got] == [0, 1]
        assert all(n.position().distance_to(Vec2(0.0, 0.0)) <= 45.0
                   for n in got)


class TestBatchPrimitives:
    """Direct unit checks of the numpy engine's exactness guarantees."""

    def test_legtable_interpolation_is_bitwise_exact(self):
        from repro.sim.batch import LegTable

        rng = random.Random(11)
        table = LegTable()
        legs = {}
        for i in range(40):
            x0, y0 = rng.uniform(0, 900), rng.uniform(0, 900)
            x1, y1 = rng.uniform(0, 900), rng.uniform(0, 900)
            t0 = rng.uniform(0, 5)
            dur = rng.uniform(0.5, 30.0)
            legs[i] = (x0, y0, x1, y1, t0, dur)
            table.note(i, legs[i])
        now = 12.5
        hits = table.audible(sorted(legs), now, 450.0, 450.0, 300.0)
        hit_ids = [i for i, _ in hits]
        for i, (x0, y0, x1, y1, t0, dur) in sorted(legs.items()):
            u = min(1.0, max(0.0, (now - t0) / dur))
            px, py = x0 + (x1 - x0) * u, y0 + (y1 - y0) * u
            inside = math.hypot(px - 450.0, py - 450.0) <= 300.0
            assert (i in hit_ids) == inside
            if inside:
                pos = dict(hits)[i]
                assert (pos.x, pos.y) == (px, py)   # bitwise, not approx

    def test_txlog_verdicts_match_scalar_predicate(self):
        from repro.sim.batch import TxLog

        rng = random.Random(13)
        log = TxLog(horizon_s=1.0)
        frames = []
        for _ in range(30):
            sender = rng.randrange(10)
            x, y = rng.uniform(0, 400), rng.uniform(0, 400)
            start = rng.uniform(0.0, 0.05)
            end = start + rng.uniform(0.001, 0.02)
            seq = log.add(sender, x, y, 150.0, start, end)
            frames.append((seq, sender, x, y, start, end))
        tx_seq, _, _, _, tx_start, tx_end = frames[7]
        receivers = [(i, Vec2(rng.uniform(0, 400), rng.uniform(0, 400)))
                     for i in range(12)]
        verdicts = log.corrupt_verdicts(
            tx_seq, tx_start, tx_end,
            [i for i, _ in receivers], [p for _, p in receivers])
        for k, (rx_id, rx_pos) in enumerate(receivers):
            expect = any(
                (start < tx_end and end > tx_start and seq != tx_seq)
                and (sender == rx_id
                     or math.hypot(x - rx_pos.x, y - rx_pos.y) <= 150.0)
                for seq, sender, x, y, start, end in frames)
            assert bool(verdicts[k]) == expect


class TestTimerCoalescingCross:
    """The timer wheel crossed with both engines: four combos.

    ``with_flat_medium()`` forces ``coalesced_timers=False``, so the
    ladder tests above never exercise the wheel on the flat engine (or
    vec without it).  This suite builds all four (engine x wheel)
    combinations explicitly via ``with_changes`` and requires the full
    receive trace — summaries, per-event reports and the raw
    delivery-time map — to be identical: timer coalescing must be a
    pure scheduling optimisation on both engines, not just the default
    one.
    """

    @staticmethod
    def _combos(cfg: ScenarioConfig) -> dict:
        from dataclasses import replace
        flat = replace(cfg.medium, spatial_index=False)
        return {
            "vec+wheel": cfg.with_changes(coalesced_timers=True),
            "vec": cfg.with_changes(coalesced_timers=False),
            "flat+wheel": cfg.with_changes(medium=flat,
                                           coalesced_timers=True),
            "flat": cfg.with_changes(medium=flat,
                                     coalesced_timers=False),
        }

    @pytest.mark.parametrize("family", ["fig11", "fig17",
                                        "rwp-churn-faults"])
    def test_wheel_is_invisible_on_every_rung(self, family):
        combos = self._combos(FAMILIES[family]())
        baseline = run_scenario(combos["vec+wheel"])
        for name, combo in combos.items():
            if name == "vec+wheel":
                continue
            got = run_scenario(combo)
            assert got.summary() == baseline.summary(), \
                f"{family}: {name} diverged from vec+wheel"
            assert got.per_event_reports() == \
                baseline.per_event_reports(), \
                f"{family}: {name} per-event reports diverged"
            assert got.collector.delivery_times == \
                baseline.collector.delivery_times, \
                f"{family}: {name} delivery traces diverged"

    def test_explicit_combos_cover_the_forced_gap(self):
        """The helper really reaches the combos the canned switch
        excludes: the flat engine with the wheel on, and vec without
        it."""
        combos = self._combos(_fig11())
        assert not combos["flat+wheel"].medium.spatial_index
        assert combos["flat+wheel"].coalesced_timers
        assert combos["vec"].medium.spatial_index
        assert not combos["vec"].coalesced_timers
