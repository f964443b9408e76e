"""The spatially-indexed medium: exact equality with the flat scan, grid
maintenance under mobility, and transmission-history pruning.

The load-bearing guarantee is *bit-identical results*: the grid is a
pruning accelerator, never an approximation.  Every test here that
compares the two media asserts exact ``==`` on floats, not approx.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.experiments import (city_scenario, energy_scenario,
                                       rwp_scenario)
from repro.harness.presets import QUICK
from repro.harness.scenario import (RandomWaypointSpec, ScenarioConfig,
                                    build_world, run_scenario)
from repro.mobility import RandomWaypoint, Stationary
from repro.net.medium import MediumConfig, WirelessMedium
from repro.net.messages import Heartbeat
from repro.net.radio import RadioConfig
from repro.sim.kernel import Simulator
from repro.sim.space import SpatialGrid, Vec2


def hb(sender: int) -> Heartbeat:
    return Heartbeat(sender=sender, subscriptions=frozenset())


def _tiny(cfg: ScenarioConfig) -> ScenarioConfig:
    """Shrink a family config so the paired runs stay test-suite fast."""
    return cfg.with_changes(warmup=min(cfg.warmup, 15.0))


#: One representative config per scenario family named in the acceptance
#: criteria: fig11 (random waypoint reliability), fig14 (city section),
#: fig17-20 (frugality comparison, a flooding protocol for contrast) and
#: the energy family (batteries deplete and unregister mid-run).
FAMILIES = {
    "fig11-rwp": _tiny(rwp_scenario(QUICK, 10.0, 10.0, validity=60.0,
                                    interest=0.8)),
    "fig14-city": _tiny(city_scenario(QUICK, validity=100.0, interest=0.6)),
    "fig17-flooding": _tiny(rwp_scenario(QUICK, 10.0, 10.0, validity=120.0,
                                         interest=0.6, n_events=3,
                                         protocol="simple-flooding",
                                         duration=80.0)),
    "energy-battery": _tiny(energy_scenario(QUICK, "neighbor-flooding",
                                            battery_j=28.0, duration=60.0)),
}


class TestGridFlatEquality:
    """Per-seed summaries must be exactly equal (== on floats)."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_summaries_bit_identical(self, family, seed):
        cfg = FAMILIES[family].with_changes(seed=seed)
        grid_result = run_scenario(cfg)
        flat_result = run_scenario(cfg.with_flat_medium())
        assert grid_result.summary() == flat_result.summary()

    def test_frame_counters_bit_identical(self):
        cfg = FAMILIES["fig11-rwp"].with_changes(seed=7)
        grid_world = build_world(cfg)
        flat_world = build_world(cfg.with_flat_medium())
        for world in (grid_world, flat_world):
            for node in world.nodes:
                node.start()
            world.sim.run(until=20.0)
        for attr in ("frames_sent", "frames_delivered", "frames_collided",
                     "frames_lost_random"):
            assert getattr(grid_world.medium, attr) == \
                getattr(flat_world.medium, attr), attr

    def test_stationary_with_frame_loss_identical(self):
        cfg = ScenarioConfig.random_waypoint_demo(seed=5).with_changes(
            mobility=RandomWaypointSpec(width=1500.0, height=1500.0,
                                        speed_min=0.0, speed_max=0.0),
            medium=MediumConfig(frame_loss_probability=0.2),
            duration=60.0)
        assert run_scenario(cfg).summary() == \
            run_scenario(cfg.with_flat_medium()).summary()


class TestGridWiring:
    def test_grid_mode_wires_mobility_pushes(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                rng=rngs.stream("medium"))
        assert medium.position_slack_m == pytest.approx(100.0 / 8.0)
        from repro.core import FrugalConfig, FrugalPubSub
        from repro.net import Node
        node = Node(0, sim, medium, Stationary(position=Vec2(3, 4)),
                    FrugalPubSub(FrugalConfig(hb_jitter=0.0)),
                    rngs.stream("node", 0))
        assert node.mobility.on_move is not None
        assert node.mobility.anchor_interval_m == medium.position_slack_m
        node.start()
        assert medium._grid.position(0) == Vec2(3, 4)

    def test_flat_mode_wires_nothing(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                config=MediumConfig(spatial_index=False),
                                rng=rngs.stream("medium"))
        assert medium.position_slack_m is None
        from repro.core import FrugalConfig, FrugalPubSub
        from repro.net import Node
        node = Node(0, sim, medium, Stationary(position=Vec2(0, 0)),
                    FrugalPubSub(FrugalConfig(hb_jitter=0.0)),
                    rngs.stream("node", 0))
        assert node.mobility.on_move is None
        assert node.mobility.anchor_interval_m is None

    def test_prestarted_mobility_is_resynced_on_wiring(self, sim, rngs):
        """Regression: a mobility model started *before* the node wires
        ``on_move`` is mid-leg with no re-anchor timer; the wiring must
        resync it or its grid anchor drifts unboundedly."""
        from repro.core import FrugalConfig, FrugalPubSub
        from repro.net import Node
        model = RandomWaypoint(5000.0, 5000.0, speed_min=10.0,
                               speed_max=10.0, pause_time=1.0)
        model.start(sim, rngs.stream("walker"))
        sim.run(until=5.0)            # well into the first leg
        medium = WirelessMedium(sim, RadioConfig.paper_random_waypoint(),
                                rng=rngs.stream("medium"))
        node = Node(0, sim, medium, model,
                    FrugalPubSub(FrugalConfig(hb_jitter=0.0)),
                    rngs.stream("node", 0))
        node.start()
        slack = medium.position_slack_m
        for step in range(1, 160):    # long enough to cross the leg
            sim.run(until=5.0 + step * 0.5)
            drift = medium._grid.position(0).distance_to(node.position())
            assert drift <= slack + 1e-9

    def test_anchor_never_lags_by_more_than_slack(self):
        """Mid-leg re-anchors bound the true-position drift."""
        sim = Simulator()
        model = RandomWaypoint(2000.0, 2000.0, speed_min=10.0,
                               speed_max=10.0, pause_time=1.0)
        anchors = []
        model.anchor_interval_m = 25.0
        model.on_move = anchors.append
        model.start(sim, random.Random(1))
        checked = 0
        for step in range(1, 400):
            sim.run(until=step * 0.25)
            drift = anchors[-1].distance_to(model.position())
            assert drift <= 25.0 + 1e-9
            checked += 1
        assert checked and len(anchors) > 10


class TestGridMaintenanceUnderMobility:
    def _membership_count(self, grid: SpatialGrid, obj_id: int) -> int:
        return sum(1 for bucket in grid._cells.values() if obj_id in bucket)

    def test_cell_crossing_keeps_exactly_one_entry(self):
        """A node walking across many cell boundaries occupies exactly
        one bucket at every instant (insert moves, never duplicates)."""
        grid = SpatialGrid(cell_size=10.0)
        for i in range(200):   # diagonal walk across ~30 cells
            grid.insert(42, Vec2(i * 1.5, i * 1.5))
            assert self._membership_count(grid, 42) == 1
            assert len(grid) == 1

    def test_remove_then_reinsert_is_clean(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(7, Vec2(5, 5))
        grid.remove(7)
        assert self._membership_count(grid, 7) == 0
        grid.insert(7, Vec2(95, 95))
        assert self._membership_count(grid, 7) == 1
        assert grid.query_radius(Vec2(95, 95), 1.0) == [7]

    def test_world_grid_has_one_entry_per_live_node(self):
        """After real mobility churned for a while, every registered node
        has exactly one grid membership and the grid holds nothing else."""
        cfg = FAMILIES["fig11-rwp"].with_changes(seed=2)
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        world.sim.run(until=30.0)
        grid = world.medium._grid
        assert sorted(grid.ids()) == sorted(world.medium.nodes)
        for nid in world.medium.nodes:
            assert self._membership_count(grid, nid) == 1
        # Anchors are honest: nobody drifted beyond the slack distance.
        slack = world.medium.position_slack_m
        for nid, node in world.medium.nodes.items():
            assert grid.position(nid).distance_to(node.position()) \
                <= slack + 1e-9

    def test_power_down_stops_anchor_pushes_and_repower_resumes(
            self, sim, rngs):
        """A drained device must not keep arming re-anchor timers (its
        pushes would all be discarded); repowering re-wires and re-indexes."""
        from repro.core import FrugalConfig, FrugalPubSub
        from repro.net import Node
        medium = WirelessMedium(sim, RadioConfig.paper_random_waypoint(),
                                rng=rngs.stream("medium"))
        model = RandomWaypoint(5000.0, 5000.0, speed_min=10.0,
                               speed_max=10.0, pause_time=1.0)
        node = Node(0, sim, medium, model,
                    FrugalPubSub(FrugalConfig(hb_jitter=0.0)),
                    rngs.stream("node", 0))
        node.start()
        sim.run(until=3.0)
        node.power_down()
        assert model.on_move is None
        assert model._anchor_timer is None or not model._anchor_timer.active
        assert 0 not in medium._grid
        sim.run(until=10.0)
        node.repower()
        assert model.on_move is not None
        assert medium._grid.position(0) == node.position()
        slack = medium.position_slack_m
        for step in range(1, 40):     # anchor stays bounded again
            sim.run(until=10.0 + step * 0.5)
            drift = medium._grid.position(0).distance_to(node.position())
            assert drift <= slack + 1e-9

    def test_drained_node_leaves_the_grid(self):
        """Battery death unregisters the node from medium *and* grid,
        even though its mobility model keeps pushing anchors."""
        cfg = energy_scenario(QUICK, "neighbor-flooding",
                              battery_j=2.0, duration=60.0)
        cfg = cfg.with_changes(warmup=5.0, seed=1)
        result = run_scenario(cfg)
        depleted = set(result.energy.depleted_ids())
        assert depleted, "scenario must actually drain some batteries"
        # Re-run the world manually to inspect the live medium state.
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        world.sim.run(until=cfg.warmup + cfg.duration)
        world.energy.finalize()
        dead = set(world.energy.depleted_ids())
        assert dead
        grid = world.medium._grid
        for nid in dead:
            assert nid not in world.medium.nodes
            assert nid not in grid
        for nid in world.medium.nodes:
            assert nid in grid


class TestHistoryPruning:
    def _flat_medium(self, sim, **cfg):
        return WirelessMedium(
            sim, RadioConfig(range_override_m=100.0),
            config=MediumConfig(spatial_index=False, **cfg),
            rng=random.Random(0))

    class _Stub:
        def __init__(self, node_id, pos):
            self.id = node_id
            self.pos = pos
            self.alive = True
            self.asleep = False
            self.silenced = False

        @property
        def listening(self):
            return self.alive and not self.asleep and not self.silenced

        def position(self):
            return self.pos

        def receive(self, message):
            pass

    def test_quiet_run_does_not_pin_history_forever(self, sim):
        """Regression: pruning used to trigger only above 256 entries, so
        a long quiet run kept every old transmission alive.  The horizon
        now applies regardless of length."""
        medium = self._flat_medium(sim)
        medium.register(self._Stub(0, Vec2(0, 0)))
        medium.register(self._Stub(1, Vec2(10, 0)))
        for i in range(20):
            medium.broadcast(0, hb(0))
            sim.run(until=sim.now + 0.01)
        sim.run(until=600.0)          # long quiet stretch
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert len(medium._history) == 1   # just the fresh frame

    def test_history_keeps_frames_inside_horizon(self, sim):
        medium = self._flat_medium(sim)
        medium.register(self._Stub(0, Vec2(0, 0)))
        medium.register(self._Stub(1, Vec2(10, 0)))
        medium.broadcast(0, hb(0))
        sim.run(until=0.5)            # inside the 1 s horizon
        medium.broadcast(0, hb(0))
        assert len(medium._history) == 2

    def test_txlog_prunes_on_horizon(self, sim):
        """The vec engine's transmission log honours the same horizon."""
        medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                rng=random.Random(0))
        medium.register(self._Stub(0, Vec2(0, 0)))
        medium.register(self._Stub(1, Vec2(10, 0)))
        for _ in range(5):
            medium.broadcast(0, hb(0))
            sim.run(until=sim.now + 0.01)
        assert len(medium._txlog) == 5
        sim.run(until=120.0)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert len(medium._txlog) == 1
