"""The shared broadcast wireless medium.

This is the substrate standing in for Qualnet's 802.11b PHY/MAC.  It models
exactly the phenomena the paper's results depend on:

* **broadcast locality** — a frame reaches every node within the sender's
  communication radius, and nobody else (one-hop sends only, Section 2);
* **finite airtime** — a frame occupies the channel for
  ``preamble + bits/rate`` seconds;
* **carrier sense** — a node that senses an audible ongoing transmission
  defers with a random back-off before retrying (CSMA), bounded by
  ``max_csma_retries`` after which the frame is sent anyway (matching
  802.11 behaviour of eventually seizing a busy channel);
* **collisions** — a reception fails when two transmissions audible at the
  *receiver* overlap in time (no capture effect), and while the receiver is
  itself transmitting (half-duplex).  Fig. 13's non-monotonic heartbeat
  result is explicitly attributed to collisions, so this is load-bearing;
* **optional uniform frame loss** — fading/interference hook for failure-
  injection tests.

Positions are sampled from each node's mobility model at transmission
start; at pedestrian/vehicular speeds and millisecond airtimes the
displacement within a frame is negligible.

Two engines
-----------
``MediumConfig.spatial_index`` selects one of two engines.  Their
results are bit-identical (``tests/test_vectorized_medium.py`` and
``benchmarks/bench_scale.py`` assert float equality of per-seed
summaries across every scenario family).

**vec** (``spatial_index=True``, the default) resolves "who can hear
this frame?" through a :class:`~repro.sim.space.SpatialGrid` and the
numpy engine of :mod:`repro.sim.batch`:

* each node's mobility model *pushes* position anchors into the grid
  (``MobilityModel.on_move``), re-anchoring at leg boundaries and every
  ``anchor slack`` metres along a leg, so an anchor is never more than the
  slack distance away from the node's true position;
* nodes also push *leg states* (:meth:`MobilityModel.leg_state`) into a
  :class:`~repro.sim.batch.LegTable`; receiver resolution queries the
  grid with ``range + slack`` and re-filters the candidates against
  their *exact* interpolated positions in one array expression;
* candidate iteration is in deterministic ascending-id order
  (:meth:`SpatialGrid.query_radius` sorts), the same order the flat scan
  uses, so event sequences match exactly;
* recent transmissions live in a :class:`~repro.sim.batch.TxLog`;
  carrier sense and per-receiver collision verdicts are array queries;
* the K per-receiver delivery events of one frame collapse into a
  *single* kernel event (:meth:`WirelessMedium._deliver_batch`).  This
  is exactly order-equivalent to the flat engine's K consecutive
  events: those are scheduled back-to-back with consecutive sequence
  numbers at the same instant, and a frame's overlap set is final at
  its end time (the overlap predicate is strict, so a transmission
  *starting* at the delivery instant never overlaps), hence no event
  can observably interleave between the per-receiver deliveries;
* every distance predicate uses the band-prefilter + exact
  ``math.hypot`` confirmation of :mod:`repro.sim.batch`, so verdicts
  are bit-identical to the flat scan, not merely close.

**flat** (``spatial_index=False``) is the O(N) reference oracle: every
registered node is a receiver candidate, and carrier sense and
collisions scan plain lists of recent transmissions.  It iterates
receivers in ascending-id order too — dict insertion order would only
differ after a mid-run re-registration (``Node.repower``); sharing the
sorted order is what keeps the two engines exactly equal in every
lifecycle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.messages import Message, SizeModel
from repro.net.radio import RadioConfig
from repro.sim import batch
from repro.sim.kernel import Simulator
from repro.sim.space import SpatialGrid, Vec2

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


@dataclass(frozen=True)
class MediumConfig:
    """Medium/MAC behaviour knobs.

    Attributes
    ----------
    csma_enabled:
        Whether senders carrier-sense and back off before transmitting.
    max_csma_retries:
        Back-off attempts before the frame is sent regardless (802.11
        eventually seizes a busy channel).
    csma_backoff_min_s / csma_backoff_max_s:
        Uniform back-off window bounds, seconds.
    frame_loss_probability:
        Per-reception uniform loss probability in [0, 1] (fading hook).
    model_collisions:
        Whether overlapping audible frames corrupt each other.
    spatial_index:
        The engine selector.  ``True`` (the default) runs the vec
        engine: spatial-grid pruning plus the numpy batch engine
        (:mod:`repro.sim.batch`), with each frame's per-receiver
        deliveries coalesced into one kernel event.  ``False`` runs the
        flat O(N) reference scan.  Results are exactly equal either way.
    anchor_slack_m:
        Maximum distance (metres) a node's true position may drift from
        its indexed anchor before the mobility model re-anchors it.
        ``None`` derives ``communication_range / 8``.  Smaller values mean
        tighter range queries but more re-anchor events.
    history_horizon_s:
        Seconds a finished transmission stays available for collision
        checks.  Must exceed the longest frame airtime (milliseconds);
        the default of 1 s is three orders of magnitude above it.
    """

    csma_enabled: bool = True
    max_csma_retries: int = 6
    csma_backoff_min_s: float = 0.5e-3
    csma_backoff_max_s: float = 4e-3
    frame_loss_probability: float = 0.0
    model_collisions: bool = True
    spatial_index: bool = True
    anchor_slack_m: Optional[float] = None
    history_horizon_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.frame_loss_probability <= 1.0:
            raise ValueError("frame_loss_probability must be in [0,1]")
        if self.csma_backoff_min_s < 0 or \
                self.csma_backoff_max_s < self.csma_backoff_min_s:
            raise ValueError("need 0 <= backoff_min <= backoff_max")
        if self.anchor_slack_m is not None and self.anchor_slack_m <= 0:
            raise ValueError("anchor_slack_m must be positive")
        if self.history_horizon_s <= 0:
            raise ValueError("history_horizon_s must be positive")


@dataclass
class Transmission:
    """One frame on the air."""

    sender: int
    sender_pos: Vec2
    range_m: float
    start: float
    end: float
    message: Message

    def overlaps(self, other: "Transmission") -> bool:
        """True when the two frames were on the air at the same time."""
        return self.start < other.end and other.start < self.end

    def audible_at(self, pos: Vec2) -> bool:
        """True when ``pos`` lies within this frame's communication range."""
        return self.sender_pos.distance_to(pos) <= self.range_m


class WirelessMedium:
    """Broadcast medium shared by all nodes of a simulation.

    Parameters
    ----------
    sim:
        The event kernel everything is scheduled on.
    radio:
        Physical-layer parameters; ``communication_range_m()`` sizes both
        the audible radius and the spatial-index cells.
    config:
        MAC/indexing behaviour knobs (defaults to :class:`MediumConfig`).
    sizes:
        Wire-size model used to derive frame airtimes.
    rng:
        Dedicated random stream for CSMA back-off and uniform loss draws
        (see :meth:`_mac_stream`).
    """

    def __init__(self, sim: Simulator, radio: RadioConfig,
                 config: MediumConfig | None = None,
                 sizes: SizeModel | None = None,
                 rng=None):
        self.sim = sim
        self.radio = radio
        self.config = config or MediumConfig()
        self.sizes = sizes or SizeModel()
        self._rng = rng
        self._nodes: Dict[int, "Node"] = {}
        self._active: List[Transmission] = []    # flat engine only
        self._history: List[Transmission] = []   # flat engine only
        # Vec engine: node anchors in a grid whose cell size equals the
        # inflated query radius (every range query touches exactly a
        # 3x3 block of cells), exact legs and recent transmissions in
        # the batch engine's columns.
        range_m = radio.communication_range_m()
        slack = self.config.anchor_slack_m
        self._slack_m = slack if slack is not None else range_m / 8.0
        self._query_radius_m = range_m + self._slack_m
        self._grid: Optional[SpatialGrid] = None
        self._legs: Optional[batch.LegTable] = None
        self._txlog: Optional[batch.TxLog] = None
        if self.config.spatial_index:
            self._grid = SpatialGrid(self._query_radius_m)
            self._legs = batch.LegTable()
            self._txlog = batch.TxLog(self.config.history_horizon_s)
        # Incrementally sorted receiver snapshot for the flat scan (and
        # any other ascending-id full iteration): maintained on
        # register/unregister instead of re-sorting the node dict per
        # query.
        self._sorted_ids: List[int] = []
        self._sorted_nodes: List["Node"] = []
        # Observability hooks (metrics collector subscribes to these).
        self.on_transmit: Optional[Callable[[int, Message, int], None]] = None
        self.on_receive: Optional[Callable[[int, Message], None]] = None
        self.on_drop: Optional[Callable[[int, Message, str], None]] = None
        # Radio-occupancy hooks (energy accountant subscribes to these):
        # called with (node_id, airtime_s) whenever a node's radio is
        # busy transmitting its own frame / overlapped by an audible one.
        self.on_tx_window: Optional[Callable[[int, float], None]] = None
        self.on_rx_window: Optional[Callable[[int, float], None]] = None
        # Fault-injection loss hook: called (sender_id, receiver_id) at
        # delivery time; returning True drops the frame.  Installed by
        # the fault injector's link-loss model; None (the default) adds
        # zero work and zero RNG draws to the delivery path.
        self.extra_loss: Optional[Callable[[int, int], bool]] = None
        # Shard-ingress hook: when set, a freshly assembled frame is
        # handed to the sharded-execution layer instead of being
        # resolved locally — the shard engine commits it at the next
        # epoch barrier, routes it to every shard whose residents could
        # hear it, and retimes its delivery to the exact instant
        # ``end + latency`` inside the receiving shards' kernels (see
        # repro.sim.shard).  Like ``extra_loss`` above, ``None`` (the
        # default) adds zero work to the path.
        self.shard_ingress: Optional[Callable[[Transmission], None]] = None
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_lost_random = 0
        self.frames_lost_fault = 0

    # -- membership ---------------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Add a node to the medium (and, when possible, to the grid).

        A node whose position is already resolvable — a test stub, or a
        repowered node whose mobility model is running — is indexed
        immediately; a node registered before its mobility model started
        is indexed by the anchor its model pushes at start time.
        """
        if node.id in self._nodes:
            raise ValueError(f"duplicate node id {node.id}")
        self._nodes[node.id] = node
        idx = bisect.bisect_left(self._sorted_ids, node.id)
        self._sorted_ids.insert(idx, node.id)
        self._sorted_nodes.insert(idx, node)
        if self._grid is None:
            return
        mobility = getattr(node, "mobility", None)
        if mobility is None or mobility.started:
            try:
                pos = node.position()
            except RuntimeError:
                return
            self._grid.insert(node.id, pos)
            # Seed a parked leg so the batch engine can resolve the node
            # immediately; a node with a live mobility model overwrites
            # this with its true leg when the leg-change wiring pushes
            # (same call stack, before any query).
            self._legs.note(node.id, batch.static_state(
                pos.x, pos.y, self.sim.now))

    def unregister(self, node_id: int) -> None:
        """Remove a node from the medium and from the spatial index.

        A drained (or otherwise departed) node stops being a potential
        receiver *and* disappears from the grid — its mobility model may
        keep pushing anchors (the device is still on a moving vehicle),
        which :meth:`note_position` discards for unknown ids.
        """
        if self._nodes.pop(node_id, None) is not None:
            idx = bisect.bisect_left(self._sorted_ids, node_id)
            if idx < len(self._sorted_ids) and \
                    self._sorted_ids[idx] == node_id:
                self._sorted_ids.pop(idx)
                self._sorted_nodes.pop(idx)
        if self._grid is not None:
            self._grid.remove(node_id)
            self._legs.remove(node_id)

    def note_position(self, node_id: int, pos: Vec2) -> None:
        """Record a position anchor pushed by a node's mobility model.

        Anchors for unregistered ids (crashed-and-drained devices still
        riding a vehicle) are dropped.  A no-op under the flat engine.
        """
        if self._grid is not None and node_id in self._nodes:
            self._grid.insert(node_id, pos)

    def note_leg(self, node_id: int, state: "batch.LegState") -> None:
        """Record a leg-state push from a node's mobility model.

        The batch engine's exact-position source: one push per leg
        boundary keeps :class:`~repro.sim.batch.LegTable` able to
        reproduce ``position()`` bit for bit until the next boundary.
        Pushes for unregistered ids are dropped, mirroring
        :meth:`note_position`; a no-op under the flat engine.
        """
        if self._legs is not None and node_id in self._nodes:
            self._legs.note(node_id, state)

    @property
    def position_slack_m(self) -> Optional[float]:
        """Mid-leg re-anchor distance nodes must honour (metres), or
        ``None`` when the flat engine is active and no pushes — anchors
        or leg states — are needed."""
        if self._grid is None:
            return None
        return self._slack_m

    @property
    def nodes(self) -> Dict[int, "Node"]:
        """Registered nodes by id (insertion-ordered)."""
        return self._nodes

    def nodes_within(self, pos: Vec2, radius_m: float) -> List["Node"]:
        """Registered nodes whose *exact* position lies within
        ``radius_m`` of ``pos``, in ascending-id order.

        Resolution mirrors receiver resolution: the vec engine queries
        the spatial index with ``radius + slack`` (an anchor is never
        staler than the slack distance) and re-filters candidates
        against exact interpolated positions, so both engines return
        the identical set.  Used by the fault subsystem to resolve
        regional outage membership.
        """
        if radius_m < 0:
            raise ValueError(f"radius_m must be >= 0: {radius_m}")
        if self._grid is not None:
            ids = self._grid.query_radius(pos, radius_m + self._slack_m)
            hits = self._legs.audible(
                [i for i in ids if i in self._nodes],
                self.sim.now, pos.x, pos.y, radius_m)
            return [self._nodes[i] for i, _ in hits]
        return [node for node in self._sorted_nodes
                if node.position().distance_to(pos) <= radius_m]

    # -- sending --------------------------------------------------------------------

    def broadcast(self, sender_id: int, message: Message) -> None:
        """Entry point used by nodes; applies carrier sense then transmits."""
        self._attempt_send(sender_id, message, attempt=0)

    def _attempt_send(self, sender_id: int, message: Message,
                      attempt: int) -> None:
        sender = self._nodes.get(sender_id)
        if sender is None or not sender.alive:
            return  # sender crashed while the frame was queued
        if sender.asleep or sender.silenced:
            sender.send(message)   # radio went down mid-backoff (duty
            return                 # cycle or fault silence): requeue
        pos = sender.position()
        if (self.config.csma_enabled
                and attempt < self.config.max_csma_retries
                and self._channel_busy(sender_id, pos)):
            delay = self._csma_delay(sender_id)
            self.sim.schedule(delay, self._attempt_send, sender_id,
                              message, attempt + 1)
            return
        self._transmit(sender, pos, message)

    def _mac_stream(self, kind: str, node_id: int):
        """The random stream one MAC draw comes from.

        ``kind`` is ``"backoff"`` (a CSMA back-off of sender
        ``node_id``) or ``"loss"`` (a uniform-loss draw at receiver
        ``node_id``).  Here every draw shares the medium's one stream;
        the sharded medium overrides this with per-node streams.
        """
        return self._rng

    def _csma_delay(self, sender_id: int) -> float:
        lo = self.config.csma_backoff_min_s
        hi = self.config.csma_backoff_max_s
        if hi <= lo:
            return lo
        rng = self._mac_stream("backoff", sender_id)
        return lo if rng is None else rng.uniform(lo, hi)

    def _channel_busy(self, sender_id: int, pos: Vec2) -> bool:
        """Any audible transmission defers a sender — including its *own*
        in-flight frame, which is how a half-duplex MAC serialises a
        node's back-to-back sends instead of corrupting both."""
        now = self.sim.now
        if self._txlog is not None:
            return self._txlog.busy(pos.x, pos.y, now)
        self._prune_active(now)
        return any(t.audible_at(pos) for t in self._active)

    def _prune_active(self, now: float) -> None:
        if self._active:
            self._active = [t for t in self._active if t.end > now]

    def _transmit(self, sender: "Node", pos: Vec2, message: Message) -> None:
        now = self.sim.now
        size = message.size_bytes(self.sizes)
        duration = self.radio.transmission_duration_s(size)
        tx = Transmission(sender=sender.id, sender_pos=pos,
                          range_m=self.radio.communication_range_m(),
                          start=now, end=now + duration, message=message)
        self.frames_sent += 1
        if self.on_transmit is not None:
            self.on_transmit(sender.id, message, size)
        if self.on_tx_window is not None:
            self.on_tx_window(sender.id, duration)
        if self.shard_ingress is not None:
            # Sharded execution: the sender's shard owns its TX metrics
            # (counted above); the frame leaves for the epoch-barrier
            # exchange instead of local resolution.
            self.shard_ingress(tx)
            return
        if self._txlog is not None:
            tx_seq = self._txlog.add(sender.id, pos.x, pos.y, tx.range_m,
                                     tx.start, tx.end)
            self._transmit_batch(sender.id, pos, tx, tx_seq, duration)
            return
        self._prune_active(now)
        self._active.append(tx)
        self._history.append(tx)
        self._trim_history(now)
        # Snapshot receivers at transmission start.  A sleeping radio is
        # deaf *and* free: it neither receives the frame nor pays the RX
        # energy for it.  Iterate a snapshot: charging an RX window can
        # deplete the receiver's battery and unregister it mid-loop.
        for node in list(self._sorted_nodes):
            if node.id == sender.id or not node.listening:
                continue
            rx_pos = node.position()
            if tx.audible_at(rx_pos):
                if self.on_rx_window is not None:
                    self.on_rx_window(node.id, duration)
                self.sim.schedule(duration, self._deliver, tx, node.id,
                                  rx_pos)

    def _transmit_batch(self, sender_id: int, pos: Vec2, tx: Transmission,
                        tx_seq: int, duration: float) -> None:
        """Vec receiver resolution + one coalesced delivery event.

        The audible set is resolved for all grid candidates at once
        (exact interpolated positions from the :class:`LegTable`), then
        walked in the same ascending-id order as the flat loop: the
        listening filter and RX-energy charges happen per node, in the
        identical sequence, so battery depletions mid-walk unfold
        exactly as they do under the flat engine.  The per-receiver
        deliveries collapse into a single :meth:`_deliver_batch` event —
        order-equivalent to the flat engine's K consecutive same-instant
        events (see the module docstring).
        """
        audible = self._legs.audible(
            self._grid.query_radius(pos, self._query_radius_m,
                                    exclude=sender_id),
            tx.start, pos.x, pos.y, tx.range_m)
        receivers: List[Tuple[int, Vec2]] = []
        for node_id, rx_pos in audible:
            node = self._nodes.get(node_id)
            if node is None or not node.listening:
                continue
            if self.on_rx_window is not None:
                self.on_rx_window(node_id, duration)
            receivers.append((node_id, rx_pos))
        if receivers:
            self.sim.schedule(duration, self._deliver_batch, tx, tx_seq,
                              receivers)

    def _trim_history(self, now: float) -> None:
        # Keep only transmissions that can still collide with a live one.
        # Stale frames are dropped from the front on every transmit (a
        # long-lived quiet network must not pin its whole traffic
        # history); the length trigger bounds pathological single-instant
        # bursts.
        horizon = now - self.config.history_horizon_s
        head = 0
        while head < len(self._history) and \
                self._history[head].end < horizon:
            head += 1
        if head:
            del self._history[:head]
        if len(self._history) > 256:
            self._history = [t for t in self._history if t.end >= horizon]

    # -- receiving -------------------------------------------------------------------

    def _deliver(self, tx: Transmission, receiver_id: int,
                 rx_pos: Vec2) -> None:
        node = self._nodes.get(receiver_id)
        if node is None or not node.listening:
            return  # crashed, drained or duty-cycled off mid-frame
        corrupted = self.config.model_collisions and \
            self._corrupted(tx, receiver_id, rx_pos)
        self._finish_delivery(tx, receiver_id, node, corrupted)

    def _deliver_batch(self, tx: Transmission, tx_seq: int,
                       receivers: List[Tuple[int, Vec2]]) -> None:
        """Deliver one frame to its whole receiver set in one event.

        Collision verdicts are computed once for the batch — safe
        because a frame's overlap set is final at its end time (the
        overlap predicate is strict) and verdicts consume no RNG, so a
        verdict computed up front equals one computed between
        deliveries.  Receivers are then walked in the same ascending-id
        order as the flat engine's consecutive delivery events,
        consuming identical loss draws and delivering identically —
        including re-checking liveness per receiver, since an earlier
        delivery's protocol reaction can crash or silence a later
        receiver in the same instant.
        """
        corrupted = None
        if self.config.model_collisions:
            corrupted = self._txlog.corrupt_verdicts(
                tx_seq, tx.start, tx.end,
                [node_id for node_id, _ in receivers],
                [rx_pos for _, rx_pos in receivers])
        for k, (receiver_id, _) in enumerate(receivers):
            node = self._nodes.get(receiver_id)
            if node is None or not node.listening:
                continue  # crashed, drained or duty-cycled off mid-frame
            self._finish_delivery(tx, receiver_id, node,
                                  corrupted is not None
                                  and bool(corrupted[k]))

    def _finish_delivery(self, tx: Transmission, receiver_id: int,
                         node: "Node", corrupted: bool) -> None:
        """Common delivery tail: collision/loss/fault gauntlet, then
        hand the frame to the receiver (both engines and the sharded
        medium share this so drop accounting and RNG draw order cannot
        diverge)."""
        if corrupted:
            self.frames_collided += 1
            if self.on_drop is not None:
                self.on_drop(receiver_id, tx.message, "collision")
            return
        p = self.config.frame_loss_probability
        rng = self._mac_stream("loss", receiver_id) if p > 0.0 else None
        if rng is not None and rng.random() < p:
            self.frames_lost_random += 1
            if self.on_drop is not None:
                self.on_drop(receiver_id, tx.message, "loss")
            return
        if self.extra_loss is not None and \
                self.extra_loss(tx.sender, receiver_id):
            self.frames_lost_fault += 1
            if self.on_drop is not None:
                self.on_drop(receiver_id, tx.message, "fault-loss")
            return
        self.frames_delivered += 1
        if self.on_receive is not None:
            self.on_receive(receiver_id, tx.message)
        node.receive(tx.message)

    def _corrupted(self, tx: Transmission, receiver_id: int,
                   rx_pos: Vec2) -> bool:
        """A frame is corrupted when another audible frame overlapped it,
        or when the receiver was transmitting itself (half-duplex)."""
        for other in self._history:
            if other is tx:
                continue
            if not other.overlaps(tx):
                continue
            if other.sender == receiver_id:
                return True
            if other.audible_at(rx_pos):
                return True
        return False
