"""Per-node radio energy accounting: a TX/RX/IDLE/SLEEP state machine.

Wireless energy is dominated by which *state* the radio is in, not by how
many bits it moves: an 802.11 card burns nearly as much listening to an
idle channel as receiving, and only sleeping saves real power (Feeney &
Nilsson, INFOCOM 2001, measured 1.65/1.4/1.15/0.045 W for a 2.4 GHz WaveLAN
card).  The :class:`EnergyModel` therefore tracks a state machine on the
simulation clock:

* **TX** while one of the node's own frames is on the air (airtime from
  :meth:`RadioConfig.transmission_duration_s`, so the data rate matters);
* **RX** while any audible frame overlaps the node (even frames that end
  up collided — the radio front-end still burned the power);
* **SLEEP** while the duty-cycling policy has switched the radio off;
* **IDLE** otherwise (powered, carrier-sensing, hearing nothing).

States are charged lazily: joules accrue only at state *transitions*
(``power(state) × elapsed``), never per simulated second.  The end of a
TX/RX window is not a kernel event: :meth:`EnergyModel.note_tx` and
:meth:`~EnergyModel.note_rx` push it onto a small per-model min-heap of
pending edges, and every sync first charges each pending edge up to the
current instant, in time order.  The ``[since, edge)`` segments are
therefore exactly the ones a timer per edge would have charged, at no
kernel cost: on mains power the model arms no timer at all.  When a
finite :class:`~repro.energy.battery.Battery` is attached, the model
keeps exactly one kernel timer, armed at the earlier of its next pending
edge and the instant the battery would run dry at the current draw —
depletion is detected on time, deterministically, not at the next
transition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.energy.battery import Battery
from repro.net.radio import RadioConfig, dbm_to_mw
from repro.sim.kernel import Simulator, Timer


class RadioState(enum.Enum):
    """The radio states an :class:`EnergyModel` charges."""

    TX = "tx"
    RX = "rx"
    IDLE = "idle"
    SLEEP = "sleep"
    OFF = "off"          # battery drained: draws nothing, forever


#: The states in declaration order; the models index per-state joules and
#: draws by position in this tuple.
_STATES = tuple(RadioState)
_TX, _RX, _IDLE, _SLEEP, _OFF = range(len(_STATES))


@dataclass(frozen=True)
class PowerProfile:
    """Per-state power draws in watts.

    Use :meth:`from_radio` to derive the TX draw from a
    :class:`RadioConfig` power budget, or the measured presets for the
    two device classes the paper discusses (802.11 PDAs, sensor-class
    power-save radios).
    """

    tx_w: float = 1.65
    rx_w: float = 1.4
    idle_w: float = 1.15
    sleep_w: float = 0.045

    def __post_init__(self) -> None:
        for name in ("tx_w", "rx_w", "idle_w", "sleep_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def draw_w(self, state: RadioState) -> float:
        """Power drawn in ``state``, in watts (0 when OFF)."""
        if state is RadioState.TX:
            return self.tx_w
        if state is RadioState.RX:
            return self.rx_w
        if state is RadioState.IDLE:
            return self.idle_w
        if state is RadioState.SLEEP:
            return self.sleep_w
        return 0.0                       # OFF

    # -- presets ---------------------------------------------------------------

    @classmethod
    def wifi_80211b(cls) -> "PowerProfile":
        """Feeney & Nilsson's measured 802.11 WaveLAN draws — the radio
        the paper's Qualnet experiments model."""
        return cls(tx_w=1.65, rx_w=1.4, idle_w=1.15, sleep_w=0.045)

    @classmethod
    def power_save(cls) -> "PowerProfile":
        """A power-save-mode radio: cheap idle carrier sense, so TX/RX
        airtime dominates the budget.  This is the regime where protocol
        frugality translates most directly into lifetime."""
        return cls(tx_w=1.65, rx_w=1.4, idle_w=0.2, sleep_w=0.01)

    @classmethod
    def from_radio(cls, radio: RadioConfig, electronics_w: float = 1.4,
                   idle_w: float = 1.15,
                   sleep_w: float = 0.045) -> "PowerProfile":
        """Derive the TX draw from a radio's configured power budget:
        electronics plus the RF power actually radiated, scaled up by the
        antenna efficiency (an 0.8-efficiency antenna wastes a quarter of
        the amplifier's output as heat)."""
        radiated_w = dbm_to_mw(radio.tx_power_dbm) / 1000.0
        return cls(tx_w=electronics_w + radiated_w / radio.antenna_efficiency,
                   rx_w=electronics_w, idle_w=idle_w, sleep_w=sleep_w)


class EnergyModel:
    """One node's radio state machine, charged on the simulation clock.

    The medium reports TX/RX *windows* (``note_tx`` / ``note_rx``); the
    duty cycler reports ``sleep`` / ``wake``.  The effective state is
    resolved by priority — TX beats RX beats SLEEP beats IDLE — which is
    exactly half-duplex behaviour: a transmitting radio is not also
    paying to receive.
    """

    def __init__(self, node_id: int, sim: Simulator, profile: PowerProfile,
                 battery: Optional[Battery] = None,
                 on_depleted: Optional[Callable[[int], None]] = None):
        self.node_id = node_id
        self.sim = sim
        self.profile = profile
        self.battery = battery or Battery()
        self.on_depleted = on_depleted
        self.transitions = 0
        self.depleted_at: Optional[float] = None
        # Joules and draws per state, indexed like _STATES.
        self._joules: List[float] = [0.0] * len(_STATES)
        self._draws = tuple(profile.draw_w(state) for state in _STATES)
        self._finite = not self.battery.infinite
        self._since = sim.now
        self._tx_until = -math.inf
        self._rx_until = -math.inf
        self._edges: List[float] = []     # min-heap of pending window ends
        self._asleep = False
        self._off = False
        self._timer: Optional[Timer] = None
        # Arm immediately: even a node that never transmits dies on time.
        self._rearm(sim.now)

    # -- inspection -----------------------------------------------------------

    @property
    def joules_by_state(self) -> Dict[RadioState, float]:
        """Joules charged so far, per radio state (a fresh dict)."""
        return dict(zip(_STATES, self._joules))

    @property
    def total_joules(self) -> float:
        """Joules charged so far, all states together."""
        return sum(self._joules)

    @property
    def state(self) -> RadioState:
        """The radio state in force at the current instant."""
        return _STATES[self._state_at(self.sim.now)]

    @property
    def depleted(self) -> bool:
        """True once the battery has run dry (and until :meth:`revive`)."""
        return self._off

    def _state_at(self, now: float) -> int:
        if self._off:
            return _OFF
        if now < self._tx_until:
            return _TX
        if now < self._rx_until:
            return _RX
        if self._asleep:
            return _SLEEP
        return _IDLE

    # -- charging -------------------------------------------------------------

    def _charge_until(self, now: float) -> None:
        """Charge every segment up to ``now``, splitting it at each pending
        window edge, at the state in force over that segment."""
        edges = self._edges
        while edges and edges[0] <= now:
            if self._charge_segment(heappop(edges)):
                return
        self._charge_segment(now)

    def _charge_segment(self, end: float) -> bool:
        """Charge ``[since, end)``; True if that drained the battery.

        The state over the segment is whatever was effective at its
        start: every window edge and every state change begins a new
        segment, so the state cannot have changed mid-segment.
        """
        since = self._since
        if end <= since:
            return False
        state = self._state_at(since)
        joules = self._draws[state] * (end - since)
        self._since = end
        if not self._finite:
            self._joules[state] += joules
            return False
        self._joules[state] += self.battery.discharge(joules)
        if self.battery.drained and not self._off:
            self._power_off(end)
            return True
        return False

    def _sync(self) -> None:
        """Charge up to the current instant, then re-arm the timer."""
        now = self.sim.now
        self._charge_until(now)
        self._rearm(now)

    def _power_off(self, now: float) -> None:
        self._off = True
        self.depleted_at = now
        self.transitions += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.on_depleted is not None:
            self.on_depleted(self.node_id)

    def _rearm(self, now: float) -> None:
        """Arm the one timer of a finite battery at the earlier of the
        next pending edge and the instant it would run dry."""
        if self._off or not self._finite:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        draw = self._draws[self._state_at(now)]
        horizon = self.battery.time_to_empty_s(draw)
        if now + horizon <= now:
            # Float residue: the remaining charge buys less than one
            # representable slice of time — consider it spent, or the
            # rescheduled sync would spin forever at this timestamp.
            self.battery.discharge(self.battery.remaining_j)
            self._power_off(now)
            return
        at = now + horizon
        if self._edges and self._edges[0] < at:
            # The draw changes at the edge, and with it the instant the
            # battery runs dry: re-predict there.
            at = self._edges[0]
        if not math.isinf(at):
            self._timer = self.sim.call_at(at, self._sync)

    # -- transition notifications (medium / duty cycler) -----------------------

    def note_tx(self, duration_s: float) -> None:
        """The node's own frame occupies the air for ``duration_s``."""
        if self._off:
            return
        now = self.sim.now
        self._charge_until(now)
        end = now + duration_s
        if end > self._tx_until:
            self._tx_until = end
            self.transitions += 1
            heappush(self._edges, end)
        self._rearm(now)

    def note_rx(self, duration_s: float) -> None:
        """An audible frame overlaps the node for ``duration_s``."""
        if self._off or self._asleep:
            return
        now = self.sim.now
        self._charge_until(now)
        end = now + duration_s
        if end > self._rx_until:
            self._rx_until = end
            self.transitions += 1
            heappush(self._edges, end)
        self._rearm(now)

    def sleep(self) -> None:
        """The duty cycler switched the radio to SLEEP (until ``wake``)."""
        if self._off or self._asleep:
            return
        now = self.sim.now
        self._charge_until(now)
        if self._off:
            return
        self._asleep = True
        self.transitions += 1
        self._rearm(now)

    def wake(self) -> None:
        """The duty cycler switched the radio back on."""
        if self._off or not self._asleep:
            return
        now = self.sim.now
        self._charge_until(now)
        if self._off:
            return
        self._asleep = False
        self.transitions += 1
        self._rearm(now)

    # -- lifecycle ------------------------------------------------------------

    def reset_tallies(self, recharge: bool = True) -> None:
        """Zero the joule counters (and optionally refill the battery) —
        called at measurement-window start so warm-up traffic is free,
        mirroring :meth:`MetricsCollector.resume`."""
        self._sync()
        self._joules = [0.0] * len(_STATES)
        if recharge and not self._off:
            self.battery.recharge()
            self._rearm(self.sim.now)

    def revive(self) -> None:
        """A fresh battery was installed in a drained radio: leave OFF,
        refill, and resume accounting from the current instant."""
        if not self._off:
            return
        self._off = False
        self.depleted_at = None
        self._since = self.sim.now
        self._tx_until = -math.inf
        self._rx_until = -math.inf
        self._edges.clear()
        self._asleep = False
        self.transitions += 1
        self.battery.recharge()
        self._rearm(self.sim.now)

    def finalize(self) -> None:
        """Charge up to the current instant (end of run)."""
        self._sync()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EnergyModel node={self.node_id} {self.state.value} "
                f"{self.total_joules:.2f} J>")
