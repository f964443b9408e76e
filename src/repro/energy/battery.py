"""Finite energy stores with exact depletion semantics.

The paper motivates frugality with the scarce resources of mobile devices
but never quantifies them; a :class:`Battery` is the missing resource.  It
holds joules, is discharged by the :class:`~repro.energy.model.EnergyModel`
as the radio burns power, and reports the instant it runs dry so the
owning node can be detached from the medium *mid-run* — which is what
turns every scenario into a network-lifetime experiment.
"""

from __future__ import annotations

import math


class Battery:
    """A finite reservoir of joules.

    ``capacity_j=None`` models mains power (never drains), so the same
    accounting code runs in both energy-audit and lifetime experiments.
    """

    def __init__(self, capacity_j: float | None = None,
                 initial_j: float | None = None):
        if capacity_j is not None and capacity_j <= 0:
            raise ValueError(f"capacity must be positive: {capacity_j=}")
        self.capacity_j = capacity_j
        if initial_j is None:
            initial_j = capacity_j
        if capacity_j is not None and initial_j > capacity_j:
            raise ValueError("initial charge exceeds capacity")
        self._remaining = (math.inf if capacity_j is None
                           else float(initial_j))

    @property
    def infinite(self) -> bool:
        """True for mains power (``capacity_j=None``): never drains."""
        return self.capacity_j is None

    @property
    def remaining_j(self) -> float:
        """Joules left (``inf`` on mains power)."""
        return self._remaining

    @property
    def drained(self) -> bool:
        """True once the reservoir is empty."""
        return self._remaining <= 0.0

    def discharge(self, joules: float) -> float:
        """Draw ``joules``; returns how much was actually available.

        Draining past empty clamps at zero — the radio dies at the exact
        instant the reservoir hits the floor, not after.
        """
        if joules < 0:
            raise ValueError(f"cannot discharge a negative amount: {joules=}")
        if self.infinite:
            return joules
        drawn = min(joules, self._remaining)
        self._remaining -= drawn
        return drawn

    def recharge(self) -> None:
        """Refill to capacity (used at measurement-window start)."""
        self._remaining = (math.inf if self.capacity_j is None
                           else float(self.capacity_j))

    def time_to_empty_s(self, draw_w: float) -> float:
        """Seconds until empty at a constant ``draw_w`` watts (inf if the
        draw is zero or the battery is mains-backed)."""
        if draw_w < 0:
            raise ValueError(f"draw must be >= 0: {draw_w=}")
        if self.infinite or draw_w == 0.0:
            return math.inf
        return self._remaining / draw_w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.infinite:
            return "<Battery mains>"
        return (f"<Battery {self._remaining:.1f}/"
                f"{self.capacity_j:.1f} J>")
