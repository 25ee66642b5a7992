"""Shadow evaluation: serve a candidate policy without applying it.

During a canary the fleet serves the candidate for real on the canary slice
only; the :class:`ShadowEvaluator` additionally serves the candidate on the
*rest* of the fleet every tick — same observations, actions computed but never
applied — and compares them with the incumbent actions that were applied.

Three per-tick signals come out of the comparison, each windowed in a ring
buffer:

* **disagreement** — fraction of shadowed rows where the candidate chose a
  different (heating, cooling) pair than the incumbent;
* **energy-proxy delta** — mean difference of the reward model's energy
  proxy (setpoint distance from the off pair, the Eq. 2 term) between
  candidate and incumbent actions: positive means the candidate conditions
  harder;
* **comfort-risk delta** — mean difference of the *setpoint comfort risk*
  (how far the commanded band sits outside the comfort band,
  ``max(lower − h, 0) + max(c − upper, 0)``): positive means the candidate
  leaves the zone less protected.

The deltas are first-order counterfactuals: they compare what the two
policies *command* on identical states, without running a second simulation.
That is exactly the quantity a rollout gate can act on in real time — the
full counterfactual trajectory is unknowable without forking the fleet.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.env.reward import setpoint_energy_proxies


class ShadowEvaluator:
    """Windowed incumbent-vs-candidate comparison on identical observations."""

    def __init__(
        self,
        comfort_lower: float,
        comfort_upper: float,
        off_heating: float,
        off_cooling: float,
        window: int = 16,
        max_disagreement: float = 0.35,
        max_energy_delta: float = 1.0,
        max_comfort_delta: float = 0.25,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        self.comfort_lower = float(comfort_lower)
        self.comfort_upper = float(comfort_upper)
        self.off_heating = float(off_heating)
        self.off_cooling = float(off_cooling)
        self.window = int(window)
        self.max_disagreement = float(max_disagreement)
        self.max_energy_delta = float(max_energy_delta)
        self.max_comfort_delta = float(max_comfort_delta)
        #: Ticks observed (ring cursor = ``observed % window``).
        self.observed = 0
        #: Total shadowed row-decisions compared.
        self.rows_compared = 0
        self._ring_disagreement = np.zeros(self.window)
        self._ring_energy_delta = np.zeros(self.window)
        self._ring_comfort_delta = np.zeros(self.window)
        self._ring_rows = np.zeros(self.window)

    # -------------------------------------------------------------- helpers
    def _energy_proxy(self, pairs: np.ndarray) -> np.ndarray:
        """Eq. 2's energy proxy of commanded ``(N, 2)`` setpoint pairs."""
        return setpoint_energy_proxies(
            pairs[:, 0], pairs[:, 1], (self.off_heating, self.off_cooling)
        )

    def _comfort_risk(self, pairs: np.ndarray) -> np.ndarray:
        """Exposure the commanded band leaves outside the comfort band."""
        return np.maximum(self.comfort_lower - pairs[:, 0], 0.0) + np.maximum(
            pairs[:, 1] - self.comfort_upper, 0.0
        )

    # ------------------------------------------------------------- observing
    def observe(self, applied_pairs: np.ndarray, candidate_pairs: np.ndarray) -> None:
        """Fold one tick of shadowed decisions into the windows.

        ``applied_pairs`` are the incumbent actions that were really applied
        on the shadowed rows, ``candidate_pairs`` the candidate's actions on
        the same observations; both ``(N, 2)`` int arrays in the same row
        order.  An empty tick (``N == 0``) still advances the window.
        """
        applied = np.asarray(applied_pairs, dtype=float)
        candidate = np.asarray(candidate_pairs, dtype=float)
        if applied.shape != candidate.shape:
            raise ValueError(
                f"applied {applied.shape} and candidate {candidate.shape} pairs "
                "must have identical shapes"
            )
        cursor = self.observed % self.window
        rows = len(applied)
        if rows:
            mismatch = np.any(applied != candidate, axis=1)
            self._ring_disagreement[cursor] = float(np.mean(mismatch))
            self._ring_energy_delta[cursor] = float(
                np.mean(self._energy_proxy(candidate) - self._energy_proxy(applied))
            )
            self._ring_comfort_delta[cursor] = float(
                np.mean(self._comfort_risk(candidate) - self._comfort_risk(applied))
            )
        else:
            self._ring_disagreement[cursor] = 0.0
            self._ring_energy_delta[cursor] = 0.0
            self._ring_comfort_delta[cursor] = 0.0
        self._ring_rows[cursor] = rows
        self.observed += 1
        self.rows_compared += rows

    # ------------------------------------------------------------- reporting
    def _window_filled(self) -> int:
        return min(self.observed, self.window)

    def _windowed(self, ring: np.ndarray) -> float:
        """Row-weighted mean of a ring over the filled part of the window."""
        filled = self._window_filled()
        if filled == 0:
            return 0.0
        weights = self._ring_rows[:filled]
        total = float(np.sum(weights))
        if total == 0.0:
            return 0.0
        return float(np.sum(ring[:filled] * weights) / total)

    @property
    def disagreement(self) -> float:
        """Windowed fraction of shadowed rows where the policies disagreed."""
        return self._windowed(self._ring_disagreement)

    @property
    def energy_delta(self) -> float:
        """Windowed mean candidate-minus-incumbent energy-proxy delta."""
        return self._windowed(self._ring_energy_delta)

    @property
    def comfort_delta(self) -> float:
        """Windowed mean candidate-minus-incumbent comfort-risk delta."""
        return self._windowed(self._ring_comfort_delta)

    def healthy(self) -> bool:
        """Whether every windowed signal is inside its promotion gate."""
        return (
            self.disagreement <= self.max_disagreement
            and self.energy_delta <= self.max_energy_delta
            and self.comfort_delta <= self.max_comfort_delta
        )

    def report(self) -> Dict[str, Any]:
        """JSON-friendly summary of the current windows and gate state."""
        return {
            "observed_ticks": self.observed,
            "rows_compared": self.rows_compared,
            "disagreement": self.disagreement,
            "energy_delta": self.energy_delta,
            "comfort_delta": self.comfort_delta,
            "max_disagreement": self.max_disagreement,
            "max_energy_delta": self.max_energy_delta,
            "max_comfort_delta": self.max_comfort_delta,
            "healthy": self.healthy(),
        }
