"""The reward function of the paper (Eq. 2).

    r(s_t) = - w_e * E_t - (1 - w_e) * (|s_t - z_upper|_+ + |s_t - z_lower|_+)

where ``E_t`` is the setpoint-based energy proxy (the L1 distance between the
selected setpoints and the setpoints at which the HVAC is effectively off) and
``w_e`` is 1e-2 during occupied periods and 1.0 during unoccupied periods.

:func:`compute_rewards` is the one vectorised form, shared by the batched
environment and the planners; it equals :func:`compute_reward` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.utils.config import ActionSpaceConfig, ComfortConfig, RewardConfig


@dataclass(frozen=True)
class RewardBreakdown:
    """The reward together with its energy and comfort components."""

    reward: float
    energy_term: float
    comfort_term: float
    energy_proxy: float
    comfort_violation: float
    energy_weight: float


def setpoint_energy_proxy(
    heating_setpoint: float, cooling_setpoint: float, actions: ActionSpaceConfig
) -> float:
    """The paper's energy estimate: L1 distance from the "HVAC off" setpoints."""
    off_heating, off_cooling = actions.off_setpoints()
    return abs(heating_setpoint - off_heating) + abs(cooling_setpoint - off_cooling)


def comfort_violation_amount(zone_temperature: float, comfort: ComfortConfig) -> float:
    """``|s - z_upper|_+ + |s - z_lower|_+`` from Eq. 2."""
    above = max(zone_temperature - comfort.upper, 0.0)
    below = max(comfort.lower - zone_temperature, 0.0)
    return above + below


def compute_reward(
    zone_temperature: float,
    heating_setpoint: float,
    cooling_setpoint: float,
    occupied: bool,
    reward_config: RewardConfig,
    actions: ActionSpaceConfig,
) -> RewardBreakdown:
    """Evaluate Eq. 2 for one timestep."""
    w_e = reward_config.energy_weight(occupied)
    energy_proxy = setpoint_energy_proxy(heating_setpoint, cooling_setpoint, actions)
    violation = comfort_violation_amount(zone_temperature, reward_config.comfort)
    energy_term = -w_e * energy_proxy
    comfort_term = -(1.0 - w_e) * violation
    return RewardBreakdown(
        reward=energy_term + comfort_term,
        energy_term=energy_term,
        comfort_term=comfort_term,
        energy_proxy=energy_proxy,
        comfort_violation=violation,
        energy_weight=w_e,
    )


#: A scalar or a per-row array.
_Values = Union[float, np.ndarray]


def setpoint_energy_proxies(
    heating: _Values, cooling: _Values, off_setpoints: Tuple[_Values, _Values]
) -> np.ndarray:
    """Vectorised :func:`setpoint_energy_proxy` against ``(off_heating, off_cooling)``."""
    off_heating, off_cooling = off_setpoints
    return np.abs(heating - off_heating) + np.abs(cooling - off_cooling)


def compute_rewards(
    zone_temperature: np.ndarray,
    heating: _Values,
    cooling: _Values,
    energy_weight: _Values,
    comfort_band: Tuple[_Values, _Values],
    off_setpoints: Tuple[_Values, _Values],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`compute_reward`: ``(reward, energy_proxy, comfort_violation)``.

    ``comfort_band`` is ``(lower, upper)`` and ``energy_weight`` the per-row
    ``w_e`` (see :meth:`~repro.utils.config.RewardConfig.energy_weights`);
    every parameter may be a scalar or a per-row array.
    """
    lower, upper = comfort_band
    energy_proxy = setpoint_energy_proxies(heating, cooling, off_setpoints)
    violation = np.maximum(zone_temperature - upper, 0.0) + np.maximum(
        lower - zone_temperature, 0.0
    )
    reward = -energy_weight * energy_proxy - (1.0 - energy_weight) * violation
    return reward, energy_proxy, violation
