"""Gym-style HVAC control environment (Sinergym substitute).

The environment wraps the reduced-order building plant, a synthetic weather
trace and an occupancy schedule into the observation/action/reward interface
the paper's agents use:

* observation: the Table-1 vector ``[zone temperature, outdoor drybulb,
  outdoor relative humidity, wind speed, solar radiation, occupant count]``,
* action: a discrete (heating setpoint, cooling setpoint) pair,
* reward: Eq. 2 of the paper, with the occupancy-dependent energy weight.
"""

from repro.env.spaces import Box, Discrete, SetpointSpace
from repro.env.disturbances import (
    DISTURBANCES,
    DisturbanceSchedule,
    DisturbanceSpec,
    available_disturbances,
    get_disturbance,
)
from repro.env.reward import RewardBreakdown, compute_reward, setpoint_energy_proxy
from repro.env.hvac_env import HVACEnvironment, EnvironmentStep, make_environment
from repro.env.dataset import Transition, TransitionDataset, collect_historical_data
from repro.env.vector_env import BatchedEnvironmentStep, BatchedHVACEnvironment

__all__ = [
    "Box",
    "Discrete",
    "SetpointSpace",
    "DISTURBANCES",
    "DisturbanceSchedule",
    "DisturbanceSpec",
    "available_disturbances",
    "get_disturbance",
    "RewardBreakdown",
    "compute_reward",
    "setpoint_energy_proxy",
    "HVACEnvironment",
    "EnvironmentStep",
    "make_environment",
    "Transition",
    "TransitionDataset",
    "collect_historical_data",
    "BatchedEnvironmentStep",
    "BatchedHVACEnvironment",
]
