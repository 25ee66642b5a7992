"""Configuration dataclasses shared across the library.

The values mirror the experimental setup of the paper (Section 4.1):

* 15-minute control timestep,
* January simulation period,
* heating setpoints that are integers in ``[15, 23] °C`` and cooling setpoints
  in ``[21, 30] °C``,
* comfort ranges ``[20, 23.5] °C`` (winter) and ``[23, 26] °C`` (summer),
* reward weight ``w_e = 1e-2`` when occupied and ``1.0`` when unoccupied.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, List, Tuple

MINUTES_PER_STEP = 15
STEPS_PER_HOUR = 60 // MINUTES_PER_STEP
STEPS_PER_DAY = 24 * STEPS_PER_HOUR


@dataclass(frozen=True)
class ComfortConfig:
    """Comfort (safety) range for the controlled zone temperature."""

    lower: float = 20.0
    upper: float = 23.5

    def __post_init__(self) -> None:
        if self.lower >= self.upper:
            raise ValueError(
                f"Comfort lower bound {self.lower} must be below upper bound {self.upper}"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, temperature: float) -> bool:
        return self.lower <= temperature <= self.upper

    def violation(self, temperature: float) -> float:
        """Distance outside the comfort range (0 when inside)."""
        if temperature > self.upper:
            return temperature - self.upper
        if temperature < self.lower:
            return self.lower - temperature
        return 0.0

    @staticmethod
    def winter() -> "ComfortConfig":
        return ComfortConfig(20.0, 23.5)

    @staticmethod
    def summer() -> "ComfortConfig":
        return ComfortConfig(23.0, 26.0)

    @staticmethod
    def for_season(season: str) -> "ComfortConfig":
        """The paper's seasonal comfort range, looked up by name."""
        return get_season(season).comfort


@dataclass(frozen=True)
class SeasonConfig:
    """Simulation window and comfort band for one season.

    The single source of the winter/summer constants used by
    :mod:`repro.core.pipeline`, :mod:`repro.experiments.scenarios` and
    :func:`repro.env.hvac_env.make_environment`.
    """

    name: str
    start_month: int
    start_day_of_year: int
    comfort: ComfortConfig


SEASONS: Dict[str, SeasonConfig] = {
    "winter": SeasonConfig("winter", start_month=1, start_day_of_year=0, comfort=ComfortConfig(20.0, 23.5)),
    "summer": SeasonConfig("summer", start_month=7, start_day_of_year=181, comfort=ComfortConfig(23.0, 26.0)),
}


def get_season(name: str) -> SeasonConfig:
    """Look up a season by name."""
    if name not in SEASONS:
        raise ValueError(
            f"Unknown season {name!r}. Available seasons: {', '.join(sorted(SEASONS))}"
        )
    return SEASONS[name]


@dataclass(frozen=True)
class ActionSpaceConfig:
    """Discrete setpoint action space used by all agents.

    The action is a pair ``(heating_setpoint, cooling_setpoint)``.  Setpoints
    are integers, matching the experimental platform of the paper.
    """

    heating_min: int = 15
    heating_max: int = 23
    cooling_min: int = 21
    cooling_max: int = 30

    def __post_init__(self) -> None:
        if self.heating_min > self.heating_max:
            raise ValueError("heating_min must not exceed heating_max")
        if self.cooling_min > self.cooling_max:
            raise ValueError("cooling_min must not exceed cooling_max")

    @property
    def heating_setpoints(self) -> List[int]:
        return list(range(self.heating_min, self.heating_max + 1))

    @property
    def cooling_setpoints(self) -> List[int]:
        return list(range(self.cooling_min, self.cooling_max + 1))

    @property
    def num_heating(self) -> int:
        return self.heating_max - self.heating_min + 1

    @property
    def num_cooling(self) -> int:
        return self.cooling_max - self.cooling_min + 1

    def joint_actions(self) -> List[Tuple[int, int]]:
        """All (heating, cooling) pairs with heating <= cooling."""
        actions = []
        for h in self.heating_setpoints:
            for c in self.cooling_setpoints:
                if h <= c:
                    actions.append((h, c))
        return actions

    def clip(self, heating: float, cooling: float) -> Tuple[int, int]:
        """Round and clip an arbitrary pair of setpoints into the valid space."""
        h = int(round(heating))
        c = int(round(cooling))
        h = min(max(h, self.heating_min), self.heating_max)
        c = min(max(c, self.cooling_min), self.cooling_max)
        if h > c:
            c = max(h, self.cooling_min)
            c = min(c, self.cooling_max)
            h = min(h, c)
        return h, c

    def clip_batch(
        self, heating: "np.ndarray", cooling: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Vectorised :meth:`clip` (float results; non-finite input raises ``ValueError``)."""
        import numpy as np

        h = np.round(np.asarray(heating, dtype=float))
        c = np.round(np.asarray(cooling, dtype=float))
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise ValueError("Setpoints must be finite")
        h = np.minimum(np.maximum(h, self.heating_min), self.heating_max)
        c = np.minimum(np.maximum(c, self.cooling_min), self.cooling_max)
        bad = h > c
        c_fix = np.minimum(np.maximum(h, self.cooling_min), self.cooling_max)
        return np.where(bad, np.minimum(h, c_fix), h), np.where(bad, c_fix, c)

    def off_setpoints(self) -> Tuple[int, int]:
        """Setpoints corresponding to the HVAC being effectively off.

        The paper estimates energy as the L1 distance between the selected
        setpoint and the setpoint corresponding to the HVAC being turned off
        (lowest heating setpoint, highest cooling setpoint).
        """
        return self.heating_min, self.cooling_max


@dataclass(frozen=True)
class RewardConfig:
    """Parameters of the reward function (Eq. 2 of the paper)."""

    weight_energy_occupied: float = 1e-2
    weight_energy_unoccupied: float = 1.0
    comfort: ComfortConfig = field(default_factory=ComfortConfig.winter)

    def energy_weight(self, occupied: bool) -> float:
        return self.weight_energy_occupied if occupied else self.weight_energy_unoccupied

    def energy_weights(self, occupied) -> "np.ndarray":
        """Vectorised :meth:`energy_weight` over a boolean array."""
        import numpy as np

        return np.where(
            occupied, self.weight_energy_occupied, self.weight_energy_unoccupied
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Simulation period and resolution."""

    days: int = 31
    minutes_per_step: int = MINUTES_PER_STEP
    start_month: int = 1
    start_day_of_year: int = 0

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        if 60 % self.minutes_per_step != 0:
            raise ValueError("minutes_per_step must divide 60")

    @property
    def steps_per_hour(self) -> int:
        return 60 // self.minutes_per_step

    @property
    def steps_per_day(self) -> int:
        return 24 * self.steps_per_hour

    @property
    def total_steps(self) -> int:
        return self.days * self.steps_per_day

    @property
    def step_hours(self) -> float:
        return self.minutes_per_step / 60.0


@dataclass
class ExperimentConfig:
    """Top-level configuration bundling everything an experiment needs."""

    city: str = "pittsburgh"
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    actions: ActionSpaceConfig = field(default_factory=ActionSpaceConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    seed: int = 0

    def to_dict(self) -> Dict:
        return asdict(self)
