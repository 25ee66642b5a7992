"""The unified experiment subsystem.

Three layers turn the library into a runnable system:

* :mod:`repro.experiments.scenarios` — declarative climate × building × season
  scenario grid (:class:`ScenarioSpec`),
* :mod:`repro.experiments.runner` — the registry-driven
  :class:`ExperimentRunner` rolling any registered agent over multi-episode
  batches with per-episode seeds,
* :mod:`repro.experiments.cli` — the ``python -m repro`` command line, with
  the setup it shares with the ``repro bench`` targets in
  :mod:`repro.experiments.drivers`.
"""

from repro.experiments.scenarios import (
    BUILDINGS,
    SEASONS,
    BuildingSpec,
    ScenarioSpec,
    SeasonSpec,
    available_scenarios,
    get_scenario,
    scenario_grid,
)
from repro.experiments.runner import (
    EpisodeResult,
    ExperimentResult,
    ExperimentRunner,
    run_episode,
)

__all__ = [
    "BUILDINGS",
    "SEASONS",
    "BuildingSpec",
    "ScenarioSpec",
    "SeasonSpec",
    "available_scenarios",
    "get_scenario",
    "scenario_grid",
    "EpisodeResult",
    "ExperimentResult",
    "ExperimentRunner",
    "run_episode",
]
