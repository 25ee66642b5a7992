"""Model Predictive Path Integral (MPPI) optimiser.

The paper mentions MPPI as the other stochastic optimiser used by MBRL HVAC
controllers (its reference [1] uses it).  It is included both for completeness
and for the optimiser ablation benchmark: MPPI perturbs a nominal setpoint
sequence with Gaussian noise, weights the sampled sequences by the exponential
of their returns and updates the nominal sequence towards the weighted mean.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.agents.mbrl import MBRLAgent
from repro.agents.random_shooting import OptimizationResult, RandomShootingOptimizer
from repro.agents.registry import register_agent
from repro.env.reward import compute_rewards
from repro.env.spaces import SetpointSpace
from repro.utils.config import ActionSpaceConfig, RewardConfig
from repro.utils.rng import RNGLike, ensure_rng


class MPPIOptimizer:
    """MPPI planner over continuous setpoints, projected to the discrete space."""

    def __init__(
        self,
        dynamics_model,
        action_space: SetpointSpace,
        reward_config: RewardConfig,
        action_config: Optional[ActionSpaceConfig] = None,
        num_samples: int = 200,
        horizon: int = 20,
        num_iterations: int = 3,
        temperature: float = 1.0,
        noise_std: float = 2.0,
        discount: float = 0.99,
        seed: RNGLike = None,
    ):
        if num_samples <= 0 or horizon <= 0 or num_iterations <= 0:
            raise ValueError("num_samples, horizon and num_iterations must be positive")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.dynamics_model = dynamics_model
        self.action_space = action_space
        self.reward_config = reward_config
        self.action_config = action_config or action_space.config
        self.num_samples = num_samples
        self.horizon = horizon
        self.num_iterations = num_iterations
        self.temperature = temperature
        self.noise_std = noise_std
        self.discount = discount
        self._rng = ensure_rng(seed)

    def plan(
        self,
        state: float,
        disturbance_forecast: np.ndarray,
        occupied_forecast: Sequence[bool],
        rng: RNGLike = None,
    ) -> OptimizationResult:
        """Run MPPI from ``state`` and return the best first action."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        disturbance_forecast = np.atleast_2d(np.asarray(disturbance_forecast, dtype=float))
        horizon = min(self.horizon, len(disturbance_forecast))
        occupied = list(occupied_forecast)
        if len(occupied) < horizon:
            raise ValueError("occupied_forecast must cover the planning horizon")
        cfg = self.action_config
        comfort = self.reward_config.comfort
        band, off = (comfort.lower, comfort.upper), cfg.off_setpoints()

        # Nominal sequence: hold the comfort midpoint for heating, max cooling.
        nominal_heating = np.full(horizon, self.reward_config.comfort.midpoint, dtype=np.float64)
        nominal_cooling = np.full(horizon, float(cfg.cooling_max), dtype=np.float64)

        for _iteration in range(self.num_iterations):
            noise_h = generator.normal(0.0, self.noise_std, size=(self.num_samples, horizon))
            noise_c = generator.normal(0.0, self.noise_std, size=(self.num_samples, horizon))
            heating = np.clip(nominal_heating + noise_h, cfg.heating_min, cfg.heating_max)
            cooling = np.clip(nominal_cooling + noise_c, cfg.cooling_min, cfg.cooling_max)
            cooling = np.maximum(cooling, heating)

            states = np.full(self.num_samples, float(state), dtype=np.float64)
            returns = np.zeros(self.num_samples, dtype=np.float64)
            for t in range(horizon):
                actions = np.column_stack([heating[:, t], cooling[:, t]])
                disturbances = np.repeat(
                    disturbance_forecast[t].reshape(1, -1), self.num_samples, axis=0
                )
                next_states = self._predict(states, disturbances, actions)
                rewards, _, _ = compute_rewards(
                    next_states, heating[:, t], cooling[:, t],
                    self.reward_config.energy_weight(occupied[t]), band, off,
                )
                returns += (self.discount**t) * rewards
                states = next_states

            weights = np.exp((returns - returns.max()) / self.temperature)
            weights /= weights.sum()
            nominal_heating = weights @ heating
            nominal_cooling = np.maximum(weights @ cooling, nominal_heating)

        best_pair = cfg.clip(nominal_heating[0], nominal_cooling[0])
        best_index = self.action_space.to_index(*best_pair)
        best_sequence = np.array(
            [
                self.action_space.to_index(*cfg.clip(h, c))
                for h, c in zip(nominal_heating, nominal_cooling)
            ],
            dtype=np.int64,
        )
        return OptimizationResult(
            best_action_index=best_index,
            best_sequence=best_sequence,
            best_return=float(returns.max()),
            best_setpoints=tuple(int(v) for v in best_pair),
        )

    # Same mean-prediction adapter (ensembles return (mean, std)) as RS.
    _predict = RandomShootingOptimizer._predict


@register_agent("mppi")
class MPPIAgent(MBRLAgent):
    """MBRL agent whose stochastic optimiser is MPPI instead of random shooting.

    Included for the paper's optimiser ablation: same learned dynamics model
    and reward, different planner.
    """

    name = "MPPI"

    def __init__(
        self,
        dynamics_model,
        reward_config: Optional[RewardConfig] = None,
        num_samples: int = 200,
        horizon: int = 20,
        num_iterations: int = 3,
        temperature: float = 1.0,
        noise_std: float = 2.0,
        discount: float = 0.99,
        seed: RNGLike = None,
    ):
        super().__init__(
            dynamics_model=dynamics_model,
            reward_config=reward_config,
            num_samples=num_samples,
            horizon=horizon,
            discount=discount,
            seed=seed,
        )
        self.num_iterations = num_iterations
        self.temperature = temperature
        self.noise_std = noise_std

    def _ensure_optimizer(self, environment) -> MPPIOptimizer:
        if self._optimizer is None:
            self._optimizer = MPPIOptimizer(
                dynamics_model=self.dynamics_model,
                action_space=environment.action_space,
                reward_config=self.reward_config,
                action_config=environment.config.actions,
                num_samples=self.num_samples,
                horizon=self.horizon,
                num_iterations=self.num_iterations,
                temperature=self.temperature,
                noise_std=self.noise_std,
                discount=self.discount,
                seed=self._rng,
            )
        return self._optimizer
