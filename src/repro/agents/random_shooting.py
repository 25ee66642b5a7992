"""The Random Shooting (RS) stochastic optimiser.

RS is the stochastic optimiser used by the paper's MBRL baseline and by the
decision-dataset generator: it samples ``num_samples`` random action sequences
of length ``horizon``, rolls each sequence through the learned dynamics model
under the disturbance forecast, scores it with the discounted Eq. 2 reward and
executes the first action of the best sequence (Eq. 1 of the paper).

Because the candidate sequences are random, RS is itself a *stochastic policy*:
two calls on the same input can return different actions.  That stochasticity
is exactly the motivation experiment of the paper (Fig. 1), and the paper's
distillation step removes it by taking the most frequent action over repeated
RS runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.env.reward import compute_rewards
from repro.env.spaces import SetpointSpace
from repro.utils.config import ActionSpaceConfig, RewardConfig
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs


@dataclass
class OptimizationResult:
    """Outcome of one RS planning call."""

    best_action_index: int
    best_sequence: np.ndarray
    best_return: float
    best_setpoints: Optional[Tuple[int, int]] = None


@dataclass
class BatchPlanResult:
    """Outcome of one :meth:`RandomShootingOptimizer.plan_batch` call.

    Arrays are indexed by planning problem; ``result(i)`` materialises the
    ``i``-th problem as an :class:`OptimizationResult`.
    """

    best_action_indices: np.ndarray
    best_returns: np.ndarray
    best_sequences: np.ndarray
    best_setpoint_pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.best_action_indices)

    def result(self, index: int) -> OptimizationResult:
        return OptimizationResult(
            best_action_index=int(self.best_action_indices[index]),
            best_sequence=self.best_sequences[index].copy(),
            best_return=float(self.best_returns[index]),
            best_setpoints=tuple(int(v) for v in self.best_setpoint_pairs[index]),
        )


class RandomShootingOptimizer:
    """Random-shooting planner over the discrete setpoint space."""

    def __init__(
        self,
        dynamics_model,
        action_space: SetpointSpace,
        reward_config: RewardConfig,
        action_config: Optional[ActionSpaceConfig] = None,
        num_samples: int = 1000,
        horizon: int = 20,
        discount: float = 0.99,
        seed: RNGLike = None,
    ):
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (0.0 < discount <= 1.0):
            raise ValueError("discount must be in (0, 1]")
        self.dynamics_model = dynamics_model
        self.action_space = action_space
        self.reward_config = reward_config
        self.action_config = action_config or action_space.config
        self.num_samples = num_samples
        self.horizon = horizon
        self.discount = discount
        self._rng = ensure_rng(seed)
        # Pre-compute the (index -> setpoint pair) table as an array for fast lookup.
        self._pairs = np.array(action_space.pairs, dtype=float)

    def _rewards(self, next_states: np.ndarray, actions: np.ndarray, energy_weight) -> np.ndarray:
        """Eq. 2 (:func:`~repro.env.reward.compute_rewards`) of ``(rows, 2)`` setpoint actions."""
        comfort = self.reward_config.comfort
        band, off = (comfort.lower, comfort.upper), self.action_config.off_setpoints()
        heating, cooling = actions[:, 0], actions[:, 1]
        return compute_rewards(next_states, heating, cooling, energy_weight, band, off)[0]

    # ------------------------------------------------------------------- plan
    def plan(
        self,
        state: float,
        disturbance_forecast: np.ndarray,
        occupied_forecast: Sequence[bool],
        rng: RNGLike = None,
    ) -> OptimizationResult:
        """Run one random-shooting optimisation from ``state``.

        Parameters
        ----------
        state:
            Current controlled-zone temperature.
        disturbance_forecast:
            ``(H, 5)`` disturbances for the next ``H >= horizon`` steps.
        occupied_forecast:
            Occupied flags for the same steps (controls the reward weight).
        rng:
            Optional generator overriding the optimiser's own (used by the
            Monte-Carlo distillation, which needs independent repeated runs).
        """
        generator = ensure_rng(rng) if rng is not None else self._rng
        disturbance_forecast = np.atleast_2d(np.asarray(disturbance_forecast, dtype=float))
        horizon = min(self.horizon, len(disturbance_forecast))
        if horizon == 0:
            raise ValueError("disturbance_forecast must cover at least one step")
        occupied = list(occupied_forecast)
        if len(occupied) < horizon:
            raise ValueError("occupied_forecast must cover the planning horizon")

        sequences = generator.integers(0, self.action_space.n, size=(self.num_samples, horizon))
        states = np.full(self.num_samples, float(state), dtype=np.float64)
        returns = np.zeros(self.num_samples, dtype=np.float64)

        for t in range(horizon):
            actions = self._pairs[sequences[:, t]]
            # A read-only broadcast view: no (num_samples, 5) copy per step.
            disturbances = np.broadcast_to(
                disturbance_forecast[t], (self.num_samples, disturbance_forecast.shape[1])
            )
            next_states = self._predict(states, disturbances, actions)
            returns += (self.discount**t) * self._rewards(
                next_states, actions, self.reward_config.energy_weight(occupied[t])
            )
            states = next_states

        best = int(np.argmax(returns))
        best_index = int(sequences[best, 0])
        return OptimizationResult(
            best_action_index=best_index,
            best_sequence=sequences[best].copy(),
            best_return=float(returns[best]),
            best_setpoints=tuple(int(v) for v in self._pairs[best_index]),
        )

    # -------------------------------------------------------------- plan_batch
    def plan_batch(
        self,
        states: np.ndarray,
        disturbance_forecasts: np.ndarray,
        occupied_forecasts: np.ndarray,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> BatchPlanResult:
        """Solve ``N`` independent planning problems with flat array ops.

        All ``N × num_samples`` candidate action sequences are rolled through
        the dynamics model together: at each horizon step one
        ``(N * num_samples,)`` model call replaces ``N`` separate
        ``(num_samples,)`` calls.  Each problem draws its candidate sequences
        from its own generator with exactly the calls :meth:`plan` would make,
        so given the same generators the batched results are bit-identical to
        ``N`` serial ``plan()`` calls (the per-row model arithmetic is
        independent of the batch size).

        Parameters
        ----------
        states:
            ``(N,)`` current controlled-zone temperatures, one per problem.
        disturbance_forecasts:
            ``(N, H, 5)`` per-problem forecasts, or ``(H, 5)`` shared by all.
        occupied_forecasts:
            ``(N, H)`` (or ``(H,)`` shared) occupied flags.
        rngs:
            One generator per problem; spawned from the optimiser's own
            generator when omitted.
        """
        states = np.atleast_1d(np.asarray(states, dtype=float))
        n_problems = len(states)
        forecasts = np.asarray(disturbance_forecasts, dtype=float)
        if forecasts.ndim == 2:
            forecasts = np.broadcast_to(forecasts, (n_problems,) + forecasts.shape)
        if forecasts.ndim != 3 or forecasts.shape[0] != n_problems:
            raise ValueError("disturbance_forecasts must have shape (N, H, 5) or (H, 5)")
        occupied = np.asarray(occupied_forecasts, dtype=bool)
        if occupied.ndim == 1:
            occupied = np.broadcast_to(occupied, (n_problems, occupied.shape[0]))
        horizon = min(self.horizon, forecasts.shape[1])
        if horizon == 0:
            raise ValueError("disturbance_forecasts must cover at least one step")
        if occupied.shape[1] < horizon:
            raise ValueError("occupied_forecasts must cover the planning horizon")
        if rngs is None:
            rngs = spawn_rngs(self._rng, n_problems)
        if len(rngs) != n_problems:
            raise ValueError(f"Expected {n_problems} generators, got {len(rngs)}")

        num_samples = self.num_samples
        sequences = np.empty((n_problems, num_samples, horizon), dtype=np.int64)
        for i, generator in enumerate(rngs):
            # The exact draw plan() makes, one problem at a time.
            sequences[i] = generator.integers(
                0, self.action_space.n, size=(num_samples, horizon)
            )
        flat_sequences = sequences.reshape(n_problems * num_samples, horizon)
        flat_states = np.repeat(states, num_samples)
        returns = np.zeros(n_problems * num_samples, dtype=np.float64)

        # Persistence forecasts (every step identical per problem) are a
        # broadcast view with a zero stride along the horizon axis — hoist
        # the per-step disturbance/occupancy gather out of the loop for them.
        persistent = forecasts.strides[1] == 0 and occupied.strides[1] == 0
        if persistent:
            shared_disturbances = np.repeat(forecasts[:, 0, :], num_samples, axis=0)
            shared_occupied = np.repeat(occupied[:, 0], num_samples)

        for t in range(horizon):
            actions = self._pairs[flat_sequences[:, t]]
            if persistent:
                disturbances = shared_disturbances
                occupied_t = shared_occupied
            else:
                disturbances = np.repeat(forecasts[:, t, :], num_samples, axis=0)
                occupied_t = np.repeat(occupied[:, t], num_samples)
            next_states = self._predict(flat_states, disturbances, actions)
            weights = self.reward_config.energy_weights(occupied_t)
            returns += (self.discount**t) * self._rewards(next_states, actions, weights)
            flat_states = next_states

        per_problem = returns.reshape(n_problems, num_samples)
        best = np.argmax(per_problem, axis=1)  # first max, matching plan()
        rows = np.arange(n_problems)
        best_sequences = sequences[rows, best]
        best_indices = best_sequences[:, 0]
        return BatchPlanResult(
            best_action_indices=best_indices.copy(),
            best_returns=per_problem[rows, best],
            best_sequences=best_sequences.copy(),
            best_setpoint_pairs=self._pairs[best_indices].astype(int),
        )

    def _predict(
        self, states: np.ndarray, disturbances: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """Predict next states; ensemble models return (mean, std) tuples."""
        prediction = self.dynamics_model.predict(states, disturbances, actions)
        if isinstance(prediction, tuple):
            return prediction[0]
        return prediction
