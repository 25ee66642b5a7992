"""Online drift detection: served tree actions vs the MPC teacher.

A distilled tree is only as good as its agreement with the teacher that
labelled it.  The :class:`DriftDetector` re-asks the teacher online: every
tick it samples a handful of the states the fleet actually visited, labels
them with a teacher, and compares the label with the action the serving stack
returned for that row.  Disagreement is windowed *per served policy version*,
and the alarm is **baseline-relative**: a version alarms when its windowed
disagreement exceeds the incumbent's by more than ``threshold``.  That makes
the alarm robust to the teacher's own imperfection — an imperfect teacher
disagrees with the incumbent and the candidate alike, and only the *excess*
is evidence of drift.

Two teachers are provided:

* :class:`MPCTeacher` — the real thing: the paper's
  :class:`~repro.agents.random_shooting.RandomShootingOptimizer` under the
  Monte-Carlo vote; it calls the distillation vote
  (:meth:`~repro.core.decision_dataset.DecisionDatasetGenerator.distill_decisions`),
  with persistence forecasts built from the sampled observation itself.
* :class:`TreePolicyTeacher` — a frozen reference tree (typically the
  verified incumbent artifact); cheap and fully deterministic, used by the
  smoke/CI paths where training a dynamics model per run would dominate.

Both label deterministically for a fixed seed and call order, which is what
keeps the whole closed loop bit-reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.agents.random_shooting import RandomShootingOptimizer
from repro.core.decision_dataset import DecisionDatasetGenerator
from repro.core.tree_policy import TreePolicy
from repro.utils.rng import RNGLike, ensure_rng


class TreePolicyTeacher:
    """A frozen reference tree as the drift oracle (deterministic, cheap)."""

    def __init__(self, policy: TreePolicy):
        self._compiled = policy.compiled()
        self._pairs = np.asarray(policy.action_pairs, dtype=np.int64)

    def label_pairs(self, inputs: np.ndarray) -> np.ndarray:
        """Reference ``(N, 2)`` setpoint pairs for ``(N, F)`` observations."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        return self._pairs[self._compiled.predict_batch(inputs)]


class MPCTeacher:
    """The random-shooting MPC teacher under the distillation-time MC vote.

    Calls the distillation vote,
    :meth:`~repro.core.decision_dataset.DecisionDatasetGenerator.distill_decisions`:
    each sampled observation becomes ``monte_carlo_runs`` planning problems
    with a persistence forecast (the observed disturbance held over the
    horizon), solved in one
    :meth:`~repro.agents.random_shooting.RandomShootingOptimizer.plan_batch`
    call, and the vote over runs is the label.  The vote is what makes a
    stochastic optimizer usable as an online oracle: label noise that would
    swamp a single-shot comparison mostly cancels in the vote, and whatever
    residual noise remains hits incumbent and candidate symmetrically — which
    the detector's baseline-relative alarm then subtracts out.
    """

    def __init__(
        self,
        optimizer: RandomShootingOptimizer,
        action_pairs: Sequence[Tuple[int, int]],
        monte_carlo_runs: int = 3,
        planning_horizon: int = 5,
        occupancy_threshold: float = 0.5,
        seed: RNGLike = 0,
    ):
        self.optimizer = optimizer
        self._vote = DecisionDatasetGenerator(
            optimizer,
            None,
            action_pairs,
            monte_carlo_runs=monte_carlo_runs,
            planning_horizon=planning_horizon,
            occupancy_threshold=occupancy_threshold,
        )
        self._pairs = np.asarray(self._vote.action_pairs, dtype=np.int64)
        self._rng = ensure_rng(seed)

    def label_pairs(self, inputs: np.ndarray) -> np.ndarray:
        """Teacher ``(N, 2)`` setpoint pairs for ``(N, 6)`` observations."""
        return self._pairs[self._vote.distill_decisions(inputs, rng=self._rng)]


class _VersionWindow:
    """Ring buffers of one policy version's sampled disagreement."""

    __slots__ = ("mismatches", "rows", "ticks_seen", "first_alarm_tick")

    def __init__(self, window: int):
        self.mismatches = np.zeros(window)
        self.rows = np.zeros(window)
        self.ticks_seen = 0
        self.first_alarm_tick: Optional[int] = None


class DriftDetector:
    """Windowed per-version teacher-disagreement with a baseline-relative alarm."""

    def __init__(
        self,
        teacher,
        sample_size: int = 32,
        window: int = 16,
        threshold: float = 0.25,
        min_ticks: int = 8,
        baseline_policy_id: Optional[str] = None,
        seed: RNGLike = 0,
    ):
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        if min_ticks <= 0:
            raise ValueError("min_ticks must be positive")
        self.teacher = teacher
        self.sample_size = int(sample_size)
        self.window = int(window)
        self.threshold = float(threshold)
        self.min_ticks = int(min_ticks)
        self.baseline_policy_id = baseline_policy_id
        self._rng = ensure_rng(seed)
        self._versions: Dict[str, _VersionWindow] = {}
        #: Ticks folded in so far (the ring cursor).
        self.observed = 0
        #: Total sampled rows labelled by the teacher.
        self.rows_sampled = 0

    # -------------------------------------------------------------- sampling
    def sample_rows(self, total_rows: int) -> np.ndarray:
        """Deterministically sample which fleet rows to audit this tick."""
        if total_rows <= 0:
            raise ValueError("total_rows must be positive")
        count = min(self.sample_size, total_rows)
        return np.sort(self._rng.choice(total_rows, size=count, replace=False))

    # ------------------------------------------------------------- observing
    def observe(
        self,
        tick: int,
        policy_ids: np.ndarray,
        served_pairs: np.ndarray,
        inputs: np.ndarray,
    ) -> None:
        """Label the sampled rows with the teacher and fold in the mismatches.

        ``policy_ids`` names the policy version that *actually served* each
        sampled row (candidate on canary rows, incumbent elsewhere), so the
        mismatch statistics attribute each disagreement to the version that
        produced it.
        """
        policy_ids = np.asarray(policy_ids)
        served = np.asarray(served_pairs, dtype=np.int64)
        teacher_pairs = np.asarray(self.teacher.label_pairs(inputs), dtype=np.int64)
        if served.shape != teacher_pairs.shape:
            raise ValueError(
                f"served pairs {served.shape} and teacher pairs "
                f"{teacher_pairs.shape} must have identical shapes"
            )
        mismatch = np.any(served != teacher_pairs, axis=1)
        cursor = self.observed % self.window
        # Versions absent from this tick's sample advance with zero weight so
        # their window keeps sliding.
        for state in self._versions.values():
            state.mismatches[cursor] = 0.0
            state.rows[cursor] = 0.0
        unique, codes = np.unique(policy_ids, return_inverse=True)
        for slot in range(len(unique)):  # policy *versions* (2-3), not rows
            version = str(unique[slot])
            state = self._versions.get(version)
            if state is None:
                state = _VersionWindow(self.window)
                self._versions[version] = state
            mask = codes == slot
            state.mismatches[cursor] = float(np.sum(mismatch[mask]))
            state.rows[cursor] = float(np.sum(mask))
            state.ticks_seen += 1
        self.observed += 1
        self.rows_sampled += len(served)
        # Latch first-alarm ticks for alarm-latency reporting.
        for version in self._versions:
            if version == self.baseline_policy_id:
                continue
            state = self._versions[version]
            if state.first_alarm_tick is None and self._is_alarmed(version):
                state.first_alarm_tick = tick

    # ------------------------------------------------------------- reporting
    def disagreement(self, policy_id: str) -> float:
        """Windowed teacher-disagreement rate of one served version."""
        state = self._versions.get(str(policy_id))
        if state is None:
            return 0.0
        total = float(np.sum(state.rows))
        if total == 0.0:
            return 0.0
        return float(np.sum(state.mismatches) / total)

    def excess(self, policy_id: str) -> float:
        """Disagreement of a version over the baseline (0 with no baseline)."""
        base = (
            self.disagreement(self.baseline_policy_id)
            if self.baseline_policy_id is not None
            else 0.0
        )
        return self.disagreement(policy_id) - base

    def _is_alarmed(self, policy_id: str) -> bool:
        state = self._versions.get(str(policy_id))
        if state is None or state.ticks_seen < self.min_ticks:
            return False
        return self.excess(policy_id) > self.threshold

    def alarms(self) -> Dict[str, float]:
        """Every alarmed version (excluding the baseline) with its excess."""
        return {
            version: self.excess(version)
            for version in self._versions
            if version != self.baseline_policy_id and self._is_alarmed(version)
        }

    def first_alarm_tick(self, policy_id: str) -> Optional[int]:
        """The tick a version first alarmed (None if it never did)."""
        state = self._versions.get(str(policy_id))
        return state.first_alarm_tick if state is not None else None

    def report(self) -> Dict[str, Any]:
        """JSON-friendly summary of every tracked version."""
        return {
            "observed_ticks": self.observed,
            "rows_sampled": self.rows_sampled,
            "threshold": self.threshold,
            "baseline_policy_id": self.baseline_policy_id,
            "versions": {
                version: {
                    "disagreement": self.disagreement(version),
                    "excess": self.excess(version),
                    "alarmed": self._is_alarmed(version),
                    "first_alarm_tick": state.first_alarm_tick,
                }
                for version, state in self._versions.items()
            },
        }
