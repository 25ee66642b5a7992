"""Minimal observation/action space abstractions (Gym substitute).

Only the features the library needs are implemented: bounds checking, sampling
and, for the setpoint space, the mapping between discrete action indices and
(heating, cooling) setpoint pairs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.config import ActionSpaceConfig
from repro.utils.rng import RNGLike, ensure_rng

#: Code base of the vectorised pair lookup: setpoints are small integers, so
#: ``heating * _PAIR_CODE_BASE + cooling`` is collision-free.
_PAIR_CODE_BASE = 1024


class Box:
    """A bounded continuous space of fixed shape."""

    def __init__(self, low: Sequence[float], high: Sequence[float], names: Optional[Sequence[str]] = None):
        self.low = np.asarray(low, dtype=float)
        self.high = np.asarray(high, dtype=float)
        if self.low.shape != self.high.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(self.low > self.high):
            raise ValueError("low must be element-wise <= high")
        self.names = list(names) if names is not None else [f"x{i}" for i in range(self.low.size)]
        if len(self.names) != self.low.size:
            raise ValueError("names length must match dimensionality")

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of one point of the space."""
        return self.low.shape

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return int(self.low.size)

    def contains(self, x: Sequence[float]) -> bool:
        """Whether ``x`` has the space's shape and lies within its bounds."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != self.low.shape:
            return False
        return bool(np.all(arr >= self.low - 1e-9) and np.all(arr <= self.high + 1e-9))

    def clip(self, x: Sequence[float]) -> np.ndarray:
        """``x`` clipped element-wise into the bounds."""
        return np.clip(np.asarray(x, dtype=float), self.low, self.high)

    def sample(self, rng: RNGLike = None) -> np.ndarray:
        """A uniform random point of the space."""
        gen = ensure_rng(rng)
        return gen.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"Box(dim={self.dim})"


class Discrete:
    """A finite space of ``n`` integer actions ``{0, ..., n-1}``."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = int(n)

    def contains(self, value: int) -> bool:
        """Whether ``value`` is an integer action in ``[0, n)``."""
        try:
            ivalue = int(value)
        except (TypeError, ValueError):
            return False
        return 0 <= ivalue < self.n

    def sample(self, rng: RNGLike = None) -> int:
        """A uniform random action."""
        gen = ensure_rng(rng)
        return int(gen.integers(0, self.n))

    def __repr__(self) -> str:
        return f"Discrete(n={self.n})"


class SetpointSpace(Discrete):
    """Discrete action space over valid (heating, cooling) setpoint pairs."""

    def __init__(self, config: Optional[ActionSpaceConfig] = None):
        self.config = config or ActionSpaceConfig()
        self._pairs: List[Tuple[int, int]] = self.config.joint_actions()
        self._pair_to_index = {pair: i for i, pair in enumerate(self._pairs)}
        codes = np.array([h * _PAIR_CODE_BASE + c for h, c in self._pairs], dtype=np.int64)
        self._code_order = np.argsort(codes)
        self._sorted_codes = codes[self._code_order]
        super().__init__(len(self._pairs))

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        """Every (heating, cooling) pair, in action-index order."""
        return list(self._pairs)

    def to_pair(self, index: int) -> Tuple[int, int]:
        """Map an action index to its (heating, cooling) setpoint pair."""
        if not self.contains(index):
            raise IndexError(f"Action index {index} outside [0, {self.n})")
        return self._pairs[int(index)]

    def to_index(self, heating: float, cooling: float) -> int:
        """Map an arbitrary setpoint pair to the nearest valid action index."""
        pair = self.config.clip(heating, cooling)
        if pair in self._pair_to_index:
            return self._pair_to_index[pair]
        # Fall back to the closest pair by L1 distance (possible when clipping
        # produced an invalid combination, which clip() already prevents, but
        # keep this robust to future config changes).
        distances = [abs(p[0] - pair[0]) + abs(p[1] - pair[1]) for p in self._pairs]
        return int(np.argmin(distances))

    def to_indices(self, heating: np.ndarray, cooling: np.ndarray) -> np.ndarray:
        """Strict vectorised :meth:`to_index` of integer setpoint arrays.

        No clip and no nearest-pair fallback: a pair off the table raises ``ValueError``.
        """
        heating_codes = np.asarray(heating).astype(np.int64) * _PAIR_CODE_BASE
        codes = heating_codes + np.asarray(cooling).astype(np.int64)
        slots = np.minimum(
            np.searchsorted(self._sorted_codes, codes), len(self._sorted_codes) - 1
        )
        if not np.array_equal(self._sorted_codes[slots], codes):
            raise ValueError("Setpoint pair outside the action table")
        return self._code_order[slots]

    def heating_actions(self, cooling_setpoint: Optional[int] = None) -> List[int]:
        """Action indices sorted by heating setpoint for a fixed cooling setpoint."""
        cooling = cooling_setpoint if cooling_setpoint is not None else self.config.cooling_max
        indices = [
            self._pair_to_index[(h, cooling)]
            for h in self.config.heating_setpoints
            if (h, cooling) in self._pair_to_index
        ]
        return indices
