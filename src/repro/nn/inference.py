"""Allocation-free, forward-only inference networks: the dynamics models' only prediction path.

The training :class:`~repro.nn.mlp.MLP` caches every intermediate for
backpropagation and allocates fresh temporaries for each matmul, bias add,
activation and normalisation pass — exactly right for fitting, pure overhead
for the millions of forward passes the random-shooting planner and the
Monte-Carlo distiller make.  :class:`CompiledInferenceNetwork` snapshots a
fitted MLP's weights once, cast to a declared dtype, and runs every layer
into reused per-layer buffers (``np.matmul``/``np.add``/``np.maximum`` with
``out=``), :data:`ROW_BLOCK` rows at a time.

Most of the old cost was that allocation.  One forward at the planner's
5000-row, (64, 64) shape, median of 7 timings on a 2-vCPU x86-64 box
(OpenBLAS 0.3.31): float64 through the training network 3.5–3.9 ms, buffered
here 1.9–2.0 ms with identical bits; float32 1.2 ms through the old
allocating compiled pass, 0.8–1.0 ms buffered.  So float32's edge over the
buffered float64 pass is ~2.2×, from moving half the bytes, and most of the
"2–4×" once credited to half the bytes and wider SIMD was allocation.  The
dtype policy itself lives in :func:`repro.data.resolve_float_dtype`:
``float64`` is the bit-exact reference, ``float32`` is opt-in via
``PipelineConfig.dtype``.

A compiled network is a frozen snapshot: refitting the source MLP does not
update it.  Holders (the dynamics models) rebuild their compiled nets after
every ``fit``.  Each thread gets its own workspace, so concurrent callers
never write into each other's buffers.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.data import resolve_float_dtype
from repro.nn.layers import ACTIVATIONS
from repro.nn.mlp import MLP

#: Rows per block through the buffered forward pass, chosen by timing the
#: planner's 5000-row (64, 64) float64 forward on a 2-vCPU box (medians of 7,
#: three runs): 256 rows 2.4–2.7 ms, 512 rows 2.0–2.35 ms, 1024 rows
#: 1.86–2.01 ms, 2048 rows 1.91–2.06 ms, 4096 rows 2.0–2.2 ms, one 5000-row
#: block 2.0–2.2 ms.  At 1024 the (64, 64) workspace is ~1.1 MB per thread.
#: It must stay a multiple of 4 and well below the ~7500 rows at which
#: OpenBLAS starts threading the output layer's gemv (see :func:`_row_blocks`).
ROW_BLOCK = 1024


def _row_blocks(n: int) -> Iterator[Tuple[int, int]]:
    """``(lo, hi)`` row ranges of at most :data:`ROW_BLOCK` rows covering ``n``.

    Float64 bit-identity with one unblocked pass rests on every block
    taking the BLAS path the unblocked pass takes for the same rows: numpy
    sends a one-row matmul to gemv/dot instead of gemm, and OpenBLAS's gemv
    handles the last ``rows % 4`` outputs of a call with a separate tail
    kernel.  So every block but the last is a multiple of 4 rows, and a call
    never ends in a one-row block: that row goes with four rows of the
    previous block instead.

    Past ~7500 rows (at 64 hidden units) the unblocked pass itself changes:
    OpenBLAS threads its output-layer gemv, and the rows at a thread boundary
    take the tail kernel.  There the reference depends on the BLAS thread
    count, and the blocks reproduce its single-threaded result.
    """
    lo = 0
    while lo < n:
        hi = min(lo + ROW_BLOCK, n)
        if n - hi == 1:
            hi -= 4
        yield lo, hi
        lo = hi


def _activate(name: str, values: np.ndarray) -> None:
    """Apply activation ``name`` to ``values`` in place (same ufuncs as the layers)."""
    if name == "relu":
        np.maximum(values, 0.0, out=values)
    elif name not in ("identity", "linear"):
        np.copyto(values, ACTIVATIONS[name][0](values))


class CompiledInferenceNetwork:
    """A fitted MLP flattened to dtype-cast weight arrays, forward-only and buffered.

    The caller's input/target standardisation can be passed in:

    * at ``float64`` the normalisers stay separate passes — ``(x - μ)/σ``,
      the layers, then ``·σ_t + μ_t`` — in the order of
      ``Normalizer.transform`` → ``MLP.forward`` → ``inverse_transform``, so
      the output is bit-identical to that composition;
    * at ``float32`` they are folded into the weights (all folding arithmetic
      runs in float64 before the cast): ``act((x - μ)/σ · W + b)`` is
      ``act(x · W' + b')`` with ``W' = W/σ`` and ``b' = b - (μ/σ)·W``, and a
      *linear* output layer absorbs the target normaliser
      (``W' = W·σ_t``, ``b' = b·σ_t + μ_t``).
    """

    def __init__(
        self,
        mlp: MLP,
        dtype: Union[str, np.dtype] = np.float32,
        input_normalizer=None,
        target_normalizer=None,
    ):
        self.dtype = resolve_float_dtype(dtype)
        self.input_dim = mlp.input_dim
        self.output_dim = mlp.output_dim
        layers = [
            [layer.weights.astype(np.float64), layer.bias.astype(np.float64), layer.activation_name]
            for layer in mlp.layers
        ]
        self._input_norm: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._target_norm: Optional[Tuple[np.ndarray, np.ndarray]] = None
        exact = self.dtype == np.float64
        if input_normalizer is not None:
            mean = np.asarray(input_normalizer.mean, dtype=np.float64)
            std = np.asarray(input_normalizer.std, dtype=np.float64)
            if exact:
                self._input_norm = (mean, std)
            else:
                weights, bias, _act = layers[0]
                layers[0][1] = bias - (mean / std) @ weights
                layers[0][0] = weights / std[:, np.newaxis]
        if target_normalizer is not None:
            if layers[-1][2] not in ("identity", "linear"):
                raise ValueError(
                    "Target normalisation can only be applied after a linear output layer"
                )
            mean = np.asarray(target_normalizer.mean, dtype=np.float64)
            std = np.asarray(target_normalizer.std, dtype=np.float64)
            if exact:
                self._target_norm = (std, mean)
            else:
                layers[-1][0] = layers[-1][0] * std
                layers[-1][1] = layers[-1][1] * std + mean
        self._layers: List[Tuple[np.ndarray, np.ndarray, str]] = [
            (
                np.ascontiguousarray(weights, dtype=self.dtype),
                np.ascontiguousarray(bias, dtype=self.dtype),
                activation_name,
            )
            for weights, bias, activation_name in layers
        ]
        self._local = threading.local()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_local"]  # workspaces are per thread and never travel
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    @property
    def workspace_rows(self) -> int:
        """Rows of the calling thread's workspace (0 before its first call)."""
        buffers = getattr(self._local, "buffers", None)
        return 0 if buffers is None else len(buffers[0])

    def _workspace(self, rows: int) -> List[np.ndarray]:
        """The calling thread's buffers, grown (never past one block) to ``rows``."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None or len(buffers[0]) < rows:
            widths = [self.input_dim] + [weights.shape[1] for weights, _b, _a in self._layers[:-1]]
            buffers = [np.empty((rows, width), dtype=self.dtype) for width in widths]
            self._local.buffers = buffers
        return buffers

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass in the compiled dtype; returns a fresh array of that dtype.

        Rows are read as float64, the dtype raw model inputs come in.  At
        float64 each block is normalised into the first buffer (or read in
        place when there is no input normaliser); at float32 it is cast
        there.  Every hidden layer writes into its own buffer and the output
        layer straight into the returned array, so once the workspace exists
        a call allocates nothing beyond its result.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        n = len(x)
        out = np.empty((n, self.output_dim), dtype=self.dtype)
        buffers = self._workspace(min(n, ROW_BLOCK))
        last = len(self._layers) - 1
        for lo, hi in _row_blocks(n):
            rows = hi - lo
            values = buffers[0][:rows]
            if self._input_norm is not None:
                mean, std = self._input_norm
                np.subtract(x[lo:hi], mean, out=values)
                np.divide(values, std, out=values)
            elif self.dtype == np.float64:
                values = x[lo:hi]
            else:
                np.copyto(values, x[lo:hi], casting="same_kind")
            for index, (weights, bias, activation_name) in enumerate(self._layers):
                target = out[lo:hi] if index == last else buffers[index + 1][:rows]
                np.matmul(values, weights, out=target)
                np.add(target, bias, out=target)
                _activate(activation_name, target)
                values = target
        if self._target_norm is not None:
            std, mean = self._target_norm
            np.multiply(out, std, out=out)
            np.add(out, mean, out=out)
        return out

    __call__ = forward
