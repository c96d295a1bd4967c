"""Recurrent cells and encoders, including the ordered-chunk gated variant.

The ordered cell augments a standard LSTM with two chunk-level master gates
built from a monotone cumulative-softmax activation. The erase gate rises
across chunks, the write gate falls, and their overlap decides where the
standard gates act; outside the overlap the master values take over directly.
Both cells share one update kernel so the ordered cell with master gates
forced to ones reproduces the plain cell bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .tensor import (
    Tensor,
    constant,
    cumsum_last,
    default_dtype,
    dropout,
    repeat_last,
    sigmoid,
    slice_last,
    softmax_rows,
    sub,
    tanh,
)

GATE_ORDER = ("forget", "input", "output", "candidate")


def cumax(logits: Tensor) -> Tensor:
    """Cumulative sum of a softmax along the last axis: non-decreasing, ending at 1."""
    return cumsum_last(softmax_rows(logits))


class LstmParams:
    """Fused input/hidden projections for the four gates, order (f, i, o, candidate).

    Weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); the forget-gate
    bias starts at +1 so early training does not erase state.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator):
        if d_in < 1 or d_hidden < 1:
            raise ConfigError(f"cell dims must be positive, got ({d_in}, {d_hidden})")
        self.d_in = d_in
        self.d_hidden = d_hidden
        dt = default_dtype()
        sx = 1.0 / np.sqrt(d_in)
        sh = 1.0 / np.sqrt(d_hidden)
        self.w_x = Tensor(
            rng.uniform(-sx, sx, (d_in, 4 * d_hidden)).astype(dt), requires_grad=True
        )
        self.w_h = Tensor(
            rng.uniform(-sh, sh, (d_hidden, 4 * d_hidden)).astype(dt),
            requires_grad=True,
        )
        bias = np.zeros(4 * d_hidden, dtype=dt)
        bias[:d_hidden] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}w_x": self.w_x,
            f"{prefix}w_h": self.w_h,
            f"{prefix}bias": self.bias,
        }


class OnLstmParams:
    """LstmParams plus two master-gate heads producing chunk-level logits.

    `chunk` is the number of neurons steered by one master value; it must
    divide d_hidden.
    """

    def __init__(self, d_in: int, d_hidden: int, chunk: int, rng: np.random.Generator):
        if chunk < 1 or d_hidden % chunk != 0:
            raise ConfigError(
                f"chunk ({chunk}) must be a positive divisor of d_hidden ({d_hidden})"
            )
        self.base = LstmParams(d_in, d_hidden, rng)
        self.d_in = d_in
        self.d_hidden = d_hidden
        self.chunk = chunk
        self.master_dim = d_hidden // chunk
        dt = default_dtype()
        sx = 1.0 / np.sqrt(d_in)
        sh = 1.0 / np.sqrt(d_hidden)
        m2 = 2 * self.master_dim
        self.w_x_master = Tensor(
            rng.uniform(-sx, sx, (d_in, m2)).astype(dt), requires_grad=True
        )
        self.w_h_master = Tensor(
            rng.uniform(-sh, sh, (d_hidden, m2)).astype(dt), requires_grad=True
        )
        self.bias_master = Tensor(np.zeros(m2, dtype=dt), requires_grad=True)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.base.parameters(prefix)
        out[f"{prefix}w_x_master"] = self.w_x_master
        out[f"{prefix}w_h_master"] = self.w_h_master
        out[f"{prefix}bias_master"] = self.bias_master
        return out


def _standard_gates(params: LstmParams, x_t: Tensor, h_prev: Tensor):
    dh = params.d_hidden
    z = x_t @ params.w_x + h_prev @ params.w_h + params.bias
    f = sigmoid(slice_last(z, 0, dh))
    i = sigmoid(slice_last(z, dh, 2 * dh))
    o = sigmoid(slice_last(z, 2 * dh, 3 * dh))
    g = tanh(slice_last(z, 3 * dh, 4 * dh))
    return f, i, o, g


def _cell_update(f, i, o, g, c_prev, f_master=None, i_master=None):
    """Shared state update; master gates, when given, reshape erase/write."""
    if f_master is not None:
        w = f_master * i_master
        f = f * w + sub(f_master, w)
        i = i * w + sub(i_master, w)
    c = f * c_prev + i * g
    h = o * tanh(c)
    return h, c


def lstm_cell_step(
    params: LstmParams, x_t: Tensor, state: tuple[Tensor, Tensor]
) -> tuple[Tensor, Tensor]:
    """One standard cell step: (h, c) -> (h', c')."""
    h_prev, c_prev = state
    f, i, o, g = _standard_gates(params, x_t, h_prev)
    return _cell_update(f, i, o, g, c_prev)


def master_gates(
    params: OnLstmParams,
    x_t: Tensor,
    h_prev: Tensor,
    trace: list | None = None,
) -> tuple[Tensor, Tensor]:
    """Chunk-level erase/write gates expanded to neuron resolution.

    The erase gate is the cumulative softmax of its head (rising to 1); the
    write gate is one minus the cumulative softmax of its own head, so it
    falls to 0 (Shen et al. 2019, arXiv:1810.09536). Chunk values are
    repeated across each chunk's neurons. When `trace` is given the
    chunk-level values are appended to it as numpy copies.
    """
    m = params.master_dim
    z = x_t @ params.w_x_master + h_prev @ params.w_h_master + params.bias_master
    f_chunk = cumax(slice_last(z, 0, m))
    cu = cumax(slice_last(z, m, 2 * m))
    i_chunk = sub(constant(np.ones_like(cu.data)), cu)
    if trace is not None:
        trace.append((f_chunk.data.copy(), i_chunk.data.copy()))
    if params.chunk == 1:
        return f_chunk, i_chunk
    return repeat_last(f_chunk, params.chunk), repeat_last(i_chunk, params.chunk)


def on_lstm_cell_step(
    params: OnLstmParams,
    x_t: Tensor,
    state: tuple[Tensor, Tensor],
    master_override: tuple[Tensor, Tensor] | None = None,
    trace: list | None = None,
) -> tuple[Tensor, Tensor]:
    """One ordered-cell step.

    `master_override` substitutes fixed (erase, write) gate tensors for the
    computed ones; it exists so tests can force degenerate gate regimes.
    """
    h_prev, c_prev = state
    f, i, o, g = _standard_gates(params.base, x_t, h_prev)
    if master_override is None:
        f_tilde, i_tilde = master_gates(params, x_t, h_prev, trace=trace)
    else:
        f_tilde, i_tilde = master_override
    return _cell_update(f, i, o, g, c_prev, f_tilde, i_tilde)


class RecurrentEncoder:
    """K stacked unidirectional cells scanning a step list left to right.

    Input is a list of (batch, d_in) tensors, one per time step; output is the
    top layer's step list plus the final carried hidden state. With a (batch,
    N) mask, padded steps carry the previous (h, c) through unchanged, so the
    final hidden state is each sequence's true last state.

    Dropout is applied to the steps fed to layers above the first; returned
    outputs are raw. Layers above the first add their (undropped) input back
    onto their output.
    """

    def __init__(
        self,
        kind: str,
        layers: int,
        d_in: int,
        d_hidden: int,
        rng: np.random.Generator,
        chunk: int = 1,
        dropout_rate: float = 0.0,
    ):
        if kind not in ("lstm", "onlstm"):
            raise ConfigError(f"unknown recurrent kind {kind!r}")
        if layers < 1:
            raise ConfigError(f"need at least one layer, got {layers}")
        self.kind = kind
        self.d_hidden = d_hidden
        self.dropout_rate = dropout_rate
        self.layers: list = []
        for li in range(layers):
            din = d_in if li == 0 else d_hidden
            if kind == "onlstm":
                self.layers.append(OnLstmParams(din, d_hidden, chunk, rng))
            else:
                self.layers.append(LstmParams(din, d_hidden, rng))

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for li, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}layer{li}."))
        return out

    def __call__(
        self,
        steps: Sequence[Tensor],
        mask: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
        trace: dict[int, list] | None = None,
    ) -> tuple[list[Tensor], Tensor]:
        steps = list(steps)
        if not steps:
            raise DataError("cannot encode a length-0 sequence")
        if training and self.dropout_rate > 0 and rng is None:
            raise ContractError("training with dropout needs an rng stream")
        batch = steps[0].shape[0]
        dh = self.d_hidden
        dt = steps[0].dtype
        keep_masks = None
        if mask is not None:
            mask = np.asarray(mask, dtype=dt)
            if mask.shape != (batch, len(steps)):
                raise ConfigError(
                    f"mask shape {mask.shape} != (batch, steps) ({batch}, {len(steps)})"
                )
            keep_masks = [
                (
                    constant(np.repeat(mask[:, t : t + 1], dh, axis=1)),
                    constant(np.repeat(1.0 - mask[:, t : t + 1], dh, axis=1)),
                )
                for t in range(len(steps))
            ]
        clean = steps
        last_h: Tensor | None = None
        for li, layer in enumerate(self.layers):
            if li > 0 and training and self.dropout_rate > 0:
                fed = [dropout(x, self.dropout_rate, True, rng) for x in clean]
            else:
                fed = clean
            h = constant(np.zeros((batch, dh), dtype=dt))
            c = constant(np.zeros((batch, dh), dtype=dt))
            layer_trace: list | None = None
            if trace is not None and self.kind == "onlstm":
                layer_trace = trace.setdefault(li, [])
            outs: list[Tensor] = []
            for t, x_t in enumerate(fed):
                if self.kind == "onlstm":
                    h_new, c_new = on_lstm_cell_step(layer, x_t, (h, c), trace=layer_trace)
                else:
                    h_new, c_new = lstm_cell_step(layer, x_t, (h, c))
                if keep_masks is not None:
                    keep, hold = keep_masks[t]
                    h = keep * h_new + hold * h
                    c = keep * c_new + hold * c
                else:
                    h, c = h_new, c_new
                outs.append(h)
            if li > 0:
                outs = [o + x for o, x in zip(outs, clean)]
            clean = outs
            last_h = h
        return clean, last_h

