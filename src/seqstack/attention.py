"""Multi-head self-attention encoder layers with sinusoidal positions.

Layers use the residual form with layer norm applied before each sublayer
and a two-linear feed-forward sublayer. Key padding is handled by adding a
large negative constant to masked score columns before the softmax.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import (
    Tensor,
    add,
    bmm,
    constant,
    default_dtype,
    dropout,
    layer_norm,
    matmul,
    permute,
    relu,
    reshape,
    scale,
    softmax_rows,
)

MASK_FILL = -1e9


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed position signals: even columns sine, odd columns cosine.

    Column pairs share a wavelength that grows geometrically from 2*pi to
    10000*2*pi, so position 0 encodes as (0, 1, 0, 1, ...).
    """
    if d % 2 != 0:
        raise ConfigError(f"positional dim must be even, got {d}")
    if n < 1:
        raise ConfigError(f"need at least one position, got {n}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d)
    out = np.zeros((n, d), dtype=default_dtype())
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def key_mask_bias(mask: np.ndarray, dtype) -> np.ndarray:
    """Additive (B, 1, N) score offset from a (B, N) key mask: MASK_FILL at padding."""
    return ((1.0 - np.asarray(mask)) * MASK_FILL)[:, None, :].astype(dtype)


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray | None = None
) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over (B, n_q, d_k) batches.

    `mask_bias` is an additive score offset that broadcasts to the (B, n_q,
    N) scores, such as the (B, 1, N) output of `key_mask_bias`.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attention needs rank-3 q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query dim {q.shape} does not match key dim {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key count {k.shape} does not match value count {v.shape}")
    scores = scale(bmm(q, permute(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
    if mask_bias is not None:
        scores = add(scores, constant(np.broadcast_to(mask_bias, scores.shape).copy()))
    return bmm(softmax_rows(scores), v)


def _project(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Apply a (d_in -> d_out) map over the last axis of (B, N, d_in)."""
    batch, n, d_in = x.shape
    flat = reshape(x, (batch * n, d_in))
    out = matmul(flat, w)
    if b is not None:
        out = add(out, b)
    return reshape(out, (batch, n, w.shape[1]))


def _affine_params(d_in: int, d_out: int, rng: np.random.Generator):
    dt = default_dtype()
    s = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-s, s, (d_in, d_out)).astype(dt), requires_grad=True)
    b = Tensor(np.zeros(d_out, dtype=dt), requires_grad=True)
    return w, b


class MultiHeadAttention:
    """Heads attend independently on projected slices, then re-project jointly.

    Head j reads columns [j*d_k, (j+1)*d_k) of the query/key/value projections,
    so the fused (d, d) matrices are exactly per-head projections side by side.
    The key projection carries no bias: a shared key offset shifts every score
    in a row equally and cancels in the softmax, so it could never train.
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        if heads < 1 or d % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide model dim ({d})")
        self.d = d
        self.heads = heads
        self.d_head = d // heads
        self.w_q, self.b_q = _affine_params(d, d, rng)
        self.w_k, _ = _affine_params(d, d, rng)
        self.w_v, self.b_v = _affine_params(d, d, rng)
        self.w_o, self.b_o = _affine_params(d, d, rng)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}w_q": self.w_q, f"{prefix}b_q": self.b_q,
            f"{prefix}w_k": self.w_k,
            f"{prefix}w_v": self.w_v, f"{prefix}b_v": self.b_v,
            f"{prefix}w_o": self.w_o, f"{prefix}b_o": self.b_o,
        }

    def _split_heads(self, x: Tensor, batch: int, n: int) -> Tensor:
        x = reshape(x, (batch, n, self.heads, self.d_head))
        x = permute(x, (0, 2, 1, 3))
        return reshape(x, (batch * self.heads, n, self.d_head))

    def __call__(self, x: Tensor, mask_bias: np.ndarray | None = None) -> Tensor:
        """Self-attention over (B, N, d); `mask_bias` is a (B, 1, N) key offset."""
        batch, n, d = x.shape
        if d != self.d:
            raise ShapeError(f"input dim {d} does not match model dim {self.d}")
        q = self._split_heads(_project(x, self.w_q, self.b_q), batch, n)
        k = self._split_heads(_project(x, self.w_k), batch, n)
        v = self._split_heads(_project(x, self.w_v, self.b_v), batch, n)
        if mask_bias is not None:
            mask_bias = np.repeat(mask_bias, self.heads, axis=0)
        mixed = scaled_dot_attention(q, k, v, mask_bias)
        mixed = reshape(mixed, (batch, self.heads, n, self.d_head))
        mixed = reshape(permute(mixed, (0, 2, 1, 3)), (batch, n, self.d))
        return _project(mixed, self.w_o, self.b_o)


class FeedForward:
    """Position-wise (d -> d_ff -> d) map with a rectifier between."""

    def __init__(self, d: int, d_ff: int, rng: np.random.Generator):
        if d_ff < d:
            raise ConfigError(f"d_ff ({d_ff}) must be at least model dim ({d})")
        self.w1, self.b1 = _affine_params(d, d_ff, rng)
        self.w2, self.b2 = _affine_params(d_ff, d, rng)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}w1": self.w1, f"{prefix}b1": self.b1,
            f"{prefix}w2": self.w2, f"{prefix}b2": self.b2,
        }

    def __call__(self, x: Tensor) -> Tensor:
        return _project(relu(_project(x, self.w1, self.b1)), self.w2, self.b2)


class LayerNormParams:
    def __init__(self, d: int):
        dt = default_dtype()
        self.gain = Tensor(np.ones(d, dtype=dt), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=dt), requires_grad=True)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {f"{prefix}gain": self.gain, f"{prefix}bias": self.bias}

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class SanLayer:
    """One attention sublayer plus one feed-forward sublayer with residuals."""

    def __init__(
        self,
        d: int,
        heads: int,
        d_ff: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.0,
    ):
        self.mha = MultiHeadAttention(d, heads, rng)
        self.ffn = FeedForward(d, d_ff, rng)
        self.ln1 = LayerNormParams(d)
        self.ln2 = LayerNormParams(d)
        self.dropout_rate = dropout_rate

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.mha.parameters(f"{prefix}mha.")
        out.update(self.ffn.parameters(f"{prefix}ffn."))
        out.update(self.ln1.parameters(f"{prefix}ln1."))
        out.update(self.ln2.parameters(f"{prefix}ln2."))
        return out

    def _maybe_drop(self, x: Tensor, training: bool, rng) -> Tensor:
        if training and self.dropout_rate > 0:
            return dropout(x, self.dropout_rate, True, rng)
        return x

    def __call__(
        self,
        x: Tensor,
        mask_bias: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        x = add(x, self._maybe_drop(self.mha(self.ln1(x), mask_bias), training, rng))
        return add(x, self._maybe_drop(self.ffn(self.ln2(x)), training, rng))


class SanEncoder:
    """L stacked self-attention layers over a (batch, N, d) sequence.

    Adds sinusoidal positions when configured, applies input dropout while
    training, and finishes with a layer norm (the pre-norm residual stream is
    otherwise never normalized).
    """

    def __init__(
        self,
        layers: int,
        d: int,
        heads: int,
        d_ff: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.0,
        use_positional: bool = True,
    ):
        if layers < 1:
            raise ConfigError(f"need at least one layer, got {layers}")
        self.d = d
        self.use_positional = use_positional
        self.dropout_rate = dropout_rate
        self.layers = [SanLayer(d, heads, d_ff, rng, dropout_rate) for _ in range(layers)]
        self.final = LayerNormParams(d)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for li, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}layer{li}."))
        out.update(self.final.parameters(f"{prefix}final."))
        return out

    def __call__(
        self,
        x: Tensor,
        mask: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        if x.ndim != 3 or x.shape[-1] != self.d:
            raise ShapeError(f"expected (batch, N, {self.d}), got {x.shape}")
        if training and self.dropout_rate > 0 and rng is None:
            raise ContractError("training with dropout needs an rng stream")
        batch, n, d = x.shape
        if self.use_positional:
            pos = sinusoidal_positions(n, d).astype(x.dtype)
            x = add(x, constant(np.broadcast_to(pos, x.shape).copy()))
        if training and self.dropout_rate > 0:
            x = dropout(x, self.dropout_rate, True, rng)
        mask_bias = None
        if mask is not None:
            if np.shape(mask) != (batch, n):
                raise ConfigError(f"mask shape {np.shape(mask)} != ({batch}, {n})")
            mask_bias = key_mask_bias(mask, x.dtype)
        for layer in self.layers:
            x = layer(x, mask_bias, training, rng)
        return self.final(x)

