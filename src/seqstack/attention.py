"""Multi-head self-attention encoder layers and the sinusoidal position signal.

Layers use the residual form with layer norm applied before each sublayer
and a two-linear feed-forward sublayer. Every position-wise op runs on the
packed rows of a batch (see `tensor.Packing`); only the attention core
scatters queries, keys and values to the padded (B, N) grid, where key
padding is handled by adding the packing's key bias, a large negative
constant at padding columns, to the scores before the softmax.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Module,
    Packing,
    Tensor,
    add,
    affine_parameters,
    default_dtype,
    dropout,
    layer_norm,
    linear,
    matmul,
    pack_rows,
    parameter,
    permute,
    relu,
    reshape,
    scale,
    softmax_rows,
    uniform_parameter,
    unpack_rows,
)

def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed position signals in float64: even columns sine, odd columns cosine.

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
    out = np.zeros((n, d))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray | None = None
) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over (..., n_q, d_k) queries.

    k and v share their leading (batch) axes, and q shares them or is one
    (n_q, d_k) set of queries for every batch; `matmul` rejects any other
    shapes. `mask_bias` is an additive score offset that broadcasts to the
    (..., n_q, N) scores, such as the (B, 1, N) `Packing.key_bias`.
    """
    k_t = permute(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = scale(matmul(q, k_t), 1.0 / np.sqrt(q.shape[-1]))
    return matmul(softmax_rows(scores, mask_bias), v)


class MultiHeadAttention(Module):
    """Heads attend independently on projected slices, then re-project jointly.

    Head j reads columns [j*d_k, (j+1)*d_k) of the query/key/value projections,
    so the fused (d, d) matrices are exactly per-head projections side by side.
    The key and value projections carry no bias. A shared key offset shifts
    every score in a row equally and cancels in the softmax, so it could never
    train. Each row's attention weights sum to 1 (padded keys weigh exactly 0),
    so a value offset c passes through attention unchanged and reaches the
    output as c W_o, which the output bias already spans.
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        self.d = d
        self.heads = heads
        self.d_head = d // heads
        self.w_q, self.b_q = affine_parameters(rng, d, d)
        self.w_k = uniform_parameter(rng, 1.0 / np.sqrt(d), d, d)
        self.w_v = uniform_parameter(rng, 1.0 / np.sqrt(d), d, d)
        self.w_o, self.b_o = affine_parameters(rng, d, d)

    def _split_heads(self, x: Tensor, packing: Packing) -> Tensor:
        """Packed (T, d) rows -> padded (B, H, N, d_head), zero at padding."""
        batch, n = packing.shape
        x = unpack_rows(x, packing)
        return permute(reshape(x, (batch, n, self.heads, self.d_head)), (0, 2, 1, 3))

    def __call__(self, x: Tensor, packing: Packing) -> Tensor:
        """Self-attention over packed (T, d) rows; the packing's key bias is
        broadcast over the heads and the query rows."""
        q = self._split_heads(linear(x, self.w_q, self.b_q), packing)
        k = self._split_heads(linear(x, self.w_k), packing)
        v = self._split_heads(linear(x, self.w_v), packing)
        mixed = scaled_dot_attention(q, k, v, packing.key_bias(x.dtype)[:, None])
        mixed = reshape(permute(mixed, (0, 2, 1, 3)), packing.shape + (self.d,))
        return linear(pack_rows(mixed, packing.index), self.w_o, self.b_o)


class FeedForward(Module):
    """Position-wise (d -> d_ff -> d) map with a rectifier between."""

    def __init__(self, d: int, d_ff: int, rng: np.random.Generator):
        self.w1, self.b1 = affine_parameters(rng, d, d_ff)
        self.w2, self.b2 = affine_parameters(rng, d_ff, d)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(relu(linear(x, self.w1, self.b1)), self.w2, self.b2)


class SanLayer(Module):
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
        self.ln1 = parameter(np.ones(d, dtype=default_dtype()))
        self.ln2 = parameter(np.ones(d, dtype=default_dtype()))
        self.dropout_rate = dropout_rate

    def __call__(self, x: Tensor, packing: Packing, rng: np.random.Generator | None = None) -> Tensor:
        """One layer over packed (T, d) rows; dropout draws from `rng` when given."""
        x = add(x, dropout(self.mha(layer_norm(x, self.ln1), packing), self.dropout_rate, rng))
        return add(x, dropout(self.ffn(layer_norm(x, self.ln2)), self.dropout_rate, rng))


class SanEncoder(Module):
    """L stacked self-attention layers over packed (T, d) rows.

    Applies input dropout while training (given an rng), and finishes with
    a layer norm (the pre-norm residual stream is otherwise never
    normalized). Every layer norm is gain-only, because a bias c would be
    spanned by another bias. A pre-norm output feeds only its sublayer: c
    reaches attention as c W_q (the query bias spans it), a per-row key
    offset and c W_v (see `MultiHeadAttention`), and the feed-forward as
    c W1 (its first bias). After the final norm, trainable-query pooling
    shifts every key's score by the same q.c, so it returns pooled + c, a
    constant that the classifier head's first bias spans.
    """

    def __init__(
        self,
        layers: int,
        d: int,
        heads: int,
        d_ff: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.0,
    ):
        self.d = d
        self.dropout_rate = dropout_rate
        self.layers = [SanLayer(d, heads, d_ff, rng, dropout_rate) for _ in range(layers)]
        self.final = parameter(np.ones(d, dtype=default_dtype()))

    def __call__(self, x: Tensor, packing: Packing, rng: np.random.Generator | None = None) -> Tensor:
        if x.shape != (len(packing.steps), self.d):
            raise ShapeError(f"expected ({len(packing.steps)}, {self.d}) packed rows, got {x.shape}")
        x = dropout(x, self.dropout_rate, rng)
        for layer in self.layers:
            x = layer(x, packing, rng)
        return layer_norm(x, self.final)
