"""Multi-head self-attention encoder layers and the sinusoidal position signal.

Layers use the residual form with layer norm applied before each sublayer
and a two-linear feed-forward sublayer. Every position-wise op runs on the
packed rows of a batch (see `tensor.Packing`); only the attention core
scatters queries, keys and values to the padded (B, N) grid, where key
padding is handled by adding the packing's key bias, a large negative
constant at padding columns, to the scores before the softmax.

The attention core and the feed-forward sublayer are one tape entry each,
recorded through `tensor._record` as `recurrent.scan_layer` is. Each works
inside the arrays its matrix products return: the core scales, biases and
softmaxes the scores in place, and the feed-forward rectifies its hidden
layer in place. Their hand-written backwards repeat the arithmetic of the
tape-op chains they replace (`tests/tape_helpers.py` keeps those chains),
in the same order and with the same products on the same operand layouts,
so forward and gradients are those chains' to the bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Module,
    Packing,
    Tensor,
    _record,
    add,
    affine_parameters,
    default_dtype,
    dropout,
    layer_norm,
    linear,
    pack_rows,
    parameter,
    permute,
    reshape,
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
    """softmax(q k^T / sqrt(d_k) + mask_bias) v over (..., n_q, d_k) queries.

    k and v share their leading (batch) axes and their key count, and q
    shares the leading axes or is one (n_q, d_k) set of queries for every
    batch, whose gradient is then summed over the batch. `mask_bias` is an
    additive score offset of the scores' dtype that broadcasts to the
    (..., n_q, N) scores, such as the (B, 1, N) `Packing.key_bias`.

    One tape entry. The scores are scaled, biased and softmaxed inside the
    array `q @ k^T` returns, and the backward keeps only the weights P and
    the three inputs.
    """
    lead = k.shape[:-2]
    if (q.ndim < 2 or k.ndim < 2 or q.shape[:-2] not in (lead, ())
            or q.shape[-1:] != k.shape[-1:] or v.ndim < 2 or v.shape[:-1] != k.shape[:-1]):
        raise ShapeError(f"attention: incompatible shapes q {q.shape}, k {k.shape}, v {v.shape}")
    factor = float(1.0 / np.sqrt(q.shape[-1]))
    p = q.data @ k.data.swapaxes(-1, -2)
    if mask_bias is not None and np.broadcast_shapes(mask_bias.shape, p.shape) != p.shape:
        raise ShapeError(f"attention: bias {mask_bias.shape} does not broadcast to {p.shape}")
    p *= factor
    if mask_bias is not None:
        p += mask_bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def back(g):
        contribs = []
        if q.requires_grad or k.requires_grad:
            # the softmax's backward, then the scale's, in the gradient of P
            d = g @ v.data.swapaxes(-1, -2)
            inner = (d * p).sum(axis=-1, keepdims=True)
            d -= inner
            d *= p
            d *= factor
            if q.requires_grad:
                gq = d @ k.data
                contribs.append((q, gq if q.ndim == k.ndim else gq.reshape((-1,) + q.shape).sum(axis=0)))
            if k.requires_grad:
                contribs.append((k, (q.data.swapaxes(-1, -2) @ d).swapaxes(-1, -2)))
        if v.requires_grad:
            contribs.append((v, p.swapaxes(-1, -2) @ g))
        return contribs

    return _record("scaled_dot_attention", (q, k, v), p @ v.data, back)


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
    """Position-wise (d -> d_ff -> d) map with a rectifier between.

    One tape entry over x of any rank: x is flattened to (-1, d) rows, the
    rectifier runs in place on the first product, and the backward reads
    its mask from that rectified array.
    """

    def __init__(self, d: int, d_ff: int, rng: np.random.Generator):
        self.w1, self.b1 = affine_parameters(rng, d, d_ff)
        self.w2, self.b2 = affine_parameters(rng, d_ff, d)

    def __call__(self, x: Tensor) -> Tensor:
        w1, b1, w2, b2 = self.w1, self.b1, self.w2, self.b2
        d = w1.shape[0]
        if x.shape[-1:] != (d,):
            raise ShapeError(f"feed-forward: expected rows of width {d}, got {x.shape}")
        rows = x.data.reshape(-1, d)
        hidden = rows @ w1.data
        hidden += b1.data
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ w2.data
        out += b2.data

        def back(g):
            g = g.reshape(-1, d)
            contribs = []
            if x.requires_grad or w1.requires_grad or b1.requires_grad:
                g_hidden = g @ w2.data.T
                g_hidden *= hidden > 0
                if x.requires_grad:
                    contribs.append((x, (g_hidden @ w1.data.T).reshape(x.shape)))
                if w1.requires_grad:
                    contribs.append((w1, rows.T @ g_hidden))
                if b1.requires_grad:
                    contribs.append((b1, g_hidden.sum(axis=0)))
            if w2.requires_grad:
                contribs.append((w2, hidden.T @ g))
            if b2.requires_grad:
                contribs.append((b2, g.sum(axis=0)))
            return contribs

        return _record("feed_forward", (x, w1, b1, w2, b2), out.reshape(x.shape), back)


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
