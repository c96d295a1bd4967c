"""Test-side helpers built on seqstack's tape: code the program never calls.

`sum_all` and `mean_all` contract a tensor to a scalar loss for gradient
checks; `sub` and `mul` are the same-shape elementwise ops tests build
losses and references from. They record on the active tape like the ops in
`seqstack.tensor`.

`matmul` and `softmax_rows` are the generic ops the attention core was
once built from. With `permute`, `scale`, `relu` and `linear` they make
`reference_attention` and `reference_feed_forward`, the tape-op chains
that `attention.scaled_dot_attention` and `attention.FeedForward` fuse into
one entry each; the tests hold the fused ops to them bit for bit.

The rest is the recurrent cell built from per-step tape ops, the oracle the
fused scan in `seqstack.recurrent` is held to: the ops it needs
(`add_bias`, `sigmoid`, `tanh`, `cumsum_last`, `repeat_last`, `slice_last`,
`stack_steps`), the plain and ordered cells, and `tape_scan`, which runs a
`RecurrentEncoder`'s layers with these cells one step at a time.
`forced_onlstm_step` runs one ordered-cell step with given master gates, so
the forced-gate identities can be checked against the plain cell.

Last, the padded formulation of the encoder, the oracle its packed rows are
held to: `padded_encode` runs an `Encoder` on the (B, N, d) grid, padding
included, adding positions when it has no recurrent stack, with `tape_scan`
for the recurrent stack and `padded_san` for the attention stack, and
`padded_logits` finishes a `PairClassifier` from it.
Their dropout, `grid_dropout`, draws each site's mask as the packed rows
do, one (T, d) draw in packed order, and scatters it onto the grid.
`pack` and `unpack` move between padded arrays and packed rows.

`all_rows_logits` finishes a `PairClassifier` from `_pooled` over every
row of a batch, repeats included: the oracle `forward_joint`'s
distinct-row path is held to.
"""

from typing import Sequence

import numpy as np

from seqstack.attention import scaled_dot_attention, sinusoidal_positions
from seqstack.errors import ShapeError
from seqstack.recurrent import LstmParams
from seqstack.tensor import (
    Packing, Tensor, _record, add, constant, layer_norm, linear, permute, relu, reshape, scale,
    unpack_rows,
)


def sum_all(x: Tensor) -> Tensor:
    def back(g):
        return [(x, np.full_like(x.data, g))] if x.requires_grad else []

    return _record("sum_all", (x,), np.asarray(x.data.sum(), dtype=x.data.dtype), back)


def mean_all(x: Tensor) -> Tensor:
    n = x.size

    def back(g):
        if not x.requires_grad:
            return []
        return [(x, np.full_like(x.data, g / n))]

    return _record("mean_all", (x,), np.asarray(x.data.mean(), dtype=x.data.dtype), back)


def parameter_count(params: dict[str, Tensor]) -> int:
    return sum(p.size for p in params.values())


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")

    def back(g):
        contribs = []
        if a.requires_grad:
            contribs.append((a, g))
        if b.requires_grad:
            contribs.append((b, -g))
        return contribs

    return _record("sub", (a, b), a.data - b.data, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")

    def back(g):
        contribs = []
        if a.requires_grad:
            contribs.append((a, g * b.data))
        if b.requires_grad:
            contribs.append((b, g * a.data))
        return contribs

    return _record("mul", (a, b), a.data * b.data, back)


# ---------------------------------------------------------------------------
# The attention core and the feed-forward sublayer as chains of tape ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes, batched over equal leading axes.

    A rank-2 `a` may also meet a `b` with leading axes: it is broadcast over
    them, and its gradient is summed over them.
    """
    lead = b.shape[:-2]
    if (a.ndim < 2 or b.ndim < 2 or a.shape[:-2] not in (lead, ())
            or a.shape[-1:] != b.shape[-2:-1]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        contribs = []
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            contribs.append((a, ga if a.ndim == b.ndim else ga.reshape((-1,) + a.shape).sum(axis=0)))
        if b.requires_grad:
            contribs.append((b, a.data.swapaxes(-1, -2) @ g))
        return contribs

    return _record("matmul", (a, b), out, back)


def softmax_rows(x: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Softmax over the last dimension, computed with max subtraction.

    `bias` is a constant added to x first, such as a key mask bias; it must
    broadcast to x's shape. It takes no gradient.
    """
    if bias is not None and np.broadcast_shapes(bias.shape, x.shape) != x.shape:
        raise ShapeError(f"softmax_rows: bias {bias.shape} does not broadcast to {x.shape}")
    # The backward reads only `out`, so one fresh array is shifted,
    # exponentiated and normalized in place.
    if bias is None:
        out = x.data - x.data.max(axis=-1, keepdims=True)
    else:
        out = x.data + bias
        out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return [(x, out * (g - inner))]

    return _record("softmax_rows", (x,), out, back)


def reference_attention(q: Tensor, k: Tensor, v: Tensor, mask_bias=None) -> Tensor:
    """`scaled_dot_attention` as five tape ops: permute, matmul, scale, softmax, matmul."""
    k_t = permute(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = scale(matmul(q, k_t), 1.0 / np.sqrt(q.shape[-1]))
    return matmul(softmax_rows(scores, mask_bias), v)


def reference_feed_forward(ffn, x: Tensor) -> Tensor:
    """`FeedForward` as three tape ops: linear, relu, linear."""
    return linear(relu(linear(x, ffn.w1, ffn.b1)), ffn.w2, ffn.b2)


# ---------------------------------------------------------------------------
# Tape ops used only by the per-step cell
# ---------------------------------------------------------------------------


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """x + bias, a (d,) bias broadcast over the rows of a (..., d) tensor."""
    if bias.ndim != 1 or x.shape[-1:] != bias.shape:
        raise ShapeError(f"add_bias: incompatible shapes {x.shape} + {bias.shape}")

    def back(g):
        contribs = []
        if x.requires_grad:
            contribs.append((x, g))
        if bias.requires_grad:
            contribs.append((bias, g.reshape(-1, bias.shape[0]).sum(axis=0)))
        return contribs

    return _record("add_bias", (x, bias), x.data + bias.data, back)


def _sigmoid_grad(out_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * out_data * (1.0 - out_data)


def sigmoid(x: Tensor) -> Tensor:
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        return [(x, _sigmoid_grad(out, g))] if x.requires_grad else []

    return _record("sigmoid", (x,), out, back)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def back(g):
        return [(x, g * (1.0 - out * out))] if x.requires_grad else []

    return _record("tanh", (x,), out, back)


def cumsum_last(x: Tensor) -> Tensor:
    """Cumulative sum along the last dimension."""
    out = np.cumsum(x.data, axis=-1)

    def back(g):
        if not x.requires_grad:
            return []
        return [(x, np.flip(np.cumsum(np.flip(g, axis=-1), axis=-1), axis=-1))]

    return _record("cumsum_last", (x,), out, back)


def repeat_last(x: Tensor, k: int) -> Tensor:
    """Repeat each entry of the last dimension k times (chunk expansion)."""
    out = np.repeat(x.data, k, axis=-1)

    def back(g):
        if not x.requires_grad:
            return []
        return [(x, g.reshape(*x.shape, k).sum(axis=-1))]

    return _record("repeat_last", (x,), out, back)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.shape[-1]):
        raise ShapeError(f"slice_last: [{start}:{stop}] out of range for {x.shape}")

    def back(g):
        if not x.requires_grad:
            return []
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        return [(x, full)]

    return _record("slice_last", (x,), x.data[..., start:stop], back)


def stack_steps(steps: Sequence[Tensor]) -> Tensor:
    """Stack per-step (b, d) tensors into a (b, N, d) sequence tensor."""
    steps = tuple(steps)
    if not steps:
        raise ShapeError("stack_steps: no steps")
    out = np.stack([s.data for s in steps], axis=1)

    def back(g):
        return [(s, g[:, t, :]) for t, s in enumerate(steps) if s.requires_grad]

    return _record("stack_steps", steps, out, back)


# ---------------------------------------------------------------------------
# The per-step cells and the scan built from them
# ---------------------------------------------------------------------------


def cumax(logits: Tensor) -> Tensor:
    """Cumulative sum of a softmax along the last axis: non-decreasing, ending at 1."""
    return cumsum_last(softmax_rows(logits))


def _standard_gates(params: LstmParams, x_t: Tensor, h_prev: Tensor):
    dh = params.d_hidden
    z = add_bias(add(matmul(x_t, params.w_x), matmul(h_prev, params.w_h)), params.bias)
    f = sigmoid(slice_last(z, 0, dh))
    i = sigmoid(slice_last(z, dh, 2 * dh))
    o = sigmoid(slice_last(z, 2 * dh, 3 * dh))
    g = tanh(slice_last(z, 3 * dh, 4 * dh))
    return f, i, o, g


def _cell_update(f, i, o, g, c_prev, f_master=None, i_master=None):
    """Shared state update; master gates, when given, reshape erase/write."""
    if f_master is not None:
        w = mul(f_master, i_master)
        f = add(mul(f, w), sub(f_master, w))
        i = add(mul(i, w), sub(i_master, w))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh(c))
    return h, c


def lstm_cell_step(
    params: LstmParams, x_t: Tensor, state: tuple[Tensor, Tensor]
) -> tuple[Tensor, Tensor]:
    """One standard cell step: (h, c) -> (h', c')."""
    h_prev, c_prev = state
    f, i, o, g = _standard_gates(params, x_t, h_prev)
    return _cell_update(f, i, o, g, c_prev)


def master_gates(
    params: LstmParams,
    x_t: Tensor,
    h_prev: Tensor,
    trace: list | None = None,
) -> tuple[Tensor, Tensor]:
    """Chunk-level erase/write gates expanded to neuron resolution.

    The erase gate is the cumulative softmax of its head (rising to 1); the
    write gate is one minus the cumulative softmax of its own head, so it
    falls to 0. Chunk values are repeated across each chunk's neurons. When
    `trace` is given the chunk-level values are appended to it as numpy
    copies.
    """
    m = params.d_hidden // params.chunk
    z = add_bias(
        add(matmul(x_t, params.w_x_master), matmul(h_prev, params.w_h_master)),
        params.bias_master,
    )
    f_chunk = cumax(slice_last(z, 0, m))
    cu = cumax(slice_last(z, m, 2 * m))
    i_chunk = sub(constant(np.ones_like(cu.data)), cu)
    if trace is not None:
        trace.append((f_chunk.data.copy(), i_chunk.data.copy()))
    if params.chunk == 1:
        return f_chunk, i_chunk
    return repeat_last(f_chunk, params.chunk), repeat_last(i_chunk, params.chunk)


def on_lstm_cell_step(
    params: LstmParams,
    x_t: Tensor,
    state: tuple[Tensor, Tensor],
    trace: list | None = None,
) -> tuple[Tensor, Tensor]:
    """One ordered-cell step: (h, c) -> (h', c')."""
    h_prev, c_prev = state
    f, i, o, g = _standard_gates(params, x_t, h_prev)
    f_tilde, i_tilde = master_gates(params, x_t, h_prev, trace=trace)
    return _cell_update(f, i, o, g, c_prev, f_tilde, i_tilde)


def forced_onlstm_step(params, x_t, state, masters):
    """One ordered-cell step with fixed (erase, write) master gates."""
    h_prev, c_prev = state
    f, i, o, g = _standard_gates(params, x_t, h_prev)
    return _cell_update(f, i, o, g, c_prev, *masters)


def tape_scan(enc, x: Tensor, packing: Packing | None = None, rng=None, trace=None) -> Tensor:
    """A `RecurrentEncoder`'s scan computed with the per-step tape cells.

    Takes a time-major (N, batch, d_in) input, padding included, and returns
    the (batch, N, d_hidden) tensor. With an rng, each layer above the first
    draws its dropout mask as `enc(rows, packing, rng)` does (see
    `grid_dropout_mask`), which needs the batch's packing.
    """
    clean = [_step(x, t) for t in range(x.shape[0])]
    batch, dh = x.shape[1], enc.d_hidden
    for li, layer in enumerate(enc.layers):
        mask = grid_dropout_mask(packing, dh, enc.dropout_rate, rng, x.dtype) if li else None
        fed = clean if mask is None else [mul(s, constant(mask[:, t])) for t, s in enumerate(clean)]
        h = c = constant(np.zeros((batch, dh), dtype=x.dtype))
        layer_trace = trace.setdefault(li, []) if trace is not None and layer.chunk is not None else None
        outs = []
        for x_t in fed:
            if layer.chunk is not None:
                h, c = on_lstm_cell_step(layer, x_t, (h, c), trace=layer_trace)
            else:
                h, c = lstm_cell_step(layer, x_t, (h, c))
            outs.append(h)
        clean = [add(o, s) for o, s in zip(outs, clean)] if li else outs
    return stack_steps(clean)


def _step(x: Tensor, t: int) -> Tensor:
    """x[t] of a time-major tensor, recorded on the tape."""

    def back(g):
        full = np.zeros_like(x.data)
        full[t] = g
        return [(x, full)]

    return _record("step", (x,), x.data[t], back)


# ---------------------------------------------------------------------------
# Packed rows and the padded formulation
# ---------------------------------------------------------------------------


def pack(x: np.ndarray, mask=None) -> tuple[Tensor, Packing]:
    """The packed rows of a padded (B, N, d) array, and their Packing."""
    packing = Packing(np.ones(x.shape[:2]) if mask is None else mask)
    return Tensor(x.reshape(-1, x.shape[-1])[packing.index]), packing


def unpack(rows: Tensor, packing: Packing) -> np.ndarray:
    """Packed (T, d) rows as a padded (B, N, d) array, 0 at padding."""
    return unpack_rows(rows, packing).data


def grid_dropout_mask(packing: Packing, d: int, rate: float, rng, dtype) -> np.ndarray | None:
    """The scaled keep mask `dropout` draws for packed (T, d) rows, on the padded grid.

    One `rng.random((T, d))` draw, as `tensor.dropout` makes, scattered onto
    a (B, N, d) array that is 0 at padding; None when dropout is off.
    """
    if rng is None or rate == 0.0:
        return None
    keep = np.zeros((packing.shape[0] * packing.shape[1], d), dtype=bool)
    keep[packing.index] = rng.random((len(packing.index), d)) >= rate
    return keep.reshape(packing.shape + (d,)).astype(dtype) / (1.0 - rate)


def grid_dropout(x: Tensor, rate: float, rng, packing: Packing) -> Tensor:
    """`dropout` of a padded (B, N, d) tensor with the packed rows' mask."""
    mask = grid_dropout_mask(packing, x.shape[-1], rate, rng, x.dtype)
    return x if mask is None else mul(x, constant(mask))


def padded_mha(mha, x: Tensor, packing: Packing) -> Tensor:
    """`MultiHeadAttention` over a padded (B, N, d) tensor."""
    batch, n, _ = x.shape

    def split(y):
        return permute(reshape(y, (batch, n, mha.heads, mha.d_head)), (0, 2, 1, 3))

    mixed = scaled_dot_attention(split(linear(x, mha.w_q, mha.b_q)), split(linear(x, mha.w_k)),
                                 split(linear(x, mha.w_v)), packing.key_bias(x.dtype)[:, None])
    return linear(reshape(permute(mixed, (0, 2, 1, 3)), (batch, n, mha.d)), mha.w_o, mha.b_o)


def padded_san(san, x: Tensor, packing: Packing, rng=None) -> Tensor:
    """`SanEncoder` over a padded (B, N, d) tensor: every op runs on the padding too."""
    x = grid_dropout(x, san.dropout_rate, rng, packing)
    for layer in san.layers:
        rate = layer.dropout_rate
        x = add(x, grid_dropout(padded_mha(layer.mha, layer_norm(x, layer.ln1), packing), rate, rng, packing))
        x = add(x, grid_dropout(layer.ffn(layer_norm(x, layer.ln2)), rate, rng, packing))
    return layer_norm(x, san.final)


def padded_encode(enc, ids: np.ndarray, mask=None, rng=None, trace=None) -> Tensor:
    """`Encoder` output as a padded (B, N, d) tensor, computed on the whole grid.

    With an rng, every dropout site draws its mask as the packed encoder does.
    """
    cfg = enc.config
    packing = Packing(np.ones(ids.shape) if mask is None else mask)
    h = enc._embed_seq(ids)
    if enc.rnn is None:
        pos = sinusoidal_positions(ids.shape[1], cfg.d).astype(h.dtype)
        h = add(h, constant(np.broadcast_to(pos, h.shape).copy()))
    else:
        h = grid_dropout(h, cfg.dropout, rng, packing)
        h = tape_scan(enc.rnn, permute(h, (1, 0, 2)), packing, rng=rng, trace=trace)
    if enc.san is None:
        return h
    h_san = padded_san(enc.san, h, packing, rng)
    return add(h, h_san) if cfg.use_short_cut else h_san


def padded_logits(model, ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """`PairClassifier.forward_joint` at eval, pooling the padded encoder output."""
    seq = padded_encode(model.encoder, ids, mask)
    batch = ids.shape[0]
    if model.queries is None:
        last = np.asarray(mask).sum(axis=1).astype(np.int64) - 1
        pooled = constant(seq.data[np.arange(batch), last])
    else:
        pooled = scaled_dot_attention(model.queries, seq, seq, Packing(mask).key_bias(seq.dtype))
        pooled = reshape(pooled, (batch, -1))
    pair = reshape(permute(reshape(pooled, (2, batch // 2, -1)), (1, 0, 2)), (batch // 2, -1))
    return model.head(pair)


def all_rows_logits(model, ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """`PairClassifier.forward_joint` without dropout, encoding every row, repeats included."""
    b = ids.shape[0] // 2
    pooled = model._pooled(ids, mask)
    pair = reshape(permute(reshape(pooled, (2, b, -1)), (1, 0, 2)), (b, -1))
    return model.head(pair)
