"""Recurrent encoders, including the ordered-chunk gated variant.

The ordered cell augments a standard LSTM with two chunk-level master gates
built from a monotone cumulative-softmax activation (cumax: a softmax, then
a running sum). The erase gate rises across chunks, the write gate falls,
and their overlap decides where the standard gates act; outside the overlap
the master values take over directly (Shen et al. 2019, arXiv:1810.09536).

Each layer is one fused kernel: the whole scan runs in plain numpy over the
packed rows of a batch (see `tensor.Packing`) and is recorded as a single
tape entry whose backward is hand-written backpropagation through time.
Each step runs only the sequences that have not ended, makes one input and
one hidden matmul, against the gate weights concatenated with the master
heads' weights, builds its gate logits inside the hidden product's array,
and keeps what the backward reads only while the tape records.
`tests/tape_helpers.py` keeps the per-step cell built from tape ops; the
tests hold the kernel's forward to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import (Module, Packing, Tensor, _grad_recording, _record, default_dtype, dropout,
                     parameter, uniform_parameter)


class LstmParams(Module):
    """Fused input/hidden projections for the four gates, order (f, i, o, candidate).

    Given a `chunk`, the cell is ordered: two master-gate heads add
    chunk-level logits, one master value steering `chunk` neurons.
    Weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); the forget-gate
    bias starts at +1 so early training does not erase state.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator, chunk: int | None = None):
        self.d_in = d_in
        self.d_hidden = d_hidden
        self.chunk = chunk
        dt = default_dtype()
        sx = 1.0 / np.sqrt(d_in)
        sh = 1.0 / np.sqrt(d_hidden)
        self.w_x = uniform_parameter(rng, sx, d_in, 4 * d_hidden)
        self.w_h = uniform_parameter(rng, sh, d_hidden, 4 * d_hidden)
        bias = np.zeros(4 * d_hidden, dtype=dt)
        bias[:d_hidden] = 1.0
        self.bias = parameter(bias)
        if chunk is not None:
            m2 = 2 * (d_hidden // chunk)
            self.w_x_master = uniform_parameter(rng, sx, d_in, m2)
            self.w_h_master = uniform_parameter(rng, sh, d_hidden, m2)
            self.bias_master = parameter(np.zeros(m2, dtype=dt))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where x >= 0, else e / (1 + e), with e = exp(-|x|).

    max(e, x >= 0) picks the numerator (e <= 1): the bits of the two-branch
    select, without the cost of np.where's masked select. Each step runs
    in place inside one of its own two arrays.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def _sigmoid_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient through a sigmoid gate, from its output and upstream gradient."""
    return g * out * (1.0 - out)


def _cumax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis and its running sum (cumax)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, np.cumsum(p, axis=-1)


def _gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w summed by gemm even for one row of a.

    numpy hands a one-row product to gemv, which sums in another order than
    gemm. Once a scan's batch has shrunk to one sequence, doubling the row
    keeps the bits of the full batch's product.
    """
    return a @ w if len(a) != 1 else (np.concatenate([a, a]) @ w)[:1]


def scan_layer(
    params: LstmParams,
    x: Tensor,
    packing: Packing,
    skip: Tensor | None = None,
    trace: list | None = None,
) -> Tensor:
    """Run one cell from a zero state over packed (T, d_in) input rows.

    Returns the hidden states, plus `skip` when given, as packed
    (T, d_hidden) rows. Step t runs only the sequences still going, the
    first rows of the step before. For an ordered cell, `trace` receives
    each step's chunk-level (erase, write) gates, one row per running
    sequence in packed order. The scan is one tape entry.
    """
    chunk = params.chunk
    on = chunk is not None
    if x.shape != (len(packing.steps), params.d_in):
        raise ShapeError(f"scan input must be ({len(packing.steps)}, {params.d_in}) packed rows, got {x.shape}")
    dh = params.d_hidden
    # LstmParams assigns (input weight, hidden weight, bias) per block, the four
    # gates and then the master heads, so parameters() lists them in that order
    leaves = list(params.parameters().values())
    m = dh // chunk if on else 0
    w_x, w_h, bias = (np.concatenate([p.data for p in leaves[k::3]], axis=-1) for k in range(3))
    inputs = (x, *leaves) + ((skip,) if skip is not None else ())
    saving = _grad_recording(inputs)
    saved = []  # per step, only while the tape records: what the backward reads
    # The products sum as the padded batch's per-step products did: by gemm,
    # or row by row by gemv when the batch holds one sequence. The input
    # product runs once for all steps.
    many = packing.shape[0] > 1
    x_w = x.data @ w_x if many else (x.data[:, None] @ w_x)[:, 0]
    h_w = _gemm if many else np.matmul
    spans = [(lo, hi) for lo, hi in zip(packing.offsets[:-1], packing.offsets[1:]) if hi > lo]
    out = np.empty((x.shape[0], dh), dtype=x.dtype)
    h = c = np.zeros((packing.batch_sizes[0], dh), dtype=x.dtype)
    for lo, hi in spans:
        b = hi - lo
        h_prev, c_prev = h[:b], c[:b]
        z = h_w(h_prev, w_h)  # x_w[lo:hi] + h_prev @ w_h + bias, summed in place
        z += x_w[lo:hi]
        z += bias
        s = _sigmoid(z[:, : 3 * dh])
        f, i, o = s[:, :dh], s[:, dh : 2 * dh], s[:, 2 * dh : 3 * dh]
        g = np.tanh(z[:, 3 * dh : 4 * dh])
        if on:
            p, cum = _cumax(z[:, 4 * dh :].reshape(b, 2, m))
            f_chunk, i_chunk = cum[:, 0], 1.0 - cum[:, 1]
            if trace is not None:
                trace.append((f_chunk.copy(), i_chunk))
            ft = f_chunk if chunk == 1 else np.repeat(f_chunk, chunk, axis=-1)
            it = i_chunk if chunk == 1 else np.repeat(i_chunk, chunk, axis=-1)
            w = ft * it
            f = f * w + (ft - w)
            i = i * w + (it - w)
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        out[lo:hi] = h if skip is None else h + skip.data[lo:hi]
        if saving:
            saved.append((h_prev, c_prev, s, g, tc, f, i) + ((ft, it, w, p) if on else ()))

    def back(g_out):
        dz = np.empty((x.shape[0], w_x.shape[1]), dtype=x.dtype)
        if on:
            # chunk sums, then cumsum's backward (a reverse running sum), as one matmul
            rev = (np.arange(dh)[:, None] // chunk >= np.arange(m)).astype(x.dtype)
        # Gradients carried back from step t + 1. The batch grows going back,
        # and the rows of sequences that end at step t were never written: 0.
        dh_rec = np.zeros((packing.batch_sizes[0], dh), dtype=x.dtype)
        dc_rec = np.zeros_like(dh_rec)
        for (lo, hi), step in zip(reversed(spans), reversed(saved)):
            # f and i are the effective erase/write gates: raw, or master-blended
            _, c_prev, s, g, tc, f, i = step[:7]
            b = hi - lo
            dz_t = dz[lo:hi]
            d_h = g_out[lo:hi] + dh_rec[:b]
            d_c = d_h * s[:, 2 * dh :] * (1.0 - tc * tc) + dc_rec[:b]
            d_f, d_i = d_c * c_prev, d_c * g
            np.multiply(d_c * i, 1.0 - g * g, out=dz_t[:, 3 * dh : 4 * dh])
            if on:
                ft, it, w, p = step[7:]
                d_w = d_f * (s[:, :dh] - 1.0) + d_i * (s[:, dh : 2 * dh] - 1.0)
                d_m = np.stack([d_f + d_w * it, -(d_i + d_w * ft)], axis=1)
                d_cum = (d_m.reshape(2 * b, dh) @ rev).reshape(b, 2, m)
                d_cum = p * (d_cum - (d_cum * p).sum(axis=-1, keepdims=True))
                dz_t[:, 4 * dh :] = d_cum.reshape(b, 2 * m)
                d_f, d_i = d_f * w, d_i * w
            dz_t[:, : 3 * dh] = _sigmoid_grad(s, np.concatenate([d_f, d_i, d_h * tc], axis=-1))
            np.multiply(d_c, f, out=dc_rec[:b])
            np.matmul(dz_t, w_h.T, out=dh_rec[:b])
        h_prev = np.concatenate([step[0] for step in saved])
        full = (x.data.T @ dz, h_prev.T @ dz, dz.sum(axis=0))
        cut = (0, 4 * dh, dz.shape[1])
        grads = [(x, dz @ w_x.T)]
        if skip is not None:
            grads.append((skip, g_out))
        for k, grad in enumerate(full):
            grads += [(leaf, grad[..., cut[j] : cut[j + 1]]) for j, leaf in enumerate(leaves[k::3])]
        return [(tensor, grad) for tensor, grad in grads if tensor.requires_grad]

    return _record("scan_layer", inputs, out, back)


class RecurrentEncoder(Module):
    """K stacked unidirectional cells scanning left to right.

    Input and output are packed rows (see `tensor.Packing`): (T, d_in) in,
    the top layer's (T, d_hidden) out. Each sequence runs over its own
    steps only, so its rows equal those of an unpadded run.

    Dropout, given an rng, is applied to the input of layers above the
    first; returned outputs are raw. Layers above the first add their
    (undropped) input back onto their output. Given a `chunk`, every cell
    is ordered, and `trace` collects each layer's master gates by index.
    """

    def __init__(
        self,
        layers: int,
        d_in: int,
        d_hidden: int,
        rng: np.random.Generator,
        chunk: int | None = None,
        dropout_rate: float = 0.0,
    ):
        self.d_hidden = d_hidden
        self.dropout_rate = dropout_rate
        self.layers = [
            LstmParams(d_in if li == 0 else d_hidden, d_hidden, rng, chunk) for li in range(layers)
        ]

    def __call__(
        self,
        x: Tensor,
        packing: Packing,
        rng: np.random.Generator | None = None,
        trace: dict[int, list] | None = None,
    ) -> Tensor:
        clean = x
        for li, layer in enumerate(self.layers):
            fed = dropout(clean, self.dropout_rate, rng) if li else clean
            layer_trace = trace.setdefault(li, []) if trace is not None and layer.chunk is not None else None
            clean = scan_layer(layer, fed, packing, skip=clean if li else None, trace=layer_trace)
        return clean
