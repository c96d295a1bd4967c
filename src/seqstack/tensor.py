"""Dense tensors with a reverse-mode gradient tape.

Storage is a numpy array; every differentiable operation records an entry on
the calling thread's active GradTape (operation id, output ref, and a closure
over the saved intermediates and the inputs). backward() replays the tape in
reverse, accumulating gradients additively so fan-out works, and stores
`.grad` on leaves only: tensors that require gradients but no op on the tape
produced. `replay` runs the same loop over any tape from a seed gradient and
returns the leaf gradients instead, so a tape recorded on one thread can be
backpropagated on another.

Ops here are the generic ones. An op that fuses a layer's chain of steps
lives beside its module (`recurrent.scan_layer`, `attention.FeedForward`
and `attention.scaled_dot_attention`) and records through `_record` too.
An op may work in place only inside arrays it made itself; it never writes
its inputs, nor an array its backward has handed on.

Parameters are built in float32 (`default_dtype`), and every op keeps its
operands' dtype, so a model computes in its parameters' dtype: cast them to
float64 (`gradcheck.to_float64`) and the whole pass runs in float64. Scalar
factors must therefore be Python floats: NumPy 2 treats a Python float as a
weak scalar, but an `np.float64` scalar (say, `np.sqrt(d)`) would promote a
float32 operand to float64.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError

LAYER_NORM_EPS = 1e-6
MASK_FILL = -1e9  # attention-score offset of a padding key

_grad_enabled = True


def default_dtype() -> type:
    """The dtype every parameter is built in."""
    return np.float32


class Tensor:
    """A dense n-dimensional value that can participate in the gradient tape.

    `data` is the numpy buffer, `grad` a lazily allocated same-shape buffer.
    Tensors built from plain Python data are `default_dtype`; tensors built
    from a float numpy array or scalar keep its precision.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, (np.ndarray, np.generic)) and data.dtype in (np.float32, np.float64):
            array = np.asarray(data)
        else:
            array = np.asarray(data, dtype=default_dtype())
        self.data = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g`, of this tensor's dtype, to `.grad`: the first gradient is
        copied, and later ones are added in place into that private copy."""
        if g.dtype != self.data.dtype:
            raise ContractError(f"a {g.dtype} gradient for a {self.data.dtype} tensor")
        if self.grad is None:
            self.grad = g.copy(order="K")
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def uniform_parameter(rng: np.random.Generator | None, bound: float, *shape: int) -> Tensor:
    """A parameter of `shape` drawn from U(-bound, bound), in `default_dtype`;
    zero, with no draw, without a generator (a structure to restore into)."""
    if rng is None:
        return parameter(np.zeros(shape, dtype=default_dtype()))
    return parameter(rng.uniform(-bound, bound, shape).astype(default_dtype()))


def affine_parameters(rng: np.random.Generator | None, d_in: int, d_out: int, gain: float = 1.0):
    """A (d_in, d_out) weight from U(+-gain / sqrt(d_in)) and a zero (d_out,) bias."""
    w = uniform_parameter(rng, gain / np.sqrt(d_in), d_in, d_out)
    return w, parameter(np.zeros(d_out, dtype=default_dtype()))


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Module:
    """A model part whose parameters are its attributes.

    `parameters` walks `vars(self)` in assignment order: a tensor that
    requires a gradient is a parameter named after its attribute, a Module
    attribute adds its own parameters under `name.`, and a list of Modules
    adds item i's under `layer{i}.`. So the names, which are checkpoint
    keys, and the order, which is the order of the clip-norm sum, both
    follow from how a constructor assigns its attributes.
    """

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out[prefix + name] = value
            elif isinstance(value, Module):
                out.update(value.parameters(f"{prefix}{name}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.parameters(f"{prefix}layer{i}."))
        return out


class TapeEntry:
    """One recorded operation: id, output ref, backward closure.

    The closure maps the output gradient to (input, gradient) contributions;
    the inputs and saved intermediates live in the closure's cells.
    """

    __slots__ = ("op", "output", "backward")

    def __init__(self, op: str, output: Tensor, backward: Callable):
        self.op = op
        self.output = output
        self.backward = backward


class GradTape:
    """Ordered record of operations; execution order is the topological order."""

    def __init__(self):
        self.entries: list[TapeEntry] = []


class _Tapes(threading.local):
    """Each thread's tape stack; a thread starts with one base tape."""

    def __init__(self):
        self.stack = [GradTape()]


_tapes = _Tapes()


def active_tape() -> GradTape:
    """The innermost tape of the calling thread."""
    return _tapes.stack[-1]


@contextlib.contextmanager
def tape_scope():
    """Run with a fresh tape; entries are dropped when the scope exits."""
    tape = GradTape()
    _tapes.stack.append(tape)
    try:
        yield tape
    finally:
        _tapes.stack.pop()


@contextlib.contextmanager
def no_grad():
    """Disable recording: outputs are plain values with requires_grad=False.

    The switch is process-wide, so it also holds for work the caller hands
    to other threads while the block is open.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _grad_recording(inputs: tuple) -> bool:
    """Whether an op over `inputs` records on the tape (see _record)."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _record(op: str, inputs: tuple, out_data: np.ndarray, backward: Callable) -> Tensor:
    """Wrap `out_data`; record the op only if an input requires a gradient.

    So a single-input op's backward runs only when its input requires one.
    """
    out = Tensor(out_data)
    if _grad_recording(inputs):
        out.requires_grad = True
        active_tape().entries.append(TapeEntry(op, out, backward))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf reachable from `loss` on the active tape.

    A leaf is a tensor with requires_grad that no entry on the tape produced,
    such as a parameter. Gradients of intermediate outputs live only in a
    dict while the tape replays and are dropped once passed on; they are
    never stored on the tensors. Each call propagates exactly one unit of
    output gradient, so repeated calls without a grad reset accumulate.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward() on a tensor with no gradient path")
    for tensor, g in replay(active_tape(), loss, np.ones((), dtype=loss.data.dtype)):
        tensor.accumulate_grad(g)


def replay(tape: GradTape, output: Tensor, seed: np.ndarray) -> list[tuple[Tensor, np.ndarray]]:
    """Backpropagate gradient `seed` of `output` through `tape`, in reverse.

    Returns (leaf, gradient) for each tensor that requires a gradient, was
    reached and that no entry of `tape` produced, in the order first reached;
    writes no `.grad`. A leaf reached more than once gets one summed gradient.
    """
    pending: dict[int, list] = {id(output): [output, seed]}
    for entry in reversed(tape.entries):
        slot = pending.pop(id(entry.output), None)
        if slot is None:
            continue
        _, g = slot
        for tensor, contribution in entry.backward(g):
            held = pending.get(id(tensor))
            if held is None:
                pending[id(tensor)] = [tensor, contribution]
            else:
                held[1] = held[1] + contribution
    return [(tensor, g) for tensor, g in pending.values() if tensor.requires_grad]


def join_rows(first: Tensor, first_tape: GradTape, second: Tensor, second_tape: GradTape,
              worker) -> Tensor:
    """`first` stacked over `second` on axis 0, where each was recorded on its own tape.

    One entry on the active tape. Its backward replays `second_tape` on
    `worker` (an executor) while the calling thread replays `first_tape`,
    and returns the first tape's leaf gradients, then the second's: a leaf
    that both tapes reach gets its two gradients summed in that order,
    whichever thread finishes first.
    """
    n = first.shape[0]

    def back(g):
        theirs = worker.submit(replay, second_tape, second, g[n:])
        mine = replay(first_tape, first, g[:n])
        return mine + theirs.result()

    return _record("join_rows", (first, second), np.concatenate([first.data, second.data]), back)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map `x @ w + b` over the last axis of x, of any rank.

    One tape entry: x is flattened to (-1, d_in) rows, multiplied, the bias
    is added in place into the fresh product, and the rows are reshaped back.
    """
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or (b is not None and b.shape != w.shape[1:]):
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape} + "
                         f"{None if b is None else b.shape}")
    d_in, d_out = w.shape
    rows = x.data.reshape(-1, d_in)
    out = rows @ w.data
    if b is not None:
        out += b.data

    def back(g):
        g = g.reshape(-1, d_out)
        contribs = []
        if x.requires_grad:
            contribs.append((x, (g @ w.data.T).reshape(x.shape)))
        if w.requires_grad:
            contribs.append((w, rows.T @ g))
        if b is not None and b.requires_grad:
            contribs.append((b, g.sum(axis=0)))
        return contribs

    inputs = (x, w) if b is None else (x, w, b)
    return _record("linear", inputs, out.reshape(x.shape[:-1] + (d_out,)), back)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        return [(x, g.transpose(inverse))]

    return _record("permute", (x,), x.data.transpose(axes), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    original = x.shape

    def back(g):
        return [(x, g.reshape(original))]

    return _record("reshape", (x,), x.data.reshape(tuple(shape)), back)


# ---------------------------------------------------------------------------
# Packed rows
# ---------------------------------------------------------------------------


class Packing:
    """Where the real tokens of a right-padded (B, N) batch sit, as packed rows.

    Built once per batch from its 0/1 mask, which must be right padding (each
    row ones, then zeros) with at least one real token per row. Packed rows
    run time-major: step t holds the `batch_sizes[t]` sequences longer than t,
    longest first and ties in batch order, at rows offsets[t]:offsets[t + 1].
    So each step's sequences are a prefix of the step before's, and a
    recurrent scan drops finished sequences by shrinking its batch.

    `steps` holds each packed row's step and `index` its place in the padded
    (B, N) grid flattened to rows. `last` is the packed row of each
    sequence's last token, in batch order. The mask itself is not kept:
    `key_bias` rebuilds the padding from `index`.
    """

    def __init__(self, mask):
        mask = np.asarray(mask)
        if mask.ndim != 2 or mask.shape[1] < 1:
            raise DataError(f"a batch must be (B, N>=1) tokens, got shape {mask.shape}")
        batch, n = mask.shape
        lengths = mask.sum(axis=1).astype(np.int64)
        if not np.array_equal(mask, np.arange(n) < lengths[:, None]):
            raise DataError(f"mask must be {mask.shape} right padding: each row ones, then zeros")
        if np.any(lengths < 1):
            raise DataError("cannot encode a length-0 sequence")
        order = np.argsort(-lengths, kind="stable")
        rank = np.empty(batch, dtype=np.int64)
        rank[order] = np.arange(batch)
        self.shape = (batch, n)
        self.batch_sizes = np.count_nonzero(lengths > np.arange(n)[:, None], axis=1)
        self.offsets = np.concatenate(([0], np.cumsum(self.batch_sizes)))
        self.steps = np.repeat(np.arange(n), self.batch_sizes)
        rows = order[np.arange(self.offsets[-1]) - self.offsets[self.steps]]
        self.index = rows * n + self.steps
        self.last = self.offsets[lengths - 1] + rank

    def key_bias(self, dtype) -> np.ndarray:
        """Additive (B, 1, N) attention-score offset: 0 at real keys, MASK_FILL at padding."""
        bias = np.full(self.shape, MASK_FILL, dtype=dtype)
        bias.reshape(-1)[self.index] = 0.0
        return bias[:, None, :]


def pack_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows `index` of x with its leading axes flattened: (..., d) -> (len(index), d).

    The rows must be distinct; the backward writes each row's gradient back.
    """
    d = x.shape[-1]
    rows = x.data.reshape(-1, d)

    def back(g):
        full = np.zeros_like(rows)
        full[index] = g
        return [(x, full.reshape(x.shape))]

    return _record("pack_rows", (x,), rows[index], back)


def unpack_rows(x: Tensor, packing: Packing) -> Tensor:
    """Scatter packed (T, d) rows into a zero (B, N, d) array, the padded grid.

    The inverse of `pack_rows` with the packing's index; padding rows are 0.
    """
    index = packing.index
    if x.ndim != 2 or x.shape[0] != len(index):
        raise ShapeError(f"unpack_rows: need one index per row, got {len(index)} for {x.shape}")
    d = x.shape[1]
    out = np.zeros((packing.shape[0] * packing.shape[1], d), dtype=x.dtype)
    out[index] = x.data

    def back(g):
        return [(x, g.reshape(-1, d)[index])]

    return _record("unpack_rows", (x,), out.reshape(packing.shape + (d,)), back)


# ---------------------------------------------------------------------------
# Elementwise algebra
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")

    def back(g):
        contribs = []
        if a.requires_grad:
            contribs.append((a, g))
        if b.requires_grad:
            contribs.append((b, g))
        return contribs

    return _record("add", (a, b), a.data + b.data, back)


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def back(g):
        return [(x, g * factor)]

    return _record("scale", (x,), x.data * factor, back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def back(g):
        return [(x, g * (x.data > 0))]

    return _record("relu", (x,), out, back)


# ---------------------------------------------------------------------------
# Reductions and structured ops
# ---------------------------------------------------------------------------


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows: table must be rank 2, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DataError(f"gather_rows: id out of range for table {table.shape}")
    out = table.data[ids]

    def back(g):
        full = np.zeros_like(table.data)
        if ids.size:
            # A stable sort groups each id's rows in order of occurrence, and
            # a row-wise reduce sums each group in that order: the additions
            # of np.add.at, bit for bit, at a fraction of its cost.
            # (np.add.reduceat sums in another order and moves training.)
            flat = ids.reshape(-1)
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            rows = g.reshape(-1, table.shape[1])[order]
            bounds = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1], True])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                full[sorted_ids[lo]] = np.add.reduce(rows[lo:hi], axis=0)
        return [(table, full)]

    return _record("gather_rows", (table,), out, back)


def layer_norm(x: Tensor, gain: Tensor) -> Tensor:
    """Normalize each last-dim slice to zero mean / unit variance, then scale."""
    d = x.shape[-1]
    if gain.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} does not match last dim {d}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv  # normalised inside the centred copy
    out = xhat * gain.data

    def back(g):
        contribs = []
        if x.requires_grad:
            dxhat = g * gain.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            contribs.append((x, dx))
        if gain.requires_grad:
            contribs.append((gain, (g * xhat).reshape(-1, d).sum(axis=0)))
        return contribs

    return _record("layer_norm", (x, gain), out, back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    The rng is the training switch: without one (evaluation), and at rate 0,
    this is the identity (the same tensor, no tape entry). Otherwise the
    keep mask is one draw of x's own shape from `rng`, a named substream, so
    the mask sequence is reproducible. On packed rows only real tokens draw.
    """
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def back(g):
        return [(x, g * mask)]

    return _record("dropout", (x,), x.data * mask, back)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class over a (b, K) logit batch."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be rank 2, got {logits.shape}")
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} != ({b},)")
    bad = np.nonzero((labels < 0) | (labels >= k))[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(f"label {int(labels[i])} out of range [0,{k}) at example {i}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    picked = logits.data[np.arange(b), labels]
    out = np.asarray((lse - picked).mean(), dtype=logits.data.dtype)

    def back(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(b), labels] -= 1.0
        return [(logits, probs * (g / b))]

    return _record("cross_entropy", (logits,), out, back)
