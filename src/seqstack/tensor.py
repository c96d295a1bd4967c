"""Dense tensors with a reverse-mode gradient tape.

Storage is a numpy array; every differentiable operation records an entry on
the active GradTape (operation id, input refs, output ref, and a closure over
the saved intermediates). backward() replays the tape in reverse, accumulating
gradients additively so fan-out works.

Precision is build-selectable: float32 by default for training speed, float64
for finite-difference verification (see set_default_dtype / dtype_scope).
Every op keeps its operands' dtype. Scalar factors must therefore be Python
floats: NumPy 2 treats a Python float as a weak scalar, but an `np.float64`
scalar (say, `np.sqrt(d)`) would promote a float32 operand to float64.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError

LAYER_NORM_EPS = 1e-6

_DTYPES = {"float32": np.float32, "float64": np.float64}
_default_dtype = np.float32
_grad_enabled = True


def set_default_dtype(name: str) -> None:
    """Select the build precision: "float32" or "float64"."""
    global _default_dtype
    if name not in _DTYPES:
        raise ConfigError(f"unknown dtype {name!r}; expected one of {sorted(_DTYPES)}")
    _default_dtype = _DTYPES[name]


def default_dtype() -> type:
    return _default_dtype


@contextlib.contextmanager
def dtype_scope(name: str):
    """Temporarily switch the build precision (used by gradient-check suites)."""
    global _default_dtype
    previous = _default_dtype
    set_default_dtype(name)
    try:
        yield
    finally:
        _default_dtype = previous


class Tensor:
    """A dense n-dimensional value that can participate in the gradient tape.

    `data` is the numpy buffer, `grad` a lazily allocated same-shape buffer.
    Tensors built from plain Python data adopt the build's default dtype;
    tensors built from a float numpy array keep that array's precision.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            array = data
        else:
            array = np.asarray(data, dtype=_default_dtype)
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
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # Operator sugar for readable model code.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class TapeEntry:
    """One recorded operation: id, input refs, output ref, backward closure.

    The closure maps the output gradient to (input, gradient) contributions;
    saved intermediates live in the closure's cells.
    """

    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple, output: Tensor, backward: Callable):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


class GradTape:
    """Ordered record of operations; execution order is the topological order."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


_tape_stack: list[GradTape] = [GradTape()]


def active_tape() -> GradTape:
    return _tape_stack[-1]


@contextlib.contextmanager
def tape_scope():
    """Run with a fresh tape; entries are dropped when the scope exits."""
    tape = GradTape()
    _tape_stack.append(tape)
    try:
        yield tape
    finally:
        _tape_stack.pop()


@contextlib.contextmanager
def no_grad():
    """Disable recording: outputs are plain values with requires_grad=False."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _record(op: str, inputs: tuple, out_data: np.ndarray, backward: Callable) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        active_tape().entries.append(TapeEntry(op, inputs, out, backward))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad on every tensor reachable from `loss` on the active tape.

    Each call propagates exactly one unit of output gradient, so repeated
    calls without a grad reset accumulate.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward() on a tensor with no gradient path")
    pending: dict[int, list] = {id(loss): [loss, np.ones((), dtype=loss.data.dtype)]}
    for entry in reversed(active_tape().entries):
        slot = pending.pop(id(entry.output), None)
        if slot is None:
            continue
        _, g = slot
        if entry.output.requires_grad:
            entry.output.accumulate_grad(g)
        for tensor, contribution in entry.backward(g):
            held = pending.get(id(tensor))
            if held is None:
                pending[id(tensor)] = [tensor, contribution]
            else:
                held[1] = held[1] + contribution
    for tensor, g in pending.values():
        if tensor.requires_grad:
            tensor.accumulate_grad(g)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors with gradient recording."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        contribs = []
        if a.requires_grad:
            contribs.append((a, g @ b.data.T))
        if b.requires_grad:
            contribs.append((b, a.data.T @ g))
        return contribs

    return _record("matmul", (a, b), out, back)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: (B,n,k) @ (B,k,m) -> (B,n,m)."""
    if (
        a.ndim != 3
        or b.ndim != 3
        or a.shape[0] != b.shape[0]
        or a.shape[2] != b.shape[1]
    ):
        raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        contribs = []
        if a.requires_grad:
            contribs.append((a, g @ b.data.transpose(0, 2, 1)))
        if b.requires_grad:
            contribs.append((b, a.data.transpose(0, 2, 1) @ g))
        return contribs

    return _record("bmm", (a, b), out, back)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        return [(x, g.transpose(inverse))] if x.requires_grad else []

    return _record("permute", (x,), x.data.transpose(axes), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    original = x.shape

    def back(g):
        return [(x, g.reshape(original))] if x.requires_grad else []

    return _record("reshape", (x,), x.data.reshape(tuple(shape)), back)


# ---------------------------------------------------------------------------
# Elementwise algebra
# ---------------------------------------------------------------------------


def _bias_broadcastable(a: Tensor, b: Tensor) -> bool:
    return b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0]


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the only permitted broadcast is a trailing-dim bias."""
    if a.shape == b.shape:
        def back(g):
            contribs = []
            if a.requires_grad:
                contribs.append((a, g))
            if b.requires_grad:
                contribs.append((b, g))
            return contribs

        return _record("add", (a, b), a.data + b.data, back)
    if _bias_broadcastable(a, b):
        def back(g):
            contribs = []
            if a.requires_grad:
                contribs.append((a, g))
            if b.requires_grad:
                contribs.append((b, g.reshape(-1, b.shape[0]).sum(axis=0)))
            return contribs

        return _record("add", (a, b), a.data + b.data, back)
    raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")


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


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def back(g):
        return [(x, g * factor)] if x.requires_grad else []

    return _record("scale", (x,), x.data * factor, back)


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


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def back(g):
        return [(x, g * (x.data > 0))] if x.requires_grad else []

    return _record("relu", (x,), out, back)


# ---------------------------------------------------------------------------
# Reductions and structured ops
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last dimension, computed with max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        if not x.requires_grad:
            return []
        inner = (g * out).sum(axis=-1, keepdims=True)
        return [(x, out * (g - inner))]

    return _record("softmax_rows", (x,), out, back)


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


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat_last: no operands")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last: leading dims differ: {parts[0].shape} vs {p.shape}"
            )
    widths = [p.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)

    def back(g):
        contribs = []
        offset = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                contribs.append((p, g[..., offset : offset + w]))
            offset += w
        return contribs

    return _record("concat_last", parts, out, back)


def stack_steps(steps: Sequence[Tensor]) -> Tensor:
    """Stack per-step (b, d) tensors into a (b, N, d) sequence tensor."""
    steps = tuple(steps)
    if not steps:
        raise ShapeError("stack_steps: no steps")
    out = np.stack([s.data for s in steps], axis=1)

    def back(g):
        return [(s, g[:, t, :]) for t, s in enumerate(steps) if s.requires_grad]

    return _record("stack_steps", steps, out, back)


def select_steps(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one step per example: out[i] = x[i, indices[i], :]."""
    if x.ndim != 3:
        raise ShapeError(f"select_steps: expected rank 3, got {x.shape}")
    idx = np.asarray(indices)
    if idx.shape != (x.shape[0],):
        raise ShapeError(
            f"select_steps: need one index per example, got {idx.shape} for {x.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise ShapeError(f"select_steps: step index out of range for {x.shape}")
    rows = np.arange(x.shape[0])

    def back(g):
        if not x.requires_grad:
            return []
        full = np.zeros_like(x.data)
        full[rows, idx, :] = g
        return [(x, full)]

    return _record("select_steps", (x,), x.data[rows, idx, :], back)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the leading (batch) axis."""
    if not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows: bad range [{start}, {stop}) for {x.shape}")

    def back(g):
        if not x.requires_grad:
            return []
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return [(x, full)]

    return _record("slice_rows", (x,), x.data[start:stop], back)


def tile_batch(x: Tensor, batch: int) -> Tensor:
    """Prepend a batch axis by copying x `batch` times."""
    out = np.broadcast_to(x.data, (batch,) + x.shape).copy()

    def back(g):
        return [(x, g.sum(axis=0))] if x.requires_grad else []

    return _record("tile_batch", (x,), out, back)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows: table must be rank 2, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DataError(f"gather_rows: id out of range for table {table.shape}")
    out = table.data[ids]

    def back(g):
        if not table.requires_grad:
            return []
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each last-dim slice to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match last dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

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
        if bias.requires_grad:
            contribs.append((bias, g.reshape(-1, d).sum(axis=0)))
        return contribs

    return _record("layer_norm", (x, gain, bias), out, back)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Identity in eval mode and at rate 0. The generator must be a named
    substream so the mask sequence is reproducible.
    """
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    mask = keep / (1.0 - rate)

    def back(g):
        return [(x, g * mask)] if x.requires_grad else []

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
        if not logits.requires_grad:
            return []
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(b), labels] -= 1.0
        return [(logits, probs * (g / b))]

    return _record("cross_entropy", (logits,), out, back)
