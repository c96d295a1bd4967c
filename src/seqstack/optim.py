"""Adam with bias correction and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .tensor import Tensor


class Adam:
    """First/second-moment adaptive updates with bias correction.

    `params` is a name -> Tensor mapping; moment buffers are kept per name so
    a checkpoint-restored model can resume with a fresh optimizer. `lr` is
    finite and >= 0 (`TrainConfig` checks it when built).
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        # Per dtype, two flat buffers the size of the largest parameter hold
        # each update's intermediates, so a step allocates no temporaries.
        sizes: dict = {}
        for p in self.params.values():
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in sizes.items()}

    def step(self) -> None:
        """One update, in place: the same ufuncs in the same order as
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p -= lr * (m/c1) / (sqrt(v/c2) + eps), so bit for bit those values."""
        self.step_count += 1
        correct1 = 1.0 - self.beta1**self.step_count
        correct2 = 1.0 - self.beta2**self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            a, b = (s[: g.size].reshape(g.shape) for s in self._scratch[p.dtype])
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, correct1, out=a)
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            a *= self.lr
            p.data -= a

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Rescale all gradients together so their joint L2 norm is at most max_norm > 0.

    Returns the pre-clip norm. A non-finite norm aborts instead of silently
    propagating, since every later update would be poisoned.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(np.square(p.grad, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericsError(f"gradient norm is not finite ({norm})")
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm
