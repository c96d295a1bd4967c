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

    def step(self) -> None:
        self.step_count += 1
        correct1 = 1.0 - self.beta1**self.step_count
        correct2 = 1.0 - self.beta2**self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            p.data -= self.lr * update

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
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericsError(f"gradient norm is not finite ({norm})")
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm
