"""Finite-difference verification of tape gradients.

Central differences against the analytic gradients from backward(). Checks
must run in float64; at float32 the difference quotient loses too many digits
to certify anything. Models are built in float32, and a model computes in its
parameters' dtype, so `to_float64` turns one into a float64 model to check.
The step is small enough that a relu kink sitting inside the probe window
(which makes the two-sided quotient average the slopes of both sides) is
vanishingly rare.

A small step costs precision. Each loss evaluation is exact only to about
eps * |L|, so the quotient (L(x+h) - L(x-h)) / 2h carries a rounding error of
up to eps * max(|L(x+h)|, |L(x-h)|) / h, about 4e-10 for a loss near 2 at
h = 1e-6. For an entry whose gradient is below about 1e-7 that is more than
the relative tolerance allows, though the backward pass is right. The error
measure therefore discounts this rounding bound before dividing (see
finite_difference_check). A larger step is no cure: at 1e-5 some entries
still fall below the rounding floor, and at 1e-4 the probe window starts to
cross relu kinks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, NumericsError
from .tensor import Tensor, backward, no_grad, tape_scope

DEFAULT_STEP = 1e-6
_EPS = float(np.finfo(np.float64).eps)


class GradientGap(float):
    """A parameter's worst relative error, the pass/fail measure, carrying the
    worst raw gap |ad - fd| / max(|ad|, |fd|, 1e-8), the rounding bound of
    that entry over the same denominator, and that relative bound for every
    probed entry (`bounds`)."""

    def __new__(cls, error: float, raw: float, roundoff: float,
                bounds: np.ndarray) -> "GradientGap":
        gap = super().__new__(cls, error)
        gap.raw, gap.roundoff, gap.bounds = raw, roundoff, bounds
        return gap


def to_float64(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Cast every parameter to float64 in place, and return `params`."""
    for p in params.values():
        p.data = p.data.astype(np.float64)
    return params


def finite_difference_check(
    build_loss: Callable[[], Tensor],
    params: dict[str, Tensor],
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, GradientGap]:
    """Compare analytic and numeric gradients for every parameter.

    `build_loss` must rebuild the scalar loss from scratch on each call and be
    deterministic (fix any dropout stream, or disable it). Returns the maximum
    relative error per parameter. The relative error of one entry is

        max(|ad - fd| - eps * max(|L(x+h)|, |L(x-h)|) / h, 0) / max(|ad|, |fd|, 1e-8)

    where eps is the float64 machine epsilon and h is DEFAULT_STEP: the gap
    between the analytic gradient `ad` and the central quotient `fd` counts
    only where it exceeds the quotient's own rounding bound.

    With `max_entries`, a random subset of entries per parameter is probed
    (requires `rng`); otherwise every entry is.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ContractError(
                f"finite_difference_check requires float64 parameters; {name!r} is "
                f"{p.data.dtype.name}"
            )
    if max_entries is not None and rng is None:
        raise ContractError("max_entries sampling needs an rng")

    for p in params.values():
        p.zero_grad()
    with tape_scope():
        loss = build_loss()
        backward(loss)

    def loss_value() -> float:
        with tape_scope(), no_grad():
            return build_loss().item()

    worst: dict[str, GradientGap] = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(analytic)):
            raise NumericsError(f"analytic gradient of {name!r} is not finite")
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            indices = rng.choice(n, size=max_entries, replace=False)
        else:
            indices = np.arange(n)
        a_flat = analytic.reshape(-1)
        error = raw = roundoff = 0.0
        bounds = np.empty(len(indices))
        for j, i in enumerate(indices):
            original = flat[i]
            flat[i] = original + DEFAULT_STEP
            hi = loss_value()
            flat[i] = original - DEFAULT_STEP
            lo = loss_value()
            flat[i] = original
            fd = (hi - lo) / (2.0 * DEFAULT_STEP)
            if not np.isfinite(fd):
                raise NumericsError(f"numeric gradient of {name!r} is not finite")
            ad = float(a_flat[i])
            bound = _EPS * max(abs(hi), abs(lo)) / DEFAULT_STEP
            scale = max(abs(ad), abs(fd), 1e-8)
            bounds[j] = bound / scale
            error = max(error, max(abs(ad - fd) - bound, 0.0) / scale)
            if abs(ad - fd) / scale >= raw:
                raw, roundoff = abs(ad - fd) / scale, bounds[j]
        worst[name] = GradientGap(error, raw, roundoff, bounds)
    return worst
