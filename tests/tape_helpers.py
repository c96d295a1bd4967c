"""Test-side helpers built on seqstack's tape: code the program never calls.

`sum_all` and `mean_all` contract a tensor to a scalar loss for gradient
checks; they record on the active tape like the ops in `seqstack.tensor`.
`forced_onlstm_step` runs one ordered-cell step with given master gates, so
the forced-gate identities can be checked against the plain cell.
"""

import numpy as np

from seqstack.recurrent import _cell_update, _standard_gates
from seqstack.tensor import Tensor, _record


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


def forced_onlstm_step(params, x_t, state, masters):
    """One ordered-cell step with fixed (erase, write) master gates."""
    h_prev, c_prev = state
    f, i, o, g = _standard_gates(params.base, x_t, h_prev)
    return _cell_update(f, i, o, g, c_prev, *masters)
