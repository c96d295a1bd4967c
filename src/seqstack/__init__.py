"""Sequence encoders built on a small numpy tape-based autodiff core.

The package provides a recurrent encoder with ordered chunk gating, a
self-attention encoder, and a cascaded hybrid of the two, plus the logical
entailment task used to probe length generalization. Names are imported from
their modules (`seqstack.tensor`, `seqstack.errors`, ...); the package itself
re-exports nothing.
"""

import os
import sys
import warnings

# The matrices used here are small; BLAS threadpool fan-out costs more in
# scheduling than it returns. OpenBLAS reads its thread count once, when
# numpy first loads, so the pin below works only if numpy is not loaded yet;
# it fills values the caller has not set.
if "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    warnings.warn(
        "numpy was imported before seqstack, so OpenBLAS runs on every core and "
        "training can depend on the core count; export OPENBLAS_NUM_THREADS=1 "
        "before Python starts (or import seqstack before numpy)",
        RuntimeWarning,
    )
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
