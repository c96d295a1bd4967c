import os

# Matrices here are small enough that BLAS thread fan-out costs more than it
# saves; pin before numpy initializes its threadpool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from seqstack import tensor


@pytest.fixture(autouse=True)
def _clean_tensor_state():
    """Keep tests independent: fresh default tape, float32 build precision."""
    tensor.set_default_dtype("float32")
    tensor.active_tape().entries.clear()
    yield
    tensor.set_default_dtype("float32")
    tensor.active_tape().entries.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
