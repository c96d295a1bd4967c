import os

# Matrices here are small enough that BLAS thread fan-out costs more than it
# saves; pin before numpy initializes its threadpool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from seqstack import tensor


@pytest.fixture(autouse=True)
def _clean_tape():
    """Keep tests independent: each starts and ends with an empty default tape."""
    tensor.active_tape().entries.clear()
    yield
    tensor.active_tape().entries.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
