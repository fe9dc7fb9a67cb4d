"""Pin BLAS and OpenMP to one thread before numpy is first imported, with
the values the benchmark harness uses (``perfbench/harness.py``,
``PINNED_ENV``): the matrices here are at most 24 x 24, where extra threads
only add overhead."""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
