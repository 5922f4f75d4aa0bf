"""Pin BLAS, OpenMP and MKL to one thread before any test imports numpy.

The exact-value pins in the tests were recorded with one BLAS thread, the
setting the README recommends for timing too. A value already set in the
environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
