"""Tier-1 runs numpy's BLAS on one thread, as perfbench/run.py does.

BLAS libraries read these variables once, when numpy is first imported, which
happens after this file runs. Results do not depend on the thread count; on a
host shared with other numpy processes, one thread per core only slows the
suite. A value already set in the environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
