"""Pin BLAS and OpenMP to one thread each for the test run, as
perfbench/run.py does for the benchmark.

nimg runs independent tasks on one lane per CPU (nt.lanes), and each lane
calls BLAS. With the libraries' default of one thread per CPU, every lane's
GEMM would start as many threads again and oversubscribe the machine. The
libraries read these variables when they load, so this runs before any test
module imports numpy; a value already set in the environment is kept.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")
