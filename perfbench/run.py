"""Run one benchmark workload from the root of a born-kernel checkout.

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 20 --trace 0

The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See perfbench/README.md.
"""
import os
import sys

# One BLAS/OpenMP thread in this process and in every process it starts;
# must be in the environment before NumPy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    import harness

    sys.exit(harness.main(sys.argv[1:]))
