"""Set up one workload in a fresh interpreter; the harness times this process.

    python3 perfbench/prepare.py --workload W --seed N --out DIR

Set-up is what every run pays before its first operation: interpreter
start, `import born_kernel` (work moved to import time shows here), and
generating and writing the workload's inputs from the seed.
"""
import argparse
import os
import sys
from pathlib import Path

from run import THREAD_ENV

if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import born_kernel  # noqa: F401  (its import time is part of set-up)
    import gen

    gen.prepare(args.workload, args.seed, Path(args.out))
    sys.exit(0)
