"""One set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/probe.py WORKLOAD SEED OUTDIR

Imports the library, builds the workload's inputs and warms up the first
eigensolve and sweep, then prints time.monotonic().  The parent reads the
same clock before it starts this process, so the difference is the set-up
time from process start.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, outdir).warm()
    print(repr(time.monotonic()))
