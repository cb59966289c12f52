"""Set-up of one workload in a fresh interpreter; the caller times the process.

Usage: python3 perfbench/setup_probe.py <workload>

Imports gscore and its command-line module, parses the workload config
and solves its truth and calibration, as a user's first call would.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import gscore.cli  # noqa: E402,F401

from perfbench import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(workloads.load_config(sys.argv[1]))
