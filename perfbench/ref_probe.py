"""Reference for set-up time; the caller times the process.

Usage: python3 perfbench/ref_probe.py

A fresh interpreter that imports numpy and scipy (scipy.stats included)
and runs the reference kernel briefly.  It never imports gscore, so no
change to gscore can move it, while it starts and imports the way a
set-up does.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import clock  # noqa: E402

if __name__ == "__main__":
    clock.RefKernel().rate(clock.REF_PROBE_UNITS)
