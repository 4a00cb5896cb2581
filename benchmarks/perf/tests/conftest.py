"""Put the benchmark's modules (and the code under test) on the path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERF = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(os.path.dirname(PERF)), "src")
for path in (SRC, PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
