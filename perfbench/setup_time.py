"""Prints the seconds a fresh interpreter takes to import hgalois and
hgalois.cli and to generate one workload's job documents.

    PYTHONPATH=src python3 perfbench/setup_time.py many_small 1
"""

import sys
import time

start = time.perf_counter()
import hgalois  # noqa: E402
import hgalois.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
