"""One set-up sample: a fresh interpreter made ready to time a batch workload.

Run as ``python3 perfbench/setup_probe.py WORKLOAD`` from a checkout;
prints ``ready`` once the package is imported, the workload's DAGs are
built and one warm-up op of each kind of cell has passed its check.  run.py times the
interval from spawning this process to reading that line.
"""

import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from batch import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().prepare()
print("ready", flush=True)
