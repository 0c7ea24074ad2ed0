"""Set-up time of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py <workload> <size>

Times importing toricspec and building the workload's validated polytope and
potential spec, and prints the seconds.  run.py starts it several times and
reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main():
    workload, size = sys.argv[1], sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import toricspec  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    wl.setup(wl.sizes[size])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
