"""Set-up probe: one fresh interpreter runs the first operation of a workload.

Prints ``ready`` as soon as the first operation has completed (the parent
times interpreter start, imports and cold caches up to that line), then
runs a few more operations and prints its peak resident memory as JSON.

    python3 bench/probe.py WORKLOAD SEED [--tiny]
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Keep operating until this much time has gone into operations, so the
#: peak memory covers steady operation and not only the first call.
RSS_SECONDS = 0.3


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    workload = workloads.make(name, tiny="--tiny" in argv)
    inp = workload.draw(np.random.default_rng(seed))
    start = time.perf_counter()
    workload.op(inp)
    print("ready", flush=True)
    while time.perf_counter() - start < RSS_SECONDS:
        workload.op(inp)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
