"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is everything before the first pass: importing ``repro`` (and
numpy where the workload uses it), building the system models, test
cases or generated family, and constructing the campaigns.  The clock
starts after interpreter start-up and argument parsing, and ``run.py``
compiles the bytecode beforehand, so no sample includes compilation.

    python3 campaignbench/setup_probe.py NAME SEED SCALE
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    started = time.perf_counter()
    import workloads

    workload = workloads.make(name, seed, scale).prepare()
    workload.campaigns(workdir=bench / "out")
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
