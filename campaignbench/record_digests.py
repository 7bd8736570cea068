"""Record the outcome fingerprints the arrestment workloads are checked against.

Runs the grid (through serial ``execute()``, so that arrestment-sharded
must match the serial path) and the adaptive campaign of every input
variant at both scales, and writes ``digests.json``.  Re-record only when a
change to the program is *meant* to change outcomes; a refactor or an
optimisation must leave every digest as it is.

    python3 campaignbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for scale in workloads.SCALES:
        for name in ("arrestment-sharded", "arrestment-adaptive"):
            for variant in range(workloads.N_VARIANTS):
                workload = workloads.make(name, variant, scale).prepare()
                workload.execute = lambda campaign: campaign.execute()
                result = workload.run_pass(BENCH / "out")
                digests[workload.digest_key] = result.fingerprint
                print(workload.digest_key, result.fingerprint[:16], flush=True)
    shutil.rmtree(BENCH / "out" / "store", ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
