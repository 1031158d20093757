#!/usr/bin/env python3
"""Compare the model-output fingerprints of two benchmark result files.

    python3 perfbench/compare.py A.json B.json

The fingerprint holds exact simulator outputs of the run's fixed input
prefix: the versal.* transfer and kernel counts, Jacobi sweeps, task
outcome counts, simulated seconds (sim.*, model outputs, not host time)
and digests of every returned sigma bit pattern. A change that only
speeds up the simulator must leave all of them identical. Prints
"identical" and exits 0, or lists each differing entry and exits 1.
"""

import json
import sys


def load(path):
    with open(path) as f:
        result = json.load(f)
    return result.get("workload"), result.get("seed"), result.get("fingerprint", {})


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    (wa, sa, fa), (wb, sb, fb) = load(sys.argv[1]), load(sys.argv[2])
    if (wa, sa) != (wb, sb):
        print(f"note: comparing {wa} seed {sa} with {wb} seed {sb}")
    if not fa or not fb:
        print("a result file has no fingerprint (use the traced pass, --trace 1)")
        return 1
    differs = []
    for key in sorted(set(fa) | set(fb)):
        if fa.get(key) != fb.get(key):
            differs.append((key, fa.get(key, "<missing>"), fb.get(key, "<missing>")))
    if not differs:
        print(f"identical ({len(fa)} entries)")
        return 0
    for key, a, b in differs:
        print(f"differs: {key}: {a} -> {b}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
