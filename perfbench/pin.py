"""Pin the exit code and stdout sha256 of every benchmark invocation.

Usage, from the root of a checkout:  python3 perfbench/pin.py

Runs each invocation of every workload once, untraced, and rewrites
expected.json.  Outputs are meant to stay byte-identical across
refactors, so a change to this file is a change of program output and
belongs in its own reviewed commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXPECTED, INVOCATION_TIMEOUT_S, Checkout
from workloads import WORKLOADS


def main() -> int:
    checkout = Checkout(Path.cwd())
    cache = checkout.warm_cache()
    checkout.warm_up()
    pinned: dict[str, dict] = {}
    for workload, grid in WORKLOADS.items():
        pinned[workload] = {}
        for inv in grid:
            sample = checkout.invoke(inv, None, False, cache, INVOCATION_TIMEOUT_S)
            if not sample.ok:
                print(f"{inv.key}: {sample.reason}", file=sys.stderr)
                return 1
            pinned[workload][inv.key] = {"exit": 0, "sha256": sample.sha256}
            print(f"[{workload}] {inv.key}: {sample.main_s:.2f} s", file=sys.stderr)
    EXPECTED.write_text(json.dumps(pinned, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
