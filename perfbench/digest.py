"""Print each workload's event-log sha256 and metrics, computed anew.

    python3 perfbench/digest.py [--seed 42] [--workload transit ...]

A speed-up must leave both unchanged for every workload and seed; a
change that means to alter behaviour prints them again as the new
reference. The runs are those the benchmark times: set-up, then the
workload's fixed number of steps through `World.run`.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from workloads import WORKLOADS, setup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        workload = WORKLOADS[name]
        result = setup(workload, args.seed).run(workload.steps)
        digest = hashlib.sha256(result.log.to_text().encode("utf-8")).hexdigest()
        print(f"{name} seed={args.seed} steps={workload.steps} events={len(result.log)} "
              f"sha256={digest}")
        print(f"  {json.dumps(result.metrics.as_dict(), sort_keys=True)}")


if __name__ == "__main__":
    main()
