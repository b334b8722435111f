"""Record the sha256 digests of each workload's canonical output, per seed.

    python3 perfbench/record_digests.py --seeds 20

Runs one pass of every workload at seeds 0 .. N-1 and writes digests.json next
to this script.  Only passes whose verdicts are all ok are recorded.  Run it
only on a commit whose outputs are known good: the benchmark then fails any
later commit whose output differs in a single byte at a recorded seed.
"""
import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    table = {}
    for name, cls in WORKLOADS.items():
        workload = cls(recorded={})
        table[name] = {}
        for seed in range(args.seeds):
            result = workload.run_pass(seed)
            if result.failed or result.problems:
                print(f"{name} seed {seed}: not recorded: {result.problems}", flush=True)
                continue
            table[name][str(seed)] = result.digests
            print(f"{name} seed {seed}: {result.digests}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
