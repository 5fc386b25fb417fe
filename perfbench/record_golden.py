"""Record the golden digests that every benchmark run is checked against.

    python3 perfbench/record_golden.py --seeds 0-15

For each workload and seed, one pass runs on freshly loaded bundles; the
sha256 of each output chunk (a verify report body, or an answer stream) is
stored in perfbench/golden.json.  A pass with a failed operation is refused.
Record only on a commit whose outputs are known good: the digests define
what "correct" means for later runs.
"""

from __future__ import annotations

import argparse
import sys

import harness


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="record golden digests")
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-15")
    args = p.parse_args(argv)
    harness.import_program()
    from run import Runner
    from workloads import WORKLOADS

    golden = harness.load_golden(harness.GOLDEN) if harness.GOLDEN.exists() else {}
    for name in WORKLOADS:
        for seed in args.seeds:
            runner = Runner(WORKLOADS[name], seed, None)
            chunks = runner.one_pass()["chunks"]
            if runner.failed or runner.problems:
                print(f"{name} seed {seed}: refusing to record: {runner.problems[:3]}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = [c.digest for c in chunks]
            harness.save_golden(harness.GOLDEN, golden)
            print(f"{name} seed {seed}: {len(chunks)} chunks recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
