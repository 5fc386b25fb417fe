"""Run every workload once and print every end-to-end metric with its unit.

    python3 perfbench/all.py --seed 1 [--trace]

Each workload runs in its own process (run.py), one after another, for
BENCHMARK.json's run_seconds; run.py prints its metric table to stderr.  With
--trace, each workload also gets a traced run, and the table adds where the
traced pass spent its time: self time per layer as a share of the traced set-up and pass,
largest first.  Result documents go to perfbench/results/.  Exit code 1 if
any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true", help="also make a traced run of each workload")
    args = p.parse_args(argv)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        result = run(workload, args.seed, spec["run_seconds"], 0)
        if result is None or not result["correct"]:
            status = 1
        if not args.trace:
            continue
        traced = run(workload, args.seed, spec["run_seconds"], 1)
        if traced is None or not traced["correct"]:
            status = 1
            continue
        tm = traced["metrics"]
        pass_s = tm["trace.traced_pass_s"]["value"]
        traced_s = pass_s + tm["trace.traced_setup_s"]["value"]
        print(f"{workload:14s} tracing overhead {tm['trace.overhead_ratio']['value']:.3f}x "
              f"(traced pass {pass_s:.3f} s, untraced {tm['trace.untraced_pass_s']['value']:.3f} s)")
        layers = sorted(
            ((m["value"], name) for name, m in tm.items() if name.endswith(".self_s") and not name.startswith("verify.")),
            reverse=True,
        )
        for value, name in layers[:8]:
            print(f"{'':14s}   {name:44s} {value:9.3f} s  {value / traced_s:6.1%} of traced set-up + pass")
    return status


if __name__ == "__main__":
    sys.exit(main())
