"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

1. A normal small-bundles run is correct, with failed 0 and exit code 0.
2. The correctness gate is not vacuous: with one golden digest tampered,
   the same run reports failed > 0 and failed_ratio > 0, and exits non-zero.
3. Two traced runs of the same code and seed give exactly the same counts.
4. In a directory holding only BENCHMARK.json and perfbench/, the run exits
   non-zero without printing a result.

Scratch files go to perfbench/results/selftest/.  Exit code 0 if all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness

WORKLOAD = "small-bundles"
SEED = 0  # a seed with a golden entry


def run(cwd, out, *extra, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--out", str(out), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def main() -> int:
    scratch = harness.RESULTS / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures = []

    def expect(cond: bool, what: str):
        print(("ok     " if cond else "FAILED ") + what)
        if not cond:
            failures.append(what)

    golden = harness.load_golden(harness.GOLDEN)
    expect(str(SEED) in golden.get(WORKLOAD, {}), f"golden digests exist for {WORKLOAD} seed {SEED}")

    code, last = run(harness.ROOT, scratch)
    expect(code == 0 and last is not None and last["correct"] and last["failed"] == 0, "untampered run is correct, exit 0")

    tampered = json.loads(harness.GOLDEN.read_text(encoding="utf-8"))
    digests = tampered["workloads"][WORKLOAD][str(SEED)]
    digests[0] = ("0" if digests[0][0] != "0" else "1") + digests[0][1:]
    tampered_path = scratch / "tampered-golden.json"
    tampered_path.write_text(json.dumps(tampered), encoding="utf-8")
    code, last = run(harness.ROOT, scratch, "--golden", str(tampered_path))
    docs = sorted(scratch.glob(f"{WORKLOAD}.seed{SEED}.trace0.*.json"), key=lambda p: json.loads(p.read_text())["started"])
    ratio = json.loads(docs[-1].read_text())["workload_metrics"]["failed_ratio"]["value"] if docs else 0
    expect(code != 0 and last is not None and not last["correct"] and last["failed"] > 0 and ratio > 0,
           f"tampered golden digest: exit {code}, failed {last and last['failed']}, failed_ratio {ratio:.3g}")

    counts = []
    for _ in range(2):
        code, last = run(harness.ROOT, scratch, trace=1)
        counts.append({k: m["value"] for k, m in (last or {}).get("metrics", {}).items() if harness.is_count(k)})
    expect(bool(counts[0]) and counts[0] == counts[1], f"two traced runs give the same {len(counts[0])} counts")

    bare = scratch / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    for path in harness.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    code, last = run(bare, bare / "out")
    expect(code != 0 and last is None, f"bare directory: exit {code}, no result printed")

    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
