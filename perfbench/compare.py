"""Compare two sets of benchmark result documents: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHILD_DIR

Each directory holds result documents written by run.py (the parent's and
the change's runs, made with identical benchmark code and settings).  Runs
of the two sets are paired by workload and seed.  One row is printed per
workload and metric:

- "improved": the change wins at least 9/10 of the pairs (ties count for
  neither side), there are at least ten pairs, and the medians differ by
  more than the spread between the parent's own runs (its interquartile
  distance);
- "unresolved": the parent's spread, as a share of its median, exceeds the
  metric's bound, and not every run of the change reads better than every
  run of the parent;
- "regressed": the change's median is worse than the parent's by more than
  the bound;
- "within bound" otherwise.

Traced runs contribute exact counts (calls, entries scanned, nonzeros):
they are printed as counts, and counts that differ between two traced runs
of the same seed within one set are reported, since they must repeat.

Results whose environments differ (scalar backend, Python, CPU, nproc) are
never compared.  The exit code is 1 if a row regressed, a count failed to
repeat or a run was incorrect, 2 if the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import harness

# z3-apply's latencies, which only that workload reports, so that BENCHMARK.json (whose
# end-to-end metrics every workload must report) cannot hold them: (unit, better, bound).
# Each bound is three times the largest interquartile spread, as a share of the median,
# in two sets of ten seeds on a 2-core Xeon VM (5.7%, 7.0%, 6.7%, 8.4%, 7.4%), rounded up
# to 5%: the same margin the BENCHMARK.json bounds keep over their spreads
WORKLOAD_METRICS = {
    "first_query_s": ("s", "lower", 0.20),
    "apply_p50_ms": ("ms", "lower", 0.25),
    "apply_tail_ms": ("ms", "lower", 0.25),
    "gram_p50_ms": ("ms", "lower", 0.30),
    "gram_tail_ms": ("ms", "lower", 0.25),
}


def load_docs(directory: Path) -> list[dict]:
    docs = []
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") == "ncdiffop-bench/1":
            docs.append(doc)
    return sorted(docs, key=lambda d: d["started"])


def metric_values(docs: list[dict], name: str) -> dict[int, list]:
    """seed -> values in run order."""
    out = defaultdict(list)
    for d in docs:
        m = d["metrics"].get(name) or d.get("workload_metrics", {}).get(name)
        if m is not None:
            out[d["seed"]].append(m["value"])
    return out


def judge(parent: dict, child: dict, better: str, bound: float) -> dict:
    pairs = [(p, c) for seed in sorted(parent.keys() & child.keys()) for p, c in zip(parent[seed], child[seed])]
    pv = [v for vs in parent.values() for v in vs]
    cv = [v for vs in child.values() for v in vs]
    if not pv or not cv:
        return {"verdict": "missing"}
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    mp, mc = statistics.median(pv), statistics.median(cv)
    q1, q3 = harness.quartiles(pv)
    spread = (q3 - q1) / mp if mp else float("inf")
    worse = sign * (mc - mp) / mp if mp else 0.0
    all_better = max(sign * c for c in cv) < min(sign * p for p in pv)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(mc - mp) > q3 - q1 and worse < 0:
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif all_better:
        verdict = "better in every run"
    else:
        verdict = "within bound"
    return {
        "parent": mp, "child": mc, "change": worse, "wins": wins, "pairs": len(pairs),
        "spread": spread, "verdict": verdict,
    }


def check_environments(docs: list[dict]) -> list[str]:
    seen = defaultdict(set)
    for d in docs:
        for key in harness.COMPARABLE_ENV:
            seen[key].add(str(d["environment"].get(key)))
    return [f"{key}: {sorted(v)}" for key, v in seen.items() if len(v) > 1]


def count_rows(docs: list[dict]) -> tuple[dict, list[str]]:
    """Count metrics per (workload, seed); and the counts that do not repeat."""
    counts, problems = {}, []
    for d in docs:
        if d["trace"] != 1:
            continue
        key = (d["workload"], d["seed"])
        these = {k: m["value"] for k, m in d["metrics"].items() if harness.is_count(k)}
        if key in counts and counts[key] != these:
            diff = [k for k in these if these[k] != counts[key].get(k)]
            problems.append(f"{key[0]} seed {key[1]}: counts differ between traced runs: {diff[:5]}")
        counts.setdefault(key, these)
    return counts, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two sets of benchmark results")
    p.add_argument("parent", type=Path)
    p.add_argument("child", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, child = load_docs(args.parent), load_docs(args.child)
    if not parent or not child:
        print("error: no result documents in one of the sets", file=sys.stderr)
        return 2
    mismatch = check_environments(parent + child)
    if mismatch:
        print("error: results from different environments are never compared: " + "; ".join(mismatch), file=sys.stderr)
        return 2
    status = 0
    for d in parent + child:
        if not d["correct"]:
            print(f"INCORRECT run: {d['workload']} seed {d['seed']} ({d['run_id']}): {d['problems'][:2]}")
            status = 1
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, *meta) for name, meta in WORKLOAD_METRICS.items()]
    header = f"{'workload':14s} {'metric':16s} {'unit':5s} {'parent':>11s} {'change':>11s} {'delta':>8s} {'wins':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        pw = [d for d in parent if d["workload"] == workload and d["trace"] == 0]
        cw = [d for d in child if d["workload"] == workload and d["trace"] == 0]
        for name, unit, better, bound in metrics:
            r = judge(metric_values(pw, name), metric_values(cw, name), better, bound)
            if r["verdict"] == "missing":
                continue
            if r["verdict"] == "regressed":
                status = 1
            print(
                f"{workload:14s} {name:16s} {unit:5s} {r['parent']:11.5g} {r['child']:11.5g} {r['change']:+8.1%} "
                f"{r['wins']:>3d}/{r['pairs']:<3d} {r['spread']:7.1%} {bound:6.0%}  {r['verdict']}"
            )
    parent_counts, p_problems = count_rows(parent)
    child_counts, c_problems = count_rows(child)
    for problem in p_problems + c_problems:
        print("COUNTS DO NOT REPEAT: " + problem)
        status = 1
    for key in sorted(parent_counts.keys() & child_counts.keys()):
        for k, v in sorted(parent_counts[key].items()):
            w = child_counts[key].get(k)
            if w != v:
                print(f"{key[0]:14s} seed {key[1]:<4d} {k:40s} count {v:.6g} -> {w:.6g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
