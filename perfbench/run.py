"""Run one benchmark workload against the ncdiffop sources of this checkout.

    python3 perfbench/run.py --workload z3-towers --seed 1 --seconds 10 --trace 0

One process, one thread, a closed loop: each operation starts when the
previous one has finished.  Untraced (--trace 0), the run repeats passes
until --seconds have gone by; each pass loads its bundles afresh (set-up),
then runs the workload's operations on them.  Every time is reported in
reference seconds, corrected for the machine's momentary speed by the probe
in probe.py; the raw wall times stay in the result document.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics.

Traced (--trace 1), the run makes one untraced pass, one pass with span
wrappers patched around the package's public functions, and one pass that
adds the kernel counters and is not timed; it reports the per-layer metrics
and the tracing overhead instead, in reference seconds as well.

Every run writes its full result document (environment, per-pass figures,
workload-specific latencies, golden-digest checks) to perfbench/results/,
and exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time

import harness
from probe import INTERVAL, REFERENCE_S, Probe, trimmed_mean

perf = time.perf_counter
MIN_SETUPS = 5  # set-up samples per untraced run, for a steady median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--golden", default=str(harness.GOLDEN), help="golden digest file")
    p.add_argument("--out", default=str(harness.RESULTS), help="directory for result documents")
    return p.parse_args(argv)


class Runner:
    def __init__(self, workload, seed: int, golden: list[str] | None):
        from ncdiffop.bundle import resolve_bundle

        self.resolve_bundle = resolve_bundle
        self.workload = workload
        self.seed = seed
        self.inputs = None
        self.reference = golden  # without a golden entry, the first pass is the reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self):
        gc.collect()  # the previous pass's garbage is not this set-up's cost
        start = perf()
        bundles = {name: self.resolve_bundle(name) for name in self.workload.bundles}
        return bundles, (start, perf())

    def one_pass(self, tracer=None) -> dict:
        if self.inputs is None:  # made once, from bundles of their own, so that every pass starts cold
            self.inputs = self.workload.inputs(self.setup()[0], self.seed)
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        with span("setup"):
            bundles, setup = self.setup()
        gc.collect()
        cpu0, start = time.process_time(), perf()
        with span("pass"):
            chunks = self.workload.run_pass(bundles, self.inputs, self.seed)
        end, cpu = perf(), time.process_time() - cpu0
        self.check(chunks)
        return {"setup": setup, "pass": (start, end), "cpu_s": cpu, "chunks": chunks}

    def check(self, chunks) -> None:
        digests = [c.digest for c in chunks]
        if self.reference is None:
            self.reference = digests
        if len(digests) != len(self.reference):
            self.problems.append(f"{len(digests)} output chunks, golden has {len(self.reference)}")
        for i, chunk in enumerate(chunks):
            self.attempted += len(chunk.ops)
            want = self.reference[i] if i < len(self.reference) else None
            if chunk.digest != want:
                self.failed += len(chunk.ops)
                self.problems.append(f"{chunk.name}: digest {chunk.digest[:16]} != expected {str(want)[:16]}")
                continue
            for op in chunk.ops:
                if not op.ok:
                    self.failed += 1
                    self.problems.append(f"{chunk.name}: {op.kind} failed {op.detail}"[:300])

    # -- the two kinds of run --------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        passes = []
        with Probe() as probe:
            start = perf()
            while not passes or perf() - start < seconds:
                passes.append(self.one_pass())
            setups = [p["setup"] for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(self.setup()[1])
        for p in passes:
            _normalize_pass(probe, p)
        setup_s = [probe.normalize(*iv) for iv in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": statistics.median([p["pass_s"] for p in passes]), "unit": "s"},
            "cpu_s": {"value": statistics.median([p["cpu_s"] for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        extra = self.workload.extra_metrics([p["chunks"] for p in passes])
        extra["failed_ratio"] = {"value": self.failed / max(self.attempted, 1), "unit": "ratio"}
        raw = {
            "setup_s": statistics.median([b - a for a, b in setups]),
            "pass_s": statistics.median([b - a for a, b in (p["pass"] for p in passes)]),
        }
        detail = {
            "setup_samples_s": setup_s,
            "passes": [_pass_doc(p) for p in passes],
            "workload_metrics": extra,
            "raw_wall_s": raw,
            "probe": {"samples": len(probe.durations), "mean_s": trimmed_mean(probe.durations),
                      "reference_s": REFERENCE_S, "interval_s": INTERVAL},
        }
        return metrics, detail

    def _traced_pass(self, tracer) -> dict:
        tracer.install()
        try:
            return self.one_pass(tracer)
        finally:
            tracer.uninstall()

    def traced(self, run_id: str, spans_path) -> tuple[dict, dict]:
        """An untraced pass, a pass timed by spans, and a pass counted but not timed."""
        from tracer import Tracer

        timing, counting = Tracer(run_id), Tracer(run_id, counting=True)
        with Probe() as probe:
            untraced = self.one_pass()
            probe.on_tick = timing.add_overhead
            calibration = timing.calibrate()
            traced = self._traced_pass(timing)
            probe.on_tick = None
            counted = self._traced_pass(counting)
        passes = (untraced, traced, counted)
        for p in passes:
            _normalize_pass(probe, p)
        timing.write_spans(spans_path)
        run_values = {
            "traced_setup_s": traced["setup_s"],
            "untraced_pass_s": untraced["pass_s"],
            "traced_pass_s": traced["pass_s"],
            "overhead_ratio": traced["pass_s"] / untraced["pass_s"],
        }
        scales = probe.scale(traced["setup"][0], traced["pass"][1]), probe.scale(*calibration)
        metrics = harness.per_layer_metrics(timing, counting, scales, run_values)
        calls = {name: st.calls for name, st in timing.stats.items()}
        unrepeated = sorted(n for n in calls.keys() | counting.stats.keys() if calls.get(n) != getattr(counting.stats.get(n), "calls", None))
        if unrepeated:
            print(f"warning: span calls differ between the timed and the counted pass: {unrepeated[:5]}", file=sys.stderr)
        detail = {
            "passes": [_pass_doc(p) for p in passes],
            "traced_workload_metrics": self.workload.extra_metrics([traced["chunks"]]),
            "span_bookkeeping_us": {"inner": timing.inner_s * scales[1] * 1e6, "outer": timing.outer_s * scales[1] * 1e6},
            "time_scale": scales[0],
            "calls_differ_between_passes": unrepeated,
            "spans_file": os.path.basename(spans_path),
            "spans_kept": len(timing.records),
            "spans_dropped": timing.dropped,
        }
        return metrics, detail


def _normalize_pass(probe, p: dict) -> None:
    """Set the pass's set-up, pass and CPU times, and each operation's time, in reference seconds."""
    p["setup_s"], p["pass_s"] = probe.normalize(*p["setup"]), probe.normalize(*p["pass"])
    p["cpu_s"] = probe.normalize(*p["pass"], cpu=p["cpu_s"])
    for op in (o for c in p["chunks"] for o in c.ops):
        op.seconds = probe.normalize(op.start, op.start + op.seconds)


def _pass_doc(p: dict) -> dict:
    return {
        "setup_s": p["setup_s"],
        "pass_s": p["pass_s"],
        "cpu_s": p["cpu_s"],
        "chunks": [
            {"name": c.name, "ops": len(c.ops), "failed": sum(not o.ok for o in c.ops), "digest": c.digest,
             "details": [o.detail for o in c.ops if o.kind == "verify"]}
            for c in p["chunks"]
        ],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.import_program()
    except harness.MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    golden = harness.load_golden(args.golden).get(workload.name, {}).get(str(args.seed))
    os.makedirs(args.out, exist_ok=True)
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    stem = os.path.join(args.out, f"{workload.name}.seed{args.seed}.trace{args.trace}.{run_id}")
    runner = Runner(workload, args.seed, golden)
    started = time.time()
    try:
        if args.trace:
            metrics, detail = runner.traced(run_id, stem + ".spans.jsonl")
        else:
            metrics, detail = runner.measure(args.seconds)
    except Exception as err:  # set-up itself failed: report a failed run, not a traceback
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append(f"run aborted: {type(err).__name__}: {err}")
        metrics, detail = {}, {}
    correct = runner.failed == 0 and not runner.problems
    doc = {
        "format": "ncdiffop-bench/1",
        "run_id": run_id,
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "started": started,
        "environment": harness.environment(),
        "golden": "present" if golden is not None else "absent: checked ok flags, PSD certificates and pass-to-pass agreement",
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:50],
        "metrics": metrics,
        **detail,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    for name, m in {**metrics, **detail.get("workload_metrics", {})}.items():
        extra = f"  (p{m['percentile']}, n={m['samples']})" if "percentile" in m else ""
        print(f"{workload.name:14s} {name:40s} {m['value']:.6g} {m['unit']}{extra}", file=sys.stderr)
    for problem in runner.problems[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
