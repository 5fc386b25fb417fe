"""Shared pieces of the benchmark: where the program lives, the environment
block, summary statistics, golden digests and the per-layer metric table.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
RESULTS = BENCH_DIR / "results"


class MissingProgram(RuntimeError):
    pass


def import_program():
    """Import ncdiffop from this checkout's src/, never from anywhere else."""
    if not (SRC / "ncdiffop" / "__init__.py").is_file():
        raise MissingProgram(f"no ncdiffop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncdiffop

    if Path(ncdiffop.__file__).resolve().parent != (SRC / "ncdiffop").resolve():
        raise MissingProgram(f"ncdiffop imported from {ncdiffop.__file__}, not from {SRC}")
    return ncdiffop


# -- environment ------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, an identity that needs no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ncdiffop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    from ncdiffop import scalars

    backend = scalars._mpq
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scalar_backend": f"{backend.__module__}.{backend.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


# the environment fields that must agree before two results are compared
COMPARABLE_ENV = ("python", "implementation", "scalar_backend", "nproc", "cpu_model")


# -- statistics ---------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, pct: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- golden digests -------------------------------------------------------------------


def load_golden(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def save_golden(path: Path, workloads: dict) -> None:
    doc = {
        "about": "sha256 of each output chunk of one pass, per workload and seed, recorded at the benchmark's first commit",
        "workloads": {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0]))) for w, seeds in sorted(workloads.items())},
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n", encoding="utf-8")


# -- per-layer metrics ------------------------------------------------------------------

SUITES = ("action", "bullet", "centre", "connections", "ev-duality", "fgp-zigzag", "hopf", "sobolev", "theta")


def per_layer_table() -> list[tuple[str, str, str, str]]:
    """(metric name, unit, source, field): source is a span name or a counter."""
    rows = [(f"scalars.{op}.calls", "count", "scalar", op) for op in ("mul", "add", "bool")]
    for fn in ("apply", "matmul", "kron", "kron_vec", "rref", "quotient", "ldl_certify_psd"):
        rows.append((f"linalg.{fn}.calls", "count", f"linalg.{fn}", "calls"))
        rows.append((f"linalg.{fn}.self_s", "s", f"linalg.{fn}", "self_s"))
    rows += [
        ("linalg.apply.entries_scanned", "count", "counter", "apply_entries"),
        ("linalg.apply.nonzeros", "count", "counter", "apply_nonzeros"),
        ("linalg.apply.useful_ratio", "ratio", "counter", "apply_useful_ratio"),
        ("bimodule.TensorPair.calls", "count", "bimodule.TensorPair", "calls"),
        ("bimodule.TensorPair.self_s", "s", "bimodule.TensorPair", "self_s"),
    ]
    for fn in ("V", "W", "ev_pow", "coev_pow", "box_vec_pow", "box_form_pow", "merge_vec", "merge_om"):
        rows.append((f"geometry.{fn}.build_s", "s", f"geometry.{fn}", "incl_s"))
    rows.append(("diffop.BulletTable.table.build_s", "s", "diffop.BulletTable.table", "incl_s"))
    for fn in ("bullet_k", "GradedOperator.bullet", "GradedOperator.act_on"):
        rows.append((f"diffop.{fn}.calls", "count", f"diffop.{fn}", "calls"))
        rows.append((f"diffop.{fn}.self_s", "s", f"diffop.{fn}", "self_s"))
    rows += [
        ("calculus.nabla_pow.build_s", "s", "calculus.nabla_pow", "incl_s"),
        ("calculus.act_table.build_s", "s", "calculus.act_table", "incl_s"),
        ("calculus.act.calls", "count", "calculus.act", "calls"),
        ("calculus.act.self_s", "s", "calculus.act", "self_s"),
        ("calculus.tensor_connection.self_s", "s", "calculus.tensor_connection", "self_s"),
    ]
    for fn in ("CrossingMap.init", "sigma_hat", "build_inverse", "OperatorConnection.init", "checks"):
        rows.append((f"crossing.{fn}.self_s", "s", f"crossing.{fn}", "self_s"))
    rows += [
        ("centre.verify_centre.self_s", "s", "centre.verify_centre", "self_s"),
        ("hopf.standard_candidate.self_s", "s", "hopf.standard_candidate", "self_s"),
        ("hopf.checks.self_s", "s", "hopf.checks", "self_s"),
    ]
    for fn in ("iterated", "sobolev_gram", "gram_increment_certificate"):
        rows.append((f"sobolev.{fn}.self_s", "s", f"sobolev.{fn}", "self_s"))
    for suite in SUITES:
        rows.append((f"verify.suite.{suite}.s", "s", f"verify.suite.{suite}", "incl_s"))
        rows.append((f"verify.suite.{suite}.self_s", "s", f"verify.suite.{suite}", "self_s"))
    rows += [
        ("trace.traced_setup_s", "s", "run", "traced_setup_s"),
        ("trace.untraced_pass_s", "s", "run", "untraced_pass_s"),
        ("trace.traced_pass_s", "s", "run", "traced_pass_s"),
        ("trace.overhead_ratio", "ratio", "run", "overhead_ratio"),
    ]
    return rows


def per_layer_metrics(timing, counting, scales: tuple[float, float], run_values: dict) -> dict:
    """Times from the timing tracer in reference seconds (scales: of the traced
    pass, of the calibration); counts from the counting tracer."""
    out = {}
    for name, unit, source, field in per_layer_table():
        if source == "scalar":
            value = counting.scalar_calls[field][0]
        elif source == "counter":
            if field == "apply_useful_ratio":
                value = counting.apply_nonzeros / counting.apply_entries if counting.apply_entries else 0.0
            else:
                value = getattr(counting, field)
        elif source == "run":
            value = run_values[field]
        elif field == "calls":
            st = counting.stats.get(source)
            value = st.calls if st is not None else 0
        else:
            value = timing.seconds(source, field, *scales)
        out[name] = {"value": value, "unit": unit}
    return out


def is_count(metric: str) -> bool:
    return metric.endswith((".calls", ".entries_scanned", ".nonzeros", ".useful_ratio"))
