"""Spans and kernel counters recorded from outside ``ncdiffop``.

A ``Tracer`` patches wrappers around the package's public functions and
methods for the length of a traced pass, then puts the originals back.  Each
wrapped call is a span: name, start, end, parent span and run id.  Self time
is a span's duration minus the time its child spans cover.  Spans of hot
kernel functions are aggregated only (calls, self time), so that memory stays
small; every other span is also kept as a record and written out at the end.

A span's own bookkeeping costs time too: a part inside its measured
interval, and a part (the wrapper's call, entry and exit) that falls on the
span around it.  ``calibrate`` measures both on an empty function, and
``seconds`` takes them off by count (calls, direct child spans, spans nested
in a build), so that self time and build time are the program's.  Time that
a timing tracer is told about through ``add_overhead`` (the speed probe's
ticks) is taken off every span open meanwhile.

A counting tracer (``counting=True``) adds the kernel counters: scalar
``*``, ``+`` and truth tests, and the size and nonzeros of every matrix
``Mat.apply`` reads.  They are called millions of times, so a counting pass
is never timed: its counts and its timing tracer's times come from two
passes of the same work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter
MAX_RECORDS = 200_000  # span records kept in memory; later ones are only counted as dropped
CALIBRATION_CALLS = 20_000  # empty calls per calibration round
CALIBRATION_ROUNDS = 7

# (module, attribute path, span name, kept as a record)
TARGETS = (
    ("linalg", "Mat.apply", "linalg.apply", False),
    ("linalg", "Mat.__matmul__", "linalg.matmul", False),
    ("linalg", "Mat.kron", "linalg.kron", False),
    ("linalg", "kron_vec", "linalg.kron_vec", False),
    ("linalg", "rref", "linalg.rref", False),
    ("linalg", "quotient", "linalg.quotient", False),
    ("linalg", "ldl_certify_psd", "linalg.ldl_certify_psd", False),
    ("bimodule", "TensorPair.__init__", "bimodule.TensorPair", True),
    ("geometry", "Geometry.V", "geometry.V", False),
    ("geometry", "Geometry.W", "geometry.W", False),
    ("geometry", "Geometry.ev_pow", "geometry.ev_pow", False),
    ("geometry", "Geometry.coev_pow", "geometry.coev_pow", False),
    ("geometry", "Geometry.box_vec_pow", "geometry.box_vec_pow", False),
    ("geometry", "Geometry.box_form_pow", "geometry.box_form_pow", False),
    ("geometry", "Geometry.merge_vec", "geometry.merge_vec", False),
    ("geometry", "Geometry.merge_om", "geometry.merge_om", False),
    ("diffop", "BulletTable.table", "diffop.BulletTable.table", False),
    ("diffop", "BulletTable.bullet_k", "diffop.bullet_k", False),
    ("diffop", "GradedOperator.bullet", "diffop.GradedOperator.bullet", False),
    ("diffop", "GradedOperator.act_on", "diffop.GradedOperator.act_on", False),
    ("calculus", "ConnectionModule.nabla_pow", "calculus.nabla_pow", False),
    ("calculus", "ConnectionModule.act_table", "calculus.act_table", False),
    ("calculus", "ConnectionModule.act", "calculus.act", False),
    ("calculus", "tensor_connection", "calculus.tensor_connection", True),
    ("crossing", "CrossingMap.__init__", "crossing.CrossingMap.init", True),
    ("crossing", "sigma_hat", "crossing.sigma_hat", True),
    ("crossing", "CrossingMap.build_inverse", "crossing.build_inverse", True),
    ("crossing", "OperatorConnection.__init__", "crossing.OperatorConnection.init", True),
    ("crossing", "check_theta_on_algebra", "crossing.checks", True),
    ("crossing", "theta_product_compat", "crossing.checks", True),
    ("crossing", "theta_tensor_factorization", "crossing.checks", True),
    ("centre", "verify_centre", "centre.verify_centre", True),
    ("hopf", "standard_candidate", "hopf.standard_candidate", True),
    ("sobolev", "SobolevPairings.iterated", "sobolev.iterated", True),
    ("sobolev", "sobolev_gram", "sobolev.sobolev_gram", True),
    ("sobolev", "gram_increment_certificate", "sobolev.gram_increment_certificate", True),
)

# every check_* method of these classes (and extra_checks) is one span name
CHECK_CLASSES = (
    ("crossing", "CrossingMap", "crossing.checks"),
    ("crossing", "OperatorConnection", "crossing.checks"),
    ("crossing", "OperatorAlgebraCandidate", "crossing.checks"),
    ("hopf", "HopfCentreCandidate", "hopf.checks"),
)

SCALAR_OPS = (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"), ("__radd__", "add"), ("__bool__", "bool"))


class Stat:
    """Raw sums, bookkeeping included; ``Tracer.seconds`` corrects them."""

    __slots__ = ("calls", "self_s", "children", "outermost", "incl_s", "nested")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.children = 0  # direct child spans
        # outermost calls only: a nested call of the same name is not counted twice
        self.outermost = 0
        self.incl_s = 0.0
        self.nested = 0  # spans inside the outermost calls


class Tracer:
    def __init__(self, run_id: str, counting: bool = False):
        self.run_id = run_id
        self.counting = counting
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.scalar_calls = {"mul": [0], "add": [0], "bool": [0]}
        self.apply_entries = 0
        self.apply_nonzeros = 0
        self.records: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._overhead = 0.0  # probe time so far, taken off the spans open meanwhile
        self.inner_s = 0.0  # a span's own bookkeeping inside its measured interval
        self.outer_s = 0.0  # the rest of its bookkeeping, which falls on the enclosing span
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> None:
        stack = self._stack
        self._next_id += 1
        sid = self._next_id
        parent = stack[-1][6] if stack else 0
        self._depth[name] += 1
        # name, start, child time, id, overhead at entry, kept parent, kept id for children,
        # direct child spans, nested spans
        stack.append([name, perf(), 0.0, sid, self._overhead, parent, sid if keep else parent, 0, 0])

    def _exit(self, keep: bool) -> None:
        end = perf()
        name, start, child, sid, ovh, parent, _, children, nested = self._stack.pop()
        dur = end - start - (self._overhead - ovh)
        st = self.stats[name]
        st.calls += 1
        st.self_s += dur - child
        st.children += children
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            st.outermost += 1
            st.incl_s += dur
            st.nested += nested
        if self._stack:
            frame = self._stack[-1]
            frame[2] += dur
            frame[7] += 1
            frame[8] += nested + 1
        if keep:
            if len(self.records) < MAX_RECORDS:
                self.records.append((sid, parent, name, start, end))
            else:
                self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself."""
        self._enter(name, True)
        try:
            yield
        finally:
            self._exit(True)

    def _wrap(self, name: str, fn, keep: bool, after=None):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(keep)
                if after is not None:
                    after(args)

        return traced

    def add_overhead(self, seconds: float) -> None:
        self._overhead += seconds

    def calibrate(self) -> tuple[float, float]:
        """Measure the bookkeeping of one span on an empty function (median of
        rounds), less the time told to ``add_overhead``; return when it ran."""

        def empty():
            pass

        wrapped = self._wrap("calibration", empty, False)
        inner, total = [], []
        began = perf()
        for _ in range(CALIBRATION_ROUNDS):
            self.stats.pop("calibration", None)
            o0, t0 = self._overhead, perf()
            for _ in range(CALIBRATION_CALLS):
                empty()
            o1, t1 = self._overhead, perf()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            o2, t2 = self._overhead, perf()
            bare = (t1 - t0 - (o1 - o0)) / CALIBRATION_CALLS
            inner.append(self.stats["calibration"].incl_s / CALIBRATION_CALLS - bare)
            total.append((t2 - t1 - (o2 - o1)) / CALIBRATION_CALLS - bare)
        del self.stats["calibration"]
        self.inner_s = max(0.0, statistics.median(inner))
        self.outer_s = max(0.0, statistics.median(total) - self.inner_s)
        return began, perf()

    def seconds(self, name: str, field: str, scale: float, bookkeeping_scale: float) -> float:
        """A span's self time ("self_s") or build time ("incl_s"), bookkeeping
        taken off; raw sums are multiplied by scale and the calibrated costs
        by bookkeeping_scale (to reference seconds at their own moments)."""
        st = self.stats.get(name)
        if st is None:
            return 0.0
        inner, outer = self.inner_s * bookkeeping_scale, self.outer_s * bookkeeping_scale
        if field == "self_s":
            return st.self_s * scale - st.calls * inner - st.children * outer
        return st.incl_s * scale - st.outermost * inner - st.nested * (inner + outer)

    def _count_apply(self, args) -> None:
        m = args[0]
        self.apply_entries += m.rows * m.cols
        self.apply_nonzeros += sum(map(len, m._cols_sparse or ()))

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper) -> None:
        """Rebind every module-level name in the package that refers to fn."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ncdiffop" or mod_name.startswith("ncdiffop.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def install(self) -> None:
        import ncdiffop.verify as verify

        def module(name):
            return sys.modules[f"ncdiffop.{name}"]

        for mod_name, path, span, keep in TARGETS:
            owner = module(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            after = self._count_apply if self.counting and span == "linalg.apply" else None
            wrapper = self._wrap(span, fn, keep, after)
            if cls_path:
                self._set(owner, attr, wrapper)
            else:
                self._replace_function(fn, wrapper)
        for mod_name, cls_name, span in CHECK_CLASSES:
            cls = getattr(module(mod_name), cls_name)
            for attr, fn in list(vars(cls).items()):
                if callable(fn) and (attr.startswith("check_") or attr == "extra_checks"):
                    self._set(cls, attr, self._wrap(span, fn, True))
        for name, fn in list(verify.SUITES.items()):
            self._set(verify.SUITES, name, self._wrap(f"verify.suite.{name}", fn, True))
        if not self.counting:
            return
        scalar_cls = module("scalars").Scalar
        for attr, op in SCALAR_OPS:
            self._set(scalar_cls, attr, _counted(self.scalar_calls[op], scalar_cls.__dict__[attr], attr == "__bool__"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.records:
                fh.write(
                    json.dumps({"run": self.run_id, "id": sid, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )


def _counted(cell: list, fn, unary: bool):
    if unary:

        def counted_unary(x):
            cell[0] += 1
            return fn(x)

        return counted_unary

    def counted(x, y):
        cell[0] += 1
        return fn(x, y)

    return counted
