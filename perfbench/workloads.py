"""The benchmark's workloads: fixed input sets over the exact kernel, each
taking one slice of it.  The seed only picks random operators and elements
(and the seed handed to ``verify_all``).

A pass turns freshly loaded bundles into output chunks.  A chunk holds the
operations whose answers share one digest; the digest is compared with the
golden one recorded for the seed, and on a mismatch every operation of the
chunk counts as failed.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from ncdiffop.bundle import canonical_json
from ncdiffop.exprs import field_basis_names, parse_element, parse_operator
from ncdiffop.linalg import PsdCertificate
from ncdiffop.sobolev import SobolevPairings, sobolev_gram
from ncdiffop.verify import verify_all

from harness import percentile, sha256

perf = time.perf_counter

Z3 = "z3-function-calculus"
TWO_POINT = "two-point-universal"
ZERO_FORM = "zero-form-smoke"
TOWER_SUITES = ("bullet", "connections", "ev-duality", "fgp-zigzag", "sobolev")

APPLY_QUERIES = 1000  # per pass: a p99 with ten samples beyond it
APPLY_TAIL = 99
# each (module, state) this many times a pass per Sobolev order: 52 grams.  Latency
# grows about fourfold per order and per module, so the grams form tight clusters;
# these rounds put the median and p80 inside a cluster (omega1 at orders 1 and 2), not
# in a gap between two, with ten samples beyond p80
GRAM_ROUNDS = {0: 4, 1: 4, 2: 4, 3: 1}
GRAM_TAIL = 80


class Op:
    __slots__ = ("kind", "start", "seconds", "ok", "detail")

    def __init__(self, kind: str, start: float, seconds: float, ok: bool, detail: str = ""):
        self.kind = kind
        self.start = start
        self.seconds = seconds
        self.ok = ok
        self.detail = detail


class Chunk:
    def __init__(self, name: str):
        self.name = name
        self.ops: list[Op] = []
        self.answers: list[str] = []

    def add(self, op: Op, answer: str) -> None:
        self.ops.append(op)
        self.answers.append(answer)

    @property
    def digest(self) -> str:
        return sha256("\n".join(self.answers))


def _error(err: Exception) -> str:
    return f"error {type(err).__name__}: {err}"


# -- verify workloads ---------------------------------------------------------------


class VerifyWorkload:
    """verify_all calls on freshly loaded bundles; each Report is one operation."""

    def __init__(self, name: str, why: str, calls):
        self.name = name
        self.why = why
        self.calls = calls  # (bundle, suites or None for all, degree or None for truncation)
        self.bundles = tuple(dict.fromkeys(b for b, _, _ in calls))

    def inputs(self, bundles: dict, seed: int):
        return None

    def run_pass(self, bundles: dict, inputs, seed: int) -> list[Chunk]:
        chunks = []
        for bundle_name, suites, degree in self.calls:
            label = ",".join(suites) if suites else "all"
            chunk = Chunk(f"{bundle_name}:{label}@{degree if degree is not None else 'truncation'}")
            start = perf()
            try:
                report = verify_all(bundles[bundle_name], suites=suites, degree=degree, seed=seed)
            except Exception as err:  # a crash is a failed operation, not a crashed benchmark
                chunk.add(Op("verify", start, perf() - start, False, _error(err)), _error(err))
            else:
                elapsed = perf() - start
                bad = [f"{s}:{c.name}" for s, r in sorted(report.suites.items()) for c in r.checks if not c.ok]
                detail = json.dumps({"suite_ms": report.timing_dict(), "failing": bad})
                chunk.add(Op("verify", start, elapsed, report.ok, detail), report.body_json())
            chunks.append(chunk)
        return chunks

    def extra_metrics(self, passes: list[list[Chunk]]) -> dict:
        return {}


# -- the query workload ----------------------------------------------------------------


def _expression(rng: random.Random, names: list[str], degrees: list[int]) -> str:
    parts = []
    for i, d in enumerate(degrees):
        coeff = f"{rng.randint(1, 5)}/{rng.randint(1, 3)}"
        term = coeff if d == 0 else coeff + "*" + "@".join(rng.choice(names) for _ in range(d))
        sign = rng.choice("+-")
        parts.append(("-" if sign == "-" else "") + term if i == 0 else f" {sign} {term}")
    return "".join(parts)


def _nonzero_word(rng: random.Random, bundle, names: list[str], degree: int) -> str:
    """A random tensor word of the given degree whose class in V(degree) is not zero."""
    for _ in range(1000):
        word = "@".join(rng.choice(names) for _ in range(degree))
        if degree in parse_operator(bundle.geometry, word, bundle.truncation).components:
            return word
    raise ValueError(f"no nonzero word of degree {degree} found")


def _element(rng: random.Random, dim: int) -> str:
    return ",".join(f"{rng.randint(-4, 4)}/{rng.randint(1, 2)}" for _ in range(dim))


class QueryWorkload:
    """A closed loop of one client sending apply and gram queries, the way
    ``ncdiffop apply`` and ``ncdiffop gram`` serve them, to one loaded bundle."""

    name = "z3-apply"
    why = (
        "warm applies and gram queries next to one cold degree-3 build per module: "
        "shows a change that speeds builds but slows small applies, or moves work into set-up"
    )
    bundles = (Z3,)

    def inputs(self, bundles: dict, seed: int):
        """The seeded query stream; it parses words, so give it bundles no pass will time."""
        bundle = bundles[Z3]
        rng = random.Random(seed)
        names = field_basis_names(bundle.geometry)
        modules = bundle.module_names()
        top = bundle.truncation
        # the first query on each module carries nonzero words of every degree, two of the top
        # one, so whatever the seed it builds every action table of that module
        first = []
        for m in modules:
            words = [_nonzero_word(rng, bundle, names, d) for d in [top, *range(top, 0, -1)]]
            terms = [f"{rng.randint(1, 5)}/{rng.randint(1, 3)}*{w}" for w in words] + [str(rng.randint(1, 5))]
            first.append(("apply", m, " + ".join(terms), _element(rng, bundle.modules[m].space.dim)))
        stream = []
        for _ in range(APPLY_QUERIES):
            m = rng.choice(modules)
            degrees = [rng.randint(0, top) for _ in range(rng.randint(1, 4))]
            stream.append(("apply", m, _expression(rng, names, degrees), _element(rng, bundle.modules[m].space.dim)))
        grams = [
            ("gram", m, s, n)
            for m in sorted(bundle.inner_products)
            if m in bundle.modules
            for s in sorted(bundle.states)
            for n, rounds in GRAM_ROUNDS.items()
            for _ in range(rounds)
        ]
        rng.shuffle(grams)
        for q in grams:
            stream.insert(rng.randrange(len(stream) + 1), q)
        return first, stream

    def run_pass(self, bundles: dict, inputs, seed: int) -> list[Chunk]:
        bundle = bundles[Z3]
        first, stream = inputs
        chunks = {"first": Chunk("first-queries"), "apply": Chunk("apply-stream"), "gram": Chunk("gram-stream")}
        for q in first:
            self._apply(bundle, q, chunks["first"], "first")
        for q in stream:
            if q[0] == "apply":
                self._apply(bundle, q, chunks["apply"], "apply")
            else:
                self._gram(bundle, q, chunks["gram"])
        return list(chunks.values())

    @staticmethod
    def _apply(bundle, query, chunk: Chunk, kind: str) -> None:
        _, mname, expr, element = query
        module = bundle.modules[mname]
        start = perf()
        try:
            op = parse_operator(bundle.geometry, expr, bundle.truncation)
            result = op.act_on(module, parse_element(module.space.dim, element))
        except Exception as err:  # a failed query, counted against the attempted ones
            chunk.add(Op(kind, start, perf() - start, False, _error(err)), _error(err))
            return
        elapsed = perf() - start
        answer = {"module": mname, "expression": expr, "element": element, "result": [str(x) for x in result]}
        chunk.add(Op(kind, start, elapsed, True), canonical_json(answer))

    @staticmethod
    def _gram(bundle, query, chunk: Chunk) -> None:
        _, mname, sname, order = query
        start = perf()
        try:
            pairings = SobolevPairings(bundle.modules[mname], bundle.inner_products["omega1"], bundle.inner_products[mname])
            gram = sobolev_gram(pairings, bundle.states[sname], order)
            strict = gram.strictly_positive()
        except Exception as err:  # a failed query, counted against the attempted ones
            chunk.add(Op("gram", start, perf() - start, False, _error(err)), _error(err))
            return
        elapsed = perf() - start
        certified = isinstance(gram.certificate, PsdCertificate) and gram.certificate.is_psd
        answer = {
            "module": mname,
            "state": sname,
            "order": order,
            "gram": [[str(x) for x in row] for row in gram.matrix.data],
            "positive_semidefinite": gram.is_positive,
            "strictly_positive": strict,
        }
        chunk.add(Op("gram", start, elapsed, certified, "" if certified else "no positive PsdCertificate"), canonical_json(answer))

    def extra_metrics(self, passes: list[list[Chunk]]) -> dict:
        ops = [o for chunks in passes for c in chunks for o in c.ops]

        def ms(kind):
            return [o.seconds * 1000 for o in ops if o.kind == kind]

        first = [sum(o.seconds for o in c.ops) for chunks in passes for c in chunks if c.name == "first-queries"]
        out = {"first_query_s": {"value": statistics.median(first), "unit": "s", "samples": len(first)}}
        for kind, pct in (("apply", APPLY_TAIL), ("gram", GRAM_TAIL)):
            values = ms(kind)
            out[f"{kind}_p50_ms"] = {"value": percentile(values, 50), "unit": "ms", "samples": len(values)}
            out[f"{kind}_tail_ms"] = {"value": percentile(values, pct), "unit": "ms", "percentile": pct, "samples": len(values)}
        return out


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload(
            "z3-towers",
            "geometry towers up to n=3, the linalg calls under them and BulletTable do the work; crossing and act_table(n>=2) do none",
            [(Z3, TOWER_SUITES, 3)],
        ),
        VerifyWorkload(
            "z3-crossing",
            "CrossingMap blocks, TensorPair quotients, OperatorConnection and verify_centre dominate: where a sparse kernel shows",
            [(Z3, ("theta",), 2), (Z3, ("centre",), 1)],
        ),
        QueryWorkload(),
        VerifyWorkload(
            "small-bundles",
            "tiny dense matrices where per-call overhead dominates; a sparse or batching change should gain nothing; the only hopf run",
            [(TWO_POINT, None, None), (ZERO_FORM, None, None)],
        ),
    )
}
