"""Verification suites: every proposition the kernel implements, run as exact
checks over a loaded bundle, with a deterministic machine-readable report.

The report body (suite results, witnesses, digest, seed) is canonical JSON:
two runs with the same inputs produce byte-identical bodies.  Timing lives
outside the body.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from .bimodule import idempotent_failure, relation_vectors
from .bundle import Bundle, canonical_json
from .calculus import connection_morphism_defect, sigma_compat_defect, tensor_connection
from .centre import verify_centre
from .crossing import (
    CrossingMap,
    OperatorAlgebraCandidate,
    OperatorConnection,
    check_theta_on_algebra,
    theta_product_compat,
    theta_tensor_factorization,
)
from .diffop import BulletTable, GradedOperator
from .hopf import standard_candidate
from .linalg import Mat, first_mismatch, quotient, span
from .report import CheckResult, ValidationError, _jsonable, first_failure
from .scalars import sc
from .sobolev import InnerProduct, SobolevPairings, gram_increment_certificate, sobolev_gram

SUITE_NAMES = (
    "fgp-zigzag",
    "connections",
    "ev-duality",
    "bullet",
    "action",
    "theta",
    "centre",
    "hopf",
    "sobolev",
)


class UnknownSuite(ValueError):
    pass


class SuiteResult:
    def __init__(self, name: str, checks: list[CheckResult], elapsed: float):
        self.name = name
        self.checks = checks
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


class Report:
    def __init__(self, bundle: Bundle, degree: int, seed: int):
        self.bundle_name = bundle.name
        self.digest = bundle.digest()
        self.degree = degree
        self.seed = seed
        self.suites: dict[str, SuiteResult] = {}

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites.values())

    def body_dict(self) -> dict:
        return {
            "format": "ncdiffop-report/1",
            "bundle": self.bundle_name,
            "bundle_digest": self.digest,
            "degree": self.degree,
            "seed": self.seed,
            "ok": self.ok,
            "suites": {
                name: {
                    "ok": s.ok,
                    "checks": [c.as_dict() for c in s.checks],
                }
                for name, s in sorted(self.suites.items())
            },
        }

    def body_json(self) -> str:
        return canonical_json(self.body_dict())

    def timing_dict(self) -> dict:
        return {name: round(s.elapsed * 1000, 3) for name, s in sorted(self.suites.items())}

    def human_text(self) -> str:
        lines = [f"bundle {self.bundle_name}  digest {self.digest[:16]}  degree {self.degree}  seed {self.seed}"]
        for name, s in sorted(self.suites.items()):
            status = "pass" if s.ok else "FAIL"
            lines.append(f"  [{status}] {name}  ({len(s.checks)} checks, {s.elapsed * 1000:.0f} ms)")
            if not s.ok:
                for c in s.checks:
                    if not c.ok:
                        w = f" witness={_jsonable(c.witness)}" if c.witness is not None else ""
                        lines.append(f"      FAIL {c.name}{w}")
        lines.append("RESULT: " + ("all suites passed" if self.ok else "FAILURES detected"))
        return "\n".join(lines)


class VerifyContext:
    """Shared caches for one verification run over a bundle."""

    def __init__(self, bundle: Bundle, degree: int, seed: int):
        self.bundle = bundle
        self.geometry = bundle.geometry
        self.degree = degree
        self.seed = seed
        self.table = BulletTable(bundle.geometry)
        self._crossings: dict[str, CrossingMap] = {}

    def crossing(self, name: str, max_degree: Optional[int] = None) -> CrossingMap:
        if name not in self._crossings:
            self._crossings[name] = CrossingMap(
                self.table, self.bundle.modules[name], max_degree or self.degree
            )
        return self._crossings[name]

    def sigma_modules(self) -> dict[str, object]:
        return {
            name: m
            for name, m in sorted(self.bundle.modules.items())
            if m.has_sigma and m.sigma_inv is not None
        }


# -- suites ---------------------------------------------------------------------


def suite_fgp_zigzag(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    out = []
    for n in range(1, ctx.degree + 1):
        defect = g.zigzag_defect(n)
        out.append(CheckResult(f"zigzag-{n}", defect is None, witness=defect))
    idem_fail = idempotent_failure(g.algebra, g.fgp.idempotent)
    out.append(CheckResult("idempotent-squared", idem_fail is None, witness=idem_fail))
    return out


def _ev_coev_bimodule_checks(ctx: VerifyContext) -> list[CheckResult]:
    """ev<n> must balance over the middle tensor and intertwine both actions;
    coev<n>(1) must be central."""
    g = ctx.geometry
    out = []
    for n in range(1, ctx.degree + 1):
        ev = g.ev_pow(n)
        Vn, Wn = g.V(n), g.W(n)
        rels = [sorted(rel.items()) for rel in relation_vectors(Vn, Wn)]
        balanced = (ev @ Mat(ev.cols, len(rels), rels)).is_zero()
        out.append(CheckResult(f"ev-balanced-{n}", balanced, witness=None if balanced else n))
        # ev(a.v (x) w) = a.ev(v (x) w) and ev(v (x) w.a) = ev(v (x) w).a on Kron(A, V(n), W(n))
        dA, mul = g.algebra.dim, g.algebra.mul_mat()
        IA, IV, IW = Mat.identity(dA), Mat.identity(Vn.dim), Mat.identity(Wn.dim)
        to_right = Mat.swap(dA, Vn.dim * Wn.dim)  # Kron(A, V(n), W(n)) -> Kron(V(n), W(n), A)
        shape = (dA, Vn.dim, Wn.dim)
        left = first_mismatch(ev @ Vn.left_action().kron(IW), mul @ IA.kron(ev), shape)
        right = first_mismatch(ev @ IV.kron(Wn.right_action()) @ to_right, mul @ ev.kron(IA) @ to_right, shape)
        fail = first_failure({"left": left and left[:1], "right": right and right[:1]})  # the first failing a_i
        eq_fail = None if fail is None else (fail[0], n, *fail[1])
        out.append(CheckResult(f"ev-bimodule-{n}", eq_fail is None, witness=eq_fail))
        # coev<n>(1) central: a.coev(1) - coev(1).a lies in the relation span, which the projection kills
        project, _ = quotient(span(Wn.dim * Vn.dim, relation_vectors(Wn, Vn)))
        coev1 = g.coev_pow(n)
        la = Wn.left_action().kron(IV) @ IA.kron(coev1)  # column i: a_i.coev(1)
        ra = IW.kron(Vn.right_action()) @ coev1.kron(IA)  # column i: coev(1).a_i
        fail = first_mismatch(project @ la, project @ ra, (dA,))
        cen_fail = None if fail is None else (n, *fail)
        out.append(CheckResult(f"coev-central-{n}", cen_fail is None, witness=cen_fail))
    return out


def suite_connections(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    out = []
    out.append(
        CheckResult(
            "sigma-two-sided-inverse",
            (g.sigma_form @ g.sigma_inv_form) == Mat.identity(g.W2.dim)
            and (g.sigma_inv_form @ g.sigma_form) == Mat.identity(g.W2.dim),
        )
    )
    # right-connection Leibniz pair re-verified (the loader already enforced it)
    try:
        g._validate_right_connection()
        out.append(CheckResult("box-leibniz-pair", True))
    except Exception as err:  # noqa: BLE001
        out.append(CheckResult("box-leibniz-pair", False, detail=str(err)))
    try:
        g._validate_dual_connection()
        out.append(CheckResult("dual-connection-leibniz", True))
    except Exception as err:  # noqa: BLE001
        out.append(CheckResult("dual-connection-leibniz", False, detail=str(err)))
    for name, module in sorted(ctx.bundle.modules.items()):
        try:
            module._validate_leibniz()
            out.append(CheckResult(f"module-leibniz-{name}", True))
        except Exception as err:  # noqa: BLE001
            out.append(CheckResult(f"module-leibniz-{name}", False, detail=str(err)))
    # tensor-product connection on omega1 (x) omega1 when declared
    if "omega1" in ctx.bundle.modules and ctx.geometry.omega.dim:
        em = ctx.bundle.modules["omega1"]
        try:
            tm = tensor_connection(em, em)
            out.append(CheckResult("tensor-connection-omega-omega", True))
            out.append(
                CheckResult(
                    "tensor-connection-sigma-invertible",
                    tm.sigma_inv is not None,
                )
            )
        except Exception as err:  # noqa: BLE001
            out.append(CheckResult("tensor-connection-omega-omega", False, detail=str(err)))
    # morphism discipline: scalar multiples of the identity intertwine, and the
    # braiding compatibility follows (checked, not assumed)
    am = ctx.bundle.modules["A"]
    t = ctx.geometry.algebra.left_mult_matrix([x + x for x in ctx.geometry.algebra.unit])
    out.append(CheckResult("morphism-scalar", connection_morphism_defect(am, am, t) is None))
    out.append(CheckResult("morphism-sigma-compat", sigma_compat_defect(am, am, t) is None))
    return out


def suite_ev_duality(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    out = _ev_coev_bimodule_checks(ctx)
    for n in range(1, ctx.degree + 1):
        defect = g.ev_duality_defect(n)
        out.append(CheckResult(f"ev-duality-{n}", defect is None, witness=defect))
    # the mixed relation (id (x) ev)(sigma (x) id) = (ev (x) id)(id (x) sigma-inverse)
    # on Kron(Vec, Omega1, Omega1)
    om, ev = g.omega, g.fgp.apply_mat
    crossed = g.OV1.section @ g.sigma_vec_plain  # Kron(Vec, Omega1) -> Kron(Omega1, Vec)
    crossed_inv = g.W2.section @ g.sigma_inv_form @ g.W2.project  # Kron(Omega1, Omega1) -> itself
    fail = first_mismatch(om.ev_right(crossed, ev), om.ev_left(ev, crossed_inv), (g.vec.dim, om.dim, om.dim))
    out.append(CheckResult("mixed-sigma-relation", fail is None, witness=fail))
    return out


# the values a random coefficient a/b takes, for -3 <= a <= 3 and 1 <= b <= 3
_RANDOM_COEFFS = {(a, b): sc(f"{a}/{b}") for a in range(-3, 4) for b in range(1, 4)}


def _random_operator(ctx: VerifyContext, rng: random.Random, max_deg: int) -> GradedOperator:
    g = ctx.geometry
    comps = {}
    for d in range(max_deg + 1):
        comps[d] = [_RANDOM_COEFFS[rng.randint(-3, 3), rng.randint(1, 3)] for _ in range(g.V(d).dim)]
    return GradedOperator(g, comps, ctx.bundle.truncation)


def suite_bullet(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    table = ctx.table
    out = []
    D = ctx.degree
    # unit laws and the degree-zero action
    one = GradedOperator.unit(g, ctx.bundle.truncation)
    x = _random_operator(ctx, random.Random(ctx.seed), min(D, ctx.bundle.truncation))
    out.append(CheckResult("bullet-unit", one.bullet(x, table) == x and x.bullet(one, table) == x))
    # left A-linearity: o_k(a.v, w) = a.o_k(v, w) on homogeneous bases
    lin_fail = None
    for n in range(0, D + 1):
        Vn = g.V(n)
        for m in range(0, D + 1 - n):
            Vm = g.V(m)
            for k in range(0, n + m + 1):
                bt = table.table(n, m, k)
                lhs = bt @ Vn.left_action().kron(Mat.identity(Vm.dim))
                rhs = g.V(k).left_action() @ Mat.identity(g.algebra.dim).kron(bt)
                fail = first_mismatch(lhs, rhs, (g.algebra.dim, Vn.dim, Vm.dim))
                if fail is not None and lin_fail is None:
                    lin_fail = (n, m, k, *fail)
    out.append(CheckResult("bullet-left-linearity", lin_fail is None, witness=lin_fail))
    # associativity on all homogeneous triples of total degree <= 3, per output degree j:
    # sum_k o_j(o_k(u, v), w) == sum_k o_j(u, o_k(v, w)) on Kron(V(n), V(m), V(l))
    assoc_fail = None
    for n in range(0, D + 1):
        for m in range(0, D + 1 - n):
            for l in range(0, D + 1 - n - m):
                Vn, Vm, Vl = g.V(n), g.V(m), g.V(l)
                cols = Vn.dim * Vm.dim * Vl.dim
                lhs = {j: Mat.zeros(g.V(j).dim, cols) for j in range(n + m + l + 1)}
                rhs = dict(lhs)
                for k in range(0, n + m + 1):
                    moved = table.table(n, m, k).kron(Mat.identity(Vl.dim))
                    for j in range(0, k + l + 1):
                        lhs[j] = lhs[j] + table.table(k, l, j) @ moved
                for k in range(0, m + l + 1):
                    moved = Mat.identity(Vn.dim).kron(table.table(m, l, k))
                    for j in range(0, n + k + 1):
                        rhs[j] = rhs[j] + table.table(n, k, j) @ moved
                fail = first_mismatch(lhs, rhs, (Vn.dim, Vm.dim, Vl.dim))
                if fail is not None and assoc_fail is None:
                    assoc_fail = (n, m, l, *fail[:-1])
    out.append(CheckResult("bullet-associativity-homogeneous", assoc_fail is None, witness=assoc_fail))
    # seeded random mixed-degree triples
    rng = random.Random(ctx.seed)
    rand_fail = None
    for trial in range(100):
        degs = [rng.randint(0, 1) for _ in range(3)]
        while sum(degs) > min(3, ctx.bundle.truncation):
            degs[rng.randrange(3)] = 0
        xo, yo, zo = (_random_operator(ctx, rng, dd) for dd in degs)
        if xo.bullet(yo, table).bullet(zo, table) != xo.bullet(yo.bullet(zo, table), table):
            if rand_fail is None:
                rand_fail = trial
    out.append(CheckResult("bullet-associativity-random", rand_fail is None, witness=rand_fail))
    return out


def suite_action(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    table = ctx.table
    out = []
    maxdeg = min(2, ctx.degree)
    for name, module in sorted(ctx.bundle.modules.items()):
        E = module.space
        one = module.act_table(0) @ g.one.kron(Mat.identity(E.dim))
        found = first_mismatch(one, Mat.identity(E.dim), (E.dim,))  # 1 |> e = e
        out.append(CheckResult(f"action-unit-{name}", found is None, witness=None if found is None else found[0]))
        # act(n) o (id (x) act(m)) == sum_k act(k) o (bullet_k (x) id) on Kron(V(n), V(m), E)
        fail = None
        for n in range(0, maxdeg + 1):
            for m in range(0, maxdeg + 1):
                Vn, Vm = g.V(n), g.V(m)
                lhs = module.act_table(n) @ Mat.identity(Vn.dim).kron(module.act_table(m))
                rhs = Mat.zeros(lhs.rows, lhs.cols)
                for k in range(0, n + m + 1):
                    bt = table.table(n, m, k)
                    if not bt.is_zero():
                        rhs = rhs + module.act_table(k) @ bt.kron(Mat.identity(E.dim))
                found = first_mismatch(lhs, rhs, (Vn.dim, Vm.dim, E.dim))
                if found is not None and fail is None:
                    fail = (n, m, *found)
        out.append(CheckResult(f"action-property-{name}", fail is None, witness=fail))
    return out


def suite_theta(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    out = []
    D = ctx.degree
    sigma_mods = ctx.sigma_modules()
    for name in sigma_mods:
        cm = ctx.crossing(name, D)
        chunk = (
            cm.check_bullet_balance()
            + cm.check_left_module()
            + cm.check_right_module()
            + cm.check_filtration()
            + cm.check_inverse()
        )
        out += _prefix(chunk, f"{name}:")
    if "A" in ctx.bundle.modules:
        out += _prefix(check_theta_on_algebra(ctx.crossing("A", D)), "A:")
        out += _prefix(theta_product_compat(ctx.crossing("A", D)), "A:")
    if "omega1" in sigma_mods:
        out += _prefix(theta_product_compat(ctx.crossing("omega1", D)), "omega1:")
        em = ctx.bundle.modules["omega1"]
        am = ctx.bundle.modules["A"]
        # property 5 with F = omega1 and the tensor factorization, both directions
        tm = tensor_connection(em, em)
        cm_e = ctx.crossing("omega1", D)
        cm_ee = CrossingMap(ctx.table, tm, D)
        out += _prefix(cm_e.check_action_factorization(em, tm), "omega1:")
        out += _prefix(theta_tensor_factorization(cm_e, cm_e, cm_ee), "omega1xomega1:")
        ta = tensor_connection(em, am)
        cm_a = ctx.crossing("A", D)
        cm_ea = CrossingMap(ctx.table, ta, D)
        out += _prefix(theta_tensor_factorization(cm_e, cm_a, cm_ea), "omega1xA:")
    return out


def _prefix(results: list[CheckResult], prefix: str) -> list[CheckResult]:
    for r in results:
        if not r.name.startswith(prefix):
            r.name = prefix + r.name
    return results


def suite_centre(ctx: VerifyContext) -> list[CheckResult]:
    degree = min(2, ctx.degree)
    candidate = OperatorAlgebraCandidate(ctx.table, dict(ctx.sigma_modules()) | {"A": ctx.bundle.modules["A"]}, degree)
    out = verify_centre(candidate)
    # the coevaluation connection's right-module identity at the full degree
    oc = OperatorConnection(ctx.table, ctx.degree)
    out += oc.check_right_module_map()
    out += oc.check_left_leibniz()
    return out


def suite_hopf(ctx: Optional[VerifyContext]) -> list[CheckResult]:
    out = []
    for which in ("Z2", "S3"):
        results = verify_centre(standard_candidate(which))
        out += _prefix(results, f"{which}:")
    return out


def suite_sobolev(ctx: VerifyContext) -> list[CheckResult]:
    bundle = ctx.bundle
    out = []
    if "omega1" not in bundle.inner_products and bundle.geometry.omega.dim:
        out.append(CheckResult("sobolev-skipped-no-form-pairing", True, detail="no inner product on omega1"))
        return out
    maxn = ctx.degree
    for name, ip in sorted(bundle.inner_products.items()):
        out += ip.validate(list(bundle.states.values()))
    if bundle.geometry.omega.dim:
        ip_om = bundle.inner_products["omega1"]
    else:
        ip_om = InnerProduct(bundle.geometry.omega, [], "ip-omega-zero")
    for name, ip_e in sorted(bundle.inner_products.items()):
        module = bundle.modules.get(name)
        if module is None:
            continue
        pairings = SobolevPairings(module, ip_om, ip_e)
        for sname, state in sorted(bundle.states.items()):
            for n in range(0, maxn + 1):
                try:
                    gram = sobolev_gram(pairings, state, n)
                    out.append(CheckResult(f"gram-psd-{name}-{sname}-{n}", gram.is_positive))
                    if n >= 1:
                        inc = gram_increment_certificate(pairings, state, n)
                        out.append(CheckResult(f"gram-monotone-{name}-{sname}-{n}", inc.is_psd))
                    if state.faithful and n == maxn:
                        out.append(
                            CheckResult(
                                f"gram-strict-{name}-{sname}-{n}",
                                gram.strictly_positive(),
                            )
                        )
                except Exception as err:  # noqa: BLE001
                    out.append(CheckResult(f"gram-psd-{name}-{sname}-{n}", False, detail=str(err)))
    return out


SUITES = {
    "fgp-zigzag": suite_fgp_zigzag,
    "connections": suite_connections,
    "ev-duality": suite_ev_duality,
    "bullet": suite_bullet,
    "action": suite_action,
    "theta": suite_theta,
    "centre": suite_centre,
    "hopf": suite_hopf,
    "sobolev": suite_sobolev,
}


def verify_all(bundle: Bundle, suites=None, degree: Optional[int] = None, seed: int = 0) -> Report:
    selected = list(suites) if suites else list(SUITE_NAMES)
    for s in selected:
        if s not in SUITES:
            raise UnknownSuite(f"unknown suite {s!r}; available: {', '.join(SUITE_NAMES)}")
    degree = degree if degree is not None else bundle.truncation
    ctx = VerifyContext(bundle, degree, seed)
    report = Report(bundle, degree, seed)
    for name in sorted(selected):
        start = time.perf_counter()
        try:
            checks = SUITES[name](ctx)
        except ValidationError as err:
            # lazily built structure can refuse corrupt inputs mid-suite;
            # that is a caught failure with a witness, not a crash
            checks = [CheckResult(f"{name}-construction:{err.name}", False, witness=err.witness, detail=err.detail)]
        elapsed = time.perf_counter() - start
        report.suites[name] = SuiteResult(name, checks, elapsed)
    return report
