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

from .bimodule import balance, idempotent_failure
from .bundle import Bundle, canonical_json
from .calculus import connection_morphism_defect, sigma_compat_defect
from .centre import verify_centre
from .crossing import OperatorAlgebraCandidate, check_theta_on_algebra, theta_product_compat, theta_tensor_factorization
from .diffop import GradedOperator
from .hopf import standard_candidate
from .linalg import Graded, Mat, NotHermitian, contract, first_mismatch
from .report import CheckResult, ValidationError, _jsonable, first_failure
from .scalars import sc
from .sobolev import SobolevPairings, gram_increment_certificate, sobolev_gram

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
    """What the suites of one verification run share.

    Per run: the degree, the seed and the centre candidate, whose own checks
    stop at degree min(2, degree).  Per bundle, and so shared with every other
    run over the same bundle (``Bundle.crossings``): the bullet table, the
    crossing of each module and of each tensor product of two, and the
    coevaluation connection, each with the witnesses of the identities checked
    on it so far, one per degree.  The candidate reads them up to its degree,
    the theta suite up to the run's; whichever asks a degree first computes
    its witness, and every later check of it, in this run or another, reads
    it."""

    def __init__(self, bundle: Bundle, degree: int, seed: int):
        self.bundle = bundle
        self.geometry = bundle.geometry
        self.degree = degree
        self.seed = seed
        self.crossings = bundle.crossings()
        self.table = self.crossings.table
        self.candidate = OperatorAlgebraCandidate(self.crossings, min(2, degree))


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
        balanced = (ev @ balance(Vn, Wn)).is_zero()
        out.append(CheckResult(f"ev-balanced-{n}", balanced, witness=None if balanced else n))
        # ev(a.v (x) w) = a.ev(v (x) w) on Kron(A, V(n), W(n)) and ev(v (x) w.a) = ev(v (x) w).a
        # on Kron(V(n), W(n), A), each witness read as (a, v, w)
        dA, mul = g.algebra.dim, g.algebra.mul
        left = first_mismatch(ev.mul_ikron(1, Vn.left_action, Wn.dim), mul.mul_ikron(dA, ev, 1), (dA, Vn.dim, Wn.dim))
        right = first_mismatch(
            ev.mul_ikron(Vn.dim, Wn.right_action, 1), mul.mul_ikron(1, ev, dA), (Vn.dim, Wn.dim, dA), order=(2, 0, 1)
        )
        fail = first_failure({"left": left and left[:1], "right": right and right[:1]})  # the first failing a_i
        eq_fail = None if fail is None else (fail[0], n, *fail[1])
        out.append(CheckResult(f"ev-bimodule-{n}", eq_fail is None, witness=eq_fail))
        # coev<n>(1) central: a.coev(1) - coev(1).a lies in the relation span, which the projection kills
        project = g.pair(Wn, Vn).project
        coev1 = g.coev_pow(n)
        # column i: a_i.coev(1) and coev(1).a_i, each action contracted with coev(1)
        la = contract(Wn.left_action, Vn.dim, dA, coev1)
        ra = contract(Vn.right_action, Wn.dim, dA, coev1, mirror=True)
        fail = first_mismatch(project @ la, project @ ra, (dA,))
        cen_fail = None if fail is None else (n, *fail)
        out.append(CheckResult(f"coev-central-{n}", cen_fail is None, witness=cen_fail))
    return out


def _invariant(name: str, fail) -> CheckResult:
    """A load-time invariant's first failure as a check, its detail the text of the
    error a validating load raises for it."""
    return CheckResult(name, fail is None, detail="" if fail is None else str(ValidationError(*fail)))


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
    # the load-time invariants again (a validating load has enforced them)
    out.append(_invariant("box-leibniz-pair", g.right_connection_failure()))
    out.append(_invariant("dual-connection-leibniz", g.dual_connection_failure()))
    for name, module in sorted(ctx.bundle.modules.items()):
        out.append(_invariant(f"module-leibniz-{name}", module.leibniz_failure()))
    # tensor-product connection on omega1 (x) omega1 when declared
    if "omega1" in ctx.bundle.modules and ctx.geometry.omega.dim:
        try:
            tm = ctx.crossings.tensor_module("omega1", "omega1")
            out.append(CheckResult("tensor-connection-omega-omega", True))
            out.append(CheckResult("tensor-connection-sigma-invertible", tm.sigma is not None))
        except ValidationError as err:
            out.append(CheckResult("tensor-connection-omega-omega", False, detail=str(err)))
    # morphism discipline: scalar multiples of the identity intertwine, and the
    # braiding compatibility follows (checked, not assumed)
    am = ctx.bundle.modules["A"]
    A = ctx.geometry.algebra
    t = A.mul.mul_ikron(1, A.one.scale(2), A.dim)
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


def _random_coords(ctx: VerifyContext, rng: random.Random, max_deg: int) -> dict[int, list]:
    """Dense coordinates of one random operator, degree by degree up to max_deg, each
    a/b with -3 <= a <= 3 and 1 <= b <= 3."""
    g = ctx.geometry
    return {
        d: [sc(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}") for _ in range(g.V(d).dim)] for d in range(max_deg + 1)
    }


def bullet_associativity_random(ctx: VerifyContext) -> CheckResult:
    """(x . y) . z == x . (y . z) for operators of degree <= 1, decided exactly: the
    product is trilinear, so this is the identity on the triples (n, m, l) with each
    index <= 1 and n + m + l <= min(3, truncation), in the homogeneous check's order,
    and no verdict depends on the seed.  Only if it fails are up to 100 seeded trials
    drawn, one at a time: the seed picks the witness, the first failing trial, or the
    identity's first failing ``(n, m, l, *column)`` if no trial fails."""
    table, top = ctx.table, min(3, ctx.bundle.truncation)
    triples = [(n, m, l) for n in range(2) for m in range(2) for l in range(2) if n + m + l <= top]
    exact = next(((*t, *f) for t in triples if (f := table.associativity_fail(*t)) is not None), None)
    if exact is None:
        return CheckResult("bullet-associativity-random", True)
    rng = random.Random(ctx.seed)
    for trial in range(100):
        degs = [rng.randint(0, 1) for _ in range(3)]
        while sum(degs) > top:
            degs[rng.randrange(3)] = 0
        x, y, z = (GradedOperator(ctx.geometry, _random_coords(ctx, rng, dd), ctx.bundle.truncation) for dd in degs)
        if x.bullet(y, table).bullet(z, table) != x.bullet(y.bullet(z, table), table):
            return CheckResult("bullet-associativity-random", False, witness=trial)
    return CheckResult("bullet-associativity-random", False, witness=exact)


def bullet_unit(ctx: VerifyContext) -> CheckResult:
    """The unit laws 1 . v = v and v . 1 = v, decided with no random draw.  Both sides
    are linear in v, so each degree n <= min(degree, truncation) is one exact identity:
    ``table(0, n, k)`` on 1 (x) I ("left") and ``table(n, 0, k)`` on I (x) 1 ("right")
    are the identity of V(n) at k = n and zero at every other k.  The witness is the
    first failing ``(side, n, column)``, "left" before "right", then by degree."""
    g, table = ctx.geometry, ctx.table
    one = g.algebra.one
    for side in ("left", "right"):
        for n in range(min(ctx.degree, ctx.bundle.truncation) + 1):
            dim = g.V(n).dim
            if side == "left":
                got = table.graded(0, n).mul_ikron(1, one, dim)
            else:
                got = table.graded(n, 0).mul_ikron(dim, one, 1)
            fail = got.first_mismatch(Graded({n: Mat.identity(dim)}), (dim,))
            if fail is not None:
                return CheckResult("bullet-unit", False, witness=(side, n, fail[0]))
    return CheckResult("bullet-unit", True)


def suite_bullet(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    table = ctx.table
    out = []
    D = ctx.degree
    out.append(bullet_unit(ctx))
    # left A-linearity: o_k(a.v, w) = a.o_k(v, w) on homogeneous bases
    lin_fail = None
    for n in range(0, D + 1):
        Vn = g.V(n)
        for m in range(0, D + 1 - n):
            Vm = g.V(m)
            for k in range(0, n + m + 1):
                bt = table.table(n, m, k)
                lhs = bt.mul_ikron(1, Vn.left_action, Vm.dim)
                rhs = g.V(k).left_action.mul_ikron(g.algebra.dim, bt, 1)
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
                fail = table.associativity_fail(n, m, l)
                if fail is not None and assoc_fail is None:
                    assoc_fail = (n, m, l, *fail)
    out.append(CheckResult("bullet-associativity-homogeneous", assoc_fail is None, witness=assoc_fail))
    out.append(bullet_associativity_random(ctx))
    return out


def suite_action(ctx: VerifyContext) -> list[CheckResult]:
    g = ctx.geometry
    table = ctx.table
    out = []
    maxdeg = min(2, ctx.degree)
    for name, module in sorted(ctx.bundle.modules.items()):
        E = module.space
        one = module.act_table(0).mul_ikron(1, g.one, E.dim)
        found = first_mismatch(one, Mat.identity(E.dim), (E.dim,))  # 1 |> e = e
        out.append(CheckResult(f"action-unit-{name}", found is None, witness=None if found is None else found[0]))
        # act(n) o (id (x) act(m)) == sum_k act(k) o (bullet_k (x) id) on Kron(V(n), V(m), E)
        fail = None
        for n in range(0, maxdeg + 1):
            for m in range(0, maxdeg + 1):
                Vn, Vm = g.V(n), g.V(m)
                lhs = module.act_table(n).mul_ikron(Vn.dim, module.act_table(m), 1)
                rhs = Mat.zeros(lhs.rows, lhs.cols)
                for k in range(0, n + m + 1):
                    bt = table.table(n, m, k)
                    if not bt.is_zero():
                        rhs = rhs + module.act_table(k).mul_ikron(1, bt, E.dim)
                found = first_mismatch(lhs, rhs, (Vn.dim, Vm.dim, E.dim))
                if found is not None and fail is None:
                    fail = (n, m, *found)
        out.append(CheckResult(f"action-property-{name}", fail is None, witness=fail))
    return out


def suite_theta(ctx: VerifyContext) -> list[CheckResult]:
    cx = ctx.crossings
    out = []
    D = ctx.degree
    for name in cx.object_names():
        cm = cx.crossing(name)
        chunk = (
            cm.check_bullet_balance(D)
            + cm.check_left_module(D)
            + cm.check_right_module(D)
            + cm.check_filtration(D)
            + cm.check_inverse(D)
        )
        out += _prefix(chunk, f"{name}:")
    cm_a = cx.crossing("A")
    out += _prefix(check_theta_on_algebra(cm_a, D), "A:")
    out += _prefix(theta_product_compat(cm_a, D), "A:")
    if "omega1" in cx.modules:
        cm_e = cx.crossing("omega1")
        out += _prefix(theta_product_compat(cm_e, D), "omega1:")
        # property 5 with F = omega1 and the tensor factorization, both directions
        cm_ee = cx.tensor_crossing("omega1", "omega1")
        out += _prefix(cm_e.check_action_factorization(cm_e.module, cm_ee.module, D), "omega1:")
        out += _prefix(theta_tensor_factorization(cm_e, cm_e, cm_ee, D), "omega1xomega1:")
        out += _prefix(theta_tensor_factorization(cm_e, cm_a, cx.tensor_crossing("omega1", "A"), D), "omega1xA:")
    return out


def _prefix(results: list[CheckResult], prefix: str) -> list[CheckResult]:
    for r in results:
        if not r.name.startswith(prefix):
            r.name = prefix + r.name
    return results


def suite_centre(ctx: VerifyContext) -> list[CheckResult]:
    cand = ctx.candidate
    oc = ctx.crossings.operator_connection
    for n in range(cand.max_degree + 1):  # built before any crossing, so a corrupt input fails here first
        oc.blocks(n)
    out = verify_centre(cand)
    # the coevaluation connection's right-module identity at the full degree
    out += oc.check_right_module_map(ctx.degree)
    out += oc.check_left_leibniz(ctx.degree)
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
    ip_om = bundle.form_pairing()
    if ip_om is None:
        out.append(CheckResult("sobolev-skipped-no-form-pairing", True, detail="no inner product on omega1"))
        return out
    maxn = ctx.degree
    for name, ip in sorted(bundle.inner_products.items()):
        out += ip.validate(ctx.geometry, list(bundle.states.values()))
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
                except (ValidationError, NotHermitian) as err:
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
    selected = list(SUITE_NAMES) if suites is None else list(suites)
    if not selected:
        raise UnknownSuite(f"no suite selected; available: {', '.join(SUITE_NAMES)}")
    for s in selected:
        if s not in SUITES:
            raise UnknownSuite(f"unknown suite {s!r}; available: {', '.join(SUITE_NAMES)}")
    degree = degree if degree is not None else bundle.truncation
    if type(degree) is not int or degree < 0:  # the loader's rule for truncation_degree
        raise ValueError(f"degree: expected a non-negative integer, got {degree!r}")
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
