"""Group-algebra Hopf algebras and their module categories: the independent
verification path for the centre axioms.

For a group algebra the coproduct is grouplike, the antipode is inversion,
and the candidate object is the algebra itself under the adjoint action
``g |> h = g h g^{-1}``, crossed over any module V by
``phi_V(h (x) v) = h_(1).v (x) h_(2)``.
"""

from __future__ import annotations

from itertools import permutations

from .linalg import Mat, contract, ikron_mul, inverse
from .report import CheckResult
from .scalars import ONE


class Group:
    def __init__(self, elements, mult, name: str):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.mult = mult  # (e, f) -> element
        self.name = name
        self.order = len(self.elements)
        self.inv = {}
        identity = None
        for e in self.elements:
            if all(self.mult(e, g) == g and self.mult(g, e) == g for g in self.elements):
                identity = e
                break
        if identity is None:
            raise ValueError("multiplication table has no identity")
        self.identity = identity
        for e in self.elements:
            for f in self.elements:
                if self.mult(e, f) == self.identity and self.mult(f, e) == self.identity:
                    self.inv[e] = f
                    break

    def imul(self, i: int, j: int) -> int:
        return self.index[self.mult(self.elements[i], self.elements[j])]

    def iinv(self, i: int) -> int:
        return self.index[self.inv[self.elements[i]]]


def cyclic_group(n: int) -> Group:
    return Group(range(n), lambda a, b: (a + b) % n, f"Z{n}")


def symmetric_group_3() -> Group:
    elems = sorted(permutations(range(3)))

    def mult(p, q):  # (p q)(x) = p(q(x))
        return tuple(p[q[i]] for i in range(3))

    return Group(elems, mult, "S3")


class HModule:
    """A left module over the group algebra, given by a representation."""

    def __init__(self, group: Group, mats: list[Mat], name: str):
        self.group = group
        self.mats = mats
        self.dim = mats[0].rows if mats else 0
        self.name = name

    def validate(self) -> list[CheckResult]:
        g = self.group
        fail = None
        for i in range(g.order):
            for j in range(g.order):
                if self.mats[i] @ self.mats[j] != self.mats[g.imul(i, j)]:
                    fail = (i, j)
        ident_ok = self.mats[g.index[g.identity]] == Mat.identity(self.dim)
        return [
            CheckResult(f"{self.name}:representation", fail is None, witness=fail),
            CheckResult(f"{self.name}:identity", ident_ok),
        ]


def trivial_module(group: Group) -> HModule:
    return HModule(group, [Mat.identity(1) for _ in range(group.order)], "trivial")


def regular_module(group: Group) -> HModule:
    n = group.order
    mats = [Mat.from_entries(n, n, ((group.imul(i, j), j, ONE) for j in range(n))) for i in range(n)]
    return HModule(group, mats, "regular")


def adjoint_module(group: Group) -> HModule:
    n = group.order
    mats = [
        Mat.from_entries(n, n, ((group.imul(group.imul(i, j), group.iinv(i)), j, ONE) for j in range(n)))
        for i in range(n)
    ]
    return HModule(group, mats, "adjoint")


def sign_module_z2(group: Group) -> HModule:
    mats = [Mat.identity(1), Mat.from_rows([[-1]])]
    return HModule(group, mats, "sign")


def permutation_module_s3(group: Group) -> HModule:
    mats = [Mat.from_entries(3, 3, ((p[j], j, ONE) for j in range(3))) for p in group.elements]
    return HModule(group, mats, "permutation")


def tensor_module(v: HModule, w: HModule, name=None) -> HModule:
    mats = [mv.kron(mw) for mv, mw in zip(v.mats, w.mats)]
    return HModule(v.group, mats, name or f"({v.name}(x){w.name})")


def phi_matrix(group: Group, module: HModule) -> Mat:
    """phi_V(g (x) v) = g.v (x) g on basis coordinates."""
    n, dv = group.order, module.dim
    entries = (
        (k * n + i, i * dv + j, val)
        for i in range(n)
        for j, col in enumerate(module.mats[i].cols_sparse())
        for k, val in col
    )
    return Mat.from_entries(dv * n, n * dv, entries)


def phi_inverse_formula(group: Group, module: HModule) -> Mat:
    """phi_V^{-1}(v (x) h) = h_(2) (x) S^{-1}(h_(1)).v; grouplike: h (x) h^{-1}v."""
    n, dv = group.order, module.dim
    entries = (
        (i * dv + k, j * n + i, val)
        for i in range(n)
        for j, col in enumerate(module.mats[group.iinv(i)].cols_sparse())
        for k, val in col
    )
    return Mat.from_entries(n * dv, dv * n, entries)


class HopfCentreCandidate:
    """(H, adjoint action) with phi_V(h (x) v) = h_(1).v (x) h_(2)."""

    def __init__(self, group: Group, modules: dict[str, HModule]):
        self.group = group
        self.name = f"group-algebra-{group.name}"
        self.adjoint = adjoint_module(group)
        self.modules = dict(modules)

    def object_names(self) -> list[str]:
        return sorted(self.modules)

    def module(self, name: str) -> HModule:
        return self.modules[name]

    def phi(self, module: HModule) -> Mat:
        return phi_matrix(self.group, module)

    def check_unit(self) -> CheckResult:
        # on the trivial module phi must be the canonical flip of coordinates
        triv = trivial_module(self.group)
        phi = self.phi(triv)
        ok = phi == Mat.identity(self.group.order)
        return CheckResult("hopf-unit-object", ok)

    def check_morphism(self, obj: str) -> CheckResult:
        v = self.module(obj)
        phi = self.phi(v)
        n = self.group.order
        fail = None
        for i in range(n):
            src = self.adjoint.mats[i].kron(v.mats[i])
            dst = v.mats[i].kron(self.adjoint.mats[i])
            if phi @ src != dst @ phi:
                fail = (obj, i)
                break
        return CheckResult(f"hopf-morphism-{obj}", fail is None, witness=fail)

    def check_tensor_compat(self, a: str, b: str) -> CheckResult:
        v, w = self.module(a), self.module(b)
        vw = tensor_module(v, w)
        lhs = self.phi(vw)
        rhs = contract(self.phi(w), v.dim, w.dim, self.phi(v), mirror=True)
        return CheckResult(f"hopf-tensor-compat-{a}-{b}", lhs == rhs)

    def check_inverse(self, obj: str) -> CheckResult:
        v = self.module(obj)
        phi = self.phi(v)
        formula = phi_inverse_formula(self.group, v)
        ok = (phi @ formula) == Mat.identity(phi.rows) and (formula @ phi) == Mat.identity(phi.cols)
        ok = ok and formula == inverse(phi)
        return CheckResult(f"hopf-inverse-{obj}", ok)

    def _mu(self) -> Mat:
        n = self.group.order
        return Mat.from_entries(n, n * n, ((self.group.imul(i, j), i * n + j, ONE) for i in range(n) for j in range(n)))

    def check_product_morphism(self) -> CheckResult:
        mu = self._mu()
        n = self.group.order
        fail = None
        for i in range(n):
            src = self.adjoint.mats[i].kron(self.adjoint.mats[i])
            if mu @ src != self.adjoint.mats[i] @ mu:
                fail = i
                break
        return CheckResult("hopf-product-morphism", fail is None, witness=fail)

    def check_algebra_in_centre(self, obj: str) -> CheckResult:
        v = self.module(obj)
        mu = self._mu()
        phi = self.phi(v)
        n, dv = self.group.order, v.dim
        lhs = phi.mul_ikron(1, mu, dv)
        rhs = ikron_mul(dv, mu, 1, contract(phi, n, n, phi))
        return CheckResult(f"hopf-algebra-in-centre-{obj}", lhs == rhs)

    def check_naturality(self) -> list[CheckResult]:
        results = []
        n = self.group.order
        if "regular" in self.modules and "trivial" in self.modules:
            triv, reg = self.module("trivial"), self.module("regular")
            # symmetrizer: trivial -> regular
            sym = Mat.from_cols([[ONE] * n])
            # be sure it is H-linear before using it
            linear = all(reg.mats[i] @ sym == sym @ triv.mats[i] for i in range(n))
            nat = ikron_mul(1, sym, n, self.phi(triv)) == self.phi(reg).mul_ikron(n, sym, 1)
            results.append(CheckResult("hopf-naturality-symmetrizer", linear and nat))
            # coefficient sum: regular -> trivial
            total = Mat.from_rows([[ONE] * n])
            linear = all(triv.mats[i] @ total == total @ reg.mats[i] for i in range(n))
            nat = ikron_mul(1, total, n, self.phi(reg)) == self.phi(triv).mul_ikron(n, total, 1)
            results.append(CheckResult("hopf-naturality-sum", linear and nat))
        return results

    def extra_checks(self) -> list[CheckResult]:
        results = []
        for name, mod in sorted(self.modules.items()):
            for r in mod.validate():
                results.append(r)
        for r in self.adjoint.validate():
            results.append(r)
        # the unit of H is adjoint-invariant, so it is a morphism from the unit object
        e_idx = self.group.index[self.group.identity]
        ok = all(mat.column(e_idx) == Mat.identity(self.group.order).column(e_idx) for mat in self.adjoint.mats)
        results.append(CheckResult("hopf-unit-element-invariant", ok))
        return results


def standard_candidate(which: str) -> HopfCentreCandidate:
    if which == "Z2":
        g = cyclic_group(2)
        modules = {"trivial": trivial_module(g), "sign": sign_module_z2(g), "regular": regular_module(g)}
    elif which == "S3":
        g = symmetric_group_3()
        modules = {
            "trivial": trivial_module(g),
            "permutation": permutation_module_s3(g),
            "regular": regular_module(g),
        }
    else:
        raise ValueError(f"unknown Hopf example {which!r}")
    return HopfCentreCandidate(g, modules)
