"""Group-algebra Hopf algebras and their module categories: the independent
verification path for the centre axioms.

For a group algebra H the coproduct is grouplike, the antipode is inversion,
and the candidate object is H under the adjoint action ``g |> h = g h g^{-1}``,
crossed over any module V by ``phi_V(h (x) v) = h_(1).v (x) h_(2)``: the centre
of H-mod is the classical Drinfeld centre (Kassel, *Quantum Groups*, GTM 155).

A group is read once into its multiplication ``mu: Kron(H, H) -> H``.  A module
holds one action ``Kron(H, V) -> V``, column ``i*dim + j`` being ``g_i . v_j`` as
in ``Bimodule.left_action``.  Every axiom is one identity between such matrices
on its own Kronecker domain, its witness the first failing basis tuple
(``first_mismatch``), as on the operator-algebra path.
"""

from __future__ import annotations

from itertools import permutations

from .linalg import Mat, contract, first_mismatch, ikron_mul
from .report import CheckResult, first_failure
from .scalars import ONE


def _ones(d: int) -> Mat:
    """The 1 x d row of ones: on a group algebra of order d its counit, every g being grouplike."""
    return Mat(1, d, [[(0, ONE)]] * d)


class Group:
    """A finite group read once into the multiplication ``mu: Kron(H, H) -> H`` of its
    group algebra (column ``i*n + j`` is g_i g_j), with the ``unit: 1 -> H`` and the
    ``antipode`` g -> g^{-1} read from that table."""

    def __init__(self, elements, mult, name: str):
        self.elements = list(elements)
        self.mult = mult  # (e, f) -> element
        self.name = name
        self.order = n = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        table = [index[mult(e, f)] for e in self.elements for f in self.elements]
        self.mu = Mat(n, n * n, [[(k, ONE)] for k in table])
        basis = list(range(n))
        units = [e for e in basis if table[e * n : e * n + n] == basis == table[e::n]]
        if not units:
            raise ValueError("multiplication table has no identity")
        self.unit = Mat(n, 1, [[(units[0], ONE)]])
        self.antipode = Mat(n, n, [[(table[i * n : i * n + n].index(units[0]), ONE)] for i in basis])


def cyclic_group(n: int) -> Group:
    return Group(range(n), lambda a, b: (a + b) % n, f"Z{n}")


def symmetric_group_3() -> Group:
    elems = sorted(permutations(range(3)))

    def mult(p, q):  # (p q)(x) = p(q(x))
        return tuple(p[q[i]] for i in range(3))

    return Group(elems, mult, "S3")


def _check(name: str, fail) -> CheckResult:
    return CheckResult(name, fail is None, witness=fail)


def _h_linear(f: Mat, v: "HModule", w: "HModule"):
    """The first (g, x) where f: V -> W fails g.f(x) = f(g.x), on Kron(H, V), or None."""
    n = v.group.order
    return first_mismatch(w.action.mul_ikron(n, f, 1), f @ v.action, (n, v.dim))


class HModule:
    """A left module over the group algebra, given by its action ``Kron(H, V) -> V``."""

    def __init__(self, group: Group, action: Mat, name: str):
        self.group = group
        self.action = action
        self.dim = action.rows
        self.name = name

    def validate(self) -> list[CheckResult]:
        """g.(h.v) = (g h).v on Kron(H, H, V), its witness the first failing (g, h); 1.v = v on V."""
        act, n, dim = self.action, self.group.order, self.dim
        rep = first_mismatch(act.mul_ikron(n, act, 1), act.mul_ikron(1, self.group.mu, dim), (n, n, dim))
        ident = first_mismatch(act.mul_ikron(1, self.group.unit, dim), Mat.identity(dim), (dim,))
        return [
            _check(f"{self.name}:representation", None if rep is None else rep[:2]),
            _check(f"{self.name}:identity", ident),
        ]


def trivial_module(group: Group) -> HModule:
    return HModule(group, _ones(group.order), "trivial")


def regular_module(group: Group) -> HModule:
    return HModule(group, group.mu, "regular")


def adjoint_module(group: Group) -> HModule:
    """g |> h = mu (mu (x) id) (g (x) h (x) S(g))."""
    n = group.order
    inverse = [col[0][0] for col in group.antipode.cols_sparse()]  # S(g_i) is g_inverse[i]
    spread = Mat(n**3, n * n, [[(t * n + inverse[t // n], ONE)] for t in range(n * n)])  # g (x) h -> g (x) h (x) S(g)
    return HModule(group, group.mu.mul_ikron(1, group.mu, n) @ spread, "adjoint")


def sign_module_z2(group: Group) -> HModule:
    return HModule(group, Mat.from_rows([[1, -1]]), "sign")


def permutation_module_s3(group: Group) -> HModule:
    return HModule(group, Mat(3, 18, [[(p[j], ONE)] for p in group.elements for j in range(3)]), "permutation")


def tensor_module(v: HModule, w: HModule, name=None) -> HModule:
    """g acts on V (x) W by the Kronecker product of its blocks on V and on W."""
    dv, dw, vcols, wcols = v.dim, w.dim, v.action.cols_sparse(), w.action.cols_sparse()
    cols = []
    for i in range(v.group.order):
        cols += Mat(dv, dv, vcols[i * dv : i * dv + dv]).kron(Mat(dw, dw, wcols[i * dw : i * dw + dw])).cols_sparse()
    return HModule(v.group, Mat(dv * dw, len(cols), cols), name or f"({v.name}(x){w.name})")


def phi_matrix(group: Group, module: HModule) -> Mat:
    """phi_V(g (x) v) = g.v (x) g: column (g, v) of the action, tensored with g."""
    n, dv = group.order, module.dim
    cols = module.action.cols_sparse()
    return Mat(dv * n, n * dv, [[(k * n + t // dv, x) for k, x in col] for t, col in enumerate(cols)])


def phi_inverse_formula(group: Group, module: HModule) -> Mat:
    """phi_V^{-1}(v (x) h) = h_(2) (x) S^{-1}(h_(1)).v; grouplike: h (x) h^{-1}.v."""
    n, dv = group.order, module.dim
    acted = module.action.mul_ikron(1, group.antipode, dv).cols_sparse()  # column (h, v) is h^{-1}.v
    return Mat(n * dv, dv * n, [[(i * dv + k, x) for k, x in acted[i * dv + j]] for j in range(dv) for i in range(n)])


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
        """On the trivial module phi must be the canonical flip of coordinates.

        No input can make this fail: phi of a freshly built trivial module is read off
        that module's own action columns, so the check tests only that ``phi_matrix``
        and ``trivial_module`` agree.  ROADMAP item 10 (the census of checks that
        cannot fail) is to give it an independent side."""
        n = self.group.order
        return _check("hopf-unit-object", first_mismatch(self.phi(trivial_module(self.group)), Mat.identity(n), (n, 1)))

    def check_morphism(self, obj: str) -> CheckResult:
        # phi_V: H (x) V -> V (x) H is H-linear; the witness names the first failing g
        v = self.module(obj)
        fail = _h_linear(self.phi(v), tensor_module(self.adjoint, v), tensor_module(v, self.adjoint))
        return _check(f"hopf-morphism-{obj}", None if fail is None else (obj, fail[0]))

    def check_tensor_compat(self, a: str, b: str) -> CheckResult:
        """phi of V (x) W is phi_V and phi_W applied one after the other.

        No input can make this fail: phi of the tensor module and the phi of both factors
        are read off the same action columns, the first through ``tensor_module``, so the
        check tests only that ``phi_matrix`` and ``tensor_module`` agree.  ROADMAP item 10
        (the census of checks that cannot fail) is to give it an independent side, for
        example phi of V (x) W taken from the coproduct as its own matrix."""
        v, w = self.module(a), self.module(b)
        lhs = self.phi(tensor_module(v, w))
        rhs = contract(self.phi(w), v.dim, w.dim, self.phi(v), mirror=True)
        return _check(f"hopf-tensor-compat-{a}-{b}", first_mismatch(lhs, rhs, (self.group.order, v.dim, w.dim)))

    def check_inverse(self, obj: str) -> CheckResult:
        # phi is square, so a left inverse is its inverse
        v = self.module(obj)
        phi = self.phi(v)
        formula = phi_inverse_formula(self.group, v)
        fail = first_mismatch(formula @ phi, Mat.identity(phi.cols), (self.group.order, v.dim))
        return _check(f"hopf-inverse-{obj}", fail)

    def check_product_morphism(self) -> CheckResult:
        # mu: H (x) H -> H is H-linear; the witness names the first failing g
        fail = _h_linear(self.group.mu, tensor_module(self.adjoint, self.adjoint), self.adjoint)
        return _check("hopf-product-morphism", None if fail is None else fail[0])

    def check_algebra_in_centre(self, obj: str) -> CheckResult:
        v = self.module(obj)
        mu, phi = self.group.mu, self.phi(v)
        n, dv = self.group.order, v.dim
        lhs = phi.mul_ikron(1, mu, dv)
        rhs = ikron_mul(dv, mu, 1, contract(phi, n, n, phi))
        return _check(f"hopf-algebra-in-centre-{obj}", first_mismatch(lhs, rhs, (n, n, dv)))

    def _natural(self, name: str, f: Mat, v: HModule, w: HModule) -> CheckResult:
        """f: V -> W is H-linear and (f (x) id) phi_V = phi_W (id (x) f), both on Kron(H, V)."""
        n = self.group.order
        natural = first_mismatch(ikron_mul(1, f, n, self.phi(v)), self.phi(w).mul_ikron(n, f, 1), (n, v.dim))
        return _check(name, first_failure({"H-linear": _h_linear(f, v, w), "natural": natural}))

    def check_naturality(self) -> list[CheckResult]:
        if "regular" not in self.modules or "trivial" not in self.modules:
            return []
        triv, reg = self.module("trivial"), self.module("regular")
        total = _ones(self.group.order)
        return [
            self._natural("hopf-naturality-symmetrizer", total.transpose(), triv, reg),
            self._natural("hopf-naturality-sum", total, reg, triv),
        ]

    def extra_checks(self) -> list[CheckResult]:
        results = [r for name in sorted(self.modules) for r in self.modules[name].validate()]
        results += self.adjoint.validate()
        # the unit of H is adjoint-invariant, so it is a morphism from the unit object
        fail = _h_linear(self.group.unit, trivial_module(self.group), self.adjoint)
        return results + [_check("hopf-unit-element-invariant", fail)]


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
