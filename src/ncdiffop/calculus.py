"""Modules with connection: left covariant derivatives, bimodule connections,
iterated derivatives, the module action of tensor powers of vector fields, and
the tensor-product connection.

A module's Leibniz rules are one invariant, ``ConnectionModule.leibniz_failure``,
which returns the first failure, ``(name, witness)``, or None; a validating
constructor raises it, and the ``connections`` suite reports it.
"""

from __future__ import annotations

from typing import Optional

from .bimodule import Bimodule, TensorPair, intertwining_failure
from .geometry import Geometry
from .linalg import Mat, first_mismatch, inverse
from .memo import memo
from .report import ValidationError, first_failure, raise_failure


class SigmaRequired(ValueError):
    pass


class ConnectionModule:
    """A bimodule E with a left covariant derivative, optionally a bimodule
    connection (invertible generalised braiding sigma_E; a braiding that does
    not invert is refused as ``sigma-invertible``), plus the iterated
    derivatives and action tables, each built once per degree by ``@memo`` and
    kept on the module.
    """

    def __init__(
        self,
        geometry: Geometry,
        space: Bimodule,
        nabla: Mat,
        sigma: Optional[Mat] = None,
        name: str = "E",
        validate: bool = True,
    ):
        self.geometry = geometry
        self.space = space
        self.name = name
        self.OE = geometry.pair(geometry.omega, space)
        self.EO = geometry.pair(space, geometry.omega)
        if nabla.rows != self.OE.dim or nabla.cols != space.dim:
            raise ValidationError("nabla-shape", witness=name)
        self.nabla = nabla
        self.sigma = sigma  # quotient-level: EO.space -> OE.space
        if sigma is not None:
            if sigma.rows != self.OE.dim or sigma.cols != self.EO.dim:
                raise ValidationError("sigma-shape", witness=name)
            fail = intertwining_failure(self.EO.space, self.OE.space, sigma)
            if fail is not None:
                raise ValidationError("sigma-bimodule-map", witness=(name, fail))
            try:
                inverse(sigma)  # the braiding must invert; the inverse itself is not needed
            except ValueError:
                raise ValidationError("sigma-invertible", witness=name) from None
        if validate:
            raise_failure(self.leibniz_failure())

    # -- validation -----------------------------------------------------------

    def leibniz_failure(self):
        """nabla(a.e) = da (x) e + a.nabla(e) on Kron(A, E) and, with a braiding,
        nabla(e.a) = nabla(e).a + sigma(e (x) da) on Kron(E, A), each witness read as (a, e)."""
        g = self.geometry
        A, E, nabla = g.algebra, self.space, self.nabla
        left = nabla @ E.left_action
        left_rhs = self.OE.project.mul_ikron(1, g.d, E.dim) + self.OE.space.left_action.mul_ikron(A.dim, nabla, 1)
        checks = {"left-leibniz": first_mismatch(left, left_rhs, (A.dim, E.dim))}
        if self.sigma is not None:
            right = nabla @ E.right_action
            crossed = (self.sigma @ self.EO.project).mul_ikron(E.dim, g.d, 1)
            right_rhs = self.OE.space.right_action.mul_ikron(1, nabla, A.dim) + crossed
            checks["right-leibniz"] = first_mismatch(right, right_rhs, (E.dim, A.dim), order=(1, 0))
        return first_failure({name: None if w is None else (self.name, *w) for name, w in checks.items()})

    @property
    def has_sigma(self) -> bool:
        return self.sigma is not None

    def require_invertible_sigma(self):
        if self.sigma is None:
            raise SigmaRequired(f"{self.name}: no generalised braiding")

    def sigma_plain_dom(self) -> Mat:
        """sigma with plain Kron(E, Omega) domain."""
        return self.sigma @ self.EO.project

    # -- iterated derivatives ---------------------------------------------------

    def WE(self, n: int) -> TensorPair:
        return self.geometry.pair(self.geometry.W(n), self.space)

    @memo
    def nabla_pow(self, n: int) -> Mat:
        """nabla^(n): E -> W(n) (x)_A E; nabla^(0) is the identity."""
        if n == 0:
            raise ValueError("nabla_pow starts at 1; degree 0 is the identity")
        if n == 1:
            return self.nabla
        g = self.geometry
        k = n - 1
        prev = self.nabla_pow(k)
        Wk, E = g.W(k), self.space
        WEk = self.WE(k)
        WEn = self.WE(n)
        m1 = WEn.project.mul_ikron(1, g.box_form_pow(k), E.dim)
        m2 = WEn.project.mul_ikron(1, g.merge_om(k, 1), E.dim).mul_ikron(Wk.dim, self.OE.section @ self.nabla, 1)
        return WEk.induce(m1 + m2, "nabla-pow", (self.name, n)) @ prev

    # -- the action of tensor powers of vector fields ----------------------------

    @memo
    def act_table(self, n: int) -> Mat:
        """degree-n action: Kron(V(n), E) -> E via ev<n> and nabla^(n)."""
        if n == 0:
            return self.space.left_action
        return self.space.ev_left(self.geometry.ev_pow(n), self.WE(n).section @ self.nabla_pow(n))

    def act(self, n: int, v: Mat, e: Mat) -> Mat:
        """v |> e for one-column coordinates v in V(n) and e in E."""
        return self.act_table(n) @ v.kron(e)


def trivial_module(geometry: Geometry, name: str = "A", validate: bool = True) -> ConnectionModule:
    """The algebra itself with nabla = d and the canonical braiding."""
    g = geometry
    A = g.A_bim
    OA = g.pair(g.omega, A)
    nabla = OA.project @ g.d.kron(g.one)
    # a (x) xi -> a.xi (x) 1
    AO = g.pair(A, g.omega)
    sigma = AO.induce(OA.project @ g.omega.left_action.kron(g.one), "sigma-A", AO.space.name)
    return ConnectionModule(g, A, nabla, sigma, name=name, validate=validate)


def vec_module(geometry: Geometry, name: str = "vec", validate: bool = True) -> ConnectionModule:
    """Vector fields with the dual connection (box, sigma) derived in geometry."""
    g = geometry
    return ConnectionModule(g, g.vec, g.box_vec, g.sigma_vec, name=name, validate=validate)


def omega_module(
    geometry: Geometry, nabla_plain: Mat, sigma_plain: Mat, name: str = "omega1", validate: bool = True
) -> ConnectionModule:
    """1-forms with a declared left bimodule connection (plain-representative input)."""
    g = geometry
    W2 = g.W2
    nabla = W2.project @ nabla_plain
    sigma = W2.induce(W2.project @ sigma_plain, "sigma-omega", W2.space.name)
    return ConnectionModule(g, g.omega, nabla, sigma, name=name, validate=validate)


def tensor_connection(em: ConnectionModule, fm: ConnectionModule, name: Optional[str] = None) -> ConnectionModule:
    """The tensor-product connection on E (x)_A F.

    Needs an invertible braiding on the left factor; produces a bimodule
    connection when the right factor has one too.  Both defining summands are
    assembled on plain tensors and the sum is checked to descend.
    """
    if em.geometry is not fm.geometry:
        raise ValueError("modules live over different bundles")
    g = em.geometry
    em.require_invertible_sigma()
    E, F = em.space, fm.space
    pair_ef = g.pair(E, F)
    EF = pair_ef.space
    OEF = g.pair(g.omega, EF)
    push_merge = OEF.project.mul_ikron(g.omega.dim, pair_ef.project, 1)
    m1 = push_merge.mul_ikron(1, em.OE.section @ em.nabla, F.dim)
    # sigma_E (x) id_F, then id_E (x) nabla_F or id_E (x) sigma_F on plain coordinates
    crossed = push_merge.mul_ikron(1, em.OE.section @ em.sigma_plain_dom(), F.dim)
    m2 = crossed.mul_ikron(E.dim, fm.OE.section @ fm.nabla, 1)
    nabla = pair_ef.induce(m1 + m2, "tensor-connection", (em.name, fm.name))

    sigma = None
    if fm.has_sigma:
        fm.require_invertible_sigma()
        EFO = g.pair(EF, g.omega)
        # (sigma_E (x) id)(id (x) sigma_F) on plain E (x) F (x) Omega coordinates
        plain = crossed.mul_ikron(E.dim, fm.OE.section @ fm.sigma_plain_dom(), 1)
        sigma = EFO.induce(plain.mul_ikron(1, pair_ef.section, g.omega.dim), "sigma-tensor", EFO.space.name)
    return ConnectionModule(g, EF, nabla, sigma, name=name or f"({em.name}(x){fm.name})")


def connection_morphism_defect(em: ConnectionModule, fm: ConnectionModule, t: Mat):
    """Whether T: E -> F intertwines the connections; returns a witness or None."""
    g = em.geometry
    lhs = fm.nabla @ t
    rhs = fm.OE.project.mul_ikron(g.omega.dim, t, 1) @ em.OE.section @ em.nabla
    fail = first_mismatch(lhs, rhs, (em.space.dim,))
    return None if fail is None else fail[0]


def sigma_compat_defect(em: ConnectionModule, fm: ConnectionModule, t: Mat):
    """Check sigma_F(T (x) id) = (id (x) T) sigma_E (automatic for morphisms)."""
    g = em.geometry
    lhs = (fm.sigma @ fm.EO.project).mul_ikron(1, t, g.omega.dim) @ em.EO.section
    rhs = fm.OE.project.mul_ikron(g.omega.dim, t, 1) @ em.OE.section @ em.sigma
    fail = first_mismatch(lhs, rhs, (em.EO.dim,))
    return None if fail is None else fail[0]
