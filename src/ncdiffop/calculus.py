"""Modules with connection: left covariant derivatives, bimodule connections,
iterated derivatives, the module action of tensor powers of vector fields, and
the tensor-product connection.
"""

from __future__ import annotations

from typing import Optional

from .bimodule import Bimodule, TensorPair, intertwining_failure
from .geometry import Geometry
from .linalg import Mat, first_mismatch, inverse
from .report import ValidationError, raise_first_failure


class SigmaRequired(ValueError):
    pass


class ConnectionModule:
    """A bimodule E with a left covariant derivative, optionally a bimodule
    connection (invertible generalised braiding sigma_E), plus cached iterated
    derivatives and action tables.
    """

    def __init__(
        self,
        geometry: Geometry,
        space: Bimodule,
        nabla: Mat,
        sigma: Optional[Mat] = None,
        name: str = "E",
        validate: bool = True,
        sigma_invertible_required: bool = False,
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
        self.sigma_inv = None
        if sigma is not None:
            if sigma.rows != self.OE.dim or sigma.cols != self.EO.dim:
                raise ValidationError("sigma-shape", witness=name)
            fail = intertwining_failure(self.EO.space, self.OE.space, sigma)
            if fail is not None:
                raise ValidationError("sigma-bimodule-map", witness=(name, fail))
            try:
                self.sigma_inv = inverse(sigma)
            except ValueError:
                if sigma_invertible_required:
                    raise ValidationError("sigma-invertible", witness=name) from None
        self._nabla_pow: dict[int, Mat] = {1: nabla}
        self._act: dict[int, Mat] = {}
        if validate:
            self._validate_leibniz()

    # -- validation -----------------------------------------------------------

    def _validate_leibniz(self):
        """nabla(a.e) = da (x) e + a.nabla(e) and, with a braiding, nabla(e.a) =
        nabla(e).a + sigma(e (x) da), each on Kron(A, E)."""
        g = self.geometry
        A, E, nabla = g.algebra, self.space, self.nabla
        IA, IE = Mat.identity(A.dim), Mat.identity(E.dim)
        shape = (A.dim, E.dim)
        left = nabla @ E.left_action()
        left_rhs = self.OE.project @ g.d.kron(IE) + self.OE.space.left_action() @ IA.kron(nabla)
        checks = {"left-leibniz": first_mismatch(left, left_rhs, shape)}
        if self.sigma is not None:
            flip = Mat.swap(A.dim, E.dim)
            right = nabla @ E.right_action()
            right_rhs = self.OE.space.right_action() @ nabla.kron(IA) + self.sigma @ self.EO.project @ IE.kron(g.d)
            checks["right-leibniz"] = first_mismatch(right @ flip, right_rhs @ flip, shape)
        raise_first_failure({name: None if w is None else (self.name, *w) for name, w in checks.items()})

    @property
    def has_sigma(self) -> bool:
        return self.sigma is not None

    def require_invertible_sigma(self):
        if self.sigma is None:
            raise SigmaRequired(f"{self.name}: no generalised braiding")
        if self.sigma_inv is None:
            raise ValidationError("sigma-invertible", witness=self.name)

    def sigma_plain_dom(self) -> Mat:
        """sigma with plain Kron(E, Omega) domain."""
        return self.sigma @ self.EO.project

    # -- iterated derivatives ---------------------------------------------------

    def WE(self, n: int) -> TensorPair:
        return self.geometry.pair(self.geometry.W(n), self.space)

    def nabla_pow(self, n: int) -> Mat:
        """nabla^(n): E -> W(n) (x)_A E; nabla^(0) is the identity."""
        if n == 0:
            raise ValueError("nabla_pow starts at 1; degree 0 is the identity")
        if n in self._nabla_pow:
            return self._nabla_pow[n]
        g = self.geometry
        k = n - 1
        prev = self.nabla_pow(k)
        Wk, E = g.W(k), self.space
        WEk = self.WE(k)
        WEn = self.WE(n)
        m1 = WEn.project @ g.box_form_pow(k).kron(Mat.identity(E.dim))
        m2 = (
            WEn.project
            @ g.merge_om(k, 1).kron(Mat.identity(E.dim))
            @ Mat.identity(Wk.dim).kron(self.OE.section)
            @ Mat.identity(Wk.dim).kron(self.nabla)
        )
        total = m1 + m2
        if not WEk.descends(total):
            raise ValidationError("nabla-pow-not-well-defined", witness=(self.name, n))
        out = total @ WEk.section @ prev
        self._nabla_pow[n] = out
        return out

    # -- the action of tensor powers of vector fields ----------------------------

    def act_table(self, n: int) -> Mat:
        """degree-n action: Kron(V(n), E) -> E via ev<n> and nabla^(n)."""
        if n in self._act:
            return self._act[n]
        g = self.geometry
        E = self.space
        if n == 0:
            out = E.left_action()
        else:
            out = E.ev_left(g.ev_pow(n), self.WE(n).section @ self.nabla_pow(n))
        self._act[n] = out
        return out

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
    sigma = g.pair(A, g.omega).induce(OA.project @ g.omega.left_action().kron(g.one), "sigma-A")
    return ConnectionModule(g, A, nabla, sigma, name=name, validate=validate, sigma_invertible_required=True)


def vec_module(geometry: Geometry, name: str = "vec", validate: bool = True) -> ConnectionModule:
    """Vector fields with the dual connection (box, sigma) derived in geometry."""
    g = geometry
    return ConnectionModule(
        g, g.vec, g.box_vec, g.sigma_vec, name=name, validate=validate, sigma_invertible_required=True
    )


def omega_module(
    geometry: Geometry, nabla_plain: Mat, sigma_plain: Mat, name: str = "omega1", validate: bool = True
) -> ConnectionModule:
    """1-forms with a declared left bimodule connection (plain-representative input)."""
    g = geometry
    W2 = g.W2
    nabla = W2.project @ nabla_plain
    sigma = W2.induce(W2.project @ sigma_plain, "sigma-omega")
    return ConnectionModule(
        g, g.omega, nabla, sigma, name=name, validate=validate, sigma_invertible_required=True
    )


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
    push_merge = OEF.project @ Mat.identity(g.omega.dim).kron(pair_ef.project)
    m1 = push_merge @ em.OE.section.kron(Mat.identity(F.dim)) @ em.nabla.kron(Mat.identity(F.dim))
    m2 = (
        push_merge
        @ em.OE.section.kron(Mat.identity(F.dim))
        @ em.sigma_plain_dom().kron(Mat.identity(F.dim))
        @ Mat.identity(E.dim).kron(fm.OE.section)
        @ Mat.identity(E.dim).kron(fm.nabla)
    )
    total = m1 + m2
    if not pair_ef.descends(total):
        raise ValidationError("tensor-connection-not-well-defined", witness=(em.name, fm.name))
    nabla = total @ pair_ef.section

    sigma = None
    if fm.has_sigma:
        fm.require_invertible_sigma()
        EFO = g.pair(EF, g.omega)
        # (sigma_E (x) id)(id (x) sigma_F) on plain E (x) F (x) Omega coordinates
        plain = (
            push_merge
            @ em.OE.section.kron(Mat.identity(F.dim))
            @ em.sigma_plain_dom().kron(Mat.identity(F.dim))
            @ Mat.identity(E.dim).kron(fm.OE.section)
            @ Mat.identity(E.dim).kron(fm.sigma_plain_dom())
        )
        lift_both = pair_ef.section.kron(Mat.identity(g.omega.dim))
        sigma = EFO.induce(plain @ lift_both, "sigma-tensor")
    return ConnectionModule(
        g,
        EF,
        nabla,
        sigma,
        name=name or f"({em.name}(x){fm.name})",
        sigma_invertible_required=fm.has_sigma,
    )


def connection_morphism_defect(em: ConnectionModule, fm: ConnectionModule, t: Mat):
    """Whether T: E -> F intertwines the connections; returns a witness or None."""
    g = em.geometry
    lhs = fm.nabla @ t
    rhs_plain = Mat.identity(g.omega.dim).kron(t)
    rhs = fm.OE.project @ rhs_plain @ em.OE.section @ em.nabla
    fail = first_mismatch(lhs, rhs, (em.space.dim,))
    return None if fail is None else fail[0]


def sigma_compat_defect(em: ConnectionModule, fm: ConnectionModule, t: Mat):
    """Check sigma_F(T (x) id) = (id (x) T) sigma_E (automatic for morphisms)."""
    g = em.geometry
    lhs = fm.sigma @ fm.EO.project @ t.kron(Mat.identity(g.omega.dim)) @ em.EO.section
    rhs = fm.OE.project @ Mat.identity(g.omega.dim).kron(t) @ em.OE.section @ em.sigma
    fail = first_mismatch(lhs, rhs, (em.EO.dim,))
    return None if fail is None else fail[0]
