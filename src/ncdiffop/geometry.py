"""The geometric core of a bundle: first-order calculus, the right connection
on 1-forms with its generalised braiding, the dual left connection on vector
fields, and the memoized tensor-power towers both constructions extend to.

Index conventions.  Vector-field powers grow on the left,
``V(n+1) = Vec (x)_A V(n)``; form powers grow on the right,
``W(n+1) = W(n) (x)_A Omega1``.  Plain (un-quotiented) tensor coordinates pack
row-major, ``idx = i * dim_right + j``.  Every operator that the theory only
defines as a sum of non-well-defined terms is assembled on plain coordinates
and checked to kill the relation span before it is pushed to the quotient.

All caches are write-once per key and everything is immutable after
construction, so concurrent readers (e.g. parallel test workers) are safe.
"""

from __future__ import annotations

from .algebra import Algebra
from .bimodule import (
    Bimodule,
    FGPStructure,
    TensorPair,
    algebra_as_bimodule,
    dualize_right_module,
    intertwining_failure,
    zigzag_failure,
)
from .linalg import Mat, first_mismatch, inverse, rank
from .report import ValidationError, raise_first_failure


class DualityFailure(ValidationError):
    pass


class Geometry:
    """Everything derived from (A, Omega1, d, dual basis, box, sigma-inverse)."""

    def __init__(
        self,
        algebra: Algebra,
        omega: Bimodule,
        d: Mat,
        dual_basis_forms,
        dual_basis_functionals,
        box_plain: Mat,
        sigma_inv_plain: Mat,
        name: str = "bundle",
        validate: bool = True,
    ):
        self.algebra = algebra
        self.omega = omega
        self.d = d
        self.name = name
        self.A_bim = algebra_as_bimodule(algebra)
        self.one = Mat.from_cols([algebra.unit], algebra.dim)  # the unit as a map from the ground field
        self._pairs: dict[tuple[int, int], TensorPair] = {}
        self._V: dict[int, Bimodule] = {}
        self._W: dict[int, Bimodule] = {}
        self._merge_vec: dict[tuple[int, int], Mat] = {}
        self._merge_om: dict[tuple[int, int], Mat] = {}
        self._box_form_pow: dict[int, Mat] = {}
        self._box_vec_pow: dict[int, Mat] = {}
        self._ev_pow: dict[int, Mat] = {}
        self._coev_pow: dict[int, Mat] = {}
        self._braid_form: dict[int, Mat] = {}
        self._braid_vec: dict[int, Mat] = {}

        if validate:
            self._validate_algebra_and_module()
            self._validate_calculus()

        self.fgp: FGPStructure = dualize_right_module(omega, dual_basis_forms, dual_basis_functionals)
        self.vec = self.fgp.dual
        self.coev_one = self.fgp.coev_one  # coev(1), plain
        self._pairs[(id(self.vec), id(omega))] = self.fgp.pair_dual_module
        self._pairs[(id(omega), id(self.vec))] = self.fgp.pair_module_dual

        self.W2 = self.pair(omega, omega)
        if box_plain.rows != omega.dim * omega.dim or box_plain.cols != omega.dim:
            raise ValidationError("box-shape", witness=(box_plain.rows, box_plain.cols))
        self.box_form = self.W2.project @ box_plain
        sig = self.W2.project @ sigma_inv_plain
        if not self.W2.descends(sig):
            raise ValidationError("sigma-inv-not-well-defined")
        self.sigma_inv_form = sig @ self.W2.section
        fail = intertwining_failure(self.W2.space, self.W2.space, self.sigma_inv_form)
        if fail is not None:
            raise ValidationError("sigma-inv-bimodule-map", witness=fail)
        try:
            self.sigma_form = inverse(self.sigma_inv_form)
        except ValueError:
            raise ValidationError("sigma-invertible") from None
        if validate:
            self._validate_right_connection()

        self._build_dual_connection(check=validate)

    # -- small helpers -----------------------------------------------------

    def pair(self, e: Bimodule, f: Bimodule) -> TensorPair:
        key = (id(e), id(f))
        if key not in self._pairs:
            self._pairs[key] = TensorPair(e, f)
        return self._pairs[key]

    # -- validation of the raw inputs ---------------------------------------

    def _validate_algebra_and_module(self):
        for r in self.algebra.validate():
            if not r.ok:
                raise ValidationError(r.name, witness=r.witness)
        for r in self.omega.validate():
            if not r.ok:
                raise ValidationError(r.name, witness=r.witness)

    def _validate_calculus(self):
        A, om, d = self.algebra, self.omega, self.d
        if d.rows != om.dim or d.cols != A.dim:
            raise ValidationError("d-shape")
        # d(ab) = da.b + a.db on Kron(A, A)
        IA = Mat.identity(A.dim)
        lhs = d @ self.A_bim.left_action()
        rhs = om.right_action() @ d.kron(IA) + om.left_action() @ IA.kron(d)
        fail = first_mismatch(lhs, rhs, (A.dim, A.dim))
        if fail is not None:
            raise ValidationError("leibniz", witness=fail)
        if not (d @ self.one).is_zero():
            raise ValidationError("d-of-unit")
        # surjectivity: span{a.db} = Omega1
        spanned = rank(om.left_action() @ IA.kron(d))
        if spanned != om.dim:
            raise ValidationError("surjectivity", witness=spanned)

    def _validate_right_connection(self):
        """box(xi.a) = box(xi).a + xi (x) da and box(a.xi) = a.box(xi) + sigma_inv(da (x) xi),
        each on Kron(A, Omega1); the right actions are reordered from Kron(Omega1, A)."""
        A, om, box, W2 = self.algebra, self.omega, self.box_form, self.W2
        IA, Iom = Mat.identity(A.dim), Mat.identity(om.dim)
        flip = Mat.swap(A.dim, om.dim)
        right = box @ om.right_action()
        right_rhs = W2.space.right_action() @ box.kron(IA) + W2.project @ Iom.kron(self.d)
        left = box @ om.left_action()
        left_rhs = W2.space.left_action() @ IA.kron(box) + self.sigma_inv_form @ W2.project @ self.d.kron(Iom)
        shape = (A.dim, om.dim)
        raise_first_failure(
            {
                "box-right-leibniz": first_mismatch(right @ flip, right_rhs @ flip, shape),
                "box-left-leibniz": first_mismatch(left, left_rhs, shape),
            }
        )

    # -- dual connection on vector fields ------------------------------------

    def cross_fields(self, E: Bimodule, crossed: Mat) -> Mat:
        """(ev (x) id (x) id)(id (x) crossed (x) id)(id (x) id (x) coev(1)): the braiding
        Kron(Vec, E) -> E (x)_A Vec of vector fields past E derived from a plain
        crossing ``crossed: Kron(E, Omega1) -> Kron(Omega1, E)``."""
        dvec = self.vec.dim
        return (
            self.pair(E, self.vec).project
            @ E.ev_left(self.fgp.apply_mat, crossed).kron(Mat.identity(dvec))
            @ Mat.identity(dvec * E.dim).kron(self.coev_one)
        )

    def _build_dual_connection(self, check: bool = True):
        """box(v) = d(v(alpha)) (x) w - (ev (x) id (x) id)(v (x) box(alpha) (x) w) over coev(1) = alpha (x) w."""
        om, vec, ev, W2 = self.omega, self.vec, self.fgp.apply_mat, self.W2
        Ivec = Mat.identity(vec.dim)
        OV1 = self.pair(om, vec)
        self.OV1 = OV1
        # Kron(Vec, Omega1) -> Omega1: v (x) alpha -> d(v(alpha)) - (ev (x) id)(v (x) box(alpha))
        inner = self.d @ ev - om.ev_left(ev, W2.section @ self.box_form)
        self.box_vec = OV1.project @ inner.kron(Ivec) @ Ivec.kron(self.coev_one)

        # sigma on fields, Kron(Vec, Omega1) -> OV1: (ev (x) id (x) id)(id (x) sigma_inv (x) id)(id (x) id (x) coev(1))
        VO1 = self.pair(vec, om)
        self.VO1 = VO1
        self.sigma_vec_plain = self.cross_fields(om, W2.section @ self.sigma_inv_form @ W2.project)
        if not VO1.descends(self.sigma_vec_plain):
            raise ValidationError("sigma-vec-not-well-defined")
        self.sigma_vec = self.sigma_vec_plain @ VO1.section
        fail = intertwining_failure(VO1.space, OV1.space, self.sigma_vec)
        if fail is not None:
            raise ValidationError("sigma-vec-bimodule-map", witness=fail)
        try:
            self.sigma_vec_inv = inverse(self.sigma_vec)
        except ValueError:
            raise ValidationError("sigma-vec-invertible") from None

        if check:
            self._validate_dual_connection()

    def _validate_dual_connection(self):
        """box(v.a) = box(v).a + sigma(v (x) da) and box(a.v) = a.box(v) + da (x) v, each
        on Kron(A, Vec), then the duality with the right connection on forms."""
        A, vec, box, OV1 = self.algebra, self.vec, self.box_vec, self.OV1
        IA, Ivec = Mat.identity(A.dim), Mat.identity(vec.dim)
        flip = Mat.swap(A.dim, vec.dim)
        right = box @ vec.right_action()
        right_rhs = OV1.space.right_action() @ box.kron(IA) + self.sigma_vec_plain @ Ivec.kron(self.d)
        left = box @ vec.left_action()
        left_rhs = OV1.space.left_action() @ IA.kron(box) + OV1.project @ self.d.kron(Ivec)
        shape = (A.dim, vec.dim)
        raise_first_failure(
            {
                "box-vec-right-leibniz": first_mismatch(right @ flip, right_rhs @ flip, shape),
                "box-vec-left-leibniz": first_mismatch(left, left_rhs, shape),
            }
        )
        # duality: d o ev = (id (x) ev)(box (x) id) + (ev (x) id)(id (x) box)
        lhs_fail = self.ev_duality_defect(1)
        if lhs_fail is not None:
            raise DualityFailure("duality", witness=lhs_fail)

    # -- towers --------------------------------------------------------------

    def V(self, n: int) -> Bimodule:
        if n not in self._V:
            if n == 0:
                self._V[0] = self.A_bim
            elif n == 1:
                self._V[1] = self.vec
            else:
                self._V[n] = self.pair(self.vec, self.V(n - 1)).space
        return self._V[n]

    def W(self, n: int) -> Bimodule:
        if n not in self._W:
            if n == 0:
                self._W[0] = self.A_bim
            elif n == 1:
                self._W[1] = self.omega
            else:
                self._W[n] = self.pair(self.W(n - 1), self.omega).space
        return self._W[n]

    def pair_V(self, n: int) -> TensorPair:
        """The pair presenting V(n) = Vec (x)_A V(n-1), n >= 2."""
        self.V(n)
        return self.pair(self.vec, self.V(n - 1))

    def pair_W(self, n: int) -> TensorPair:
        self.W(n)
        return self.pair(self.W(n - 1), self.omega)

    def OV(self, n: int) -> TensorPair:
        return self.pair(self.omega, self.V(n))

    # -- merges (canonical multiplication of tensor classes) ------------------

    def merge_vec(self, n: int, m: int) -> Mat:
        """V(n) (x) V(m) -> V(n+m) on plain Kronecker coordinates."""
        key = (n, m)
        if key in self._merge_vec:
            return self._merge_vec[key]
        Vn, Vm = self.V(n), self.V(m)
        if n == 0:
            out = Vm.left_action()
        elif m == 0:
            out = Vn.right_action()
        elif n == 1:
            out = self.pair(self.vec, Vm).project
            self.V(m + 1)  # ensure tower bimodule is registered
        else:
            pv = self.pair_V(n)
            inner = Mat.identity(self.vec.dim).kron(self.merge_vec(n - 1, m))
            lifted = pv.section.kron(Mat.identity(Vm.dim))
            out = self.pair(self.vec, self.V(n + m - 1)).project @ inner @ lifted
            self.V(n + m)
        self._merge_vec[key] = out
        return out

    def merge_om(self, n: int, m: int) -> Mat:
        key = (n, m)
        if key in self._merge_om:
            return self._merge_om[key]
        Wn, Wm = self.W(n), self.W(m)
        if m == 0:
            out = Wn.right_action()
        elif n == 0:
            out = Wm.left_action()
        elif m == 1:
            out = self.pair(Wn, self.omega).project
            self.W(n + 1)
        else:
            pw = self.pair_W(m)
            inner = self.merge_om(n, m - 1).kron(Mat.identity(self.omega.dim))
            lifted = Mat.identity(Wn.dim).kron(pw.section)
            out = self.pair(self.W(n + m - 1), self.omega).project @ inner @ lifted
            self.W(n + m)
        self._merge_om[key] = out
        return out

    # -- extended connections --------------------------------------------------

    def sigma_inv_last(self, k: int) -> Mat:
        """Apply sigma-inverse to the last two legs: Kron(W(k), Omega) -> W(k+1), k >= 1."""
        if k == 1:
            return self.sigma_inv_form @ self.W2.project
        pw = self.pair_W(k)
        to_inner = Mat.identity(self.W(k - 1).dim).kron(self.sigma_inv_form @ self.W2.project)
        lifted = pw.section.kron(Mat.identity(self.omega.dim))
        return self.merge_om(k - 1, 2) @ to_inner @ lifted

    def box_form_pow(self, n: int) -> Mat:
        """box<n>: W(n) -> W(n+1); box<0> = d, box<1> = box."""
        if n in self._box_form_pow:
            return self._box_form_pow[n]
        if n == 0:
            out = self.d
        elif n == 1:
            out = self.box_form
        else:
            k = n - 1  # recurse from box<k> with k >= 1
            Wk = self.W(k)
            domain_pair = self.pair_W(n)
            m1 = self.merge_om(k, 2) @ Mat.identity(Wk.dim).kron(self.box_form)
            m2 = self.sigma_inv_last(n) @ self.box_form_pow(k).kron(Mat.identity(self.omega.dim))
            total = m1 + m2
            if not domain_pair.descends(total):
                raise ValidationError("box-form-pow-not-well-defined", witness=n)
            out = total @ domain_pair.section
        self._box_form_pow[n] = out
        return out

    def box_vec_pow(self, n: int) -> Mat:
        """box<n>: V(n) -> Omega1 (x)_A V(n); box<0> = d into OV(0)."""
        if n in self._box_vec_pow:
            return self._box_vec_pow[n]
        if n == 0:
            out = self.OV(0).project @ self.d.kron(self.one)
        elif n == 1:
            out = self.box_vec
        else:
            k = n - 1
            Vk = self.V(k)
            domain_pair = self.pair_V(n)
            OVn = self.OV(n)
            push_merge = OVn.project @ Mat.identity(self.omega.dim).kron(self.merge_vec(1, k))
            m1 = push_merge @ (self.OV1.section @ self.box_vec).kron(Mat.identity(Vk.dim))
            m2 = (
                push_merge
                @ self.OV1.section.kron(Mat.identity(Vk.dim))
                @ self.sigma_vec_plain.kron(Mat.identity(Vk.dim))
                @ Mat.identity(self.vec.dim).kron(self.OV(k).section @ self.box_vec_pow(k))
            )
            total = m1 + m2
            if not domain_pair.descends(total):
                raise ValidationError("box-vec-pow-not-well-defined", witness=n)
            out = total @ domain_pair.section
        self._box_vec_pow[n] = out
        return out

    def braid_form(self, n: int) -> Mat:
        """Iterated sigma-inverse crossing: Kron(Omega, W(n)) -> W(n+1)."""
        if n in self._braid_form:
            return self._braid_form[n]
        if n == 1:
            out = self.sigma_inv_form @ self.W2.project
        else:
            pw = self.pair_W(n)
            lifted = Mat.identity(self.omega.dim).kron(pw.section)
            inner = self.braid_form(n - 1).kron(Mat.identity(self.omega.dim))
            out = self.sigma_inv_last(n) @ inner @ lifted
        self._braid_form[n] = out
        return out

    def braid_vec(self, n: int) -> Mat:
        """Iterated sigma crossing: Kron(V(n), Omega) -> Omega (x)_A V(n)."""
        if n in self._braid_vec:
            return self._braid_vec[n]
        if n == 1:
            out = self.sigma_vec_plain
        else:
            pv = self.pair_V(n)
            lifted = pv.section.kron(Mat.identity(self.omega.dim))
            inner = Mat.identity(self.vec.dim).kron(self.braid_vec(n - 1))
            cross = self.sigma_vec_plain.kron(Mat.identity(self.V(n - 1).dim))
            out = (
                self.OV(n).project
                @ Mat.identity(self.omega.dim).kron(self.merge_vec(1, n - 1))
                @ self.OV1.section.kron(Mat.identity(self.V(n - 1).dim))
                @ cross
                @ Mat.identity(self.vec.dim).kron(self.OV(n - 1).section)
                @ inner
                @ lifted
            )
        self._braid_vec[n] = out
        return out

    # -- n-fold evaluation and coevaluation -------------------------------------

    def ev_pow(self, n: int) -> Mat:
        """ev<n>: Kron(V(n), W(n)) -> A, ev<n>(v (x) v' (x) w' (x) w) = ev(v (x) ev<n-1>(v' (x) w').w)
        (well defined over all middle tensors)."""
        if n in self._ev_pow:
            return self._ev_pow[n]
        if n == 1:
            out = self.fgp.apply_mat
        else:
            inner = self.omega.ev_left(self.ev_pow(n - 1), self.pair_W(n).section)  # Kron(V(n-1), W(n)) -> Omega1
            out = (
                self.fgp.apply_mat
                @ Mat.identity(self.vec.dim).kron(inner)
                @ self.pair_V(n).section.kron(Mat.identity(self.W(n).dim))
            )
        self._ev_pow[n] = out
        return out

    def coev_pow(self, n: int) -> Mat:
        """A plain representative of coev<n>(1) in Kron(W(n), V(n)), as a one-column matrix:
        coev(1) with coev<n-1>(1) nested inside it, merged leg by leg."""
        if n in self._coev_pow:
            return self._coev_pow[n]
        if n == 1:
            out = self.coev_one
        else:
            # Kron(Omega1, Vec, W(n-1), V(n-1)) -> Kron(Omega1, W(n-1), V(n-1), Vec)
            nest = Mat.identity(self.omega.dim).kron(Mat.swap(self.vec.dim, self.W(n - 1).dim * self.V(n - 1).dim))
            out = (
                self.merge_om(1, n - 1).kron(self.merge_vec(n - 1, 1))
                @ nest
                @ self.coev_one.kron(self.coev_pow(n - 1))
            )
        self._coev_pow[n] = out
        return out

    def zigzag_defect(self, n: int):
        """Check the n-fold zig-zag identities; returns a witness or None."""
        fail = zigzag_failure(self.V(n), self.W(n), self.ev_pow(n), self.coev_pow(n))
        return None if fail is None else (fail[0], n, fail[1])

    def ev_duality_defect(self, n: int):
        """Prop-level identity: d o ev<n> = (id (x) ev<n>)(box<n> (x) id) + (ev<n> (x) id)(id (x) box<n>).

        The witness is ``(b, j)`` at n = 1 and ``(n, b, j)`` above it.
        """
        om, ev = self.omega, self.ev_pow(n)
        via_fields = om.ev_right(self.OV(n).section @ self.box_vec_pow(n), ev)
        via_forms = om.ev_left(ev, self.pair_W(n + 1).section @ self.box_form_pow(n))
        fail = first_mismatch(self.d @ ev, via_fields + via_forms, (self.V(n).dim, self.W(n).dim))
        return fail if fail is None or n == 1 else (n, *fail)
