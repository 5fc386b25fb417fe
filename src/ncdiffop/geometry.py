"""The geometric core of a bundle: first-order calculus, the right connection
on 1-forms with its generalised braiding, the dual left connection on vector
fields, and the memoized tensor-power towers both constructions extend to.

Index conventions.  Vector-field powers grow on the left,
``V(n+1) = Vec (x)_A V(n)``; form powers grow on the right,
``W(n+1) = W(n) (x)_A Omega1``.  Plain (un-quotiented) tensor coordinates pack
row-major, ``idx = i * dim_right + j``.  Every operator that the theory only
defines as a sum of non-well-defined terms is assembled on plain coordinates
and checked to kill the relation span before it is pushed to the quotient.

The load-time invariants (``calculus_failure``, ``right_connection_failure``,
``dual_connection_failure``) each return their first failure, ``(name,
witness)``, or None: a validating ``Geometry`` raises it as a
``ValidationError``, and the ``connections`` suite reports it as a check.

The tensor pairs, towers, merges and n-fold maps are built on first use by
``@memo`` methods: once per argument tuple, kept on the ``Geometry`` and never
changed afterwards, so they are freed with it.
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
from .linalg import Mat, contract, first_mismatch, ikron_mul, inverse, rank
from .memo import memo
from .report import ValidationError, first_failure, first_not_ok, raise_failure


def _content(e: Bimodule, f: Bimodule) -> tuple:
    """All that E (x)_A F is built from but the factors' names: their algebras, |E|, |F|,
    and L_E, R_E, L_F and R_F as tuples of columns."""
    actions = (e.left_action, e.right_action, f.left_action, f.right_action)
    return (e.algebra, f.algebra, e.dim, f.dim) + tuple(tuple(map(tuple, m.cols_sparse())) for m in actions)


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
        self.one = algebra.one

        if validate:
            raise_failure(first_not_ok(algebra.validate()) or first_not_ok(omega.validate()) or self.calculus_failure())

        self.fgp: FGPStructure = dualize_right_module(omega, dual_basis_forms, dual_basis_functionals)
        self.vec = self.fgp.dual
        self.coev_one = self.fgp.coev_one  # coev(1), plain
        dual_basis_pairs = (self.fgp.pair_dual_module, self.fgp.pair_module_dual)
        self._pairs_by_content = {_content(p.e, p.f): p for p in dual_basis_pairs}

        self.W2 = self.pair(omega, omega)
        if box_plain.rows != omega.dim * omega.dim or box_plain.cols != omega.dim:
            raise ValidationError("box-shape", witness=(box_plain.rows, box_plain.cols))
        self.box_form = self.W2.project @ box_plain
        self.sigma_inv_form = self.W2.induce(self.W2.project @ sigma_inv_plain, "sigma-inv", None)
        fail = intertwining_failure(self.W2.space, self.W2.space, self.sigma_inv_form)
        if fail is not None:
            raise ValidationError("sigma-inv-bimodule-map", witness=fail)
        try:
            self.sigma_form = inverse(self.sigma_inv_form)
        except ValueError:
            raise ValidationError("sigma-invertible") from None
        if validate:
            raise_failure(self.right_connection_failure())

        self._build_dual_connection()
        if validate:
            raise_failure(self.dual_connection_failure())

    # -- small helpers -----------------------------------------------------

    @memo
    def pair(self, e: Bimodule, f: Bimodule) -> TensorPair:
        """E (x)_A F, once per pair of factors.  Factors that are new objects may carry the
        actions of factors met before (E (x)_A A and A (x)_A E carry E's), so a pair is also
        kept by its content (``_content``), the two dual-basis pairs among them, and a later
        pair of that content is the built one ``over`` its own factors.  A pair that fails
        the induced-action check raises and is not kept, so that check runs once per content."""
        key = _content(e, f)
        built = self._pairs_by_content.get(key)
        if built is None:
            built = self._pairs_by_content[key] = TensorPair(e, f)
        return built if built.e is e and built.f is f else built.over(e, f)

    # -- load-time invariants: each returns its first failure, (name, witness), or None --

    def calculus_failure(self):
        """d has the shape Omega1 <- A, obeys d(ab) = da.b + a.db on Kron(A, A), kills 1,
        and its a.db span Omega1."""
        A, om, d = self.algebra, self.omega, self.d
        if d.rows != om.dim or d.cols != A.dim:
            return "d-shape", None
        lhs = d @ self.A_bim.left_action
        rhs = om.right_action.mul_ikron(1, d, A.dim) + om.left_action.mul_ikron(A.dim, d, 1)
        fail = first_mismatch(lhs, rhs, (A.dim, A.dim))
        if fail is not None:
            return "leibniz", fail
        if not (d @ self.one).is_zero():
            return "d-of-unit", None
        spanned = rank(om.left_action.mul_ikron(A.dim, d, 1))
        return None if spanned == om.dim else ("surjectivity", spanned)

    def right_connection_failure(self):
        """box(xi.a) = box(xi).a + xi (x) da on Kron(Omega1, A) and box(a.xi) = a.box(xi) +
        sigma_inv(da (x) xi) on Kron(A, Omega1), each witness read as (a, xi)."""
        A, om, box, W2 = self.algebra, self.omega, self.box_form, self.W2
        right = box @ om.right_action
        right_rhs = W2.space.right_action.mul_ikron(1, box, A.dim) + W2.project.mul_ikron(om.dim, self.d, 1)
        left = box @ om.left_action
        left_rhs = W2.space.left_action.mul_ikron(A.dim, box, 1) + (self.sigma_inv_form @ W2.project).mul_ikron(
            1, self.d, om.dim
        )
        return first_failure(
            {
                "box-right-leibniz": first_mismatch(right, right_rhs, (om.dim, A.dim), order=(1, 0)),
                "box-left-leibniz": first_mismatch(left, left_rhs, (A.dim, om.dim)),
            }
        )

    # -- dual connection on vector fields ------------------------------------

    def cross_fields(self, E: Bimodule, crossed: Mat) -> Mat:
        """(ev (x) id (x) id)(id (x) crossed (x) id)(id (x) id (x) coev(1)): the braiding
        Kron(Vec, E) -> E (x)_A Vec of vector fields past E derived from a plain
        crossing ``crossed: Kron(E, Omega1) -> Kron(Omega1, E)``.

        It contracts before it expands, and builds no identity factor: the crossing
        meets coev(1) once per basis element of E, v is paired with the crossed form
        on those |E| columns (``linalg.contract`` both times, which copies an entry
        only where it meets a nonzero column), and the left action of A on E comes
        last.  It runs once at load, for the braiding of Vec, and once per
        ``CrossingMap``, for its sigma-hat; a loaded bundle shares one crossing per
        module and per tensor product of two (``Bundle.crossings``) among all its
        verification runs."""
        dvec, dE = self.vec.dim, E.dim
        crossed_coev = contract(crossed, dvec, dE, self.coev_one)  # E -> Kron(Omega1, E, Vec)
        # Kron(Vec, E) -> Kron(A, E, Vec)
        paired = contract(self.fgp.apply_mat, dE * dvec, dvec, crossed_coev)
        return self.pair(E, self.vec).project.mul_ikron(1, E.left_action, dvec) @ paired

    def _build_dual_connection(self):
        """box(v) = d(v(alpha)) (x) w - (ev (x) id (x) id)(v (x) box(alpha) (x) w) over coev(1) = alpha (x) w."""
        om, vec, ev, W2 = self.omega, self.vec, self.fgp.apply_mat, self.W2
        OV1 = self.pair(om, vec)
        self.OV1 = OV1
        # Kron(Vec, Omega1) -> Omega1: v (x) alpha -> d(v(alpha)) - (ev (x) id)(v (x) box(alpha))
        inner = self.d @ ev - om.ev_left(ev, W2.section @ self.box_form)
        self.box_vec = OV1.project @ contract(inner, vec.dim, vec.dim, self.coev_one)

        # sigma on fields, Kron(Vec, Omega1) -> OV1: (ev (x) id (x) id)(id (x) sigma_inv (x) id)(id (x) id (x) coev(1))
        VO1 = self.pair(vec, om)
        self.VO1 = VO1
        self.sigma_vec_plain = self.cross_fields(om, W2.section @ self.sigma_inv_form @ W2.project)
        self.sigma_vec = VO1.induce(self.sigma_vec_plain, "sigma-vec", None)
        fail = intertwining_failure(VO1.space, OV1.space, self.sigma_vec)
        if fail is not None:
            raise ValidationError("sigma-vec-bimodule-map", witness=fail)
        try:
            inverse(self.sigma_vec)  # the braiding must invert; the inverse itself is not needed
        except ValueError:
            raise ValidationError("sigma-vec-invertible") from None

    def dual_connection_failure(self):
        """box(v.a) = box(v).a + sigma(v (x) da) on Kron(Vec, A) and box(a.v) = a.box(v) +
        da (x) v on Kron(A, Vec), each witness read as (a, v), then the duality with the
        right connection on forms, ``("duality", w)`` with w as in ``ev_duality_defect(1)``."""
        A, vec, box, OV1 = self.algebra, self.vec, self.box_vec, self.OV1
        right = box @ vec.right_action
        right_rhs = OV1.space.right_action.mul_ikron(1, box, A.dim) + self.sigma_vec_plain.mul_ikron(vec.dim, self.d, 1)
        left = box @ vec.left_action
        left_rhs = OV1.space.left_action.mul_ikron(A.dim, box, 1) + OV1.project.mul_ikron(1, self.d, vec.dim)
        leibniz = first_failure(
            {
                "box-vec-right-leibniz": first_mismatch(right, right_rhs, (vec.dim, A.dim), order=(1, 0)),
                "box-vec-left-leibniz": first_mismatch(left, left_rhs, (A.dim, vec.dim)),
            }
        )
        if leibniz is not None:
            return leibniz
        duality = self.ev_duality_defect(1)
        return None if duality is None else ("duality", duality)

    # -- towers --------------------------------------------------------------

    @memo
    def V(self, n: int) -> Bimodule:
        if n == 0:
            return self.A_bim
        if n == 1:
            return self.vec
        return self.pair(self.vec, self.V(n - 1)).space

    @memo
    def W(self, n: int) -> Bimodule:
        if n == 0:
            return self.A_bim
        if n == 1:
            return self.omega
        return self.pair(self.W(n - 1), self.omega).space

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

    @memo
    def merge_vec(self, n: int, m: int) -> Mat:
        """V(n) (x) V(m) -> V(n+m) on plain Kronecker coordinates."""
        Vn, Vm = self.V(n), self.V(m)
        if n == 0:
            return Vm.left_action
        if m == 0:
            return Vn.right_action
        if n == 1:
            return self.pair(self.vec, Vm).project
        merged = self.pair(self.vec, self.V(n + m - 1)).project.mul_ikron(self.vec.dim, self.merge_vec(n - 1, m), 1)
        return merged.mul_ikron(1, self.pair_V(n).section, Vm.dim)

    @memo
    def merge_om(self, n: int, m: int) -> Mat:
        Wn, Wm = self.W(n), self.W(m)
        if m == 0:
            return Wn.right_action
        if n == 0:
            return Wm.left_action
        if m == 1:
            return self.pair(Wn, self.omega).project
        merged = self.pair(self.W(n + m - 1), self.omega).project.mul_ikron(1, self.merge_om(n, m - 1), self.omega.dim)
        return merged.mul_ikron(Wn.dim, self.pair_W(m).section, 1)

    # -- extended connections --------------------------------------------------

    def sigma_inv_last(self, k: int) -> Mat:
        """Apply sigma-inverse to the last two legs: Kron(W(k), Omega) -> W(k+1), k >= 1."""
        if k == 1:
            return self.sigma_inv_form @ self.W2.project
        crossed = self.merge_om(k - 1, 2).mul_ikron(self.W(k - 1).dim, self.sigma_inv_form @ self.W2.project, 1)
        return crossed.mul_ikron(1, self.pair_W(k).section, self.omega.dim)

    @memo
    def box_form_pow(self, n: int) -> Mat:
        """box<n>: W(n) -> W(n+1); box<0> = d, box<1> = box."""
        if n == 0:
            return self.d
        if n == 1:
            return self.box_form
        k = n - 1  # recurse from box<k> with k >= 1
        domain_pair = self.pair_W(n)
        m1 = self.merge_om(k, 2).mul_ikron(self.W(k).dim, self.box_form, 1)
        m2 = self.sigma_inv_last(n).mul_ikron(1, self.box_form_pow(k), self.omega.dim)
        return domain_pair.induce(m1 + m2, "box-form-pow", n)

    @memo
    def box_vec_pow(self, n: int) -> Mat:
        """box<n>: V(n) -> Omega1 (x)_A V(n); box<0> = d into OV(0)."""
        if n == 0:
            return self.OV(0).project @ self.d.kron(self.one)
        if n == 1:
            return self.box_vec
        k = n - 1
        dk = self.V(k).dim
        domain_pair = self.pair_V(n)
        push_merge = self.OV(n).project.mul_ikron(self.omega.dim, self.merge_vec(1, k), 1)
        m1 = push_merge.mul_ikron(1, self.OV1.section @ self.box_vec, dk)
        m2 = push_merge.mul_ikron(1, self.OV1.section @ self.sigma_vec_plain, dk).mul_ikron(
            self.vec.dim, self.OV(k).section @ self.box_vec_pow(k), 1
        )
        return domain_pair.induce(m1 + m2, "box-vec-pow", n)

    # -- n-fold evaluation and coevaluation -------------------------------------

    @memo
    def ev_pow(self, n: int) -> Mat:
        """ev<n>: Kron(V(n), W(n)) -> A, ev<n>(v (x) v' (x) w' (x) w) = ev(v (x) ev<n-1>(v' (x) w').w)
        (well defined over all middle tensors)."""
        if n == 1:
            return self.fgp.apply_mat
        inner = self.omega.ev_left(self.ev_pow(n - 1), self.pair_W(n).section)  # Kron(V(n-1), W(n)) -> Omega1
        return self.fgp.apply_mat.mul_ikron(self.vec.dim, inner, 1).mul_ikron(1, self.pair_V(n).section, self.W(n).dim)

    @memo
    def coev_pow(self, n: int) -> Mat:
        """A plain representative of coev<n>(1) in Kron(W(n), V(n)), as a one-column matrix:
        coev(1) with coev<n-1>(1) nested inside it, merged leg by leg."""
        if n == 1:
            return self.coev_one
        # Kron(Omega1, Vec, W(n-1), V(n-1)) -> Kron(Omega1, W(n-1), V(n-1), Vec)
        nest = Mat.swap(self.vec.dim, self.W(n - 1).dim * self.V(n - 1).dim)
        nested = ikron_mul(self.omega.dim, nest, 1, self.coev_one.kron(self.coev_pow(n - 1)))
        # merge_om (x) merge_vec = (merge_om (x) id)(id (x) merge_vec), applied a leg at a time
        merge_w, merge_v = self.merge_om(1, n - 1), self.merge_vec(n - 1, 1)
        return ikron_mul(1, merge_w, merge_v.rows, ikron_mul(merge_w.cols, merge_v, 1, nested))

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
