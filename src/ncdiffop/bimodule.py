"""Bimodules, bimodule maps, tensor products over the algebra, conjugates,
and finitely-generated-projective structure (dual basis, evaluation and
coevaluation).

Tensor products over the algebra are realized as explicit quotients of the
plain tensor space by the span of ``e.a (x) f - e (x) a.f``.  Every subspace
here has the one form :mod:`ncdiffop.linalg` gives it, the canonical echelon
basis as the columns of a ``Mat``: the relation span
(``TensorPair.relation_mat``, from ``span``) and the dual of a module (the
``kernel`` of right-linearity).  Quotient coordinates are the non-pivot
coordinates of that basis, so every derived object is reproducible.  Operators
that are only well defined as sums follow one discipline throughout: build
the map on the plain tensor space, check with ``TensorPair.descends`` that it
kills the relation span, then compose with ``TensorPair.section``.

Contractions against a pairing ``ev: Kron(V, W) -> A`` go through two
``Bimodule`` methods.  Each takes a map ``x`` into plain tensors and returns
the contracted map as one sparse product:

* ``M.ev_left(ev, x) = (ev (x) id_M)(id_V (x) x): Kron(V, X) -> M`` for
  ``x: X -> Kron(W, M)``; column ``b*|X| + c`` contracts ``v_b`` against
  column ``c`` of ``x``;
* ``M.ev_right(x, ev) = (id_M (x) ev)(x (x) id_W): Kron(X, W) -> M`` for
  ``x: X -> Kron(M, V)``; column ``c*|W| + j`` contracts column ``c`` of
  ``x`` against ``w_j``.

Every construction that evaluates a vector field against a form (the dual
connection, the n-fold evaluation, the zig-zag and duality identities, the
degree-1 bullet product, the module action and the crossing) is written in
terms of these two.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .algebra import Algebra
from .linalg import Mat, first_mismatch, kernel, quotient, span
from .report import CheckResult, ValidationError, first_failure
from .scalars import ONE, ZERO, Scalar


class BimoduleMapError(ValueError):
    pass


class NotProjective(ValidationError):
    """A dual basis that does not present the module as a projective right module:
    ``dual-basis`` (witness: the module element it fails on) or
    ``dual-right-linear`` (witness: the functional that is not right-A-linear)."""


class Bimodule:
    """A finite-dimensional A-bimodule: explicit left/right action matrices."""

    def __init__(self, algebra: Algebra, dim: int, left: list[Mat], right: list[Mat], name: str):
        self.algebra = algebra
        self.dim = dim
        self.left = left
        self.right = right
        self.name = name

    def left_action(self) -> Mat:
        """The left action as a matrix Kron(A, self) -> self: column i*dim + j is a_i . m_j."""
        return Mat(self.dim, self.algebra.dim * self.dim, [col for mat in self.left for col in mat.cols_sparse()])

    def right_action(self) -> Mat:
        """The right action as a matrix Kron(self, A) -> self: column j*dim(A) + i is m_j . a_i."""
        cols = [mat.cols_sparse()[j] for j in range(self.dim) for mat in self.right]
        return Mat(self.dim, self.dim * self.algebra.dim, cols)

    def ev_left(self, ev: Mat, x: Mat) -> Mat:
        """(ev (x) id)(id_V (x) x): Kron(V, X) -> self, for ev: Kron(V, W) -> A and
        x: X -> Kron(W, self).  V and W are a dual pair, so they vanish together."""
        w = x.rows // self.dim if self.dim else 0
        v = ev.cols // w if w else 0
        # contract first: the action applied to ev (x) id alone would gather all |V||W||self| columns
        return self.left_action() @ (ev.kron(Mat.identity(self.dim)) @ Mat.identity(v).kron(x))

    def ev_right(self, x: Mat, ev: Mat) -> Mat:
        """(id (x) ev)(x (x) id_W): Kron(X, W) -> self, for x: X -> Kron(self, V) and
        ev: Kron(V, W) -> A.  V and W are a dual pair, so they vanish together."""
        v = x.rows // self.dim if self.dim else 0
        w = ev.cols // v if v else 0
        return self.right_action() @ (Mat.identity(self.dim).kron(ev) @ x.kron(Mat.identity(w)))

    def validate(self) -> list[CheckResult]:
        A = self.algebra
        d, n = A.dim, self.dim
        L, R, mul, unit = self.left_action(), self.right_action(), A.mul, A.one
        Id, In = Mat.identity(d), Mat.identity(n)
        results = [
            CheckResult(f"{self.name}:left-unital", L @ unit.kron(In) == In),
            CheckResult(f"{self.name}:right-unital", R @ In.kron(unit) == In),
        ]
        # each axiom on Kron(A_i, A_j, M): the first failing (i, j), ties in the order listed
        to_right = Mat.swap(d * d, n)  # Kron(A_i, A_j, M) -> Kron(M, A_i, A_j)
        to_middle = Id.kron(Mat.swap(d, n))  # Kron(A_i, A_j, M) -> Kron(A_i, M, A_j)
        axioms = {
            "left": (L @ Id.kron(L), L @ mul.kron(In)),  # a_i.(a_j.m) = (a_i a_j).m
            "right": (R @ R.kron(Id) @ to_right, R @ In.kron(mul) @ to_right),  # (m.a_i).a_j = m.(a_i a_j)
            "commute": (R @ L.kron(Id) @ to_middle, L @ Id.kron(R) @ to_middle),  # (a_i.m).a_j = a_i.(m.a_j)
        }
        fails = {side: first_mismatch(lhs, rhs, (d, d, n)) for side, (lhs, rhs) in axioms.items()}
        fail = first_failure({side: w and w[:2] for side, w in fails.items()})  # the first failing (i, j)
        fail = None if fail is None else (fail[0], *fail[1])
        results.append(CheckResult(f"{self.name}:action-axioms", fail is None, witness=fail))
        return results

    def __repr__(self):
        return f"Bimodule({self.name}, dim={self.dim})"


def algebra_as_bimodule(A: Algebra, name: str = "A") -> Bimodule:
    return Bimodule(A, A.dim, list(A.left_mult), list(A.right_mult), name)


class BimoduleMap:
    """A linear map between bimodules that intertwines both actions.

    Construction re-verifies the intertwining property exactly; a failed check
    is an error, not a warning.
    """

    def __init__(self, src: Bimodule, dst: Bimodule, mat: Mat, name: str = "map"):
        if mat.rows != dst.dim or mat.cols != src.dim:
            raise BimoduleMapError(f"{name}: shape {mat.rows}x{mat.cols} does not match {dst.dim}x{src.dim}")
        self.src = src
        self.dst = dst
        self.mat = mat
        self.name = name
        witness = intertwining_failure(src, dst, mat)
        if witness is not None:
            raise BimoduleMapError(f"{name}: not a bimodule map at {witness}")


def zigzag_failure(V: Bimodule, W: Bimodule, ev: Mat, coev: Mat):
    """Where the zig-zag identities of ev: Kron(V, W) -> A and a plain coev(1) in
    Kron(W, V) first fail: ``("fields", b)``, ``("forms", j)`` or None.

    Fields: (ev (x) id)(id (x) coev(1)) = id on V; forms: (id (x) ev)(coev(1) (x) id) = id on W.
    """
    fail = first_mismatch(V.ev_left(ev, coev), Mat.identity(V.dim), (V.dim,))
    if fail is not None:
        return ("fields", *fail)
    fail = first_mismatch(W.ev_right(coev, ev), Mat.identity(W.dim), (W.dim,))
    return None if fail is None else ("forms", *fail)


def idempotent_failure(algebra: Algebra, P: Mat) -> Optional[tuple[int, int]]:
    """The first ``(q, j)`` where P o P differs from P in M_n(A), or None.

    P is a matrix Kron(n, n) -> A with column q*n + j holding P[q][j]; the entry
    (q, j) of P o P is sum_k P[q][k] P[k][j], the product on Kron(n, n) of
    mul o (P (x) P) with id (x) sum_k e_k (x) e_k (x) id.
    """
    n = isqrt(P.cols)
    In = Mat.identity(n)
    diag = Mat(n * n, 1, [[(k * (n + 1), ONE) for k in range(n)]])
    return first_mismatch(algebra.mul @ P.kron(P) @ In.kron(diag).kron(In), P, (n, n))


def intertwining_failure(src: Bimodule, dst: Bimodule, mat: Mat):
    for i in range(src.algebra.dim):
        if mat @ src.left[i] != dst.left[i] @ mat:
            return ("left", i)
        if mat @ src.right[i] != dst.right[i] @ mat:
            return ("right", i)
    return None


# -- tensor product over A -----------------------------------------------------


def relation_vectors(e: Bimodule, f: Bimodule):
    """Sparse generators of span{ e.a (x) f  -  e (x) a.f } in E (x) F."""
    A = e.algebra
    nf = f.dim
    for a in range(A.dim):
        right_cols = e.right[a].cols_sparse()
        left_cols = f.left[a].cols_sparse()
        for i in range(e.dim):
            for j in range(f.dim):
                row: dict[int, Scalar] = {}
                for k, v in right_cols[i]:
                    row[k * nf + j] = row.get(k * nf + j, ZERO) + v
                for l, v in left_cols[j]:
                    idx = i * nf + l
                    row[idx] = row.get(idx, ZERO) - v
                row = {k: v for k, v in row.items() if v}
                if row:
                    yield row


class TensorPair:
    """E (x)_A F: quotient bimodule together with project/section matrices."""

    def __init__(self, e: Bimodule, f: Bimodule):
        if e.algebra is not f.algebra:
            raise ValueError("tensor factors live over different algebras")
        self.e = e
        self.f = f
        A = e.algebra
        self.relation_mat = span(e.dim * f.dim, relation_vectors(e, f))
        self.project, self.section = quotient(self.relation_mat)
        dim = self.project.rows
        # the actions on plain tensors, pushed down: a.(e (x) f) and (e (x) f).a
        lplain = [self.project @ e.left[i].kron(Mat.identity(f.dim)) for i in range(A.dim)]
        rplain = [self.project @ Mat.identity(e.dim).kron(f.right[i]) for i in range(A.dim)]
        left = [m @ self.section for m in lplain]
        right = [m @ self.section for m in rplain]
        self.space = Bimodule(A, dim, left, right, f"({e.name}(x){f.name})")
        self._check_induced_actions(lplain, rplain)

    def _check_induced_actions(self, lplain: list[Mat], rplain: list[Mat]):
        """Induced actions must kill the relation span (well-definedness)."""
        for i, (lmat, rmat) in enumerate(zip(lplain, rplain)):
            if not self.descends(lmat):
                raise ValidationError("tensor-left-action", witness=(self.space.name, i))
            if not self.descends(rmat):
                raise ValidationError("tensor-right-action", witness=(self.space.name, i))

    @property
    def dim(self) -> int:
        return self.space.dim

    def descends(self, plain_map: Mat) -> bool:
        """Whether a map defined on plain tensors kills every relation."""
        return (plain_map @ self.relation_mat).is_zero()

    def induce(self, plain_map: Mat, name: str = "map") -> Mat:
        """Push a plain-tensor-level map to the quotient, verifying descent."""
        if not self.descends(plain_map):
            raise ValidationError(f"{name}-not-well-defined", witness=self.space.name)
        return plain_map @ self.section


# -- conjugate bimodules --------------------------------------------------------


def conjugate_bimodule(e: Bimodule, name: Optional[str] = None) -> Bimodule:
    """The conjugate bimodule: a.conj(e) = conj(e.a*) and conj(e).a = conj(a*.e).

    Coordinates: the conjugate module reuses the basis symbols of ``e`` and the
    antilinear bar map is entrywise conjugation of coordinates.
    """
    A = e.algebra
    if A.star is None:
        raise ValidationError("conjugate-needs-star", witness=e.name)
    star_cols = A.star.cols_sparse()

    left = []
    right = []
    for i in range(A.dim):
        # star(a_i) written in the basis (star is conjugate-linear; basis coords conjugate trivially)
        acc_l = Mat.zeros(e.dim, e.dim)
        acc_r = Mat.zeros(e.dim, e.dim)
        for k, v in star_cols[i]:
            acc_l = acc_l + e.right[k].scale(v)
            acc_r = acc_r + e.left[k].scale(v)
        left.append(acc_l.conj())
        right.append(acc_r.conj())
    return Bimodule(A, e.dim, left, right, name or f"conj({e.name})")


# -- finitely generated projective structure ------------------------------------


class FGPStructure:
    """Dual basis presentation of a right-FGP bimodule and its dual.

    ``module`` plays the 1-forms, ``dual`` the vector fields; ``apply_mat`` is
    the pairing dual x module -> A on plain tensor coordinates, and
    ``coev_one`` is coev(1) in plain Kron(module, dual) coordinates, one column;
    ``idempotent`` is P: Kron(n, n) -> A, column q*n + j holding P[q][j] = f_q(f^j).
    """

    def __init__(
        self,
        module: Bimodule,
        dual: Bimodule,
        basis_forms: list[list[Scalar]],
        basis_functionals: list[list[Scalar]],
        apply_mat: Mat,
        ev: BimoduleMap,
        coev: BimoduleMap,
        coev_one: Mat,
        pair_dual_module: "TensorPair",
        pair_module_dual: "TensorPair",
        idempotent: Mat,
    ):
        self.module = module
        self.dual = dual
        self.basis_forms = basis_forms
        self.basis_functionals = basis_functionals
        self.apply_mat = apply_mat
        self.ev = ev
        self.coev = coev
        self.coev_one = coev_one
        self.pair_dual_module = pair_dual_module
        self.pair_module_dual = pair_module_dual
        self.idempotent = idempotent


def dualize_right_module(
    omega: Bimodule,
    dual_basis_forms: list[list[Scalar]],
    dual_basis_functionals: list[Mat],
) -> FGPStructure:
    """Realize the right dual of an FGP right module from a dual basis.

    The dual is cut out of Hom(module, A) by right-A-linearity, as the kernel
    of a constraint on the row-major ``vec(M)`` in Kron(A, module) of a map M;
    a right-linear map has coordinates ``pick @ vec(M)`` in its echelon basis.
    ev and coev are assembled as bimodule maps and the zig-zag identities plus
    the idempotency of ``P[q][j] = f_q(f^j)`` are all verified exactly.
    """
    A = omega.algebra
    dA, dO = A.dim, omega.dim
    n = len(dual_basis_forms)
    if n != len(dual_basis_functionals):
        raise NotProjective("dual-basis", detail="forms/functionals length mismatch")
    IA, IO = Mat.identity(dA), Mat.identity(dO)
    forms = Mat.from_cols(dual_basis_forms, dO)  # column i: f^i
    # Kron(n, module) -> A: column i*dO + j is f_i(xi_j)
    functionals = Mat(dA, n * dO, [col for f in dual_basis_functionals for col in f.cols_sparse()])
    diag = Mat(n * n, 1, [[(i * (n + 1), ONE) for i in range(n)]])  # sum_i e_i (x) e_i

    # dual basis property: xi = sum_i f^i . f_i(xi) for every basis xi
    fail = first_mismatch(omega.right_action() @ forms.kron(functionals) @ diag.kron(IO), IO, (dO,))
    if fail is not None:
        raise NotProjective("dual-basis", witness=(omega.name, *fail))

    # right-A-linearity M(xi . a) = M(xi) . a, one block of constraints per a
    constraint = sum(
        (
            Mat(dA, 1, [[(a, ONE)]]).kron(IA.kron(omega.right[a].transpose()) - A.right_mult[a].kron(IO))
            for a in range(dA)
        ),
        Mat.zeros(dA * dA * dO, dA * dO),
    )
    maps = kernel(constraint)  # column b: vec of the b-th dual basis element
    pivot_of = {col[0][0]: b for b, col in enumerate(maps.cols_sparse())}
    pick = Mat(maps.cols, dA * dO, [[(pivot_of[r], ONE)] if r in pivot_of else [] for r in range(dA * dO)])
    vecs = Mat(dA * dO, n, [_vec(f) for f in dual_basis_functionals])
    coords = pick @ vecs  # column i: f_i in the dual
    fail = first_mismatch(maps @ coords, vecs, (n,))
    if fail is not None:
        raise NotProjective("dual-right-linear", witness=(omega.name, *fail), detail="functional is not right-A-linear")

    # bimodule structure on the dual: (a.al)(xi) = a.al(xi), (al.a)(xi) = al(a.xi)
    left = [pick @ A.left_mult[a].kron(IO) @ maps for a in range(dA)]
    right = [pick @ IA.kron(omega.left[a].transpose()) @ maps for a in range(dA)]
    dual = Bimodule(A, maps.cols, left, right, f"dual({omega.name})")

    # pairing dual (x) module -> A on plain tensor coordinates: column b*dO + j is M_b(xi_j)
    apply_cols = [[] for _ in range(maps.cols * dO)]
    for b, col in enumerate(maps.cols_sparse()):
        for r, v in col:
            k, j = divmod(r, dO)
            apply_cols[b * dO + j].append((k, v))
    apply_mat = Mat(dA, maps.cols * dO, apply_cols)

    pair_dual_module = TensorPair(dual, omega)
    pair_module_dual = TensorPair(omega, dual)

    ev_mat = pair_dual_module.induce(apply_mat, "ev")
    ev = BimoduleMap(pair_dual_module.space, algebra_as_bimodule(A), ev_mat, "ev")

    coev_one = forms.kron(coords) @ diag  # sum_i f^i (x) f_i
    coev_mat = pair_module_dual.project @ omega.left_action().kron(Mat.identity(dual.dim)) @ IA.kron(coev_one)
    coev = BimoduleMap(algebra_as_bimodule(A), pair_module_dual.space, coev_mat, "coev")

    # zig-zag identities (exact, on every basis element)
    coev_rep = pair_module_dual.section @ pair_module_dual.project @ coev_one
    fail = zigzag_failure(dual, omega, apply_mat, coev_rep)
    if fail is not None:
        side, idx = fail
        raise ValidationError("zigzag-dual" if side == "fields" else "zigzag-module", witness=(omega.name, idx))

    # idempotent P[q][j] = f_q(f^j) as Kron(n, n) -> A, P o P = P in M_n(A)
    P = functionals @ Mat.identity(n).kron(forms)
    fail = idempotent_failure(A, P)
    if fail is not None:
        raise ValidationError("idempotent", witness=fail)

    return FGPStructure(
        module=omega,
        dual=dual,
        basis_forms=[list(f) for f in dual_basis_forms],
        basis_functionals=[coords.column(i) for i in range(n)],
        apply_mat=apply_mat,
        ev=ev,
        coev=coev,
        coev_one=coev_one,
        pair_dual_module=pair_dual_module,
        pair_module_dual=pair_module_dual,
        idempotent=P,
    )


def _vec(m: Mat) -> list:
    """Row-major vec(m) as a sparse column: entry (k, l) at row k*m.cols + l."""
    return sorted((k * m.cols + l, v) for l, col in enumerate(m.cols_sparse()) for k, v in col)
