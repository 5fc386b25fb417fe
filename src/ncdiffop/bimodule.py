"""Bimodules, bimodule maps, tensor products over the algebra, conjugates,
and finitely-generated-projective structure (dual basis, evaluation and
coevaluation).

A bimodule holds each action once, as one sparse ``Mat``:

* ``left_action: Kron(A, M) -> M``, column ``i*dim + j`` holding ``a_i . m_j``;
* ``right_action: Kron(M, A) -> M``, column ``j*dim(A) + i`` holding ``m_j . a_i``.

The algebra acting on itself has ``mul`` for both.  The checks on actions are
identities between products: a bimodule map ``T`` satisfies
``T L_src = L_dst (id_A (x) T)`` and ``T R_src = R_dst (T (x) id_A)``, which
:func:`intertwining_failure`, the one bimodule-map check, reads as the first
algebra basis element where either fails; and the conjugate module's actions
are the other side's, composed with the star.

Tensor products over the algebra are realized as explicit quotients of the
plain tensor space by the image of the balancing map
``R_E (x) id_F - id_E (x) L_F: Kron(E, A, F) -> Kron(E, F)``, which sends
``e (x) a (x) f`` to ``e.a (x) f - e (x) a.f``; the induced actions are
``project (L_E (x) id_F)(id_A (x) section)`` and
``project (id_E (x) R_F)(section (x) id_A)``.  Every subspace here has the
one form :mod:`ncdiffop.linalg` gives it, the canonical echelon basis as the
columns of a ``Mat``: the relation span (``TensorPair.relation_mat``, the
``span`` of the balancing map's nonzero columns, most of them coordinate
kills) and the dual of a module (the ``kernel`` of right-linearity).  Quotient
coordinates are the non-pivot coordinates of that basis, so every derived
object is reproducible, and a quotient depends only on the factors'
dimensions and action matrices: ``Geometry.pair`` builds one per such content
and hands it to a later pair of equal content ``over`` that pair's own factors,
so the induced-action check runs once per content.  Operators
that are only well defined as sums follow one discipline throughout: build
the map on the plain tensor space and push it down with ``TensorPair.induce``,
which checks that it kills the relation span, raising under the caller's name
and witness if not, and composes it with ``TensorPair.section``.

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

import copy
from math import isqrt
from typing import Optional

from .algebra import Algebra
from .linalg import Mat, add_columns, contract, first_mismatch, kernel, quotient, span
from .report import CheckResult, ValidationError, first_failure
from .scalars import ONE, Scalar


class NotProjective(ValidationError):
    """A dual basis that does not present the module as a projective right module:
    ``dual-basis`` (witness: the module element it fails on) or
    ``dual-right-linear`` (witness: the functional that is not right-A-linear)."""


class Bimodule:
    """A finite-dimensional A-bimodule, given by its two action matrices
    ``left_action: Kron(A, self) -> self`` and ``right_action: Kron(self, A) -> self``."""

    def __init__(self, algebra: Algebra, dim: int, left_action: Mat, right_action: Mat, name: str):
        self.algebra = algebra
        self.dim = dim
        self.left_action = left_action
        self.right_action = right_action
        self.name = name

    def ev_left(self, ev: Mat, x: Mat) -> Mat:
        """(ev (x) id)(id_V (x) x): Kron(V, X) -> self, for ev: Kron(V, W) -> A and
        x: X -> Kron(W, self).  V and W are a dual pair, so they vanish together."""
        w = x.rows // self.dim if self.dim else 0
        v = ev.cols // w if w else 0
        # contract first, copying each entry of x only to the v_b it pairs with under ev: the
        # action applied to ev (x) id alone would gather |V||W||self| columns
        return self.left_action @ contract(ev, self.dim, v, x)

    def ev_right(self, x: Mat, ev: Mat) -> Mat:
        """(id (x) ev)(x (x) id_W): Kron(X, W) -> self, for x: X -> Kron(self, V) and
        ev: Kron(V, W) -> A.  V and W are a dual pair, so they vanish together."""
        v = x.rows // self.dim if self.dim else 0
        w = ev.cols // v if v else 0
        return self.right_action @ contract(ev, self.dim, w, x, mirror=True)

    def validate(self) -> list[CheckResult]:
        A = self.algebra
        d, n = A.dim, self.dim
        L, R, mul, unit = self.left_action, self.right_action, A.mul, A.one
        In = Mat.identity(n)
        results = [
            CheckResult(f"{self.name}:left-unital", L.mul_ikron(1, unit, n) == In),
            CheckResult(f"{self.name}:right-unital", R.mul_ikron(n, unit, 1) == In),
        ]
        # each axiom on its own domain, its witness read as (i, j, m): the first failing (i, j),
        # ties in the order listed
        axioms = {
            "left": (L.mul_ikron(d, L, 1), L.mul_ikron(1, mul, n), (d, d, n), None),  # a_i.(a_j.m) = (a_i a_j).m
            "right": (R.mul_ikron(1, R, d), R.mul_ikron(n, mul, 1), (n, d, d), (1, 2, 0)),  # (m.a_i).a_j = m.(a_i a_j)
            "commute": (R.mul_ikron(1, L, d), L.mul_ikron(d, R, 1), (d, n, d), (0, 2, 1)),  # (a_i.m).a_j = a_i.(m.a_j)
        }
        fails = {side: first_mismatch(lhs, rhs, shape, order) for side, (lhs, rhs, shape, order) in axioms.items()}
        fail = first_failure({side: w and w[:2] for side, w in fails.items()})  # the first failing (i, j)
        fail = None if fail is None else (fail[0], *fail[1])
        results.append(CheckResult(f"{self.name}:action-axioms", fail is None, witness=fail))
        return results

    def __repr__(self):
        return f"Bimodule({self.name}, dim={self.dim})"


def algebra_as_bimodule(A: Algebra, name: str = "A") -> Bimodule:
    return Bimodule(A, A.dim, A.mul, A.mul, name)


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


def _diagonal(n: int) -> Mat:
    """sum_i e_i (x) e_i in Kron(n, n), as a one-column matrix."""
    return Mat(n * n, 1, [[(i * (n + 1), ONE) for i in range(n)]])


def idempotent_failure(algebra: Algebra, P: Mat) -> Optional[tuple[int, int]]:
    """The first ``(q, j)`` where P o P differs from P in M_n(A), or None.

    P is a matrix Kron(n, n) -> A with column q*n + j holding P[q][j]; the entry
    (q, j) of P o P is sum_k P[q][k] P[k][j], the product on Kron(n, n) of
    mul o (P (x) P) with id (x) sum_k e_k (x) e_k (x) id.

    No loaded input can make this fail.  ``dualize_right_module`` checks that each
    f_q is right-A-linear and that xi = sum_k f^k . f_k(xi) on every basis xi, hence
    on every xi; so (P o P)[q][j] = sum_k f_q(f^k) f_k(f^j) = f_q(sum_k f^k . f_k(f^j))
    = f_q(f^j) = P[q][j].  The loader therefore does not run it; the
    ``idempotent-squared`` check of the fgp-zigzag suite keeps it as a cheap identity
    on the structure a suite is handed.
    """
    n = isqrt(P.cols)
    return first_mismatch((algebra.mul @ P.kron(P)).mul_ikron(n, _diagonal(n), n), P, (n, n))


def _first_action_failure(left: tuple[Mat, Mat], right: tuple[Mat, Mat], dA: int, dX: int):
    """``("left", i)`` or ``("right", i)`` for the smallest a_i at which one of two
    identities ``lhs == rhs`` fails, the left one on Kron(A, X) and the right one on
    Kron(X, A), "left" on a tie; None if both hold."""
    fails = {"left": first_mismatch(*left, (dA, dX)), "right": first_mismatch(*right, (dX, dA), order=(1, 0))}
    return first_failure({side: w and w[0] for side, w in fails.items()})


def intertwining_failure(src: Bimodule, dst: Bimodule, mat: Mat):
    """Where ``mat`` first fails to commute with the actions, ``("left", i)`` or
    ``("right", i)`` (see :func:`_first_action_failure`), or None for a bimodule map:
    mat L_src = L_dst (id_A (x) mat) and mat R_src = R_dst (mat (x) id_A)."""
    dA = src.algebra.dim
    left = (mat @ src.left_action, dst.left_action.mul_ikron(dA, mat, 1))
    right = (mat @ src.right_action, dst.right_action.mul_ikron(1, mat, dA))
    if left[0] == left[1] and right[0] == right[1]:
        return None
    return _first_action_failure(left, right, dA, src.dim)


# -- tensor product over A -----------------------------------------------------


def balance(e: Bimodule, f: Bimodule) -> Mat:
    """The balancing map Kron(E, A, F) -> Kron(E, F), e (x) a (x) f -> e.a (x) f - e (x) a.f:
    its image is what E (x)_A F divides out, and a map on Kron(E, F) is balanced when it kills it.
    It is R_E (x) I_F - I_E (x) L_F: the columns of ``_balancing_columns``, put in place."""
    cols = [[] for _ in range(e.dim * e.algebra.dim * f.dim)]
    for j, col in _balancing_columns(e, f):
        cols[j] = col
    return Mat(e.dim * f.dim, len(cols), cols)


def _balancing_columns(e: Bimodule, f: Bimodule):
    """The nonzero columns of the balancing map as ``(j, column)``, in column order, read
    straight from the nonzero entries of the actions: column j = (x*|A| + a)*|F| + y merges
    column x*|A| + a of R_E, moved to the rows i*|F| + y, with column a*|F| + y of -L_F,
    moved to the rows x*|F| + k.  Only the nonzero entries of L_F are negated, once a call.
    Where e_x.a_a = 0 only the columns with a_a.f_y != 0 come, and where e_x.a_a = c e_x and
    a_a.f_y = c f_y the column cancels and does not come: no other column can cancel."""
    dA, m = e.algebra.dim, f.dim
    right, left = e.right_action.cols_sparse(), f.left_action.cols_sparse()
    # minus a_a.f_y, as {y: column} over the nonzero a_a.f_y
    acting = [{y: [(k, -w) for k, w in af] for y, af in enumerate(left[a * m : (a + 1) * m]) if af} for a in range(dA)]
    for x in range(e.dim):
        for a in range(dA):
            r, j, minus = right[x * dA + a], (x * dA + a) * m, acting[a]
            if not r:
                for y, af in minus.items():
                    yield j + y, [(x * m + k, w) for k, w in af]  # minus e_x (x) a_a.f_y
                continue
            # e_x.a_a = c e_x cancels against a_a.f_y = c f_y, that is against minus [(y, -c)]
            cancel = -r[0][1] if len(r) == 1 and r[0][0] == x else None
            for y in range(m):
                col = [(i * m + y, v) for i, v in r]  # e_x.a_a (x) f_y
                af = minus.get(y)
                if af:
                    if cancel is not None and len(af) == 1 and af[0][0] == y and af[0][1] == cancel:
                        continue
                    col = add_columns(col, [(x * m + k, w) for k, w in af])  # minus e_x (x) a_a.f_y
                yield j + y, col


class TensorPair:
    """E (x)_A F: quotient bimodule together with project/section matrices.  The relations
    go to ``span`` as they are read from the actions, with no ``balance`` matrix built; the
    basis is the canonical one whatever the path, so the quotient coordinates do not move.

    Everything but the factors and the name of ``space`` depends only on the factors'
    dimensions and action matrices, so a pair whose factors carry the same actions as
    another's is that pair ``over`` its own factors.  ``Geometry.pair`` keeps one built
    pair per content (|E|, |F|, L_E, R_E, L_F, R_F), and only one that passed the
    induced-action check below, so that check runs once per content and a pair that
    fails it raises under its own name."""

    def __init__(self, e: Bimodule, f: Bimodule):
        if e.algebra is not f.algebra:
            raise ValueError("tensor factors live over different algebras")
        self.e = e
        self.f = f
        A = e.algebra
        dA = A.dim
        self.relation_mat = span(e.dim * f.dim, (col for _, col in _balancing_columns(e, f)))
        self.project, self.section = quotient(self.relation_mat)
        # the actions on plain tensors, pushed down: a.(e (x) f) and (e (x) f).a
        lplain = self.project.mul_ikron(1, e.left_action, f.dim)  # Kron(A, E, F) -> quotient
        rplain = self.project.mul_ikron(e.dim, f.right_action, 1)  # Kron(E, F, A) -> quotient
        left, right = lplain.mul_ikron(dA, self.section, 1), rplain.mul_ikron(1, self.section, dA)
        self.space = Bimodule(A, self.project.rows, left, right, _tensor_name(e, f))
        # the induced actions are well defined: they kill the relation span
        rels = self.relation_mat
        on_left = lplain.mul_ikron(dA, rels, 1)  # Kron(A, relations)
        on_right = rplain.mul_ikron(1, rels, dA)  # Kron(relations, A)
        if not (on_left.is_zero() and on_right.is_zero()):
            zero = Mat.zeros(self.space.dim, dA * rels.cols)
            side, i = _first_action_failure((on_left, zero), (on_right, zero), dA, rels.cols)
            raise ValidationError(f"tensor-{side}-action", witness=(self.space.name, i))

    def over(self, e: Bimodule, f: Bimodule) -> "TensorPair":
        """This quotient as E (x)_A F for factors e and f that carry the same actions as
        this pair's: the relations, projection, section and induced actions are shared, and
        the factors and the name of the space are e's and f's."""
        pair, space = copy.copy(self), self.space
        pair.e, pair.f = e, f
        pair.space = Bimodule(e.algebra, space.dim, space.left_action, space.right_action, _tensor_name(e, f))
        return pair

    @property
    def dim(self) -> int:
        return self.space.dim

    def descends(self, plain_map: Mat) -> bool:
        """Whether a map defined on plain tensors kills every relation."""
        return (plain_map @ self.relation_mat).is_zero()

    def induce(self, plain_map: Mat, name: str, witness) -> Mat:
        """Push a plain-tensor-level map to the quotient, verifying descent: a map that
        does not descend raises ``<name>-not-well-defined`` with the caller's witness."""
        if not self.descends(plain_map):
            raise ValidationError(f"{name}-not-well-defined", witness=witness)
        return plain_map @ self.section


def _tensor_name(e: Bimodule, f: Bimodule) -> str:
    return f"({e.name}(x){f.name})"


# -- conjugate bimodules --------------------------------------------------------


def conjugate_bimodule(e: Bimodule, name: Optional[str] = None) -> Bimodule:
    """The conjugate bimodule: a.conj(e) = conj(e.a*) and conj(e).a = conj(a*.e).

    Coordinates: the conjugate module reuses the basis symbols of ``e`` and the
    antilinear bar map is entrywise conjugation of coordinates, so each action
    is the other action of ``e`` composed with the star, then conjugated.
    """
    A = e.algebra
    if A.star is None:
        raise ValidationError("conjugate-needs-star", witness=e.name)
    left = (e.right_action.mul_ikron(e.dim, A.star, 1) @ Mat.swap(A.dim, e.dim)).conj()
    right = (e.left_action.mul_ikron(1, A.star, e.dim) @ Mat.swap(e.dim, A.dim)).conj()
    return Bimodule(A, e.dim, left, right, name or f"conj({e.name})")


# -- finitely generated projective structure ------------------------------------


class FGPStructure:
    """Dual basis presentation of a right-FGP bimodule and its dual.

    ``module`` plays the 1-forms, ``dual`` the vector fields; ``apply_mat`` is
    the pairing dual x module -> A on plain tensor coordinates, and
    ``coev_one`` is coev(1) in plain Kron(module, dual) coordinates, one column;
    ``ev`` and ``coev`` are the bimodule maps dual (x)_A module -> A and
    A -> module (x)_A dual on the quotients; ``idempotent`` is P: Kron(n, n) -> A,
    column q*n + j holding P[q][j] = f_q(f^j).
    """

    def __init__(
        self,
        module: Bimodule,
        dual: Bimodule,
        basis_forms: list[list[Scalar]],
        basis_functionals: list[list[Scalar]],
        apply_mat: Mat,
        ev: Mat,
        coev: Mat,
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
    ev and coev are checked to be bimodule maps (``ev-bimodule-map``,
    ``coev-bimodule-map``, witness as in :func:`intertwining_failure`) and the
    zig-zag identities are verified exactly.  The idempotent ``P[q][j] = f_q(f^j)`` is not re-checked:
    right-linearity and the dual-basis identity, both checked here, give
    (P o P)[q][j] = f_q(sum_k f^k . f_k(f^j)) = f_q(f^j).
    """
    A = omega.algebra
    dA, dO = A.dim, omega.dim
    n = len(dual_basis_forms)
    if n != len(dual_basis_functionals):
        raise NotProjective("dual-basis", detail="forms/functionals length mismatch")
    IA, IO, cup, cup_O = Mat.identity(dA), Mat.identity(dO), _diagonal(dA), _diagonal(dO)
    forms = Mat.from_cols(dual_basis_forms, dO)  # column i: f^i
    # Kron(n, module) -> A: column i*dO + j is f_i(xi_j)
    functionals = Mat(dA, n * dO, [col for f in dual_basis_functionals for col in f.cols_sparse()])
    diag = _diagonal(n)  # sum_i e_i (x) e_i

    # dual basis property: xi = sum_i f^i . f_i(xi) for every basis xi
    fail = first_mismatch((omega.right_action @ forms.kron(functionals)).mul_ikron(1, diag, dO), IO, (dO,))
    if fail is not None:
        raise NotProjective("dual-basis", witness=(omega.name, *fail))

    # right-A-linearity M o R = mul o (M (x) id_A) on Kron(module, A), on the row-major vec(M):
    # vec(M R) = (id_A (x) R^T) vec(M) and vec(mul (M (x) id_A)) = (T (x) id) vec(M), with the
    # rows of both read in Kron(A, A, module) order (the kernel does not depend on row order)
    right_t = Mat.swap(dO, dA) @ omega.right_action.transpose()  # R^T, its legs read as Kron(A, module)
    times = contract(A.mul, dA, dA, cup)  # T: a_k -> sum_a a_k a_a (x) e_a
    maps = kernel(IA.kron(right_t) - times.kron(IO))  # column b: vec of the b-th dual basis element
    pivot_of = {col[0][0]: b for b, col in enumerate(maps.cols_sparse())}
    pick = Mat(maps.cols, dA * dO, [[(pivot_of[r], ONE)] if r in pivot_of else [] for r in range(dA * dO)])
    vecs = contract(functionals, dO, n, cup_O)  # column i: vec(f_i)
    coords = pick @ vecs  # column i: f_i in the dual
    fail = first_mismatch(maps @ coords, vecs, (n,))
    if fail is not None:
        raise NotProjective("dual-right-linear", witness=(omega.name, *fail), detail="functional is not right-A-linear")

    # bimodule structure on the dual: (a.al)(xi) = a.al(xi), vec(L_a M) = (L_a (x) id) vec(M), and
    # (al.a)(xi) = al(a.xi), vec(M L_a) = (id_A (x) L_a^T) vec(M), every a at once through
    # left_t: xi_k (x) a_a -> sum_j (coefficient of xi_k in a_a.xi_j) xi_j
    left_t = contract(cup.transpose(), dO, dA, omega.left_action.transpose()) @ Mat.swap(dO, dA)
    left = pick.mul_ikron(1, A.mul, dO).mul_ikron(dA, maps, 1)
    right = pick.mul_ikron(dA, left_t, 1).mul_ikron(1, maps, dA)
    dual = Bimodule(A, maps.cols, left, right, f"dual({omega.name})")

    # pairing dual (x) module -> A on plain tensor coordinates: column b*dO + j is M_b(xi_j)
    apply_mat = contract(cup_O.transpose(), dA, dO, maps, mirror=True)

    pair_dual_module = TensorPair(dual, omega)
    pair_module_dual = TensorPair(omega, dual)

    A_bim = algebra_as_bimodule(A)
    ev = pair_dual_module.induce(apply_mat, "ev", pair_dual_module.space.name)
    coev_one = forms.kron(coords) @ diag  # sum_i f^i (x) f_i
    coev = pair_module_dual.project.mul_ikron(1, omega.left_action, dual.dim).mul_ikron(dA, coev_one, 1)
    for name, src, dst, mat in (
        ("ev", pair_dual_module.space, A_bim, ev),
        ("coev", A_bim, pair_module_dual.space, coev),
    ):
        fail = intertwining_failure(src, dst, mat)
        if fail is not None:
            raise ValidationError(f"{name}-bimodule-map", witness=fail)

    # zig-zag identities (exact, on every basis element)
    coev_rep = pair_module_dual.section @ pair_module_dual.project @ coev_one
    fail = zigzag_failure(dual, omega, apply_mat, coev_rep)
    if fail is not None:
        side, idx = fail
        raise ValidationError("zigzag-dual" if side == "fields" else "zigzag-module", witness=(omega.name, idx))

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
        idempotent=functionals.mul_ikron(n, forms, 1),  # P[q][j] = f_q(f^j) as Kron(n, n) -> A
    )

