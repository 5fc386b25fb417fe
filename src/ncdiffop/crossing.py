"""The crossing map placing the operator algebra in the centre of the
bimodule-connection category.

``CrossingMap`` holds, per input degree n, the blocks
``theta(n)[m] : Kron(V(n), E) -> E (x)_A V(m)`` for m <= n.  It has no
degree of its own: each degree is built on first use from the degree below,
like the geometry towers, and so are the braid, the inverse, the relations
its left inverse holds modulo and the coevaluation-connection blocks; every
check takes the degree it checks up to.  The domain is plain (the map is
only balanced for the product-twisted right action, which is what property
checks 2 and 4 verify).

What is shared and for how long:

* per loaded bundle, ``Crossings`` holds the bullet table, the crossing of
  each module with a braiding and of each tensor product of two, and the
  coevaluation connection.  These depend on the geometry and the modules
  only, so every verification run over the bundle reads the same ones
  (``Bundle.crossings``), each grown as far as some check has asked;
* per run, ``OperatorAlgebraCandidate`` holds those crossings and the degree
  its centre checks go up to, nothing else.

Every axiom check is one sparse matrix identity per degree, ``lhs == rhs``
between compositions of the blocks with the bullet tables, the action tables
and the tensor quotients, each on a Kronecker domain such as
``Kron(V(n), E, F)`` (the left inverse holds modulo a relation span, tested
column by column).  ``linalg.first_mismatch`` turns the first column where
the two sides differ back into the basis tuple that is the check's witness.
"""

from __future__ import annotations

from typing import Optional

from .bimodule import TensorPair, balance
from .calculus import ConnectionModule, tensor_connection
from .diffop import BulletTable
from .linalg import Mat, first_mismatch, ikron_mul, inverse, quotient, span
from .memo import memo
from .report import CheckResult, ValidationError


class SigmaNotInvertible(ValidationError):
    pass


def _add(acc: dict, m: int, mat: Mat):
    acc[m] = acc[m] + mat if m in acc else mat


def _at(prefix: tuple, fail: Optional[tuple]):
    """A witness: the fixed indices of a check followed by its mismatch, or None."""
    return None if fail is None else (*prefix, *fail)


def _first_by_block(lhs: dict[int, Mat], rhs: dict[int, Mat], shape) -> Optional[tuple[int, int]]:
    """The smallest ``(x, m)`` such that degree m of ``lhs == rhs`` fails among the
    domain columns whose first index is x (a missing degree reads as zero): the
    first failure of loops over x, then over degrees."""
    best = None
    for m in set(lhs) | set(rhs):
        fail = first_mismatch({m: lhs[m]} if m in lhs else {}, {m: rhs[m]} if m in rhs else {}, shape)
        if fail is not None and (best is None or (fail[0], m) < best):
            best = (fail[0], m)
    return best


def sigma_hat(table: BulletTable, module: ConnectionModule) -> Mat:
    """The braiding of vector fields over E derived from sigma_E:
    (ev (x) id (x) id)(id (x) sigma_E (x) id)(id (x) id (x) coev(1)),
    as a matrix Kron(Vec, E) -> E (x)_A Vec.
    """
    crossed = module.OE.section @ module.sigma @ module.EO.project  # Kron(E, Omega) -> Kron(Omega, E)
    return table.geometry.cross_fields(module.space, crossed)


class CrossingMap:
    def __init__(self, table: BulletTable, module: ConnectionModule, validate: bool = True):
        module.require_invertible_sigma()
        self.table = table
        self.module = module
        self.validate = validate
        g = table.geometry
        self.geometry = g
        self.VE = g.pair(g.vec, module.space)

        self.sigma_hat = sigma_hat(table, module)
        if not self.VE.descends(self.sigma_hat):
            raise ValidationError("sigma-hat-not-well-defined", witness=module.name)
        try:
            self.sigma_hat_inv = inverse(self.sigma_hat @ self.VE.section)
        except ValueError:
            raise SigmaNotInvertible("sigma-hat-invertible", witness=module.name) from None

    def EV(self, m: int) -> TensorPair:
        return self.geometry.pair(self.module.space, self.geometry.V(m))

    # -- construction, one degree at a time from the degree below ------------------

    @memo
    def theta(self, n: int) -> dict[int, Mat]:
        """The blocks theta_n^m : Kron(V(n), E) -> E (x)_A V(m) for m <= n; from
        degree 2 on, well-definedness over Vec (x)_A V(n-1) (property 1) is
        checked as the degree is built, unless the map was made with validate=False."""
        g, E = self.geometry, self.module.space
        if n <= 1:
            embed0 = self.EV(0).project.mul_ikron(E.dim, g.one, 1)  # a (x) e -> [a.e (x) 1]
            if n == 0:
                return {0: embed0 @ E.left_action}
            return {0: embed0 @ self.module.act_table(1), 1: self.sigma_hat}
        act1 = self.module.act_table(1)
        p = n - 1
        pv = g.pair_V(n)
        dvec, dE = g.vec.dim, E.dim
        cross = self.EV(1).section @ self.sigma_hat  # Kron(vec, E) -> Kron(E, vec)
        blocks_plain: dict[int, Mat] = {}
        for m, th in self.theta(p).items():
            dm = g.V(m).dim
            # on Kron(vec, E, Vm): term 1 acts on the crossing result; terms 2 and 3 share the
            # sigma-hat crossing to Kron(E, vec, Vm) and merge or bullet vec into V(m)
            same = self.EV(m).project.mul_ikron(1, act1, dm)
            same = same + self.EV(m).project.mul_ikron(dE, self.table.table(1, m, m), 1).mul_ikron(1, cross, dm)
            up = self.EV(m + 1).project.mul_ikron(dE, g.merge_vec(1, m), 1).mul_ikron(1, cross, dm)
            lift = self.EV(m).section @ th  # Kron(V(p), E) -> Kron(E, Vm), under each vec
            _add(blocks_plain, m, same.mul_ikron(dvec, lift, 1))
            _add(blocks_plain, m + 1, up.mul_ikron(dvec, lift, 1))
        # term 4: -theta_p((w bullet_p v) (x) e)
        for m, th in self.theta(p).items():
            _add(blocks_plain, m, -th.mul_ikron(1, self.table.table(1, p, p), dE))

        if self.validate:
            rels = pv.relation_mat
            probe = {m: mat.mul_ikron(1, rels, dE) for m, mat in blocks_plain.items()}
            fail = first_mismatch(probe, {}, (rels.cols * dE,))
            if fail is not None:
                raise ValidationError("theta-not-well-defined", witness=(self.module.name, n, fail[-1]))
        return {m: mat.mul_ikron(1, pv.section, dE) for m, mat in blocks_plain.items()}

    @memo
    def braid(self, n: int) -> Mat:
        """The top-degree block rebuilt from sigma-hat alone, the iterated braid
        that theta_n^n must equal (the filtration invariant), n >= 1."""
        if n == 1:
            return self.sigma_hat
        g, dE = self.geometry, self.module.space.dim
        merged = self.EV(n).project.mul_ikron(dE, g.merge_vec(1, n - 1), 1)
        crossed = merged.mul_ikron(1, self.EV(1).section @ self.sigma_hat, g.V(n - 1).dim)
        lifted = crossed.mul_ikron(g.vec.dim, self.EV(n - 1).section @ self.braid(n - 1), 1)
        return lifted.mul_ikron(1, g.pair_V(n).section, dE)

    # -- property checks (the numbered list of the construction) -------------------

    def check_bullet_balance(self, degree: int) -> list[CheckResult]:
        """Property 2: theta(v bullet a (x) e) = theta(v (x) a.e)."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, degree + 1):
            Vn = g.V(n)
            lhs: dict[int, Mat] = {}
            for k in range(n, -1, -1):
                for m, th in self.theta(k).items():
                    _add(lhs, m, th.mul_ikron(1, self.table.table(n, 0, k), E.dim))
            rhs = {m: th.mul_ikron(Vn.dim, E.left_action, 1) for m, th in self.theta(n).items()}
            fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, g.algebra.dim, E.dim)))
            results.append(CheckResult(f"theta-bullet-balance-deg{n}", fail is None, witness=fail))
        return results

    def check_left_module(self, degree: int) -> list[CheckResult]:
        """Property 3: theta is a left module map."""
        g, E = self.geometry, self.module.space
        dA = g.algebra.dim
        results = []
        for n in range(0, degree + 1):
            Vn = g.V(n)
            # a.(v (x) e) on Kron(A, V(n), E)
            lhs = {m: th.mul_ikron(1, Vn.left_action, E.dim) for m, th in self.theta(n).items()}
            rhs = {m: self.EV(m).space.left_action.mul_ikron(dA, th, 1) for m, th in self.theta(n).items()}
            fail = _at((n,), _first_by_block(lhs, rhs, (g.algebra.dim, Vn.dim * E.dim)))
            results.append(CheckResult(f"theta-left-module-deg{n}", fail is None, witness=fail))
        return results

    def check_right_module(self, degree: int) -> list[CheckResult]:
        """Property 4: theta intertwines the product-twisted right actions,
        theta(v (x) e.a) = sum_m (id (x) bullet a)(theta_m(v (x) e))."""
        g, E = self.geometry, self.module.space
        dA = g.algebra.dim
        results = []
        for n in range(0, degree + 1):
            Vn = g.V(n)
            swap = Mat.swap(dA, Vn.dim * E.dim)  # witnesses run over a before v (x) e
            # (v (x) e).a on Kron(V(n), E, A)
            lhs = {m: th.mul_ikron(Vn.dim, E.right_action, 1) @ swap for m, th in self.theta(n).items()}
            rhs: dict[int, Mat] = {}
            for m, th in self.theta(n).items():
                lift = self.EV(m).section @ th  # -> Kron(E, V(m)), then bullet a into V(k)
                for k in range(m, -1, -1):
                    acted = self.EV(k).project.mul_ikron(E.dim, self.table.table(m, 0, k), 1)
                    _add(rhs, k, acted.mul_ikron(1, lift, dA) @ swap)
            fail = _at((n,), _first_by_block(lhs, rhs, (dA, Vn.dim * E.dim)))
            results.append(CheckResult(f"theta-right-module-deg{n}", fail is None, witness=fail))
        return results

    def check_action_factorization(
        self, fm: ConnectionModule, tensor_mod: ConnectionModule, degree: int
    ) -> list[CheckResult]:
        """Property 5: v |> (e (x) f) = (id (x) |>)(theta (x) id)(v (x) e (x) f)."""
        g, E = self.geometry, self.module.space
        F = fm.space
        pair_ef = g.pair(E, F)
        results = []
        for n in range(0, degree + 1):
            Vn = g.V(n)
            lhs = tensor_mod.act_table(n).mul_ikron(Vn.dim, pair_ef.project, 1)
            rhs = Mat.zeros(lhs.rows, lhs.cols)
            for m, th in self.theta(n).items():
                acted = pair_ef.project.mul_ikron(E.dim, fm.act_table(m), 1)
                rhs = rhs + acted.mul_ikron(1, self.EV(m).section @ th, F.dim)
            fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, E.dim, F.dim)))
            results.append(CheckResult(f"theta-action-deg{n}", fail is None, witness=fail))
        return results

    def check_filtration(self, degree: int) -> list[CheckResult]:
        """Degree n -> n block equals the iterated sigma-hat braid; lower blocks only."""
        results = []
        for n in range(1, degree + 1):
            ok = self.theta(n)[n] == self.braid(n)
            extra = [m for m in self.theta(n) if m > n]
            results.append(CheckResult(f"theta-filtration-deg{n}", ok and not extra, witness=None if ok else n))
        return results

    def check_naturality(self, other: "CrossingMap", t: Mat, degree: int) -> list[CheckResult]:
        """(T (x) id) theta_E = theta_F (id (x) T) for a connection morphism T."""
        g = self.geometry
        results = []
        for n in range(0, degree + 1):
            fail = None
            for m in range(0, n + 1):
                lhs_mat = self.theta(n).get(m)
                rhs_mat = other.theta(n).get(m)
                if lhs_mat is None and rhs_mat is None:
                    continue
                tmat = other.EV(m).project.mul_ikron(1, t, g.V(m).dim) @ self.EV(m).section
                if tmat @ lhs_mat != rhs_mat.mul_ikron(g.V(n).dim, t, 1):
                    fail = (n, m)
                    break
            results.append(CheckResult(f"theta-naturality-deg{n}", fail is None, witness=fail))
        return results

    # -- inverse -------------------------------------------------------------------

    @memo
    def build_inverse(self, n: int) -> dict[int, Mat]:
        """The inverse blocks E (x)_A V(n) -> Kron(V(m), E) for m <= n, by the recursion

        theta_inv(f (x) u (x) v) = u' bullet theta_inv(f' (x) v) - theta_inv((u' |> f') (x) v)
                                   - theta_inv(f (x) (u bullet_p v)),  u' (x) f' = sigma_hat^-1(f (x) u),

        where v has degree p = n - 1 and u' bullet y = u' (x) y + u' bullet_m y for y of degree m.
        """
        g, E = self.geometry, self.module.space
        if n == 0:  # e . a -> 1 (x) e.a
            return {0: g.one.kron(E.right_action) @ self.EV(0).section}
        act1 = self.module.act_table(1)
        lift_ve = self.VE.section @ self.sigma_hat_inv  # E (x)_A Vec -> Kron(Vec, E)
        if n == 1:
            return {1: lift_ve, 0: -g.one.kron(act1 @ lift_ve)}
        p, dp = n - 1, g.V(n - 1).dim
        cross = lift_ve @ self.EV(1).project  # Kron(E, Vec) -> Kron(Vec, E)
        split = ikron_mul(E.dim, g.pair_V(n).section, 1, self.EV(n).section)  # -> Kron(E, Vec, V(p))
        crossed = ikron_mul(1, cross, dp, split)  # -> Kron(Vec, E, V(p))
        # -> Kron(E, V(p))
        lower = ikron_mul(1, act1, dp, crossed) + ikron_mul(E.dim, self.table.table(1, p, p), 1, split)
        blocks = {m: Mat.zeros(g.V(m).dim * E.dim, self.EV(n).dim) for m in range(n + 1)}
        for m, prev in self.build_inverse(p).items():
            prev = prev @ self.EV(p).project  # Kron(E, V(p)) -> Kron(V(m), E)
            acted = ikron_mul(g.vec.dim, prev, 1, crossed)  # -> Kron(Vec, V(m), E)
            blocks[m + 1] = blocks[m + 1] + ikron_mul(1, g.merge_vec(1, m), E.dim, acted)
            blocks[m] = blocks[m] + ikron_mul(1, self.table.table(1, m, m), E.dim, acted) - prev @ lower
        return blocks

    @memo
    def inverse_relations(self, n: int) -> Mat:
        """The relations x bullet a (x) e - x (x) a.e of the filtered tensor product for x of
        degree at most n, as a span on the stacked sum of the Kron(V(m), E), m <= n, in the
        layout of ``_stacking(n)``: block n first.  It grows from the basis of degree n - 1,
        moved past block n.  A relation of degree n leads in block n unless its top part
        vanishes, and no row of the degree below has an entry there, so adding it leaves
        those rows alone."""
        g, E = self.geometry, self.module.space
        offsets, total = self._stacking(n)
        blocks = {k: self.table.table(n, 0, k).kron(Mat.identity(E.dim)) for k in range(n)}
        blocks[n] = balance(g.V(n), E)
        below = self.inverse_relations(n - 1).cols_sparse() if n else []
        shift = offsets[n - 1] if n else 0  # the size of block n
        moved = [[(shift + i, v) for i, v in col] for col in below]
        return span(total, moved + _stacked(blocks, offsets, total).cols_sparse())

    def _stacking(self, n: int) -> tuple[dict[int, int], int]:
        """The row offset of each block Kron(V(m), E), m <= n, of the stacked sum, block n
        first and block 0 last, and the sum's dimension."""
        offsets, total = {}, 0
        for m in range(n, -1, -1):
            offsets[m] = total
            total += self.geometry.V(m).dim * self.module.space.dim
        return offsets, total

    def check_inverse(self, degree: int) -> list[CheckResult]:
        """theta o theta_inv = id exactly; theta_inv o theta = id modulo the
        product-twisted relations of the filtered tensor product."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, degree + 1):
            # composite theta(theta_inv(.)) - id per degree block
            comp = {n: -Mat.identity(self.EV(n).dim)}
            for m, invmat in self.build_inverse(n).items():
                for mm, th in self.theta(m).items():
                    _add(comp, mm, th @ invmat)
            ok = all(mat.is_zero() for mat in comp.values())
            results.append(CheckResult(f"theta-right-inverse-deg{n}", ok, witness=None if ok else n))

        # theta_inv o theta = id in the quotient by the relations up to the check's degree
        offsets, total_dim = self._stacking(degree)
        project, _ = quotient(self.inverse_relations(degree))
        for n in range(0, degree + 1):
            comp = {n: -Mat.identity(g.V(n).dim * E.dim)}
            for m, th in self.theta(n).items():
                for mm, invmat in self.build_inverse(m).items():
                    _add(comp, mm, invmat @ th)
            stacked = project @ _stacked(comp, offsets, total_dim)
            fail = first_mismatch(stacked, Mat.zeros(stacked.rows, stacked.cols), (g.V(n).dim, E.dim))
            fail = None if fail is None else (n, *fail)
            results.append(CheckResult(f"theta-left-inverse-deg{n}", fail is None, witness=fail))
        return results


def _stacked(blocks: dict[int, Mat], offsets: dict[int, int], rows: int) -> Mat:
    """The matrix with block m at row offsets[m] (the blocks do not overlap)."""
    cols = [[] for _ in range(next(iter(blocks.values())).cols)]
    for m in sorted(blocks, key=offsets.__getitem__):
        for col, out in zip(blocks[m].cols_sparse(), cols):
            out.extend((offsets[m] + i, v) for i, v in col)
    return Mat(rows, len(cols), cols)


# -- theta on the unit object and compatibility with the product -------------------


def check_theta_on_algebra(cm: CrossingMap, degree: int) -> list[CheckResult]:
    """On E = A the crossing is the bullet product (unit-object axiom)."""
    g = cm.geometry
    if cm.module.space is not g.A_bim:
        raise ValueError("check_theta_on_algebra expects the crossing on A")
    results = []
    for n in range(0, degree + 1):
        fail = None
        for k in range(0, n + 1):
            expected = cm.EV(k).project.mul_ikron(1, g.one, g.V(k).dim) @ cm.table.table(n, 0, k)
            got = cm.theta(n).get(k, Mat.zeros(expected.rows, expected.cols))
            if got != expected:
                fail = (n, k)
                break
        results.append(CheckResult(f"theta-on-A-deg{n}", fail is None, witness=fail))
    return results


def theta_product_compat(cm: CrossingMap, degree: int) -> list[CheckResult]:
    """theta(u bullet v (x) e) = (id (x) bullet)(theta (x) id)(id (x) theta)."""
    g, E = cm.geometry, cm.module.space
    table = cm.table
    # built once per call: each theta_n block into V(m), lifted to Kron(E, V(m)),
    # and each projected bullet Kron(E, V(mp), V(m)) -> E (x) V(k)
    lifted = {(n, m): cm.EV(m).section @ th for n in range(degree + 1) for m, th in cm.theta(n).items()}
    acted: dict[tuple[int, int, int], Mat] = {}
    results = []
    for p in range(0, degree + 1):
        # (m, k): every theta_p block that lands in V(k), crossed past E and summed;
        # Kron(V(p), E, V(m)) -> Kron(E, V(mp), V(m)) -> E (x) V(k), the same for every q
        crossed: dict[tuple[int, int], Mat] = {}
        for m in sorted({m for q in range(degree + 1 - p) for m in cm.theta(q)}):
            for k in range(0, p + m + 1):
                for mp in cm.theta(p):
                    if k <= mp + m:
                        if (k, mp, m) not in acted:
                            acted[k, mp, m] = cm.EV(k).project.mul_ikron(E.dim, table.table(mp, m, k), 1)
                        _add(crossed, (m, k), acted[k, mp, m].mul_ikron(1, lifted[p, mp], g.V(m).dim))
        for q in range(0, degree + 1 - p):
            Vp, Vq = g.V(p), g.V(q)
            lhs: dict[int, Mat] = {}
            for k in range(0, p + q + 1):
                for m, th in cm.theta(k).items():
                    _add(lhs, m, th.mul_ikron(1, table.table(p, q, k), E.dim))
            # Kron(V(p), V(q), E) -> Kron(V(p), E, V(m)), then crossed into V(k)
            rhs: dict[int, Mat] = {}
            for m in cm.theta(q):
                for k in range(0, p + m + 1):
                    if (m, k) in crossed:
                        _add(rhs, k, crossed[m, k].mul_ikron(Vp.dim, lifted[q, m], 1))
            fail = _at((p, q), first_mismatch(lhs, rhs, (Vp.dim, Vq.dim, E.dim)))
            results.append(CheckResult(f"theta-product-compat-{p}-{q}", fail is None, witness=fail))
    return results


def theta_tensor_factorization(
    cm_e: CrossingMap, cm_f: CrossingMap, cm_ef: CrossingMap, degree: int
) -> list[CheckResult]:
    """theta_{E (x) F} = (id_E (x) theta_F)(theta_E (x) id_F), degree by degree."""
    g = cm_e.geometry
    E, F = cm_e.module.space, cm_f.module.space
    pair_ef = g.pair(E, F)
    # Kron(E, F, V(mp)) -> (E (x) F) (x) V(mp), whatever the degree it is reached from
    merged = {mp: cm_ef.EV(mp).project.mul_ikron(1, pair_ef.project, g.V(mp).dim) for mp in range(degree + 1)}
    results = []
    for n in range(0, degree + 1):
        Vn = g.V(n)
        lhs = {m: th.mul_ikron(Vn.dim, pair_ef.project, 1) for m, th in cm_ef.theta(n).items()}
        # Kron(V(n), E, F) -> Kron(E, V(m), F) -> Kron(E, F, V(mp)), then into (E (x) F) (x) V(mp)
        rhs: dict[int, Mat] = {}
        for m, th_e in cm_e.theta(n).items():
            for mp, th_f in cm_f.theta(m).items():
                outer = merged[mp].mul_ikron(E.dim, cm_f.EV(mp).section @ th_f, 1)
                _add(rhs, mp, outer.mul_ikron(1, cm_e.EV(m).section @ th_e, F.dim))
        fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, E.dim, F.dim)))
        results.append(CheckResult(f"theta-tensor-factorization-deg{n}", fail is None, witness=fail))
    return results


# -- the coevaluation connection on the operator algebra ----------------------------


class OperatorConnection:
    """nabla(v) = coev(1) bullet v on the truncated operator algebra.

    The blocks of degree n are V(n) -> Omega1 (x)_A V(m) for m in {n, n+1};
    the braiding is zero, which is exactly the right-module-map property below.
    """

    def __init__(self, table: BulletTable):
        self.table = table
        self.geometry = table.geometry

    @memo
    def blocks(self, n: int) -> dict[int, Mat]:
        """nabla on V(n), one block per m in {n, n+1}: the degree-raising block is
        kept at a check's top degree too, so the right-module identity loses no terms."""
        return {k: self.geometry.OV(k).project @ plain for k, plain in self._coev_bullet(n).items()}

    def _coev_bullet(self, n: int) -> dict[int, Mat]:
        """v -> coev(1) bullet v on plain coordinates, V(n) -> Kron(Omega1, V(k)) for k = n, n+1."""
        g = self.geometry
        # id (x) bullet applied to coev(1) (x) v, one column per basis v
        coev = g.coev_one.kron(Mat.identity(g.V(n).dim))
        return {k: ikron_mul(g.omega.dim, self.table.table(1, n, k), 1, coev) for k in (n, n + 1)}

    def check_left_leibniz(self, degree: int) -> list[CheckResult]:
        """nabla(a.v) = a.nabla(v) + da (x) v."""
        g = self.geometry
        results = []
        for n in range(0, degree + 1):
            Vn = g.V(n)
            blocks = self.blocks(n)
            lhs = {m: mat @ Vn.left_action for m, mat in blocks.items()}
            rhs = {m: g.OV(m).space.left_action.mul_ikron(g.algebra.dim, mat, 1) for m, mat in blocks.items()}
            rhs[n] = rhs[n] + g.OV(n).project.mul_ikron(1, g.d, Vn.dim)
            fail = first_mismatch(lhs, rhs, (g.algebra.dim, Vn.dim))  # (a, v, degree)
            fail = None if fail is None else (n, *fail[:-1])
            results.append(CheckResult(f"operator-connection-leibniz-deg{n}", fail is None, witness=fail))
        return results

    def check_right_module_map(self, degree: int) -> list[CheckResult]:
        """nabla(v bullet a) = nabla(v) bullet a: the zero-braiding property."""
        g = self.geometry
        table = self.table
        dA = g.algebra.dim
        results = []
        for n in range(0, degree + 1):
            Vn = g.V(n)
            swap = Mat.swap(dA, Vn.dim)  # witnesses run over a before v
            lhs: dict[int, Mat] = {}
            for k in range(n, -1, -1):
                moved = table.table(n, 0, k) @ swap
                for m, mat in self.blocks(k).items():
                    _add(lhs, m, mat @ moved)
            rhs: dict[int, Mat] = {}
            for m, mat in self.blocks(n).items():
                lift = g.OV(m).section @ mat  # -> Kron(Omega1, V(m)), then bullet a into V(k)
                for k in range(m, -1, -1):
                    acted = g.OV(k).project.mul_ikron(g.omega.dim, table.table(m, 0, k), 1)
                    _add(rhs, k, acted.mul_ikron(1, lift, dA) @ swap)
            fail = _at((n,), first_mismatch(lhs, rhs, (dA, Vn.dim)))
            results.append(CheckResult(f"operator-connection-right-deg{n}", fail is None, witness=fail))
        return results

    def check_crossing_is_morphism(self, cm: CrossingMap, degree: int) -> list[CheckResult]:
        """(id (x) theta) nabla_{T (x) E} = nabla_{E (x) T} theta, degree by degree."""
        g, em = self.geometry, cm.module
        E, dO = em.space, g.omega.dim
        nabla = em.OE.section @ em.nabla  # E -> Kron(Omega1, E)
        crossed = em.OE.section @ em.sigma @ em.EO.project  # Kron(E, Omega1) -> Kron(Omega1, E)

        def target(m):  # Omega1 (x)_A (E (x)_A V(m))
            return g.pair(g.omega, cm.EV(m).space).project

        results = []
        for n in range(0, degree):  # the left side raises degree by one
            Vn = g.V(n)
            # nabla_{T (x) E}(v (x) e) = xi (x) (u bullet v) (x) e, then id (x) theta
            lhs: dict[int, Mat] = {}
            for k, up in self._coev_bullet(n).items():
                for m, th in cm.theta(k).items():
                    _add(lhs, m, target(m).mul_ikron(dO, th, 1).mul_ikron(1, up, E.dim))
            # nabla_E(f) (x) w + sigma_E(f (x) xi) (x) (u bullet w) on theta(v (x) e) = f (x) w
            rhs: dict[int, Mat] = {}
            for m, th in cm.theta(n).items():
                lifted = cm.EV(m).section @ th  # -> Kron(E, V(m))
                push = target(m).mul_ikron(dO, cm.EV(m).project, 1)
                _add(rhs, m, push.mul_ikron(1, nabla, g.V(m).dim) @ lifted)
                for k, up in self._coev_bullet(m).items():
                    push = target(k).mul_ikron(dO, cm.EV(k).project, 1).mul_ikron(1, crossed, g.V(k).dim)
                    _add(rhs, k, push.mul_ikron(E.dim, up, 1) @ lifted)
            fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, E.dim)))
            results.append(CheckResult(f"operator-connection-morphism-deg{n}", fail is None, witness=fail))
        return results

    def check_product_is_morphism(self, degree: int) -> list[CheckResult]:
        """(id (x) bullet) nabla_{T (x) T} = nabla o bullet (associativity in disguise)."""
        g = self.geometry
        table = self.table
        results = []
        for p in range(0, degree):
            for q in range(0, degree - p):
                Vp, Vq = g.V(p), g.V(q)
                lhs: dict[int, Mat] = {}
                for k in range(0, p + q + 1):
                    for m, mat in self.blocks(k).items():
                        _add(lhs, m, mat @ table.table(p, q, k))
                rhs: dict[int, Mat] = {}
                for k, up in self._coev_bullet(p).items():  # up (x) id: -> Kron(Omega1, V(k), V(q))
                    for k2 in range(0, k + q + 1):
                        acted = g.OV(k2).project.mul_ikron(g.omega.dim, table.table(k, q, k2), 1)
                        _add(rhs, k2, acted.mul_ikron(1, up, Vq.dim))
                fail = _at((p, q), first_mismatch(lhs, rhs, (Vp.dim, Vq.dim)))
                results.append(CheckResult(f"operator-product-morphism-{p}-{q}", fail is None, witness=fail))
        return results


class Crossings:
    """The crossings of one bundle: the bullet table, the crossing of each test
    object and of each tensor product of two, and the coevaluation connection.

    They depend on the geometry and the modules only, so one ``Crossings`` per
    loaded bundle (``Bundle.crossings``) serves every verification run over it:
    each crossing is built once, on first use, and grows degree by degree as
    far as any check asks.
    """

    def __init__(self, table: BulletTable, modules: dict[str, ConnectionModule]):
        if "A" not in modules:
            raise ValueError("the unit object A must be among the test objects")
        self.table = table
        self.geometry = table.geometry
        self.modules = dict(modules)
        self.operator_connection = OperatorConnection(table)

    def object_names(self) -> list[str]:
        return sorted(self.modules)

    @memo
    def crossing(self, name: str) -> CrossingMap:
        return CrossingMap(self.table, self.modules[name])

    @memo
    def tensor_module(self, a: str, b: str) -> ConnectionModule:
        return tensor_connection(self.modules[a], self.modules[b])

    @memo
    def tensor_crossing(self, a: str, b: str) -> CrossingMap:
        return CrossingMap(self.table, self.tensor_module(a, b))


class OperatorAlgebraCandidate:
    """The truncated operator algebra as a centre candidate for the category of
    bimodules with invertible-braiding connections over one bundle.

    A candidate belongs to one verification run: it holds the degree its checks
    go up to, ``max_degree``, and reads the bundle's shared ``Crossings``, which
    any other caller may read to a higher degree.
    """

    def __init__(self, crossings: Crossings, max_degree: int):
        self.crossings = crossings
        self.max_degree = max_degree
        self.name = f"operator-algebra-{crossings.geometry.name}"

    def object_names(self) -> list[str]:
        return self.crossings.object_names()

    @staticmethod
    def _merge(name: str, results: list[CheckResult]) -> CheckResult:
        bad = [r for r in results if not r.ok]
        return CheckResult(name, not bad, witness=(bad[0].name, bad[0].witness) if bad else None)

    def check_unit(self) -> CheckResult:
        return self._merge("centre-unit-object", check_theta_on_algebra(self.crossings.crossing("A"), self.max_degree))

    def check_morphism(self, obj: str) -> CheckResult:
        cm, D = self.crossings.crossing(obj), self.max_degree
        results = []
        results += cm.check_bullet_balance(D)
        results += cm.check_left_module(D)
        results += cm.check_right_module(D)
        results += cm.check_filtration(D)
        results += self.crossings.operator_connection.check_crossing_is_morphism(cm, D)
        return self._merge(f"centre-morphism-{obj}", results)

    def check_tensor_compat(self, a: str, b: str) -> CheckResult:
        cx = self.crossings
        results = theta_tensor_factorization(cx.crossing(a), cx.crossing(b), cx.tensor_crossing(a, b), self.max_degree)
        return self._merge(f"centre-tensor-compat-{a}-{b}", results)

    def check_inverse(self, obj: str) -> CheckResult:
        return self._merge(f"centre-inverse-{obj}", self.crossings.crossing(obj).check_inverse(self.max_degree))

    def check_product_morphism(self) -> CheckResult:
        oc, D = self.crossings.operator_connection, self.max_degree
        results = oc.check_left_leibniz(D) + oc.check_right_module_map(D) + oc.check_product_is_morphism(D)
        return self._merge("centre-product-morphism", results)

    def check_algebra_in_centre(self, obj: str) -> CheckResult:
        cm = self.crossings.crossing(obj)
        return self._merge(f"centre-algebra-{obj}", theta_product_compat(cm, self.max_degree))

    def check_naturality(self) -> list[CheckResult]:
        A = self.crossings.geometry.algebra
        cm = self.crossings.crossing("A")
        t = A.mul.mul_ikron(1, A.one.scale(2), A.dim)
        results = cm.check_naturality(cm, t, self.max_degree)
        results += cm.check_naturality(cm, Mat.identity(A.dim), self.max_degree)
        return [self._merge("centre-naturality", results)]

    def extra_checks(self) -> list[CheckResult]:
        return []
