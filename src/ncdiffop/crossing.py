"""The crossing map placing the operator algebra in the centre of the
bimodule-connection category.

``CrossingMap`` stores, per input degree n, the blocks
``theta[n][m] : Kron(V(n), E) -> E (x)_A V(m)`` for m <= n.  The recursion
runs once at build time.  The domain is plain (the map is only balanced for
the product-twisted right action, which is what property checks 2 and 4
verify).

Every axiom check is one sparse matrix identity per degree, ``lhs == rhs``
between compositions of the blocks with the bullet tables, the action tables
and the tensor quotients, each on a Kronecker domain such as
``Kron(V(n), E, F)`` (the left inverse holds modulo a relation span, tested
column by column).  ``linalg.first_mismatch`` turns the first column where
the two sides differ back into the basis tuple that is the check's witness.
"""

from __future__ import annotations

from typing import Optional

from .bimodule import TensorPair
from .calculus import ConnectionModule, tensor_connection
from .diffop import BulletTable
from .linalg import Mat, first_mismatch, inverse, quotient, span
from .report import CheckResult, ValidationError
from .scalars import ONE


class SigmaNotInvertible(ValidationError):
    pass


def _add(acc: dict, m: int, mat: Mat):
    acc[m] = acc[m] + mat if m in acc else mat


def _at(prefix: tuple, fail: Optional[tuple]):
    """A witness: the fixed indices of a check followed by its mismatch, or None."""
    return None if fail is None else (*prefix, *fail)


def sigma_hat(table: BulletTable, module: ConnectionModule) -> Mat:
    """The braiding of vector fields over E derived from sigma_E:
    (ev (x) id (x) id)(id (x) sigma_E (x) id)(id (x) id (x) coev(1)),
    as a matrix Kron(Vec, E) -> E (x)_A Vec.
    """
    crossed = module.OE.section @ module.sigma @ module.EO.project  # Kron(E, Omega) -> Kron(Omega, E)
    return table.geometry.cross_fields(module.space, crossed)


class CrossingMap:
    def __init__(self, table: BulletTable, module: ConnectionModule, max_degree: int, validate: bool = True):
        module.require_invertible_sigma()
        self.table = table
        self.module = module
        self.max_degree = max_degree
        g = table.geometry
        self.geometry = g
        E = module.space

        self.EV: dict[int, TensorPair] = {m: g.pair(E, g.V(m)) for m in range(max_degree + 1)}
        self.VE = g.pair(g.vec, E)

        self.sigma_hat = sigma_hat(table, module)
        if not self.VE.descends(self.sigma_hat):
            raise ValidationError("sigma-hat-not-well-defined", witness=module.name)
        self.sigma_hat_q = self.sigma_hat @ self.VE.section
        try:
            self.sigma_hat_inv = inverse(self.sigma_hat_q)
        except ValueError:
            raise SigmaNotInvertible("sigma-hat-invertible", witness=module.name) from None

        self.theta: dict[int, dict[int, Mat]] = {}
        self.braid_blocks: dict[int, Mat] = {}
        self._build_blocks(validate=validate)
        self.inverse_blocks: Optional[dict[int, dict[int, Mat]]] = None

    # -- construction -----------------------------------------------------------

    def _build_blocks(self, validate: bool):
        g, E = self.geometry, self.module.space
        act1 = self.module.act_table(1)
        # degree 0: a (x) e -> [a.e (x) 1]
        embed0 = self.EV[0].project @ Mat.identity(E.dim).kron(g.one)
        self.theta[0] = {0: embed0 @ E.left_action()}
        if self.max_degree == 0:
            return
        self.theta[1] = {0: embed0 @ act1, 1: self.sigma_hat}
        self.braid_blocks[1] = self.sigma_hat

        for n in range(1, self.max_degree):
            pv = g.pair_V(n + 1)
            Vn = g.V(n)
            dvec, dE = g.vec.dim, E.dim
            blocks_plain: dict[int, Mat] = {}
            for m, th in self.theta[n].items():
                Im = Mat.identity(g.V(m).dim)
                lifted = Mat.identity(dvec).kron(self.EV[m].section @ th)  # Kron(vec, Vn, E) -> Kron(vec, E, Vm)
                # term 1: act on the crossing result
                _add(blocks_plain, m, self.EV[m].project @ act1.kron(Im) @ lifted)
                # terms 2 and 3 share the sigma-hat crossing, -> Kron(E, vec, Vm)
                crossed = self.EV[1].section.kron(Im) @ self.sigma_hat.kron(Im) @ lifted
                _add(blocks_plain, m + 1, self.EV[m + 1].project @ Mat.identity(dE).kron(g.merge_vec(1, m)) @ crossed)
                _add(blocks_plain, m, self.EV[m].project @ Mat.identity(dE).kron(self.table.table(1, m, m)) @ crossed)
            # term 4: -theta_n((w bullet_n v) (x) e)
            down = self.table.table(1, n, n).kron(Mat.identity(dE))
            for m, th in self.theta[n].items():
                _add(blocks_plain, m, -(th @ down))

            # well-definedness over Vec (x)_A V(n) (property 1)
            if validate:
                rels = pv.relation_mat.kron(Mat.identity(dE))
                fail = first_mismatch({m: mat @ rels for m, mat in blocks_plain.items()}, {}, (rels.cols,))
                if fail is not None:
                    raise ValidationError("theta-not-well-defined", witness=(self.module.name, n + 1, fail[-1]))
            lift = pv.section.kron(Mat.identity(dE))
            self.theta[n + 1] = {m: mat @ lift for m, mat in blocks_plain.items()}

            # independent top-degree braid block for the filtration invariant
            prev_braid = self.braid_blocks[n]
            crossed = (
                self.EV[1].section.kron(Mat.identity(Vn.dim))
                @ self.sigma_hat.kron(Mat.identity(Vn.dim))
                @ Mat.identity(dvec).kron(self.EV[n].section @ prev_braid)
            )
            self.braid_blocks[n + 1] = (
                self.EV[n + 1].project @ Mat.identity(dE).kron(g.merge_vec(1, n)) @ crossed @ lift
            )

    # -- property checks (the numbered list of the construction) -------------------

    def check_bullet_balance(self) -> list[CheckResult]:
        """Property 2: theta(v bullet a (x) e) = theta(v (x) a.e)."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            lhs: dict[int, Mat] = {}
            for k in range(n, -1, -1):
                moved = self.table.table(n, 0, k).kron(Mat.identity(E.dim))
                for m, th in self.theta[k].items():
                    _add(lhs, m, th @ moved)
            acted = Mat.identity(Vn.dim).kron(E.left_action())
            rhs = {m: th @ acted for m, th in self.theta[n].items()}
            fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, g.algebra.dim, E.dim)))
            results.append(CheckResult(f"theta-bullet-balance-deg{n}", fail is None, witness=fail))
        return results

    def check_left_module(self) -> list[CheckResult]:
        """Property 3: theta is a left module map."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for i in range(g.algebra.dim):
                lact = Vn.left[i].kron(Mat.identity(E.dim))
                for m, th in self.theta[n].items():
                    lhs = th @ lact
                    rhs = self.EV[m].space.left[i] @ th
                    if lhs != rhs:
                        fail = (n, i, m)
                        break
                if fail:
                    break
            results.append(CheckResult(f"theta-left-module-deg{n}", fail is None, witness=fail))
        return results

    def _right_bullet_on_EV(self, m: int, k: int, a_index: int) -> Mat:
        """Right action by bullet on E (x)_A V(m), the degree-k component."""
        g, E = self.geometry, self.module.space
        a = Mat(g.algebra.dim, 1, [[(a_index, ONE)]])
        moved = self.table.table(m, 0, k) @ Mat.identity(g.V(m).dim).kron(a)
        return self.EV[k].project @ Mat.identity(E.dim).kron(moved) @ self.EV[m].section

    def check_right_module(self) -> list[CheckResult]:
        """Property 4: theta intertwines the product-twisted right actions."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for i in range(g.algebra.dim):
                ract = Mat.identity(Vn.dim).kron(E.right[i])
                diff = {m: th @ ract for m, th in self.theta[n].items()}
                for m, th in self.theta[n].items():
                    for k in range(m, -1, -1):
                        _add(diff, k, -(self._right_bullet_on_EV(m, k, i) @ th))
                bad = [m for m in sorted(diff) if not diff[m].is_zero()]
                if bad:
                    fail = (n, i, bad[0])
                    break
            results.append(CheckResult(f"theta-right-module-deg{n}", fail is None, witness=fail))
        return results

    def check_action_factorization(self, fm: ConnectionModule, tensor_mod: ConnectionModule) -> list[CheckResult]:
        """Property 5: v |> (e (x) f) = (id (x) |>)(theta (x) id)(v (x) e (x) f)."""
        g, E = self.geometry, self.module.space
        F = fm.space
        pair_ef = g.pair(E, F)
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            lhs = tensor_mod.act_table(n) @ Mat.identity(Vn.dim).kron(pair_ef.project)
            rhs = Mat.zeros(lhs.rows, lhs.cols)
            for m, th in self.theta[n].items():
                acted = pair_ef.project @ Mat.identity(E.dim).kron(fm.act_table(m))
                rhs = rhs + acted @ (self.EV[m].section @ th).kron(Mat.identity(F.dim))
            fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, E.dim, F.dim)))
            results.append(CheckResult(f"theta-action-deg{n}", fail is None, witness=fail))
        return results

    def check_filtration(self) -> list[CheckResult]:
        """Degree n -> n block equals the iterated sigma-hat braid; lower blocks only."""
        results = []
        for n in range(1, self.max_degree + 1):
            ok = self.theta[n][n] == self.braid_blocks[n]
            extra = [m for m in self.theta[n] if m > n]
            results.append(CheckResult(f"theta-filtration-deg{n}", ok and not extra, witness=None if ok else n))
        return results

    def check_naturality(self, other: "CrossingMap", t: Mat) -> list[CheckResult]:
        """(T (x) id) theta_E = theta_F (id (x) T) for a connection morphism T."""
        g = self.geometry
        results = []
        for n in range(0, self.max_degree + 1):
            fail = None
            for m in range(0, n + 1):
                lhs_mat = self.theta[n].get(m)
                rhs_mat = other.theta[n].get(m)
                if lhs_mat is None and rhs_mat is None:
                    continue
                tmat = other.EV[m].project @ t.kron(Mat.identity(g.V(m).dim)) @ self.EV[m].section
                if tmat @ lhs_mat != rhs_mat @ Mat.identity(g.V(n).dim).kron(t):
                    fail = (n, m)
                    break
            results.append(CheckResult(f"theta-naturality-deg{n}", fail is None, witness=fail))
        return results

    # -- inverse -------------------------------------------------------------------

    def build_inverse(self) -> dict[int, dict[int, Mat]]:
        """Per-degree inverse maps E (x)_A V(n) -> Kron(V(m), E), by the recursion

        theta_inv(f (x) u (x) v) = u' bullet theta_inv(f' (x) v) - theta_inv((u' |> f') (x) v)
                                   - theta_inv(f (x) (u bullet_n v)),  u' (x) f' = sigma_hat^-1(f (x) u),

        where u' bullet y = u' (x) y + u' bullet_m y for y of degree m.
        """
        if self.inverse_blocks is not None:
            return self.inverse_blocks
        g, E = self.geometry, self.module.space
        act1 = self.module.act_table(1)
        IE, Ivec = Mat.identity(E.dim), Mat.identity(g.vec.dim)
        # degree 0: e . a -> 1 (x) e.a
        inv = {0: {0: g.one.kron(E.right_action()) @ self.EV[0].section}}
        if self.max_degree >= 1:
            lift_ve = self.VE.section @ self.sigma_hat_inv  # E (x)_A Vec -> Kron(Vec, E)
            inv[1] = {1: lift_ve, 0: -g.one.kron(act1 @ lift_ve)}
            cross = lift_ve @ self.EV[1].project  # Kron(E, Vec) -> Kron(Vec, E)
        for n in range(1, self.max_degree):
            In = Mat.identity(g.V(n).dim)
            split = IE.kron(g.pair_V(n + 1).section) @ self.EV[n + 1].section  # -> Kron(E, Vec, V(n))
            crossed = cross.kron(In) @ split  # -> Kron(Vec, E, V(n))
            lower = act1.kron(In) @ crossed + IE.kron(self.table.table(1, n, n)) @ split  # -> Kron(E, V(n))
            blocks = {m: Mat.zeros(g.V(m).dim * E.dim, self.EV[n + 1].dim) for m in range(n + 2)}
            for m, prev in inv[n].items():
                prev = prev @ self.EV[n].project  # Kron(E, V(n)) -> Kron(V(m), E)
                acted = Ivec.kron(prev) @ crossed  # -> Kron(Vec, V(m), E)
                blocks[m + 1] = blocks[m + 1] + g.merge_vec(1, m).kron(IE) @ acted
                blocks[m] = blocks[m] + self.table.table(1, m, m).kron(IE) @ acted - prev @ lower
            inv[n + 1] = blocks
        self.inverse_blocks = inv
        return inv

    def check_inverse(self) -> list[CheckResult]:
        """theta o theta_inv = id exactly; theta_inv o theta = id modulo the
        product-twisted relations of the filtered tensor product."""
        g, E = self.geometry, self.module.space
        inv = self.build_inverse()
        results = []
        for n in range(0, self.max_degree + 1):
            # composite theta(theta_inv(.)) - id per degree block
            comp = {n: -Mat.identity(self.EV[n].dim)}
            for m, invmat in inv[n].items():
                for mm, th in self.theta[m].items():
                    _add(comp, mm, th @ invmat)
            ok = all(mat.is_zero() for mat in comp.values())
            results.append(CheckResult(f"theta-right-inverse-deg{n}", ok, witness=None if ok else n))

        # theta_inv o theta = id in the quotient by (x bullet a (x) e - x (x) a.e),
        # on the sum of the Kron(V(m), E), block m at row offsets[m]
        offsets, total_dim = {}, 0
        for m in range(0, self.max_degree + 1):
            offsets[m] = total_dim
            total_dim += g.V(m).dim * E.dim
        rels = []
        for m in range(0, self.max_degree + 1):
            Vm = g.V(m)
            blocks = {k: self.table.table(m, 0, k).kron(Mat.identity(E.dim)) for k in range(m)}
            blocks[m] = Vm.right_action().kron(Mat.identity(E.dim)) - Mat.identity(Vm.dim).kron(E.left_action())
            rels += _stacked(blocks, offsets, total_dim).cols_sparse()
        project, _ = quotient(span(total_dim, rels))
        for n in range(0, self.max_degree + 1):
            comp = {n: -Mat.identity(g.V(n).dim * E.dim)}
            for m, th in self.theta[n].items():
                for mm, invmat in inv[m].items():
                    _add(comp, mm, invmat @ th)
            stacked = project @ _stacked(comp, offsets, total_dim)
            fail = first_mismatch(stacked, Mat.zeros(stacked.rows, stacked.cols), (g.V(n).dim, E.dim))
            fail = None if fail is None else (n, *fail)
            results.append(CheckResult(f"theta-left-inverse-deg{n}", fail is None, witness=fail))
        return results


def _stacked(blocks: dict[int, Mat], offsets: dict[int, int], rows: int) -> Mat:
    """The matrix with block m at row offsets[m] (offsets increasing with m)."""
    cols = [[] for _ in range(next(iter(blocks.values())).cols)]
    for m in sorted(blocks):
        for col, out in zip(blocks[m].cols_sparse(), cols):
            out.extend((offsets[m] + i, v) for i, v in col)
    return Mat(rows, len(cols), cols)


# -- theta on the unit object and compatibility with the product -------------------


def check_theta_on_algebra(cm: CrossingMap) -> list[CheckResult]:
    """On E = A the crossing is the bullet product (unit-object axiom)."""
    g = cm.geometry
    if cm.module.space is not g.A_bim:
        raise ValueError("check_theta_on_algebra expects the crossing on A")
    results = []
    for n in range(0, cm.max_degree + 1):
        fail = None
        for k in range(0, n + 1):
            expected = cm.EV[k].project @ g.one.kron(Mat.identity(g.V(k).dim)) @ cm.table.table(n, 0, k)
            got = cm.theta[n].get(k, Mat.zeros(expected.rows, expected.cols))
            if got != expected:
                fail = (n, k)
                break
        results.append(CheckResult(f"theta-on-A-deg{n}", fail is None, witness=fail))
    return results


def theta_product_compat(cm: CrossingMap) -> list[CheckResult]:
    """theta(u bullet v (x) e) = (id (x) bullet)(theta (x) id)(id (x) theta)."""
    g, E = cm.geometry, cm.module.space
    table = cm.table
    results = []
    D = cm.max_degree
    for p in range(0, D + 1):
        for q in range(0, D + 1 - p):
            Vp, Vq = g.V(p), g.V(q)
            lhs: dict[int, Mat] = {}
            for k in range(0, p + q + 1):
                moved = table.table(p, q, k).kron(Mat.identity(E.dim))
                for m, th in cm.theta[k].items():
                    _add(lhs, m, th @ moved)
            rhs: dict[int, Mat] = {}
            for m, th_q in cm.theta[q].items():
                inner = Mat.identity(Vp.dim).kron(cm.EV[m].section @ th_q)  # -> Kron(V(p), E, V(m))
                for mp, th_p in cm.theta[p].items():
                    outer = (cm.EV[mp].section @ th_p).kron(Mat.identity(g.V(m).dim)) @ inner  # -> Kron(E, V(mp), V(m))
                    for k in range(0, mp + m + 1):
                        _add(rhs, k, cm.EV[k].project @ Mat.identity(E.dim).kron(table.table(mp, m, k)) @ outer)
            fail = _at((p, q), first_mismatch(lhs, rhs, (Vp.dim, Vq.dim, E.dim)))
            results.append(CheckResult(f"theta-product-compat-{p}-{q}", fail is None, witness=fail))
    return results


def theta_tensor_factorization(
    cm_e: CrossingMap, cm_f: CrossingMap, cm_ef: CrossingMap
) -> list[CheckResult]:
    """theta_{E (x) F} = (id_E (x) theta_F)(theta_E (x) id_F), degree by degree."""
    g = cm_e.geometry
    E, F = cm_e.module.space, cm_f.module.space
    pair_ef = g.pair(E, F)
    results = []
    for n in range(0, cm_e.max_degree + 1):
        Vn = g.V(n)
        lhs = {m: th @ Mat.identity(Vn.dim).kron(pair_ef.project) for m, th in cm_ef.theta[n].items()}
        rhs: dict[int, Mat] = {}
        for m, th_e in cm_e.theta[n].items():
            inner = (cm_e.EV[m].section @ th_e).kron(Mat.identity(F.dim))  # -> Kron(E, V(m), F)
            for mp, th_f in cm_f.theta[m].items():
                outer = Mat.identity(E.dim).kron(cm_f.EV[mp].section @ th_f) @ inner  # -> Kron(E, F, V(mp))
                _add(rhs, mp, cm_ef.EV[mp].project @ pair_ef.project.kron(Mat.identity(g.V(mp).dim)) @ outer)
        fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, E.dim, F.dim)))
        results.append(CheckResult(f"theta-tensor-factorization-deg{n}", fail is None, witness=fail))
    return results


# -- the coevaluation connection on the operator algebra ----------------------------


class OperatorConnection:
    """nabla(v) = coev(1) bullet v on the truncated operator algebra.

    Blocks nabla[n][m] : V(n) -> Omega1 (x)_A V(m) for m in {n, n+1}; the
    braiding is zero, which is exactly the right-module-map property below.
    """

    def __init__(self, table: BulletTable, max_degree: int):
        self.table = table
        self.max_degree = max_degree
        g = table.geometry
        self.geometry = g
        # the degree-raising block is kept even at the truncation top so the
        # right-module identity can be compared without losing terms
        self.blocks: dict[int, dict[int, Mat]] = {
            n: {k: g.OV(k).project @ plain for k, plain in self._coev_bullet(n).items()}
            for n in range(0, max_degree + 1)
        }

    def _coev_bullet(self, n: int) -> dict[int, Mat]:
        """v -> coev(1) bullet v on plain coordinates, V(n) -> Kron(Omega1, V(k)) for k = n, n+1."""
        g = self.geometry
        coev = g.coev_one.kron(Mat.identity(g.V(n).dim))
        return {k: Mat.identity(g.omega.dim).kron(self.table.table(1, n, k)) @ coev for k in (n, n + 1)}

    def check_left_leibniz(self) -> list[CheckResult]:
        """nabla(a.v) = a.nabla(v) + da (x) v."""
        g = self.geometry
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            blocks = self.blocks[n]
            lhs = {m: mat @ Vn.left_action() for m, mat in blocks.items()}
            rhs = {m: g.OV(m).space.left_action() @ Mat.identity(g.algebra.dim).kron(mat) for m, mat in blocks.items()}
            rhs[n] = rhs[n] + g.OV(n).project @ g.d.kron(Mat.identity(Vn.dim))
            fail = first_mismatch(lhs, rhs, (g.algebra.dim, Vn.dim))  # (a, v, degree)
            fail = None if fail is None else (n, *fail[:-1])
            results.append(CheckResult(f"operator-connection-leibniz-deg{n}", fail is None, witness=fail))
        return results

    def check_right_module_map(self) -> list[CheckResult]:
        """nabla(v bullet a) = nabla(v) bullet a: the zero-braiding property."""
        g = self.geometry
        table = self.table
        dA = g.algebra.dim
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            swap = Mat.swap(dA, Vn.dim)  # witnesses run over a before v
            lhs: dict[int, Mat] = {}
            for k in range(n, -1, -1):
                moved = table.table(n, 0, k) @ swap
                for m, mat in self.blocks[k].items():
                    _add(lhs, m, mat @ moved)
            rhs: dict[int, Mat] = {}
            for m, mat in self.blocks[n].items():
                lifted = (g.OV(m).section @ mat).kron(Mat.identity(dA)) @ swap  # -> Kron(Omega1, V(m), A)
                for k in range(m, -1, -1):
                    _add(rhs, k, g.OV(k).project @ Mat.identity(g.omega.dim).kron(table.table(m, 0, k)) @ lifted)
            fail = _at((n,), first_mismatch(lhs, rhs, (dA, Vn.dim)))
            results.append(CheckResult(f"operator-connection-right-deg{n}", fail is None, witness=fail))
        return results

    def check_crossing_is_morphism(self, cm: CrossingMap) -> list[CheckResult]:
        """(id (x) theta) nabla_{T (x) E} = nabla_{E (x) T} theta, degree by degree."""
        g, em = self.geometry, cm.module
        E, dO = em.space, g.omega.dim
        nabla = em.OE.section @ em.nabla  # E -> Kron(Omega1, E)
        crossed = em.OE.section @ em.sigma @ em.EO.project  # Kron(E, Omega1) -> Kron(Omega1, E)

        def target(m):  # Omega1 (x)_A (E (x)_A V(m))
            return g.pair(g.omega, cm.EV[m].space).project

        results = []
        for n in range(0, cm.max_degree):  # the left side raises degree by one
            Vn = g.V(n)
            # nabla_{T (x) E}(v (x) e) = xi (x) (u bullet v) (x) e, then id (x) theta
            lhs: dict[int, Mat] = {}
            for k, up in self._coev_bullet(n).items():
                for m, th in cm.theta[k].items():
                    _add(lhs, m, target(m) @ Mat.identity(dO).kron(th) @ up.kron(Mat.identity(E.dim)))
            # nabla_E(f) (x) w + sigma_E(f (x) xi) (x) (u bullet w) on theta(v (x) e) = f (x) w
            rhs: dict[int, Mat] = {}
            for m, th in cm.theta[n].items():
                lifted = cm.EV[m].section @ th  # -> Kron(E, V(m))
                push = target(m) @ Mat.identity(dO).kron(cm.EV[m].project)
                _add(rhs, m, push @ nabla.kron(Mat.identity(g.V(m).dim)) @ lifted)
                for k, up in self._coev_bullet(m).items():
                    push = target(k) @ Mat.identity(dO).kron(cm.EV[k].project)
                    _add(rhs, k, push @ crossed.kron(Mat.identity(g.V(k).dim)) @ Mat.identity(E.dim).kron(up) @ lifted)
            fail = _at((n,), first_mismatch(lhs, rhs, (Vn.dim, E.dim)))
            results.append(CheckResult(f"operator-connection-morphism-deg{n}", fail is None, witness=fail))
        return results

    def check_product_is_morphism(self) -> list[CheckResult]:
        """(id (x) bullet) nabla_{T (x) T} = nabla o bullet (associativity in disguise)."""
        g = self.geometry
        table = self.table
        results = []
        D = self.max_degree
        for p in range(0, D):
            for q in range(0, D - p):
                Vp, Vq = g.V(p), g.V(q)
                lhs: dict[int, Mat] = {}
                for k in range(0, p + q + 1):
                    for m, mat in self.blocks[k].items():
                        _add(lhs, m, mat @ table.table(p, q, k))
                rhs: dict[int, Mat] = {}
                for k, up in self._coev_bullet(p).items():
                    lifted = up.kron(Mat.identity(Vq.dim))  # -> Kron(Omega1, V(k), V(q))
                    for k2 in range(0, k + q + 1):
                        _add(rhs, k2, g.OV(k2).project @ Mat.identity(g.omega.dim).kron(table.table(k, q, k2)) @ lifted)
                fail = _at((p, q), first_mismatch(lhs, rhs, (Vp.dim, Vq.dim)))
                results.append(CheckResult(f"operator-product-morphism-{p}-{q}", fail is None, witness=fail))
        return results


class OperatorAlgebraCandidate:
    """The truncated operator algebra as a centre candidate for the category of
    bimodules with invertible-braiding connections over one bundle.
    """

    def __init__(self, table: BulletTable, modules: dict[str, ConnectionModule], max_degree: int):
        self.table = table
        self.geometry = table.geometry
        self.max_degree = max_degree
        self.modules = dict(modules)
        self.name = f"operator-algebra-{self.geometry.name}"
        self._crossings: dict[str, CrossingMap] = {}
        self._tensor_mods: dict[tuple[str, str], ConnectionModule] = {}
        self._tensor_crossings: dict[tuple[str, str], CrossingMap] = {}
        self.operator_connection = OperatorConnection(table, max_degree)
        if "A" not in self.modules:
            raise ValueError("the unit object A must be among the test objects")

    def object_names(self) -> list[str]:
        return sorted(self.modules)

    def crossing(self, name: str) -> CrossingMap:
        if name not in self._crossings:
            self._crossings[name] = CrossingMap(self.table, self.modules[name], self.max_degree)
        return self._crossings[name]

    def tensor_module(self, a: str, b: str) -> ConnectionModule:
        key = (a, b)
        if key not in self._tensor_mods:
            self._tensor_mods[key] = tensor_connection(self.modules[a], self.modules[b])
        return self._tensor_mods[key]

    def tensor_crossing(self, a: str, b: str) -> CrossingMap:
        key = (a, b)
        if key not in self._tensor_crossings:
            self._tensor_crossings[key] = CrossingMap(self.table, self.tensor_module(a, b), self.max_degree)
        return self._tensor_crossings[key]

    @staticmethod
    def _merge(name: str, results: list[CheckResult]) -> CheckResult:
        bad = [r for r in results if not r.ok]
        return CheckResult(name, not bad, witness=(bad[0].name, bad[0].witness) if bad else None)

    def check_unit(self) -> CheckResult:
        return self._merge("centre-unit-object", check_theta_on_algebra(self.crossing("A")))

    def check_morphism(self, obj: str) -> CheckResult:
        cm = self.crossing(obj)
        results = []
        results += cm.check_bullet_balance()
        results += cm.check_left_module()
        results += cm.check_right_module()
        results += cm.check_filtration()
        results += self.operator_connection.check_crossing_is_morphism(cm)
        return self._merge(f"centre-morphism-{obj}", results)

    def check_tensor_compat(self, a: str, b: str) -> CheckResult:
        results = theta_tensor_factorization(self.crossing(a), self.crossing(b), self.tensor_crossing(a, b))
        return self._merge(f"centre-tensor-compat-{a}-{b}", results)

    def check_inverse(self, obj: str) -> CheckResult:
        return self._merge(f"centre-inverse-{obj}", self.crossing(obj).check_inverse())

    def check_product_morphism(self) -> CheckResult:
        oc = self.operator_connection
        results = oc.check_left_leibniz() + oc.check_right_module_map() + oc.check_product_is_morphism()
        return self._merge("centre-product-morphism", results)

    def check_algebra_in_centre(self, obj: str) -> CheckResult:
        return self._merge(f"centre-algebra-{obj}", theta_product_compat(self.crossing(obj)))

    def check_naturality(self) -> list[CheckResult]:
        g = self.geometry
        cm = self.crossing("A")
        t = g.algebra.left_mult_matrix([x + x for x in g.algebra.unit])
        results = cm.check_naturality(cm, t)
        results += cm.check_naturality(cm, Mat.identity(g.algebra.dim))
        return [self._merge("centre-naturality", results)]

    def extra_checks(self) -> list[CheckResult]:
        return []
