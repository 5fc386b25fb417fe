"""The crossing map placing the operator algebra in the centre of the
bimodule-connection category.

``CrossingMap`` stores, per input degree n, the blocks
``theta[n][m] : Kron(V(n), E) -> E (x)_A V(m)`` for m <= n.  The recursion
runs once at build time; every subsequent axiom check is an exact matrix
identity.  The domain is plain (the map is only balanced for the
product-twisted right action, which is what property checks 2 and 4 verify).
"""

from __future__ import annotations

from typing import Optional

from .algebra import unit_row
from .bimodule import TensorPair
from .calculus import ConnectionModule, tensor_connection
from .diffop import BulletTable
from .linalg import Mat, SparseEchelon, inverse, kron_vec, vec_is_zero
from .report import CheckResult, ValidationError
from .scalars import ONE, ZERO, Scalar


class SigmaNotInvertible(ValidationError):
    pass


def _entries(vec):
    return [(i, c) for i, c in enumerate(vec) if c is not ZERO and c]


def sigma_hat(table: BulletTable, module: ConnectionModule) -> Mat:
    """The braiding of vector fields over E derived from sigma_E:
    (ev (x) id (x) id)(id (x) sigma_E (x) id)(id (x) id (x) coev(1)),
    as a matrix Kron(Vec, E) -> E (x)_A Vec.
    """
    g = table.geometry
    E, ev = module.space, g.fgp.apply_mat
    EV1 = g.pair(E, g.vec)
    cols = [None] * (g.vec.dim * E.dim)
    coev = _entries(g.fgp.coev_one_plain)
    for j in range(E.dim):
        # sigma_E(e_j (x) xi_p) lifted to Kron(Omega, E), per coev(1) term xi_p (x) w_q
        crossed = []
        for idx, c in coev:
            p, q = divmod(idx, g.vec.dim)
            sig = module.sigma.apply(module.EO.project.column(j * g.omega.dim + p))
            crossed.append((c, q, module.OE.lift(sig)))
        for b in range(g.vec.dim):
            col = [ZERO] * EV1.dim
            for c, q, lifted in crossed:
                term = EV1.push(kron_vec(E.ev_left(ev, b, lifted), unit_row(g.vec.dim, q)))
                for k, y in _entries(term):
                    col[k] = col[k] + c * y
            cols[b * E.dim + j] = col
    return Mat.from_cols(cols, EV1.dim)


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

    def _embed_into_EV0(self) -> Mat:
        g, E = self.geometry, self.module.space
        EV0 = self.EV[0]
        cols = [EV0.push(kron_vec(unit_row(E.dim, j), g.algebra.unit)) for j in range(E.dim)]
        return Mat.from_cols(cols, EV0.dim)

    def _build_blocks(self, validate: bool):
        g, E = self.geometry, self.module.space
        act1 = self.module.act_table(1)
        # degree 0: a (x) e -> [a.e (x) 1]
        EV0 = self.EV[0]
        cols = []
        for i in range(g.algebra.dim):
            for j in range(E.dim):
                cols.append(EV0.push(kron_vec(E.left[i].column(j), g.algebra.unit)))
        self.theta[0] = {0: Mat.from_cols(cols, EV0.dim)}
        if self.max_degree == 0:
            return
        embed0 = self._embed_into_EV0()
        self.theta[1] = {0: embed0 @ act1, 1: self.sigma_hat}
        self.braid_blocks[1] = self.sigma_hat

        for n in range(1, self.max_degree):
            pv = g.pair_V(n + 1)
            Vn = g.V(n)
            dvec, dE = g.vec.dim, E.dim
            blocks_plain: dict[int, Mat] = {}

            def add(m, mat):
                if m in blocks_plain:
                    blocks_plain[m] = blocks_plain[m] + mat
                else:
                    blocks_plain[m] = mat

            for m, th in self.theta[n].items():
                EVm = self.EV[m]
                lifted = Mat.identity(dvec).kron(EVm.section @ th)  # Kron(vec, Vn, E) -> Kron(vec, E, Vm)
                # term 1: act on the crossing result
                t1 = self.EV[m].project @ act1.kron(Mat.identity(g.V(m).dim)) @ lifted
                add(m, t1)
                # terms 2 and 3 share the sigma-hat crossing
                crossed = (
                    self.EV[1].section.kron(Mat.identity(g.V(m).dim))
                    @ self.sigma_hat.kron(Mat.identity(g.V(m).dim))
                    @ lifted
                )  # -> Kron(E, vec, Vm)
                t2 = (
                    self.EV[m + 1].project
                    @ Mat.identity(dE).kron(g.merge_vec(1, m))
                    @ crossed
                )
                add(m + 1, t2)
                t3 = (
                    self.EV[m].project
                    @ Mat.identity(dE).kron(self.table.table(1, m, m))
                    @ crossed
                )
                add(m, t3)
            # term 4: -theta_n((w bullet_n v) (x) e)
            down = self.table.table(1, n, n).kron(Mat.identity(dE))
            for m, th in self.theta[n].items():
                add(m, Mat.zeros(self.EV[m].dim, down.cols) - th @ down)

            # well-definedness over Vec (x)_A V(n) (property 1)
            if validate:
                for rel in pv.relations.basis:
                    for j in range(dE):
                        probe = kron_vec(rel, unit_row(dE, j))
                        for m, mat in blocks_plain.items():
                            if not vec_is_zero(mat.apply(probe)):
                                raise ValidationError(
                                    "theta-not-well-defined", witness=(self.module.name, n + 1, m)
                                )
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

    # -- elementwise application --------------------------------------------------

    def apply(self, n: int, v_coords, e_coords) -> dict[int, list[Scalar]]:
        """theta on a degree-n tensor; returns quotient coordinates per degree."""
        x = kron_vec(v_coords, e_coords)
        return {m: mat.apply(x) for m, mat in self.theta[n].items()}

    # -- property checks (the numbered list of the construction) -------------------

    def check_bullet_balance(self) -> list[CheckResult]:
        """Property 2: theta(v bullet a (x) e) = theta(v (x) a.e)."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for b in range(Vn.dim):
                v = unit_row(Vn.dim, b)
                for i in range(g.algebra.dim):
                    a = unit_row(g.algebra.dim, i)
                    for j in range(E.dim):
                        e = unit_row(E.dim, j)
                        rhs = self.apply(n, v, E.left_apply(a, e))
                        lhs: dict[int, list[Scalar]] = {}
                        for k in range(n, -1, -1):
                            vk = self.table.table(n, 0, k).apply(kron_vec(v, a))
                            if vec_is_zero(vk):
                                continue
                            for m, coords in self.apply(k, vk, e).items():
                                if m in lhs:
                                    lhs[m] = [x + y for x, y in zip(lhs[m], coords)]
                                else:
                                    lhs[m] = coords
                        for m in range(0, n + 1):
                            l = lhs.get(m, [ZERO] * self.EV[m].dim)
                            r = rhs.get(m, [ZERO] * self.EV[m].dim)
                            if l != r:
                                fail = (n, b, i, j, m)
                                break
                        if fail:
                            break
                    if fail:
                        break
                if fail:
                    break
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
        EVm, EVk = self.EV[m], self.EV[k]
        bt = self.table.table(m, 0, k)
        a = unit_row(g.algebra.dim, a_index)
        cols = []
        for idx in range(EVm.dim):
            out = [ZERO] * EVk.dim
            for p, c in _entries(EVm.section.column(idx)):
                i, j = divmod(p, g.V(m).dim)
                moved = bt.apply(kron_vec(unit_row(g.V(m).dim, j), a))
                if vec_is_zero(moved):
                    continue
                term = EVk.push(kron_vec(unit_row(E.dim, i), moved))
                out = [x + c * y for x, y in zip(out, term)]
            cols.append(out)
        return Mat.from_cols(cols, EVk.dim)

    def check_right_module(self) -> list[CheckResult]:
        """Property 4: theta intertwines the product-twisted right actions."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for i in range(g.algebra.dim):
                ract = Mat.identity(Vn.dim).kron(E.right[i])
                lhs: dict[int, Mat] = {m: th @ ract for m, th in self.theta[n].items()}
                rhs: dict[int, Mat] = {}
                for m, th in self.theta[n].items():
                    for k in range(m, -1, -1):
                        mat = self._right_bullet_on_EV(m, k, i) @ th
                        rhs[k] = rhs.get(k, Mat.zeros(mat.rows, mat.cols)) + mat
                for m in range(0, n + 1):
                    l = lhs.get(m, Mat.zeros(self.EV[m].dim, Vn.dim * E.dim))
                    r = rhs.get(m, Mat.zeros(self.EV[m].dim, Vn.dim * E.dim))
                    if l != r:
                        fail = (n, i, m)
                        break
                if fail:
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
            fail = None
            for b in range(Vn.dim):
                v = unit_row(Vn.dim, b)
                for j in range(E.dim):
                    e = unit_row(E.dim, j)
                    for k in range(F.dim):
                        f = unit_row(F.dim, k)
                        lhs = tensor_mod.act(n, v, pair_ef.push(kron_vec(e, f)))
                        rhs = [ZERO] * pair_ef.dim
                        for m, coords in self.apply(n, v, e).items():
                            for p, c in _entries(self.EV[m].lift(coords)):
                                i2, j2 = divmod(p, g.V(m).dim)
                                acted = fm.act(m, unit_row(g.V(m).dim, j2), f)
                                term = pair_ef.push(kron_vec(unit_row(E.dim, i2), acted))
                                rhs = [x + c * y for x, y in zip(rhs, term)]
                        if lhs != rhs:
                            fail = (n, b, j, k)
                            break
                    if fail:
                        break
                if fail:
                    break
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
        E, F = self.module.space, other.module.space
        results = []
        for n in range(0, self.max_degree + 1):
            fail = None
            for m in range(0, n + 1):
                lhs_mat = self.theta[n].get(m)
                rhs_mat = other.theta[n].get(m)
                if lhs_mat is None and rhs_mat is None:
                    continue
                EVm, FVm = self.EV[m], other.EV[m]
                push_t = []
                for idx in range(EVm.dim):
                    out = [ZERO] * FVm.dim
                    for p, c in _entries(EVm.section.column(idx)):
                        i, j = divmod(p, g.V(m).dim)
                        term = FVm.push(kron_vec(t.column(i), unit_row(g.V(m).dim, j)))
                        out = [x + c * y for x, y in zip(out, term)]
                    push_t.append(out)
                tmat = Mat.from_cols(push_t, FVm.dim)
                lhs = tmat @ lhs_mat
                rhs = rhs_mat @ Mat.identity(g.V(n).dim).kron(t)
                if lhs != rhs:
                    fail = (n, m)
                    break
            results.append(CheckResult(f"theta-naturality-deg{n}", fail is None, witness=fail))
        return results

    # -- inverse -------------------------------------------------------------------

    def build_inverse(self) -> dict[int, dict[int, Mat]]:
        """Per-degree inverse maps E (x)_A V(n) -> Kron(V(m), E), by the recursion."""
        if self.inverse_blocks is not None:
            return self.inverse_blocks
        g, E = self.geometry, self.module.space
        act1 = self.module.act_table(1)
        inv: dict[int, dict[int, Mat]] = {}

        EV0 = self.EV[0]
        cols = []
        for idx in range(EV0.dim):
            out = [ZERO] * (g.algebra.dim * E.dim)
            for p, c in _entries(EV0.section.column(idx)):
                j, i = divmod(p, g.algebra.dim)
                moved = E.right[i].column(j)
                contrib = kron_vec(g.algebra.unit, moved)
                out = [x + c * y for x, y in zip(out, contrib)]
            cols.append(out)
        inv[0] = {0: Mat.from_cols(cols, g.algebra.dim * E.dim)}

        if self.max_degree >= 1:
            lift_ve = self.VE.section @ self.sigma_hat_inv
            block1 = lift_ve
            acted = act1 @ lift_ve
            block0 = Mat.from_cols(
                [[-x for x in kron_vec(g.algebra.unit, acted.column(col))] for col in range(self.EV[1].dim)],
                g.algebra.dim * E.dim,
            )
            inv[1] = {1: block1, 0: block0}

        for n in range(1, self.max_degree):
            EVn1 = self.EV[n + 1]
            entries: dict[int, list] = {m: [] for m in range(n + 2)}
            pv = g.pair_V(n + 1)
            for idx in range(EVn1.dim):
                lifted = EVn1.section.column(idx)
                acc: dict[int, list[Scalar]] = {}

                def add(m, coords):
                    if m in acc:
                        acc[m] = [x + y for x, y in zip(acc[m], coords)]
                    else:
                        acc[m] = coords

                for p, c in _entries(lifted):
                    j, big = divmod(p, g.V(n + 1).dim)
                    f = unit_row(E.dim, j)
                    for q, c2 in _entries(pv.section.column(big)):
                        u_i, v_i = divmod(q, g.V(n).dim)
                        u = unit_row(g.vec.dim, u_i)
                        v = unit_row(g.V(n).dim, v_i)
                        cc = c * c2
                        # theta_inv(f (x) (u (x) v)) = theta_inv(f (x) u bullet v)
                        #                            - theta_inv(f (x) (u bullet_n v))
                        crossed = self.VE.lift(self.sigma_hat_inv.apply(self.EV[1].push(kron_vec(f, u))))
                        for r, c3 in _entries(crossed):
                            up_i, fp_i = divmod(r, E.dim)
                            up = unit_row(g.vec.dim, up_i)
                            fp = unit_row(E.dim, fp_i)
                            c4 = cc * c3
                            # term A: up bullet theta_inv(fp (x) v)
                            innerA = self._apply_inverse_prev(inv, n, fp, v)
                            for m, coords in innerA.items():
                                for s, c5 in _entries(coords):
                                    y_i, e_i = divmod(s, E.dim)
                                    y = unit_row(g.V(m).dim, y_i)
                                    ee = unit_row(E.dim, e_i)
                                    top = g.merge_vec(1, m).apply(kron_vec(up, y))
                                    add(m + 1, [c4 * c5 * x for x in kron_vec(top, ee)])
                                    low = self.table.table(1, m, m).apply(kron_vec(up, y))
                                    if not vec_is_zero(low):
                                        add(m, [c4 * c5 * x for x in kron_vec(low, ee)])
                            # term B: - theta_inv((up |> fp) (x) v)
                            acted2 = act1.apply(kron_vec(up, fp))
                            innerB = self._apply_inverse_prev(inv, n, acted2, v)
                            for m, coords in innerB.items():
                                add(m, [-c4 * x for x in coords])
                        # lower correction: - theta_inv(f (x) (u bullet_n v))
                        low_v = self.table.table(1, n, n).apply(kron_vec(u, v))
                        if not vec_is_zero(low_v):
                            innerC = self._apply_inverse_prev(inv, n, f, low_v)
                            for m, coords in innerC.items():
                                add(m, [-cc * x for x in coords])
                for m, coords in acc.items():
                    entries[m].extend((r, idx, v) for r, v in _entries(coords))
            target = {m: Mat.from_entries(g.V(m).dim * E.dim, EVn1.dim, ents) for m, ents in entries.items()}
            inv[n + 1] = {m: mat for m, mat in target.items() if not mat.is_zero() or m <= n + 1}
        self.inverse_blocks = inv
        return inv

    def _apply_inverse_prev(self, inv, n_max: int, e_coords, v_coords) -> dict[int, list[Scalar]]:
        """Apply already-built inverse blocks to the class of e (x) v, deg(v) <= n_max."""
        n = n_max
        EVn = self.EV[n]
        cls = EVn.push(kron_vec(e_coords, v_coords))
        return {m: mat.apply(cls) for m, mat in inv[n].items()}

    def check_inverse(self) -> list[CheckResult]:
        """theta o theta_inv = id exactly; theta_inv o theta = id modulo the
        product-twisted relations of the filtered tensor product."""
        g, E = self.geometry, self.module.space
        inv = self.build_inverse()
        results = []
        for n in range(0, self.max_degree + 1):
            # composite theta(theta_inv(.)) per degree block
            total: dict[int, Mat] = {}
            for m, invmat in inv[n].items():
                for mm, th in self.theta[m].items():
                    prod = th @ invmat
                    total[mm] = total.get(mm, Mat.zeros(prod.rows, prod.cols)) + prod
            ok = True
            for mm, mat in total.items():
                expected = Mat.identity(self.EV[n].dim) if mm == n else Mat.zeros(mat.rows, mat.cols)
                if mat != expected:
                    ok = False
            results.append(CheckResult(f"theta-right-inverse-deg{n}", ok, witness=None if ok else n))

        # theta_inv o theta = id in the quotient by (x bullet a (x) e - x (x) a.e)
        offsets = {}
        total_dim = 0
        for m in range(0, self.max_degree + 1):
            offsets[m] = total_dim
            total_dim += g.V(m).dim * E.dim
        rel_span = SparseEchelon(total_dim)
        for m in range(0, self.max_degree + 1):
            Vm = g.V(m)
            for b in range(Vm.dim):
                v = unit_row(Vm.dim, b)
                for i in range(g.algebra.dim):
                    a = unit_row(g.algebra.dim, i)
                    for j in range(E.dim):
                        e = unit_row(E.dim, j)
                        row: dict[int, Scalar] = {}
                        top = kron_vec(Vm.right[i].column(b), e)
                        for r, val in _entries(top):
                            row[offsets[m] + r] = row.get(offsets[m] + r, ZERO) + val
                        ae = kron_vec(v, E.left_apply(a, e))
                        for r, val in _entries(ae):
                            key = offsets[m] + r
                            row[key] = row.get(key, ZERO) - val
                        for k in range(m):
                            low = self.table.table(m, 0, k).apply(kron_vec(v, a))
                            for r, val in _entries(kron_vec(low, e)):
                                key = offsets[k] + r
                                row[key] = row.get(key, ZERO) + val
                        rel_span.add_sparse({k2: v2 for k2, v2 in row.items() if v2})
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for b in range(Vn.dim):
                for j in range(E.dim):
                    v, e = unit_row(Vn.dim, b), unit_row(E.dim, j)
                    outs = self.apply(n, v, e)
                    acc = [ZERO] * total_dim
                    for m, coords in outs.items():
                        for mm, mat in inv[m].items():
                            part = mat.apply(coords)
                            for r, val in _entries(part):
                                acc[offsets[mm] + r] = acc[offsets[mm] + r] + val
                    expect_idx = offsets[n] + (b * E.dim + j)
                    acc[expect_idx] = acc[expect_idx] - ONE
                    if not rel_span.contains_dense(acc):
                        fail = (n, b, j)
                        break
                if fail:
                    break
            results.append(CheckResult(f"theta-left-inverse-deg{n}", fail is None, witness=fail))
        return results


# -- theta on the unit object and compatibility with the product -------------------


def check_theta_on_algebra(cm: CrossingMap) -> list[CheckResult]:
    """On E = A the crossing is the bullet product (unit-object axiom)."""
    g = cm.geometry
    if cm.module.space is not g.A_bim:
        raise ValueError("check_theta_on_algebra expects the crossing on A")
    results = []
    AV = cm.EV
    for n in range(0, cm.max_degree + 1):
        fail = None
        for k in range(0, n + 1):
            bt = cm.table.table(n, 0, k)
            embed = []
            for c in range(g.V(k).dim):
                embed.append(AV[k].push(kron_vec(g.algebra.unit, unit_row(g.V(k).dim, c))))
            emb = Mat.from_cols(embed, AV[k].dim)
            expected = emb @ bt
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
            fail = None
            for bu in range(Vp.dim):
                u = unit_row(Vp.dim, bu)
                for bv in range(Vq.dim):
                    v = unit_row(Vq.dim, bv)
                    for j in range(E.dim):
                        e = unit_row(E.dim, j)
                        lhs: dict[int, list[Scalar]] = {}
                        for k in range(0, p + q + 1):
                            uv = table.table(p, q, k).apply(kron_vec(u, v))
                            if vec_is_zero(uv):
                                continue
                            for m, coords in cm.apply(k, uv, e).items():
                                lhs[m] = (
                                    [x + y for x, y in zip(lhs[m], coords)] if m in lhs else coords
                                )
                        rhs: dict[int, list[Scalar]] = {}
                        for m, coords in cm.apply(q, v, e).items():
                            for r, c in _entries(cm.EV[m].lift(coords)):
                                f_i, w_i = divmod(r, g.V(m).dim)
                                f = unit_row(E.dim, f_i)
                                w = unit_row(g.V(m).dim, w_i)
                                for mp, coords2 in cm.apply(p, u, f).items():
                                    for r2, c2 in _entries(cm.EV[mp].lift(coords2)):
                                        f2_i, x_i = divmod(r2, g.V(mp).dim)
                                        f2 = unit_row(E.dim, f2_i)
                                        x = unit_row(g.V(mp).dim, x_i)
                                        for k in range(0, mp + m + 1):
                                            moved = table.table(mp, m, k).apply(kron_vec(x, w))
                                            if vec_is_zero(moved):
                                                continue
                                            term = cm.EV[k].push(kron_vec(f2, moved))
                                            term = [c * c2 * t for t in term]
                                            rhs[k] = (
                                                [xx + y for xx, y in zip(rhs[k], term)]
                                                if k in rhs
                                                else term
                                            )
                        degs = set(lhs) | set(rhs)
                        for m in sorted(degs):
                            l = lhs.get(m, [ZERO] * cm.EV[m].dim)
                            r = rhs.get(m, [ZERO] * cm.EV[m].dim)
                            if l != r:
                                fail = (p, q, bu, bv, j, m)
                                break
                        if fail:
                            break
                    if fail:
                        break
                if fail:
                    break
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
        fail = None
        for b in range(Vn.dim):
            v = unit_row(Vn.dim, b)
            for j in range(E.dim):
                e = unit_row(E.dim, j)
                for k in range(F.dim):
                    f = unit_row(F.dim, k)
                    ef = pair_ef.push(kron_vec(e, f))
                    lhs = cm_ef.apply(n, v, ef)
                    rhs: dict[int, list[Scalar]] = {}
                    for m, coords in cm_e.apply(n, v, e).items():
                        for r, c in _entries(cm_e.EV[m].lift(coords)):
                            e_i, w_i = divmod(r, g.V(m).dim)
                            for mp, coords2 in cm_f.apply(m, unit_row(g.V(m).dim, w_i), f).items():
                                for r2, c2 in _entries(cm_f.EV[mp].lift(coords2)):
                                    f_i, x_i = divmod(r2, g.V(mp).dim)
                                    contrib = cm_ef.EV[mp].push(
                                        kron_vec(pair_ef.project.column(e_i * F.dim + f_i), unit_row(g.V(mp).dim, x_i))
                                    )
                                    contrib = [c * c2 * t for t in contrib]
                                    rhs[mp] = (
                                        [x + y for x, y in zip(rhs[mp], contrib)]
                                        if mp in rhs
                                        else contrib
                                    )
                    degs = set(lhs) | set(rhs)
                    for m in sorted(degs):
                        l = lhs.get(m, [ZERO] * cm_ef.EV[m].dim)
                        r_ = rhs.get(m, [ZERO] * cm_ef.EV[m].dim)
                        if l != r_:
                            fail = (n, b, j, k, m)
                            break
                    if fail:
                        break
                if fail:
                    break
            if fail:
                break
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
        self.blocks: dict[int, dict[int, Mat]] = {}
        coev = g.fgp.coev_one_plain
        for n in range(0, max_degree + 1):
            Vn = g.V(n)
            # the degree-raising block is kept even at the truncation top so the
            # right-module identity can be compared without losing terms
            up, same = [], []
            for b in range(Vn.dim):
                v = unit_row(Vn.dim, b)
                for idx, c in _entries(coev):
                    p, q = divmod(idx, g.vec.dim)
                    xi = unit_row(g.omega.dim, p)
                    u = unit_row(g.vec.dim, q)
                    top = g.merge_vec(1, n).apply(kron_vec(u, v))
                    term = g.OV(n + 1).push(kron_vec(xi, top))
                    up.extend((r, b, c * val) for r, val in _entries(term))
                    low = table.table(1, n, n).apply(kron_vec(u, v))
                    if not vec_is_zero(low):
                        term = g.OV(n).push(kron_vec(xi, low))
                        same.extend((r, b, c * val) for r, val in _entries(term))
            self.blocks[n] = {
                n: Mat.from_entries(g.OV(n).dim, Vn.dim, same),
                n + 1: Mat.from_entries(g.OV(n + 1).dim, Vn.dim, up),
            }

    def check_left_leibniz(self) -> list[CheckResult]:
        g = self.geometry
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for i in range(g.algebra.dim):
                ai = unit_row(g.algebra.dim, i)
                da = g.d.column(i)
                for b in range(Vn.dim):
                    v = unit_row(Vn.dim, b)
                    lhs = {m: mat.apply(Vn.left[i].column(b)) for m, mat in self.blocks[n].items()}
                    rhs = {
                        m: g.OV(m).space.left_apply(ai, mat.apply(v)) for m, mat in self.blocks[n].items()
                    }
                    extra = g.OV(n).push(kron_vec(da, v))
                    rhs[n] = [x + y for x, y in zip(rhs[n], extra)]
                    if any(lhs[m] != rhs[m] for m in lhs):
                        fail = (n, i, b)
                        break
                if fail:
                    break
            results.append(CheckResult(f"operator-connection-leibniz-deg{n}", fail is None, witness=fail))
        return results

    def check_right_module_map(self) -> list[CheckResult]:
        """nabla(v bullet a) = nabla(v) bullet a: the zero-braiding property."""
        g = self.geometry
        table = self.table
        results = []
        for n in range(0, self.max_degree + 1):
            Vn = g.V(n)
            fail = None
            for i in range(g.algebra.dim):
                a = unit_row(g.algebra.dim, i)
                for b in range(Vn.dim):
                    v = unit_row(Vn.dim, b)
                    lhs: dict[int, list[Scalar]] = {}
                    for k in range(n, -1, -1):
                        vk = table.table(n, 0, k).apply(kron_vec(v, a))
                        if vec_is_zero(vk):
                            continue
                        for m, mat in self.blocks[k].items():
                            part = mat.apply(vk)
                            lhs[m] = [x + y for x, y in zip(lhs[m], part)] if m in lhs else part
                    rhs: dict[int, list[Scalar]] = {}
                    for m, mat in self.blocks[n].items():
                        for r, c in _entries(g.OV(m).lift(mat.apply(v))):
                            xi_i, w_i = divmod(r, g.V(m).dim)
                            xi = unit_row(g.omega.dim, xi_i)
                            w = unit_row(g.V(m).dim, w_i)
                            for k in range(m, -1, -1):
                                moved = table.table(m, 0, k).apply(kron_vec(w, a))
                                if vec_is_zero(moved):
                                    continue
                                term = g.OV(k).push(kron_vec(xi, moved))
                                term = [c * t for t in term]
                                rhs[k] = [x + y for x, y in zip(rhs[k], term)] if k in rhs else term
                    degs = set(lhs) | set(rhs)
                    for m in sorted(degs):
                        dim = g.OV(m).dim
                        l = lhs.get(m, [ZERO] * dim)
                        r_ = rhs.get(m, [ZERO] * dim)
                        if l != r_:
                            fail = (n, i, b, m)
                            break
                    if fail:
                        break
                if fail:
                    break
            results.append(CheckResult(f"operator-connection-right-deg{n}", fail is None, witness=fail))
        return results

    def check_crossing_is_morphism(self, cm: CrossingMap) -> list[CheckResult]:
        """(id (x) theta) nabla_{T (x) E} = nabla_{E (x) T} theta, degree by degree."""
        g = self.geometry
        E = cm.module.space
        em = cm.module
        table = self.table
        coev = g.fgp.coev_one_plain
        results = []
        max_in = cm.max_degree - 1  # the left side raises degree by one
        for n in range(0, max_in + 1):
            Vn = g.V(n)
            fail = None
            for b in range(Vn.dim):
                v = unit_row(Vn.dim, b)
                for j in range(E.dim):
                    e = unit_row(E.dim, j)
                    lhs: dict[int, dict] = {}
                    # nabla_{T (x) E}(v (x) e) = xi (x) (u bullet v) (x) e, then id (x) theta
                    for idx, c in _entries(coev):
                        p, q = divmod(idx, g.vec.dim)
                        xi = unit_row(g.omega.dim, p)
                        u = unit_row(g.vec.dim, q)
                        pieces = {n + 1: g.merge_vec(1, n).apply(kron_vec(u, v))}
                        low = table.table(1, n, n).apply(kron_vec(u, v))
                        if not vec_is_zero(low):
                            pieces[n] = low
                        for k, coords in pieces.items():
                            for m, out in cm.apply(k, coords, e).items():
                                tgt = g.pair(g.omega, cm.EV[m].space)
                                term = tgt.push(kron_vec(xi, out))
                                term = [c * t for t in term]
                                lhs[m] = (
                                    [x + y for x, y in zip(lhs[m], term)] if m in lhs else term
                                )
                    rhs: dict[int, dict] = {}
                    for m, coords in cm.apply(n, v, e).items():
                        tgt = g.pair(g.omega, cm.EV[m].space)
                        for r, c in _entries(cm.EV[m].lift(coords)):
                            f_i, w_i = divmod(r, g.V(m).dim)
                            f = unit_row(E.dim, f_i)
                            w = unit_row(g.V(m).dim, w_i)
                            # nabla_E(f) (x) w
                            for r2, c2 in _entries(em.OE.lift(em.nabla.apply(f))):
                                om_i, e2_i = divmod(r2, E.dim)
                                inner = cm.EV[m].push(
                                    kron_vec(unit_row(E.dim, e2_i), w)
                                )
                                term = tgt.push(kron_vec(unit_row(g.omega.dim, om_i), inner))
                                term = [c * c2 * t for t in term]
                                rhs[m] = (
                                    [x + y for x, y in zip(rhs[m], term)] if m in rhs else term
                                )
                            # sigma_E(f (x) xi) (x) (u bullet w)
                            for idx, c0 in _entries(coev):
                                p, q = divmod(idx, g.vec.dim)
                                crossed = em.sigma.apply(
                                    em.EO.push(kron_vec(f, unit_row(g.omega.dim, p)))
                                )
                                for r2, c2 in _entries(em.OE.lift(crossed)):
                                    om_i, e2_i = divmod(r2, E.dim)
                                    pieces = {
                                        m + 1: g.merge_vec(1, m).apply(
                                            kron_vec(unit_row(g.vec.dim, q), w)
                                        )
                                    }
                                    low = table.table(1, m, m).apply(
                                        kron_vec(unit_row(g.vec.dim, q), w)
                                    )
                                    if not vec_is_zero(low):
                                        pieces[m] = low
                                    for k, moved in pieces.items():
                                        tgt2 = g.pair(g.omega, cm.EV[k].space)
                                        inner = cm.EV[k].push(
                                            kron_vec(unit_row(E.dim, e2_i), moved)
                                        )
                                        term = tgt2.push(
                                            kron_vec(unit_row(g.omega.dim, om_i), inner)
                                        )
                                        term = [c * c0 * c2 * t for t in term]
                                        rhs[k] = (
                                            [x + y for x, y in zip(rhs[k], term)]
                                            if k in rhs
                                            else term
                                        )
                    degs = set(lhs) | set(rhs)
                    for m in sorted(degs):
                        dim = self.geometry.pair(g.omega, cm.EV[m].space).dim
                        l = lhs.get(m, [ZERO] * dim)
                        r_ = rhs.get(m, [ZERO] * dim)
                        if l != r_:
                            fail = (n, b, j, m)
                            break
                    if fail:
                        break
                if fail:
                    break
            results.append(CheckResult(f"operator-connection-morphism-deg{n}", fail is None, witness=fail))
        return results

    def check_product_is_morphism(self) -> list[CheckResult]:
        """(id (x) bullet) nabla_{T (x) T} = nabla o bullet (associativity in disguise)."""
        g = self.geometry
        table = self.table
        results = []
        D = self.max_degree
        coev = g.fgp.coev_one_plain
        for p in range(0, D):
            for q in range(0, D - p):
                Vp, Vq = g.V(p), g.V(q)
                fail = None
                for bx in range(Vp.dim):
                    x = unit_row(Vp.dim, bx)
                    for by in range(Vq.dim):
                        y = unit_row(Vq.dim, by)
                        lhs: dict[int, list[Scalar]] = {}
                        for k in range(0, p + q + 1):
                            xy = table.table(p, q, k).apply(kron_vec(x, y))
                            if vec_is_zero(xy):
                                continue
                            for m, mat in self.blocks[k].items():
                                part = mat.apply(xy)
                                lhs[m] = (
                                    [a + b2 for a, b2 in zip(lhs[m], part)] if m in lhs else part
                                )
                        rhs: dict[int, list[Scalar]] = {}
                        for idx, c in _entries(coev):
                            pp, qq = divmod(idx, g.vec.dim)
                            xi = unit_row(g.omega.dim, pp)
                            u = unit_row(g.vec.dim, qq)
                            pieces = {p + 1: g.merge_vec(1, p).apply(kron_vec(u, x))}
                            low = table.table(1, p, p).apply(kron_vec(u, x))
                            if not vec_is_zero(low):
                                pieces[p] = low
                            for k, ux in pieces.items():
                                for k2 in range(0, k + q + 1):
                                    moved = table.table(k, q, k2).apply(kron_vec(ux, y))
                                    if vec_is_zero(moved):
                                        continue
                                    term = g.OV(k2).push(kron_vec(xi, moved))
                                    term = [c * t for t in term]
                                    rhs[k2] = (
                                        [a + b2 for a, b2 in zip(rhs[k2], term)]
                                        if k2 in rhs
                                        else term
                                    )
                        degs = set(lhs) | set(rhs)
                        for m in sorted(degs):
                            dim = g.OV(m).dim
                            l = lhs.get(m, [ZERO] * dim)
                            r_ = rhs.get(m, [ZERO] * dim)
                            if l != r_:
                                fail = (p, q, bx, by, m)
                                break
                        if fail:
                            break
                    if fail:
                        break
                results.append(
                    CheckResult(f"operator-product-morphism-{p}-{q}", fail is None, witness=fail)
                )
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
