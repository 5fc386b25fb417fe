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
* one crossing per module content: what a crossing reads of its module,
  |E|, L_E, R_E, nabla and sigma, but not the name.  A is the unit object, so
  A (x)_A E and E (x)_A A are E again, and on the built-ins most of them have
  E's content exactly; such a module gets the built crossing ``over`` itself
  (``CrossingMap.over``), its own module and name with the blocks and
  witnesses of the crossing it copies, whichever of the two builds them.  The
  tensor connection is still built for every pair, as its content is the key;
* with them, the witness of each identity per degree checked so far (None, a
  tuple or a bool), memoised on the crossing or connection whose blocks it
  reads and keyed by whatever else it reads, so the theta suite, the centre
  candidate and later runs check each degree once.  Not kept: the filtration,
  one comparison of built blocks; the left inverse, whose quotient depends on
  the degree asked; and naturality, whose morphism each call brings;
* per run, ``OperatorAlgebraCandidate`` holds those crossings and the degree
  its centre checks go up to, nothing else.

theta, its inverse and the operator connection are ``linalg.Graded`` maps.
Every axiom check is one graded identity per degree on a Kronecker domain
such as ``Kron(V(n), E, F)``; for example, for each (p, q),
theta(bullet (x) id) = (id (x) bullet)(theta (x) id)(id (x) theta).  The left
inverse holds modulo a relation span, checked on the blocks stacked into one
matrix.  ``Graded.first_mismatch`` gives each witness: the basis indices of the
first domain column that differs, then its degree (the module-map checks keep
only the leading index, the unit-object and naturality checks only the degree).
The right-module checks hold on Kron(V(n), E, A) and Kron(V(n), A), their own
domains; their witnesses read the legs with a first.
"""

from __future__ import annotations

import functools
from typing import Optional

from .bimodule import TensorPair, balance
from .calculus import ConnectionModule, tensor_connection
from .diffop import BulletTable
from .linalg import Graded, Mat, contract, first_mismatch, ikron_mul, inverse, quotient, span
from .memo import memo, shared_copy
from .report import CheckResult, ValidationError


class SigmaNotInvertible(ValidationError):
    pass


def _result(name: str, prefix: tuple, fail: Optional[tuple]) -> CheckResult:
    """A check's result; its witness is the check's fixed indices followed by the mismatch."""
    return CheckResult(name, fail is None, witness=None if fail is None else (*prefix, *fail))


def _by_degree(name: str, fail, degree: int) -> list[CheckResult]:
    """The results ``{name}-deg{n}`` for n <= degree, from the witnesses ``fail(n)``."""
    return [_result(f"{name}-deg{n}", (n,), fail(n)) for n in range(degree + 1)]


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
        induced = self.VE.induce(self.sigma_hat, "sigma-hat", module.name)
        try:
            self.sigma_hat_inv = inverse(induced)
        except ValueError:
            raise SigmaNotInvertible("sigma-hat-invertible", witness=module.name) from None

    def over(self, module: ConnectionModule) -> "CrossingMap":
        """This crossing for a module of the same content (``Crossings``): the blocks and
        witnesses are shared, whichever of the two builds them first, and the module, so
        the name a failed build raises under, is ``module``."""
        return shared_copy(self, module=module)

    def EV(self, m: int) -> TensorPair:
        return self.geometry.pair(self.module.space, self.geometry.V(m))

    def lift(self, blocks: Graded) -> Graded:
        """Blocks into E (x)_A V(m), lifted to Kron(E, V(m)) by the sections."""
        return Graded({m: self.EV(m).section @ b for m, b in blocks.items()})

    # -- construction, one degree at a time from the degree below ------------------

    @memo
    def theta(self, n: int) -> Graded:
        """The blocks theta_n^m : Kron(V(n), E) -> E (x)_A V(m) for m <= n; from
        degree 2 on, well-definedness over Vec (x)_A V(n-1) (property 1) is
        checked as the degree is built, unless the map was made with validate=False."""
        g, E = self.geometry, self.module.space
        if n <= 1:
            embed0 = self.EV(0).project.mul_ikron(E.dim, g.one, 1)  # a (x) e -> [a.e (x) 1]
            if n == 0:
                return Graded({0: embed0 @ E.left_action})
            return Graded({0: embed0 @ self.module.act_table(1), 1: self.sigma_hat})
        act1 = self.module.act_table(1)
        p, dE = n - 1, E.dim
        pv = g.pair_V(n)
        cross = self.EV(1).section @ self.sigma_hat  # Kron(vec, E) -> Kron(E, vec)

        def via(m: int, th: Mat) -> Graded:
            # on Kron(vec, E, Vm): term 1 acts on the crossing result; terms 2 and 3 share the
            # sigma-hat crossing to Kron(E, vec, Vm) and bullet vec into V(m) or merge it into V(m + 1)
            dm = g.V(m).dim
            bullet = self.EV(m).project.mul_ikron(dE, self.table.table(1, m, m), 1).mul_ikron(1, cross, dm)
            up = self.EV(m + 1).project.mul_ikron(dE, g.merge_vec(1, m), 1).mul_ikron(1, cross, dm)
            step = Graded({m: self.EV(m).project.mul_ikron(1, act1, dm) + bullet, m + 1: up})
            # term 4: -theta_p((w bullet_p v) (x) e)
            return step.mul_ikron(g.vec.dim, self.EV(m).section @ th, 1) - Graded({m: th.mul_ikron(1, bullet_p, dE)})

        bullet_p = self.table.table(1, p, p)
        plain = Graded.sum(via(m, th) for m, th in self.theta(p).items())
        if self.validate:
            rels = pv.relation_mat
            fail = plain.mul_ikron(1, rels, dE).first_mismatch(Graded(), (rels.cols * dE,))
            if fail is not None:
                raise ValidationError("theta-not-well-defined", witness=(self.module.name, n, fail[-1]))
        return plain.mul_ikron(1, pv.section, dE)

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
    #
    # Each identity on one degree is a memoised witness, None where it holds; a
    # check_* method builds fresh results from them, which its caller may rename.

    @memo
    def bullet_balance_fail(self, n: int) -> Optional[tuple]:
        g, E = self.geometry, self.module.space
        bullet = self.table.graded(n, 0)
        lhs = Graded.over(self.theta, bullet).mul_ikron(1, bullet, E.dim)
        rhs = self.theta(n).mul_ikron(g.V(n).dim, E.left_action, 1)
        return lhs.first_mismatch(rhs, (g.V(n).dim, g.algebra.dim, E.dim))

    def check_bullet_balance(self, degree: int) -> list[CheckResult]:
        """Property 2: theta(v bullet a (x) e) = theta(v (x) a.e)."""
        return _by_degree("theta-bullet-balance", self.bullet_balance_fail, degree)

    @memo
    def left_module_fail(self, n: int) -> Optional[tuple]:
        g, E, th = self.geometry, self.module.space, self.theta(n)
        dA, Vn = g.algebra.dim, g.V(n)
        # a.(v (x) e) on Kron(A, V(n), E)
        lhs = th.mul_ikron(1, Vn.left_action, E.dim)
        rhs = Graded({m: self.EV(m).space.left_action.mul_ikron(dA, b, 1) for m, b in th.items()})
        return lhs.first_mismatch(rhs, (dA, Vn.dim * E.dim), prefix=1)

    def check_left_module(self, degree: int) -> list[CheckResult]:
        """Property 3: theta is a left module map."""
        return _by_degree("theta-left-module", self.left_module_fail, degree)

    @memo
    def right_module_fail(self, n: int) -> Optional[tuple]:
        g, E, th = self.geometry, self.module.space, self.theta(n)
        dA, Vn = g.algebra.dim, g.V(n)
        # (v (x) e).a on Kron(V(n), E, A)
        lhs = th.mul_ikron(Vn.dim, E.right_action, 1)
        # bullet a into V(k): Kron(E, V(m), A) -> E (x)_A V(k)
        acted = (self.table.graded_into(self.EV, m, 0).mul_ikron(1, b, dA) for m, b in self.lift(th).items())
        return lhs.first_mismatch(Graded.sum(acted), (Vn.dim * E.dim, dA), prefix=1, order=(1, 0))

    def check_right_module(self, degree: int) -> list[CheckResult]:
        """Property 4: theta intertwines the product-twisted right actions,
        theta(v (x) e.a) = sum_m (id (x) bullet a)(theta_m(v (x) e))."""
        return _by_degree("theta-right-module", self.right_module_fail, degree)

    @memo
    def action_fail(self, fm: ConnectionModule, tensor_mod: ConnectionModule, n: int) -> Optional[tuple]:
        g, E, F, th = self.geometry, self.module.space, fm.space, self.theta(n)
        pair_ef, Vn = g.pair(E, F), g.V(n)
        lhs = tensor_mod.act_table(n).mul_ikron(Vn.dim, pair_ef.project, 1)
        # every degree m acts on F, into the one degree 0 of E (x)_A F
        act = Graded({(0, m): pair_ef.project.mul_ikron(E.dim, fm.act_table(m), 1) for m in th})
        rhs = act.mul_ikron(1, self.lift(th), F.dim)[0]
        return first_mismatch(lhs, rhs, (Vn.dim, E.dim, F.dim))

    def check_action_factorization(
        self, fm: ConnectionModule, tensor_mod: ConnectionModule, degree: int
    ) -> list[CheckResult]:
        """Property 5: v |> (e (x) f) = (id (x) |>)(theta (x) id)(v (x) e (x) f)."""
        return _by_degree("theta-action", functools.partial(self.action_fail, fm, tensor_mod), degree)

    @memo
    def on_algebra_fail(self, n: int) -> Optional[tuple]:
        """Where theta_n on E = A differs from the bullet product (``check_theta_on_algebra``)."""
        g = self.geometry
        unit = Graded({(k, k): self.EV(k).project.mul_ikron(1, g.one, g.V(k).dim) for k in range(n + 1)})
        expected = unit @ self.table.graded(n, 0)
        return self.theta(n).first_mismatch(expected, (g.V(n).dim, g.algebra.dim), prefix=0)

    @memo
    def product_compat_fail(self, p: int, q: int, *, lifted, crossed) -> Optional[tuple]:
        """The witness of ``theta_product_compat`` on Kron(V(p), V(q), E), from the blocks
        its call shares: ``lifted(n)`` is theta_n lifted by the sections, and ``crossed()``
        is (id (x) bullet)(theta_p (x) id) on Kron(V(p), E, V(m)) for every m reached."""
        g, E = self.geometry, self.module.space
        bullet = self.table.graded(p, q)
        lhs = Graded.over(self.theta, bullet).mul_ikron(1, bullet, E.dim)
        rhs = crossed().mul_ikron(g.V(p).dim, lifted(q), 1)
        return lhs.first_mismatch(rhs, (g.V(p).dim, g.V(q).dim, E.dim))

    @memo
    def tensor_factorization_fail(self, cm_f: "CrossingMap", cm_ef: "CrossingMap", n: int) -> Optional[tuple]:
        """The witness of ``theta_tensor_factorization`` on Kron(V(n), E, F), with this
        map the crossing of E, ``cm_f`` that of F and ``cm_ef`` that of E (x) F."""
        g, E, F = self.geometry, self.module.space, cm_f.module.space
        pair_ef = g.pair(E, F)
        # Kron(E, F, V(mp)) -> (E (x) F) (x) V(mp), whatever the degree it is reached from
        merged = functools.cache(lambda mp: cm_ef.EV(mp).project.mul_ikron(1, pair_ef.project, g.V(mp).dim))

        def via(m: int, th_e: Mat):  # Kron(V(n), E, F) -> Kron(E, V(m), F) -> Kron(E, F, V(mp)) -> (E (x) F) (x) V(mp)
            lifted = self.EV(m).section @ th_e
            for mp, th_f in cm_f.theta(m).items():
                outer = merged(mp).mul_ikron(E.dim, cm_f.EV(mp).section @ th_f, 1)
                yield Graded({mp: outer.mul_ikron(1, lifted, F.dim)})

        lhs = cm_ef.theta(n).mul_ikron(g.V(n).dim, pair_ef.project, 1)
        rhs = Graded.sum(term for m, th_e in self.theta(n).items() for term in via(m, th_e))
        return lhs.first_mismatch(rhs, (g.V(n).dim, E.dim, F.dim))

    def check_filtration(self, degree: int) -> list[CheckResult]:
        """Degree n -> n block equals the iterated sigma-hat braid; lower blocks only."""
        results = []
        for n in range(1, degree + 1):
            ok = self.theta(n)[n] == self.braid(n)
            extra = [m for m in self.theta(n) if m > n]
            results.append(CheckResult(f"theta-filtration-deg{n}", ok and not extra, witness=None if ok else n))
        return results

    def check_naturality(self, other: "CrossingMap", t: Mat, degree: int) -> list[CheckResult]:
        """(T (x) id) theta_E = theta_F (id (x) T) for a connection morphism T; the
        witness is the first degree where the two differ."""
        g = self.geometry
        results = []
        for n in range(0, degree + 1):
            Vn, th = g.V(n), self.theta(n)
            t_id = Graded({(m, m): other.EV(m).project.mul_ikron(1, t, g.V(m).dim) @ self.EV(m).section for m in th})
            rhs = other.theta(n).mul_ikron(Vn.dim, t, 1)
            fail = (t_id @ th).first_mismatch(rhs, (Vn.dim, t.cols), prefix=0)
            results.append(_result(f"theta-naturality-deg{n}", (n,), fail))
        return results

    # -- inverse -------------------------------------------------------------------

    @memo
    def build_inverse(self, n: int) -> Graded:
        """The inverse blocks E (x)_A V(n) -> Kron(V(m), E) for m <= n, by the recursion

        theta_inv(f (x) u (x) v) = u' bullet theta_inv(f' (x) v) - theta_inv((u' |> f') (x) v)
                                   - theta_inv(f (x) (u bullet_p v)),  u' (x) f' = sigma_hat^-1(f (x) u),

        where v has degree p = n - 1 and u' bullet y = u' (x) y + u' bullet_m y for y of degree m.
        """
        g, E = self.geometry, self.module.space
        if n == 0:  # e . a -> 1 (x) e.a
            return Graded({0: g.one.kron(E.right_action) @ self.EV(0).section})
        act1 = self.module.act_table(1)
        lift_ve = self.VE.section @ self.sigma_hat_inv  # E (x)_A Vec -> Kron(Vec, E)
        if n == 1:
            return Graded({1: lift_ve, 0: -g.one.kron(act1 @ lift_ve)})
        p, dp = n - 1, g.V(n - 1).dim
        cross = lift_ve @ self.EV(1).project  # Kron(E, Vec) -> Kron(Vec, E)
        split = ikron_mul(E.dim, g.pair_V(n).section, 1, self.EV(n).section)  # -> Kron(E, Vec, V(p))
        crossed = ikron_mul(1, cross, dp, split)  # -> Kron(Vec, E, V(p))
        # -> Kron(E, V(p))
        lower = ikron_mul(1, act1, dp, crossed) + ikron_mul(E.dim, self.table.table(1, p, p), 1, split)
        prev = self.build_inverse(p) @ self.EV(p).project  # Kron(E, V(p)) -> Kron(V(m), E)
        acted = ikron_mul(g.vec.dim, prev, 1, crossed)  # -> Kron(Vec, V(m), E)
        # u' merged into V(m + 1) or bulleted into V(m)
        bullet = Graded({(m + 1, m): g.merge_vec(1, m) for m in prev})
        bullet.update({(m, m): self.table.table(1, m, m) for m in prev})
        return ikron_mul(1, bullet, E.dim, acted) - prev @ lower

    def _layout(self, n: int) -> dict[int, int]:
        """The stacked sum of the Kron(V(m), E), m <= n: the size of each block, block n first."""
        return {m: self.geometry.V(m).dim * self.module.space.dim for m in range(n, -1, -1)}

    @memo
    def inverse_relations(self, n: int) -> Mat:
        """The relations x bullet a (x) e - x (x) a.e of the filtered tensor product for x of
        degree at most n, as a span on the stacked sum ``_layout(n)``, block n first.  It grows
        from the basis of degree n - 1, moved past block n.  A relation of degree n leads in
        block n unless its top part vanishes, and no row of the degree below has an entry
        there, so adding it leaves those rows alone."""
        g, E = self.geometry, self.module.space
        layout = self._layout(n)
        blocks = Graded({k: self.table.table(n, 0, k).kron(Mat.identity(E.dim)) for k in range(n)})
        blocks[n] = balance(g.V(n), E)
        below = self.inverse_relations(n - 1).cols_sparse() if n else []
        moved = [[(layout[n] + i, v) for i, v in col] for col in below]
        stacked = blocks.stacked(layout)
        return span(stacked.rows, moved + stacked.cols_sparse())

    @memo
    def right_inverse_holds(self, n: int) -> bool:
        inv = self.build_inverse(n)
        dim = self.EV(n).dim
        identity = Graded({n: Mat.identity(dim)})
        return (Graded.over(self.theta, inv) @ inv).first_mismatch(identity, (dim,), prefix=0) is None

    def check_inverse(self, degree: int) -> list[CheckResult]:
        """theta o theta_inv = id exactly; theta_inv o theta = id modulo the
        product-twisted relations of the filtered tensor product."""
        g, E = self.geometry, self.module.space
        results = []
        for n in range(0, degree + 1):
            ok = self.right_inverse_holds(n)
            results.append(CheckResult(f"theta-right-inverse-deg{n}", ok, witness=None if ok else n))

        # theta_inv o theta = id in the quotient by the relations up to the check's degree,
        # so this half depends on the degree asked and is not kept
        layout = self._layout(degree)
        project, _ = quotient(self.inverse_relations(degree))
        for n in range(0, degree + 1):
            th = self.theta(n)
            comp = Graded.over(self.build_inverse, th) @ th - Graded({n: Mat.identity(g.V(n).dim * E.dim)})
            stacked = project @ comp.stacked(layout)
            fail = first_mismatch(stacked, Mat.zeros(stacked.rows, stacked.cols), (g.V(n).dim, E.dim))
            results.append(_result(f"theta-left-inverse-deg{n}", (n,), fail))
        return results


# -- theta on the unit object and compatibility with the product -------------------


def check_theta_on_algebra(cm: CrossingMap, degree: int) -> list[CheckResult]:
    """On E = A the crossing is the bullet product (unit-object axiom); the
    witness is the first degree where the two differ."""
    g = cm.geometry
    if cm.module.space is not g.A_bim:
        raise ValueError("check_theta_on_algebra expects the crossing on A")
    return _by_degree("theta-on-A", cm.on_algebra_fail, degree)


def theta_product_compat(cm: CrossingMap, degree: int) -> list[CheckResult]:
    """theta(u bullet v (x) e) = (id (x) bullet)(theta (x) id)(id (x) theta)."""
    g = cm.geometry
    # built once per call, and only for the (p, q) not checked yet: each theta_n lifted
    # to Kron(E, V(m)), and each bullet into E (x) V(k)
    lifted = functools.cache(lambda n: cm.lift(cm.theta(n)))
    bullet_into = functools.cache(lambda mp, m: cm.table.graded_into(cm.EV, mp, m))

    def crossed(p: int, m: int) -> Graded:  # Kron(V(p), E, V(m)) -> E (x) V(k), via theta_p
        return Graded.over(lambda mp: bullet_into(mp, m), lifted(p)).mul_ikron(1, lifted(p), g.V(m).dim)

    results = []
    for p in range(0, degree + 1):
        # (id (x) bullet)(theta_p (x) id) is the same for every q
        reached = sorted({m for q in range(degree + 1 - p) for m in cm.theta(q)})
        crossed_p = functools.cache(lambda: Graded.over(functools.partial(crossed, p), reached))
        for q in range(0, degree + 1 - p):
            fail = cm.product_compat_fail(p, q, lifted=lifted, crossed=crossed_p)
            results.append(_result(f"theta-product-compat-{p}-{q}", (p, q), fail))
        del crossed_p  # freed before the next p's sums are built, which set the peak memory
    return results


def theta_tensor_factorization(
    cm_e: CrossingMap, cm_f: CrossingMap, cm_ef: CrossingMap, degree: int
) -> list[CheckResult]:
    """theta_{E (x) F} = (id_E (x) theta_F)(theta_E (x) id_F), degree by degree."""
    fail = functools.partial(cm_e.tensor_factorization_fail, cm_f, cm_ef)
    return _by_degree("theta-tensor-factorization", fail, degree)


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
    def blocks(self, n: int) -> Graded:
        """nabla on V(n), one block per m in {n, n+1}: the degree-raising block is
        kept at a check's top degree too, so the right-module identity loses no terms."""
        return Graded({k: self.geometry.OV(k).project @ plain for k, plain in self._coev_bullet(n).items()})

    def _coev_bullet(self, n: int) -> Graded:
        """v -> coev(1) bullet v on plain coordinates, V(n) -> Kron(Omega1, V(k)) for k = n, n+1."""
        g = self.geometry
        # id (x) bullet applied to coev(1) (x) v, one column per basis v
        dO, dV = g.omega.dim, g.V(n).dim
        return Graded({k: contract(self.table.table(1, n, k), dO, dV, g.coev_one, mirror=True) for k in (n, n + 1)})

    # -- the identities, one memoised witness per degree as for the crossings --------

    @memo
    def leibniz_fail(self, n: int) -> Optional[tuple]:
        g, Vn, blocks = self.geometry, self.geometry.V(n), self.blocks(n)
        lhs = blocks @ Vn.left_action
        rhs = Graded({m: g.OV(m).space.left_action.mul_ikron(g.algebra.dim, b, 1) for m, b in blocks.items()})
        rhs = rhs + Graded({n: g.OV(n).project.mul_ikron(1, g.d, Vn.dim)})
        fail = lhs.first_mismatch(rhs, (g.algebra.dim, Vn.dim))  # (a, v, degree)
        return fail and fail[:-1]

    def check_left_leibniz(self, degree: int) -> list[CheckResult]:
        """nabla(a.v) = a.nabla(v) + da (x) v."""
        return _by_degree("operator-connection-leibniz", self.leibniz_fail, degree)

    @memo
    def right_module_fail(self, n: int) -> Optional[tuple]:
        g, Vn, blocks = self.geometry, self.geometry.V(n), self.blocks(n)
        dA, bullet = g.algebra.dim, self.table.graded(n, 0)
        lhs = Graded.over(self.blocks, bullet) @ bullet
        lifted = Graded({m: g.OV(m).section @ b for m, b in blocks.items()})  # -> Kron(Omega1, V(m))
        rhs = Graded.over(lambda m: self.table.graded_into(g.OV, m, 0), blocks).mul_ikron(1, lifted, dA)
        return lhs.first_mismatch(rhs, (Vn.dim, dA), order=(1, 0))  # (a, v, degree)

    def check_right_module_map(self, degree: int) -> list[CheckResult]:
        """nabla(v bullet a) = nabla(v) bullet a: the zero-braiding property."""
        return _by_degree("operator-connection-right", self.right_module_fail, degree)

    @memo
    def morphism_fail(self, cm: CrossingMap, n: int) -> Optional[tuple]:
        g, em, th = self.geometry, cm.module, cm.theta(n)
        E, dO = em.space, g.omega.dim
        nabla = em.OE.section @ em.nabla  # E -> Kron(Omega1, E)
        crossed = em.OE.section @ em.sigma @ em.EO.project  # Kron(E, Omega1) -> Kron(Omega1, E)

        def target(m):  # Omega1 (x)_A (E (x)_A V(m))
            return g.pair(g.omega, cm.EV(m).space).project

        def push(m, x):  # x into Kron(Omega1, E, V(m)), then into Omega1 (x)_A (E (x)_A V(m))
            return target(m).mul_ikron(dO, cm.EV(m).project, 1).mul_ikron(1, x, g.V(m).dim)

        # nabla_{T (x) E}(v (x) e) = xi (x) (u bullet v) (x) e, then id (x) theta
        up = self._coev_bullet(n)
        theta_after = Graded({(m, k): target(m).mul_ikron(dO, b, 1) for k in up for m, b in cm.theta(k).items()})
        lhs = theta_after.mul_ikron(1, up, E.dim)
        # nabla_E(f) (x) w + sigma_E(f (x) xi) (x) (u bullet w) on theta(v (x) e) = f (x) w
        ups = Graded.over(self._coev_bullet, th)  # (k, m): V(m) -> Kron(Omega1, V(k))
        via_sigma = Graded({(k, m): push(k, crossed).mul_ikron(E.dim, b, 1) for (k, m), b in ups.items()})
        rhs = (Graded({(m, m): push(m, nabla) for m in th}) + via_sigma) @ cm.lift(th)
        return lhs.first_mismatch(rhs, (g.V(n).dim, E.dim))

    def check_crossing_is_morphism(self, cm: CrossingMap, degree: int) -> list[CheckResult]:
        """(id (x) theta) nabla_{T (x) E} = nabla_{E (x) T} theta, degree by degree;
        the left side raises degree by one, so degree n reads theta(n + 1)."""
        return _by_degree("operator-connection-morphism", functools.partial(self.morphism_fail, cm), degree - 1)

    @memo
    def product_morphism_fail(self, p: int, q: int) -> Optional[tuple]:
        g, Vp, Vq = self.geometry, self.geometry.V(p), self.geometry.V(q)
        up = self._coev_bullet(p)  # up (x) id: -> Kron(Omega1, V(k), V(q))
        bullet = self.table.graded(p, q)
        lhs = Graded.over(self.blocks, bullet) @ bullet
        rhs = Graded.over(lambda k: self.table.graded_into(g.OV, k, q), up).mul_ikron(1, up, Vq.dim)
        return lhs.first_mismatch(rhs, (Vp.dim, Vq.dim))

    def check_product_is_morphism(self, degree: int) -> list[CheckResult]:
        """(id (x) bullet) nabla_{T (x) T} = nabla o bullet (associativity in disguise)."""
        pairs = [(p, q) for p in range(degree) for q in range(degree - p)]
        fails = (self.product_morphism_fail(p, q) for p, q in pairs)
        return [_result(f"operator-product-morphism-{p}-{q}", (p, q), fail) for (p, q), fail in zip(pairs, fails)]


class Crossings:
    """The crossings of one bundle: the bullet table, the crossing of each test
    object and of each tensor product of two, and the coevaluation connection.

    They depend on the geometry and the modules only, so one ``Crossings`` per
    loaded bundle (``Bundle.crossings``) serves every verification run over it:
    each crossing is built once per module content, on first use, and grows
    degree by degree as far as any check asks.
    """

    def __init__(self, table: BulletTable, modules: dict[str, ConnectionModule]):
        if "A" not in modules:
            raise ValueError("the unit object A must be among the test objects")
        self.table = table
        self.geometry = table.geometry
        self.modules = dict(modules)
        self.operator_connection = OperatorConnection(table)
        self._by_content: dict[tuple, CrossingMap] = {}

    def object_names(self) -> list[str]:
        return sorted(self.modules)

    @memo
    def crossing(self, name: str) -> CrossingMap:
        return self._crossing_of(self.modules[name])

    @memo
    def tensor_module(self, a: str, b: str) -> ConnectionModule:
        return tensor_connection(self.modules[a], self.modules[b])

    @memo
    def tensor_crossing(self, a: str, b: str) -> CrossingMap:
        return self._crossing_of(self.tensor_module(a, b))

    def _crossing_of(self, module: ConnectionModule) -> CrossingMap:
        """One crossing per module content (``_content``): a module whose content has a
        crossing gets that crossing ``over`` itself.  A crossing that fails to build
        raises under its module's name and is not kept."""
        key = _content(module)
        built = self._by_content.get(key)
        if built is None:
            built = self._by_content[key] = CrossingMap(self.table, module)
        return built if built.module is module else built.over(module)


def _content(module: ConnectionModule) -> tuple:
    """All that a crossing reads of its module but the name: |E|, and L_E, R_E, nabla
    and sigma as tuples of columns (sigma None if there is none)."""
    E = module.space
    mats = (E.left_action, E.right_action, module.nabla, module.sigma)
    return (E.dim, *(None if m is None else tuple(map(tuple, m.cols_sparse())) for m in mats))


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
