"""The algebra of differential operators: the degree-filtered product built
from the bullet recursion, graded operator elements, and their action on
modules with connection.

The product components ``bullet(n, m, k)`` are bilinear on plain Kronecker
coordinates of the quotient powers (the product is NOT balanced over the
algebra: differentiation obstructs it, which is the whole point).  The
recursion lowers the left degree:

* degree 0: ``a . w`` when k = m, else 0
* degree 1: ``u (x) w`` at k = m+1, ``(ev (x) id)(u (x) box<m> w)`` at k = m
* step: ``(u (x) v) o_k w = u (x) (v o_{k-1} w) + u o_k (v o_k w) - (u o_n v) o_k w``

Well-definedness of the step over the tensor relations in ``Vec (x)_A V(n)``
is checked exactly at table-build time.
"""

from __future__ import annotations

from .calculus import ConnectionModule
from .geometry import Geometry
from .linalg import Graded, Mat, first_mismatch
from .memo import memo
from .report import ValidationError
from .scalars import ZERO, Scalar, sc


class TruncationExceeded(ValueError):
    pass


class BulletTable:
    """The matrices of the degree components of the bullet product, each built
    once by ``@memo`` and kept on the table."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry

    @memo
    def table(self, n: int, m: int, k: int) -> Mat:
        """Matrix of o_k : V(n) (x) V(m) -> V(k) on plain Kronecker coordinates."""
        g = self.geometry
        Vn, Vm = g.V(n), g.V(m)
        rows = g.V(k).dim if k >= 0 else 0
        cols = Vn.dim * Vm.dim
        if k < 0 or k > n + m or (n == 0 and k != m) or (n == 1 and k not in (m, m + 1)):
            return Mat.zeros(max(rows, 0), cols)
        if n == 0:
            return g.merge_vec(0, m)
        if n == 1 and k == m + 1:
            return g.merge_vec(1, m)
        if n == 1 and k == m:
            # (ev (x) id^m)(u (x) box<m> w)
            return Vm.ev_left(g.fgp.apply_mat, g.OV(m).section @ g.box_vec_pow(m))
        return self._step_table(n, m, k)

    def _step_table(self, n: int, m: int, k: int) -> Mat:
        """(u (x) v) o_k w via the recursion, including the well-definedness check."""
        g = self.geometry
        pv = g.pair_V(n)
        Vn, Vm, Vprev = g.V(n), g.V(m), g.V(n - 1)
        dvec = g.vec.dim
        # term 1: u (x) (v o_{k-1} w)
        if k >= 1:
            t1 = g.merge_vec(1, k - 1).mul_ikron(dvec, self.table(n - 1, m, k - 1), 1)
        else:
            t1 = Mat.zeros(g.V(k).dim, dvec * Vprev.dim * Vm.dim)
        # term 2: u o_k (v o_k w); skip entirely when the inner product vanishes
        inner = self.table(n - 1, m, k)
        if inner.is_zero():
            t2 = Mat.zeros(g.V(k).dim, dvec * Vprev.dim * Vm.dim)
        else:
            t2 = self.table(1, k, k).mul_ikron(dvec, inner, 1)
        # term 3: (u o_{n-1} v) o_k w
        t3 = self.table(n - 1, m, k).mul_ikron(1, self.table(1, n - 1, n - 1), Vm.dim)
        plain = t1 + t2 - t3  # on Kron(vec, V(n-1), V(m))
        # well-definedness over Vec (x)_A V(n-1): plain kills (relation (x) w) for every relation
        probe = plain.mul_ikron(1, pv.relation_mat, Vm.dim)
        fail = first_mismatch(probe, Mat.zeros(probe.rows, probe.cols), (pv.relation_mat.cols, Vm.dim))
        if fail is not None:
            raise ValidationError("bullet-not-well-defined", witness=(n, m, k, fail[1]))
        return plain.mul_ikron(1, pv.section, Vm.dim)

    def graded(self, n: int, m: int) -> Graded:
        """The whole product o : V(n) (x) V(m) -> V(k), one block per k <= n + m."""
        return Graded({k: self.table(n, m, k) for k in range(n + m + 1)})

    def graded_into(self, pair, n: int, m: int) -> Graded:
        """id (x) o : Kron(X, V(n), V(m)) -> X (x)_A V(k), one block per k <= n + m,
        where ``pair(k)`` is the tensor pair of X and V(k)."""
        return Graded({k: pair(k).project.mul_ikron(pair(k).e.dim, b, 1) for k, b in self.graded(n, m).items()})

    @memo
    def associativity_fail(self, n: int, m: int, l: int):
        """The first column of Kron(V(n), V(m), V(l)) on which sum_k o(o_k(u, v), w)
        and sum_k o(u, o_k(v, w)) differ, or None."""
        Vn, Vm, Vl = self.geometry.V(n), self.geometry.V(m), self.geometry.V(l)
        left, right = self.graded(n, m), self.graded(m, l)
        lhs = Graded.over(lambda k: self.graded(k, l), left).mul_ikron(1, left, Vl.dim)
        rhs = Graded.over(lambda k: self.graded(n, k), right).mul_ikron(Vn.dim, right, 1)
        fail = lhs.first_mismatch(rhs, (Vn.dim, Vm.dim, Vl.dim))
        return None if fail is None else fail[:-1]

    def bullet_k(self, v: Mat, n: int, w: Mat, m: int, k: int) -> Mat:
        """v o_k w for one-column coordinates v in V(n) and w in V(m)."""
        return self.table(n, m, k) @ v.kron(w)


class GradedOperator:
    """An element of the degree-truncated operator algebra.

    ``components`` is a ``Graded``: each nonzero component is one column of
    quotient coordinates in V(degree); a zero component is not stored.  The
    constructor takes a one-column ``Mat`` or a dense coordinate list per degree.
    Arithmetic that would need components beyond the truncation degree raises
    rather than silently dropping terms.
    """

    def __init__(self, geometry: Geometry, components: dict[int, Mat | list], truncation: int):
        self.geometry = geometry
        self.truncation = truncation
        comps = Graded()
        for deg, col in components.items():
            if deg > truncation:
                raise TruncationExceeded(f"degree {deg} exceeds truncation {truncation}")
            if not isinstance(col, Mat):
                col = Mat.from_cols([col])
            if not col.is_zero():
                comps[deg] = col
        self.components = comps

    @staticmethod
    def homogeneous(geometry: Geometry, degree: int, coords, truncation: int) -> "GradedOperator":
        return GradedOperator(geometry, {degree: coords}, truncation)

    @property
    def degree(self) -> int:
        return max(self.components, default=0)

    def component(self, n: int) -> list[Scalar]:
        """Dense quotient coordinates of the degree-n component."""
        col = self.components.get(n)
        return [ZERO] * self.geometry.V(n).dim if col is None else col.column(0)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return GradedOperator(self.geometry, self.components + other.components, self.truncation)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + other.scale(sc(-1))

    def scale(self, s) -> "GradedOperator":
        return GradedOperator(self.geometry, {d: c.scale(s) for d, c in self.components.items()}, self.truncation)

    def __eq__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self.components == other.components

    def is_zero(self) -> bool:
        return not self.components

    def bullet(self, other: "GradedOperator", table: BulletTable) -> "GradedOperator":
        """The associative product; sums o_k over all degrees."""
        if self.degree + other.degree > self.truncation:
            raise TruncationExceeded(
                f"product degree {self.degree}+{other.degree} exceeds truncation {self.truncation}"
            )
        # every o_k at once: the Kronecker column is shared
        out = Graded.sum(
            table.graded(n, m) @ v.kron(w) for n, v in self.components.items() for m, w in other.components.items()
        )
        return GradedOperator(self.geometry, out, self.truncation)

    def act_on(self, module: ConnectionModule, e_coords) -> list[Scalar]:
        """Apply the operator to a module element via iterated derivatives;
        takes and returns dense coordinates."""
        e = Mat.from_cols([e_coords], module.space.dim)
        out = Mat.zeros(module.space.dim, 1)
        for n, v in self.components.items():
            out = out + module.act(n, v, e)
        return out.column(0)

    def __repr__(self):
        parts = ", ".join(f"deg{d}:{[str(x) for x in self.component(d)]}" for d in sorted(self.components))
        return f"GradedOperator({parts or '0'})"
