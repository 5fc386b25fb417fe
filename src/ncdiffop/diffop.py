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
from .linalg import Mat, first_mismatch
from .report import CheckResult, ValidationError
from .scalars import ZERO, Scalar, sc


class TruncationExceeded(ValueError):
    pass


class BulletTable:
    """Memoized matrices for the degree components of the bullet product."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self._tables: dict[tuple[int, int, int], Mat] = {}

    def table(self, n: int, m: int, k: int) -> Mat:
        """Matrix of o_k : V(n) (x) V(m) -> V(k) on plain Kronecker coordinates."""
        key = (n, m, k)
        if key in self._tables:
            return self._tables[key]
        g = self.geometry
        Vn, Vm = g.V(n), g.V(m)
        rows = g.V(k).dim if k >= 0 else 0
        cols = Vn.dim * Vm.dim
        if k < 0 or k > n + m or (n == 0 and k != m) or (n == 1 and k not in (m, m + 1)):
            out = Mat.zeros(max(rows, 0), cols)
        elif n == 0:
            out = g.merge_vec(0, m)
        elif n == 1 and k == m + 1:
            out = g.merge_vec(1, m)
        elif n == 1 and k == m:
            # (ev (x) id^m)(u (x) box<m> w)
            out = Vm.ev_left(g.fgp.apply_mat, g.OV(m).section @ g.box_vec_pow(m))
        else:
            out = self._step_table(n, m, k)
        self._tables[key] = out
        return out

    def _step_table(self, n: int, m: int, k: int) -> Mat:
        """(u (x) v) o_k w via the recursion, including the well-definedness check."""
        g = self.geometry
        pv = g.pair_V(n)
        Vn, Vm, Vprev = g.V(n), g.V(m), g.V(n - 1)
        dvec = g.vec.dim
        # term 1: u (x) (v o_{k-1} w)
        if k >= 1:
            t1 = g.merge_vec(1, k - 1) @ Mat.identity(dvec).kron(self.table(n - 1, m, k - 1))
        else:
            t1 = Mat.zeros(g.V(k).dim, dvec * Vprev.dim * Vm.dim)
        # term 2: u o_k (v o_k w); skip entirely when the inner product vanishes
        inner = self.table(n - 1, m, k)
        if inner.is_zero():
            t2 = Mat.zeros(g.V(k).dim, dvec * Vprev.dim * Vm.dim)
        else:
            t2 = self.table(1, k, k) @ Mat.identity(dvec).kron(inner)
        # term 3: (u o_{n-1} v) o_k w
        t3 = self.table(n - 1, m, k) @ self.table(1, n - 1, n - 1).kron(Mat.identity(Vm.dim))
        plain = t1 + t2 - t3  # on Kron(vec, V(n-1), V(m))
        # well-definedness over Vec (x)_A V(n-1): plain kills (relation (x) w) for every relation
        probe = plain @ pv.relation_mat.kron(Mat.identity(Vm.dim))
        fail = first_mismatch(probe, Mat.zeros(probe.rows, probe.cols), (pv.relation_mat.cols, Vm.dim))
        if fail is not None:
            raise ValidationError("bullet-not-well-defined", witness=(n, m, k, fail[1]))
        return plain @ pv.section.kron(Mat.identity(Vm.dim))

    def bullet_k(self, v: Mat, n: int, w: Mat, m: int, k: int) -> Mat:
        """v o_k w for one-column coordinates v in V(n) and w in V(m)."""
        return self.table(n, m, k) @ v.kron(w)


class GradedOperator:
    """An element of the degree-truncated operator algebra.

    Each nonzero component is a one-column ``Mat`` of quotient coordinates in
    V(degree); a zero component is not stored.  The constructor also takes
    dense coordinate lists, and ``component`` returns one.  Arithmetic that
    would need components beyond the truncation degree raises rather than
    silently dropping terms.
    """

    def __init__(self, geometry: Geometry, components: dict[int, Mat | list], truncation: int):
        self.geometry = geometry
        self.truncation = truncation
        comps = {}
        for deg, col in components.items():
            if deg > truncation:
                raise TruncationExceeded(f"degree {deg} exceeds truncation {truncation}")
            if not isinstance(col, Mat):
                col = Mat.from_cols([col])
            if not col.is_zero():
                comps[deg] = col
        self.components = comps

    @staticmethod
    def unit(geometry: Geometry, truncation: int) -> "GradedOperator":
        return GradedOperator(geometry, {0: geometry.algebra.unit}, truncation)

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
        comps = dict(self.components)
        for deg, col in other.components.items():
            comps[deg] = comps[deg] + col if deg in comps else col
        return GradedOperator(self.geometry, comps, self.truncation)

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
        out: dict[int, Mat] = {}
        for n, v in self.components.items():
            for m, w in other.components.items():
                vw = v.kron(w)  # bullet_k for every k at once: the Kronecker column is shared
                for k in range(0, n + m + 1):
                    term = table.table(n, m, k) @ vw
                    out[k] = out[k] + term if k in out else term
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


def morphism_equivariance_report(
    table: BulletTable,
    em: ConnectionModule,
    fm: ConnectionModule,
    t: Mat,
    max_degree: int,
) -> list[CheckResult]:
    """Check v |> T(e) = T(v |> e) for all basis v up to max_degree, basis e.

    Callers are expected to have verified that t intertwines the connections;
    the report records the equivariance consequence degree by degree.
    """
    g = table.geometry
    results = []
    for n in range(0, max_degree + 1):
        Vn = g.V(n)
        lhs = fm.act_table(n) @ Mat.identity(Vn.dim).kron(t)
        fail = first_mismatch(lhs, t @ em.act_table(n), (Vn.dim, em.space.dim))
        fail = None if fail is None else (n, *fail)
        results.append(CheckResult(f"equivariance-deg{n}", fail is None, witness=fail))
    return results
