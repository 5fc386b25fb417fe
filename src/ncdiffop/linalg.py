"""Dense exact matrices, row reduction, kernels, quotients and PSD certificates.

Everything here is deterministic: row reduction always picks the leftmost
pivot column and the first usable row, so echelon bases (and hence all
quotient coordinates built on top of them) are reproducible across runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar, sc


class NotHermitian(ValueError):
    pass


class Mat:
    """A dense matrix of Scalars with a cached sparse-column view."""

    __slots__ = ("rows", "cols", "data", "_cols_sparse")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[ZERO] * cols for _ in range(rows)]
        else:
            self.data = data
        self._cols_sparse = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        data = [[sc(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return Mat(len(data), ncols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        return Mat.from_rows(cols).transpose()

    def copy(self) -> "Mat":
        return Mat(self.rows, self.cols, [row[:] for row in self.data])

    # -- basic ops ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))
        )

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [[-a for a in row] for row in self.data])

    def scale(self, s) -> "Mat":
        s = sc(s)
        return Mat(self.rows, self.cols, [[s * a for a in row] for row in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = Mat(self.rows, other.cols)
        ocols = other.cols_sparse()
        for j, col in enumerate(ocols):
            if not col:
                continue
            for i in range(self.rows):
                row = self.data[i]
                acc = ZERO
                for k, v in col:
                    x = row[k]
                    if x:
                        acc = acc + x * v
                if acc:
                    out.data[i][j] = acc
        return out

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)])

    def conj_transpose(self) -> "Mat":
        t = self.transpose()
        t.data = [[a.conj() for a in row] for row in t.data]
        return t

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def _check_same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- application to vectors ---------------------------------------------

    def cols_sparse(self):
        if self._cols_sparse is None:
            cols = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.data):
                for j, v in enumerate(row):
                    if v is not ZERO and v:
                        cols[j].append((i, v))
            self._cols_sparse = cols
        return self._cols_sparse

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        out = [ZERO] * self.rows
        cols = self.cols_sparse()
        for j, x in enumerate(vec):
            if x is ZERO or not x:
                continue
            for i, v in cols[j]:
                out[i] = out[i] + v * x
        return out

    def column(self, j: int) -> list[Scalar]:
        return [row[j] for row in self.data]

    def kron(self, other: "Mat") -> "Mat":
        out = Mat(self.rows * other.rows, self.cols * other.cols)
        for i, row in enumerate(self.data):
            for j, a in enumerate(row):
                if not a:
                    continue
                for k, orow in enumerate(other.data):
                    tgt = out.data[i * other.rows + k]
                    base = j * other.cols
                    for l, b in enumerate(orow):
                        if b:
                            tgt[base + l] = a * b
        return out

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


# -- vectors ---------------------------------------------------------------


def vec_is_zero(x) -> bool:
    return all(not a for a in x)


def kron_vec(x: Sequence[Scalar], y: Sequence[Scalar]) -> list[Scalar]:
    ny = len(y)
    out = [ZERO] * (len(x) * ny)
    for i, a in enumerate(x):
        if not a:
            continue
        base = i * ny
        for j, b in enumerate(y):
            if b:
                out[base + j] = a * b
    return out


# -- row reduction -----------------------------------------------------------


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form with deterministic leftmost-pivot choice."""
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Mat(rows, cols, a), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


class Subspace:
    """A subspace of a coordinate space, stored as canonical RREF row basis."""

    def __init__(self, ambient_dim: int, basis_rows: list[list[Scalar]], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis_rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        ech = SparseEchelon(ambient_dim)
        for v in vectors:
            ech.add_dense(v)
        return ech.to_subspace()

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return vec_is_zero(self.reduce(vec))

    def reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """Residual of vec after eliminating all pivot coordinates."""
        v = list(vec)
        for row, p in zip(self.basis, self.pivots):
            x = v[p]
            if x:
                v = [a - x * b for a, b in zip(v, row)]
        return v

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.basis == other.basis
        )


class SparseEchelon:
    """Incremental reduced echelon basis built from sparse or dense vectors.

    Rows are kept as dicts.  Insertion keeps the set fully reduced, so the
    final basis equals the canonical RREF basis of the span regardless of
    insertion order.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.pivot_rows: dict[int, dict[int, Scalar]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def _reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        changed = True
        while changed:
            changed = False
            for c in sorted(row):
                if not row[c]:
                    del row[c]
                    continue
                if c in self.pivot_rows:
                    f = row[c]
                    for cc, v in self.pivot_rows[c].items():
                        row[cc] = row.get(cc, ZERO) - f * v
                        if not row[cc]:
                            del row[cc]
                    changed = True
                    break
        return row

    def add_sparse(self, row: dict[int, Scalar]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        row = self._reduce({c: v for c, v in row.items() if v})
        if not row:
            return False
        p = min(row)
        inv = ONE / row[p]
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into existing rows to stay fully reduced
        for q, existing in self.pivot_rows.items():
            if p in existing:
                f = existing[p]
                for cc, v in row.items():
                    existing[cc] = existing.get(cc, ZERO) - f * v
                    if not existing[cc]:
                        del existing[cc]
        self.pivot_rows[p] = row
        return True

    def add_dense(self, vec: Sequence[Scalar]) -> bool:
        return self.add_sparse({i: v for i, v in enumerate(vec) if v})

    def reduce_dense(self, vec: Sequence[Scalar]) -> list[Scalar]:
        v = list(vec)
        for p in sorted(self.pivot_rows):
            x = v[p]
            if x:
                for cc, w in self.pivot_rows[p].items():
                    v[cc] = v[cc] - x * w
        return v

    def contains_dense(self, vec: Sequence[Scalar]) -> bool:
        return vec_is_zero(self.reduce_dense(vec))

    def to_subspace(self) -> Subspace:
        pivots = tuple(sorted(self.pivot_rows))
        basis = []
        for p in pivots:
            row = [ZERO] * self.ambient_dim
            for c, v in self.pivot_rows[p].items():
                row[c] = v
            basis.append(row)
        return Subspace(self.ambient_dim, basis, pivots)


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the null space of m (RREF of the solution space)."""
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vecs = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r.data[i][f]
        vecs.append(v)
    return Subspace.from_vectors(m.cols, vecs)


def solve(m: Mat, b: Sequence[Scalar]):
    """One solution of m x = b, or None if inconsistent (deterministic)."""
    aug = Mat(m.rows, m.cols + 1, [row[:] + [sc(bb)] for row, bb in zip(m.data, b)])
    r, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][m.cols]
    return x


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    aug = Mat(n, 2 * n, [row[:] + list(Mat.identity(n).data[i]) for i, row in enumerate(m.data)])
    r, pivots = rref(aug)
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        raise ValueError("matrix is singular")
    return Mat(n, n, [row[n:] for row in r.data])


def quotient(ambient_dim: int, relations: Subspace) -> tuple[Mat, Mat]:
    """Quotient of a coordinate space by a relation subspace.

    Returns (projection, section) with projection @ section == identity on the
    quotient and kernel(projection) == relations.  Representatives are the
    non-pivot coordinates of the relation echelon, so the choice is
    deterministic.
    """
    if relations.ambient_dim != ambient_dim:
        raise ValueError("relations live in a different ambient space")
    pivots = relations.pivots
    free = [c for c in range(ambient_dim) if c not in pivots]
    q = len(free)
    proj = Mat(q, ambient_dim)
    for k, f in enumerate(free):
        proj.data[k][f] = ONE
    for row, p in zip(relations.basis, pivots):
        # e_p == -sum_{free f} row[f] e_f modulo relations
        for k, f in enumerate(free):
            if row[f]:
                proj.data[k][p] = -row[f]
    sect = Mat(ambient_dim, q)
    for k, f in enumerate(free):
        sect.data[f][k] = ONE
    return proj, sect


# -- exact PSD certification --------------------------------------------------


class PsdCertificate:
    """Exact P^T L D L* P decomposition with nonnegative diagonal."""

    def __init__(self, perm: list[int], lower: Mat, diag: list[Scalar]):
        self.perm = perm
        self.lower = lower
        self.diag = diag

    @property
    def is_psd(self) -> bool:
        return True

    def strictly_positive(self) -> bool:
        return all(d.re > 0 for d in self.diag)

    def reconstruct(self) -> Mat:
        n = len(self.diag)
        d = Mat(n, n)
        for i, x in enumerate(self.diag):
            d.data[i][i] = x
        m = self.lower @ d @ self.lower.conj_transpose()
        out = Mat(n, n)
        for i in range(n):
            for j in range(n):
                out.data[self.perm[i]][self.perm[j]] = m.data[i][j]
        return out


class PsdCounterexample:
    """A vector v with v* g v < 0, certifying that g is not PSD."""

    def __init__(self, vector: list[Scalar], value: Scalar):
        self.vector = vector
        self.value = value

    @property
    def is_psd(self) -> bool:
        return False


def quadratic_form(g: Mat, v: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for i, a in enumerate(v):
        if not a:
            continue
        row = g.data[i]
        for j, b in enumerate(v):
            if b:
                acc = acc + a.conj() * row[j] * b
    return acc


def ldl_certify_psd(g: Mat):
    """Certify that a conjugate-symmetric matrix is PSD, or exhibit a witness.

    Uses exact LDL* with symmetric pivoting on positive diagonal entries.  A
    negative diagonal entry, or a zero diagonal with a nonzero off-diagonal
    entry in its row, yields an explicit counterexample vector.  Exactly one of
    the two outcomes is returned, and each is re-verified before returning.
    """
    if g.rows != g.cols:
        raise NotHermitian("matrix is not square")
    n = g.rows
    for i in range(n):
        for j in range(n):
            if g.data[i][j] != g.data[j][i].conj():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")
    a = [row[:] for row in g.data]
    perm = list(range(n))
    # trans[k] expresses current coordinate k in terms of original coordinates
    trans = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        trans[i][i] = ONE
    lower = Mat.identity(n)
    diag: list[Scalar] = [ZERO] * n

    def counterexample_from(vec_current):
        v = [ZERO] * n
        for k, c in enumerate(vec_current):
            if c:
                for j in range(n):
                    if trans[k][j]:
                        v[j] = v[j] + c * trans[k][j]
        value = quadratic_form(g, v)
        assert value.is_real() and value.re < 0, "internal witness check failed"
        return PsdCounterexample(v, value)

    for step in range(n):
        # find a usable pivot among remaining diagonal entries
        pivot = None
        for i in range(step, n):
            d = a[i][i]
            if not d.is_real():
                raise NotHermitian(f"diagonal entry {i} is not real")
            if d.re > 0:
                pivot = i
                break
            if d.re < 0:
                e = [ZERO] * n
                e[i] = ONE
                return counterexample_from(e)
        if pivot is None:
            # all remaining diagonals vanish; any nonzero off-diagonal kills PSD
            for i in range(step, n):
                for j in range(step, n):
                    if i != j and a[i][j]:
                        gij = a[i][j]
                        # a_ii = a_jj = 0 here, so v = g_ij e_i - e_j gives
                        # v* a v = -2 |g_ij|^2 < 0
                        v = [ZERO] * n
                        v[i] = gij
                        v[j] = -ONE
                        val = (
                            v[i].conj() * a[i][i] * v[i]
                            + v[i].conj() * a[i][j] * v[j]
                            + v[j].conj() * a[j][i] * v[i]
                            + v[j].conj() * a[j][j] * v[j]
                        )
                        assert val.re < 0
                        return counterexample_from(v)
            break
        if pivot != step:
            a[step], a[pivot] = a[pivot], a[step]
            for row in a:
                row[step], row[pivot] = row[pivot], row[step]
            trans[step], trans[pivot] = trans[pivot], trans[step]
            perm[step], perm[pivot] = perm[pivot], perm[step]
            # swap the already-written part of L (columns before this step)
            for j in range(step):
                lower.data[step][j], lower.data[pivot][j] = (
                    lower.data[pivot][j],
                    lower.data[step][j],
                )
        d = a[step][step]
        diag[step] = d
        for i in range(step + 1, n):
            f = a[i][step] / d
            if f:
                lower.data[i][step] = f
                for j in range(step, n):
                    a[i][j] = a[i][j] - f * a[step][j]
                for j in range(n):
                    a[j][i] = a[j][i] - f.conj() * a[j][step]
                # congruence A -> E A E* sends the new basis vector e_i back to
                # e_i - conj(f) e_step in the previous coordinates
                fc = f.conj()
                for j in range(n):
                    if trans[step][j]:
                        trans[i][j] = trans[i][j] - fc * trans[step][j]
    cert = PsdCertificate(perm, Mat(n, n, [row[:] for row in lower.data]), diag)
    assert cert.reconstruct() == g, "internal certificate check failed"
    return cert
