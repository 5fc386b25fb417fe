"""Sparse exact matrices, row reduction, kernels, quotients and PSD certificates.

A ``Mat`` stores only its nonzero entries, column by column (compressed
sparse columns, as in T. A. Davis, *Direct Methods for Sparse Linear Systems*,
SIAM 2006).  Products, Kronecker products, sums and transposes touch only
those nonzeros: an empty column of a product's right factor, or of either
Kronecker factor, costs one append to the result and no other work.  Row
reduction and the PSD certificate work on a dense copy.

A subspace has one form: its canonical reduced echelon basis as the columns
of a ``Mat`` (``span``, ``kernel``).  ``quotient`` turns it into a projection
whose kernel is the subspace, so membership is a product that must vanish.

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
    """An immutable matrix of Scalars, stored as sparse columns.

    ``_cols_sparse[j]`` lists the nonzero entries of column ``j`` as
    ``(row, value)`` pairs sorted by row; a zero is never stored.  Columns are
    never mutated once built, so results may share them.  ``data`` is a dense
    read-only view (a tuple of row tuples), built on each access.
    """

    __slots__ = ("rows", "cols", "_cols_sparse")

    def __init__(self, rows: int, cols: int, columns=None):
        self.rows = rows
        self.cols = cols
        self._cols_sparse = [[] for _ in range(cols)] if columns is None else columns

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, [[(i, ONE)] for i in range(n)])

    @staticmethod
    def swap(p: int, q: int) -> "Mat":
        """The flip Kron(P, Q) -> Kron(Q, P), where |P| = p and |Q| = q."""
        return Mat(p * q, p * q, [[(j * p + i, ONE)] for i in range(p) for j in range(q)])

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        """From dense rows of anything ``sc`` accepts; ``cols`` is needed only
        when there are no rows."""
        if cols is None:
            cols = len(rows[0]) if rows else 0
        columns = [[] for _ in range(cols)]
        for i, row in enumerate(rows):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                if x is not ZERO:
                    x = sc(x)
                    if x:
                        columns[j].append((i, x))
        return Mat(len(rows), cols, columns)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], rows: int | None = None) -> "Mat":
        """From dense columns of anything ``sc`` accepts; ``rows`` is needed only
        when there are no columns."""
        if rows is None:
            rows = len(cols[0]) if cols else 0
        columns = []
        for col in cols:
            if len(col) != rows:
                raise ValueError("ragged columns")
            columns.append([(i, x) for i, x in enumerate(map(sc, col)) if x])
        return Mat(rows, len(cols), columns)

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, Scalar]]) -> "Mat":
        """From ``(row, col, value)`` triples; values at the same place add up."""
        acc: list[dict[int, Scalar]] = [{} for _ in range(cols)]
        for i, j, v in entries:
            col = acc[j]
            col[i] = col[i] + v if i in col else v
        return Mat(rows, cols, [[(i, v) for i, v in sorted(col.items()) if v] for col in acc])

    # -- dense views -----------------------------------------------------------

    def _dense(self) -> list[list[Scalar]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._cols_sparse):
            for i, v in col:
                out[i][j] = v
        return out

    @property
    def data(self) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(map(tuple, self._dense()))

    def column(self, j: int) -> list[Scalar]:
        out = [ZERO] * self.rows
        for i, v in self._cols_sparse[j]:
            out[i] = v
        return out

    def cols_sparse(self) -> list[list[tuple[int, Scalar]]]:
        return self._cols_sparse

    # -- basic ops ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._cols_sparse == other._cols_sparse

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.rows, self.cols, [_merge(a, b) for a, b in zip(self._cols_sparse, other._cols_sparse)])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [[(i, -v) for i, v in col] for col in self._cols_sparse])

    def scale(self, s) -> "Mat":
        s = sc(s)
        if not s:
            return Mat(self.rows, self.cols)
        return Mat(self.rows, self.cols, [[(i, s * v) for i, v in col] for col in self._cols_sparse])

    def __matmul__(self, other: "Mat") -> "Mat":
        """Column gather: column j of A @ B is the sum of v * A[:, k] over (k, v) in B[:, j]."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        acols = self._cols_sparse
        out = []
        for col in other._cols_sparse:
            if not col:
                out.append([])
                continue
            if len(col) == 1:
                k, v = col[0]
                # a product of two nonzeros is nonzero: nothing to test
                out.append(acols[k] if v is ONE else [(i, x * v) for i, x in acols[k]])
                continue
            acc: dict[int, Scalar] = {}
            for k, v in col:
                if v is ONE:
                    for i, x in acols[k]:
                        s = acc.get(i)
                        acc[i] = x if s is None else s + x
                else:
                    for i, x in acols[k]:
                        x = x * v
                        s = acc.get(i)
                        acc[i] = x if s is None else s + x
            out.append([(i, s) for i, s in sorted(acc.items()) if s])
        return Mat(self.rows, other.cols, out)

    def transpose(self) -> "Mat":
        out = [[] for _ in range(self.rows)]
        for j, col in enumerate(self._cols_sparse):
            for i, v in col:
                out[i].append((j, v))
        return Mat(self.cols, self.rows, out)

    def conj(self) -> "Mat":
        """Entrywise conjugate."""
        return Mat(self.rows, self.cols, [[(i, v.conj()) for i, v in col] for col in self._cols_sparse])

    def conj_transpose(self) -> "Mat":
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return not any(self._cols_sparse)

    def _check_same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- application to vectors ---------------------------------------------

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        out = [ZERO] * self.rows
        for x, col in zip(vec, self._cols_sparse):
            if x is ZERO or not col or not x:
                continue
            for i, v in col:
                out[i] = out[i] + v * x
        return out

    def kron(self, other: "Mat") -> "Mat":
        """Column j*q + l of A (x) B holds a * b at row i*p + k for (i, a) in
        A[:, j] and (k, b) in B[:, l], where B is p x q."""
        p, ocols = other.rows, other._cols_sparse
        out = []
        for col in self._cols_sparse:
            if not col:
                out += [[]] * len(ocols)
                continue
            for ocol in ocols:
                if not ocol:
                    out.append([])
                    continue
                out.append(
                    [
                        (i * p + k, b if a is ONE else a if b is ONE else a * b)
                        for i, a in col
                        for k, b in ocol
                    ]
                )
        return Mat(self.rows * p, self.cols * other.cols, out)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def _merge(a: list, b: list) -> list:
    """The sparse column a + b."""
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for i, v in b:
        s = acc.get(i)
        if s is None:
            acc[i] = v
        else:
            s = s + v
            if s:
                acc[i] = s
            else:
                del acc[i]
    return sorted(acc.items())


def first_mismatch(lhs, rhs, shape: Sequence[int]):
    """Where the identity ``lhs == rhs`` first fails, or None if it holds.

    ``lhs`` and ``rhs`` are matrices on one Kronecker domain Kron(X1, ..., Xr)
    with ``shape = (|X1|, ..., |Xr|)``, or dicts of them keyed by degree, a
    missing degree reading as zero.  The witness is the first column that
    differs, split back into basis indices ``(x1, ..., xr)``: the first failure
    of nested loops over X1, ..., Xr.  For dicts the degree follows the
    indices, the smallest degree on a tie.
    """
    keyed = isinstance(lhs, dict)
    if not keyed:
        lhs, rhs = {0: lhs}, {0: rhs}
    best = None
    for m in sorted(set(lhs) | set(rhs)):
        left, right = lhs.get(m), rhs.get(m)
        lcols = left.cols_sparse() if left is not None else [[]] * right.cols
        rcols = right.cols_sparse() if right is not None else [[]] * left.cols
        stop = len(lcols) if best is None else best[0]
        c = next((c for c in range(stop) if lcols[c] != rcols[c]), None)
        if c is not None:
            best = (c, m)
    if best is None:
        return None
    c, m = best
    indices = []
    for size in reversed(shape):
        c, i = divmod(c, size)
        indices.append(i)
    indices.reverse()
    return (*indices, m) if keyed else tuple(indices)


# -- vectors ---------------------------------------------------------------


def kron_vec(x: Sequence[Scalar], y: Sequence[Scalar]) -> list[Scalar]:
    """Dense Kronecker product of two coordinate lists.  The library takes
    products of one-column ``Mat``s with ``Mat.kron`` instead; this stays for
    the dense test oracles and as a name the benchmark's tracer wraps."""
    ny = len(y)
    out = [ZERO] * (len(x) * ny)
    for i, a in enumerate(x):
        if a is ZERO or not a:
            continue
        base = i * ny
        for j, b in enumerate(y):
            if b is not ZERO and b:
                out[base + j] = a * b
    return out


# -- row reduction -----------------------------------------------------------


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form with deterministic leftmost-pivot choice."""
    a = m._dense()
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
    return Mat.from_rows(a, cols), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


class SparseEchelon:
    """Incremental reduced echelon basis built from sparse vectors.

    Rows are kept as dicts.  Insertion keeps the set fully reduced, so the
    final basis equals the canonical RREF basis of the span regardless of
    insertion order.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, Scalar]] = {}

    def _reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """Subtract from ``row`` the multiple of each pivot row that clears its
        pivot column.  A pivot row has no entry in another pivot column, so one
        pass over the pivot columns ``row`` holds at the start clears them all."""
        for c in [c for c in row if c in self.pivot_rows]:
            f = row[c]
            for cc, v in self.pivot_rows[c].items():
                x = row.get(cc, ZERO) - f * v
                if x:
                    row[cc] = x
                else:
                    del row[cc]
        return row

    def add_sparse(self, row: dict[int, Scalar]) -> None:
        """Insert a vector."""
        row = self._reduce({c: v for c, v in row.items() if v})
        if not row:
            return
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


def span(ambient_dim: int, sparse_vectors: Iterable) -> Mat:
    """The canonical RREF basis of the span of some vectors, one per column in
    pivot order: the first entry of each column is its pivot, equal to 1, and no
    column has an entry in another's pivot row.  A vector is a dict or a list of
    ``(index, value)`` pairs; this is the form :func:`quotient` takes."""
    ech = SparseEchelon()
    for vec in sparse_vectors:
        ech.add_sparse(dict(vec))
    return Mat(ambient_dim, len(ech.pivot_rows), [sorted(ech.pivot_rows[p].items()) for p in sorted(ech.pivot_rows)])


def kernel(m: Mat) -> Mat:
    """Canonical basis of the null space of m, as columns (see :func:`span`)."""
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = r.cols_sparse()
    return span(m.cols, ([(pivots[i], -x) for i, x in cols[f]] + [(f, ONE)] for f in free))


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    aug = Mat(n, 2 * n, m._cols_sparse + Mat.identity(n)._cols_sparse)
    r, pivots = rref(aug)
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        raise ValueError("matrix is singular")
    return Mat(n, n, r._cols_sparse[n:])


def quotient(relations: Mat) -> tuple[Mat, Mat]:
    """Quotient of a coordinate space by the span of the columns of ``relations``.

    The columns must be a reduced echelon basis, as :func:`span` returns it.
    Returns (projection, section) with projection @ section == identity on the
    quotient and kernel(projection) == the relation span, so a vector lies in
    the span exactly when the projection kills it.  Representatives are the
    non-pivot coordinates, so the choice is deterministic.
    """
    cols = relations.cols_sparse()
    pivot_set = {col[0][0] for col in cols}
    free = [c for c in range(relations.rows) if c not in pivot_set]
    index = {f: k for k, f in enumerate(free)}
    proj_cols = [None] * relations.rows
    for f, k in index.items():
        proj_cols[f] = [(k, ONE)]
    for col in cols:
        # e_p == -sum_{free f} col[f] e_f modulo relations
        proj_cols[col[0][0]] = [(index[f], -v) for f, v in col[1:]]
    sect_cols = [[(f, ONE)] for f in free]
    return Mat(len(free), relations.rows, proj_cols), Mat(relations.rows, len(free), sect_cols)


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
        d = Mat.from_entries(n, n, ((i, i, x) for i, x in enumerate(self.diag)))
        m = self.lower @ d @ self.lower.conj_transpose()
        perm = self.perm
        return Mat.from_entries(n, n, ((perm[i], perm[j], v) for j, col in enumerate(m._cols_sparse) for i, v in col))


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
    for j, b in enumerate(v):
        if not b:
            continue
        for i, x in g._cols_sparse[j]:
            a = v[i]
            if a:
                acc = acc + a.conj() * x * b
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
    a = g._dense()
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i].conj():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")
    perm = list(range(n))
    # trans[k] expresses current coordinate k in terms of original coordinates
    trans = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        trans[i][i] = ONE
    lower = Mat.identity(n)._dense()
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
                lower[step][j], lower[pivot][j] = lower[pivot][j], lower[step][j]
        d = a[step][step]
        diag[step] = d
        for i in range(step + 1, n):
            f = a[i][step] / d
            if f:
                lower[i][step] = f
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
    cert = PsdCertificate(perm, Mat.from_rows(lower, n), diag)
    assert cert.reconstruct() == g, "internal certificate check failed"
    return cert
