"""Sparse exact matrices, row reduction, kernels, quotients and PSD certificates.

A ``Mat`` stores only its nonzero entries, column by column (compressed
sparse columns, as in T. A. Davis, *Direct Methods for Sparse Linear Systems*,
SIAM 2006).  Products, Kronecker products, sums and transposes touch only
those nonzeros: an empty column of a product's right factor, or of either
Kronecker factor, costs one append to the result and no other work.  Row
reduction has one routine, ``SparseEchelon``, which keeps each reduced row as a
dict of its nonzeros; ``rref``, ``rank``, ``kernel``, ``inverse`` and ``span``
all go through it, ``span`` after it takes each one-entry vector as a
coordinate kill, a unit pivot row with no echelon step, as sparse direct
solvers remove singletons (the basis is unique, so it does not change).
Only the PSD certificate works on a dense copy, and it moves no row or column
of it: exact LDL* eliminates over an order of the indices, pivots first, and
carries a counterexample back to the original coordinates by walking the
pivots in reverse.

The kernel does not pay for the units, for identity factors or for the
bookkeeping of short sums:

* a product with ``ONE`` on either side is the other factor, in ``@`` (and so
  in ``ikron_mul``), ``mul_ikron``, ``kron`` and row reduction; in all but
  row reduction a product with ``NEG_ONE`` on either side is the other
  factor's negation.  Scalars are canonical (``scalars``),
  so every zero is ``ZERO`` and every unit one of the two objects: each of
  these tests is an identity test.  Negating a shared integer is a table
  lookup with no construction (``scalars``), and ``mul_ikron`` negates a
  column of A at most once a call, however many -1 entries of X's row it meets;
* two one-entry columns are summed directly, into two sorted entries, one
  entry or ``[]`` when they cancel, with no dict and no sort (``add_columns``):
  in ``_accumulate``, so in ``Mat`` ``+``/``-``, ``Graded.sum``/``+``/``-`` and
  every graded product, and in the balancing map of ``bimodule``.  A column
  that takes further terms is summed in a dict and sorted once;
* identity factors are applied, not built: ``A.mul_ikron(n, X, m)`` is
  ``A @ (I_n (x) X (x) I_m)``, one scatter of A's nonempty columns through
  X's rows, so it pays for nonzeros and not for output columns, which in
  these products are mostly empty (hypersparse, as in Buluc and Gilbert,
  IPDPS 2008); ``ikron_mul(n, X, m, B)`` is ``(I_n (x) X (x) I_m) @ B``, B's
  rows relabelled through X.  By the mixed-product rule an identity factor only
  relabels rows and columns.  When both factors of a product carry one, as in
  the evaluation and coevaluation contractions ``(ev (x) id)(id (x) x)`` and
  ``(id (x) ev)(x (x) id)``, ``contract(X, m, n, y)`` is
  ``(X (x) I_m)(I_n (x) y)`` and its mirror ``(I_m (x) X)(y (x) I_n)``: an
  entry of y is copied only where it meets a nonzero column of X.  ``kron``
  with an identity stays only where a matrix itself is needed, as the input
  of ``span`` or ``kernel``.

A map between graded sums is a ``Graded``: ``Mat`` blocks keyed by degree, or
by (target, source) degrees; its products act block by block or sum over the
middle degree, each sum sorting every output column once.
``Graded.first_mismatch`` is the one witness rule; ``first_mismatch`` applies it to one matrix.
The rule takes the domain's legs in column order and reads them in a stated
order: an identity on Kron(X, A) is checked on its own columns, no permutation
of its legs built, and its witness still names a before x.

A subspace has one form: its canonical reduced echelon basis as the columns
of a ``Mat`` (``span``, ``kernel``).  ``quotient`` turns it into a projection
whose kernel is the subspace, so membership is a product that must vanish.

Everything here is deterministic: row reduction keeps its rows fully reduced,
so it ends in the unique reduced echelon form whatever the order of the rows,
and echelon bases (and hence all quotient coordinates built on top of them)
are reproducible across runs.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import prod
from typing import Iterable, Sequence

from .scalars import NEG_ONE, ONE, ZERO, Scalar, sc


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
            for j, x in enumerate(map(sc, row)):
                if x is not ZERO:
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
            columns.append([(i, x) for i, x in enumerate(map(sc, col)) if x is not ZERO])
        return Mat(rows, len(cols), columns)

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, Scalar]]) -> "Mat":
        """From ``(row, col, value)`` triples; values at the same place add up."""
        acc: list[dict[int, Scalar]] = [{} for _ in range(cols)]
        for i, j, v in entries:
            col = acc[j]
            col[i] = col[i] + v if i in col else v
        return Mat(rows, cols, [[(i, v) for i, v in sorted(col.items()) if v is not ZERO] for col in acc])

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
        return _accumulate(((0, self), (0, other)))[0]

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
        return Mat(self.rows, other.cols, _gather(self._cols_sparse, other._cols_sparse))

    def mul_ikron(self, n: int, x: "Mat", m: int) -> "Mat":
        """``self @ (I_n (x) x (x) I_m)`` without building the Kronecker factor.

        One scatter over the nonzeros (x is p x q), x's indexed by row once: the
        nonempty column ``(i*p + j)*m + k`` of self, times x[j, l], goes to output
        column ``(i*q + l)*m + k`` for each nonzero x[j, l] of row j, so an empty
        column of self, or of the product, costs nothing beyond its share of one list.
        A column that takes one ``ONE`` term is self's column itself, and a column
        of self is negated at most once a call, however many -1 entries of row j
        meet it; an output column that takes a second term is summed in a dict of
        its own, never in place, and its zero sums are dropped.  With no identity
        factor (n = m = 1) it is ``self @ x``."""
        p, q = x.rows, x.cols
        if self.cols != n * p * m:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ (I_{n} (x) {p}x{q} (x) I_{m})")
        if n == m == 1:
            return self @ x
        xrows: dict[int, list] = {}  # the nonempty rows of x: j -> [(l*m, x[j, l])]
        for l, col in enumerate(x._cols_sparse):
            for j, v in col:
                if j in xrows:
                    xrows[j].append((l * m, v))
                else:
                    xrows[j] = [(l * m, v)]
        empty = []
        out = [empty] * (n * q * m)
        sums: dict[int, dict[int, Scalar]] = {}  # the output columns two or more terms land in
        pm, qm = p * m, q * m
        for i in range(n):
            for jk, col in enumerate(self._cols_sparse[i * pm : (i + 1) * pm]):
                if not col:
                    continue
                j, k = divmod(jk, m)
                if j not in xrows:
                    continue
                base, neg = i * qm + k, None
                for lm, v in xrows[j]:
                    if v is ONE:
                        term = col
                    elif v is NEG_ONE:
                        if neg is None:
                            neg = [(r, -a) for r, a in col]
                        term = neg
                    else:
                        term = [(r, v if a is ONE else -v if a is NEG_ONE else a * v) for r, a in col]
                    t = base + lm
                    prev = out[t]
                    if prev is empty:
                        out[t] = term
                        continue
                    acc = sums.get(t)
                    if acc is None:
                        acc = sums[t] = dict(prev)
                    for r, a in term:
                        s = acc.get(r)
                        acc[r] = a if s is None else s + a
        for t, acc in sums.items():
            out[t] = [(r, s) for r, s in sorted(acc.items()) if s is not ZERO]
        return Mat(self.rows, n * q * m, out)

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

    # -- application to vectors ---------------------------------------------

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """The matrix applied to a dense coordinate list.  The library multiplies
        one-column ``Mat``s instead; this stays for the dense test oracles and as a
        name the benchmark's tracer wraps."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        out = [ZERO] * self.rows
        for x, col in zip(vec, self._cols_sparse):
            if x is ZERO or not col:
                continue
            for i, v in col:
                out[i] = out[i] + v * x
        return out

    def kron(self, other: "Mat") -> "Mat":
        """Column j*q + l of A (x) B holds a * b at row i*p + k for (i, a) in
        A[:, j] and (k, b) in B[:, l], where B is p x q."""
        p, ocols = other.rows, other._cols_sparse
        out, empty = [], []
        for col in self._cols_sparse:
            if not col:
                out += [empty] * len(ocols)
                continue
            for ocol in ocols:
                if not ocol:
                    out.append(empty)
                    continue
                out.append(
                    [
                        (
                            i * p + k,
                            b if a is ONE else a if b is ONE else -b if a is NEG_ONE else -a if b is NEG_ONE else a * b,
                        )
                        for i, a in col
                        for k, b in ocol
                    ]
                )
        return Mat(self.rows * p, self.cols * other.cols, out)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def _gather(acols, bcols) -> list:
    """The sparse columns of A @ B from those of A (anything indexable by row of
    B) and of B.  A column of B is read without its terms on empty columns of A;
    if one term is left and it is ``ONE``, the product shares A's column, and the
    empty columns of the product share one list.  A product with ``ONE`` on either
    side is the other factor, and one with ``NEG_ONE`` its negation."""
    out = []
    append = out.append
    empty = []
    for col in bcols:
        if not col:
            append(empty)
            continue
        if len(col) > 1:
            col = [t for t in col if acols[t[0]]]
            if not col:
                append(empty)
                continue
            if len(col) > 1:
                acc: dict[int, Scalar] = {}
                for k, v in col:
                    if v is ONE:
                        for i, x in acols[k]:
                            s = acc.get(i)
                            acc[i] = x if s is None else s + x
                    elif v is NEG_ONE:
                        for i, x in acols[k]:
                            s = acc.get(i)
                            acc[i] = -x if s is None else s - x
                    else:
                        for i, x in acols[k]:
                            x = v if x is ONE else -v if x is NEG_ONE else x * v
                            s = acc.get(i)
                            acc[i] = x if s is None else s + x
                append([(i, s) for i, s in sorted(acc.items()) if s is not ZERO])
                continue
        (k, v), = col  # one term; a product of two nonzeros is nonzero: nothing to test
        if v is ONE:
            append(acols[k])
        elif v is NEG_ONE:
            append([(i, -x) for i, x in acols[k]])
        else:
            append([(i, v if x is ONE else -v if x is NEG_ONE else x * v) for i, x in acols[k]])
    return out


def ikron_mul(n: int, x: Mat, m: int, b: Mat) -> Mat:
    """``(I_n (x) x (x) I_m) @ b`` without building the Kronecker factor.

    Row ``(i*q + l)*m + k`` of b stands for column l of x moved to the rows
    ``(i*p + j)*m + k``; only the rows b holds are relabelled, each once, and
    the product gathers them (x is p x q).  A ``Graded`` x acts as ``Graded.mul_ikron`` does."""
    if isinstance(x, Graded):
        return _blockwise(x, b, lambda a, c: ikron_mul(n, a, m, c))
    p, q = x.rows, x.cols
    if b.rows != n * q * m:
        raise ValueError(f"shape mismatch (I_{n} (x) {p}x{q} (x) I_{m}) @ {b.rows}x{b.cols}")
    if n == m == 1:
        return x @ b
    xcols, bcols = x._cols_sparse, b._cols_sparse
    moved: dict[int, list] = {}
    for col in bcols:
        for r, _ in col:
            if r not in moved:
                i, l = divmod(r, q * m)
                l, k = divmod(l, m)
                base = i * p * m + k
                moved[r] = [(base + j * m, v) for j, v in xcols[l]]
    return Mat(n * p * m, b.cols, _gather(moved, bcols))


def contract(x: Mat, m: int, n: int, y: Mat, mirror: bool = False) -> Mat:
    """``(x (x) I_m)(I_n (x) y)``, or ``(I_m (x) x)(y (x) I_n)`` if ``mirror``, without
    building either identity factor: x contracts its leg of size w with y's.

    x is p x (n*w), or p x (w*n) mirrored, and y is (w*m) x c, or (m*w) x c; the
    result is (p*m) x (n*c), or (m*p) x (c*n).  n and m are given because a zero
    leg hides them: w = 0 leaves no way to read n from x or m from y.  The nonzero
    columns of x are indexed by their w leg, so each entry of y is copied only into
    the output columns whose column of x it meets, and ``ikron_mul`` applies x to
    those copies."""
    w = x.cols // n if n else y.rows // m if m else 0
    if x.cols != n * w or y.rows != w * m:
        raise ValueError(f"shape mismatch: {x.rows}x{x.cols} on I_{n} and I_{m} against {y.rows}x{y.cols}")
    xcols, c = x._cols_sparse, y.cols
    cols = [[] for _ in range(n * c)]
    if mirror:
        # entry (t*w + s, v) of y column k is entry ((t*w + s)*n + j, v) of y (x) I_n column k*n + j
        meets = [[j for j in range(n) if xcols[s * n + j]] for s in range(w)]
        for k, col in enumerate(y._cols_sparse):
            for r, v in col:
                for j in meets[r % w]:
                    cols[k * n + j].append((r * n + j, v))
        return ikron_mul(m, x, 1, Mat(m * w * n, c * n, cols))
    # entry (s*m + t, v) of y column k is entry (i*w*m + s*m + t, v) of I_n (x) y column i*c + k
    meets = [[i for i in range(n) if xcols[i * w + s]] for s in range(w)]
    for k, col in enumerate(y._cols_sparse):
        for r, v in col:
            for i in meets[r // m]:
                cols[i * c + k].append((i * w * m + r, v))
    return ikron_mul(1, x, m, Mat(n * w * m, n * c, cols))


class Graded(dict):
    """A linear map into a graded sum: block k, a ``Mat``, lands in degree k and a
    missing degree reads as zero.  Block (k, j) of a map keyed by pairs takes
    degree j to degree k; after a map keyed by j, ``@``, ``mul_ikron`` and
    ``ikron_mul`` sum over the middle degree j, and after a ``Mat`` they act
    block by block."""

    @staticmethod
    def over(family, degrees: Iterable[int]) -> "Graded":
        """The map acting by ``family(j)``, itself ``Graded``, on source degree j."""
        return Graded({(k, j): b for j in degrees for k, b in family(j).items()})

    @staticmethod
    def sum(terms: Iterable["Graded"]) -> "Graded":
        return _accumulate(chain.from_iterable(map(dict.items, terms)))

    def __add__(self, other: "Graded") -> "Graded":
        return _accumulate(chain(self.items(), other.items()))

    def __sub__(self, other: "Graded") -> "Graded":
        return _accumulate(chain(self.items(), ((k, -b) for k, b in other.items())))

    def __matmul__(self, other) -> "Graded":
        return _blockwise(self, other, Mat.__matmul__)

    def mul_ikron(self, n: int, x, m: int) -> "Graded":
        return _blockwise(self, x, lambda a, b: a.mul_ikron(n, b, m))

    def stacked(self, layout: dict[int, int]) -> Mat:
        """The blocks one above another in the order of ``layout``, block k taking
        ``layout[k]`` rows (a missing block reads as zero)."""
        offsets = dict(zip(layout, accumulate(layout.values(), initial=0)))
        cols = [[] for _ in range(next(iter(self.values())).cols)]
        for k in sorted(self, key=offsets.__getitem__):  # a degree not in the layout raises KeyError
            for col, out in zip(self[k]._cols_sparse, cols):
                out.extend((offsets[k] + i, v) for i, v in col)
        return Mat(sum(layout.values()), len(cols), cols)

    def first_mismatch(
        self, other: "Graded", shape: Sequence[int], prefix: int | None = None, order: Sequence[int] | None = None
    ):
        """Where ``self == other`` first fails, or None if it holds.

        The blocks are maps on one Kronecker domain Kron(X1, ..., Xr), its columns
        in that order of the legs, with ``shape = (|X1|, ..., |Xr|)``; ``order`` lists
        the legs in the order the witness reads them, by default as they come.  The
        witness is ``(x, k)``: x the first ``prefix`` basis indices (all r by default),
        read in ``order``, of a domain column where degree k differs, the smallest such
        x and then the smallest degree, as nested loops over the legs in ``order`` and
        then over degrees find it.  The two blocks of a degree must have one shape,
        with ``prod(shape)`` columns.
        """
        legs = range(len(shape)) if order is None else order
        read = [(prod(shape[leg + 1 :]), shape[leg]) for leg in legs[:prefix]]
        size, best = prod(shape), None
        for k in self.keys() | other.keys():
            left, right = self.get(k), other.get(k)
            block = left or right  # a missing degree reads as zero
            if block.cols != size or (left and right and (left.rows, left.cols) != (right.rows, right.cols)):
                raise ValueError(f"shape mismatch in degree {k} on a domain of shape {tuple(shape)}")
            lcols = left._cols_sparse if left else [[]] * size
            rcols = right._cols_sparse if right else [[]] * size
            differ = [c for c, (lc, rc) in enumerate(zip(lcols, rcols)) if lc != rc]
            if differ:
                x = min(tuple(c // stride % n for stride, n in read) for c in differ)
                best = (x, k) if best is None else min(best, (x, k))
        return None if best is None else (*best[0], best[1])


def _blockwise(a: Graded, b, product) -> Graded:
    """``product`` of the blocks of a with b if b is a ``Mat``; if b is ``Graded``, a is
    keyed by pairs and block k is the sum over j of the products of a[k, j] with b[j]."""
    if not isinstance(b, Graded):
        return Graded({k: product(x, b) for k, x in a.items()})
    return _accumulate((k, product(x, b[j])) for (k, j), x in a.items() if j in b)


def _accumulate(terms) -> Graded:
    """The sum of ``(key, Mat)`` terms key by key, taken as they arrive.  A key's
    first term is kept as it is.  Where a later term and the column it adds to
    both hold one entry, ``add_columns`` sums them with no dict and no sort: two
    sorted entries, one entry, or ``[]`` when they cancel.  Any other column that
    a later term adds to becomes a dict of its nonzero entries, and each such
    column is sorted once, at the end."""
    out, summed = Graded(), {}
    for key, mat in terms:
        if key in out:  # a second term: the first one's columns stay only where no term adds to them
            summed[key] = (out[key].rows, out[key].cols, list(out.pop(key)._cols_sparse))
        elif key not in summed:
            out[key] = mat
            continue
        rows, ncols, cols = summed[key]
        if (rows, ncols) != (mat.rows, mat.cols):
            raise ValueError("shape mismatch")
        for j, col in enumerate(mat._cols_sparse):
            into = cols[j]
            if not (col and into):
                cols[j] = col or into
                continue
            if type(into) is list:
                if len(into) == len(col) == 1:
                    cols[j] = add_columns(into, col)
                    continue
                into = cols[j] = dict(into)
            for i, v in col:
                s = into.get(i)
                if s is None:
                    into[i] = v
                elif (s := s + v) is ZERO:
                    del into[i]
                else:
                    into[i] = s
    for key, (rows, ncols, cols) in summed.items():
        out[key] = Mat(rows, ncols, [sorted(c.items()) if type(c) is dict else c for c in cols])
    return out


def add_columns(p: list, q: list) -> list:
    """The sum of two sparse columns, sorted by row with zeros dropped.  Two one-entry
    columns are summed with no dict and no sort: two sorted entries, one entry, or
    ``[]`` when they cancel."""
    if len(p) == len(q) == 1:
        (a,), (b,) = p, q
        if a[0] != b[0]:
            return [a, b] if a[0] < b[0] else [b, a]
        s = a[1] + b[1]
        return [] if s is ZERO else [(a[0], s)]
    summed = dict(p)
    for i, w in q:
        s = summed.get(i)
        summed[i] = w if s is None else s + w
    return [(i, v) for i, v in sorted(summed.items()) if v is not ZERO]


def first_mismatch(lhs: Mat, rhs: Mat, shape: Sequence[int], order: Sequence[int] | None = None):
    """Where ``lhs == rhs`` first fails, as basis indices read in ``order``, or
    None: the witness rule of ``Graded.first_mismatch`` on one degree."""
    fail = Graded({0: lhs}).first_mismatch(Graded({0: rhs}), shape, order=order)
    return None if fail is None else fail[:-1]


# -- vectors ---------------------------------------------------------------


def kron_vec(x: Sequence[Scalar], y: Sequence[Scalar]) -> list[Scalar]:
    """Dense Kronecker product of two coordinate lists.  The library takes
    products of one-column ``Mat``s with ``Mat.kron`` instead; this stays for
    the dense test oracles and as a name the benchmark's tracer wraps."""
    ny = len(y)
    out = [ZERO] * (len(x) * ny)
    for i, a in enumerate(x):
        if a is ZERO:
            continue
        base = i * ny
        for j, b in enumerate(y):
            if b is not ZERO:
                out[base + j] = a * b
    return out


# -- row reduction -----------------------------------------------------------


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns.

    The rows of m go into a :class:`SparseEchelon`; its pivot rows, in pivot
    order and padded with zero rows, are the result.  The reduced row-echelon
    form of a matrix is unique, so this is the matrix Gauss-Jordan elimination
    with leftmost pivots gives.
    """
    ech = SparseEchelon()
    for row in m.transpose().cols_sparse():
        ech.add_sparse(dict(row))
    pivots = sorted(ech.pivot_rows)
    cols = [[] for _ in range(m.cols)]
    for r, p in enumerate(pivots):
        for c, v in ech.pivot_rows[p].items():
            cols[c].append((r, v))
    return Mat(m.rows, m.cols, cols), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


class SparseEchelon:
    """Incremental reduced echelon basis built from sparse vectors.

    Rows are kept as dicts.  Insertion keeps the set fully reduced, so the
    final basis equals the canonical RREF basis of the span regardless of
    insertion order.  ``_holding[c]`` holds the pivot of every row with an entry
    in column c (and maybe of rows that had one), so that a new pivot is
    back-substituted only into the rows that may hold its column.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, Scalar]] = {}
        self._holding: dict[int, set[int]] = {}

    def add_sparse(self, row: dict[int, Scalar]) -> None:
        """Insert a vector given as a dict of its nonzero entries, which the echelon
        takes over: it may keep the dict as a pivot row or change it."""
        pivot_rows = self.pivot_rows
        if len(row) == 1:
            # a one-entry vector on the column of a one-entry pivot row is a multiple of it
            for c in row:
                if len(pivot_rows.get(c, ())) == 1:
                    return
        # subtract the multiple of each pivot row that clears its pivot column: a pivot row has no
        # entry in another pivot column, so one pass over the pivot columns row holds clears them all
        for c in [c for c in row if c in pivot_rows]:
            f = row[c]
            for cc, v in pivot_rows[c].items():
                fv = f if v is ONE else v if f is ONE else f * v
                x = row[cc] - fv if cc in row else -fv
                if x is ZERO:
                    del row[cc]
                else:
                    row[cc] = x
        if not row:
            return
        p = min(row)
        lead = row[p]
        # a lead of 1 stays as it is and one of -1 is negated; only other leads are divided out
        if lead is NEG_ONE:
            row = {c: -v for c, v in row.items()}
        elif lead is not ONE:
            inv = ONE / lead
            row = {c: v * inv for c, v in row.items()}
        # back-substitute into the rows that may hold column p, to stay fully reduced
        holding = self._holding
        for q in holding.pop(p, ()):
            existing = pivot_rows[q]
            if p in existing:
                f = existing[p]
                for cc, v in row.items():
                    fv = f if v is ONE else v if f is ONE else f * v
                    x = existing[cc] - fv if cc in existing else -fv
                    if x is ZERO:
                        del existing[cc]
                    else:
                        existing[cc] = x
                    holding.setdefault(cc, set()).add(q)
        for c in row:
            holding.setdefault(c, set()).add(p)
        pivot_rows[p] = row


def span(ambient_dim: int, sparse_vectors: Iterable) -> Mat:
    """The canonical RREF basis of the span of some vectors, one per column in
    pivot order: the first entry of each column is its pivot, equal to 1, and no
    column has an entry in another's pivot row.  A vector is a dict or a list of
    ``(index, value)`` pairs, as a column of a ``Mat``, a zero value counting as
    absent; this is the form :func:`quotient` takes.

    A one-entry vector kills its coordinate: its unit row, with no echelon step.  The
    others lose the killed coordinates and go through ``SparseEchelon``.  Both sets of
    rows together are fully reduced (a unit row has no entry in another pivot column,
    a reduced row none in a killed one), so they are the unique basis."""
    killed, rest = set(), []
    for vec in sparse_vectors:
        pairs = vec.items() if isinstance(vec, dict) else vec
        if len(vec) == 1:
            ((c, v),) = pairs
            if v is not ZERO:
                killed.add(c)
        elif vec:
            rest.append(pairs)
    ech = SparseEchelon()
    for pairs in rest:
        row = {c: v for c, v in pairs if v is not ZERO and c not in killed}
        if row:
            ech.add_sparse(row)
    cols = {p: sorted(row.items()) for p, row in ech.pivot_rows.items()}
    cols.update({c: [(c, ONE)] for c in killed})
    return Mat(ambient_dim, len(cols), [cols[p] for p in sorted(cols)])


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

    Uses exact LDL* with symmetric pivoting on positive diagonal entries (Golub
    and Van Loan, *Matrix Computations*, semidefinite LDL^T).  ``order`` lists the
    indices, pivots first: a step's pivot is the first remaining index in that
    order with a nonzero diagonal, it swaps places in ``order`` only, and the
    dense copy, kept on the original indices, takes the Schur complement on the
    indices after it.  A negative diagonal entry, or a zero diagonal with a
    nonzero off-diagonal entry among the remaining indices, yields an explicit
    counterexample vector.  Exactly one of the two outcomes is returned, and each
    is re-verified before returning.
    """
    if g.rows != g.cols:
        raise NotHermitian("matrix is not square")
    n = g.rows
    a = g._dense()
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i].conj():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")
    order = list(range(n))
    low = [[ZERO] * n for _ in range(n)]  # low[i][k]: L's entry of index i at step k
    diag: list[Scalar] = [ZERO] * n

    def counterexample(coeffs: dict[int, Scalar], step: int) -> PsdCounterexample:
        # At ``step`` the basis vector of index i is e_i - sum_{k < step} conj(low[i][k])
        # times the pivot vector of step k: walk the pivots in reverse to reach e-coordinates.
        v = [coeffs.get(i, ZERO) for i in range(n)]
        for k in reversed(range(step)):
            p = order[k]
            for i in order[k + 1 :]:
                if v[i] and low[i][k]:
                    v[p] = v[p] - low[i][k].conj() * v[i]
        value = quadratic_form(g, v)
        assert value.is_real() and value.re < 0, "internal witness check failed"
        return PsdCounterexample(v, value)

    for step in range(n):
        pivot = None
        for pos in range(step, n):
            d = a[order[pos]][order[pos]]
            if d.re > 0:
                pivot = pos
                break
            if d.re < 0:
                return counterexample({order[pos]: ONE}, step)
        if pivot is None:
            # the remaining diagonal vanishes, so v = a_ij e_i - e_j gives v* a v = -2 |a_ij|^2 there
            rest = order[step:]
            for i in rest:
                for j in rest:
                    if i != j and a[i][j]:
                        return counterexample({i: a[i][j], j: NEG_ONE}, step)
            break
        order[step], order[pivot] = order[pivot], order[step]
        p, rest = order[step], order[step + 1 :]
        d = diag[step] = a[p][p]
        for i in rest:
            f = a[i][p] / d
            if f:
                low[i][step] = f
                for j in rest:
                    a[i][j] = a[i][j] - f * a[p][j]
    for pos, i in enumerate(order):
        low[i][pos] = ONE
    cert = PsdCertificate(order, Mat.from_rows([low[i] for i in order], n), diag)
    assert cert.reconstruct() == g, "internal certificate check failed"
    return cert
