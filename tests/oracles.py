"""Element-by-element oracles that tests compare the matrix identities with.

The library works with whole matrices and one-column sparse coordinates;
these read one element at a time through dense coordinate lists: through a
tensor pair's projection and section, the pairing of a dual basis, or a
product table applied to a dense Kronecker vector, the way the library
computed them before they became products.  The algebra's product, star and
right action are read the same way, one dense coordinate list at a time, and
row reduction is the dense Gauss-Jordan elimination the library ran before
it reduced sparse rows.
"""

from ncdiffop.linalg import Mat, kron_vec, span
from ncdiffop.scalars import ONE, ZERO


def col(coords) -> Mat:
    """Dense coordinates as a one-column matrix."""
    return Mat.from_cols([coords])


def vec_is_zero(x) -> bool:
    return all(a is ZERO or not a for a in x)


def lift(pair, vec):
    """The canonical plain-tensor representative of an element of E (x)_A F."""
    return pair.section.apply(vec)


def left_apply(M, a, e):
    """a.e for dense coordinates a in A and e in the bimodule M."""
    out = [ZERO] * M.dim
    for i, c in enumerate(a):
        if c:
            for k, v in enumerate(M.left[i].apply(e)):
                if v:
                    out[k] = out[k] + c * v
    return out


def push(pair, plain):
    """The class in E (x)_A F of a plain tensor."""
    return pair.project.apply(plain)


def pair_apply(fgp, alpha, xi):
    """A dual element evaluated on a module element, landing in A."""
    return fgp.apply_mat.apply(kron_vec(alpha, xi))


def bullet_k(table, v, n, w, m, k):
    """v o_k w on dense coordinates of V(n) and V(m)."""
    return table.table(n, m, k).apply(kron_vec(v, w))


def bullet(x, y, table) -> dict:
    """The dense components, keyed by degree, of the product x bullet y."""
    out = {}
    for n in x.components:
        for m in y.components:
            for k in range(n + m + 1):
                term = bullet_k(table, x.component(n), n, y.component(m), m, k)
                if not vec_is_zero(term):
                    out[k] = [a + b for a, b in zip(out[k], term)] if k in out else term
    return out


def act_on(x, module, e):
    """The operator x applied to a dense module element, summed degree by degree."""
    out = [ZERO] * module.space.dim
    for n in x.components:
        term = module.act_table(n).apply(kron_vec(x.component(n), e))
        out = [a + b for a, b in zip(out, term)]
    return out


def right_bullet_by_algebra(table, n, a_coords, v_coords) -> dict:
    """v bullet a for homogeneous v of degree n.

    The top component is the plain right action; every lower degree picks up
    an iterated-derivative term, all the way down to degree zero.
    """
    out = {}
    for k in range(n, -1, -1):
        term = table.table(n, 0, k).apply(kron_vec(v_coords, a_coords))
        if any(term):
            out[k] = term
    return out


def crossing_apply(cm, n, v_coords, e_coords) -> dict:
    """theta on a degree-n tensor v (x) e; dense quotient coordinates per degree."""
    x = kron_vec(v_coords, e_coords)
    return {m: mat.apply(x) for m, mat in cm.theta(n).items()}


# -- the algebra, one dense coordinate list at a time ----------------------------


def unit_row(dim: int, i: int) -> list:
    """The i-th basis vector as dense coordinates."""
    v = [ZERO] * dim
    v[i] = ONE
    return v


def mul_tensor(algebra) -> list:
    """The structure tensor: ``mul_tensor(A)[i][j]`` lists the coordinates of a_i a_j."""
    d = algebra.dim
    return [[algebra.mul.column(i * d + j) for j in range(d)] for i in range(d)]


def mul(algebra, x, y) -> list:
    """The product of two dense coordinate lists, by the bilinear extension of the structure tensor."""
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise ValueError("coordinate vectors must have the algebra dimension")
    table = mul_tensor(algebra)
    out = [ZERO] * algebra.dim
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            ab = a * b
            for k, c in enumerate(table[i][j]):
                if c:
                    out[k] = out[k] + ab * c
    return out


def left_mult_matrix(algebra, x) -> Mat:
    """Left multiplication by the element with dense coordinates x."""
    out = Mat.zeros(algebra.dim, algebra.dim)
    for i, a in enumerate(x):
        if a:
            out = out + algebra.left_mult[i].scale(a)
    return out


def apply_star(algebra, x) -> list:
    """x* for dense coordinates x: the star is conjugate-linear."""
    return algebra.star.apply([a.conj() for a in x])


def right_apply(M, e, a) -> list:
    """e.a for dense coordinates e in the bimodule M and a in A."""
    out = [ZERO] * M.dim
    for i, c in enumerate(a):
        if c:
            for k, v in enumerate(M.right[i].apply(e)):
                if v:
                    out[k] = out[k] + c * v
    return out


# -- dense Gauss-Jordan elimination -------------------------------------------


def rref(m: Mat):
    """Reduced row-echelon form on a dense copy, leftmost pivot column and first usable row."""
    a = [list(row) for row in m.data]
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


def kernel(m: Mat) -> Mat:
    """Canonical basis of the null space, from the dense reduced form."""
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = r.cols_sparse()
    return span(m.cols, ([(pivots[i], -x) for i, x in cols[f]] + [(f, ONE)] for f in free))


def inverse(m: Mat) -> Mat:
    """The inverse read off the dense reduced form of [m | I]; ValueError if m is singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    r, pivots = rref(Mat(n, 2 * n, m.cols_sparse() + Mat.identity(n).cols_sparse()))
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        raise ValueError("matrix is singular")
    return Mat(n, n, r.cols_sparse()[n:])
