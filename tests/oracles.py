"""Element-by-element oracles that tests compare the matrix identities with.

The library works with whole matrices and one-column sparse coordinates;
these read one element at a time through dense coordinate lists: through a
tensor pair's projection and section, the pairing of a dual basis, or a
product table applied to a dense Kronecker vector, the way the library
computed them before they became products.  The algebra's product, star and
right action are read the same way, one dense coordinate list at a time, and
row reduction is the dense Gauss-Jordan elimination the library ran before
it reduced sparse rows.  A bimodule's actions are read one basis element at a
time, as the blocks ``left[i]`` and ``right[i]`` of its two action matrices:
the tensor relations, bimodule-map checks and conjugate actions below loop
over them the way the library did before it wrote them as identities.  The
bullet suite's random associativity check runs its seeded rational triples with
no exact identity in front, as the suite did before the identity decided it.
Graded maps are read as the per-degree dicts of matrices they replaced:
summed pairwise, stacked at row offsets and compared by the two witness
rules the crossing checks used, a witness read with the legs in another
order after both sides were multiplied by the permutation of their legs
that put the columns in that order, as the checks did before the witness
rule took the order; and ``SparseEchelon`` back-substitutes by
scanning every pivot row, as it did before it indexed the columns.  Products,
Kronecker products, sums and spans are also taken entry by entry on dense
copies, every product computed, with no unit skipped; the balancing map is
the Kronecker formula it was before it was read straight from the actions,
and the tensor relations are every generator e.a (x) f - e (x) a.f, reduced
densely, as before ``span`` took a one-entry relation as a coordinate kill and
``TensorPair`` read its relations from the nonzero action entries;
the field-Q literal check walks a document recursively, one call a node; and
the contraction of a map with one leg of another is ``ikron_mul`` applied to
the other with its identity Kronecker factor built.
An inner product is evaluated on two dense coordinate lists, and the iterated
Sobolev pairings pair every two columns of nabla^n that way, as the library
did before it applied the pairing's matrix to nabla^n one leg at a time.
A state's Gram matrix phi(a_i* a_j) applies the state to the product before
the star, as ``State.gram`` did before it took the state of a whole table.
A module over a group algebra is read as the matrix of each group element, the
blocks of its action, and the Hopf centre axioms are checked one group element
at a time, the group's identity and inverses searched through its ``mult``, as
the Hopf path did before it stated each axiom as one identity of action matrices.
The PSD certificate swaps rows and columns of its dense copy and keeps an n x n
transform from the current basis to the original one, updated at every step,
as ``ldl_certify_psd`` did before it eliminated over an index order.
"""

import random
from itertools import product
from math import prod

from ncdiffop.bundle import ParseError
from ncdiffop.scalars import ScalarParseError
from ncdiffop.bimodule import Bimodule, algebra_as_bimodule, balance
from ncdiffop.diffop import GradedOperator
from ncdiffop.linalg import (
    Mat,
    NotHermitian,
    PsdCertificate,
    PsdCounterexample,
    ikron_mul,
    kron_vec,
    quadratic_form,
    quotient,
    span,
)
from ncdiffop.report import CheckResult
from ncdiffop.scalars import ONE, ZERO, sc


def action_blocks(M) -> tuple[list, list]:
    """``(left, right)``: ``left[i]`` and ``right[i]`` are the actions of a_i on M as matrices."""
    dA, n = M.algebra.dim, M.dim
    lcols, rcols = M.left_action.cols_sparse(), M.right_action.cols_sparse()
    left = [Mat(n, n, lcols[i * n : (i + 1) * n]) for i in range(dA)]
    return left, [Mat(n, n, rcols[i::dA]) for i in range(dA)]


def bimodule_from_blocks(algebra, dim, left, right, name) -> Bimodule:
    """The bimodule whose a_i acts by ``left[i]`` and ``right[i]``."""
    lcols = [c for m in left for c in m.cols_sparse()]
    rcols = [m.cols_sparse()[j] for j in range(dim) for m in right]
    return Bimodule(algebra, dim, Mat(dim, algebra.dim * dim, lcols), Mat(dim, dim * algebra.dim, rcols), name)


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
    left = action_blocks(M)[0]
    for i, c in enumerate(a):
        if c:
            for k, v in enumerate(left[i].apply(e)):
                if v:
                    out[k] = out[k] + c * v
    return out


def push(pair, plain):
    """The class in E (x)_A F of a plain tensor."""
    return pair.project.apply(plain)


def pair_apply(fgp, alpha, xi):
    """A dual element evaluated on a module element, landing in A."""
    return fgp.apply_mat.apply(kron_vec(alpha, xi))


def of_elements(ip, x, y) -> list:
    """<x, conj(y)> in algebra coordinates, for dense coordinates x and y."""
    out, d = [ZERO] * ip.algebra.dim, ip.module.dim
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            c = a * b.conj()
            for k, v in enumerate(ip.matrix.column(i * d + j)):
                if v:
                    out[k] = out[k] + c * v
    return out


def iterated(pairings, n: int) -> Mat:
    """The table whose column i*dim + j is <nabla^n e_i, conj(nabla^n e_j)>, one pair of
    dense columns at a time."""
    if n == 0:
        return pairings.ip_module.matrix
    ip, npow = pairings.ip_derivative_target(n), pairings.module.nabla_pow(n)
    cols = [npow.column(j) for j in range(npow.cols)]
    return Mat.from_cols([of_elements(ip, x, y) for x in cols for y in cols], ip.algebra.dim)


def state_gram(state, algebra) -> Mat:
    """phi(a_i* a_j), as ``State.gram`` computed it before it went through ``State.gram_of``:
    phi @ mul first, then the star on the first leg, regrouped into d x d."""
    d = algebra.dim
    flat = (Mat.from_rows([state.functional], d) @ algebra.mul).mul_ikron(1, algebra.star, d)
    return Mat.from_entries(d, d, ((c // d, c % d, v) for c, col in enumerate(flat.cols_sparse()) for _, v in col))


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


def associativity_fail(table, n: int, m: int, l: int):
    """The first basis triple (b, c, e) of V(n), V(m), V(l), in that nesting, on which
    sum_k o(o_k(u_b, v_c), w_e) and sum_k o(u_b, o_k(v_c, w_e)) differ, or None: the
    exact identity one basis triple at a time on dense coordinates."""
    dims = [table.geometry.V(d).dim for d in (n, m, l)]
    for b, c, e in product(*map(range, dims)):
        u, v, w = (unit_row(dim, i) for dim, i in zip(dims, (b, c, e)))
        lhs, rhs = {}, {}
        for k in range(n + m + 1):
            uv = bullet_k(table, u, n, v, m, k)
            for j in range(k + l + 1):
                _add_dense(lhs, j, bullet_k(table, uv, k, w, l, j))
        for k in range(m + l + 1):
            vw = bullet_k(table, v, m, w, l, k)
            for j in range(n + k + 1):
                _add_dense(rhs, j, bullet_k(table, u, n, vw, k, j))
        if lhs != rhs:
            return b, c, e
    return None


def _add_dense(acc: dict, k: int, term: list) -> None:
    if not vec_is_zero(term):
        acc[k] = [a + b for a, b in zip(acc[k], term)] if k in acc else term
    if k in acc and vec_is_zero(acc[k]):
        del acc[k]


def rational_operator(g, rng, max_deg: int, truncation: int) -> GradedOperator:
    """A random operator with coefficients a/b (-3 <= a <= 3, 1 <= b <= 3) in every degree up to max_deg."""
    comps = {d: [sc(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}") for _ in range(g.V(d).dim)] for d in range(max_deg + 1)}
    return GradedOperator(g, comps, truncation)


def bullet_associativity_random(ctx) -> tuple:
    """``bullet-associativity-random`` as ``(ok, witness)``, decided by the seeded
    trials alone, the way the bullet suite did before the exact identity on the
    homogeneous triples decided it: one triple of operators with rational
    coefficients at a time, the first failing trial the witness."""
    g, table, trunc = ctx.geometry, ctx.table, ctx.bundle.truncation
    rng = random.Random(ctx.seed)
    for trial in range(100):
        degs = [rng.randint(0, 1) for _ in range(3)]
        while sum(degs) > min(3, trunc):
            degs[rng.randrange(3)] = 0
        x, y, z = (rational_operator(g, rng, dd, trunc) for dd in degs)
        if x.bullet(y, table).bullet(z, table) != x.bullet(y.bullet(z, table), table):
            return False, trial
    return True, None


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
    left_mult = action_blocks(algebra_as_bimodule(algebra))[0]
    for i, a in enumerate(x):
        if a:
            out = out + left_mult[i].scale(a)
    return out


def apply_star(algebra, x) -> list:
    """x* for dense coordinates x: the star is conjugate-linear."""
    return algebra.star.apply([a.conj() for a in x])


def right_apply(M, e, a) -> list:
    """e.a for dense coordinates e in the bimodule M and a in A."""
    out = [ZERO] * M.dim
    right = action_blocks(M)[1]
    for i, c in enumerate(a):
        if c:
            for k, v in enumerate(right[i].apply(e)):
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


# -- dense products, every term taken ------------------------------------------


def matmul(a: Mat, b: Mat) -> Mat:
    """a @ b, each entry the sum over the inner index of every product."""
    x, y = a.data, b.data
    return Mat.from_rows(
        [[sum((x[i][k] * y[k][j] for k in range(a.cols)), ZERO) for j in range(b.cols)] for i in range(a.rows)],
        b.cols,
    )


def kron(a: Mat, b: Mat) -> Mat:
    """a (x) b, entry (i*p + k, j*q + l) the product of a[i][j] and b[k][l]."""
    x, y = a.data, b.data
    rows = [[x[i][j] * y[k][l] for j in range(a.cols) for l in range(b.cols)] for i in range(a.rows) for k in range(b.rows)]
    return Mat.from_rows(rows, a.cols * b.cols)


def add_mats(a: Mat, b: Mat, sign=ONE) -> Mat:
    """a + sign * b, entry by entry."""
    return Mat.from_rows([[u + sign * v for u, v in zip(x, y)] for x, y in zip(a.data, b.data)], a.cols)


def ikron(n: int, x: Mat, m: int) -> Mat:
    """I_n (x) x (x) I_m, built."""
    return kron(kron(Mat.identity(n), x), Mat.identity(m))


def contract(x: Mat, m: int, n: int, y: Mat, mirror: bool = False) -> Mat:
    """``linalg.contract`` with its identity factor built, as the evaluation and
    coevaluation contractions were written before it: ``ikron_mul`` of x with
    I_n (x) y, or mirrored with y (x) I_n."""
    if mirror:
        return ikron_mul(m, x, 1, y.kron(Mat.identity(n)))
    return ikron_mul(1, x, m, Mat.identity(n).kron(y))


def dense_span(ambient_dim: int, vectors) -> Mat:
    """The reduced echelon basis of the span of sparse vectors, one per column,
    from the dense Gauss-Jordan form of the matrix whose rows they are."""
    rows = []
    for vec in vectors:
        row = [ZERO] * ambient_dim
        for i, v in dict(vec).items():
            row[i] = v
        rows.append(row)
    r, pivots = rref(Mat.from_rows(rows, ambient_dim))
    return Mat(ambient_dim, len(pivots), r.transpose().cols_sparse()[: len(pivots)])


def kron_balance(e, f) -> Mat:
    """The balancing map as the Kronecker formula R_E (x) I_F - I_E (x) L_F."""
    return e.right_action.kron(Mat.identity(f.dim)) - Mat.identity(e.dim).kron(f.left_action)


# -- bimodule actions, one basis element at a time -----------------------------
# -- bimodule actions, one basis element at a time -----------------------------


def intertwining_failure(src, dst, mat):
    """The first a_i where mat fails to commute with an action, left before right."""
    src_left, src_right = action_blocks(src)
    dst_left, dst_right = action_blocks(dst)
    for i in range(src.algebra.dim):
        if mat @ src_left[i] != dst_left[i] @ mat:
            return ("left", i)
        if mat @ src_right[i] != dst_right[i] @ mat:
            return ("right", i)
    return None


def relation_vectors(e, f):
    """The nonzero generators e.a (x) f - e (x) a.f of the tensor relations, as dicts, a-major."""
    e_right, f_left = action_blocks(e)[1], action_blocks(f)[0]
    nf = f.dim
    for a in range(e.algebra.dim):
        right_cols, left_cols = e_right[a].cols_sparse(), f_left[a].cols_sparse()
        for i in range(e.dim):
            for j in range(f.dim):
                row = {}
                for k, v in right_cols[i]:
                    row[k * nf + j] = row.get(k * nf + j, ZERO) + v
                for l, v in left_cols[j]:
                    row[i * nf + l] = row.get(i * nf + l, ZERO) - v
                row = {k: v for k, v in row.items() if v}
                if row:
                    yield row


def tensor_action_failure(e, f):
    """The ``(name, (space, i))`` that building E (x)_A F raises when a_i does not act
    on the quotient, or None: each a_i in turn, the left action before the right."""
    relations = span(e.dim * f.dim, relation_vectors(e, f))
    project, _ = quotient(relations)
    e_left, f_right = action_blocks(e)[0], action_blocks(f)[1]
    space = f"({e.name}(x){f.name})"
    for i in range(e.algebra.dim):
        if not (project @ e_left[i].kron(Mat.identity(f.dim)) @ relations).is_zero():
            return ("tensor-left-action", (space, i))
        if not (project @ Mat.identity(e.dim).kron(f_right[i]) @ relations).is_zero():
            return ("tensor-right-action", (space, i))
    return None


def conjugate_blocks(e):
    """The blocks of the conjugate bimodule: a_i acts on the left by conj(sum_k star(a_i)_k right[k])
    and on the right by conj(sum_k star(a_i)_k left[k])."""
    A = e.algebra
    e_left, e_right = action_blocks(e)
    left, right = [], []
    for col in A.star.cols_sparse():
        acc_l = acc_r = Mat.zeros(e.dim, e.dim)
        for k, v in col:
            acc_l = acc_l + e_right[k].scale(v)
            acc_r = acc_r + e_left[k].scale(v)
        left.append(acc_l.conj())
        right.append(acc_r.conj())
    return left, right


# -- reference braidings and equivariance ---------------------------------------


def braid_form(g, n: int) -> Mat:
    """Iterated sigma-inverse crossing: Kron(Omega, W(n)) -> W(n+1)."""
    if n == 1:
        return g.sigma_inv_form @ g.W2.project
    lifted = Mat.identity(g.omega.dim).kron(g.pair_W(n).section)
    inner = braid_form(g, n - 1).kron(Mat.identity(g.omega.dim))
    return g.sigma_inv_last(n) @ inner @ lifted


def braid_vec(g, n: int) -> Mat:
    """Iterated sigma crossing: Kron(V(n), Omega) -> Omega (x)_A V(n)."""
    if n == 1:
        return g.sigma_vec_plain
    Iprev = Mat.identity(g.V(n - 1).dim)
    return (
        g.OV(n).project
        @ Mat.identity(g.omega.dim).kron(g.merge_vec(1, n - 1))
        @ g.OV1.section.kron(Iprev)
        @ g.sigma_vec_plain.kron(Iprev)
        @ Mat.identity(g.vec.dim).kron(g.OV(n - 1).section)
        @ Mat.identity(g.vec.dim).kron(braid_vec(g, n - 1))
        @ g.pair_V(n).section.kron(Mat.identity(g.omega.dim))
    )


def cross_fields(g, E, crossed: Mat) -> Mat:
    """``Geometry.cross_fields`` expanded before it contracts, the way it was first
    written: ev_left (x) id applied to the |Vec||E| copies of coev(1), one per column."""
    dvec = g.vec.dim
    copies = Mat.identity(dvec * E.dim).kron(g.coev_one)
    return g.pair(E, g.vec).project @ ikron_mul(1, E.ev_left(g.fgp.apply_mat, crossed), dvec, copies)


def left_inverse_relations(cm, degree: int) -> Mat:
    """The relations ``CrossingMap.check_inverse`` reduces modulo, all degrees at once
    on the stacked sum of the Kron(V(m), E), m <= degree, block 0 first."""
    g, E = cm.geometry, cm.module.space
    offsets, total = {}, 0
    for m in range(degree + 1):
        offsets[m] = total
        total += g.V(m).dim * E.dim
    rels = []
    for m in range(degree + 1):
        blocks = {k: cm.table.table(m, 0, k).kron(Mat.identity(E.dim)) for k in range(m)}
        blocks[m] = balance(g.V(m), E)
        for c in range(blocks[m].cols):
            rels.append([(offsets[k] + i, v) for k in sorted(blocks) for i, v in blocks[k].cols_sparse()[c]])
    return span(total, rels)


def morphism_equivariance_report(table, em, fm, t: Mat, max_degree: int) -> list:
    """Check v |> T(e) = T(v |> e) for all basis v up to max_degree, basis e: one
    result per degree, with the first failing ``(n, v, e)`` as its witness."""
    g = table.geometry
    results = []
    for n in range(0, max_degree + 1):
        Vn = g.V(n)
        lhs = fm.act_table(n) @ Mat.identity(Vn.dim).kron(t)
        fail = first_mismatch(lhs, t @ em.act_table(n), (Vn.dim, em.space.dim))
        fail = None if fail is None else (n, *fail)
        results.append(CheckResult(f"equivariance-deg{n}", fail is None, witness=fail))
    return results


# -- per-degree dicts of matrices -------------------------------------------------


def add(acc: dict, m, mat: Mat) -> None:
    """``acc[m] += mat``: one pairwise sum, column by column, into a dict of matrices
    keyed by degree."""
    if m not in acc:
        acc[m] = mat
        return
    a = acc[m]
    if (a.rows, a.cols) != (mat.rows, mat.cols):
        raise ValueError("shape mismatch")
    cols = []
    for x, y in zip(a.cols_sparse(), mat.cols_sparse()):
        col = dict(x)
        for i, v in y:
            col[i] = col[i] + v if i in col else v
        cols.append(sorted((i, v) for i, v in col.items() if v))
    acc[m] = Mat(a.rows, a.cols, cols)


def stacked(blocks: dict, offsets: dict, rows: int) -> Mat:
    """The matrix with block m at row offsets[m] (the blocks do not overlap)."""
    cols = [[] for _ in range(next(iter(blocks.values())).cols)]
    for m in sorted(blocks, key=offsets.__getitem__):
        for col, out in zip(blocks[m].cols_sparse(), cols):
            out.extend((offsets[m] + i, v) for i, v in col)
    return Mat(rows, len(cols), cols)


def first_mismatch(lhs, rhs, shape):
    """Where ``lhs == rhs`` first fails, or None: matrices on Kron(X1, ..., Xr) with
    ``shape = (|X1|, ..., |Xr|)``, or dicts of them keyed by degree (a missing degree
    reads as zero).  The first differing column split into basis indices, and for
    dicts its degree after them, the smallest degree on a tie."""
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


def first_by_block(lhs: dict, rhs: dict, shape):
    """The smallest ``(x, m)`` such that degree m of ``lhs == rhs`` fails among the
    domain columns whose first index is x (a missing degree reads as zero)."""
    best = None
    for m in set(lhs) | set(rhs):
        fail = first_mismatch({m: lhs[m]} if m in lhs else {}, {m: rhs[m]} if m in rhs else {}, shape)
        if fail is not None and (best is None or (fail[0], m) < best):
            best = (fail[0], m)
    return best


def leg_permutation(shape, order) -> Mat:
    """The permutation Kron(X_o1, ..., X_or) -> Kron(X1, ..., Xr) for ``order = (o1, ..., or)``:
    a map on Kron(X1, ..., Xr) with ``shape = (|X1|, ..., |Xr|)`` times it has its
    columns with the legs in ``order``."""
    cols = []
    for index in product(*(range(shape[leg]) for leg in order)):
        at = dict(zip(order, index))
        row = 0
        for leg, size in enumerate(shape):
            row = row * size + at[leg]
        cols.append([(row, ONE)])
    return Mat(prod(shape), prod(shape), cols)


def first_mismatch_in_order(lhs: dict, rhs: dict, shape, order, prefix: int):
    """The witness of ``lhs == rhs``, dicts of maps on Kron(X1, ..., Xr), read with the legs
    in ``order`` and cut to ``prefix`` indices: both sides times ``leg_permutation``, then
    ``first_by_block`` with the first ``prefix`` legs of the permuted shape as one block."""
    perm, permuted = leg_permutation(shape, order), [shape[leg] for leg in order]
    moved = [{m: b @ perm for m, b in side.items()} for side in (lhs, rhs)]
    fail = first_by_block(*moved, (prod(permuted[:prefix]), prod(permuted[prefix:])))
    if fail is None:
        return None
    x, m = fail
    indices = []
    for size in reversed(permuted[:prefix]):
        x, i = divmod(x, size)
        indices.append(i)
    return (*reversed(indices), m)


class SparseEchelon:
    """Incremental reduced echelon basis that back-substitutes each new pivot
    by scanning every pivot row."""

    def __init__(self):
        self.pivot_rows: dict = {}

    def add_sparse(self, row: dict) -> None:
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in self.pivot_rows]:
            f = row[c]
            for cc, v in self.pivot_rows[c].items():
                x = row.get(cc, ZERO) - f * v
                if x:
                    row[cc] = x
                else:
                    del row[cc]
        if not row:
            return
        p = min(row)
        inv = ONE / row[p]
        row = {c: v * inv for c, v in row.items()}
        for existing in self.pivot_rows.values():
            if p in existing:
                f = existing[p]
                for cc, v in row.items():
                    existing[cc] = existing.get(cc, ZERO) - f * v
                    if not existing[cc]:
                        del existing[cc]
        self.pivot_rows[p] = row


# -- the Hopf cross-check, one group element at a time ------------------------------


class HopfTable:
    """A group's product and inverse by index, and its identity, searched through
    ``Group.mult`` as the Hopf path did before it read the group into one matrix."""

    def __init__(self, group):
        els, mult = group.elements, group.mult
        self.elements, self.mult, self.order = els, mult, len(els)
        self.index = {e: i for i, e in enumerate(els)}
        self.identity = next(e for e in els if all(mult(e, g) == g and mult(g, e) == g for g in els))
        self.inv = {e: next(f for f in els if mult(e, f) == self.identity == mult(f, e)) for e in els}

    def imul(self, i: int, j: int) -> int:
        return self.index[self.mult(self.elements[i], self.elements[j])]

    def iinv(self, i: int) -> int:
        return self.index[self.inv[self.elements[i]]]


def hopf_mats(module) -> list:
    """The matrix of each g_i on a Hopf module: block i of its action."""
    d, cols = module.dim, module.action.cols_sparse()
    return [Mat(d, d, cols[i * d : (i + 1) * d]) for i in range(module.group.order)]


def hopf_failing_pairs(g: HopfTable, mats) -> list:
    """Every (i, j) with g_i g_j acting otherwise than g_i then g_j, in order."""
    n = g.order
    return [(i, j) for i in range(n) for j in range(n) if mats[i] @ mats[j] != mats[g.imul(i, j)]]


def hopf_validate(g: HopfTable, mats, name: str) -> list:
    """The representation and identity checks, the representation's witness the
    last failing pair, as the double loop reported it."""
    pairs = hopf_failing_pairs(g, mats)
    ident_ok = mats[g.index[g.identity]] == Mat.identity(mats[0].rows)
    return [
        CheckResult(f"{name}:representation", not pairs, witness=pairs[-1] if pairs else None),
        CheckResult(f"{name}:identity", ident_ok),
    ]


def hopf_phi(g: HopfTable, mats) -> Mat:
    """phi_V(g (x) v) = g.v (x) g, entry by entry."""
    n, dv = g.order, mats[0].rows
    entries = (
        (k * n + i, i * dv + j, v) for i in range(n) for j, col in enumerate(mats[i].cols_sparse()) for k, v in col
    )
    return Mat.from_entries(dv * n, n * dv, entries)


def hopf_phi_inverse(g: HopfTable, mats) -> Mat:
    """phi_V^{-1}(v (x) h) = h (x) h^{-1}.v, entry by entry."""
    n, dv = g.order, mats[0].rows
    entries = (
        (i * dv + k, j * n + i, v)
        for i in range(n)
        for j, col in enumerate(mats[g.iinv(i)].cols_sparse())
        for k, v in col
    )
    return Mat.from_entries(n * dv, dv * n, entries)


def hopf_centre_checks(cand) -> list:
    """``verify_centre(cand)`` as the Hopf path ran it one group element at a time,
    on the blocks of the candidate's module actions and of its adjoint action."""
    g = HopfTable(cand.group)
    n, names = g.order, cand.object_names()
    mods = {name: hopf_mats(cand.module(name)) for name in names}
    adj = hopf_mats(cand.adjoint)
    dim = {name: m[0].rows for name, m in mods.items()}
    out = [CheckResult("hopf-unit-object", hopf_phi(g, [Mat.identity(1)] * n) == Mat.identity(n))]
    for obj in names:
        v, phi = mods[obj], hopf_phi(g, mods[obj])
        fail = next(((obj, i) for i in range(n) if phi @ adj[i].kron(v[i]) != v[i].kron(adj[i]) @ phi), None)
        out.append(CheckResult(f"hopf-morphism-{obj}", fail is None, witness=fail))
    for a in names:
        for b in names:
            lhs = hopf_phi(g, [x.kron(y) for x, y in zip(mods[a], mods[b])])
            rhs = contract(hopf_phi(g, mods[b]), dim[a], dim[b], hopf_phi(g, mods[a]), mirror=True)
            out.append(CheckResult(f"hopf-tensor-compat-{a}-{b}", lhs == rhs))
    for obj in names:
        phi, formula = hopf_phi(g, mods[obj]), hopf_phi_inverse(g, mods[obj])
        ok = phi @ formula == Mat.identity(phi.rows) and formula @ phi == Mat.identity(phi.cols)
        out.append(CheckResult(f"hopf-inverse-{obj}", ok and formula == inverse(phi)))
    mu = Mat.from_entries(n, n * n, ((g.imul(i, j), i * n + j, ONE) for i in range(n) for j in range(n)))
    fail = next((i for i in range(n) if mu @ adj[i].kron(adj[i]) != adj[i] @ mu), None)
    out.append(CheckResult("hopf-product-morphism", fail is None, witness=fail))
    for obj in names:
        phi = hopf_phi(g, mods[obj])
        lhs = phi @ ikron(1, mu, dim[obj])
        rhs = ikron_mul(dim[obj], mu, 1, contract(phi, n, n, phi))
        out.append(CheckResult(f"hopf-algebra-in-centre-{obj}", lhs == rhs))
    if "regular" in mods and "trivial" in mods:
        triv, reg = mods["trivial"], mods["regular"]
        maps = (("symmetrizer", Mat.from_cols([[ONE] * n]), triv, reg), ("sum", Mat.from_rows([[ONE] * n]), reg, triv))
        for name, f, src, dst in maps:
            linear = all(dst[i] @ f == f @ src[i] for i in range(n))
            nat = ikron_mul(1, f, n, hopf_phi(g, src)) == hopf_phi(g, dst) @ ikron(n, f, 1)
            out.append(CheckResult(f"hopf-naturality-{name}", linear and nat))
    for obj in names:
        out += hopf_validate(g, mods[obj], cand.module(obj).name)
    out += hopf_validate(g, adj, cand.adjoint.name)
    e = g.index[g.identity]
    ok = all(mat.column(e) == Mat.identity(n).column(e) for mat in adj)
    return out + [CheckResult("hopf-unit-element-invariant", ok)]


# -- the field-Q literal check, one call a node ----------------------------------


def reject_imaginary(doc, literals) -> None:
    """Raise a ParseError at the first literal of the scalar sections, in document
    order, that is not real; basis names under algebra and omega are skipped."""

    def walk(x):
        if isinstance(x, str):
            if not x.rstrip().endswith(("i", "I")):
                return  # only a literal ending in i can parse to a non-real scalar
            try:
                val = literals[x]
            except ScalarParseError:
                return
            if not val.is_real():
                raise ParseError(f"field Q cannot carry the scalar {x!r}")
        elif isinstance(x, list):
            for y in x:
                walk(y)
        elif isinstance(x, dict):
            for y in x.values():
                walk(y)

    for key in ("algebra", "omega", "d", "dual_basis", "box", "sigma_inv", "modules", "inner_products", "states"):
        if key in doc:
            value = doc[key]
            if key in ("algebra", "omega") and isinstance(value, dict):
                value = {k: v for k, v in value.items() if k != "basis"}
            walk(value)


# -- LDL* with physical swaps and a transform matrix -------------------------------


def ldl_certify_psd(g: Mat):
    """A PsdCertificate or a PsdCounterexample for a conjugate-symmetric g, by LDL* on
    a dense copy whose rows and columns are swapped as pivots are chosen; trans[k]
    holds current basis vector k in original coordinates."""
    if g.rows != g.cols:
        raise NotHermitian("matrix is not square")
    n = g.rows
    a = g._dense()
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i].conj():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")
    perm = list(range(n))
    trans = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        trans[i][i] = ONE
    lower = Mat.identity(n)._dense()
    diag = [ZERO] * n

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
            for i in range(step, n):
                for j in range(step, n):
                    if i != j and a[i][j]:
                        v = [ZERO] * n
                        v[i] = a[i][j]
                        v[j] = -ONE
                        return counterexample_from(v)
            break
        if pivot != step:
            a[step], a[pivot] = a[pivot], a[step]
            for row in a:
                row[step], row[pivot] = row[pivot], row[step]
            trans[step], trans[pivot] = trans[pivot], trans[step]
            perm[step], perm[pivot] = perm[pivot], perm[step]
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
                fc = f.conj()
                for j in range(n):
                    if trans[step][j]:
                        trans[i][j] = trans[i][j] - fc * trans[step][j]
    cert = PsdCertificate(perm, Mat.from_rows(lower, n), diag)
    assert cert.reconstruct() == g, "internal certificate check failed"
    return cert
