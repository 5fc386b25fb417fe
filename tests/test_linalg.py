"""Row reduction, kernels, quotients and exact PSD certification.

The expected values for the worked examples were computed with the
Fraction-based oracles in this file (minor expansion for ranks, direct
quadratic-form evaluation for witnesses) and then frozen into the asserts.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdiffop.linalg import (
    Mat,
    NotHermitian,
    PsdCertificate,
    PsdCounterexample,
    inverse,
    kernel,
    kron_vec,
    ldl_certify_psd,
    quadratic_form,
    quotient,
    rank,
    rref,
    span,
)
from ncdiffop.scalars import ONE, ZERO, Scalar, sc
from oracles import vec_is_zero


# -- independent oracles (plain Fractions, no package code) -------------------


def frac_minor_rank(rows):
    """Rank via exhaustive minor expansion; only viable for tiny matrices."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n, m = len(rows), len(rows[0]) if rows else 0

    def det(idx_r, idx_c):
        if len(idx_r) == 1:
            return rows[idx_r[0]][idx_c[0]]
        total = Fraction(0)
        for k, c in enumerate(idx_c):
            sub = det(idx_r[1:], idx_c[:k] + idx_c[k + 1 :])
            total += (-1) ** k * rows[idx_r[0]][c] * sub
        return total

    for size in range(min(n, m), 0, -1):
        for ir in combinations(range(n), size):
            for ic in combinations(range(m), size):
                if det(ir, ic) != 0:
                    return size
    return 0


def frac_quadratic_form(g, v):
    return sum(Fraction(v[i]) * Fraction(g[i][j]) * Fraction(v[j]) for i in range(len(v)) for j in range(len(v)))


def to_int_grid(m: Mat):
    return [[Fraction(str(x)) for x in row] for row in m.data]


# -- rref ---------------------------------------------------------------------


def test_rref_identity():
    m = Mat.identity(2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1)


def test_rref_zero():
    m = Mat.zeros(3, 3)
    r, pivots = rref(m)
    assert r.is_zero()
    assert pivots == ()


def test_rref_rank_one_example():
    m = Mat.from_rows([[2, 4], [1, 2]])
    assert frac_minor_rank([[2, 4], [1, 2]]) == 1  # oracle
    r, pivots = rref(m)
    assert r == Mat.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


mat_entries = st.integers(-6, 6)


@st.composite
def small_mats(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(mat_entries, min_size=m, max_size=m), min_size=n, max_size=n))
    return Mat.from_rows(data)


@given(small_mats(max_dim=4))
@settings(max_examples=60, deadline=None)
def test_rref_rank_matches_minor_oracle(m):
    _, pivots = rref(m)
    assert len(pivots) == frac_minor_rank(to_int_grid(m))


def sparse(vec) -> dict:
    return {i: sc(x) for i, x in enumerate(vec) if x}


def in_span(basis: Mat, vec) -> bool:
    """Membership by projection: the projection's kernel is the span."""
    return quotient(basis)[0].apply([sc(x) for x in vec]) == [ZERO] * (basis.rows - basis.cols)


@given(small_mats())
@settings(max_examples=60, deadline=None)
def test_rref_preserves_row_space(m):
    r, _ = rref(m)
    rows_m = span(m.cols, map(sparse, m.data))
    rows_r = span(m.cols, map(sparse, r.data))
    # equal spans give equal canonical bases
    assert rows_m == rows_r
    for row in m.data:
        assert in_span(rows_r, row)


# -- span ---------------------------------------------------------------------


def test_span_canonical_columns():
    basis = span(3, [{0: sc(2), 1: sc(4)}, [(1, sc(1)), (2, sc(1))], {0: sc(1), 1: sc(3), 2: sc(1)}])
    # the third vector is the sum of the first two halves: rank 2, pivots 0 and 1
    assert basis == Mat.from_cols([[1, 0, -2], [0, 1, 1]], 3)
    for col in basis.cols_sparse():
        assert col[0][1] == ONE
    assert span(3, []) == Mat.zeros(3, 0)


@given(
    st.lists(st.lists(mat_entries, min_size=3, max_size=3), min_size=0, max_size=4),
    st.lists(mat_entries, min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_membership_by_projection_matches_rank_oracle(rel_rows, x):
    """quotient(span(R))[0] @ x vanishes exactly when rank(R + [x]) == rank(R)."""
    basis = span(3, map(sparse, rel_rows))
    assert basis.cols == frac_minor_rank(rel_rows)
    assert in_span(basis, x) == (frac_minor_rank(rel_rows + [x]) == frac_minor_rank(rel_rows))
    # the span is also what rref sees
    assert basis.cols == rank(Mat.from_rows(rel_rows, 3))


# -- kernel -------------------------------------------------------------------


def test_kernel_identity_and_zero():
    assert kernel(Mat.identity(3)).cols == 0
    assert kernel(Mat.zeros(2, 2)) == Mat.identity(2)


def test_kernel_example():
    m = Mat.from_rows([[1, 1]])
    ker = kernel(m)
    assert ker == Mat.from_cols([[1, -1]], 2)
    assert (m @ ker).is_zero()
    # rank-nullity against the oracle
    assert frac_minor_rank([[1, 1]]) + ker.cols == 2
    assert in_span(ker, [sc(-2), sc(2)])


@given(small_mats())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_rank_nullity(m):
    ker = kernel(m)
    assert (m @ ker).is_zero()
    assert len(rref(m)[1]) + ker.cols == m.cols
    assert ker == span(m.cols, ker.cols_sparse())  # already canonical


# -- quotient -----------------------------------------------------------------


def test_quotient_trivial_relations():
    proj, sect = quotient(span(3, []))
    assert proj == Mat.identity(3)
    assert sect == Mat.identity(3)


def test_quotient_full_relations():
    rels = span(2, [{0: sc(1)}, {1: sc(1)}])
    proj, sect = quotient(rels)
    assert proj.rows == 0 and sect.cols == 0


def test_quotient_line_example():
    rels = span(2, [{0: sc(1), 1: sc(-1)}])
    proj, sect = quotient(rels)
    assert proj.rows == 1
    assert vec_is_zero(proj.apply([sc(1), sc(-1)]))
    assert (proj @ sect) == Mat.identity(1)
    # rank-nullity: quotient dim + relation dim = ambient dim
    assert proj.rows + rels.cols == 2


@given(st.lists(st.lists(mat_entries, min_size=4, max_size=4), min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_quotient_contract(rel_rows):
    rels = span(4, map(sparse, rel_rows))
    proj, sect = quotient(rels)
    assert (proj @ sect) == Mat.identity(proj.rows)
    assert (proj @ rels).is_zero()
    assert kernel(proj) == rels


# -- inverse ------------------------------------------------------------------


def test_inverse():
    m = Mat.from_rows([[2, 1], [1, 1]])
    inv = inverse(m)
    assert inv @ m == Mat.identity(2)
    with pytest.raises(ValueError):
        inverse(Mat.from_rows([[1, 1], [1, 1]]))


def test_kron_vec():
    x = [sc(1), sc(2)]
    y = [sc(0), sc(3)]
    assert kron_vec(x, y) == [sc(0), sc(3), sc(0), sc(6)]


# -- zeros that are not the ZERO singleton ---------------------------------------

NON_SINGLETON_ZEROS = [Scalar(0), sc("0/5"), Scalar(0, 0), ONE - ONE]


@pytest.mark.parametrize("z", NON_SINGLETON_ZEROS, ids=["Scalar(0)", "0/5", "Scalar(0,0)", "ONE-ONE"])
def test_apply_matmul_cols_sparse_treat_any_zero_as_zero(z):
    m = Mat.from_rows([[z, sc(2), z], [sc(3), z, sc(-1)]])
    assert m.cols_sparse() == [[(1, sc(3))], [(0, sc(2))], [(1, sc(-1))]]
    assert m.apply([z, sc(1), z]) == [sc(2), ZERO]
    assert m.apply([sc(1), z, sc(1)]) == [ZERO, sc(2)]
    n = Mat.from_rows([[z, sc(1)], [sc(1), z], [z, z]])
    prod = m @ n
    assert prod == Mat.from_rows([[2, 0], [0, 3]])
    assert prod.cols_sparse() == [[(0, sc(2))], [(1, sc(3))]]
    assert (Mat.from_rows([[z, z], [z, z]]) @ n.transpose()).is_zero()


def test_column_read_matches_kron_apply_on_z3():
    """ev<2> columns read directly equal the dense apply to e_b (x) e_r."""
    from ncdiffop.algebra import unit_row
    from ncdiffop.bundle import load_builtin

    g = load_builtin("z3-function-calculus").geometry
    ev = g.ev_pow(2)
    V, W = g.V(2).dim, g.W(2).dim
    assert ev.cols == V * W
    for b in range(V):
        for r in range(W):
            assert ev.column(b * W + r) == ev.apply(kron_vec(unit_row(V, b), unit_row(W, r)))


# -- PSD certification ---------------------------------------------------------


def test_psd_identity():
    res = ldl_certify_psd(Mat.identity(3))
    assert isinstance(res, PsdCertificate)
    assert res.strictly_positive()


def test_psd_zero_matrix():
    res = ldl_certify_psd(Mat.zeros(2, 2))
    assert isinstance(res, PsdCertificate)
    assert not res.strictly_positive()
    assert all(d == ZERO for d in res.diag)


def test_psd_counterexample_example():
    g = [[1, 2], [2, 1]]
    # oracle: the quadratic form at (1,-1) evaluates to -2
    assert frac_quadratic_form(g, [1, -1]) == -2
    res = ldl_certify_psd(Mat.from_rows(g))
    assert isinstance(res, PsdCounterexample)
    assert res.value.re < 0
    assert quadratic_form(Mat.from_rows(g), res.vector) == res.value


def test_psd_requires_hermitian():
    with pytest.raises(NotHermitian):
        ldl_certify_psd(Mat.from_rows([[1, 2], [3, 1]]))


def test_psd_zero_diagonal_with_offdiagonal():
    for off in (1, 3, Fraction(-2, 5)):
        g = Mat.from_rows([[0, off], [off, 0]])
        res = ldl_certify_psd(g)
        assert isinstance(res, PsdCounterexample)
        assert quadratic_form(g, res.vector) == res.value
        assert res.value.re < 0
        parts = [p for x in [*res.vector, res.value] for p in (x.re, x.im)]
        assert not any(isinstance(p, float) for p in parts)


def test_psd_gaussian_entries():
    g = Mat.from_rows([[sc(2), sc("1+1i")], [sc("1-1i"), sc(3)]])
    res = ldl_certify_psd(g)
    assert isinstance(res, PsdCertificate)
    assert res.reconstruct() == g


def test_psd_gaussian_counterexample():
    g = Mat.from_rows([[sc(0), sc("0+1i")], [sc("0-1i"), sc(0)]])
    res = ldl_certify_psd(g)
    assert isinstance(res, PsdCounterexample)
    assert res.value.re < 0


@given(small_mats(max_dim=4))
@settings(max_examples=80, deadline=None)
def test_psd_single_outcome_and_witness(m):
    g = m @ m.transpose()  # symmetric by construction
    res = ldl_certify_psd(g)
    # m m^T is PSD over the rationals, so certification must succeed
    assert isinstance(res, PsdCertificate)
    assert res.reconstruct() == g
    shifted = g - Mat.identity(m.rows).scale(sc(1))
    res2 = ldl_certify_psd(shifted)
    if isinstance(res2, PsdCounterexample):
        val = quadratic_form(shifted, res2.vector)
        assert val == res2.value and val.re < 0
    else:
        assert res2.reconstruct() == shifted


# -- the sparse Mat against a dense oracle -----------------------------------------
# The oracle holds a matrix as dense rows of (re, im) Fraction pairs and knows
# nothing of the package; every Mat result is read back through its raw sparse
# columns, which must be sorted by row and hold no zero.

ZERO_FORMS = [lambda: ZERO, lambda: Scalar(0), lambda: sc("0/5"), lambda: Scalar(0, 0), lambda: ONE - ONE]


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


G0, G1 = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def o_matmul(a, b, inner, ncols):
    return [[_g_sum(g_mul(row[k], b[k][j]) for k in range(inner)) for j in range(ncols)] for row in a]


def _g_sum(terms):
    acc = G0
    for t in terms:
        acc = g_add(acc, t)
    return acc


def o_rref(a, ncols):
    a = [row[:] for row in a]
    r, pivots = 0, []
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != G0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [g_div(x, a[r][c]) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != G0:
                f = a[i][c]
                a[i] = [g_add(x, g_mul((-f[0], -f[1]), y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def read_back(m: Mat):
    """Dense oracle rows of a Mat, read from its sparse columns (checking their invariants)."""
    cols = m.cols_sparse()
    assert len(cols) == m.cols
    dense = [[G0] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(cols):
        assert isinstance(col, list)
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < m.rows for i in rows)
        for i, v in col:
            assert isinstance(v, Scalar) and v, f"zero stored at ({i}, {j})"
            dense[i][j] = (Fraction(v.re), Fraction(v.im))
    assert m.data == tuple(tuple(Scalar(re, im) for re, im in row) for row in dense)
    return dense


@st.composite
def entries(draw, kind, zero=False):
    """A (value, Scalar) pair, a zero when ``zero`` is set and otherwise one time
    in three; zeros come in every form, not only the ZERO singleton."""
    if zero or draw(st.integers(0, 2)) == 0:
        return G0, draw(st.sampled_from(ZERO_FORMS))()
    if kind == "int":
        re, im = Fraction(draw(st.integers(-4, 4))), Fraction(0)
    else:
        re = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        im = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3))) if kind == "gaussian" else Fraction(0)
    return (re, im), Scalar(re, im)


@st.composite
def oracle_mats(draw, kind, rows, cols):
    """(dense oracle rows, Mat) built through one of the three public constructors.
    Whole zero columns are common, and so is an all-zero matrix."""
    blank = draw(st.sampled_from(["none", "some", "all"]))
    zero_cols = range(cols) if blank == "all" else ()
    if blank == "some" and cols:
        zero_cols = draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=max(1, cols - 1)))
    cells = [[draw(entries(kind, j in zero_cols)) for j in range(cols)] for _ in range(rows)]
    dense = [[v for v, _ in row] for row in cells]
    how = draw(st.sampled_from(["rows", "cols", "entries"]))
    if how == "rows":
        m = Mat.from_rows([[s for _, s in row] for row in cells], cols)
    elif how == "cols":
        m = Mat.from_cols([[cells[i][j][1] for i in range(rows)] for j in range(cols)], rows)
    else:
        # every entry split into two summands, plus a cancelling pair, all at one place
        triples = []
        for i, row in enumerate(cells):
            for j, (_, s) in enumerate(row):
                triples += [(i, j, s - ONE), (i, j, ONE), (i, j, sc(2)), (i, j, -sc(2))]
        m = Mat.from_entries(rows, cols, draw(st.permutations(triples)))
    return dense, m


@st.composite
def mat_cases(draw):
    kind = draw(st.sampled_from(["int", "rational", "gaussian"]))
    r, k, c, p, q = (draw(st.integers(0, 3)) for _ in range(5))
    return (
        kind,
        draw(oracle_mats(kind, r, k)),
        draw(oracle_mats(kind, r, k)),
        draw(oracle_mats(kind, k, c)),
        draw(oracle_mats(kind, p, q)),
        draw(st.lists(entries(kind), min_size=k, max_size=k)),
        draw(entries(kind)),
    )


@given(mat_cases())
@settings(max_examples=300, deadline=None)
def test_mat_matches_dense_oracle(case):
    kind, (a, A), (c, C), (b, B), (d, D), vec, (s, S) = case
    r, k, ncols = A.rows, A.cols, B.cols
    assert read_back(A) == a and read_back(B) == b and read_back(C) == c
    assert read_back(A @ B) == o_matmul(a, b, k, ncols)
    assert read_back(A.kron(D)) == [
        [g_mul(a[i][j], d[p][q]) for j in range(k) for q in range(D.cols)] for i in range(r) for p in range(D.rows)
    ]
    assert read_back(A + C) == [[g_add(x, y) for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
    assert read_back(A - C) == [[g_add(x, (-y[0], -y[1])) for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
    assert read_back(A.scale(S)) == [[g_mul(s, x) for x in row] for row in a]
    assert read_back(A.transpose()) == [[a[i][j] for i in range(r)] for j in range(k)]
    assert read_back(A.conj_transpose()) == [[(a[i][j][0], -a[i][j][1]) for i in range(r)] for j in range(k)]
    v = [x for x, _ in vec]
    got = A.apply([y for _, y in vec])
    expected = [_g_sum(g_mul(row[j], v[j]) for j in range(k)) for row in a]
    assert [(Fraction(x.re), Fraction(x.im)) for x in got] == expected
    for j in range(k):
        assert [(Fraction(x.re), Fraction(x.im)) for x in A.column(j)] == [row[j] for row in a]
    assert (A == C) == (a == c)
    assert A == Mat.from_rows(A.data, k) and A.is_zero() == all(x == G0 for row in a for x in row)
    red, pivots = rref(A)
    assert (read_back(red), pivots) == o_rref(a, k)
    if r == k:
        full_rank = len(o_rref(a, k)[1]) == k
        if full_rank:
            inv = inverse(A)
            ident = [[G1 if i == j else G0 for j in range(k)] for i in range(k)]
            assert o_matmul(read_back(inv), a, k, k) == ident
        else:
            with pytest.raises(ValueError):
                inverse(A)
