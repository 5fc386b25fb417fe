"""Row reduction, kernels, quotients and exact PSD certification.

The expected values for the worked examples were computed with the
Fraction-based oracles in this file (minor expansion for ranks, direct
quadratic-form evaluation for witnesses) and then frozen into the asserts.
"""

import copy
import pickle
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncdiffop.linalg import (
    Graded,
    Mat,
    contract,
    NotHermitian,
    SparseEchelon,
    PsdCertificate,
    PsdCounterexample,
    first_mismatch,
    ikron_mul,
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
from ncdiffop.bundle import Literals
from ncdiffop.scalars import I, NEG_ONE, ONE, ZERO, Scalar, sc
import oracles
from oracles import unit_row, vec_is_zero


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


# -- unit leads ---------------------------------------------------------------


def test_unit_leads_keep_the_one_singleton():
    """The pivots of an echelon basis (a span, a kernel, a relation basis) and the
    entries equal to 1 of an inverse or a quotient built from such rows are
    ``ONE`` itself, which ``@`` and ``kron`` skip multiplying by."""
    basis = span(4, [[(0, ONE), (2, sc(3))], [(1, -ONE), (3, ONE)]])
    assert basis == Mat.from_cols([[1, 0, 3, 0], [0, 1, 0, -1]], 4)
    ker = kernel(Mat.from_rows([[ONE, ONE, ZERO], [ZERO, -ONE, ONE]]))
    assert ker == Mat.from_cols([[1, -1, -1]], 3)
    flip = inverse(Mat.swap(2, 3))
    assert flip == Mat.swap(3, 2)
    turn = inverse(Mat.from_rows([[ZERO, -ONE], [ONE, ZERO]]))
    assert turn == Mat.from_rows([[0, 1], [-1, 0]])
    rels = span(4, [[(0, ONE), (1, ONE)], [(2, -ONE), (3, -ONE)]])
    proj, sect = quotient(rels)
    assert proj == Mat.from_rows([[-1, 1, 0, 0], [0, 0, -1, 1]])
    for m in (basis, ker, rels):
        assert all(col[0][1] is ONE for col in m.cols_sparse())
    for m in (flip, turn, proj, sect, proj @ sect):
        units = [v for col in m.cols_sparse() for _, v in col if v == 1]
        assert units and all(v is ONE for v in units)


# -- the unit singletons in the kernels ---------------------------------------------
# Every kernel that skips a product with ONE or NEG_ONE (on either side) must give
# what the oracles give taking every product, whichever way an entry equal to +-1
# was built.

UNIT_FORMS = [lambda: ONE, lambda: NEG_ONE, lambda: Scalar(1), lambda: Scalar(-1), lambda: sc("2/2"), lambda: sc("-3/3")]


@st.composite
def unit_entries(draw, gaussian):
    """A unit in one of its forms half the time, otherwise a zero in any form or
    another value, non-real for Q(i)."""
    pick = draw(st.integers(0, 5))
    if pick < 3:
        return draw(st.sampled_from(UNIT_FORMS))()
    if pick == 3:
        return draw(st.sampled_from(ZERO_FORMS))()
    re = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    im = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2))) if gaussian else 0
    return Scalar(re, im)


@st.composite
def unit_mats(draw, gaussian, rows, cols):
    """A matrix of ``unit_entries`` with some columns left empty."""
    empty = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    cells = [[ZERO if j in empty else draw(unit_entries(gaussian)) for j in range(cols)] for _ in range(rows)]
    return Mat.from_rows(cells, cols)


@st.composite
def unit_cases(draw):
    gaussian = draw(st.booleans())
    r, k, c, p, q = (draw(st.integers(0, 3)) for _ in range(5))
    n, m = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    mats = (draw(unit_mats(gaussian, *shape)) for shape in [(r, k), (r, k), (k, c), (p, q)])
    a, a2, b, x = mats
    return a, a2, b, x, n, m, draw(unit_mats(gaussian, c, n * p * m)), draw(unit_mats(gaussian, n * q * m, c))


@given(unit_cases())
@settings(max_examples=300, deadline=None)
def test_unit_singletons_in_the_kernels_match_the_oracles(case):
    a, a2, b, x, n, m, left, right = case
    assert a @ b == oracles.matmul(a, b)
    assert left.mul_ikron(n, x, m) == oracles.matmul(left, oracles.ikron(n, x, m))
    assert ikron_mul(n, x, m, right) == oracles.matmul(oracles.ikron(n, x, m), right)
    assert a.kron(x) == oracles.kron(a, x) and x.kron(a) == oracles.kron(x, a)
    assert a + a2 == oracles.add_mats(a, a2)
    assert a - a2 == oracles.add_mats(a, a2, NEG_ONE)
    for vectors, dim in ((a.cols_sparse(), a.rows), (a.transpose().cols_sparse(), a.cols)):
        basis = span(dim, vectors)
        assert basis == oracles.dense_span(dim, vectors)
        assert all(col[0][1] is ONE for col in basis.cols_sparse())
    for out in (a @ b, left.mul_ikron(n, x, m), a.kron(x), a - a2, -a):
        read_back(out)


def test_neg_one_singleton():
    """NEG_ONE is -1 in every way a caller can see, and every -1 is NEG_ONE."""
    assert NEG_ONE == -1 and NEG_ONE == Scalar(-1) and NEG_ONE == Fraction(-1)
    assert hash(NEG_ONE) == hash(-1) == hash(Scalar(-1))
    assert str(NEG_ONE) == "-1" and repr(NEG_ONE) == "Scalar(-1)"
    assert -ONE is NEG_ONE and -NEG_ONE is ONE
    assert -Scalar(1) is NEG_ONE and -Scalar(-1) is ONE and ZERO - ONE is NEG_ONE and sc("-3/3") * -1 is ONE
    literals = Literals("Q")
    assert literals["-1"] is NEG_ONE and literals["1"] is ONE and literals["0"] is ZERO
    assert literals["-2/2"] is NEG_ONE and literals["-1+0i"] is NEG_ONE


# -- identity Kronecker factors ---------------------------------------------------


@st.composite
def ikron_cases(draw):
    """x with identity factors I_n and I_m (n, m in {0, 1, 3}) and a matrix on
    either side of I_n (x) x (x) I_m; empty columns come from ``oracle_mats``."""
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    n, m = draw(st.sampled_from([0, 1, 3])), draw(st.sampled_from([0, 1, 3]))
    p, q, r = (draw(st.integers(0, 3)) for _ in range(3))
    _, x = draw(oracle_mats(kind, p, q))
    _, a = draw(oracle_mats(kind, r, n * p * m))
    _, b = draw(oracle_mats(kind, n * q * m, r))
    return n, x, m, a, b


@given(ikron_cases())
@settings(max_examples=200, deadline=None)
def test_identity_kron_kernels_match_the_built_factor(case):
    n, x, m, a, b = case
    factor = Mat.identity(n).kron(x).kron(Mat.identity(m))
    left, right = a.mul_ikron(n, x, m), ikron_mul(n, x, m, b)
    assert read_back(left) == read_back(a @ factor)
    assert read_back(right) == read_back(factor @ b)
    assert (left.rows, left.cols, right.rows, right.cols) == (a.rows, factor.cols, factor.rows, b.cols)
    with pytest.raises(ValueError):
        Mat.zeros(a.rows, a.cols + 1).mul_ikron(n, x, m)
    with pytest.raises(ValueError):
        ikron_mul(n, x, m, Mat.zeros(b.rows + 1, b.cols))


# ``mul_ikron`` scatters each nonempty column of self to the output columns its x row
# reaches: the cases below pin where that differs from a column-by-column product


def assert_mul_ikron_matches_the_oracle(a, n, x, m):
    out = a.mul_ikron(n, x, m)
    assert out == oracles.matmul(a, oracles.ikron(n, x, m))
    read_back(out)
    return out


def test_mul_ikron_drops_terms_that_cancel():
    # n = 2, m = 2: output column (i*1 + 0)*2 + k sums self columns (i*2 + 0)*2 + k and (i*2 + 1)*2 + k
    a = Mat.from_cols([[2, 1], [3, 0], [2, 1], [5, 0], [0, 4], [0, 1], [1, 4], [0, 1]])
    x = Mat.from_cols([[1, -1]])
    out = assert_mul_ikron_matches_the_oracle(a, 2, x, 2)
    assert out.cols_sparse() == [[], [(0, sc(-2))], [(0, NEG_ONE)], []]


def test_mul_ikron_sums_unit_and_non_unit_terms_in_one_column():
    # the ONE, NEG_ONE and 2/3 terms of x's one column land in output column i, in every order
    x = Mat.from_cols([[1, -1, "2/3"]])
    a = Mat.from_cols([[1, 2], [0, 5], [3, 0], [0, "3/2"], [1, 0], ["3/2", "3/4"]])
    out = assert_mul_ikron_matches_the_oracle(a, 2, x, 1)
    assert out.cols_sparse() == [[(0, sc(3)), (1, sc(-3))], [(1, sc(2))]]
    for order in ([2, 0, 1], [1, 2, 0]):  # the same terms, a non-unit or NEG_ONE one landing first
        xp = Mat.from_cols([[x.column(0)[j] for j in order]])
        ap = Mat(a.rows, a.cols, [a.cols_sparse()[i * 3 + j] for i in range(2) for j in order])
        assert ap.mul_ikron(2, xp, 1) == out


def test_mul_ikron_with_empty_rows_of_x_and_empty_columns_of_self():
    # row 1 of x is empty, so self's columns j = 1 reach nothing; self's empty columns reach nothing either
    x = Mat.from_cols([[1, 0, 2], [0, 0, -1], [3, 0, 0]])
    a = Mat(2, 3 * 3, [[(0, ONE)], [(1, sc(7))], [], [], [(0, ONE), (1, ONE)], [], [(1, sc(5))], [], []])
    out = assert_mul_ikron_matches_the_oracle(a, 1, x, 3)
    assert (out.rows, out.cols) == (2, 9)
    assert [bool(col) for col in out.cols_sparse()] == [True, True, False, True, False, False, True, True, False]


@pytest.mark.parametrize("n,m", [(0, 3), (2, 0), (0, 0)])
def test_mul_ikron_with_a_zero_identity_leg(n, m):
    x = Mat.from_cols([[1, 2], [0, -1], [3, 0]])  # 2 x 3
    out = assert_mul_ikron_matches_the_oracle(Mat.zeros(4, 0), n, x, m)
    assert (out.rows, out.cols) == (4, 0)
    with pytest.raises(ValueError):
        Mat.zeros(4, 1).mul_ikron(n, x, m)


def test_mul_ikron_shares_the_column_of_a_lone_one_term():
    a = Mat.from_cols([[1, 2], [0, 3], [4, 0], [0, 0]])
    x = Mat.from_cols([[1, 0], [0, 0], [0, -1]])  # 2 x 3
    out = assert_mul_ikron_matches_the_oracle(a, 2, x, 1)
    assert out.cols_sparse()[0] is a.cols_sparse()[0]  # x[0, 0] = 1 alone
    assert out.cols_sparse()[3] is a.cols_sparse()[2]
    assert out.cols_sparse()[5] is not a.cols_sparse()[3]  # -1: a column of its own


def test_mul_ikron_leaves_a_shared_column_alone_when_a_second_term_lands():
    # in each block i, x[0, 0] = 1 lands first and shares self's column 2i; x[1, 0] then adds column 2i + 1
    a = Mat.from_cols([[1, 2, 0], [0, -2, 5], [0, 0, 1], [3, 0, 0]])
    before = [list(col) for col in a.cols_sparse()]
    shared = [a.cols_sparse()[0], a.cols_sparse()[2]]
    out = assert_mul_ikron_matches_the_oracle(a, 2, Mat.from_cols([[1, 1]]), 1)
    assert out.cols_sparse() == [[(0, ONE), (2, sc(5))], [(0, sc(3)), (2, ONE)]]
    assert a.cols_sparse() == before and [a.cols_sparse()[0], a.cols_sparse()[2]] == shared
    assert all(col is not old for col, old in zip(out.cols_sparse(), shared))


# ``mul_ikron`` reads x's rows from ``row_index``, built on the first product and kept with x


@st.composite
def shared_x_cases(draw):
    """One x beside identity factors I_n and I_m in several products: left factors for
    drawn (n, m) (n, m in {0, 1, 2, 3}), and the blocks of a ``Graded`` for one more (n, m)
    with an identity factor; empty columns come from ``oracle_mats``."""
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    _, x = draw(oracle_mats(kind, p, q))
    legs = st.sampled_from([0, 1, 2, 3])
    lefts = []
    for _ in range(draw(st.integers(2, 4))):
        n, m = draw(legs), draw(legs)
        lefts.append((n, draw(oracle_mats(kind, draw(st.integers(0, 3)), n * p * m))[1], m))
    n, m = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 1)]))
    blocks = {k: draw(oracle_mats(kind, draw(st.integers(0, 3)), n * p * m))[1] for k in range(draw(st.integers(2, 3)))}
    return x, lefts, (n, Graded(blocks), m)


@given(shared_x_cases())
@settings(max_examples=200, deadline=None)
def test_one_row_index_serves_every_product_with_its_x(case):
    x, lefts, (n, blocks, m) = case
    index = x.row_index()
    assert index == x.transpose().cols_sparse()
    for ni, a, mi in lefts:
        assert read_back(a.mul_ikron(ni, x, mi)) == read_back(oracles.matmul(a, oracles.ikron(ni, x, mi)))
    graded = blocks.mul_ikron(n, x, m)
    assert graded.keys() == blocks.keys()
    for k, a in blocks.items():
        assert read_back(graded[k]) == read_back(oracles.matmul(a, oracles.ikron(n, x, m)))
    assert x.row_index() is index and index == x.transpose().cols_sparse()


class ReadColumns(list):
    """Sparse columns that record which ones are read by index."""

    def __getitem__(self, j):
        self.read.append(j)
        return super().__getitem__(j)


def test_mul_ikron_reads_only_the_nonempty_columns_of_self():
    # n = 2, m = 2, x 2 x 3: self's columns 1, 3, 4 and 6 of 8 hold entries, and 3 and 6
    # (j = 1) meet x's empty row 1, so only 1 and 4 are read
    x = Mat.from_cols([[1, 0], [2, 0], [-1, 0]])
    cols = [[], [(0, ONE)], [], [(1, sc(3))], [(0, sc(2)), (1, ONE)], [], [(1, NEG_ONE)], []]
    a = Mat(2, 8, ReadColumns(cols))
    a._cols_sparse.read = []
    out = a.mul_ikron(2, x, 2)
    assert sorted(a._cols_sparse.read) == [1, 4]
    assert out == oracles.matmul(Mat(2, 8, cols), oracles.ikron(2, x, 2))
    empty = [c for c in out.cols_sparse() if not c]  # where no term lands: one shared list
    assert len(empty) == 6 and all(c is empty[0] for c in empty)


def test_a_built_row_index_changes_no_copy_or_comparison_of_its_matrix():
    cells = [[1, 0, 2], [0, 0, -1], [3, 0, 0]]
    x, twin = Mat.from_cols(cells), Mat.from_cols(cells)
    unindexed = (copy.copy(x), pickle.loads(pickle.dumps(x)))
    index = x.row_index()
    assert index == x.transpose().cols_sparse() == [[(0, ONE), (2, sc(3))], [], [(0, sc(2)), (1, NEG_ONE)]]
    assert x.row_index() is index
    assert x == twin and twin == x and not x != twin
    a = Mat.from_cols([[1, 2], [0, 3], [4, 0], [0, 0], [5, 0], [0, -1]])  # 2 x 6: n = 2, m = 1
    product = oracles.matmul(a, oracles.ikron(2, x, 1))
    for copied in (copy.copy(x), pickle.loads(pickle.dumps(x)), *unindexed):
        assert copied == x and (copied.rows, copied.cols) == (3, 3)
        assert copied.row_index() == index
        assert a.mul_ikron(2, copied, 1) == product
    assert a.mul_ikron(2, x, 1) == product


@st.composite
def contract_cases(draw):
    """x and y sharing a contracted leg of size w, beside identity factors I_n and
    I_m, with n, m and w each zero sometimes (Omega1 = 0 makes every one of them
    zero in ``zero-form-smoke``); empty columns come from ``oracle_mats``."""
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    n, m, w = (draw(st.sampled_from([0, 1, 2, 3])) for _ in range(3))
    p, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    _, x = draw(oracle_mats(kind, p, n * w))
    _, y = draw(oracle_mats(kind, w * m, c))
    return x, m, n, y, draw(st.booleans())


@given(contract_cases())
@settings(max_examples=300, deadline=None)
# each leg zero with the other two not, on either side; w = 0 is the zero-form bundle's
# case, where the shapes of x and y give neither n nor m
@example((Mat(2, 0), 2, 3, Mat(0, 2), False))
@example((Mat(2, 0), 2, 3, Mat(0, 2), True))
@example((Mat(2, 0), 2, 0, Mat(4, 2), False))
@example((Mat(2, 0), 2, 0, Mat(4, 2), True))
@example((Mat(2, 6), 0, 3, Mat(0, 2), False))
@example((Mat(2, 6), 0, 3, Mat(0, 2), True))
def test_contract_matches_the_built_identity_factor(case):
    x, m, n, y, mirror = case
    out = contract(x, m, n, y, mirror)
    assert read_back(out) == read_back(oracles.contract(x, m, n, y, mirror))
    assert (out.rows, out.cols) == (x.rows * m, n * y.cols)
    if n:  # x fixes the contracted leg, so y with one more row cannot contract with it
        with pytest.raises(ValueError):
            contract(x, m, n, Mat.zeros(y.rows + 1, y.cols), mirror)


def test_kron_vec():
    x = [sc(1), sc(2)]
    y = [sc(0), sc(3)]
    assert kron_vec(x, y) == [sc(0), sc(3), sc(0), sc(6)]


# -- zeros built in other ways than as ZERO ---------------------------------------

OTHER_ZEROS = [Scalar(0), sc("0/5"), Scalar(0, 0), ONE - ONE]


@pytest.mark.parametrize("z", OTHER_ZEROS, ids=["Scalar(0)", "0/5", "Scalar(0,0)", "ONE-ONE"])
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


@st.composite
def hermitian_mats(draw, max_dim=5):
    """A conjugate-symmetric matrix over Q or Q(i), n = 0 to max_dim: a product m m*
    (PSD) shifted down by 0, 1 or 2 times the identity, a random one, or one with a
    zero diagonal; or, one time in eight, such a matrix with one entry bumped out of
    symmetry."""
    n = draw(st.integers(0, max_dim))
    gauss = draw(st.booleans())
    part = st.sampled_from([0, 0, 0, 1, -1, 2, -3])

    def entry():
        return sc(draw(part)) + (sc(draw(part)) * I if gauss else ZERO)

    kind = draw(st.sampled_from(["product", "random", "zero-diagonal"]))
    if kind == "product":
        k = draw(st.integers(1, 4))
        m = Mat.from_rows([[entry() for _ in range(k)] for _ in range(n)], k)
        g = m @ m.conj_transpose() - Mat.identity(n).scale(sc(draw(st.integers(0, 2))))
    else:
        upper = {(i, j): entry() for i in range(n) for j in range(i + 1, n)}
        diag = [ZERO if kind == "zero-diagonal" else sc(draw(part)) for _ in range(n)]
        rows = [[diag[i] if i == j else upper[i, j] if i < j else upper[j, i].conj() for j in range(n)] for i in range(n)]
        g = Mat.from_rows(rows, n)
    if n and draw(st.integers(0, 7)) == 0:
        g = g + Mat.from_entries(n, n, [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), I)])
    return g


def ldl_outcome(certify, g: Mat) -> tuple:
    """Every output of one PSD certification: the certificate's perm, lower and diag,
    the counterexample's vector and value, or the NotHermitian message."""
    try:
        res = certify(g)
    except NotHermitian as err:
        return ("not-hermitian", str(err))
    if isinstance(res, PsdCertificate):
        return ("certificate", res.perm, res.lower, res.diag)
    return ("counterexample", res.vector, res.value)


@given(hermitian_mats())
@settings(max_examples=400, deadline=None)
@example(Mat.from_rows([[0, 0, 1], [0, 1, 2], [1, 2, 0]]))
@example(Mat.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 0]]))
@example(Mat.from_rows([[1, 2, 0], [2, 5, 1], [0, 1, -1]]))
def test_psd_matches_transform_oracle(g):
    """Elimination over an index order gives what swapping rows and columns under a
    transform matrix gave: the same pivots, factors, witnesses and messages."""
    assert ldl_outcome(ldl_certify_psd, g) == ldl_outcome(oracles.ldl_certify_psd, g)


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
    in three; zeros are built in every way, not only taken as ZERO."""
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


# -- sparse row reduction against the dense Gauss-Jordan oracle -----------------


@st.composite
def reduction_cases(draw):
    """Q and Q(i) matrices up to 4 x 4, square half the time; a row that is a
    multiple of another and an all-zero row each come in half the cases, and so
    do matrices with no rows or no columns."""
    kind = draw(st.sampled_from(["int", "rational", "gaussian"]))
    rows = draw(st.integers(0, 4))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 4))
    _, m = draw(oracle_mats(kind, rows, cols))
    dense = [list(row) for row in m.data]
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        s = draw(entries(kind))[1]
        dense[i] = [s * x for x in dense[j]]
    if rows and draw(st.booleans()):
        dense[draw(st.integers(0, rows - 1))] = [ZERO] * cols
    return Mat.from_rows(dense, cols)


def inverse_or_error(invert, m):
    try:
        return invert(m)
    except ValueError:
        return ValueError


@given(reduction_cases())
@settings(max_examples=300, deadline=None)
def test_row_reduction_matches_dense_oracle(m):
    red, pivots = rref(m)
    read_back(red)  # sorted columns, no stored zero
    assert (red, pivots) == oracles.rref(m)
    assert rank(m) == oracles.rank(m)
    assert kernel(m) == oracles.kernel(m)
    # ValueError exactly when the oracle raises it: a singular or a non-square m
    assert inverse_or_error(inverse, m) == inverse_or_error(oracles.inverse, m)


@st.composite
def sparse_generators(draw):
    """Sparse Q or Q(i) vectors in up to 8 coordinates, as dicts that may hold
    zeros; a repeated vector, a scaled copy, repeated one-entry vectors and a
    zero vector each come in some cases, and the vectors come with a drawn
    insertion order."""
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    dim = draw(st.integers(1, 8))
    vecs = [
        {c: draw(entries(kind))[1] for c in draw(st.sets(st.integers(0, dim - 1), max_size=4))}
        for _ in range(draw(st.integers(0, 8)))
    ]
    if vecs and draw(st.booleans()):
        vecs.append(dict(draw(st.sampled_from(vecs))))
    if vecs and draw(st.booleans()):
        s = draw(entries(kind))[1]
        vecs.append({c: s * v for c, v in draw(st.sampled_from(vecs)).items()})
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.integers(0, dim - 1))
        vecs += [{c: draw(entries(kind))[1]} for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        vecs.append({})
    return vecs, draw(st.permutations(range(len(vecs))))


@given(sparse_generators())
@settings(max_examples=300, deadline=None)
def test_echelon_pivot_rows_match_the_scanning_oracle_in_any_order(case):
    """The echelon takes each vector as a fresh dict of its nonzero entries, the
    form ``span``, ``rref`` and ``kernel`` hand over, with no copy or zero test."""
    vecs, order = case
    oracle = oracles.SparseEchelon()
    for vec in vecs:
        oracle.add_sparse(vec)
    ech = SparseEchelon()
    for i in order:
        ech.add_sparse({c: v for c, v in vecs[i].items() if v})
    assert ech.pivot_rows == oracle.pivot_rows
    assert all(row[p] is ONE for p, row in ech.pivot_rows.items())
    cols = [sorted((c, v) for c, v in vecs[i].items() if v) for i in order]
    assert span(8, cols) == oracles.dense_span(8, cols)


@st.composite
def kill_families(draw):
    """Q or Q(i) families made mostly of one-entry vectors (coordinate kills), each a
    dict or a list of pairs: kill values of any size, +-1 in every form among them, a
    kill repeated with the opposite sign, multi-entry vectors that hold a killed
    column, all in a drawn order (so some come before the kills and some after),
    and empty vectors."""
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    dim = draw(st.integers(1, 8))
    units = st.sampled_from(UNIT_FORMS).map(lambda f: f())
    values = st.one_of(units, entries(kind).map(lambda e: e[1]).filter(bool))
    killed = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim + 2))
    vecs = [{c: draw(values)} for c in killed]
    if draw(st.booleans()):
        c, v = next(iter(draw(st.sampled_from(vecs)).items()))
        vecs.append({c: -v})
    for _ in range(draw(st.integers(0, 3))):
        cols = draw(st.sets(st.integers(0, dim - 1), min_size=min(2, dim), max_size=4))
        cols.add(draw(st.sampled_from(killed)))
        vecs.append({c: draw(values) for c in cols})
    vecs += [{}] * draw(st.integers(0, 2))
    vecs = draw(st.permutations(vecs))
    return dim, [sorted(v.items()) if draw(st.booleans()) else v for v in vecs]


@given(kill_families())
@settings(max_examples=300, deadline=None)
def test_span_with_coordinate_kills_matches_the_dense_oracle(case):
    """A one-entry vector kills its coordinate with no echelon step; the basis is
    still the unique reduced echelon one, every column led by ONE."""
    dim, vecs = case
    basis = span(dim, vecs)
    assert basis == oracles.dense_span(dim, vecs)
    assert all(col[0][1] is ONE for col in basis.cols_sparse())
    read_back(basis)


def test_span_treats_a_zero_value_as_absent():
    """A one-entry vector with a zero value kills nothing, and no zero is stored."""
    assert span(3, [[(1, ZERO)]]) == Mat.zeros(3, 0)
    assert span(3, [{1: sc("0/5")}, [(0, ONE), (1, sc(2))]]).cols_sparse() == [[(0, ONE), (1, sc(2))]]
    basis = span(3, [[(0, ONE), (2, ZERO)]])
    assert basis.cols_sparse() == [[(0, ONE)]]
    read_back(basis)
    assert span(3, [{0: sc(2), 2: ONE - ONE}, [(1, sc(3))]]) == Mat.from_cols([[1, 0, 0], [0, 1, 0]], 3)


# -- graded maps against the per-degree dicts of matrices they replaced ----------


@st.composite
def graded_terms(draw):
    """``(k, Mat)`` terms in up to three degrees, every term of a degree on one
    shape, and in some cases the negative of one of them, so that entries cancel;
    empty and all-zero blocks come from ``oracle_mats``."""
    kind = draw(st.sampled_from(["int", "rational", "gaussian"]))
    cols = draw(st.integers(0, 3))
    rows = [draw(st.integers(0, 3)) for _ in range(draw(st.integers(1, 3)))]
    keys = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
    terms = [(k, draw(oracle_mats(kind, rows[k], cols))[1]) for k in keys]
    if draw(st.booleans()):
        k, mat = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (k, -mat))
    return terms


@given(graded_terms(), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_graded_sums_match_the_dict_oracle(terms, cut):
    summed, difference = {}, {}
    for t, (k, mat) in enumerate(terms):
        oracles.add(summed, k, mat)
        oracles.add(difference, k, mat if t < cut else -mat)
    total = Graded.sum(Graded({k: mat}) for k, mat in terms)
    assert total == summed
    for block in total.values():
        read_back(block)
    first, second = (Graded.sum(Graded({k: mat}) for k, mat in part) for part in (terms[:cut], terms[cut:]))
    assert first + second == summed
    assert first - second == difference


@st.composite
def one_entry_terms(draw):
    """Two to four matrices of one shape whose columns mostly hold one entry.  Rows
    come from a small range, so that terms collide and arrive out of row order; a
    column may repeat an earlier term's entry negated, so that the two cancel, and
    now and then holds two entries, so that a summed column takes a further term."""
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    nonzero = entries(kind).filter(lambda e: e[0] != G0).map(lambda e: e[1])
    mats = []
    for _ in range(draw(st.integers(2, 4))):
        columns = []
        for j in range(cols):
            seen = [m.cols_sparse()[j][0] for m in mats if m.cols_sparse()[j]]
            how = draw(st.sampled_from(["empty", "one", "one", "cancel", "two"]))
            if how == "cancel" and seen:
                i, v = draw(st.sampled_from(seen))
                columns.append([(i, -v)])
            elif how == "two" and rows > 1:
                i, k = sorted(draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True)))
                columns.append([(i, draw(nonzero)), (k, draw(nonzero))])
            elif how != "empty":
                columns.append([(draw(st.integers(0, rows - 1)), draw(nonzero))])
            else:
                columns.append([])
        mats.append(Mat(rows, cols, columns))
    return mats


def o_add(a, b, sign=1):
    return [[(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(r, s)] for r, s in zip(a, b)]


@given(one_entry_terms())
@example([Mat(3, 1, [[(0, sc(2))]]), Mat(3, 1, [[(0, sc(-2))]])])  # they cancel
@example([Mat(3, 1, [[(2, sc("1/2+i"))]]), Mat(3, 1, [[(1, sc(-3))]])])  # out of row order
@example([Mat(3, 1, [[(2, sc(2))]]), Mat(3, 1, [[(0, sc(-3))]]), Mat(3, 1, [[(2, sc(-2))]])])
@settings(max_examples=300, deadline=None)
def test_sums_of_one_entry_columns_match_the_dense_oracle(mats):
    """Two one-entry columns are summed with no dict: two sorted entries, one entry or,
    when they cancel, an empty column, never a stored zero; no input column changes."""
    before = [[list(col) for col in m.cols_sparse()] for m in mats]
    dense = [read_back(m) for m in mats]
    first, second, rest = mats[0], mats[1], mats[1:]
    total, difference = dense[0], dense[0]
    for d in dense[1:]:
        total, difference = o_add(total, d), o_add(difference, d, -1)
    assert read_back(first + second) == o_add(dense[0], dense[1])
    assert read_back(first - second) == o_add(dense[0], dense[1], -1)
    summed = Graded.sum(Graded({0: m}) for m in mats)
    assert read_back(summed[0]) == total
    assert read_back((Graded({0: first}) - Graded.sum(Graded({0: m}) for m in rest))[0]) == difference
    assert [[list(col) for col in m.cols_sparse()] for m in mats] == before


@st.composite
def graded_products(draw):
    """Maps keyed by pairs (k, j), for each side of identity factors I_n and I_m
    (n, m in {1, 2}), and maps keyed by j: each block present or not, of drawn sizes."""
    kind = draw(st.sampled_from(["int", "rational", "gaussian"]))
    n, m, cols = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])), draw(st.integers(0, 3))
    mid = [draw(st.integers(0, 3)) for _ in range(draw(st.integers(1, 3)))]
    out = [draw(st.integers(0, 3)) for _ in range(draw(st.integers(1, 3)))]
    pairs = [(k, j) for k in range(len(out)) for j in range(len(mid)) if draw(st.booleans())]
    present = [j for j in range(len(mid)) if draw(st.booleans())]

    def graded(rows, cols, keys):
        return Graded({key: draw(oracle_mats(kind, rows(key), cols(key)))[1] for key in keys})

    return (
        n,
        m,
        graded(lambda kj: out[kj[0]], lambda kj: n * mid[kj[1]] * m, pairs),  # before I_n (x) x (x) I_m
        graded(lambda kj: out[kj[0]], lambda kj: mid[kj[1]], pairs),
        graded(lambda j: mid[j], lambda j: cols, present),
        graded(lambda j: n * mid[j] * m, lambda j: cols, present),  # after I_n (x) x (x) I_m
    )


@given(graded_products())
@settings(max_examples=200, deadline=None)
def test_graded_products_sum_over_the_middle_degree(case):
    n, m, wide, left, right, tall = case
    kernel_sum, ikron_sum, product_sum = {}, {}, {}
    for (k, j), block in left.items():
        if j in right:
            oracles.add(kernel_sum, k, wide[k, j].mul_ikron(n, right[j], m))
            oracles.add(ikron_sum, k, ikron_mul(n, block, m, tall[j]))
            oracles.add(product_sum, k, block @ right[j])
    assert wide.mul_ikron(n, right, m) == kernel_sum
    assert ikron_mul(n, left, m, tall) == ikron_sum
    assert left @ right == product_sum
    for block in (left @ right).values():
        read_back(block)
    cols = next(iter(right.values())).cols if right else 0
    assert right @ Mat.identity(cols) == right and right.mul_ikron(1, Mat.identity(cols), 1) == right


@st.composite
def stacked_cases(draw):
    """Blocks of up to four degrees on one domain, some degrees missing, and a
    layout listing every degree in a drawn order."""
    kind = draw(st.sampled_from(["int", "rational", "gaussian"]))
    cols = draw(st.integers(0, 3))
    sizes = [draw(st.integers(0, 3)) for _ in range(draw(st.integers(1, 4)))]
    present = draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1))
    blocks = {k: draw(oracle_mats(kind, sizes[k], cols))[1] for k in sorted(present)}
    return blocks, {k: sizes[k] for k in draw(st.permutations(range(len(sizes))))}


@given(stacked_cases())
@settings(max_examples=200, deadline=None)
def test_graded_stacking_matches_the_offset_oracle(case):
    blocks, layout = case
    offsets, rows = {}, 0
    for k, size in layout.items():
        offsets[k], rows = rows, rows + size
    assert Graded(blocks).stacked(layout) == oracles.stacked(blocks, offsets, rows)
    with pytest.raises(KeyError):
        Graded(blocks).stacked({k: s for k, s in layout.items() if k != max(blocks)})


@st.composite
def mismatch_cases(draw):
    """Two maps on Kron(X1, X2, X3) in up to three degrees that agree but for a
    few bumped entries and a degree missing on one side or the other."""
    kind = draw(st.sampled_from(["int", "rational", "gaussian"]))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(3))
    cols = prod(shape)
    sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))]
    lhs = {k: draw(oracle_mats(kind, size, cols))[1] for k, size in enumerate(sizes)}
    rhs = dict(lhs)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(sizes) - 1))
        i, j = draw(st.integers(0, sizes[k] - 1)), draw(st.integers(0, cols - 1))
        bump = draw(entries(kind))[1] or ONE
        rhs[k] = rhs[k] + Mat.from_entries(sizes[k], cols, [(i, j, bump)])
    for side in (lhs, rhs):
        if len(side) > 1 and draw(st.booleans()):
            del side[draw(st.sampled_from(sorted(side)))]
    return shape, lhs, rhs


@given(mismatch_cases())
@settings(max_examples=300, deadline=None)
def test_graded_witness_matches_both_dict_rules(case):
    shape, lhs, rhs = case
    left, right = Graded(lhs), Graded(rhs)
    assert left.first_mismatch(right, shape) == oracles.first_mismatch(lhs, rhs, shape)
    blocks = (shape[0], shape[1] * shape[2])
    assert left.first_mismatch(right, blocks, prefix=1) == oracles.first_by_block(lhs, rhs, blocks)
    cols = {side: {k: b.cols_sparse() for k, b in blocks.items()} for side, blocks in (("l", lhs), ("r", rhs))}
    empty = [[]] * prod(shape)
    differ = sorted(k for k in lhs.keys() | rhs.keys() if cols["l"].get(k, empty) != cols["r"].get(k, empty))
    assert left.first_mismatch(right, shape, prefix=0) == ((differ[0],) if differ else None)
    for k in lhs.keys() & rhs.keys():
        assert first_mismatch(lhs[k], rhs[k], shape) == oracles.first_mismatch(lhs[k], rhs[k], shape)


@given(mismatch_cases(), st.permutations(range(3)), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_graded_witness_reads_the_legs_in_order(case, order, prefix):
    """The witness read in a drawn order of the legs is the one found after both sides
    were multiplied by the permutation matrix that puts the columns in that order."""
    shape, lhs, rhs = case
    expected = oracles.first_mismatch_in_order(lhs, rhs, shape, order, prefix)
    assert Graded(lhs).first_mismatch(Graded(rhs), shape, prefix=prefix, order=order) == expected
    for k in lhs.keys() & rhs.keys():
        one = oracles.first_mismatch_in_order({0: lhs[k]}, {0: rhs[k]}, shape, order, 3)
        assert first_mismatch(lhs[k], rhs[k], shape, order) == (one and one[:-1])


def test_witness_order_picks_another_column():
    """On Kron(X1, X2) of shape (2, 3), columns 2 = (0, 2) and 3 = (1, 0) differ: in column
    order the witness is column 2, and read as (x2, x1) it is column 3, (0, 1)."""
    lhs = Mat.from_rows([[0, 0, 1, 1, 0, 0]])
    rhs = Mat.zeros(1, 6)
    assert first_mismatch(lhs, rhs, (2, 3)) == (0, 2)
    assert first_mismatch(lhs, rhs, (2, 3), order=(1, 0)) == (0, 1)
    assert oracles.first_mismatch_in_order({0: lhs}, {0: rhs}, (2, 3), (1, 0), 2) == (0, 1, 0)


def test_witness_rule_rejects_a_shape_mismatch():
    """A column that only one side has, or a domain shape that does not match the
    columns, is an error, not a missed or misplaced witness."""
    two, three = Mat.from_rows([[1, 0]]), Mat.from_rows([[1, 0, 5]])
    with pytest.raises(ValueError):
        first_mismatch(two, three, (2,))
    with pytest.raises(ValueError):
        first_mismatch(two, Mat.from_rows([[1, 1]]), (2, 2))
    with pytest.raises(ValueError):
        first_mismatch(two, Mat.from_rows([[1, 0], [0, 0]]), (2,))
    with pytest.raises(ValueError):
        Graded({0: two, 1: three}).first_mismatch(Graded({0: two}), (2,))
