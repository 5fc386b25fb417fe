"""Tensor products over the algebra, conjugates and FGP structure.

Independent oracles: tensor-quotient dimensions are cross-checked against a
plain Fraction Gaussian elimination over the enumerated relation vectors, and
the bimodule-map, tensor-action and conjugate identities against the loops over
basis elements in ``oracles.py``, witnesses included.
"""

from fractions import Fraction
import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from ncdiffop.bimodule import (
    NotProjective,
    TensorPair,
    algebra_as_bimodule,
    balance,
    conjugate_bimodule,
    dualize_right_module,
    intertwining_failure,
    zigzag_failure,
)
from ncdiffop.linalg import Mat, inverse, kron_vec, quotient, span
from ncdiffop.report import ValidationError
from ncdiffop.scalars import ONE, ZERO, sc
import oracles
from oracles import (
    action_blocks,
    bimodule_from_blocks,
    left_apply,
    lift,
    pair_apply,
    push,
    relation_vectors,
    right_apply,
    unit_row,
)


def frac_span_dim(vectors, ambient):
    """Oracle: dimension of a rational span by hand-rolled elimination."""
    rows = [[Fraction(str(v.get(i, 0))) for i in range(ambient)] for v in vectors]
    rank = 0
    for col in range(ambient):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_omega_bimodule_valid(two_point_omega):
    assert all(r.ok for r in two_point_omega.validate())


def test_unit_object_left(two_point_algebra, two_point_omega):
    # A (x)_A E is isomorphic to E via a (x) e -> a.e
    A = algebra_as_bimodule(two_point_algebra)
    pair = TensorPair(A, two_point_omega)
    assert pair.dim == two_point_omega.dim
    left = action_blocks(two_point_omega)[0]
    cols = [left[i].column(j) for i in range(A.dim) for j in range(two_point_omega.dim)]
    mult_plain = Mat.from_cols(cols, two_point_omega.dim)
    iso = pair.induce(mult_plain, "left-unitor", pair.space.name)
    assert intertwining_failure(pair.space, two_point_omega, iso) is None  # equivariant
    inverse(iso)  # invertible


def test_unit_object_right(two_point_algebra, two_point_omega):
    A = algebra_as_bimodule(two_point_algebra)
    pair = TensorPair(two_point_omega, A)
    assert pair.dim == two_point_omega.dim
    right = action_blocks(two_point_omega)[1]
    cols = [right[i].column(j) for j in range(two_point_omega.dim) for i in range(A.dim)]
    mult_plain = Mat.from_cols(cols, two_point_omega.dim)
    iso = pair.induce(mult_plain, "right-unitor", pair.space.name)
    assert intertwining_failure(pair.space, two_point_omega, iso) is None
    inverse(iso)


def test_omega_tensor_omega_dim_two(two_point_omega):
    # oracle: enumerate the relations and eliminate with Fractions
    rels = [{k: str(v) for k, v in row.items()} for row in relation_vectors(two_point_omega, two_point_omega)]
    assert 4 - frac_span_dim(rels, 4) == 2
    pair = TensorPair(two_point_omega, two_point_omega)
    assert pair.dim == 2
    # the relations are the columns of the balancing map, which span the generators' span
    assert pair.relation_mat == span(4, relation_vectors(two_point_omega, two_point_omega))
    assert span(4, balance(two_point_omega, two_point_omega).cols_sparse()) == pair.relation_mat
    # the diagonal plain tensors die in the quotient
    assert push(pair, kron_vec([ONE, ZERO], [ONE, ZERO])) == [ZERO, ZERO]
    assert push(pair, kron_vec([ZERO, ONE], [ZERO, ONE])) == [ZERO, ZERO]


@pytest.mark.parametrize("name", ["two-point-universal", "z3-function-calculus", "zero-form-smoke"])
def test_balance_is_the_kronecker_formula_on_every_crossing_module(name):
    """The balancing map read from the actions equals R_E (x) I_F - I_E (x) L_F,
    entry for entry, on every ordered pair of the test objects (A, the 1-forms,
    the vector fields) and the tensor products of two that the crossings build."""
    from ncdiffop.bundle import load_builtin

    bundle = load_builtin(name)
    crossings = bundle.crossings()
    names = crossings.object_names()
    spaces = [crossings.modules[a].space for a in names] + [bundle.geometry.omega]
    spaces += [crossings.tensor_module(a, b).space for a in names for b in names]
    for e in spaces:
        for f in spaces:
            assert balance(e, f) == oracles.kron_balance(e, f), (e.name, f.name)


def test_balance_is_the_kronecker_formula_over_gaussian_rationals(two_point_omega):
    """The same on a Q(i) bimodule: the two-point 1-forms in the basis changed by
    S = [[1, i], [0, 1]], so that both actions have non-real entries."""
    s, s_inv = Mat.from_rows([["1", "i"], ["0", "1"]]), Mat.from_rows([["1", "-i"], ["0", "1"]])
    left, right = action_blocks(two_point_omega)
    twisted = bimodule_from_blocks(
        two_point_omega.algebra, 2, [s @ x @ s_inv for x in left], [s @ x @ s_inv for x in right], "twisted"
    )
    assert all(r.ok for r in twisted.validate())
    assert any(not v.is_real() for col in twisted.right_action.cols_sparse() for _, v in col)
    a = algebra_as_bimodule(two_point_omega.algebra)
    for e in (twisted, a):
        for f in (twisted, a, two_point_omega):
            assert balance(e, f) == oracles.kron_balance(e, f), (e.name, f.name)
            assert balance(f, e) == oracles.kron_balance(f, e), (f.name, e.name)
    assert TensorPair(twisted, twisted).dim == TensorPair(two_point_omega, two_point_omega).dim


@functools.lru_cache(maxsize=None)
def two_point_forms():
    from ncdiffop.bundle import load_builtin

    return load_builtin("two-point-universal").geometry.omega


TWIST_ENTRIES = st.sampled_from(["0", "1", "-1", "2", "1/2", "i", "1-i"]).map(sc)
TWIST_PIVOTS = st.sampled_from(["1", "-1", "3", "i", "2+i"]).map(sc)


def direct_sum(x: Mat, y: Mat) -> Mat:
    return Mat.from_rows([list(r) + [ZERO] * y.cols for r in x.data] + [[ZERO] * x.cols + list(r) for r in y.data])


@st.composite
def two_point_bimodules(draw):
    """A bimodule over the two-point algebra: its 1-forms, the algebra or their direct
    sum, in some cases in a basis changed by a drawn S = L D U over Q(i) (L and U
    unitriangular, D an invertible diagonal), and in some cases conjugated.  A twist
    mixes the basis, so that relations of several entries occur next to the
    coordinate kills of the untwisted modules."""
    om = two_point_forms()
    bases = {"omega": om, "A": algebra_as_bimodule(om.algebra)}
    base = draw(st.sampled_from(["omega", "A", "sum"]))
    if base == "sum":
        blocks = [action_blocks(bases["omega"]), action_blocks(bases["A"])]
        left, right = ([direct_sum(x, y) for x, y in zip(blocks[0][k], blocks[1][k])] for k in (0, 1))
    else:
        left, right = action_blocks(bases[base])
    n = left[0].rows
    if draw(st.booleans()):
        tri = [[ONE if i == j else draw(TWIST_ENTRIES) for j in range(n)] for i in range(n)]
        lower = Mat.from_rows([[v if i >= j else ZERO for j, v in enumerate(row)] for i, row in enumerate(tri)])
        upper = Mat.from_rows([[v if i <= j else ZERO for j, v in enumerate(row)] for i, row in enumerate(tri)])
        s = lower @ Mat.from_entries(n, n, [(i, i, draw(TWIST_PIVOTS)) for i in range(n)]) @ upper
        s_inv = inverse(s)
        left, right = ([s @ x @ s_inv for x in blocks] for blocks in (left, right))
    m = bimodule_from_blocks(om.algebra, n, left, right, base)
    return conjugate_bimodule(m) if draw(st.booleans()) else m


def assert_relations_match_the_dense_span(pair):
    """The relation basis is the dense span of every generator e.a (x) f - e (x) a.f,
    and the projection and section are the quotient by it."""
    e, f = pair.e, pair.f
    relations = oracles.dense_span(e.dim * f.dim, list(relation_vectors(e, f)))
    assert pair.relation_mat == relations, (e.name, f.name)
    assert (pair.project, pair.section) == quotient(relations), (e.name, f.name)


@settings(max_examples=40, deadline=None)
@given(e=two_point_bimodules(), f=two_point_bimodules())
def test_tensor_relations_are_the_dense_span_of_the_generators(e, f):
    assert all(r.ok for r in e.validate())
    assert_relations_match_the_dense_span(TensorPair(e, f))


def test_twisted_tensor_relations_have_several_entries(two_point_omega):
    """The Q(i) twist of the two-point 1-forms gives relations of several entries,
    which take the echelon path, next to the coordinate kills."""
    s, s_inv = Mat.from_rows([["1", "i"], ["0", "1"]]), Mat.from_rows([["1", "-i"], ["0", "1"]])
    left, right = action_blocks(two_point_omega)
    twisted = bimodule_from_blocks(
        two_point_omega.algebra, 2, [s @ x @ s_inv for x in left], [s @ x @ s_inv for x in right], "twisted"
    )
    a = algebra_as_bimodule(two_point_omega.algebra)
    for e, f in ((twisted, twisted), (twisted, a), (conjugate_bimodule(twisted), twisted)):
        sizes = [len(v) for v in relation_vectors(e, f)]
        assert max(sizes) > 1 and (1 in sizes or e is not twisted), (e.name, f.name, sizes)
        assert_relations_match_the_dense_span(TensorPair(e, f))


@pytest.mark.parametrize("name", ["two-point-universal", "z3-function-calculus", "zero-form-smoke"])
def test_tensor_relations_of_every_pair_verify_builds(name, monkeypatch):
    """Every tensor pair a full verify builds or shares on a built-in bundle has the dense
    span of its generators as its relations, and every pair ``Geometry.pair`` returns,
    built or shared by content, is the pair built afresh on its own factors."""
    from ncdiffop.bundle import load_builtin
    from ncdiffop.geometry import Geometry
    from ncdiffop.verify import verify_all

    built, returned, init, pair = [], [], TensorPair.__init__, Geometry.pair

    def recording(self, e, f):
        init(self, e, f)
        built.append(self)

    def returning(self, e, f):
        out = pair(self, e, f)
        returned.append((e, f, out))
        return out

    monkeypatch.setattr(TensorPair, "__init__", recording)
    monkeypatch.setattr(Geometry, "pair", returning)
    verify_all(load_builtin(name))
    monkeypatch.undo()
    assert built
    for p in built:
        assert_relations_match_the_dense_span(p)
    for e, f, p in {id(p): (e, f, p) for e, f, p in returned}.values():
        fresh = TensorPair(e, f)
        assert p.e is e and p.f is f
        assert (p.relation_mat, p.project, p.section) == (fresh.relation_mat, fresh.project, fresh.section)
        assert (p.space.left_action, p.space.right_action) == (fresh.space.left_action, fresh.space.right_action)
        assert p.space.name == fresh.space.name and p.space.dim == fresh.space.dim
        assert_relations_match_the_dense_span(p)
    if name == "z3-function-calculus":  # E (x)_A A and A (x)_A E carry E's actions: some pairs are shared
        assert len({id(p) for _, _, p in returned} - {id(p) for p in built}) > 0


def test_equal_content_pairs_that_fail_raise_under_their_own_names():
    """A pair that fails the induced-action check is not kept by content: a second pair of
    the same content checks again and raises with its own space's name."""
    from ncdiffop.bundle import load_builtin

    g = load_builtin("z3-function-calculus").geometry
    left, right = action_blocks(g.omega)
    left[1] = left[1] + Mat.from_entries(left[1].rows, left[1].cols, [(0, 1, ONE)])
    witnesses = []
    for name in ("e1", "e2"):
        e = bimodule_from_blocks(g.algebra, g.omega.dim, left, right, name)
        with pytest.raises(ValidationError) as err:
            g.pair(e, g.vec)
        witnesses.append((err.value.name, err.value.witness))
    assert witnesses == [
        ("tensor-left-action", ("(e1(x)dual(omega1))", 1)),
        ("tensor-left-action", ("(e2(x)dual(omega1))", 1)),
    ]


def test_tensor_projection_section_contract(two_point_omega):
    pair = TensorPair(two_point_omega, two_point_omega)
    assert (pair.project @ pair.section) == Mat.identity(pair.dim)
    for c in range(pair.relation_mat.cols):
        assert push(pair, pair.relation_mat.column(c)) == [ZERO] * pair.dim


def test_tensor_associativity_rebracketing(two_point_algebra, two_point_omega):
    Abim = algebra_as_bimodule(two_point_algebra)
    for triple in [
        (two_point_omega, two_point_omega, two_point_omega),
        (Abim, two_point_omega, two_point_omega),
        (two_point_omega, Abim, two_point_omega),
    ]:
        e, f, g = triple
        ef = TensorPair(e, f)
        ef_g = TensorPair(ef.space, g)
        fg = TensorPair(f, g)
        e_fg = TensorPair(e, fg.space)
        assert ef_g.dim == e_fg.dim
        # canonical re-bracketing: lift twice, project twice
        cols = []
        for idx in range(ef_g.dim):
            plain_pair = lift(ef_g, unit_row(ef_g.dim, idx))
            out = [ZERO] * e_fg.dim
            for p, c in enumerate(plain_pair):
                if not c:
                    continue
                ij, k = divmod(p, g.dim)
                ef_plain = lift(ef, unit_row(ef.dim, ij))
                for q, cc in enumerate(ef_plain):
                    if not cc:
                        continue
                    i, j = divmod(q, f.dim)
                    inner = push(fg, kron_vec(unit_row(f.dim, j), unit_row(g.dim, k)))
                    term = push(e_fg, kron_vec(unit_row(e.dim, i), inner))
                    out = [x + c * cc * y for x, y in zip(out, term)]
            cols.append(out)
        rebracket = Mat.from_cols(cols)
        assert intertwining_failure(ef_g.space, e_fg.space, rebracket) is None  # action-equivariant
        inverse(rebracket)  # and invertible


def test_conjugate_two_point_omega(two_point_algebra, two_point_omega):
    conj = conjugate_bimodule(two_point_omega)
    (left, right), (conj_left, conj_right) = action_blocks(two_point_omega), action_blocks(conj)
    # hand computation: conjugation swaps the roles of the two actions
    assert conj_left[0] == right[0]
    assert conj_left[1] == right[1]
    assert conj_right[0] == left[0]
    assert all(r.ok for r in conj.validate())
    double_left, double_right = action_blocks(conjugate_bimodule(conj))
    assert all(double_left[i] == left[i] for i in range(2))
    assert all(double_right[i] == right[i] for i in range(2))


def test_conjugate_of_algebra(two_point_algebra):
    A = algebra_as_bimodule(two_point_algebra)
    (conj_left, conj_right), (left, right) = action_blocks(conjugate_bimodule(A)), action_blocks(A)
    # commutative star-trivial algebra: conjugate actions coincide with the original
    assert all(conj_left[i] == left[i] for i in range(2))
    assert all(conj_right[i] == right[i] for i in range(2))


def test_bar_coords_antilinear():
    v = [sc("1+2i"), sc("3")]
    assert [x.conj() for x in v] == [sc("1-2i"), sc("3")]


def test_bimodule_map_verification(two_point_omega):
    bad = Mat.from_rows([[1, 1], [0, 0]])
    assert intertwining_failure(two_point_omega, two_point_omega, bad) is not None
    assert intertwining_failure(two_point_omega, two_point_omega, Mat.identity(2)) is None


# -- the identities against the loops over basis elements --------------------------
# The z3 1-forms and vector fields (both of dimension 6 over A of dimension 3) with
# entries of their per-element action blocks bumped, some by Gaussian scalars.


@functools.lru_cache(maxsize=None)
def z3_forms_and_fields():
    from ncdiffop.bundle import load_builtin

    g = load_builtin("z3-function-calculus").geometry
    assert (g.algebra.dim, g.omega.dim, g.vec.dim) == (3, 6, 6)
    return g.omega, g.vec


SCALARS = st.sampled_from(["1", "-1", "2", "1/2", "i", "1-i"]).map(sc)
ENTRIES = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), SCALARS), max_size=3)
BUMP = st.tuples(st.sampled_from(["left", "right"]), st.integers(0, 2), st.integers(0, 5), st.integers(0, 5), SCALARS)
BUMPS = st.lists(BUMP, max_size=3)
TIE = [("left", 1, 2, 2, ONE), ("right", 1, 0, 3, ONE)]  # both actions of a_1
RIGHT_FIRST = [("left", 2, 0, 0, ONE), ("right", 1, 0, 0, ONE)]


def bumped(M, bumps):
    """M with value v added at (r, c) of the block of a_i on ``side``, for each (side, i, r, c, v)."""
    blocks = dict(zip(("left", "right"), action_blocks(M)))
    for side, i, r, c, v in bumps:
        blocks[side][i] = blocks[side][i] + Mat.from_entries(M.dim, M.dim, [(r, c, v)])
    return bimodule_from_blocks(M.algebra, M.dim, blocks["left"], blocks["right"], M.name)


def test_intertwining_tie_order_pinned():
    om = z3_forms_and_fields()[0]
    I = Mat.identity(om.dim)
    assert intertwining_failure(bumped(om, TIE), om, I) == ("left", 1)
    assert intertwining_failure(om, bumped(om, RIGHT_FIRST), I) == ("right", 1)
    assert intertwining_failure(bumped(om, TIE[1:]), om, I) == ("right", 1)


@settings(max_examples=60, deadline=None)
@given(bumps=BUMPS, entries=ENTRIES)
@example(bumps=TIE, entries=[])
@example(bumps=RIGHT_FIRST, entries=[])
def test_intertwining_witness_matches_oracle(bumps, entries):
    om = z3_forms_and_fields()[0]
    src = bumped(om, bumps)
    mat = Mat.identity(om.dim) + Mat.from_entries(om.dim, om.dim, entries)
    for a, b in ((src, om), (om, src), (src, src)):
        assert intertwining_failure(a, b, mat) == oracles.intertwining_failure(a, b, mat)


def tensor_failure(e, f):
    try:
        TensorPair(e, f)
    except ValidationError as err:
        return (err.name, err.witness)
    return None


@settings(max_examples=30, deadline=None)
@given(e_bumps=BUMPS, f_bumps=BUMPS)
@example(e_bumps=[("left", 1, 0, 1, ONE)], f_bumps=[("right", 1, 0, 2, ONE)])  # a tie at a_1
@example(e_bumps=[("left", 2, 0, 1, ONE)], f_bumps=[("right", 1, 0, 2, ONE)])
def test_tensor_action_witness_matches_oracle(e_bumps, f_bumps):
    om, vec = z3_forms_and_fields()
    e, f = bumped(om, e_bumps), bumped(vec, f_bumps)
    assert tensor_failure(e, f) == oracles.tensor_action_failure(e, f)


@settings(max_examples=30, deadline=None)
@given(bumps=BUMPS)
def test_conjugate_matches_oracle(bumps):
    e = bumped(z3_forms_and_fields()[0], bumps)
    assert action_blocks(conjugate_bimodule(e)) == oracles.conjugate_blocks(e)


# -- FGP / dualization ----------------------------------------------------------


def test_dualize_algebra_as_module(two_point_algebra):
    A = algebra_as_bimodule(two_point_algebra)
    fgp = dualize_right_module(A, [list(two_point_algebra.unit)], [Mat.identity(2)])
    assert fgp.dual.dim == 2  # Hom_A(A, A) is A itself
    assert all(r.ok for r in fgp.dual.validate())


def test_dualize_two_point_omega(two_point_omega, two_point_dual_basis):
    forms, functionals = two_point_dual_basis
    fgp = dualize_right_module(two_point_omega, [[sc(x) for x in f] for f in forms], functionals)
    # independent count: right-linearity forces v(w12) in span{p2}, v(w21) in span{p1}
    assert fgp.dual.dim == 2
    assert all(r.ok for r in fgp.dual.validate())
    # ev and coev passed bimodule-map verification during construction;
    # check the evaluation values against the dual basis
    n = len(fgp.basis_forms)
    for i, (form, func) in enumerate(zip(fgp.basis_forms, fgp.basis_functionals)):
        applied = pair_apply(fgp, func, form)
        assert applied == fgp.idempotent.column(i * n + i)
    # the idempotent P[q][j] = f_q(f^j), each entry one functional applied to one dense form
    for q in range(n):
        for j in range(n):
            assert fgp.idempotent.column(q * n + j) == functionals[q].apply([sc(x) for x in forms[j]])


def test_dualize_rejects_non_dual_basis(two_point_omega, two_point_dual_basis):
    forms, functionals = two_point_dual_basis
    with pytest.raises(NotProjective):
        dualize_right_module(two_point_omega, [[sc(2), sc(0)], [sc(0), sc(1)]], functionals)


# -- ev contractions -------------------------------------------------------------
# Oracles: the explicit loops that every contraction site used to carry, with the
# tensor-factor sizes passed in rather than derived from the vector length.


def explicit_ev_left(M, ev, b, x, w_dim):
    """(ev (x) id)(v_b (x) x) for x in Kron(W, M), one basis term at a time."""
    acc = [ZERO] * M.dim
    for idx, c in enumerate(x):
        if not c:
            continue
        r, s = divmod(idx, M.dim)
        a_val = ev.apply(kron_vec(unit_row(ev.cols // w_dim, b), unit_row(w_dim, r)))
        term = left_apply(M, a_val, unit_row(M.dim, s))
        acc = [y + c * t for y, t in zip(acc, term)]
    return acc


def explicit_ev_right(M, x, ev, j, v_dim):
    """(id (x) ev)(x (x) w_j) for x in Kron(M, V), one basis term at a time."""
    acc = [ZERO] * M.dim
    for idx, c in enumerate(x):
        if not c:
            continue
        r, s = divmod(idx, v_dim)
        a_val = ev.apply(kron_vec(unit_row(v_dim, s), unit_row(ev.cols // v_dim, j)))
        term = right_apply(M, unit_row(M.dim, r), a_val)
        acc = [y + c * t for y, t in zip(acc, term)]
    return acc


@pytest.fixture(
    scope="module", params=[("two-point-universal", 3), ("z3-function-calculus", 2)], ids=["two-point", "z3"]
)
def ev_geometry(request):
    from ncdiffop.bundle import load_builtin

    name, max_n = request.param
    return load_builtin(name).geometry, max_n


def test_ev_helpers_match_explicit_loops_on_coev(ev_geometry):
    g, max_n = ev_geometry
    for n in range(1, max_n + 1):
        Vn, Wn, ev, coev = g.V(n), g.W(n), g.ev_pow(n), g.coev_pow(n)
        assert not coev.is_zero()
        x = coev.column(0)
        fields = Vn.ev_left(ev, coev)  # Kron(V(n), 1) -> V(n)
        for b in range(Vn.dim):
            assert fields.column(b) == explicit_ev_left(Vn, ev, b, x, Wn.dim)
        assert fields == Mat.identity(Vn.dim)  # zig-zag on fields
        forms = Wn.ev_right(coev, ev)  # Kron(1, W(n)) -> W(n)
        for j in range(Wn.dim):
            assert forms.column(j) == explicit_ev_right(Wn, x, ev, j, Vn.dim)
        assert forms == Mat.identity(Wn.dim)  # zig-zag on forms


def test_ev_helpers_match_explicit_loops_on_lifted_box(ev_geometry):
    g, max_n = ev_geometry
    om, ev1 = g.omega, g.fgp.apply_mat
    for n in range(1, max_n + 1):
        Vn, Wn, ev = g.V(n), g.W(n), g.ev_pow(n)
        xv = g.OV(n).section @ g.box_vec_pow(n)  # V(n) -> Kron(Omega, V(n))
        got = om.ev_right(xv, ev)  # Kron(V(n), W(n)) -> Omega
        for b in range(Vn.dim):
            for j in range(Wn.dim):
                assert got.column(b * Wn.dim + j) == explicit_ev_right(om, xv.column(b), ev, j, Vn.dim)
        xw = g.pair_W(n + 1).section @ g.box_form_pow(n)  # W(n) -> Kron(W(n), Omega)
        got = om.ev_left(ev, xw)  # Kron(V(n), W(n)) -> Omega
        for b in range(Vn.dim):
            for j in range(Wn.dim):
                assert got.column(b * Wn.dim + j) == explicit_ev_left(om, ev, b, xw.column(j), Wn.dim)
    # the degree-1 bullet shape: ev on Vec (x) Omega, acting on V(m) with m = 0 included
    for m in range(0, max_n):
        Vm = g.V(m)
        x = g.OV(m).section @ g.box_vec_pow(m)  # V(m) -> Kron(Omega, V(m))
        got = Vm.ev_left(ev1, x)  # Kron(Vec, V(m)) -> V(m)
        for b in range(g.vec.dim):
            for c in range(Vm.dim):
                assert got.column(b * Vm.dim + c) == explicit_ev_left(Vm, ev1, b, x.column(c), om.dim)


@pytest.mark.parametrize("r,c,witness", [(0, 0, ("forms", 0)), (1, 2, ("fields", 1)), (1, 3, ("forms", 1))])
def test_zigzag_failure_witness(r, c, witness):
    """ev with 1 added at (r, c) against coev(1) on the two-point bundle."""
    from ncdiffop.bundle import load_builtin

    g = load_builtin("two-point-universal").geometry
    ev = g.fgp.apply_mat
    assert zigzag_failure(g.vec, g.omega, ev, g.coev_one) is None
    bumped = ev + Mat.from_entries(ev.rows, ev.cols, [(r, c, ONE)])
    assert zigzag_failure(g.vec, g.omega, bumped, g.coev_one) == witness
