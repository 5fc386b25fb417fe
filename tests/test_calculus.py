"""Connections: the right connection tower on forms, the dual left connection
on fields, iterated derivatives and the tensor-product connection.
"""

import copy

import pytest

from ncdiffop.bimodule import Bimodule
from ncdiffop.calculus import (
    connection_morphism_defect,
    omega_module,
    sigma_compat_defect,
    tensor_connection,
    trivial_module,
    vec_module,
)
from ncdiffop.geometry import Geometry
from ncdiffop.linalg import Mat, inverse, kron_vec
from ncdiffop.report import ValidationError
from ncdiffop.scalars import ZERO, sc
from oracles import (
    action_blocks,
    braid_form,
    braid_vec,
    col,
    left_apply,
    left_mult_matrix,
    lift,
    pair_apply,
    push,
    right_apply,
    unit_row,
)


def test_geometry_builds_and_validates(two_point_geometry):
    g = two_point_geometry
    assert g.vec.dim == 2
    assert g.W2.dim == 2
    assert (g.sigma_form @ g.sigma_inv_form) == Mat.identity(2)
    assert (g.sigma_inv_form @ g.sigma_form) == Mat.identity(2)


def test_geometry_rejects_broken_leibniz(
    two_point_algebra, two_point_omega, two_point_dual_basis, two_point_box_sigma
):
    forms, functionals = two_point_dual_basis
    box_plain, sigma_inv_plain = two_point_box_sigma
    bad_d = Mat.from_rows([[1, 1], [1, -1]])
    with pytest.raises(ValidationError) as err:
        Geometry(
            two_point_algebra,
            two_point_omega,
            bad_d,
            [[sc(x) for x in f] for f in forms],
            functionals,
            box_plain,
            sigma_inv_plain,
        )
    assert err.value.name in ("leibniz", "d-of-unit")


def test_geometry_rejects_singular_sigma(
    two_point_algebra, two_point_omega, two_point_d, two_point_dual_basis, two_point_box_sigma
):
    forms, functionals = two_point_dual_basis
    box_plain, _ = two_point_box_sigma
    with pytest.raises(ValidationError) as err:
        Geometry(
            two_point_algebra,
            two_point_omega,
            two_point_d,
            [[sc(x) for x in f] for f in forms],
            functionals,
            box_plain,
            Mat.zeros(4, 4),
        )
    assert err.value.name in ("sigma-invertible", "box-left-leibniz")


def test_degenerate_zero_calculus(two_point_algebra):
    omega0_bim = Bimodule(two_point_algebra, 0, Mat.zeros(0, 0), Mat.zeros(0, 0), "omega0")
    g = Geometry(
        two_point_algebra,
        omega0_bim,
        Mat.zeros(0, 2),
        [],
        [],
        Mat.zeros(0, 0),
        Mat.zeros(0, 0),
        name="smoke",
    )
    assert g.vec.dim == 0
    assert g.V(2).dim == 0 and g.W(3).dim == 0
    assert g.zigzag_defect(1) is None


def test_towers_dims(two_point_geometry):
    g = two_point_geometry
    for n in (1, 2, 3):
        assert g.V(n).dim == 2
        assert g.W(n).dim == 2


def test_box_pow_base_cases(two_point_geometry):
    g = two_point_geometry
    assert g.box_form_pow(0) == g.d
    assert g.box_form_pow(1) == g.box_form
    assert g.box_vec_pow(1) == g.box_vec


def test_box_form_pow_right_leibniz_degree2(two_point_geometry):
    # box<2>(xi.a) = box<2>(xi).a + xi (x) da on every basis pair
    g = two_point_geometry
    W2, W3 = g.W(2), g.W(3)
    box2 = g.box_form_pow(2)
    right = action_blocks(W2)[1]
    for i in range(g.algebra.dim):
        ai = unit_row(g.algebra.dim, i)
        for j in range(W2.dim):
            xi = unit_row(W2.dim, j)
            lhs = box2.apply(right[i].column(j))
            rhs = right_apply(W3, box2.apply(xi), ai)
            extra = g.merge_om(2, 1).apply(kron_vec(xi, g.d.column(i)))
            rhs = [x + y for x, y in zip(rhs, extra)]
            assert lhs == rhs, (i, j)


def test_box_form_pow_braided_left_leibniz(two_point_geometry):
    # box<n>(a.xi) = a.box<n>(xi) + braid(da (x) xi)
    g = two_point_geometry
    for n in (2, 3):
        Wn, Wn1 = g.W(n), g.W(n + 1)
        box = g.box_form_pow(n)
        braid = braid_form(g, n)
        left = action_blocks(Wn)[0]
        for i in range(g.algebra.dim):
            ai = unit_row(g.algebra.dim, i)
            for j in range(Wn.dim):
                xi = unit_row(Wn.dim, j)
                lhs = box.apply(left[i].column(j))
                rhs = left_apply(Wn1, ai, box.apply(xi))
                extra = braid.apply(kron_vec(g.d.column(i), xi))
                rhs = [x + y for x, y in zip(rhs, extra)]
                assert lhs == rhs, (n, i, j)


def test_box_vec_pow_left_leibniz_degree2(two_point_geometry):
    # box<2>(a.v) = a.box<2>(v) + da (x) v
    g = two_point_geometry
    V2 = g.V(2)
    box2 = g.box_vec_pow(2)
    OV2 = g.OV(2)
    left = action_blocks(V2)[0]
    for i in range(g.algebra.dim):
        ai = unit_row(g.algebra.dim, i)
        for b in range(V2.dim):
            v = unit_row(V2.dim, b)
            lhs = box2.apply(left[i].column(b))
            rhs = left_apply(OV2.space, ai, box2.apply(v))
            extra = push(OV2, kron_vec(g.d.column(i), v))
            rhs = [x + y for x, y in zip(rhs, extra)]
            assert lhs == rhs, (i, b)


def test_box_vec_pow_braided_right_leibniz(two_point_geometry):
    # box<n>(v.a) = box<n>(v).a + sigma<n>(v (x) da)
    g = two_point_geometry
    for n in (2, 3):
        Vn = g.V(n)
        box = g.box_vec_pow(n)
        braid = braid_vec(g, n)
        OVn = g.OV(n)
        right = action_blocks(Vn)[1]
        for i in range(g.algebra.dim):
            ai = unit_row(g.algebra.dim, i)
            for b in range(Vn.dim):
                v = unit_row(Vn.dim, b)
                lhs = box.apply(right[i].column(b))
                rhs = right_apply(OVn.space, box.apply(v), ai)
                extra = braid.apply(kron_vec(v, g.d.column(i)))
                rhs = [x + y for x, y in zip(rhs, extra)]
                assert lhs == rhs, (n, i, b)


def test_zigzags(two_point_geometry):
    g = two_point_geometry
    for n in (1, 2, 3):
        assert g.zigzag_defect(n) is None


def test_ev_duality(two_point_geometry):
    g = two_point_geometry
    for n in (1, 2, 3):
        assert g.ev_duality_defect(n) is None


def test_mixed_sigma_relation(two_point_geometry):
    # (id (x) ev)(sigma (x) id) = (ev (x) id)(id (x) sigma_inv) on Vec (x) Omega (x) Omega
    g = two_point_geometry
    om, vec = g.omega, g.vec
    for b in range(vec.dim):
        v = unit_row(vec.dim, b)
        for j in range(om.dim):
            for k in range(om.dim):
                xi, eta = unit_row(om.dim, j), unit_row(om.dim, k)
                lhs = [ZERO] * om.dim
                sv = lift(g.OV1, g.sigma_vec_plain.apply(kron_vec(v, xi)))
                for idx, c in enumerate(sv):
                    if not c:
                        continue
                    r, s = divmod(idx, vec.dim)
                    a_val = pair_apply(g.fgp, unit_row(vec.dim, s), eta)
                    term = right_apply(om, unit_row(om.dim, r), a_val)
                    lhs = [x + c * y for x, y in zip(lhs, term)]
                rhs = [ZERO] * om.dim
                si = lift(g.W2, g.sigma_inv_form.apply(push(g.W2, kron_vec(xi, eta))))
                for idx, c in enumerate(si):
                    if not c:
                        continue
                    r, s = divmod(idx, om.dim)
                    a_val = pair_apply(g.fgp, v, unit_row(om.dim, r))
                    term = left_apply(om, a_val, unit_row(om.dim, s))
                    rhs = [x + c * y for x, y in zip(rhs, term)]
                assert lhs == rhs, (b, j, k)


def test_ev_pow_two_formula(two_point_geometry):
    # ev<2>(v (x) w (x) beta (x) alpha) = ev(v (x) ev(w (x) beta).alpha),
    # evaluated through an independent dual-basis expansion
    g = two_point_geometry
    vec, om = g.vec, g.omega
    ev2 = g.ev_pow(2)
    mv = g.merge_vec(1, 1)
    mo = g.merge_om(1, 1)
    for bv in range(vec.dim):
        for bw in range(vec.dim):
            v2 = mv.apply(kron_vec(unit_row(vec.dim, bv), unit_row(vec.dim, bw)))
            for jb in range(om.dim):
                for ja in range(om.dim):
                    w2 = mo.apply(kron_vec(unit_row(om.dim, jb), unit_row(om.dim, ja)))
                    got = ev2.apply(kron_vec(v2, w2))
                    inner = pair_apply(g.fgp, unit_row(vec.dim, bw), unit_row(om.dim, jb))
                    moved = left_apply(om, inner, unit_row(om.dim, ja))
                    expected = pair_apply(g.fgp, unit_row(vec.dim, bv), moved)
                    assert got == expected


# -- connection modules ----------------------------------------------------------


def test_trivial_module_act_is_pairing_with_d(two_point_geometry):
    g = two_point_geometry
    am = trivial_module(g)
    # v |> a = v(da) for vector fields
    for b in range(g.vec.dim):
        for i in range(g.algebra.dim):
            got = am.act(1, col(unit_row(g.vec.dim, b)), col(unit_row(g.algebra.dim, i))).column(0)
            expected = pair_apply(g.fgp, unit_row(g.vec.dim, b), g.d.column(i))
            assert got == expected


def test_vec_module_valid(two_point_geometry):
    vm = vec_module(two_point_geometry)
    assert vm.has_sigma
    vm.require_invertible_sigma()


@pytest.mark.parametrize("name", ["two-point-universal", "z3-function-calculus", "zero-form-smoke"])
def test_loaded_vec_module_is_the_geometry_dual_connection(name):
    """The loader builds vec without its own Leibniz check, since Geometry._validate_dual_connection
    checks the same identities: vec's nabla, its two tensor pairs and its braiding on plain
    coordinates are the geometry's box_vec, OV1, VO1 and sigma_vec_plain."""
    from ncdiffop.bundle import load_builtin

    bundle = load_builtin(name)
    g, vec = bundle.geometry, bundle.modules["vec"]
    assert vec.nabla is g.box_vec and vec.OE is g.OV1 and vec.EO is g.VO1
    assert vec.sigma @ vec.EO.project == g.sigma_vec_plain


@pytest.mark.parametrize("name", ["two-point-universal", "z3-function-calculus"])
def test_loaded_a_module_leibniz_is_the_calculus_leibniz(name):
    """The loader builds A without its own Leibniz check: through Omega1 (x)_A A = Omega1
    both rules of nabla = d are d(ab) = da.b + a.db, which Geometry._validate_calculus
    checks.  Every single-entry bump of d, loaded unvalidated, fails the module's check
    exactly when it fails the calculus's Leibniz rule."""
    from ncdiffop.bundle import builtin_bundle_dict, load_bundle_dict

    def raised(check):
        try:
            check()
        except ValidationError as err:
            return err.name
        return None

    base = builtin_bundle_dict(name)
    outcomes = set()
    for r, row in enumerate(base["d"]):
        for c in range(len(row)):
            for value in ("5", "-1", "1/2"):
                doc = copy.deepcopy(base)
                doc["d"][r][c] = value
                g = load_bundle_dict(doc, validate=False).geometry
                calculus = raised(g._validate_calculus)
                module = raised(trivial_module(g, validate=False)._validate_leibniz)
                assert (calculus == "leibniz") == (module is not None), (r, c, value, calculus, module)
                outcomes.add(module)
    assert outcomes == {None, "left-leibniz", "right-leibniz"}


def test_omega_module_valid(two_point_geometry, two_point_omega_connection):
    nabla_plain, sigma_plain = two_point_omega_connection
    om = omega_module(two_point_geometry, nabla_plain, sigma_plain)
    om.require_invertible_sigma()
    assert om.nabla_pow(2).cols == 2
    assert om.nabla_pow(3).rows == om.WE(3).dim


def test_nabla_pow_degree2_leibniz_expansion(two_point_geometry, two_point_omega_connection):
    # nabla^(2)(a.e) - a.nabla^(2)(e) = (box<1>+...)(da (x) e) chain; checked via
    # the defining recursion on all bases
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    em = omega_module(g, nabla_plain, sigma_plain)
    n2 = em.nabla_pow(2)
    WE2 = em.WE(2)
    dE = em.space.dim
    m1 = WE2.project @ g.box_form_pow(1).kron(Mat.identity(dE))
    m2 = (
        WE2.project
        @ g.merge_om(1, 1).kron(Mat.identity(dE))
        @ Mat.identity(g.W(1).dim).kron(em.OE.section @ em.nabla)
    )
    # crossing of da through the first leg of nabla(e)
    braid = WE2.project @ braid_form(g, 1).kron(Mat.identity(dE))
    left = action_blocks(em.space)[0]
    for i in range(g.algebra.dim):
        ai = unit_row(g.algebra.dim, i)
        da = g.d.column(i)
        for j in range(dE):
            e = unit_row(dE, j)
            lhs = n2.apply(left[i].column(j))
            # symbolic expansion: a.nabla2(e) + (box (x) id + id (x) nabla)(da (x) e)
            #                     + (sigma_inv (x) id)(da (x) nabla e)
            rhs = left_apply(WE2.space, ai, n2.apply(e))
            lifted = kron_vec(da, e)
            rhs = [x + y + z for x, y, z in zip(rhs, m1.apply(lifted), m2.apply(lifted))]
            crossed = braid.apply(kron_vec(da, lift(em.OE, em.nabla.apply(e))))
            rhs = [x + y for x, y in zip(rhs, crossed)]
            assert lhs == rhs, (i, j)


def test_tensor_connection_unit_factors(two_point_geometry, two_point_omega_connection):
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    em = omega_module(g, nabla_plain, sigma_plain)
    am = trivial_module(g)

    for left, right, target in ((em, am, em), (am, em, em)):
        tm = tensor_connection(left, right)
        pair = g.pair(left.space, right.space)
        # unitor iso: [x (x) y] -> x.y  (multiplication by the structure maps)
        cols = []
        for idx in range(pair.dim):
            plain = lift(pair, unit_row(pair.dim, idx))
            out = [ZERO] * target.space.dim
            for p, c in enumerate(plain):
                if not c:
                    continue
                i, j = divmod(p, right.space.dim)
                if right is am:
                    term = right_apply(target.space, unit_row(left.space.dim, i), unit_row(g.algebra.dim, j))
                else:
                    term = left_apply(target.space, unit_row(g.algebra.dim, i), unit_row(right.space.dim, j))
                out = [x + c * y for x, y in zip(out, term)]
            cols.append(out)
        iso = Mat.from_cols(cols)
        inverse(iso)
        assert connection_morphism_defect(tm, target, iso) is None


def test_tensor_connection_leibniz_and_sigma(two_point_geometry, two_point_omega_connection):
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    em = omega_module(g, nabla_plain, sigma_plain)
    tm = tensor_connection(em, em)  # Leibniz re-verified by the constructor
    assert tm.has_sigma
    tm.require_invertible_sigma()


def test_morphism_sigma_compatibility(two_point_geometry):
    # T = left multiplication by a central element on E = A is a morphism;
    # sigma compatibility then holds (checked, not assumed)
    g = two_point_geometry
    am = trivial_module(g)
    # a connection morphism on A must commute with d; scalar multiples of the
    # unit are the central elements that qualify for this calculus
    central = [sc(2), sc(2)]
    t = left_mult_matrix(g.algebra, central)
    assert connection_morphism_defect(am, am, t) is None
    assert sigma_compat_defect(am, am, t) is None
    # p1 is central in the algebra but d(p1) != 0, so it is not a morphism
    t_bad = left_mult_matrix(g.algebra, [sc(1), sc(0)])
    assert connection_morphism_defect(am, am, t_bad) is not None


def test_non_morphism_detected(two_point_geometry):
    g = two_point_geometry
    am = trivial_module(g)
    t = Mat.from_rows([[0, 1], [1, 0]])  # swaps the idempotents: not a module map here
    assert connection_morphism_defect(am, am, t) == 0
    assert sigma_compat_defect(am, am, t) is None
