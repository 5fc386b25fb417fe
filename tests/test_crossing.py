"""The crossing map: construction properties, compatibility with the product,
tensor factorization, the two-sided inverse, and the coevaluation connection.
"""

import pytest

from ncdiffop.algebra import unit_row
from ncdiffop.calculus import omega_module, tensor_connection, trivial_module, vec_module
from ncdiffop.crossing import (
    CrossingMap,
    OperatorConnection,
    check_theta_on_algebra,
    theta_product_compat,
    theta_tensor_factorization,
)
from ncdiffop.diffop import BulletTable
from ncdiffop.linalg import Mat, kron_vec
from ncdiffop.scalars import ZERO, sc
from oracles import col, crossing_apply, pair_apply, push

D = 3


@pytest.fixture
def table(two_point_geometry):
    return BulletTable(two_point_geometry)


@pytest.fixture
def modules(two_point_geometry, two_point_omega_connection):
    nabla_plain, sigma_plain = two_point_omega_connection
    return {
        "A": trivial_module(two_point_geometry),
        "omega1": omega_module(two_point_geometry, nabla_plain, sigma_plain),
        "vec": vec_module(two_point_geometry),
    }


def test_degree_one_formula(table, modules):
    # theta(v (x) e) = v |> e + sigma_hat(v (x) e)
    g = table.geometry
    for em in modules.values():
        cm = CrossingMap(table, em, 1)
        E = em.space
        for b in range(g.vec.dim):
            v = unit_row(g.vec.dim, b)
            for j in range(E.dim):
                e = unit_row(E.dim, j)
                out = crossing_apply(cm, 1, v, e)
                acted = em.act(1, col(v), col(e)).column(0)
                expected0 = push(cm.EV[0], kron_vec(acted, g.algebra.unit))
                assert out[0] == expected0
                assert out[1] == [x for x in cm.sigma_hat.apply(kron_vec(v, e))]


def test_theta_on_algebra_is_bullet(table, modules):
    cm = CrossingMap(table, modules["A"], D)
    assert all(r.ok for r in check_theta_on_algebra(cm))


def test_properties_all_modules(table, modules):
    for name, em in modules.items():
        cm = CrossingMap(table, em, D)  # property 1 checked during build
        assert all(r.ok for r in cm.check_bullet_balance()), name
        assert all(r.ok for r in cm.check_left_module()), name
        assert all(r.ok for r in cm.check_right_module()), name
        assert all(r.ok for r in cm.check_filtration()), name


def test_property_five_omega_pair(table, modules):
    em = modules["omega1"]
    fm = modules["omega1"]
    tm = tensor_connection(em, fm)
    cm = CrossingMap(table, em, 2)
    results = cm.check_action_factorization(fm, tm)
    assert all(r.ok for r in results)


def test_product_compat(table, modules):
    for name in ("A", "omega1"):
        cm = CrossingMap(table, modules[name], D)
        assert all(r.ok for r in theta_product_compat(cm)), name


def test_tensor_factorization_with_unit(table, modules):
    em = modules["omega1"]
    am = modules["A"]
    tm = tensor_connection(em, am)
    cm_e = CrossingMap(table, em, D)
    cm_a = CrossingMap(table, am, D)
    cm_ea = CrossingMap(table, tm, D)
    assert all(r.ok for r in theta_tensor_factorization(cm_e, cm_a, cm_ea))


def test_tensor_factorization_omega_omega(table, modules):
    em = modules["omega1"]
    tm = tensor_connection(em, em)
    cm_e = CrossingMap(table, em, D)
    cm_ee = CrossingMap(table, tm, D)
    assert all(r.ok for r in theta_tensor_factorization(cm_e, cm_e, cm_ee))


def test_inverse_two_sided(table, modules):
    for name in ("A", "omega1", "vec"):
        cm = CrossingMap(table, modules[name], D)
        assert all(r.ok for r in cm.check_inverse()), name


def test_naturality_scalar_morphism(table, modules):
    g = table.geometry
    am = modules["A"]
    cm = CrossingMap(table, am, D)
    t = g.algebra.left_mult_matrix([sc(3), sc(3)])
    assert all(r.ok for r in cm.check_naturality(cm, t))
    assert all(r.ok for r in cm.check_naturality(cm, Mat.identity(2)))


# -- the coevaluation connection ----------------------------------------------------


def test_operator_connection_on_unit(table):
    # nabla(1) = coev(1) bullet 1 = coev(1)
    g = table.geometry
    oc = OperatorConnection(table, D)
    got = oc.blocks[0][1].apply(g.algebra.unit)
    expected = push(g.OV(1), g.coev_one.column(0))
    assert got == expected


def test_operator_connection_on_algebra_elements(table):
    # nabla(a) has the degree-0 piece xi (x) u(da) and degree-1 piece xi (x) u.a
    g = table.geometry
    oc = OperatorConnection(table, D)
    for i in range(g.algebra.dim):
        a = unit_row(g.algebra.dim, i)
        same = [ZERO] * g.OV(0).dim
        up = [ZERO] * g.OV(1).dim
        for idx, c in enumerate(g.coev_one.column(0)):
            if not c:
                continue
            p, q = divmod(idx, g.vec.dim)
            xi = unit_row(g.omega.dim, p)
            u = unit_row(g.vec.dim, q)
            val = pair_apply(g.fgp, u, g.d.column(i))
            term = push(g.OV(0), kron_vec(xi, val))
            same = [x + c * y for x, y in zip(same, term)]
            ua = g.vec.right_apply(u, a)
            term = push(g.OV(1), kron_vec(xi, ua))
            up = [x + c * y for x, y in zip(up, term)]
        assert oc.blocks[0][0].apply(a) == same
        assert oc.blocks[0][1].apply(a) == up


def test_operator_connection_leibniz_and_right_module(table):
    oc = OperatorConnection(table, D)
    assert all(r.ok for r in oc.check_left_leibniz())
    assert all(r.ok for r in oc.check_right_module_map())


def test_operator_connection_morphism_property(table, modules):
    oc = OperatorConnection(table, D)
    for name in ("A", "omega1"):
        cm = CrossingMap(table, modules[name], D)
        assert all(r.ok for r in oc.check_crossing_is_morphism(cm)), name


def test_operator_product_is_morphism(table):
    oc = OperatorConnection(table, D)
    assert all(r.ok for r in oc.check_product_is_morphism())
