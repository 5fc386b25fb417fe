"""The bullet product and the operator action on modules with connection."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdiffop.algebra import unit_row
from ncdiffop.bundle import resolve_bundle
from ncdiffop.calculus import omega_module, trivial_module, vec_module
from ncdiffop.diffop import (
    BulletTable,
    GradedOperator,
    TruncationExceeded,
    morphism_equivariance_report,
)
from ncdiffop.linalg import Mat, kron_vec
from ncdiffop.scalars import ZERO, sc
import oracles
from oracles import col, lift, pair_apply, right_bullet_by_algebra, vec_is_zero


@pytest.fixture
def table(two_point_geometry):
    return BulletTable(two_point_geometry)


def rand_coords(rng, dim):
    return [sc(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}") for _ in range(dim)]


def test_degree_zero_is_left_action(table, two_point_geometry):
    g = two_point_geometry
    for m in (0, 1, 2):
        Vm = g.V(m)
        for i in range(g.algebra.dim):
            for c in range(Vm.dim):
                a, w = col(unit_row(g.algebra.dim, i)), col(unit_row(Vm.dim, c))
                got = table.bullet_k(a, 0, w, m, m).column(0)
                assert got == Vm.left[i].column(c)
                for k in range(0, m + 1):
                    if k != m:
                        assert vec_is_zero(table.bullet_k(a, 0, w, m, k).column(0))


def test_degree_one_on_algebra_is_module_action_plus_derivative(table, two_point_geometry):
    # u bullet a = u.a + u(da): k=1 and k=0 parts
    g = two_point_geometry
    for b in range(g.vec.dim):
        u = unit_row(g.vec.dim, b)
        for i in range(g.algebra.dim):
            a = unit_row(g.algebra.dim, i)
            top = table.bullet_k(col(u), 1, col(a), 0, 1).column(0)
            assert top == g.vec.right[i].column(b)
            low = table.bullet_k(col(u), 1, col(a), 0, 0).column(0)
            assert low == pair_apply(g.fgp, u, g.d.column(i))


def test_degree_one_same_degree_matches_plain_evaluation(table, two_point_geometry):
    # u o_m w = (ev (x) id^m)(u (x) box<m> w), recomputed through plain tensors
    g = two_point_geometry
    for m in (1, 2):
        Vm = g.V(m)
        box = g.box_vec_pow(m)
        OVm = g.OV(m)
        for b in range(g.vec.dim):
            u = unit_row(g.vec.dim, b)
            for c in range(Vm.dim):
                got = table.bullet_k(col(u), 1, col(unit_row(Vm.dim, c)), m, m).column(0)
                expected = [ZERO] * Vm.dim
                for idx, cf in enumerate(lift(OVm, box.apply(unit_row(Vm.dim, c)))):
                    if not cf:
                        continue
                    r, s = divmod(idx, Vm.dim)
                    a_val = pair_apply(g.fgp, u, unit_row(g.omega.dim, r))
                    term = Vm.left_apply(a_val, unit_row(Vm.dim, s))
                    expected = [x + cf * y for x, y in zip(expected, term)]
                assert got == expected


def test_bullet_left_linearity(table, two_point_geometry):
    # (a.v) o_k w = a.(v o_k w) on all homogeneous bases up to degree 2
    g = two_point_geometry
    for n in (1, 2):
        Vn = g.V(n)
        for m in (0, 1, 2):
            Vm = g.V(m)
            for k in range(n + m + 1):
                Vk = g.V(k)
                for i in range(g.algebra.dim):
                    for b in range(Vn.dim):
                        av = Vn.left[i].column(b)
                        for c in range(Vm.dim):
                            w = col(unit_row(Vm.dim, c))
                            lhs = table.bullet_k(col(av), n, w, m, k).column(0)
                            rhs = Vk.left_apply(
                                unit_row(g.algebra.dim, i),
                                table.bullet_k(col(unit_row(Vn.dim, b)), n, w, m, k).column(0),
                            )
                            assert lhs == rhs, (n, m, k, i, b, c)


def test_bullet_vanishes_out_of_range(table, two_point_geometry):
    g = two_point_geometry
    assert table.table(1, 1, 3).is_zero()
    assert vec_is_zero(table.bullet_k(col(unit_row(2, 0)), 1, col(unit_row(2, 0)), 1, 3).column(0))


def test_unit_operator(two_point_geometry, table):
    g = two_point_geometry
    one = GradedOperator.unit(g, 3)
    x = GradedOperator(g, {1: [sc(1), sc(-2)], 2: [sc(3), sc(0)]}, 3)
    assert one.bullet(x, table) == x
    assert x.bullet(one, table) == x


def test_algebra_component_multiplies(two_point_geometry, table):
    g = two_point_geometry
    a = GradedOperator.homogeneous(g, 0, [2, 0], 3)
    w = GradedOperator.homogeneous(g, 1, [1, 1], 3)
    prod = a.bullet(w, table)
    assert set(prod.components) == {1}
    assert prod.component(1) == g.vec.left_apply([sc(2), sc(0)], [sc(1), sc(1)])


def test_truncation_enforced(two_point_geometry, table):
    g = two_point_geometry
    x = GradedOperator.homogeneous(g, 2, unit_row(2, 0), 3)
    y = GradedOperator.homogeneous(g, 2, unit_row(2, 0), 3)
    with pytest.raises(TruncationExceeded):
        x.bullet(y, table)
    with pytest.raises(TruncationExceeded):
        GradedOperator(g, {4: unit_row(2, 0)}, 3)


def test_associativity_homogeneous_smoke(two_point_geometry, table):
    g = two_point_geometry
    for n, m, l in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 0)]:
        for b in range(g.V(n).dim):
            for c in range(g.V(m).dim):
                for e in range(g.V(l).dim):
                    x = GradedOperator.homogeneous(g, n, unit_row(g.V(n).dim, b), 3)
                    y = GradedOperator.homogeneous(g, m, unit_row(g.V(m).dim, c), 3)
                    z = GradedOperator.homogeneous(g, l, unit_row(g.V(l).dim, e), 3)
                    assert x.bullet(y, table).bullet(z, table) == x.bullet(y.bullet(z, table), table)


def test_associativity_random_mixed(two_point_geometry, table):
    g = two_point_geometry
    rng = random.Random(20240817)
    for _ in range(40):
        degs = [rng.randint(0, 1) for _ in range(3)]
        while sum(degs) > 3:
            degs[rng.randrange(3)] = 0
        ops = []
        for dtop in degs:
            comps = {dd: rand_coords(rng, g.V(dd).dim) for dd in range(dtop + 1)}
            ops.append(GradedOperator(g, comps, 3))
        x, y, z = ops
        assert x.bullet(y, table).bullet(z, table) == x.bullet(y.bullet(z, table), table)


def test_right_bullet_by_algebra(two_point_geometry, table):
    g = two_point_geometry
    comps = right_bullet_by_algebra(table, 1, unit_row(2, 0), [sc(1), sc(1)])
    x = GradedOperator.homogeneous(g, 1, [1, 1], 3)
    a = GradedOperator.homogeneous(g, 0, unit_row(2, 0), 3)
    assert GradedOperator(g, comps, 3) == x.bullet(a, table)


@functools.lru_cache(maxsize=None)
def bundle_and_table(name):
    bundle = resolve_bundle(name)
    return bundle, BulletTable(bundle.geometry)


# zero-heavy, so that components are sparse and some vanish altogether
entries = st.sampled_from(["0", "0", "0", "1", "-1", "2", "1/2", "-2/3"]).map(sc)


def operators(draw, g, truncation, top):
    comps = {d: draw(st.lists(entries, min_size=g.V(d).dim, max_size=g.V(d).dim)) for d in range(top + 1)}
    return GradedOperator(g, comps, truncation)


@given(st.data(), st.sampled_from(["two-point-universal", "z3-function-calculus"]))
@settings(max_examples=40, deadline=None)
def test_sparse_operator_path_matches_dense_oracles(data, name):
    bundle, table = bundle_and_table(name)
    g, top = bundle.geometry, bundle.truncation
    nx = data.draw(st.integers(0, top))
    x = operators(data.draw, g, top, nx)
    y = operators(data.draw, g, top, data.draw(st.integers(0, top - nx)))
    for n, v in x.components.items():
        for m, w in y.components.items():
            for k in range(n + m + 1):
                want = oracles.bullet_k(table, x.component(n), n, y.component(m), m, k)
                assert table.bullet_k(v, n, w, m, k).column(0) == want, (n, m, k)
    prod, want = x.bullet(y, table), oracles.bullet(x, y, table)
    for k in range(top + 1):
        assert prod.component(k) == want.get(k, [ZERO] * g.V(k).dim), k
    module = bundle.modules[data.draw(st.sampled_from(bundle.module_names()))]
    e = data.draw(st.lists(entries, min_size=module.space.dim, max_size=module.space.dim))
    assert x.act_on(module, e) == oracles.act_on(x, module, e)


# -- the action ------------------------------------------------------------------


def test_unit_acts_trivially(two_point_geometry, table, two_point_omega_connection):
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    for module in (trivial_module(g), omega_module(g, nabla_plain, sigma_plain), vec_module(g)):
        one = GradedOperator.unit(g, 3)
        for j in range(module.space.dim):
            e = unit_row(module.space.dim, j)
            assert one.act_on(module, e) == e


def test_action_composition_lemma(two_point_geometry, table, two_point_omega_connection):
    # w |> (v |> e) = (w (x) v) |> e + ((ev (x) id^n)(w (x) box<n> v)) |> e
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    modules = [trivial_module(g), omega_module(g, nabla_plain, sigma_plain), vec_module(g)]
    for module in modules:
        for n in (1, 2):
            Vn = g.V(n)
            box = g.box_vec_pow(n)
            OVn = g.OV(n)
            for bw in range(g.vec.dim):
                w = unit_row(g.vec.dim, bw)
                for bv in range(Vn.dim):
                    v = unit_row(Vn.dim, bv)
                    for j in range(module.space.dim):
                        e = unit_row(module.space.dim, j)
                        lhs = module.act(1, col(w), module.act(n, col(v), col(e))).column(0)
                        wv = g.merge_vec(1, n).apply(kron_vec(w, v))
                        tensor_part = module.act(n + 1, col(wv), col(e)).column(0)
                        correction = [ZERO] * Vn.dim
                        for idx, cf in enumerate(lift(OVn, box.apply(v))):
                            if not cf:
                                continue
                            r, s = divmod(idx, Vn.dim)
                            a_val = pair_apply(g.fgp, w, unit_row(g.omega.dim, r))
                            term = Vn.left_apply(a_val, unit_row(Vn.dim, s))
                            correction = [x + cf * y for x, y in zip(correction, term)]
                        rhs = [x + y for x, y in zip(tensor_part, module.act(n, col(correction), col(e)).column(0))]
                        assert lhs == rhs, (module.name, n, bw, bv, j)


def test_action_property_bullet_sum(two_point_geometry, table, two_point_omega_connection):
    # v |> (w |> e) = sum_k (v o_k w) |> e
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    modules = [trivial_module(g), omega_module(g, nabla_plain, sigma_plain)]
    for module in modules:
        for n in (1, 2):
            for m in (1, 2):
                Vn, Vm = g.V(n), g.V(m)
                for bv in range(Vn.dim):
                    v = unit_row(Vn.dim, bv)
                    for bw in range(Vm.dim):
                        w = unit_row(Vm.dim, bw)
                        for j in range(module.space.dim):
                            e = unit_row(module.space.dim, j)
                            lhs = module.act(n, col(v), module.act(m, col(w), col(e))).column(0)
                            rhs = [ZERO] * module.space.dim
                            for k in range(n + m + 1):
                                vk = table.bullet_k(col(v), n, col(w), m, k)
                                if vec_is_zero(vk.column(0)):
                                    continue
                                rhs = [x + y for x, y in zip(rhs, module.act(k, vk, col(e)).column(0))]
                            assert lhs == rhs, (module.name, n, m, bv, bw, j)


def test_action_is_bullet_action_of_operators(two_point_geometry, table, two_point_omega_connection):
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    module = omega_module(g, nabla_plain, sigma_plain)
    rng = random.Random(5)
    for _ in range(15):
        x = GradedOperator(g, {d: rand_coords(rng, g.V(d).dim) for d in (0, 1)}, 3)
        y = GradedOperator(g, {d: rand_coords(rng, g.V(d).dim) for d in (0, 1, 2)}, 3)
        e = rand_coords(rng, module.space.dim)
        lhs = x.act_on(module, y.act_on(module, e))
        rhs = x.bullet(y, table).act_on(module, e)
        assert lhs == rhs


def test_equivariance_identity_and_scalar(two_point_geometry, table):
    g = two_point_geometry
    am = trivial_module(g)
    for t in (Mat.identity(2), g.algebra.left_mult_matrix([sc(2), sc(2)])):
        report = morphism_equivariance_report(table, am, am, t, 2)
        assert all(r.ok for r in report)


def test_equivariance_violation_witnessed(two_point_geometry, table):
    g = two_point_geometry
    am = trivial_module(g)
    t = g.algebra.left_mult_matrix([sc(1), sc(0)])  # d p1 != 0: not a morphism
    report = morphism_equivariance_report(table, am, am, t, 2)
    assert [r.witness for r in report] == [None, (1, 0, 1), (2, 0, 1)]
    swap = Mat.from_rows([[0, 1], [1, 0]])
    report = morphism_equivariance_report(table, am, am, swap, 2)
    assert [r.witness for r in report] == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
