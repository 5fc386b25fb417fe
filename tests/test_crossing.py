"""The crossing map: construction properties, compatibility with the product,
tensor factorization, the two-sided inverse, and the coevaluation connection.
"""

import collections
import functools

import pytest

from ncdiffop import crossing, verify
from ncdiffop.bundle import BUILTIN_NAMES, load_builtin
from ncdiffop.calculus import omega_module, tensor_connection, trivial_module, vec_module
from ncdiffop.crossing import (
    CrossingMap,
    OperatorConnection,
    check_theta_on_algebra,
    theta_product_compat,
    theta_tensor_factorization,
)
from ncdiffop.diffop import BulletTable
from ncdiffop.linalg import Mat, kernel, kron_vec, quotient, span
from ncdiffop.memo import memo
from ncdiffop.scalars import ZERO, sc
from oracles import (
    col,
    cross_fields,
    crossing_apply,
    left_inverse_relations,
    left_mult_matrix,
    pair_apply,
    push,
    right_apply,
    unit_row,
)
from test_witnesses import THETA_A_WITNESSES, THETA_OMEGA1_WITNESSES, bump, corrupt_theta_omega1

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
        cm = CrossingMap(table, em)
        E = em.space
        for b in range(g.vec.dim):
            v = unit_row(g.vec.dim, b)
            for j in range(E.dim):
                e = unit_row(E.dim, j)
                out = crossing_apply(cm, 1, v, e)
                acted = em.act(1, col(v), col(e)).column(0)
                expected0 = push(cm.EV(0), kron_vec(acted, g.algebra.unit))
                assert out[0] == expected0
                assert out[1] == [x for x in cm.sigma_hat.apply(kron_vec(v, e))]


def test_theta_on_algebra_is_bullet(table, modules):
    cm = CrossingMap(table, modules["A"])
    assert all(r.ok for r in check_theta_on_algebra(cm, D))


def test_properties_all_modules(table, modules):
    for name, em in modules.items():
        cm = CrossingMap(table, em)  # property 1 checked as each degree is built
        assert all(r.ok for r in cm.check_bullet_balance(D)), name
        assert all(r.ok for r in cm.check_left_module(D)), name
        assert all(r.ok for r in cm.check_right_module(D)), name
        assert all(r.ok for r in cm.check_filtration(D)), name


def test_property_five_omega_pair(table, modules):
    em = modules["omega1"]
    fm = modules["omega1"]
    tm = tensor_connection(em, fm)
    cm = CrossingMap(table, em)
    results = cm.check_action_factorization(fm, tm, 2)
    assert all(r.ok for r in results)


def test_product_compat(table, modules):
    for name in ("A", "omega1"):
        cm = CrossingMap(table, modules[name])
        assert all(r.ok for r in theta_product_compat(cm, D)), name


def test_tensor_factorization_with_unit(table, modules):
    em = modules["omega1"]
    am = modules["A"]
    tm = tensor_connection(em, am)
    cm_e = CrossingMap(table, em)
    cm_a = CrossingMap(table, am)
    cm_ea = CrossingMap(table, tm)
    assert all(r.ok for r in theta_tensor_factorization(cm_e, cm_a, cm_ea, D))


def test_tensor_factorization_omega_omega(table, modules):
    em = modules["omega1"]
    tm = tensor_connection(em, em)
    cm_e = CrossingMap(table, em)
    cm_ee = CrossingMap(table, tm)
    assert all(r.ok for r in theta_tensor_factorization(cm_e, cm_e, cm_ee, D))


def test_inverse_two_sided(table, modules):
    for name in ("A", "omega1", "vec"):
        cm = CrossingMap(table, modules[name])
        assert all(r.ok for r in cm.check_inverse(D)), name


def test_naturality_scalar_morphism(table, modules):
    g = table.geometry
    am = modules["A"]
    cm = CrossingMap(table, am)
    t = left_mult_matrix(g.algebra, [sc(3), sc(3)])
    assert all(r.ok for r in cm.check_naturality(cm, t, D))
    assert all(r.ok for r in cm.check_naturality(cm, Mat.identity(2), D))


# -- the coevaluation connection ----------------------------------------------------


def test_operator_connection_on_unit(table):
    # nabla(1) = coev(1) bullet 1 = coev(1)
    g = table.geometry
    oc = OperatorConnection(table)
    got = oc.blocks(0)[1].apply(g.algebra.unit)
    expected = push(g.OV(1), g.coev_one.column(0))
    assert got == expected


def test_operator_connection_on_algebra_elements(table):
    # nabla(a) has the degree-0 piece xi (x) u(da) and degree-1 piece xi (x) u.a
    g = table.geometry
    oc = OperatorConnection(table)
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
            ua = right_apply(g.vec, u, a)
            term = push(g.OV(1), kron_vec(xi, ua))
            up = [x + c * y for x, y in zip(up, term)]
        assert oc.blocks(0)[0].apply(a) == same
        assert oc.blocks(0)[1].apply(a) == up


def test_operator_connection_leibniz_and_right_module(table):
    oc = OperatorConnection(table)
    assert all(r.ok for r in oc.check_left_leibniz(D))
    assert all(r.ok for r in oc.check_right_module_map(D))


def test_operator_connection_morphism_property(table, modules):
    oc = OperatorConnection(table)
    for name in ("A", "omega1"):
        cm = CrossingMap(table, modules[name])
        assert all(r.ok for r in oc.check_crossing_is_morphism(cm, D)), name


def test_operator_product_is_morphism(table):
    oc = OperatorConnection(table)
    assert all(r.ok for r in oc.check_product_is_morphism(D))


def test_theta_and_centre_share_one_crossing_per_module(monkeypatch):
    # three objects A, omega1, vec: one operator connection and one tensor connection per
    # ordered pair, and one crossing per module content: A (x)_A E and E (x)_A A are E again,
    # and here all five such products hold the content of E itself, so 3 + 9 - 5 = 7
    counts = {"CrossingMap": 0, "OperatorConnection": 0, "tensor_connection": 0}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)

        return wrapper

    for cls in (crossing.CrossingMap, crossing.OperatorConnection):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    for owner in (crossing, verify):
        monkeypatch.setattr(owner, "tensor_connection", counted("tensor_connection", owner.tensor_connection))
    report = verify.verify_all(load_builtin("two-point-universal"), suites=["theta", "centre"], seed=7)
    assert report.ok
    assert counts == {"CrossingMap": 7, "OperatorConnection": 1, "tensor_connection": 9}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cross_fields_equals_the_expanded_formula(name):
    # sigma-hat of every module and of every tensor product of two, and the braiding of Vec
    bundle = load_builtin(name)
    g = bundle.geometry
    modules = dict(bundle.modules)
    for a, ma in bundle.modules.items():
        modules |= {(a, b): tensor_connection(ma, mb) for b, mb in bundle.modules.items()}
    for key, m in modules.items():
        crossed = m.OE.section @ m.sigma @ m.EO.project
        assert g.cross_fields(m.space, crossed) == cross_fields(g, m.space, crossed), key
    sigma_inv = g.W2.section @ g.sigma_inv_form @ g.W2.project
    assert g.sigma_vec_plain == cross_fields(g, g.omega, sigma_inv)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_left_inverse_projection_kills_the_stacked_span(name):
    # grown degree by degree with block n first, the projection's kernel is the span of
    # every relation up to degree n taken at once, block 0 first
    bundle = load_builtin(name)
    g = bundle.geometry
    table = BulletTable(g)
    for mname, module in sorted(bundle.modules.items()):
        cm = CrossingMap(table, module)
        for n in range(4):
            layout = cm._layout(n)
            total, start = sum(layout.values()), 0
            to_old = {}  # with block 0 first, block m starts where it ends with block n first
            for m, size in layout.items():
                assert size == g.V(m).dim * module.space.dim
                to_old.update((start + i, total - start - size + i) for i in range(size))
                start += size
            project, _ = quotient(cm.inverse_relations(n))
            moved = ([(to_old[i], v) for i, v in c] for c in kernel(project).cols_sparse())
            assert span(total, moved) == left_inverse_relations(cm, n), (mname, n)


@pytest.mark.parametrize("first", ["theta", "centre"])
def test_runs_on_one_bundle_share_its_crossings(monkeypatch, first):
    runs = {"theta": 2, "centre": 1}  # the suite and its degree
    order = [first, *(s for s in runs if s != first)]
    fresh = {s: verify.verify_all(load_builtin("z3-function-calculus"), [s], runs[s], seed=7).body_json() for s in runs}
    built = []
    init = crossing.CrossingMap.__init__

    def counted(self, table, module, validate=True):
        built.append(module.name)
        init(self, table, module, validate)

    monkeypatch.setattr(crossing.CrossingMap, "__init__", counted)
    bundle = load_builtin("z3-function-calculus")
    bodies = {s: verify.verify_all(bundle, [s], runs[s], seed=7).body_json() for s in order}
    assert bodies == fresh
    shared = bundle.crossings()
    assert verify.VerifyContext(bundle, 2, seed=7).table is shared.table
    # three objects: one crossing each and one per ordered pair, built once per module
    # content; A (x) A, A (x) vec, omega1 (x) A and vec (x) A hold a built crossing over themselves
    assert len(shared._crossing) + len(shared._tensor_crossing) == 12
    assert len(built) == len(shared._by_content) == 8
    tensors = {f"({a}(x){b})" for a, b in shared._tensor_crossing}
    assert sorted(tensors - set(built)) == ["(A(x)A)", "(A(x)vec)", "(omega1(x)A)", "(vec(x)A)"]
    for cm in (*shared._crossing.values(), *shared._tensor_crossing.values()):
        assert shared._by_content[crossing._content(cm.module)]._theta is cm._theta


def test_a_unit_object_product_reads_the_blocks_of_its_factor():
    # omega1 (x)_A A is omega1 again: its crossing is omega1's over the tensor module
    shared = load_builtin("z3-function-calculus").crossings()
    cm, twin = shared.crossing("omega1"), shared.tensor_crossing("omega1", "A")
    assert twin is not cm and twin.module is shared.tensor_module("omega1", "A")
    assert twin.module.name == "(omega1(x)A)" and cm.module.name == "omega1"
    blocks = twin.theta(2)  # built by the copy, read by the crossing it was copied from
    assert cm.theta(2) is blocks and blocks == CrossingMap(cm.table, cm.module).theta(2)
    assert cm.braid(2) is twin.braid(2)


# -- each identity checked once per degree per loaded bundle ----------------------------


def body(bundle, suite, degree):
    return verify.verify_all(bundle, [suite], degree, seed=7).body_json()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_theta_and_centre_in_either_order_match_fresh_bundles(name):
    fresh = {}
    for theta_degree, centre_degree in [(1, 2), (2, 1), (2, 3), (3, 2)]:
        runs = [("theta", theta_degree), ("centre", centre_degree)]
        for order in (runs, runs[::-1]):
            bundle = load_builtin(name)  # one loaded bundle for both runs
            for suite, degree in order:
                if (suite, degree) not in fresh:
                    fresh[suite, degree] = body(load_builtin(name), suite, degree)
                assert body(bundle, suite, degree) == fresh[suite, degree], (order, suite)


def shared_checks(cx):
    """Every check whose witnesses the crossings of one bundle keep, by name."""
    oc, cm_a = cx.operator_connection, cx.crossing("A")
    checks = {"theta-on-A": lambda d: check_theta_on_algebra(cm_a, d)}
    for name in cx.object_names():
        cm = cx.crossing(name)
        checks |= {
            f"bullet-balance-{name}": cm.check_bullet_balance,
            f"left-module-{name}": cm.check_left_module,
            f"right-module-{name}": cm.check_right_module,
            f"inverse-{name}": cm.check_inverse,
            f"product-compat-{name}": functools.partial(theta_product_compat, cm),
            f"morphism-{name}": functools.partial(oc.check_crossing_is_morphism, cm),
        }
        for other in cx.object_names():
            cm_f, cm_ef = cx.crossing(other), cx.tensor_crossing(name, other)
            action = functools.partial(cm.check_action_factorization, cm_f.module, cm_ef.module)
            checks |= {
                f"action-{name}-{other}": action,
                f"tensor-{name}-{other}": functools.partial(theta_tensor_factorization, cm, cm_f, cm_ef),
            }
    checks |= {"leibniz": oc.check_left_leibniz, "right-module-map": oc.check_right_module_map}
    checks["product-morphism"] = oc.check_product_is_morphism
    return checks


def listed(results):
    return [(r.name, r.ok, r.witness) for r in results]


@pytest.mark.parametrize("name", ["two-point-universal", "z3-function-calculus"])
def test_a_degree_asked_after_another_reads_its_witnesses(name):
    # degree D asked after D + 1 gives the D + 1 results of the same names, in order: the
    # prefix of the D + 1 list where the results are one per degree; D + 1 asked after D
    # gives what a fresh bundle gives
    D = 2
    down, up, fresh = (shared_checks(load_builtin(name).crossings()) for _ in range(3))
    for key in fresh:
        high = listed(down[key](D + 1))
        low = listed(down[key](D))
        assert low == [r for r in high if r[0] in {n for n, _, _ in low}], key
        if not key.startswith(("inverse", "product")):  # the pair checks and the two inverse halves interleave
            assert low == high[: len(low)], key
        assert listed(up[key](D)) == low, key
        assert listed(up[key](D + 1)) == listed(fresh[key](D + 1)) == high, key


@pytest.mark.parametrize("n,m,r,c", [(1, 1, 0, 7), (2, 1, 3, 40), (1, 0, 2, 11)], ids=["theta11", "theta21", "theta10"])
def test_a_corrupt_block_asked_at_degree_one_then_two_keeps_its_witnesses(n, m, r, c):
    bundle = load_builtin("z3-function-calculus")
    got = corrupt_theta_omega1(bundle, BulletTable(bundle.geometry), n, m, r, c, degrees=(1, 2))
    assert got == THETA_OMEGA1_WITNESSES[(n, m, r, c)]


def test_tensor_witnesses_are_kept_per_pair_of_crossings():
    # the crossing of omega1 keeps one witness per degree for each F it is factorized with:
    # F = omega1 passes, and F = A, corrupted as in the unit-object pins, still fails after it
    bundle = load_builtin("z3-function-calculus")
    cx = bundle.crossings()
    cm_a, cm_e = cx.crossing("A"), cx.crossing("omega1")
    cm_a.theta(2)  # build every degree from the sound blocks first
    cm_a._theta[(2,)][1] = bump(cm_a.theta(2)[1], 1, 5)
    assert all(r.ok for r in theta_tensor_factorization(cm_e, cm_e, cx.tensor_crossing("omega1", "omega1"), 2))
    results = theta_tensor_factorization(cm_e, cm_a, cx.tensor_crossing("omega1", "A"), 2)
    pinned = {k: w for k, w in THETA_A_WITNESSES.items() if k.startswith("theta-tensor")}
    assert {r.name: r.witness for r in results if not r.ok} == pinned


WITNESSES = {
    crossing.CrossingMap: (
        "bullet_balance_fail",
        "left_module_fail",
        "right_module_fail",
        "action_fail",
        "on_algebra_fail",
        "product_compat_fail",
        "tensor_factorization_fail",
        "right_inverse_holds",
    ),
    crossing.OperatorConnection: ("leibniz_fail", "right_module_fail", "morphism_fail", "product_morphism_fail"),
}


def test_each_identity_is_evaluated_once_per_run(monkeypatch):
    computed = collections.Counter()

    def counted(method):
        @functools.wraps(method)
        def body(self, *args, **shared):
            computed[type(self).__name__, method.__name__, id(self), args] += 1
            return method(self, *args, **shared)

        return memo(body)

    for cls, names in WITNESSES.items():
        for attr in names:
            monkeypatch.setattr(cls, attr, counted(vars(cls)[attr].__wrapped__))
    assert verify.verify_all(load_builtin("z3-function-calculus"), degree=3, seed=7).ok
    every = {(cls.__name__, attr) for cls, names in WITNESSES.items() for attr in names}
    assert {(cls, attr) for cls, attr, _, _ in computed} == every
    assert set(computed.values()) == {1}
    # the centre suite asks Leibniz at the candidate's degree 2 and again at the run's 3
    assert sorted(args for _, attr, _, args in computed if attr == "leibniz_fail") == [(0,), (1,), (2,), (3,)]
