"""Witness oracle for the crossing, centre and action checks.

Each test corrupts one entry of a built block (a crossing block, sigma-hat,
an operator-connection block, an action table, a bullet table, an input of
the ev-duality suite) and pins the
exact witness of every check that then fails.  A witness names the first
failing basis tuple in the order the checks have always reported, so these
pins hold the check order fixed while the checks themselves change form.
The digests pin the blocks that the corrupted tests start from.
"""

import hashlib

import pytest

from ncdiffop import crossing
from ncdiffop.bundle import load_builtin
from ncdiffop.calculus import tensor_connection
from ncdiffop.crossing import (
    CrossingMap,
    OperatorConnection,
    check_theta_on_algebra,
    theta_product_compat,
    theta_tensor_factorization,
)
from ncdiffop.diffop import BulletTable
from ncdiffop.linalg import Mat
from ncdiffop.report import ValidationError
from ncdiffop.scalars import sc
from ncdiffop.verify import VerifyContext, suite_action, suite_bullet, suite_ev_duality

Z3 = "z3-function-calculus"
D = 2


def bump(mat: Mat, r: int, c: int) -> Mat:
    """mat with 1 added at (r, c)."""
    return mat + Mat.from_entries(mat.rows, mat.cols, [(r, c, sc(1))])


def digest(mats) -> str:
    text = "|".join(";".join(",".join(map(str, row)) for row in m.data) for m in mats)
    return hashlib.sha256(text.encode()).hexdigest()


def failing(results) -> dict:
    return {r.name: r.witness for r in results if not r.ok}


@pytest.fixture
def z3():
    bundle = load_builtin(Z3)
    return bundle, BulletTable(bundle.geometry)


def crossing_checks(bundle, table, cm):
    """Every check that reads the crossing of omega1, with cm standing for it."""
    em = bundle.modules["omega1"]
    tm = tensor_connection(em, em)
    oc = OperatorConnection(table, D)
    return failing(
        cm.check_bullet_balance()
        + cm.check_left_module()
        + cm.check_right_module()
        + cm.check_filtration()
        + cm.check_inverse()
        + cm.check_action_factorization(em, tm)
        + theta_product_compat(cm)
        + theta_tensor_factorization(cm, cm, CrossingMap(table, tm, D))
        + oc.check_crossing_is_morphism(cm)
    )


def test_blocks_digest_pinned(z3):
    bundle, table = z3
    cm = CrossingMap(table, bundle.modules["omega1"], D)
    assert digest([cm.sigma_hat]) == SIGMA_HAT_DIGEST
    assert digest([cm.theta[n][m] for n in sorted(cm.theta) for m in sorted(cm.theta[n])]) == THETA_DIGEST
    oc = OperatorConnection(table, D)
    assert digest([oc.blocks[n][m] for n in sorted(oc.blocks) for m in sorted(oc.blocks[n])]) == OC_DIGEST


@pytest.mark.parametrize("n,m,r,c", [(1, 1, 0, 7), (2, 1, 3, 40), (1, 0, 2, 11)], ids=["theta11", "theta21", "theta10"])
def test_corrupt_theta_omega1(z3, n, m, r, c):
    assert corrupt_theta_omega1(*z3, n, m, r, c) == THETA_OMEGA1_WITNESSES[(n, m, r, c)]


def corrupt_theta_omega1(bundle, table, n, m, r, c):
    cm = CrossingMap(table, bundle.modules["omega1"], D)
    cm.theta[n][m] = bump(cm.theta[n][m], r, c)
    return crossing_checks(bundle, table, cm)


def test_corrupt_theta_unit_object(z3):
    assert corrupt_theta_unit_object(*z3) == THETA_A_WITNESSES


def corrupt_theta_unit_object(bundle, table):
    g = bundle.geometry
    cm_a = CrossingMap(table, bundle.modules["A"], D)
    cm_a.theta[2][1] = bump(cm_a.theta[2][1], 1, 5)
    em = bundle.modules["omega1"]
    cm_e = CrossingMap(table, em, D)
    t = g.algebra.left_mult_matrix([x + x for x in g.algebra.unit])
    return failing(
        check_theta_on_algebra(cm_a)
        + theta_product_compat(cm_a)
        + cm_a.check_naturality(cm_a, t)
        + theta_tensor_factorization(cm_e, cm_a, CrossingMap(table, tensor_connection(em, bundle.modules["A"]), D))
    )


def test_corrupt_sigma_hat(z3, monkeypatch):
    original = crossing.sigma_hat

    def corrupted(table, module):
        # add e_2 times row 1 of the quotient map: the result still descends
        out = original(table, module)
        project = table.geometry.pair(table.geometry.vec, module.space).project
        extra = [[(2, v) for i, v in col if i == 1] for col in project.cols_sparse()]
        return out + Mat(out.rows, out.cols, extra)

    monkeypatch.setattr(crossing, "sigma_hat", corrupted)
    assert corrupt_sigma_hat(*z3) == SIGMA_HAT_WITNESSES


def corrupt_sigma_hat(bundle, table):
    try:
        cm = CrossingMap(table, bundle.modules["omega1"], D, validate=False)
    except ValidationError as err:
        return ("construction", err.name, err.witness)
    return crossing_checks(bundle, table, cm)


@pytest.mark.parametrize("n,m,r,c", [(1, 1, 2, 3), (2, 2, 3, 5), (0, 1, 4, 0)], ids=["oc11", "oc22", "oc01"])
def test_corrupt_operator_connection(z3, n, m, r, c):
    assert corrupt_operator_connection(*z3, n, m, r, c) == OC_WITNESSES[(n, m, r, c)]


def corrupt_operator_connection(bundle, table, n, m, r, c):
    oc = OperatorConnection(table, D)
    oc.blocks[n][m] = bump(oc.blocks[n][m], r, c)
    return failing(oc.check_left_leibniz() + oc.check_right_module_map() + oc.check_product_is_morphism())


def test_corrupt_act_table(z3):
    assert corrupt_act_table(z3[0]) == ACT_WITNESSES


def corrupt_act_table(bundle):
    ctx = VerifyContext(bundle, D, seed=7)
    em = bundle.modules["omega1"]
    em._act[1] = bump(em.act_table(1), 4, 9)
    return failing(suite_action(ctx))


def test_corrupt_bullet_table(z3):
    assert corrupt_bullet_table(z3[0]) == BULLET_WITNESSES


def corrupt_bullet_table(bundle):
    ctx = VerifyContext(bundle, D, seed=7)
    for n in range(D + 1):  # build the tables the corrupted one would feed first
        for m in range(D + 1 - n):
            for k in range(n + m + 1):
                ctx.table.table(n, m, k)
    ctx.table._tables[(1, 0, 1)] = bump(ctx.table.table(1, 0, 1), 2, 3)
    return failing(suite_bullet(ctx))


@pytest.mark.parametrize("what", ["sigma_vec_plain", "ev_pow", "coev_pow"])
def test_corrupt_duality_inputs(z3, what):
    assert corrupt_duality_inputs(z3[0], what) == DUALITY_WITNESSES[what]


def corrupt_duality_inputs(bundle, what):
    g = bundle.geometry
    ctx = VerifyContext(bundle, D, seed=7)
    assert not failing(suite_ev_duality(ctx))  # builds the towers from the sound inputs first
    if what == "sigma_vec_plain":
        g.sigma_vec_plain = bump(g.sigma_vec_plain, 3, 20)
    elif what == "ev_pow":
        g._ev_pow[2] = bump(g.ev_pow(2), 1, 50)
    else:
        coev = list(g.coev_pow(2))
        coev[40] = coev[40] + sc(1)
        g._coev_pow[2] = coev
    return failing(suite_ev_duality(ctx))


# -- pins ---------------------------------------------------------------------------

# recorded with the per-basis-tuple loop versions of the checks
SIGMA_HAT_DIGEST = "fcdbf61053d38cb50f2b900a8812e20884a0fb3e6eb47b7a8bc8c88d539d8544"
THETA_DIGEST = "d53fd32055edd4eca02faa8e9752a4328500fa671021beff6c14185fdc57404a"
OC_DIGEST = "ebe142229631b12e0b63609f78db307b2dcd721284a2bd92ab54e962ea96914b"
THETA_OMEGA1_WITNESSES = {
    (1, 1, 0, 7): {
        "theta-bullet-balance-deg2": (2, 1, 0, 1, 1),
        "theta-right-module-deg1": (1, 0, 0),
        "theta-filtration-deg1": 1,
        "theta-right-inverse-deg1": 1,
        "theta-right-inverse-deg2": 2,
        "theta-left-inverse-deg1": (1, 1, 1),
        "theta-action-deg1": (1, 1, 1, 0),
        "theta-product-compat-1-0": (1, 0, 1, 1, 1, 1),
        "theta-product-compat-1-1": (1, 1, 0, 4, 1, 1),
        "theta-product-compat-2-0": (2, 0, 1, 0, 1, 1),
        "theta-tensor-factorization-deg1": (1, 1, 1, 0, 0),
        "theta-tensor-factorization-deg2": (2, 5, 4, 1, 1),
        "operator-connection-morphism-deg0": (0, 1, 1, 1),
        "operator-connection-morphism-deg1": (1, 1, 1, 1),
    },
    (2, 1, 3, 40): {
        "theta-right-module-deg2": (2, 0, 0),
        "theta-right-inverse-deg2": 2,
        "theta-left-inverse-deg2": (2, 6, 4),
        "theta-action-deg2": (2, 6, 4, 0),
        "theta-product-compat-1-1": (1, 1, 3, 4, 4, 1),
        "theta-product-compat-2-0": (2, 0, 6, 1, 4, 0),
        "theta-tensor-factorization-deg2": (2, 2, 0, 4, 1),
        "operator-connection-morphism-deg1": (1, 4, 4, 1),
    },
    (1, 0, 2, 11): {
        "theta-bullet-balance-deg1": (1, 1, 1, 5, 0),
        "theta-bullet-balance-deg2": (2, 1, 0, 5, 0),
        "theta-left-module-deg1": (1, 0, 0),
        "theta-right-module-deg1": (1, 0, 0),
        "theta-right-inverse-deg2": 2,
        "theta-left-inverse-deg1": (1, 1, 5),
        "theta-action-deg1": (1, 1, 5, 0),
        "theta-product-compat-0-1": (0, 1, 0, 1, 5, 0),
        "theta-product-compat-1-0": (1, 0, 1, 1, 5, 0),
        "theta-product-compat-1-1": (1, 1, 0, 1, 5, 0),
        "theta-product-compat-2-0": (2, 0, 1, 0, 5, 0),
        "theta-tensor-factorization-deg1": (1, 1, 5, 0, 0),
        "operator-connection-morphism-deg0": (0, 1, 5, 0),
        "operator-connection-morphism-deg1": (1, 1, 5, 0),
    },
}
THETA_A_WITNESSES = {
    "theta-on-A-deg2": (2, 1),
    "theta-product-compat-1-1": (1, 1, 0, 5, 2, 1),
    "theta-product-compat-2-0": (2, 0, 1, 0, 2, 1),
    "theta-tensor-factorization-deg2": (2, 5, 4, 2, 1),
}
SIGMA_HAT_WITNESSES = {
    "theta-bullet-balance-deg2": (2, 0, 1, 5, 0),
    "theta-left-module-deg1": (1, 0, 1),
    "theta-left-module-deg2": (2, 0, 0),
    "theta-right-module-deg1": (1, 1, 0),
    "theta-right-module-deg2": (2, 1, 0),
    "theta-right-inverse-deg2": 2,
    "theta-left-inverse-deg2": (2, 0, 4),
    "theta-action-deg1": (1, 0, 5, 1),
    "theta-action-deg2": (2, 0, 4, 0),
    "theta-product-compat-0-1": (0, 1, 0, 0, 5, 1),
    "theta-product-compat-0-2": (0, 2, 0, 0, 4, 0),
    "theta-product-compat-1-0": (1, 0, 0, 2, 5, 0),
    "theta-product-compat-1-1": (1, 1, 0, 0, 5, 1),
    "theta-product-compat-2-0": (2, 0, 0, 1, 5, 0),
    "theta-tensor-factorization-deg1": (1, 0, 2, 3, 1),
    "theta-tensor-factorization-deg2": (2, 0, 1, 5, 0),
    "operator-connection-morphism-deg0": (0, 2, 5, 1),
    "operator-connection-morphism-deg1": (1, 0, 5, 1),
}
OC_WITNESSES = {
    (1, 1, 2, 3): {
        "operator-connection-right-deg1": (1, 1, 3, 0),
        "operator-connection-right-deg2": (2, 0, 7, 1),
        "operator-product-morphism-0-1": (0, 1, 1, 3, 1),
        "operator-product-morphism-1-0": (1, 0, 3, 2, 1),
    },
    (2, 2, 3, 5): {
        "operator-connection-leibniz-deg2": (2, 0, 5),
        "operator-connection-right-deg2": (2, 0, 5, 1),
    },
    (0, 1, 4, 0): {
        "operator-connection-leibniz-deg0": (0, 0, 0),
        "operator-connection-right-deg0": (0, 0, 0, 0),
        "operator-connection-right-deg1": (1, 0, 0, 1),
        "operator-connection-right-deg2": (2, 0, 0, 1),
        "operator-product-morphism-0-0": (0, 0, 0, 0, 1),
        "operator-product-morphism-1-0": (1, 0, 0, 0, 1),
    },
}
ACT_WITNESSES = {"action-property-omega1": (0, 1, 0, 1, 3)}
BULLET_WITNESSES = {
    "bullet-unit": None,
    "bullet-left-linearity": (1, 0, 1, 0, 1, 0),
    "bullet-associativity-homogeneous": (0, 1, 0, 0, 1, 0),
    "bullet-associativity-random": 0,
}
DUALITY_WITNESSES = {
    "sigma_vec_plain": {"mixed-sigma-relation": (3, 2, 3)},
    "ev_pow": {"ev-balanced-2": 2, "ev-bimodule-2": ("right", 2, 0), "ev-duality-2": (2, 0, 2)},
    "coev_pow": {"coev-central-2": (2, 1)},
}
