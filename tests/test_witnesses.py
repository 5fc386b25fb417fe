"""Witness oracle for the crossing, centre, action and load-time checks.

Each test corrupts one entry of a built block (a crossing block, sigma-hat,
an operator-connection block, an action table, a bullet table, an input of
the ev-duality suite, an input of a load-time invariant) and pins the exact
witness of every check that then fails.  A witness names the first
failing basis tuple in the order the checks have always reported, so these
pins hold the check order fixed while the checks themselves change form.
The digests pin the blocks that the corrupted tests start from, the
crossing inverse, the dual connection on vector fields and the dual of the
1-forms.  The load-path pins hold the results of ``Algebra.validate`` and
``Bimodule.validate`` and the element a bad dual basis fails on.  The
quotient pins hold the name and witness each map pushed to a tensor quotient
raises when it does not descend there.  The bump sweep loads every single-entry
bump of the two-point bundle unvalidated: each load that fails names its
failure, and the verify bodies of the rest are pinned.
"""

import functools
import hashlib
from itertools import product

import pytest

from ncdiffop import crossing, verify
from ncdiffop.algebra import Algebra
from ncdiffop.bimodule import Bimodule, NotProjective, TensorPair, dualize_right_module
from ncdiffop.bundle import BUILTIN_NAMES, load_builtin, load_bundle_dict
from ncdiffop.calculus import connection_morphism_defect, sigma_compat_defect, tensor_connection, trivial_module
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
from ncdiffop.scalars import ZERO, sc
from ncdiffop.verify import (
    VerifyContext,
    bullet_associativity_random,
    bullet_unit,
    suite_action,
    suite_bullet,
    suite_ev_duality,
    suite_fgp_zigzag,
    verify_all,
)
import bump_sweep
import oracles
from oracles import action_blocks, bimodule_from_blocks, left_mult_matrix, morphism_equivariance_report, mul_tensor

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


def crossing_checks(bundle, table, cm, degrees=(D,)):
    """Every check that reads the crossing of omega1, with cm standing for it, asked
    at each of ``degrees`` in turn over the same objects: the failures of the last."""
    em = bundle.modules["omega1"]
    tm = tensor_connection(em, em)
    cm_ee = CrossingMap(table, tm)
    oc = OperatorConnection(table)
    for degree in degrees:
        found = failing(
            cm.check_bullet_balance(degree)
            + cm.check_left_module(degree)
            + cm.check_right_module(degree)
            + cm.check_filtration(degree)
            + cm.check_inverse(degree)
            + cm.check_action_factorization(em, tm, degree)
            + theta_product_compat(cm, degree)
            + theta_tensor_factorization(cm, cm, cm_ee, degree)
            + oc.check_crossing_is_morphism(cm, degree)
        )
    return found


def test_blocks_digest_pinned(z3):
    bundle, table = z3
    cm = CrossingMap(table, bundle.modules["omega1"])
    assert digest([cm.sigma_hat]) == SIGMA_HAT_DIGEST
    assert digest([cm.theta(n)[m] for n in range(D + 1) for m in sorted(cm.theta(n))]) == THETA_DIGEST
    oc = OperatorConnection(table)
    assert digest([oc.blocks(n)[m] for n in range(D + 1) for m in sorted(oc.blocks(n))]) == OC_DIGEST


@pytest.mark.parametrize("n,m,r,c", [(1, 1, 0, 7), (2, 1, 3, 40), (1, 0, 2, 11)], ids=["theta11", "theta21", "theta10"])
def test_corrupt_theta_omega1(z3, n, m, r, c):
    assert corrupt_theta_omega1(*z3, n, m, r, c) == THETA_OMEGA1_WITNESSES[(n, m, r, c)]


def corrupt_theta_omega1(bundle, table, n, m, r, c, degrees=(D,)):
    cm = CrossingMap(table, bundle.modules["omega1"])
    cm.theta(D)  # build every degree from the sound blocks first
    cm._theta[(n,)][m] = bump(cm.theta(n)[m], r, c)
    return crossing_checks(bundle, table, cm, degrees)


def test_corrupt_theta_unit_object(z3):
    assert corrupt_theta_unit_object(*z3) == THETA_A_WITNESSES


def corrupt_theta_unit_object(bundle, table):
    g = bundle.geometry
    cm_a = CrossingMap(table, bundle.modules["A"])
    cm_a.theta(D)  # build every degree from the sound blocks first
    cm_a._theta[(2,)][1] = bump(cm_a.theta(2)[1], 1, 5)
    em = bundle.modules["omega1"]
    cm_e = CrossingMap(table, em)
    t = left_mult_matrix(g.algebra, [x + x for x in g.algebra.unit])
    return failing(
        check_theta_on_algebra(cm_a, D)
        + theta_product_compat(cm_a, D)
        + cm_a.check_naturality(cm_a, t, D)
        + theta_tensor_factorization(cm_e, cm_a, CrossingMap(table, tensor_connection(em, bundle.modules["A"])), D)
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
        cm = CrossingMap(table, bundle.modules["omega1"], validate=False)
    except ValidationError as err:
        return ("construction", err.name, err.witness)
    return crossing_checks(bundle, table, cm)


@pytest.mark.parametrize("n,m,r,c", [(1, 1, 0, 0), (2, 2, 7, 11), (2, 1, 3, 16), (2, 0, 10, 20)])
def test_corrupt_inverse_block(z3, n, m, r, c):
    """A bumped inverse block, seen by both composites; the left one through the relation quotient."""
    bundle, table = z3
    cm = CrossingMap(table, bundle.modules["omega1"])
    cm.build_inverse(D)  # build every degree from the sound blocks first
    cm._build_inverse[(n,)][m] = bump(cm.build_inverse(n)[m], r, c)
    assert failing(cm.check_inverse(D)) == INVERSE_BLOCK_WITNESSES[(n, m, r, c)]


@pytest.mark.parametrize("n,m,r,c", [(1, 1, 2, 3), (2, 2, 3, 5), (0, 1, 4, 0)], ids=["oc11", "oc22", "oc01"])
def test_corrupt_operator_connection(z3, n, m, r, c):
    assert corrupt_operator_connection(*z3, n, m, r, c) == OC_WITNESSES[(n, m, r, c)]


def corrupt_operator_connection(bundle, table, n, m, r, c):
    oc = OperatorConnection(table)
    for k in range(D + 1):  # build every degree from the sound inputs first
        oc.blocks(k)
    oc._blocks[(n,)][m] = bump(oc.blocks(n)[m], r, c)
    return failing(oc.check_left_leibniz(D) + oc.check_right_module_map(D) + oc.check_product_is_morphism(D))


def test_corrupt_act_table(z3):
    assert corrupt_act_table(z3[0]) == ACT_WITNESSES


def corrupt_act_table(bundle):
    ctx = VerifyContext(bundle, D, seed=7)
    em = bundle.modules["omega1"]
    em._act_table[(1,)] = bump(em.act_table(1), 4, 9)
    return failing(suite_action(ctx))


def test_theta_not_well_defined_witness(z3):
    """A bumped act_table(1) makes theta(2) fail to descend to Vec (x)_A V(1): the
    witness names the module, the degree and the target degree m (0 here) of theta_2^m
    at the first relation column that theta does not kill (24, left out of the witness)."""
    bundle, table = z3
    em = bundle.modules["omega1"]
    em._act_table[(1,)] = bump(em.act_table(1), 0, 6)
    assert raised(lambda: CrossingMap(table, em).theta(2)) == ("theta-not-well-defined", ("omega1", 2, 0))


def test_theta_not_well_defined_names_the_module_of_a_shared_crossing():
    """omega1 (x)_A A shares omega1's crossing; with its own act_table(1) bumped as above,
    the shared crossing builds theta(2) from the tensor module and raises under its name."""
    shared = load_builtin(Z3).crossings()
    cm, twin = shared.crossing("omega1"), shared.tensor_crossing("omega1", "A")
    tm = twin.module
    assert cm._theta is twin._theta and tm is not cm.module
    tm._act_table[(1,)] = bump(tm.act_table(1), 0, 6)
    for _ in range(2):  # a build that raises keeps nothing
        assert raised(lambda: twin.theta(2)) == ("theta-not-well-defined", ("(omega1(x)A)", 2, 0))
    assert (2,) not in cm._theta


def test_corrupt_bullet_table(z3):
    assert corrupt_bullet_table(z3[0]) == BULLET_WITNESSES


def corrupt_bullet_table(bundle):
    return failing(suite_bullet(bumped_bullet_context(bundle, D, (1, 0, 1), 2, 3)))


# (bundle, unit table, row, column, witness): table(0, n, n) column a*|V(n)| + v is read
# into column v on the left, table(n, 0, n) column v*|A| + a into column v on the right
UNIT_TABLE_BUMPS = [
    # u_0 (x) a_0, which the unit law checked on one random operator passed on seeds 4, 10,
    # 15, 32 and 34: the draw gave that coordinate 0
    (Z3, (3, 0, 3), 0, 0, ("right", 3, 0)),
    (Z3, (0, 2, 2), 5, 13, ("left", 2, 1)),
    (Z3, (0, 0, 0), 2, 2, ("left", 0, 2)),
    ("two-point-universal", (1, 0, 1), 0, 3, ("right", 1, 1)),
    ("two-point-universal", (0, 3, 3), 1, 2, ("left", 3, 0)),
    ("zero-form-smoke", (0, 0, 0), 0, 0, ("left", 0, 0)),
]


@pytest.mark.parametrize("name,key,r,c,witness", UNIT_TABLE_BUMPS)
def test_bullet_unit_fails_on_every_seed(name, key, r, c, witness):
    """One bumped column of a unit table fails bullet-unit on every seed, with the
    witness of the bump: no random draw decides the verdict."""
    bundle = load_builtin(name)
    bumped_bullet_context(bundle, 3, key, r, c)
    for seed in range(40):
        check = bullet_unit(VerifyContext(bundle, 3, seed))
        assert (check.ok, check.witness) == (False, witness), seed


# (bundle, table, row, column, first failing (n, m, l, *basis triple) of the identity on
# the triples of degrees <= 1): bumps of the degree <= 1 tables, one for each (n, m) in
# some built-in.  Every single-entry bump of these tables that breaks the identity is
# caught by some random trial on seeds 0-39, so no bump here leaves every trial passing.
LOW_TABLE_BUMPS = [
    (Z3, (0, 1, 1), 4, 11, (0, 0, 1, 1, 1, 5)),
    (Z3, (1, 0, 0), 2, 17, (1, 0, 0, 5, 0, 2)),
    (Z3, (1, 1, 2), 11, 20, (0, 1, 1, 1, 3, 2)),  # total degree 2
    ("two-point-universal", (0, 0, 0), 1, 2, (0, 0, 0, 1, 0, 1)),
    ("two-point-universal", (0, 1, 0), 0, 3, (0, 0, 1, 0, 1, 1)),
    ("two-point-universal", (1, 0, 1), 1, 1, (0, 1, 0, 0, 0, 1)),
    ("two-point-universal", (1, 1, 0), 1, 2, (1, 1, 1, 0, 1, 0)),  # total degree 3 only
    ("zero-form-smoke", (0, 0, 0), 0, 0, None),  # doubles the product: still associative
]


def low_associativity_fail(table, truncation: int):
    """The oracle's first failing (n, m, l, *basis triple) over the triples with each
    index <= 1 and n + m + l <= min(3, truncation), in the homogeneous check's order."""
    triples = [t for t in product(range(2), repeat=3) if sum(t) <= min(3, truncation)]
    return next(((*t, *f) for t in triples for f in [oracles.associativity_fail(table, *t)] if f is not None), None)


@pytest.mark.parametrize("name,key,r,c,exact", LOW_TABLE_BUMPS)
def test_bullet_associativity_random_fails_on_every_seed(name, key, r, c, exact):
    """At degree 1 the homogeneous check stops below total degree 2.  A bump of a
    degree <= 1 table that breaks associativity on a triple of degrees <= 1 fails
    bullet-associativity-random on every seed, with the rational loop's first failing
    trial as witness; a bump that keeps it passes on every seed."""
    bundle = load_builtin(name)
    table = bumped_bullet_context(bundle, 3, key, r, c).table
    assert low_associativity_fail(table, bundle.truncation) == exact
    for seed in range(40):
        ctx = VerifyContext(bundle, 1, seed)
        check = bullet_associativity_random(ctx)
        ok, trial = oracles.bullet_associativity_random(ctx)
        expected = (True, None) if exact is None else (False, exact if ok else trial)
        assert (check.ok, check.witness) == expected, seed


@pytest.mark.parametrize("name,key,r,c,exact", [b for b in LOW_TABLE_BUMPS if b[-1] is not None])
def test_bullet_associativity_random_fails_when_no_trial_does(name, key, r, c, exact, monkeypatch):
    """With every random operator drawn as zero no trial fails, and the broken identity
    still fails the check, with its first failing (n, m, l, *basis triple) as witness."""
    zeros = lambda ctx, rng, max_deg: {d: [ZERO] * ctx.geometry.V(d).dim for d in range(max_deg + 1)}
    monkeypatch.setattr(verify, "_random_coords", zeros)
    bundle = load_builtin(name)
    bumped_bullet_context(bundle, 3, key, r, c)
    for seed in range(40):
        check = bullet_associativity_random(VerifyContext(bundle, 1, seed))
        assert (check.ok, check.witness) == (False, exact), seed


def bumped_bullet_context(bundle, built: int, key, r, c) -> VerifyContext:
    """A seed-7 context whose bullet table ``key`` has 1 added at (r, c), bumped
    after every table of total degree <= built was built from the true ones."""
    ctx = VerifyContext(bundle, D, seed=7)
    for n in range(built + 1):
        for m in range(built + 1 - n):
            for k in range(n + m + 1):
                ctx.table.table(n, m, k)
    ctx.table._table[key] = bump(ctx.table.table(*key), r, c)
    return ctx


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
        g._ev_pow[(2,)] = bump(g.ev_pow(2), 1, 50)
    else:
        g._coev_pow[(2,)] = bump(g.coev_pow(2), 40, 0)
    return failing(suite_ev_duality(ctx))


@pytest.mark.parametrize("name", ["two-point-universal", Z3])
def test_tower_and_table_digests_pinned(name):
    bundle = load_builtin(name)
    g = bundle.geometry
    table = BulletTable(g)
    got = {
        "ev_pow": digest([g.ev_pow(n) for n in (1, 2, 3)]),
        "coev_pow": digest([g.coev_pow(n) for n in (1, 2, 3)]),
        "table_1mm": digest([table.table(1, m, m) for m in range(4)]),
    }
    for mname, module in sorted(bundle.modules.items()):
        got[f"act_table:{mname}"] = digest([module.act_table(n) for n in (1, 2, 3)])
    assert got == TOWER_DIGESTS[name]


@pytest.mark.parametrize(
    "name,what,n,r,c",
    [
        (Z3, "ev_pow", 1, 0, 12),
        (Z3, "ev_pow", 1, 2, 12),
        (Z3, "ev_pow", 2, 1, 53),
        (Z3, "ev_pow", 3, 1, 229),
        (Z3, "coev_pow", 2, 117, 0),
        (Z3, "coev_pow", 3, 210, 0),
        (Z3, "box_vec_pow", 2, 13, 5),
        (Z3, "box_vec_pow", 3, 20, 13),
        (Z3, "box_form_pow", 2, 12, 3),
        (Z3, "box_form_pow", 3, 12, 19),
        ("two-point-universal", "ev_pow", 2, 0, 1),
        ("two-point-universal", "ev_pow", 3, 1, 3),
    ],
)
def test_corrupt_tower(name, what, n, r, c):
    """One bumped entry of a degree-n tower map, seen by the zig-zag and duality suites."""
    bundle = load_builtin(name)
    g = bundle.geometry
    ctx = VerifyContext(bundle, 3, seed=7)
    assert not failing(suite_fgp_zigzag(ctx) + suite_ev_duality(ctx))  # builds the towers from the sound inputs first
    getattr(g, f"_{what}")[(n,)] = bump(getattr(g, what)(n), r, c)
    assert failing(suite_fgp_zigzag(ctx) + suite_ev_duality(ctx)) == TOWER_WITNESSES[(name, what, n, r, c)]


@pytest.mark.parametrize("name", ["two-point-universal", Z3])
def test_inverse_blocks_digest_pinned(name):
    bundle = load_builtin(name)
    table = BulletTable(bundle.geometry)
    got = {}
    for mname, module in sorted(bundle.modules.items()):
        cm = CrossingMap(table, module)
        inv = [cm.build_inverse(n) for n in range(4)]
        assert all(sorted(inv[n]) == list(range(n + 1)) for n in range(4))
        got[mname] = digest([inv[n][m] for n in range(4) for m in sorted(inv[n])])
    assert got == INVERSE_DIGESTS[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dual_connection_digest_pinned(name):
    g = load_builtin(name).geometry
    assert (digest([g.box_vec]), digest([g.sigma_vec_plain])) == DUAL_CONNECTION_DIGESTS[name]


def raised(check):
    """The (name, witness) of the ValidationError a validator raises, or None."""
    try:
        check()
    except ValidationError as err:
        return (err.name, err.witness)
    return None


def two_point_with(path, value: str) -> dict:
    """The two-point-universal document with the entry at ``path`` set to ``value``."""
    return bump_sweep.builtin_with("two-point-universal", path, value)


@pytest.mark.parametrize(
    "path,build,expected",
    [
        (("sigma_inv", 1, 0), None, ("sigma-inv-not-well-defined", None)),
        (("modules", "omega1", "sigma", 1, 0), None, ("sigma-omega-not-well-defined", "(omega1(x)omega1)")),
        (("sigma_inv", 1, 1), lambda b: b.geometry.box_vec_pow(2), ("box-vec-pow-not-well-defined", 2)),
        (("box", 1, 0), lambda b: b.geometry.box_form_pow(2), ("box-form-pow-not-well-defined", 2)),
        (("box", 1, 0), lambda b: b.modules["A"].nabla_pow(2), ("nabla-pow-not-well-defined", ("A", 2))),
        (
            ("modules", "omega1", "nabla", 1, 0),
            lambda b: tensor_connection(b.modules["omega1"], b.modules["omega1"]),
            ("tensor-connection-not-well-defined", ("omega1", "omega1")),
        ),
    ],
    ids=["sigma-inv", "sigma-omega", "box-vec-pow", "box-form-pow", "nabla-pow", "tensor-connection"],
)
def test_map_not_descending_to_its_quotient(path, build, expected):
    """One entry of two-point-universal set to 5 and loaded unvalidated: a map that no
    longer kills its quotient's relations raises under its own name, with the witness it
    has always carried (none for the two braidings of the geometry).  With no build
    given, the load itself raises."""
    doc = two_point_with(path, "5")
    if build is None:
        assert raised(lambda: load_bundle_dict(doc, validate=False)) == expected
    else:
        assert raised(lambda: build(load_bundle_dict(doc, validate=False))) == expected


def test_inner_product_pairing_not_descending_to_its_quotient():
    """A bumped star entry: each inner product's pairing fails to descend to E (x)_A conj(E),
    reported as the bimodule-map check's detail with the quotient's name as witness."""
    bundle = load_bundle_dict(two_point_with(("algebra", "star", 1, 1), "5"), validate=False)
    got = {
        r.name: r.detail
        for name in ("A", "omega1")
        for r in bundle.inner_products[name].validate(bundle.geometry, [])
        if r.name.endswith("bimodule-map")
    }
    assert got == {
        "ip-A:bimodule-map": "validation failed: ip-A-pairing-not-well-defined witness=(A(x)conj(A))",
        "ip-omega1:bimodule-map": "validation failed: ip-omega1-pairing-not-well-defined witness=(omega1(x)conj(omega1))",
    }


@pytest.mark.parametrize(
    "quotient,build,expected",
    [
        (
            "(dual(omega1)(x)omega1)",
            lambda b: load_builtin("two-point-universal", validate=False),
            ("ev-not-well-defined", "(dual(omega1)(x)omega1)"),
        ),
        ("(dual(omega1)(x)omega1)", lambda b: b.geometry._build_dual_connection(), ("sigma-vec-not-well-defined", None)),
        ("(A(x)omega1)", lambda b: trivial_module(b.geometry), ("sigma-A-not-well-defined", "(A(x)omega1)")),
        (
            "(dual(omega1)(x)omega1)",
            lambda b: CrossingMap(BulletTable(b.geometry), b.modules["omega1"]),
            ("sigma-hat-not-well-defined", "omega1"),
        ),
        (
            "((omega1(x)omega1)(x)omega1)",
            lambda b: tensor_connection(b.modules["omega1"], b.modules["omega1"]),
            ("sigma-tensor-not-well-defined", "((omega1(x)omega1)(x)omega1)"),
        ),
    ],
    ids=["ev", "sigma-vec", "sigma-A", "sigma-hat", "sigma-tensor"],
)
def test_quotient_refusing_every_map(monkeypatch, quotient, build, expected):
    """The pushes no single-entry corruption of a built-in reaches: with the named quotient
    made to refuse every map, each raises under its own name and witness."""
    bundle = load_builtin("two-point-universal")
    descends = TensorPair.descends
    monkeypatch.setattr(TensorPair, "descends", lambda self, m: self.space.name != quotient and descends(self, m))
    assert raised(lambda: build(bundle)) == expected


def test_unvalidated_load_names_a_coev_that_is_no_bimodule_map():
    """A bumped left action of the 1-forms, loaded unvalidated, breaks coev before any
    load-time invariant runs: it is refused by name, with the action it fails on."""
    doc = two_point_with(("omega", "left", 0, 0, 0), "5")
    assert raised(lambda: load_bundle_dict(doc, validate=False)) == ("coev-bimodule-map", ("left", 0))


def test_two_point_bump_sweep_pinned():
    """Every single-entry bump of two-point-universal to 5, -1 or 1/2 (310 documents),
    loaded unvalidated.  A load that fails raises a named error, never a bare one, and
    the connections and sobolev bodies of the 178 that load are pinned."""
    failures, bodies = bump_sweep.sweep("two-point-universal")
    assert sum(failures.values()) + len(bodies) == 310
    assert (len(bodies), bump_sweep.bodies_digest(bodies)) == SWEEP_BODIES


LOAD_INVARIANTS = ("calculus_failure", "right_connection_failure", "dual_connection_failure")


@pytest.mark.parametrize(
    "attr,r,c",
    [
        ("d", 0, 0),
        ("d", 4, 0),
        ("d", 1, 1),
        ("box_form", 0, 0),
        ("box_form", 3, 0),
        ("sigma_inv_form", 1, 6),
        ("box_vec", 1, 3),
        ("box_vec", 6, 0),
        ("sigma_vec_plain", 1, 18),
    ],
)
def test_corrupt_geometry_input(attr, r, c):
    g = load_builtin(Z3).geometry
    setattr(g, attr, bump(getattr(g, attr), r, c))
    got = {name: getattr(g, name)() for name in LOAD_INVARIANTS}
    assert {name: w for name, w in got.items() if w is not None} == GEOMETRY_WITNESSES[(attr, r, c)]


@pytest.mark.parametrize(
    "module,attr,r,c",
    [
        ("A", "nabla", 0, 0),
        ("A", "nabla", 1, 2),
        ("omega1", "nabla", 0, 0),
        ("omega1", "nabla", 0, 4),
        ("omega1", "sigma", 0, 10),
        ("vec", "nabla", 0, 3),
        ("vec", "sigma", 0, 1),
    ],
)
def test_corrupt_module_connection(module, attr, r, c):
    m = load_builtin(Z3).modules[module]
    setattr(m, attr, bump(getattr(m, attr), r, c))
    assert m.leibniz_failure() == MODULE_WITNESSES[(module, attr, r, c)]


@pytest.mark.parametrize("left,right", [(1, None), (None, 2), (2, 1), (1, 1), (1, 2)])
def test_corrupt_tensor_factor_action(left, right):
    """omega1 (x) vec with a bumped left action of omega1 and right action of vec."""
    g = load_builtin(Z3).geometry
    om, vec = g.omega, g.vec
    (om_left, om_right), (vec_left, vec_right) = action_blocks(om), action_blocks(vec)
    if left is not None:
        om_left[left] = bump(om_left[left], 0, 1)
    if right is not None:
        vec_right[right] = bump(vec_right[right], 0, 2)
    e = bimodule_from_blocks(g.algebra, om.dim, om_left, om_right, om.name)
    f = bimodule_from_blocks(g.algebra, vec.dim, vec_left, vec_right, vec.name)
    assert raised(lambda: TensorPair(e, f)) == TENSOR_ACTION_WITNESSES[(left, right)]


@pytest.mark.parametrize("r,c", [(0, 0), (0, 12), (2, 18)])
def test_corrupt_bullet_step_input(z3, r, c):
    """A bumped bullet table (1,1,1) makes the degree-2 tables built from it ill defined."""
    table = z3[1]
    table._table[(1, 1, 1)] = bump(table.table(1, 1, 1), r, c)
    keys = [(2, 0, 0), (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3)]
    assert [raised(lambda: table.table(*key)) for key in keys] == BULLET_STEP_WITNESSES[(r, c)]


@pytest.mark.parametrize("r,c", [(0, 0), (2, 18), (4, 18)])
def test_corrupt_bullet_table_111(z3, r, c):
    ctx = bumped_bullet_context(z3[0], 3, (1, 1, 1), r, c)  # the random triples reach total degree 3
    assert failing(suite_bullet(ctx)) == BULLET_111_WITNESSES[(r, c)]


@pytest.mark.parametrize(
    "built,key,r,c,witness",
    [
        (D, (1, 0, 1), 2, 3, 0),  # the bump of test_corrupt_bullet_table
        (3, (1, 1, 1), 0, 0, 2),  # the bumps of BULLET_111_WITNESSES
        (3, (1, 1, 1), 2, 18, 2),
        (3, (1, 1, 1), 4, 18, 2),
        # bumps under which only some trials fail: 9 of the 19 trials of degrees
        # (1, 1, 1), the first of them trial 7, after trials 2 and 6 of that pattern pass
        (3, (1, 2, 3), 0, 0, 7),
        # 17 trials of degrees (1, 1, 1) and (0, 1, 1), the first of them trial 5,
        # of the pattern drawn later
        (3, (0, 2, 2), 0, 0, 5),
        (3, (2, 0, 2), 3, 1, 2),  # 14 trials of degrees (1, 1, 1) and (1, 1, 0)
        # the built-ins as they are, with no bump: the exact identity holds, no trial is drawn
        *(pytest.param(None, name, None, None, None, id=name) for name in BUILTIN_NAMES),
    ],
)
def test_batched_random_trials_match_the_rational_loop_on_bumped_tables(z3, built, key, r, c, witness):
    """The check's verdict and witness are those of the oracle's rational trials, with
    no exact identity in front; ``key`` names the built-in of an unbumped row."""
    if built is None:
        ctx = VerifyContext(load_builtin(key), D, seed=7)
    else:
        ctx = bumped_bullet_context(z3[0], built, key, r, c)
    check = bullet_associativity_random(ctx)
    expected = (True, None) if witness is None else (False, witness)
    assert (check.ok, check.witness) == oracles.bullet_associativity_random(ctx) == expected


def test_corrupt_idempotent_reports_first_failure():
    bundle = load_builtin("two-point-universal")
    fgp = bundle.geometry.fgp
    # P = diag(p2, p1): add p1 at (0, 1) and (1, 0), and P o P differs from P at (0, 0) and (1, 1)
    fgp.idempotent = bump(bump(fgp.idempotent, 0, 1), 0, 2)
    assert failing(suite_fgp_zigzag(VerifyContext(bundle, 1, seed=7))) == {"idempotent-squared": (0, 0)}


@pytest.mark.parametrize("module,r,c", [("A", 2, 1), ("A", 2, 2), ("omega1", 0, 3), ("vec", 0, 1)])
def test_non_morphism_witnesses(z3, module, r, c):
    """t = identity + e_rc is not a connection morphism of the module."""
    bundle, table = z3
    m = bundle.modules[module]
    t = bump(Mat.identity(m.space.dim), r, c)
    report = morphism_equivariance_report(table, m, m, t, D)
    got = (connection_morphism_defect(m, m, t), sigma_compat_defect(m, m, t), [x.witness for x in report])
    assert got == NON_MORPHISM_WITNESSES[(module, r, c)]


def vec_digest(vecs) -> str:
    return hashlib.sha256("|".join(",".join(map(str, v)) for v in vecs).encode()).hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_fgp_digests_pinned(name):
    fgp = load_builtin(name).geometry.fgp
    left, right = action_blocks(fgp.dual)
    got = {
        "left": digest(left),
        "right": digest(right),
        "apply_mat": digest([fgp.apply_mat]),
        "coev": digest([fgp.coev]),
        "basis_functionals": vec_digest(fgp.basis_functionals),
    }
    assert got == FGP_DIGESTS[name]


def algebra_case(case) -> Algebra:
    tp = load_builtin("two-point-universal").algebra
    z3 = load_builtin(Z3).algebra
    if case == "assoc-two-point":  # p1 p1 = p1 + p2
        mul = [[list(mul_tensor(tp)[i][j]) for j in range(2)] for i in range(2)]
        mul[0][0][1] += sc(1)
        return Algebra(2, mul, unit=tp.unit)
    if case == "assoc-z3":
        mul = [[list(mul_tensor(z3)[i][j]) for j in range(3)] for i in range(3)]
        mul[1][1][0] += sc(1)
        mul[2][2][1] += sc(1)
        return Algebra(3, mul, unit=z3.unit, star=z3.star)
    if case == "unit-left-first":  # a_i a_j = a_i, unit a1: a1 a0 = a1 fails on the left at 0
        return Algebra(2, [[[1, 0]] * 2, [[0, 1]] * 2], unit=[0, 1])
    if case == "unit-right-first":  # unit a0; a0 a2 = 0 fails on the left at 2, a1 a0 = 0 on the right at 1
        mul = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for j in (0, 1):
            mul[0][j][j] = 1
        for j in (0, 2):
            mul[j][0][j] = 1
        return Algebra(3, mul, unit=[1, 0, 0])
    if case == "star-two-point":  # Q(i): star(p2) = i p1 + p2
        mul = [[list(mul_tensor(tp)[i][j]) for j in range(2)] for i in range(2)]
        return Algebra(2, mul, unit=tp.unit, star=Mat.from_rows([[1, "i"], [0, 1]]))
    assert case == "star-gaussian-constants"  # Q(i): a0 a0 = i a0, unit -i a0 + a1
    mul = [[["i", 0], [0, 0]], [[0, 0], [0, 1]]]
    return Algebra(2, mul, unit=["-i", 1], star=Mat.from_rows([[-1, 0], [1, 1]]))


@pytest.mark.parametrize(
    "case",
    [
        "assoc-two-point",
        "assoc-z3",
        "unit-left-first",
        "unit-right-first",
        "star-two-point",
        "star-gaussian-constants",
    ],
)
def test_algebra_validate_pinned(case):
    got = {r.name: (r.witness, r.detail) for r in algebra_case(case).validate() if not r.ok}
    assert got == ALGEBRA_RESULTS[case]


@functools.lru_cache(maxsize=None)
def z3_omega() -> Bimodule:
    return load_builtin(Z3).geometry.omega


def bumped_omega(bumps) -> Bimodule:
    """The z3 1-forms with 1 added to entry (r, c) of left[a] or right[a] for each (side, a, r, c)."""
    om = z3_omega()
    acts = dict(zip(("left", "right"), action_blocks(om)))
    for side, a, r, c in bumps:
        acts[side][a] = bump(acts[side][a], r, c)
    return bimodule_from_blocks(om.algebra, om.dim, acts["left"], acts["right"], om.name)


@pytest.mark.parametrize(
    "bumps",
    [
        (("left", 1, 2, 2),),
        (("right", 1, 0, 3),),
        (("left", 1, 5, 1),),
        (("right", 2, 5, 1),),
        (("left", 1, 2, 4), ("right", 1, 0, 3)),
        (("left", 0, 0, 0), ("right", 0, 0, 1)),
        (("left", 1, 1, 1), ("right", 0, 0, 1)),
    ],
    ids=["left", "right", "commute-from-left", "commute-from-right", "tie-21", "tie-00", "right-first"],
)
def test_bimodule_validate_witnesses(bumps):
    got = {r.name: r.witness for r in bumped_omega(bumps).validate() if not r.ok}
    assert got == BIMODULE_WITNESSES[bumps]


def test_bimodule_validate_single_bump_sweep_pinned():
    """Every single-entry bump of every action matrix of the z3 1-forms."""
    sweep = [
        ((side, a, r, c), {x.name: x.witness for x in bumped_omega([(side, a, r, c)]).validate() if not x.ok})
        for side in ("left", "right")
        for a in range(3)
        for r in range(6)
        for c in range(6)
    ]
    assert hashlib.sha256(repr(sweep).encode()).hexdigest() == BIMODULE_SWEEP_DIGEST


@pytest.mark.parametrize("i,j", [(0, 0), (1, 1)])
def test_not_projective_names_failing_element(i, j):
    """Two-point forms with one bumped entry: the dual basis property fails on element j."""
    bundle = load_builtin("two-point-universal")
    forms = [list(f) for f in bundle.geometry.fgp.basis_forms]
    forms[i][j] += sc(1)
    dO, written = bundle.geometry.omega.dim, bundle.to_dict()["dual_basis"]["functionals"]
    functionals = [Mat.from_rows([[sc(x) for x in row] for row in f], dO) for f in written]
    with pytest.raises(NotProjective) as err:
        dualize_right_module(bundle.geometry.omega, forms, functionals)
    assert (err.value.name, err.value.witness) == ("dual-basis", ("omega1", NOT_PROJECTIVE_ELEMENT[(i, j)]))


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
    "bullet-unit": ("right", 1, 1),  # I (x) 1 reads column 1*3 + 0 of table(1, 0, 1) into column 1
    "bullet-left-linearity": (1, 0, 1, 0, 1, 0),
    "bullet-associativity-homogeneous": (0, 1, 0, 0, 1, 0),
    "bullet-associativity-random": 0,
}
DUALITY_WITNESSES = {
    "sigma_vec_plain": {"mixed-sigma-relation": (3, 2, 3)},
    "ev_pow": {"ev-balanced-2": 2, "ev-bimodule-2": ("right", 2, 0), "ev-duality-2": (2, 0, 2)},
    "coev_pow": {"coev-central-2": (2, 1)},
}
TOWER_DIGESTS = {  # ev_pow and coev_pow at n = 1..3, table(1, m, m) at m = 0..3, act_table(1..3)
    "two-point-universal": {
        "act_table:A": "6879ded9c03442469f6f0094254b952ca0601f7be99aa167c2ebfcd46a71591e",
        "act_table:omega1": "c5070df78ae6e282d945d677428b9a7cdd7244d74b63243b2e550494420d8256",
        "act_table:vec": "570ee15890408a02cab935b77289db89bf372e6a6d05bbaf96cef336830dd17f",
        "coev_pow": "90b09769af3f330f884f9179f27cca8f00e867178bcbe9a9430602ad41025787",
        "ev_pow": "b0c160ebeff99929cdad32898177d11574aaf38f7360d7ce94eb2df119a60090",
        "table_1mm": "24029dfe397397ee908694c96e307dfdf302d325eb0e2dc19e7a93cd6d688709",
    },
    Z3: {
        "act_table:A": "caa727b387016c08ba29fa68ed7d0e6e67a127753cc03b83d9db0763e5da087a",
        "act_table:omega1": "2532e63329c2ef4f8a3023e8c3079af6978ae58faa2c992faa9be31acbd807d6",
        "act_table:vec": "5a624f410516ba99bb897c8937935cd6a1d89957a3fc52129b703579fa1751d7",
        "coev_pow": "1d44a5f57a58f45812d7e4e61bb37c6bbd3344081a2b971ea92a52c82432de16",
        "ev_pow": "6293136bb4c1360b1ed6c52b3b5485d63b2ac53c6419a307ac88efcb4f2c3f44",
        "table_1mm": "b6c766db6af1ac299af20feba70dff14440409f0805f9f81a451afa9c80c7917",
    },
}
TOWER_WITNESSES = {  # recorded with the per-basis-vector tower builders and checks
    # both sides of ev-bimodule-1 fail at the same a_i: the left side is reported
    (Z3, "ev_pow", 1, 0, 12): {"zigzag-1": ("fields", 1, 2), "ev-bimodule-1": ("left", 1, 0), "ev-duality-1": (2, 0)},
    (Z3, "ev_pow", 1, 2, 12): {"zigzag-1": ("fields", 1, 2), "ev-bimodule-1": ("left", 1, 1), "ev-duality-1": (2, 0)},
    (Z3, "ev_pow", 2, 1, 53): {
        "ev-bimodule-2": ("right", 2, 1),
        "ev-duality-2": (2, 0, 5),
        "zigzag-2": ("fields", 2, 4),
    },
    (Z3, "ev_pow", 3, 1, 229): {
        "ev-bimodule-3": ("right", 3, 1),
        "ev-duality-3": (3, 0, 13),
        "zigzag-3": ("fields", 3, 9),
    },
    (Z3, "coev_pow", 2, 117, 0): {"coev-central-2": (2, 1), "zigzag-2": ("fields", 2, 11)},
    (Z3, "coev_pow", 3, 210, 0): {"coev-central-3": (3, 1), "zigzag-3": ("fields", 3, 16)},
    (Z3, "box_vec_pow", 2, 13, 5): {"ev-duality-2": (2, 5, 10)},
    (Z3, "box_vec_pow", 3, 20, 13): {"ev-duality-3": (3, 13, 9)},
    (Z3, "box_form_pow", 2, 12, 3): {"ev-duality-2": (2, 1, 3)},
    (Z3, "box_form_pow", 3, 12, 19): {"ev-duality-3": (3, 18, 19)},
    # no single bumped entry on z3 breaks the forms side alone; the two-point bundle shows it
    ("two-point-universal", "ev_pow", 2, 0, 1): {
        "ev-balanced-2": 2,
        "ev-bimodule-2": ("right", 2, 0),
        "ev-duality-2": (2, 0, 1),
        "zigzag-2": ("forms", 2, 1),
    },
    ("two-point-universal", "ev_pow", 3, 1, 3): {
        "ev-balanced-3": 3,
        "ev-bimodule-3": ("right", 3, 0),
        "ev-duality-3": (3, 0, 1),
        "zigzag-3": ("forms", 3, 1),
    },
}
INVERSE_DIGESTS = {
    "two-point-universal": {
        "A": "c83d3fc70574aef6fc59b6a906a5e71b073c8a6a6233ab33e4fef32166ce2203",
        "omega1": "a31ac35956836b9459f287597d91ecf9edc487e1ae4ae71d844b9758a6574731",
        "vec": "45c0c1cb01da4bf9c5923453706e386b76b16dd38fd35bc6ef752edf4a361263",
    },
    Z3: {
        "A": "f199b6197c56f53f20c51e9a13086b22ca8c0bb1f2b7987759c6ae24240348cd",
        "omega1": "3cca09dcf779e55b77dd34e58bed19d24f28537e6c66eeeccb58e522c42a7858",
        "vec": "5be82ed1c854d247d1bffe78cb4038c2a3c5a5cbcd5248e95b3b6f8b5358e663",
    },
}
INVERSE_BLOCK_WITNESSES = {
    (1, 1, 0, 0): {
        "theta-right-inverse-deg1": 1,
        "theta-left-inverse-deg1": (1, 0, 2),
        "theta-left-inverse-deg2": (2, 0, 1),
    },
    (2, 2, 7, 11): {"theta-right-inverse-deg2": 2, "theta-left-inverse-deg2": (2, 11, 1)},
    (2, 1, 3, 16): {"theta-right-inverse-deg2": 2, "theta-left-inverse-deg2": (2, 4, 5)},
    (2, 0, 10, 20): {"theta-right-inverse-deg2": 2, "theta-left-inverse-deg2": (2, 8, 3)},
}
DUAL_CONNECTION_DIGESTS = {  # (box_vec, sigma_vec_plain)
    "two-point-universal": (
        "74e3f78242101308c22755c7d2dccdb0cefdd41a8047868054dc997a8aa1af61",
        "2b2f64c2ce68cb0f930daa0f20d985f96e2a6d5119baddf00d279ad22173bd2f",
    ),
    Z3: (
        "99f7338457a54bc1ed48d2b159ff39258cfa8dc4f59acc92f9d1272dd202332a",
        "fcdbf61053d38cb50f2b900a8812e20884a0fb3e6eb47b7a8bc8c88d539d8544",
    ),
    "zero-form-smoke": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}
SWEEP_BODIES = (178, "cdf68fc93d1547daf1ba772ec20fdcc5ca3e495df77cec8be85962746867cdf2")  # count, sha256
GEOMETRY_WITNESSES = {
    ("d", 0, 0): {
        "calculus_failure": ("leibniz", (0, 1)),
        "right_connection_failure": ("box-left-leibniz", (0, 1)),
        "dual_connection_failure": ("box-vec-right-leibniz", (0, 2)),
    },
    ("d", 4, 0): {
        "calculus_failure": ("leibniz", (1, 0)),
        "right_connection_failure": ("box-right-leibniz", (0, 0)),
        "dual_connection_failure": ("box-vec-left-leibniz", (0, 0)),
    },
    ("d", 1, 1): {
        "calculus_failure": ("leibniz", (1, 2)),
        "right_connection_failure": ("box-right-leibniz", (1, 0)),
        "dual_connection_failure": ("box-vec-right-leibniz", (1, 1)),
    },
    ("box_form", 0, 0): {"right_connection_failure": ("box-right-leibniz", (1, 0))},
    ("box_form", 3, 0): {"right_connection_failure": ("box-left-leibniz", (0, 0))},
    ("sigma_inv_form", 1, 6): {"right_connection_failure": ("box-left-leibniz", (0, 2))},
    ("box_vec", 1, 3): {"dual_connection_failure": ("box-vec-left-leibniz", (0, 3))},
    ("box_vec", 6, 0): {"dual_connection_failure": ("box-vec-right-leibniz", (1, 0))},
    ("sigma_vec_plain", 1, 18): {"dual_connection_failure": ("box-vec-right-leibniz", (0, 3))},
}
MODULE_WITNESSES = {
    ("A", "nabla", 0, 0): ("right-leibniz", ("A", 0, 0)),
    ("A", "nabla", 1, 2): ("left-leibniz", ("A", 1, 2)),
    ("omega1", "nabla", 0, 0): ("right-leibniz", ("omega1", 1, 0)),
    ("omega1", "nabla", 0, 4): ("left-leibniz", ("omega1", 0, 4)),
    ("omega1", "sigma", 0, 10): ("right-leibniz", ("omega1", 1, 5)),
    ("vec", "nabla", 0, 3): ("left-leibniz", ("vec", 0, 3)),
    ("vec", "sigma", 0, 1): ("right-leibniz", ("vec", 1, 0)),
}
_OV = "(omega1(x)dual(omega1))"
TENSOR_ACTION_WITNESSES = {
    (1, None): ("tensor-left-action", (_OV, 1)),
    (None, 2): ("tensor-right-action", (_OV, 2)),
    (2, 1): ("tensor-right-action", (_OV, 1)),
    (1, 1): ("tensor-left-action", (_OV, 1)),
    (1, 2): ("tensor-left-action", (_OV, 1)),
}
_BND = "bullet-not-well-defined"
BULLET_STEP_WITNESSES = {  # tables (2,0,0..2) and (2,1,0..3)
    (0, 0): [(_BND, (2, 0, 0, 0)), None, None, None, (_BND, (2, 1, 1, 1)), (_BND, (2, 1, 2, 4)), None],
    (0, 12): [None, None, None, None, (_BND, (2, 1, 1, 0)), (_BND, (2, 1, 2, 0)), None],
    (2, 18): [(_BND, (2, 0, 0, 0)), (_BND, (2, 0, 1, 0)), None, None, (_BND, (2, 1, 1, 0)), (_BND, (2, 1, 2, 0)), None],
}
BULLET_111_WITNESSES = {
    (0, 0): {"bullet-associativity-homogeneous": (1, 0, 1, 0, 0, 0), "bullet-associativity-random": 2},
    (2, 18): {"bullet-associativity-homogeneous": (1, 0, 1, 3, 0, 0), "bullet-associativity-random": 2},
    (4, 18): {
        "bullet-associativity-homogeneous": (0, 1, 1, 1, 3, 0),
        "bullet-associativity-random": 2,
        "bullet-left-linearity": (1, 1, 1, 1, 3, 0),
    },
}
NON_MORPHISM_WITNESSES = {  # (connection defect, sigma defect, equivariance per degree)
    ("A", 2, 1): (1, None, [(0, 1, 1), (1, 0, 1), (2, 0, 1)]),
    ("A", 2, 2): (0, 1, [None, (1, 0, 2), (2, 0, 2)]),
    ("omega1", 0, 3): (3, 9, [None, (1, 0, 5), (2, 0, 5)]),
    ("vec", 0, 1): (1, 7, [None, (1, 0, 4), (2, 0, 2)]),
}
_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()  # no 1-forms: every block is empty
FGP_DIGESTS = {  # dual.left, dual.right, apply_mat, coev, basis_functionals
    "two-point-universal": {
        "left": "9b221bf73c40e7b89e4b2bf9767a23bf71d3a94a51a8a1138c7fc11c7d2ef7bb",
        "right": "6028ffaf902f150769e25fa6c18330a789fdb0e22aa3036fb2b8e810da8e43fd",
        "apply_mat": "080ad7627c3b6967d7e5e16c55489534e906c8ba882a5f2ac638ba107f474e9a",
        "coev": "fe651f17438c1bb71cdf7d4904c07f7e69ef5cf7c6fa606dad1baeaa7f4489ea",
        "basis_functionals": "2eeced99e1013d7eca22cd50f08bc3f95b33248c84a5dcd1efcb2e2b2ac44317",
    },
    Z3: {
        "left": "66748aedbee44953b839cdf7a1d702381f79379d56dfef01def838b3aa158609",
        "right": "964f3e4e4bc6d436c3c5ac0567344d9d82e6d0d8b63160b7bf96c9a35e08933a",
        "apply_mat": "54cff853e32b1994da3fbdcb9c237e8d8903362ca6c4508afad661cbcde1041b",
        "coev": "24cab9d6020959a94b92ea0bf986c5e555fecd63009000b449fb97b5a284d421",
        "basis_functionals": "ebf467c1f75fcc6958aea8009823d83a1496ebe695df35589eb3e6ebfce7f5d6",
    },
    "zero-form-smoke": {
        "left": _EMPTY_DIGEST,
        "right": _EMPTY_DIGEST,
        "apply_mat": _EMPTY_DIGEST,
        "coev": _EMPTY_DIGEST,
        "basis_functionals": _EMPTY_DIGEST,
    },
}
ALGEBRA_RESULTS = {  # failing checks as (witness, detail)
    "assoc-two-point": {
        "associativity": ((0, 0, 1), "2 failing triples: [(0, 0, 1), (1, 0, 0)]"),
        "unit-laws": (0, ""),
    },
    "assoc-z3": {
        "associativity": ((0, 1, 1), "4 failing triples: [(0, 1, 1), (1, 1, 0), (1, 2, 2), (2, 2, 1)]"),
        "unit-laws": (1, ""),
    },
    "unit-left-first": {"unit-laws": (0, "")},
    "unit-right-first": {"unit-laws": (1, "")},
    "star-two-point": {"star-antimultiplicative": ((0, 1), ""), "star-fixes-unit": (None, "")},
    "star-gaussian-constants": {"star-antimultiplicative": ((0, 0), ""), "star-fixes-unit": (None, "")},
}
_UNITAL = {"omega1:left-unital": None, "omega1:right-unital": None}
BIMODULE_WITNESSES = {
    (("left", 1, 2, 2),): {"omega1:left-unital": None, "omega1:action-axioms": ("left", 1, 2)},
    (("right", 1, 0, 3),): {"omega1:right-unital": None, "omega1:action-axioms": ("right", 2, 1)},
    (("left", 1, 5, 1),): {"omega1:left-unital": None, "omega1:action-axioms": ("commute", 1, 1)},
    (("right", 2, 5, 1),): {"omega1:right-unital": None, "omega1:action-axioms": ("commute", 1, 2)},
    (("left", 1, 2, 4), ("right", 1, 0, 3)): {**_UNITAL, "omega1:action-axioms": ("left", 2, 1)},
    (("left", 0, 0, 0), ("right", 0, 0, 1)): {**_UNITAL, "omega1:action-axioms": ("left", 0, 0)},
    (("left", 1, 1, 1), ("right", 0, 0, 1)): {**_UNITAL, "omega1:action-axioms": ("right", 0, 0)},
}
BIMODULE_SWEEP_DIGEST = "5eccb722a038ae6ec2407ef56de78016e8701de479453204acfde602dba5a719"
NOT_PROJECTIVE_ELEMENT = {(0, 0): 0, (1, 1): 1}  # recorded from the error message
