"""The centre axioms for the operator algebra and the Hopf cross-check."""

from ncdiffop.calculus import omega_module, trivial_module, vec_module
from ncdiffop.centre import verify_centre
from ncdiffop.crossing import Crossings, OperatorAlgebraCandidate
from ncdiffop.diffop import BulletTable
from ncdiffop.hopf import (
    HopfCentreCandidate,
    cyclic_group,
    phi_inverse_formula,
    phi_matrix,
    regular_module,
    standard_candidate,
    symmetric_group_3,
    trivial_module as hopf_trivial,
)
from ncdiffop.linalg import Mat, inverse


def test_hopf_z2_all_axioms():
    cand = standard_candidate("Z2")
    results = verify_centre(cand)
    assert results
    for r in results:
        assert r.ok, r


def test_hopf_s3_all_axioms():
    cand = standard_candidate("S3")
    results = verify_centre(cand)
    for r in results:
        assert r.ok, r


def test_s3_is_noncommutative_sanity():
    g = symmetric_group_3()
    a, b = g.elements[1], g.elements[2]
    assert g.mult(a, b) != g.mult(b, a)


def test_phi_inverse_formula_matches_matrix_inverse():
    for which in ("Z2", "S3"):
        cand = standard_candidate(which)
        for name in cand.object_names():
            phi = phi_matrix(cand.group, cand.module(name))
            assert phi_inverse_formula(cand.group, cand.module(name)) == inverse(phi)


def test_adjoint_naturality_is_checked():
    cand = standard_candidate("Z2")
    results = cand.check_naturality()
    assert results and all(r.ok for r in results)


def test_hopf_detects_broken_phi():
    # corrupt the regular representation: no longer a module, morphism fails
    g = cyclic_group(2)
    reg = regular_module(g)
    shear = Mat.from_rows([[1, 1], [0, 1]])  # squares to a shear, not the identity
    reg.action = Mat(2, 4, reg.action.cols_sparse()[:2] + shear.cols_sparse())  # the g_1 columns
    cand = HopfCentreCandidate(g, {"trivial": hopf_trivial(g), "regular": reg})
    results = verify_centre(cand)
    assert any(not r.ok for r in results)


def test_operator_algebra_centre_two_point(two_point_geometry, two_point_omega_connection):
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    table = BulletTable(g)
    modules = {
        "A": trivial_module(g),
        "omega1": omega_module(g, nabla_plain, sigma_plain),
        "vec": vec_module(g),
    }
    cand = OperatorAlgebraCandidate(Crossings(table, modules), 2)
    results = verify_centre(cand)
    for r in results:
        assert r.ok, (r.name, r.witness)
