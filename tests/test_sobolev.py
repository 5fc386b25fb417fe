"""Inner products and Sobolev Gram matrices on the two-point bundle.

The order-0 Gram of the uniform state was computed by hand: the pairing of
idempotents is phi(p_i p_j*) = delta_ij / 2, giving diag(1/2, 1/2).
"""

from fractions import Fraction

import pytest

from ncdiffop.algebra import State
from ncdiffop.bundle import BUILTIN_NAMES, load_builtin
from ncdiffop.calculus import omega_module, trivial_module
from ncdiffop.linalg import Mat
from ncdiffop.scalars import ZERO, sc as sc_
from ncdiffop.sobolev import (
    InnerProduct,
    PositivityFailure,
    SobolevPairings,
    canonical_algebra_ip,
    gram_increment_certificate,
    sobolev_gram,
    tensor_inner_product,
)
from oracles import iterated as oracle_iterated, lift, of_elements, right_apply, unit_row


@pytest.fixture
def uniform(two_point_algebra):
    s = State([Fraction(1, 2), Fraction(1, 2)], "uniform")
    assert all(r.ok for r in s.validate(two_point_algebra) if r.name != "state-faithful")
    return s


@pytest.fixture
def point_state(two_point_algebra):
    s = State([1, 0], "point1")
    assert all(r.ok for r in s.validate(two_point_algebra) if r.name != "state-faithful")
    return s


def pairing(module, table, name):
    """A pairing from a nested table: ``table[i][j]`` lists the algebra coordinates of
    <e_i, conj(e_j)>, column i*dim + j of the pairing's matrix."""
    return InnerProduct(module, Mat.from_cols([cell for row in table for cell in row], module.algebra.dim), name)


@pytest.fixture
def omega_ip(two_point_geometry):
    # <w12, conj(w12)> = p1, <w21, conj(w21)> = 2 p2, cross terms vanish
    values = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 2]],
    ]
    return pairing(two_point_geometry.omega, values, "ip-omega")


def test_pairing_matrix_must_be_dA_by_dim_squared(two_point_geometry):
    g = two_point_geometry
    for rows, cols in ((2, 2), (2, 3), (1, 4), (3, 4), (4, 4), (2, 0)):
        with pytest.raises(ValueError, match="ip-bad"):
            InnerProduct(g.omega, Mat(rows, cols), "ip-bad")
    assert InnerProduct(g.omega, Mat(2, 4), "ip-zero").matrix == Mat.zeros(2, 4)


def test_algebra_ip_valid(two_point_geometry, uniform, point_state):
    ip = canonical_algebra_ip(two_point_geometry.algebra)
    results = ip.validate(two_point_geometry, [uniform, point_state])
    assert all(r.ok for r in results)


def test_omega_ip_valid(two_point_geometry, omega_ip, uniform):
    results = omega_ip.validate(two_point_geometry, [uniform])
    assert all(r.ok for r in results)


def test_symmetry_violation_detected(two_point_geometry):
    values = [
        [[1, 0], [1, 0]],  # <w12, conj(w21)> = p1 but <w21, conj(w12)> = 0
        [[0, 0], [0, 1]],
    ]
    ip = pairing(two_point_geometry.omega, values, "bad")
    results = {r.name: r for r in ip.validate(two_point_geometry, [])}
    assert not results["bad:symmetry"].ok


def test_non_positive_pairing_detected(two_point_geometry, uniform):
    values = [
        [[-1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    ip = pairing(two_point_geometry.omega, values, "neg")
    results = {r.name: r for r in ip.validate(two_point_geometry, [uniform])}
    assert not results["neg:positive[uniform]"].ok
    assert results["neg:positive[uniform]"].witness is not None


def test_tensor_inner_product_symmetric_bimodule(two_point_geometry, omega_ip, uniform):
    g = two_point_geometry
    pair = g.pair_W(2)
    ip2 = tensor_inner_product(omega_ip, omega_ip, pair)
    assert all(r.ok for r in ip2.validate(two_point_geometry, [uniform]))


def test_tensor_ip_with_unit_factor_reduces(two_point_geometry, omega_ip):
    # F = A with <a, conj(b)> = a b*: the pairing on E (x) A matches E's pairing
    g = two_point_geometry
    ip_a = canonical_algebra_ip(g.algebra, g.A_bim)
    pair = g.pair(g.omega, g.A_bim)
    prod = tensor_inner_product(omega_ip, ip_a, pair)
    # transport the pairing along [xi (x) a] -> xi.a
    for a in range(pair.dim):
        xa = lift(pair, unit_row(pair.dim, a))
        ea = [ZERO] * g.omega.dim
        for p, c in enumerate(xa):
            if not c:
                continue
            i, j = divmod(p, g.algebra.dim)
            term = right_apply(g.omega, unit_row(g.omega.dim, i), unit_row(g.algebra.dim, j))
            ea = [x + c * y for x, y in zip(ea, term)]
        for b in range(pair.dim):
            xb = lift(pair, unit_row(pair.dim, b))
            eb = [ZERO] * g.omega.dim
            for p, c in enumerate(xb):
                if not c:
                    continue
                i, j = divmod(p, g.algebra.dim)
                term = right_apply(g.omega, unit_row(g.omega.dim, i), unit_row(g.algebra.dim, j))
                eb = [x + c * y for x, y in zip(eb, term)]
            assert prod.matrix.column(a * pair.dim + b) == of_elements(omega_ip, ea, eb)


def test_order_zero_gram_uniform(two_point_geometry, omega_ip, uniform):
    g = two_point_geometry
    am = trivial_module(g)
    pairings = SobolevPairings(am, omega_ip, canonical_algebra_ip(g.algebra, am.space))
    gram = sobolev_gram(pairings, uniform, 0)
    assert gram.matrix == Mat.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert gram.is_positive and gram.strictly_positive()


def test_iterated_pairing_order_one_is_d_pairing(two_point_geometry, omega_ip):
    # <<a, conj(b)>>_1 = <da, conj(db)> on the algebra module
    g = two_point_geometry
    am = trivial_module(g)
    pairings = SobolevPairings(am, omega_ip, canonical_algebra_ip(g.algebra, am.space))
    vals = pairings.iterated(1)
    for i in range(2):
        for j in range(2):
            assert vals.column(i * 2 + j) == of_elements(omega_ip, g.d.column(i), g.d.column(j))


def test_gram_monotone_and_strict(two_point_geometry, omega_ip, uniform, point_state, two_point_omega_connection):
    g = two_point_geometry
    nabla_plain, sigma_plain = two_point_omega_connection
    modules = [
        (trivial_module(g), None),
        (omega_module(g, nabla_plain, sigma_plain), omega_ip),
    ]
    for module, ip_e in modules:
        if ip_e is None:
            ip_e = canonical_algebra_ip(g.algebra, module.space)
        pairings = SobolevPairings(module, omega_ip, ip_e)
        for state in (uniform, point_state):
            for n in range(0, 4):
                gram = sobolev_gram(pairings, state, n)
                assert gram.is_positive
                if n >= 1:
                    inc = gram_increment_certificate(pairings, state, n)
                    assert inc.is_psd
            if state is uniform:
                assert sobolev_gram(pairings, state, 3).strictly_positive()


def test_zero_element_has_zero_norm(two_point_geometry, omega_ip, uniform):
    g = two_point_geometry
    am = trivial_module(g)
    pairings = SobolevPairings(am, omega_ip, canonical_algebra_ip(g.algebra, am.space))
    vals = pairings.iterated(2)
    zero = [ZERO, ZERO]
    ip = pairings.ip_module
    assert of_elements(ip, zero, zero) == [ZERO, ZERO]
    # quadratic form of the Gram at the zero vector vanishes
    gram = sobolev_gram(pairings, uniform, 2)
    from ncdiffop.linalg import quadratic_form

    assert quadratic_form(gram.matrix, zero) == ZERO


def test_positivity_failure_raises_with_witness(two_point_geometry, uniform):
    g = two_point_geometry
    am = trivial_module(g)
    bad_ip = pairing(
        g.A_bim,
        [[[-1, 0], [0, 0]], [[0, 0], [0, -1]]],
        "bad",
    )
    bad_omega = pairing(g.omega, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "ok")
    pairings = SobolevPairings(am, bad_omega, bad_ip)
    with pytest.raises(PositivityFailure) as err:
        sobolev_gram(pairings, uniform, 0)
    assert err.value.witness is not None


def test_order_two_values_frozen(two_point_geometry, omega_ip, uniform):
    # hand computation: nabla^(2) p1 = box(d p1) (x) 1 = (3 q1 - 4 q2) (x) 1,
    # <q1, conj(q1)> = 2 p1 and <q2, conj(q2)> = 2 p2, so
    # <<p1, conj(p1)>>_2 = 9*2p1 + 16*2p2 = 18 p1 + 32 p2
    g = two_point_geometry
    am = trivial_module(g)
    pairings = SobolevPairings(am, omega_ip, canonical_algebra_ip(g.algebra, am.space))
    vals = pairings.iterated(2)
    assert vals.column(0) == [sc_(18), sc_(32)]
    assert vals.column(3) == [sc_(18), sc_(32)]
    assert vals.column(1) == [sc_(-18), sc_(-32)]
    # the full order-2 Gram under the uniform state
    gram = sobolev_gram(pairings, uniform, 2)
    assert gram.matrix == Mat.from_rows(
        [[27, Fraction(-53, 2)], [Fraction(-53, 2), 27]]
    )


# -- iterated pairings as one product per degree, against the pairwise oracle ---------------


def _declared_pairings(bundle):
    """A SobolevPairings for every module of a bundle that declares an inner product."""
    ip_om = bundle.form_pairing()
    return [
        (name, SobolevPairings(bundle.modules[name], ip_om, ip))
        for name, ip in sorted(bundle.inner_products.items())
        if name in bundle.modules
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_iterated_matches_oracle_on_builtins(name):
    pairings = _declared_pairings(load_builtin(name))
    assert pairings
    for module, p in pairings:
        for n in range(4):
            assert p.iterated(n) == oracle_iterated(p, n), (module, n)


def test_iterated_matches_oracle_on_gaussian_pairing(two_point_geometry):
    """Non-real pairings, and a connection on the 1-forms with non-real entries, so
    that the conjugate on the second leg of the product changes the answer.

    Adding the left-module map w12 -> i q1 to the connection of the fixture
    ``two_point_omega_connection`` keeps the right Leibniz rule once
    sigma(q1) = 1/2 - i (w12 (x) dp2 = -q1, and q1 p2 = 0)."""
    g = two_point_geometry
    nabla_plain = Mat.from_rows([[0, 0], ["-1/2+i", 1], [1, -5], [0, 0]])
    sigma_plain = Mat.from_rows([[0, 0, 0, 0], [0, "1/2-i", 0, 0], [0, 0, 5, 0], [0, 0, 0, 0]])
    gaussian = omega_module(g, nabla_plain, sigma_plain)
    ip_om = pairing(g.omega, [[["1+i", 0], [0, 0]], [[0, 0], [0, "2-3i"]]], "ip-omega-gaussian")
    ip_a = pairing(g.A_bim, [[["i", 0], [0, 0]], [[0, 0], [0, "1/2+i"]]], "ip-A-gaussian")
    for module, ip_e in ((gaussian, ip_om), (trivial_module(g), ip_a)):
        p = SobolevPairings(module, ip_om, ip_e)
        for n in range(4):
            assert p.iterated(n) == oracle_iterated(p, n), (module.name, n)
    p = SobolevPairings(gaussian, ip_om, ip_om)
    for n in range(1, 4):
        npow = gaussian.nabla_pow(n)
        assert npow != npow.conj()
        plain = p.ip_derivative_target(n).matrix.mul_ikron(npow.rows, npow, 1).mul_ikron(1, npow, 2)
        assert plain != p.iterated(n)


def test_forms_power_tables_shared_per_bundle():
    bundle = load_builtin("z3-function-calculus")
    (_, a), (_, b) = _declared_pairings(bundle)
    again = SobolevPairings(a.module, bundle.form_pairing(), a.ip_module)
    for n in range(1, 4):
        assert a.ip_forms_power(n) is b.ip_forms_power(n) is again.ip_forms_power(n)
        assert a.ip_derivative_target(n) is not again.ip_derivative_target(n)
    fresh = _declared_pairings(load_builtin("z3-function-calculus"))[0][1]
    for n in range(1, 4):
        assert fresh.ip_forms_power(n) is not a.ip_forms_power(n)
        assert fresh.ip_forms_power(n).matrix == a.ip_forms_power(n).matrix


def test_gram_independent_of_query_order():
    def gram_text(bundle, module, state, order):
        ip_e = bundle.inner_products[module]
        gram = sobolev_gram(SobolevPairings(bundle.modules[module], bundle.form_pairing(), ip_e), bundle.states[state], order)
        return [[str(x) for x in row] for row in gram.matrix.data]

    first = gram_text(load_builtin("z3-function-calculus"), "omega1", "uniform", 3)
    bundle = load_builtin("z3-function-calculus")
    for module, state in (("A", "uniform"), ("omega1", "point0"), ("A", "point0")):
        for order in range(4):
            gram_text(bundle, module, state, order)
    assert gram_text(bundle, "omega1", "uniform", 3) == first


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_second_validation_builds_no_tensor_pair(name, monkeypatch):
    """``InnerProduct.validate`` takes E (x)_A conj E from ``Geometry.pair``, which keeps
    one quotient per content: validating again builds none, and the pair's memo does
    not grow."""
    from ncdiffop.bimodule import TensorPair

    bundle = load_builtin(name, validate=False)
    g, states = bundle.geometry, list(bundle.states.values())
    built = []
    init = TensorPair.__init__

    def counting(self, e, f):
        built.append((e.name, f.name))
        init(self, e, f)

    monkeypatch.setattr(TensorPair, "__init__", counting)
    first = [r.ok for ip in bundle.inner_products.values() for r in ip.validate(g, states)]
    assert all(first)
    once, pairs = list(built), len(g._pair)
    again = [r.ok for ip in bundle.inner_products.values() for r in ip.validate(g, states)]
    assert again == first and built == once and len(g._pair) == pairs
