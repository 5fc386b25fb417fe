import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdiffop.algebra import Algebra, NoStar, State
from ncdiffop.bundle import BUILTIN_NAMES, load_builtin
from ncdiffop.linalg import Mat
from ncdiffop.scalars import ONE, ZERO, Scalar, sc
from oracles import apply_star, mul, mul_tensor, state_gram, unit_row


def test_rationals_algebra_valid():
    a = Algebra(1, [[[1]]], unit=[1], star=Mat.identity(1))
    assert all(r.ok for r in a.validate())


def test_two_point_valid(two_point_algebra):
    assert all(r.ok for r in two_point_algebra.validate())


def test_corrupted_structure_tensor_names_triple(two_point_algebra):
    table = [[list(mul_tensor(two_point_algebra)[i][j]) for j in range(2)] for i in range(2)]
    table[0][1] = [sc(1), sc(0)]  # p1 p2 = p1 breaks associativity
    bad = Algebra(2, table, unit=[1, 1])
    report = {r.name: r for r in bad.validate()}
    assert not report["associativity"].ok
    assert report["associativity"].witness is not None
    # brute-force oracle: find the first failing triple directly
    found = None
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = mul(bad, mul(bad, unit_row(2, i), unit_row(2, j)), unit_row(2, k))
                rhs = mul(bad, unit_row(2, i), mul(bad, unit_row(2, j), unit_row(2, k)))
                if lhs != rhs and found is None:
                    found = (i, j, k)
    assert report["associativity"].witness == found


def test_mul_element_unit_and_idempotents(two_point_algebra):
    a = two_point_algebra
    x = [sc(3), sc(-2)]
    assert mul(a, x, a.unit) == x
    assert mul(a, a.unit, x) == x
    p1 = unit_row(2, 0)
    assert mul(a, p1, p1) == p1


def test_group_algebra_matches_convolution_oracle(z3_group_algebra):
    rng = random.Random(7)
    for _ in range(20):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        y = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        # independent convolution oracle over the cyclic group
        expected = [Fraction(0)] * 3
        for i in range(3):
            for j in range(3):
                expected[(i + j) % 3] += x[i] * y[j]
        got = mul(z3_group_algebra, [sc(v) for v in x], [sc(v) for v in y])
        assert got == [sc(v) for v in expected]


def test_mul_associative_on_random_triples(two_point_algebra, z3_group_algebra):
    rng = random.Random(11)
    for alg in (two_point_algebra, z3_group_algebra):
        for _ in range(200):
            x, y, z = (
                [sc(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(alg.dim)]
                for _ in range(3)
            )
            assert mul(alg, mul(alg, x, y), z) == mul(alg, x, mul(alg, y, z))


def test_star_is_involution(z3_group_algebra):
    a = z3_group_algebra
    for i in range(3):
        e = unit_row(3, i)
        assert apply_star(a, apply_star(a, e)) == e


def test_dimension_mismatch(two_point_algebra):
    with pytest.raises(ValueError):
        mul(two_point_algebra, [ONE], [ONE, ONE])


# -- states --------------------------------------------------------------------


def test_uniform_state_valid_faithful(two_point_algebra):
    s = State([Fraction(1, 2), Fraction(1, 2)], "uniform")
    assert all(r.ok for r in s.validate(two_point_algebra) if r.name != "state-faithful")
    assert s.faithful is True
    # Gram matrix oracle: diag(1/2, 1/2) in the idempotent basis
    g = s.gram(two_point_algebra)
    assert g == Mat.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


def test_point_evaluation_state_valid_not_faithful(two_point_algebra):
    s = State([1, 0], "point1")
    assert all(r.ok for r in s.validate(two_point_algebra) if r.name != "state-faithful")
    assert s.faithful is False


def test_non_unital_functional_invalid(two_point_algebra):
    s = State([1, 1], "double")  # phi(1) = 2
    report = {r.name: r for r in s.validate(two_point_algebra)}
    assert not report["state-unital"].ok


def test_non_positive_functional_invalid(two_point_algebra):
    s = State([2, -1], "signed")  # phi(1) = 1 but phi(p2 p2*) = -1
    report = {r.name: r for r in s.validate(two_point_algebra)}
    assert report["state-unital"].ok
    assert not report["state-positive"].ok
    assert report["state-positive"].witness is not None


def test_state_needs_star():
    a = Algebra(1, [[[1]]], unit=[1])
    with pytest.raises(NoStar):
        State([1]).validate(a)


# -- the state on a table of algebra elements ------------------------------------


parts = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def state_tables(draw):
    """A functional on A and a table Kron(d, d) -> A over Q or Q(i), with d from 0 to 3,
    dA from 1 to 3 and whole columns left empty one time in three."""
    entries = st.builds(Scalar, parts, parts if draw(st.booleans()) else st.just(0))
    d, dA = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    functional = draw(st.lists(entries, min_size=dA, max_size=dA))
    cols = [
        [ZERO] * dA if draw(st.integers(0, 2)) == 0 else draw(st.lists(entries, min_size=dA, max_size=dA))
        for _ in range(d * d)
    ]
    return State(functional), Mat.from_cols(cols, dA), d


@given(state_tables())
@settings(max_examples=200, deadline=None)
def test_gram_of_is_the_state_on_each_column(case):
    state, table, d = case
    per_entry = [[state(table.column(i * d + j)) for j in range(d)] for i in range(d)]
    assert state.gram_of(table, d) == Mat.from_rows(per_entry, d)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_state_gram_matches_the_regroup_oracle(name):
    bundle = load_builtin(name)
    algebra, d = bundle.algebra, bundle.algebra.dim
    states = list(bundle.states.values())
    states += [State([1 if i == k else 0 for i in range(d)], f"e{k}") for k in range(d)]
    states.append(State([Scalar(k + 1, k - 1) for k in range(d)], "gaussian"))
    for state in states:
        assert state.gram(algebra) == state_gram(state, algebra), state.name
