"""The one memo of the kernel: every lazily built structure is built once per
argument tuple, kept on its instance, freed with it, and never cached when
its build raises."""

import gc
import weakref

import pytest

from ncdiffop.bundle import load_builtin
from ncdiffop.diffop import BulletTable, GradedOperator
from ncdiffop.linalg import Mat
from ncdiffop.memo import memo, shared_copy
from ncdiffop.report import ValidationError
from ncdiffop.scalars import sc
from ncdiffop.sobolev import SobolevPairings, sobolev_gram
from ncdiffop.verify import verify_all


class Counter:
    def __init__(self):
        self.builds = []

    @memo
    def square(self, n):
        self.builds.append(n)
        if n < 0:
            raise ValueError(n)
        return n * n


def test_builds_once_per_argument_tuple_and_instance():
    a, b = Counter(), Counter()
    assert [a.square(3), a.square(3), a.square(4), b.square(3)] == [9, 9, 16, 9]
    assert a.builds == [3, 4] and b.builds == [3]
    assert a._square == {(3,): 9, (4,): 16}
    assert Counter.square.__name__ == "square"


def test_a_build_that_raises_caches_nothing():
    c = Counter()
    for _ in range(2):
        with pytest.raises(ValueError):
            c.square(-1)
    assert c.builds == [-1, -1] and (-1,) not in c.__dict__.get("_square", {})


def test_a_shared_copy_reads_and_fills_the_caches_of_its_instance():
    a = Counter()
    a.name = "a"
    b = shared_copy(a, name="b")  # before any build: no cache dict exists yet
    assert (a.name, b.name) == ("a", "b") and b.builds is a.builds
    assert [b.square(3), a.square(3), a.square(4), b.square(4)] == [9, 9, 16, 16]
    assert a.builds == [3, 4] and a._square is b._square
    with pytest.raises(ValueError):
        b.square(-1)
    assert (-1,) not in a._square


def test_corrupted_bullet_table_raises_the_same_error_twice():
    table = BulletTable(load_builtin("z3-function-calculus").geometry)
    t = table.table(1, 1, 1)
    table._table[(1, 1, 1)] = t + Mat.from_entries(t.rows, t.cols, [(0, 0, sc(1))])
    errors = []
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            table.table(2, 1, 1)
        errors.append((info.value.name, info.value.witness))
    assert errors[0] == errors[1] and errors[0][0] == "bullet-not-well-defined"
    assert (2, 1, 1) not in table._table


def exercise(name):
    """Run the suites, an operator application and a Gram matrix on a fresh
    bundle; return a weak reference to its geometry."""
    bundle = load_builtin(name)
    g = bundle.geometry
    assert verify_all(bundle, degree=2, seed=3).ok
    module = bundle.modules["omega1"]
    op = GradedOperator.homogeneous(g, 2, [sc(1)] * g.V(2).dim, bundle.truncation)
    op.act_on(module, [sc(1)] * module.space.dim)
    pairings = SobolevPairings(module, bundle.inner_products["omega1"], bundle.inner_products["omega1"])
    sobolev_gram(pairings, next(iter(bundle.states.values())), 2)
    return weakref.ref(g)


@pytest.mark.parametrize("name", ["two-point-universal", "z3-function-calculus"])
def test_caches_die_with_their_bundle(name):
    ref = exercise(name)
    gc.collect()
    assert ref() is None
