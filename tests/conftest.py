"""Shared fixtures: the two-point function algebra with its universal calculus,
and the cyclic-group function algebra, built directly from structure constants.
"""

import os
from pathlib import Path

import pytest

from ncdiffop.algebra import Algebra
from ncdiffop.linalg import Mat
from ncdiffop.scalars import sc
from oracles import bimodule_from_blocks

# pytest puts src/ on sys.path (pyproject's `pythonpath`); tests that start
# `python -m ncdiffop.cli` in a subprocess need it on PYTHONPATH as well
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def two_point_algebra():
    # functions on a 2-point set: orthogonal idempotents p1, p2
    mul = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    return Algebra(2, mul, unit=[1, 1], star=Mat.identity(2), basis_names=["p1", "p2"])


@pytest.fixture
def two_point_omega(two_point_algebra):
    # universal 1-forms: basis w12 = p1 (x) p2, w21 = p2 (x) p1
    left = [Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 0], [0, 1]])]
    right = [Mat.from_rows([[0, 0], [0, 1]]), Mat.from_rows([[1, 0], [0, 0]])]
    return bimodule_from_blocks(two_point_algebra, 2, left, right, "omega1")


@pytest.fixture
def two_point_d():
    # d p1 = w21 - w12, d p2 = w12 - w21
    return Mat.from_rows([[-1, 1], [1, -1]])


@pytest.fixture
def two_point_dual_basis(two_point_algebra):
    forms = [[1, 0], [0, 1]]
    functionals = [
        Mat.from_rows([[0, 0], [1, 0]]),  # v1: w12 -> p2, w21 -> 0
        Mat.from_rows([[0, 1], [0, 0]]),  # v2: w12 -> 0,  w21 -> p1
    ]
    return forms, functionals


@pytest.fixture
def two_point_box_sigma():
    # right connection on the universal calculus, solved from the Leibniz pair:
    # box(w12) = -q1 + 3 q2, box(w21) = 2 q1 - q2 with q1 = [w12 (x) w21],
    # q2 = [w21 (x) w12]; sigma-inverse = diag(2, 3) on (q1, q2).
    box_plain = Mat.from_rows(
        [
            [0, 0],
            [-1, 2],
            [3, -1],
            [0, 0],
        ]
    )
    sigma_inv_plain = Mat.from_rows(
        [
            [0, 0, 0, 0],
            [0, 2, 0, 0],
            [0, 0, 3, 0],
            [0, 0, 0, 0],
        ]
    )
    return box_plain, sigma_inv_plain


@pytest.fixture
def two_point_geometry(two_point_algebra, two_point_omega, two_point_d, two_point_dual_basis, two_point_box_sigma):
    from ncdiffop.geometry import Geometry

    forms, functionals = two_point_dual_basis
    box_plain, sigma_inv_plain = two_point_box_sigma
    return Geometry(
        two_point_algebra,
        two_point_omega,
        two_point_d,
        [[sc(x) for x in f] for f in forms],
        functionals,
        box_plain,
        sigma_inv_plain,
        name="two-point-universal",
    )


@pytest.fixture
def two_point_omega_connection():
    # left bimodule connection on the 1-forms: nabla(w12) = -q1/2 + q2,
    # nabla(w21) = q1 - 5 q2, sigma = diag(1/2, 5)
    from fractions import Fraction

    nabla_plain = Mat.from_rows(
        [
            [0, 0],
            [Fraction(-1, 2), 1],
            [1, -5],
            [0, 0],
        ]
    )
    sigma_plain = Mat.from_rows(
        [
            [0, 0, 0, 0],
            [0, Fraction(1, 2), 0, 0],
            [0, 0, 5, 0],
            [0, 0, 0, 0],
        ]
    )
    return nabla_plain, sigma_plain


@pytest.fixture
def z3_group_algebra():
    # group algebra of the cyclic group of order 3 (convolution product)
    mul = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            mul[i][j][(i + j) % 3] = 1
    # star: g -> g^{-1}
    star = Mat.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    return Algebra(3, mul, unit=[1, 0, 0], star=star, basis_names=["g0", "g1", "g2"])
