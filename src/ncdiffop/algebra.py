"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis, a structure tensor ``mul[i][j]`` giving the coordinates
of the product of basis elements, a unit vector, and optionally a
conjugate-linear star involution.  States are positive unital functionals; the
positivity is certified exactly through the star Gram matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .linalg import Mat, first_mismatch, ldl_certify_psd
from .report import CheckResult
from .scalars import ONE, ZERO, Scalar, sc


class NoStar(ValueError):
    pass


class Algebra:
    def __init__(
        self,
        dim: int,
        mul: Sequence[Sequence[Sequence]],
        unit: Sequence,
        star: Optional[Mat] = None,
        basis_names: Optional[list[str]] = None,
    ):
        self.dim = dim
        self.mul_tensor = [[[sc(x) for x in mul[i][j]] for j in range(dim)] for i in range(dim)]
        self.unit = [sc(x) for x in unit]
        self.star = star
        self.basis_names = basis_names or [f"a{i}" for i in range(dim)]
        # left/right multiplication matrices per basis element
        self.left_mult = [
            Mat.from_rows([[self.mul_tensor[i][j][k] for j in range(dim)] for k in range(dim)], dim)
            for i in range(dim)
        ]
        self.right_mult = [
            Mat.from_rows([[self.mul_tensor[i][j][k] for i in range(dim)] for k in range(dim)], dim)
            for j in range(dim)
        ]

    def mul(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> list[Scalar]:
        """Bilinear extension of the structure tensor."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coordinate vectors must have the algebra dimension")
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            row = self.mul_tensor[i]
            for j, b in enumerate(y):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(row[j]):
                    if c:
                        out[k] = out[k] + ab * c
        return out

    def left_mult_matrix(self, x: Sequence[Scalar]) -> Mat:
        out = Mat.zeros(self.dim, self.dim)
        for i, a in enumerate(x):
            if a:
                out = out + self.left_mult[i].scale(a)
        return out

    def apply_star(self, x: Sequence[Scalar]) -> list[Scalar]:
        if self.star is None:
            raise NoStar("algebra has no star structure")
        return self.star.apply([a.conj() for a in x])

    def mul_mat(self) -> Mat:
        """The product as a matrix Kron(A, A) -> A: column i*dim + j is a_i a_j."""
        return Mat(self.dim, self.dim * self.dim, [col for m in self.left_mult for col in m.cols_sparse()])

    def validate(self) -> list[CheckResult]:
        """Run all algebra invariants; the report lists every failed triple."""
        results = []
        d = self.dim
        mul, I = self.mul_mat(), Mat.identity(d)
        # column (i*d + j)*d + k compares (a_i a_j) a_k with a_i (a_j a_k)
        defect = mul @ mul.kron(I) - mul @ I.kron(mul)
        assoc_failures = [(c // (d * d), c // d % d, c % d) for c, col in enumerate(defect.cols_sparse()) if col]
        results.append(
            CheckResult(
                "associativity",
                not assoc_failures,
                witness=assoc_failures[0] if assoc_failures else None,
                detail=f"{len(assoc_failures)} failing triples: {assoc_failures}" if assoc_failures else "",
            )
        )
        unit = Mat.from_cols([self.unit], d)
        # u a_i = a_i (key 0) and a_i u = a_i (key 1): the witness is the first failing i
        unit_fail = first_mismatch({0: mul @ unit.kron(I), 1: mul @ I.kron(unit)}, {0: I, 1: I}, (d,))
        results.append(CheckResult("unit-laws", unit_fail is None, witness=None if unit_fail is None else unit_fail[0]))
        if self.star is not None:
            star2 = self.star @ self.star.conj()
            results.append(CheckResult("star-involution", star2 == I))
            # column i*d + j compares (a_i a_j)* with a_j* a_i*
            anti_fail = first_mismatch(self.star @ mul.conj(), mul @ self.star.kron(self.star) @ Mat.swap(d, d), (d, d))
            results.append(CheckResult("star-antimultiplicative", anti_fail is None, witness=anti_fail))
            results.append(CheckResult("star-fixes-unit", self.apply_star(self.unit) == self.unit))
        return results


def unit_row(dim: int, i: int) -> list[Scalar]:
    v = [ZERO] * dim
    v[i] = ONE
    return v


class State:
    """A linear functional on a star algebra, intended to be positive and unital."""

    def __init__(self, functional: Sequence, name: str = "state"):
        self.functional = [sc(x) for x in functional]
        self.name = name
        self.faithful: Optional[bool] = None

    def __call__(self, a: Sequence[Scalar]) -> Scalar:
        acc = ZERO
        for c, x in zip(self.functional, a):
            if c and x:
                acc = acc + c * x
        return acc

    def gram(self, algebra: Algebra) -> Mat:
        d = algebra.dim
        stars = [algebra.apply_star(unit_row(d, i)) for i in range(d)]
        return Mat.from_rows([[self(algebra.mul(star_i, unit_row(d, j))) for j in range(d)] for star_i in stars], d)

    def validate(self, algebra: Algebra) -> list[CheckResult]:
        if algebra.star is None:
            raise NoStar("states need a star structure")
        results = []
        results.append(
            CheckResult("state-unital", self(algebra.unit) == ONE, witness=str(self(algebra.unit)))
        )
        gram = self.gram(algebra)
        hermitian = gram == gram.conj_transpose()
        results.append(CheckResult("state-hermitian", hermitian))
        if hermitian:
            cert = ldl_certify_psd(gram)
            if cert.is_psd:
                results.append(CheckResult("state-positive", True))
                self.faithful = cert.strictly_positive()
                results.append(
                    CheckResult("state-faithful", self.faithful, detail="informational", witness=None)
                )
            else:
                results.append(
                    CheckResult(
                        "state-positive",
                        False,
                        witness=[str(x) for x in cert.vector],
                        detail=f"quadratic form value {cert.value}",
                    )
                )
        return results
