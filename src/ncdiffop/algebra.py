"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis, a structure tensor ``mul[i][j]`` giving the coordinates
of the product of basis elements, a unit vector, and optionally a
conjugate-linear star involution.  States are positive unital functionals; the
positivity is certified exactly through the star Gram matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .linalg import Mat, ldl_certify_psd
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

    def validate(self) -> list[CheckResult]:
        """Run all algebra invariants; the report lists every failed triple."""
        results = []
        d = self.dim
        assoc_failures = []
        for i in range(d):
            for j in range(d):
                ij = self.mul_tensor[i][j]
                for k in range(d):
                    lhs = self.mul(ij, unit_row(d, k))
                    rhs = self.mul(unit_row(d, i), self.mul_tensor[j][k])
                    if lhs != rhs:
                        assoc_failures.append((i, j, k))
        results.append(
            CheckResult(
                "associativity",
                not assoc_failures,
                witness=assoc_failures[0] if assoc_failures else None,
                detail=f"{len(assoc_failures)} failing triples: {assoc_failures}" if assoc_failures else "",
            )
        )
        unit_fail = None
        for i in range(d):
            e = unit_row(d, i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                unit_fail = i
                break
        results.append(CheckResult("unit-laws", unit_fail is None, witness=unit_fail))
        if self.star is not None:
            star2 = self.star @ self.star.conj()
            results.append(CheckResult("star-involution", star2 == Mat.identity(d)))
            anti_fail = None
            for i in range(d):
                for j in range(d):
                    lhs = self.apply_star(self.mul(unit_row(d, i), unit_row(d, j)))
                    rhs = self.mul(self.apply_star(unit_row(d, j)), self.apply_star(unit_row(d, i)))
                    if lhs != rhs:
                        anti_fail = (i, j)
                        break
                if anti_fail:
                    break
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

    def is_valid(self, algebra: Algebra) -> bool:
        return all(r.ok for r in self.validate(algebra) if r.name != "state-faithful")
