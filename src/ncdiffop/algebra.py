"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis, its product as one sparse matrix ``mul: Kron(A, A) -> A``
(column ``i*dim + j`` holds the coordinates of ``a_i a_j``), a unit vector, and
optionally a conjugate-linear star involution, held as the matrix whose column
``i`` is ``a_i*``.  States are positive unital functionals; the positivity is
certified exactly through the star Gram matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .linalg import Graded, Mat, first_mismatch, ldl_certify_psd
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
        """``mul[i][j]`` lists the coordinates of ``a_i a_j``."""
        self.dim = dim
        self.mul = Mat.from_cols([cell for row in mul for cell in row], dim)
        self.unit = [sc(x) for x in unit]
        self.one = Mat.from_cols([self.unit], dim)  # the unit as a map from the ground field
        self.star = star
        self.basis_names = basis_names or [f"a{i}" for i in range(dim)]

    def validate(self) -> list[CheckResult]:
        """Run all algebra invariants; the report lists every failed triple."""
        results = []
        d = self.dim
        mul, one, I = self.mul, self.one, Mat.identity(d)
        # column (i*d + j)*d + k compares (a_i a_j) a_k with a_i (a_j a_k)
        defect = mul.mul_ikron(1, mul, d) - mul.mul_ikron(d, mul, 1)
        assoc_failures = [(c // (d * d), c // d % d, c % d) for c, col in enumerate(defect.cols_sparse()) if col]
        results.append(
            CheckResult(
                "associativity",
                not assoc_failures,
                witness=assoc_failures[0] if assoc_failures else None,
                detail=f"{len(assoc_failures)} failing triples: {assoc_failures}" if assoc_failures else "",
            )
        )
        # u a_i = a_i (key 0) and a_i u = a_i (key 1): the witness is the first failing i
        units = Graded({0: mul.mul_ikron(1, one, d), 1: mul.mul_ikron(d, one, 1)})
        unit_fail = units.first_mismatch(Graded({0: I, 1: I}), (d,))
        results.append(CheckResult("unit-laws", unit_fail is None, witness=None if unit_fail is None else unit_fail[0]))
        if self.star is not None:
            star2 = self.star @ self.star.conj()
            results.append(CheckResult("star-involution", star2 == I))
            # column i*d + j compares (a_i a_j)* with a_j* a_i*
            anti_fail = first_mismatch(self.star @ mul.conj(), mul @ self.star.kron(self.star) @ Mat.swap(d, d), (d, d))
            results.append(CheckResult("star-antimultiplicative", anti_fail is None, witness=anti_fail))
            results.append(CheckResult("star-fixes-unit", self.star @ one.conj() == one))
        return results


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

    def gram_of(self, table: Mat, d: int) -> Mat:
        """The d x d matrix whose entry (i, j) is phi of column i*d + j of an A-valued
        table on Kron(d, d): ``phi @ table``, regrouped."""
        flat = Mat.from_rows([self.functional], table.rows) @ table
        return Mat.from_entries(d, d, ((c // d, c % d, v) for c, col in enumerate(flat.cols_sparse()) for _, v in col))

    def gram(self, algebra: Algebra) -> Mat:
        """The matrix phi(a_i* a_j): the state on the table mul @ (star (x) id) on Kron(A, A)."""
        return self.gram_of(algebra.mul.mul_ikron(1, algebra.star, algebra.dim), algebra.dim)

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
