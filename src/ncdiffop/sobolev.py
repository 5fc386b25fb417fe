"""Hermitian inner products on bimodules, tensor-product pairings, iterated
derivative pairings, and Sobolev Gram matrices with exact PSD certificates.

Every pairing is one sparse matrix Kron(E, conj E) -> A, column i*dim + j the
pairing of e_i with conj(e_j): a declared pairing, the one it induces on a
tensor product, and the iterated pairing <<e_i, conj(e_j)>>_n of each degree.
Positivity at finite dimension is certified on the scalar Gram matrices
obtained by pushing such a matrix through a state (``State.gram_of``); no
square roots or completions are ever needed.
"""

from __future__ import annotations

from typing import Optional

from .algebra import Algebra, State
from .bimodule import BimoduleMap, BimoduleMapError, Bimodule, TensorPair, algebra_as_bimodule, conjugate_bimodule
from .calculus import ConnectionModule
from .linalg import Mat, first_mismatch, ldl_certify_psd
from .memo import memo
from .report import CheckResult, ValidationError
from .scalars import ZERO


class PositivityFailure(ValidationError):
    pass


class InnerProduct:
    """An algebra-valued sesquilinear pairing on a bimodule E: one matrix
    ``matrix: Kron(E, conj E) -> A`` whose column i*dim + j holds the algebra
    coordinates of <e_i, conj(e_j)>.  The pairing is linear in the first
    argument and conjugate-linear in the second: <x, conj(y)> is
    ``matrix @ (x (x) conj(y))`` on coordinate columns.

    A pairing on the 1-forms keeps, for ``forms_power(geometry, n)``, the
    pairing it induces on W(n), so the tables live and die with the bundle that
    holds it.  Every ``SobolevPairings`` over one form pairing shares these W(n)
    tables; the pairings on W(n) (x) E stay with each ``SobolevPairings``.
    """

    def __init__(self, module: Bimodule, matrix: Mat, name: str = "ip"):
        dA, d = module.algebra.dim, module.dim
        if (matrix.rows, matrix.cols) != (dA, d * d):
            raise ValueError(f"{name}: the pairing matrix is {matrix.rows}x{matrix.cols}, not {dA}x{d * d}")
        self.module = module
        self.algebra = module.algebra
        self.matrix = matrix
        self.name = name

    @memo
    def conjugate_module(self) -> Bimodule:
        """conj E, one object per pairing, so that ``geometry.pair`` finds E (x)_A conj E
        by identity on every validation after the first."""
        return conjugate_bimodule(self.module)

    @memo
    def forms_power(self, geometry, n: int) -> "InnerProduct":
        """The pairing on W(n) that this pairing on the 1-forms of ``geometry``
        induces, W(n) = W(n-1) (x)_A Omega^1; W(1) is this pairing itself."""
        if n == 1:
            return self
        return tensor_inner_product(self.forms_power(geometry, n - 1), self, geometry.pair_W(n), f"ip-W{n}")

    def validate(self, geometry, states: Optional[list[State]] = None) -> list[CheckResult]:
        """Symmetry, the pairing as a bimodule map E (x)_A conj E -> A, and positivity in
        each state.  The quotient E (x)_A conj E is ``geometry.pair``'s, so it is built once
        per content and shared by every later validation."""
        results = []
        A, E = self.algebra, self.module
        plain = self.matrix
        # <e_i, conj(e_j)> = <e_j, conj(e_i)>*, row-major: the witness is the first failing (i, j)
        sym_fail = first_mismatch(plain, A.star @ plain.conj() @ Mat.swap(E.dim, E.dim), (E.dim, E.dim))
        results.append(CheckResult(f"{self.name}:symmetry", sym_fail is None, witness=sym_fail))

        pair = geometry.pair(E, self.conjugate_module())
        try:
            mat = pair.induce(plain, f"{self.name}-pairing", pair.space.name)
            BimoduleMap(pair.space, algebra_as_bimodule(A), mat, f"{self.name}-pairing")
            results.append(CheckResult(f"{self.name}:bimodule-map", True))
        except (ValidationError, BimoduleMapError) as err:
            results.append(CheckResult(f"{self.name}:bimodule-map", False, detail=str(err)))

        for state in states or []:
            gram = state.gram_of(plain, E.dim)
            if gram != gram.conj_transpose():  # not Hermitian: neither certificate exists
                results.append(CheckResult(f"{self.name}:positive[{state.name}]", False))
                continue
            cert = ldl_certify_psd(gram)
            results.append(
                CheckResult(
                    f"{self.name}:positive[{state.name}]",
                    cert.is_psd,
                    witness=None if cert.is_psd else [str(x) for x in cert.vector],
                )
            )
        return results


def canonical_algebra_ip(algebra: Algebra, space: Optional[Bimodule] = None) -> InnerProduct:
    """<a, conj(b)> = a b* on the algebra itself: mul @ (id (x) star) on Kron(A, A)."""
    pairing = algebra.mul.mul_ikron(algebra.dim, algebra.star, 1)
    return InnerProduct(space or algebra_as_bimodule(algebra), pairing, "ip-A")


def tensor_inner_product(ip_e: InnerProduct, ip_f: InnerProduct, pair: TensorPair, name=None) -> InnerProduct:
    """<x (x) y, conj(x' (x) y')> = <x.<y, conj(y')>_F, conj(x')>_E on the quotient."""
    E, F = ip_e.module, ip_f.module
    if pair.e is not E or pair.f is not F:
        raise ValueError("tensor pair does not match the inner product factors")
    dim, dA = pair.dim, ip_e.algebra.dim
    right = E.right_action.cols_sparse()  # column i*dA + t is e_i . a_t
    pe, pf = ip_e.matrix.cols_sparse(), ip_f.matrix.cols_sparse()
    cols = []
    for a in range(dim):
        xa = pair.section.column(a)
        for b in range(dim):
            yb = pair.section.column(b)
            acc = [ZERO] * dA
            for p, c in enumerate(xa):
                if not c:
                    continue
                i, j = divmod(p, F.dim)
                for q, c2 in enumerate(yb):
                    if not c2:
                        continue
                    k, l = divmod(q, F.dim)
                    moved = [ZERO] * E.dim  # e_i . <f_j, conj(f_l)>
                    for t, x in pf[j * F.dim + l]:
                        for m, v in right[i * dA + t]:
                            moved[m] = moved[m] + x * v
                    cc = c * c2.conj()
                    for m, cm in enumerate(moved):
                        if not cm:
                            continue
                        for t, v in pe[m * E.dim + k]:
                            acc[t] = acc[t] + cc * cm * v
            cols.append(acc)
    return InnerProduct(pair.space, Mat.from_cols(cols, dA), name or f"({ip_e.name}(x){ip_f.name})")


class SobolevPairings:
    """Iterated pairings <<e, conj(f)>>_n for a module with connection.

    The pairing on W(n) comes from the form pairing's own table
    (``InnerProduct.forms_power``), shared by every instance over that form
    pairing; the pairing on W(n) (x) E and the iterated pairings are built once
    per degree by ``@memo`` and kept on this instance."""

    def __init__(self, module: ConnectionModule, ip_omega: InnerProduct, ip_module: InnerProduct):
        self.module = module
        self.geometry = module.geometry
        if ip_omega.module is not self.geometry.omega:
            raise ValueError("ip_omega must live on the 1-forms")
        if ip_module.module is not module.space:
            raise ValueError("ip_module must live on the module")
        self.ip_omega = ip_omega
        self.ip_module = ip_module

    def ip_forms_power(self, n: int) -> InnerProduct:
        return self.ip_omega.forms_power(self.geometry, n)

    @memo
    def ip_derivative_target(self, n: int) -> InnerProduct:
        pair = self.geometry.pair(self.geometry.W(n), self.module.space)
        return tensor_inner_product(self.ip_forms_power(n), self.ip_module, pair, f"ip-W{n}E")

    @memo
    def iterated(self, n: int) -> Mat:
        """The table Kron(E, conj E) -> A whose column i*dim + j is <<e_i, conj(e_j)>>_n.

        It is <nabla^n e_i, conj(nabla^n e_j)> on W(n) (x) E, so the whole table
        is the pairing's matrix P times nabla^n (x) conj(nabla^n), applied one
        leg at a time and never formed: P (I (x) conj(nabla^n)) (nabla^n (x) I).
        At n = 0 it is the module pairing's own matrix."""
        if n == 0:
            return self.ip_module.matrix
        npow = self.module.nabla_pow(n)
        return self.ip_derivative_target(n).matrix.mul_ikron(npow.rows, npow.conj(), 1).mul_ikron(1, npow, npow.cols)


class SobolevGram:
    def __init__(self, module_name: str, state: State, order: int, matrix: Mat, certificate):
        self.module_name = module_name
        self.state = state
        self.order = order
        self.matrix = matrix
        self.certificate = certificate

    @property
    def is_positive(self) -> bool:
        return self.certificate.is_psd

    def strictly_positive(self) -> bool:
        return self.certificate.is_psd and self.certificate.strictly_positive()


def sobolev_gram(pairings: SobolevPairings, state: State, order: int) -> SobolevGram:
    """Gram matrix of the order-n Sobolev pairing, with an exact certificate."""
    d = pairings.module.space.dim
    gram = Mat.zeros(d, d)
    for m in range(order + 1):
        gram = gram + state.gram_of(pairings.iterated(m), d)
    cert = ldl_certify_psd(gram)
    if not cert.is_psd:
        raise PositivityFailure(
            "sobolev-positivity",
            witness=[str(x) for x in cert.vector],
            detail=f"order {order}, state {state.name}",
        )
    return SobolevGram(pairings.module.name, state, order, gram, cert)


def gram_increment_certificate(pairings: SobolevPairings, state: State, order: int):
    """Certificate that Gram(order) - Gram(order-1) is PSD (it is the order-n term)."""
    return ldl_certify_psd(state.gram_of(pairings.iterated(order), pairings.module.space.dim))
