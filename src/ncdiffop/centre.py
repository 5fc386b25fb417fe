"""A generic centre-of-monoidal-category verifier.

A candidate is an object X with a crossing family phi_E for every test object
E.  The axiom schedule lives here; the category-specific linear algebra lives
in adapters (one for modules over the operator algebra's base, one for Hopf
module categories), so the two verification paths stay independent.  Both
adapters state each axiom as one identity between sparse action matrices and
report, when it fails, the first basis tuple where it does as its witness; on
group-algebra modules the centre is the classical Drinfeld centre of H-mod.
"""

from __future__ import annotations

from typing import Protocol

from .report import CheckResult


class CentreCandidate(Protocol):
    name: str

    def object_names(self) -> list[str]: ...

    def check_unit(self) -> CheckResult: ...

    def check_morphism(self, obj: str) -> CheckResult: ...

    def check_tensor_compat(self, a: str, b: str) -> CheckResult: ...

    def check_inverse(self, obj: str) -> CheckResult: ...

    def check_product_morphism(self) -> CheckResult: ...

    def check_algebra_in_centre(self, obj: str) -> CheckResult: ...

    def check_naturality(self) -> list[CheckResult]: ...

    def extra_checks(self) -> list[CheckResult]: ...


def verify_centre(candidate: CentreCandidate) -> list[CheckResult]:
    """Run every centre axiom for the candidate over its declared test objects."""
    results: list[CheckResult] = []
    objects = candidate.object_names()
    results.append(candidate.check_unit())
    for obj in objects:
        results.append(candidate.check_morphism(obj))
    for a in objects:
        for b in objects:
            results.append(candidate.check_tensor_compat(a, b))
    for obj in objects:
        results.append(candidate.check_inverse(obj))
    results.append(candidate.check_product_morphism())
    for obj in objects:
        results.append(candidate.check_algebra_in_centre(obj))
    results.extend(candidate.check_naturality())
    results.extend(candidate.extra_checks())
    return results
