"""Check results shared by validators and verification suites.

Every failed check carries a machine-replayable witness: basis indices plus
the coordinate data needed to re-evaluate the violated identity.

A load-time invariant is a function that returns its first failure,
``(name, witness)``, or None.  Only constructors turn a failure into a
:class:`ValidationError`, through :func:`raise_failure`; a verification suite
reads the same function's value and raises nothing.
"""

from __future__ import annotations

from .scalars import Scalar


class CheckResult:
    def __init__(self, name: str, ok: bool, witness=None, detail: str = ""):
        self.name = name
        self.ok = ok
        self.witness = witness
        self.detail = detail

    def __bool__(self):
        return self.ok

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        extra = f" witness={self.witness}" if self.witness is not None else ""
        return f"<{self.name}: {status}{extra}>"

    def as_dict(self):
        d = {"name": self.name, "ok": self.ok}
        if self.detail:
            d["detail"] = self.detail
        if self.witness is not None:
            d["witness"] = _jsonable(self.witness)
        return d


def _jsonable(obj):
    if isinstance(obj, Scalar):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return obj


class ValidationError(ValueError):
    """A named invariant failed during construction, with a concrete witness."""

    def __init__(self, name: str, witness=None, detail: str = ""):
        self.name = name
        self.witness = witness
        self.detail = detail
        msg = f"validation failed: {name}"
        if detail:
            msg += f" ({detail})"
        if witness is not None:
            msg += f" witness={witness}"
        super().__init__(msg)


def first_failure(checks: dict):
    """The ``(name, witness)`` of the check that fails at the earliest witness,
    or None if none fails.

    ``checks`` maps check names to the witness of their first failure (or
    None), for checks that one loop over basis tuples used to run in turn at
    each tuple: the smallest witness wins, and on a tie the check listed first.
    """
    fails = [(witness, k, name) for k, (name, witness) in enumerate(checks.items()) if witness is not None]
    if not fails:
        return None
    witness, _, name = min(fails)
    return name, witness


def first_not_ok(results):
    """The ``(name, witness)`` of the first failed :class:`CheckResult` in ``results``, or None."""
    return next(((r.name, r.witness) for r in results if not r.ok), None)


def raise_failure(fail) -> None:
    """Raise the :class:`ValidationError` of a ``(name, witness)`` failure; None passes."""
    if fail is not None:
        raise ValidationError(*fail)
