"""Parser for operator expressions: sums of tensor words in the named basis
vector fields with rational coefficients.

Grammar (whitespace ignored)::

    expr  := sign* term (sign+ term)*
    sign  := '+' | '-'
    term  := coeff [['*'] word] | word
    word  := name ('@' name)*
    name  := v1 | v2 | ... (the derived vector-field basis)
    coeff := rational literal like 3, -1/2

``1`` (or any bare coefficient) denotes a multiple of the unit operator.
Anything else, such as two terms with no sign between them or an operator
where a term or a name belongs, is an ``ExprError``.
"""

from __future__ import annotations

import re

from .diffop import GradedOperator
from .geometry import Geometry
from .linalg import Mat
from .scalars import ONE, Scalar, ScalarParseError, sc


class UnknownName(ValueError):
    pass


class DegreeExceeded(ValueError):
    pass


class ExprError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[@+*-]))")


def tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def field_basis_names(geometry: Geometry) -> list[str]:
    return [f"v{i + 1}" for i in range(geometry.vec.dim)]


def parse_operator(geometry: Geometry, text: str, truncation: int) -> GradedOperator:
    names = {n: i for i, n in enumerate(field_basis_names(geometry))}
    tokens = tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    result = GradedOperator(geometry, {}, truncation)
    i = 0

    def at(kind: str, val=None) -> bool:
        return i < len(tokens) and tokens[i][0] == kind and (val is None or tokens[i][1] in val)

    def field() -> int:
        nonlocal i
        if not at("name"):
            raise ExprError(f"expected a vector field after {tokens[i - 1][1]!r}")
        name = tokens[i][1]
        if name not in names:
            raise UnknownName(f"unknown vector field {name!r}; basis is {sorted(names)}")
        i += 1
        return names[name]

    while True:
        # one signed term: signs, then coeff ['*' word] | word
        sign = ONE
        while at("op", "+-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if not at("num") and not at("name"):
            found = repr(tokens[i][1]) if i < len(tokens) else "the end"
            raise ExprError(f"expected a term, found {found}")
        coeff = ONE
        word: list[int] = []
        if at("num"):
            try:
                coeff = sc(tokens[i][1])
            except ScalarParseError as err:
                raise ExprError(str(err)) from None
            i += 1
            if at("op", "*"):
                i += 1
                word.append(field())
            elif at("name"):
                word.append(field())
        else:
            word.append(field())
        if word:
            while at("op", "@"):
                i += 1
                word.append(field())
        degree = len(word)
        if degree > truncation:
            raise DegreeExceeded(f"word of degree {degree} exceeds truncation {truncation}")
        if degree == 0:
            col = Mat.from_cols([geometry.algebra.unit])
        else:
            dvec = geometry.vec.dim
            col = Mat(dvec, 1, [[(word[-1], ONE)]])
            for deg, idx in enumerate(reversed(word[:-1]), start=1):
                col = geometry.merge_vec(1, deg) @ Mat(dvec, 1, [[(idx, ONE)]]).kron(col)
        result = result + GradedOperator(geometry, {degree: col.scale(coeff * sign)}, truncation)
        if i == len(tokens):
            return result
        if not at("op", "+-"):
            raise ExprError(f"expected '+' or '-' before {tokens[i][1]!r}")


def parse_element(dim: int, text: str) -> list[Scalar]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise ExprError(f"element needs {dim} coordinates, got {len(parts)}")
    try:
        return [sc(p) for p in parts]
    except ScalarParseError as err:
        raise ExprError(str(err)) from None
