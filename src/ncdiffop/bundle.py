"""Bundle files: the serialized geometric input.

A bundle is a UTF-8 JSON document carrying structure constants for the
algebra, the 1-form bimodule, the differential, a dual basis, the right
connection with its generalised braiding (as plain-tensor representatives),
declared module connections, inner products and states.  Scalars are strings
like ``"3/2"`` or ``"1/2-1/3i"``; nothing is ever a float.

Loading validates every invariant before any computation and either returns a
fully assembled :class:`Bundle` or raises a named :class:`ValidationError`
with a machine-replayable witness.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from . import builtin_data
from .algebra import Algebra, State
from .bimodule import Bimodule
from .calculus import ConnectionModule, omega_module, trivial_module, vec_module
from .crossing import Crossings
from .diffop import BulletTable
from .geometry import Geometry
from .linalg import Mat
from .memo import memo
from .report import ValidationError
from .scalars import Scalar, ScalarParseError, sc
from .sobolev import InnerProduct, canonical_algebra_ip

FORMAT = "ncdiffop-bundle/1"
REQUIRED_KEYS = ("algebra", "omega", "d", "dual_basis", "box", "sigma_inv")
REQUIRED_NESTED_KEYS = {
    "algebra": ("basis", "mul", "unit"),
    "omega": ("basis", "left", "right"),
    "dual_basis": ("forms", "functionals"),
}
MODULE_KEYS = ("nabla", "sigma")
HEADER_DEFAULTS = {"name": "bundle", "field": "Q", "truncation_degree": 3, "notes": ""}


class ParseError(ValueError):
    pass


def _list(x, what: str, n: int | None = None) -> list:
    """A JSON array (of n entries, if given), or a ParseError naming the key."""
    if not isinstance(x, list):
        raise ParseError(f"{what}: expected a list, got {type(x).__name__}")
    if n is not None and len(x) != n:
        raise ParseError(f"{what}: expected {n} entries, got {len(x)}")
    return x


class _Literals(dict):
    """The scalar literals of one document, each parsed once: text -> value.

    A document repeats a handful of literals thousands of times (z3 holds
    3,459 literals with four distinct values), so each load keeps one of
    these and reads every scalar through it.
    """

    def __missing__(self, text: str) -> Scalar:
        value = self[text] = Scalar.from_str(text)
        return value

    def scalars(self, x, n: int, what: str) -> list:
        try:
            # only text is memoised: 1, 1.0 and True are equal keys, and 1.0 must still fail in sc
            return [self[v] if type(v) is str else _number(v) for v in _list(x, what, n)]
        except (ScalarParseError, TypeError) as err:
            raise ParseError(f"{what}: {err}") from None

    def mat(self, rows, nrows: int, ncols: int, what: str) -> Mat:
        rows = _list(rows, what, nrows)
        return Mat.from_rows([self.scalars(row, ncols, f"{what}: row {r}") for r, row in enumerate(rows)], ncols)


def _number(v) -> Scalar:
    """A JSON number where a scalar belongs: an integer is read as itself, a float
    fails in sc, and a boolean, which sc would read as 1 or 0, fails here."""
    if type(v) is bool:
        raise TypeError("a boolean is not a scalar")
    return sc(v)


class Bundle:
    def __init__(
        self,
        name: str,
        field: str,
        truncation: int,
        algebra: Algebra,
        geometry: Geometry,
        modules: dict[str, ConnectionModule],
        inner_products: dict[str, InnerProduct],
        states: dict[str, State],
        document: dict,
    ):
        self.name = name
        self.field = field
        self.truncation = truncation
        self.algebra = algebra
        self.geometry = geometry
        self.modules = modules
        self.inner_products = inner_products
        self.states = states
        self.document = document  # as given to the loader, which has checked its shape

    @memo
    def digest(self) -> str:
        """sha256 of the canonical document, once per loaded bundle: its inputs never change."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()

    def to_dict(self) -> dict:
        """The normal form of the document this bundle was loaded from, built afresh on
        each call, which ``digest`` hashes: each scalar as ``str`` of the value the loader
        reads from it, the header defaults and each module's ``space`` filled in, the keys
        the format does not define dropped, and ``inner_products.A`` as declared,
        ``"canonical"`` or a table.  Two documents get one normal form only if they load
        to the same data."""
        texts = {}  # literal -> str of its value, each distinct literal parsed once

        def out(x):  # a scalar, or nested lists of scalars
            if type(x) is list:
                return [out(y) for y in x]
            if type(x) is str:
                return texts[x] if x in texts else texts.setdefault(x, str(Scalar.from_str(x)))
            return str(_number(x))

        doc = self.document
        alg, om, db = doc["algebra"], doc["omega"], doc["dual_basis"]
        algebra = {"basis": list(alg["basis"]), "mul": out(alg["mul"]), "unit": out(alg["unit"])}
        if "star" in alg:
            algebra["star"] = out(alg["star"])
        return {
            "format": FORMAT,
            **{key: doc.get(key, default) for key, default in HEADER_DEFAULTS.items()},
            "algebra": algebra,
            "omega": {"basis": list(om["basis"]), "left": out(om["left"]), "right": out(om["right"])},
            "d": out(doc["d"]),
            "dual_basis": {"forms": out(db["forms"]), "functionals": out(db["functionals"])},
            "box": out(doc["box"]),
            "sigma_inv": out(doc["sigma_inv"]),
            "modules": {
                mname: {"space": "omega", "nabla": out(decl["nabla"]), "sigma": out(decl["sigma"])}
                for mname, decl in doc.get("modules", {}).items()
            },
            "inner_products": {
                iname: spec if spec == "canonical" else out(spec)
                for iname, spec in doc.get("inner_products", {}).items()
            },
            "states": {sname: out(coords) for sname, coords in doc.get("states", {}).items()},
        }

    def module_names(self) -> list[str]:
        return sorted(self.modules)

    @memo
    def form_pairing(self) -> InnerProduct | None:
        """The pairing on Omega^1: the zero pairing when Omega^1 is 0-dimensional,
        otherwise the declared ``omega1`` inner product, or None if there is none.
        One object per loaded bundle, so its W(n) tables are built once."""
        if not self.geometry.omega.dim:
            return InnerProduct(self.geometry.omega, Mat(self.algebra.dim, 0), "ip-omega-zero")
        return self.inner_products.get("omega1")

    @memo
    def crossings(self) -> Crossings:
        """The bullet table and the crossings over the modules with a braiding (A
        among them), built once per loaded bundle and shared by every verification run."""
        modules = {name: m for name, m in self.modules.items() if m.has_sigma}
        return Crossings(BulletTable(self.geometry), modules)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def load_bundle_dict(doc: dict, validate: bool = True) -> Bundle:
    """Parse a document and, if ``validate``, check every load-time invariant.  The bundle
    keeps the document it was given, and its digest and ``to_dict`` read it later, so the
    caller must not change the document after loading it."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} document")
    missing = _missing_keys(doc)
    if missing:
        raise ParseError(f"missing required key(s): {', '.join(missing)}")
    name, field, truncation = (doc.get(key, HEADER_DEFAULTS[key]) for key in ("name", "field", "truncation_degree"))
    if field not in ("Q", "Q(i)"):
        raise ParseError(f"unknown field {field!r}")
    if type(truncation) is not int or truncation < 0:
        raise ParseError(f"truncation_degree: expected a non-negative integer, got {truncation!r}")
    literals = _Literals()

    alg = doc["algebra"]
    names = _list(alg["basis"], "algebra.basis")
    dA = len(names)
    mul = [
        [
            literals.scalars(x, dA, f"algebra.mul[{i}][{j}]")
            for j, x in enumerate(_list(row, f"algebra.mul[{i}]", dA))
        ]
        for i, row in enumerate(_list(alg["mul"], "algebra.mul", dA))
    ]
    unit = literals.scalars(alg["unit"], dA, "algebra.unit")
    star = literals.mat(alg["star"], dA, dA, "star") if "star" in alg else None
    algebra = Algebra(dA, mul, unit, star=star, basis_names=names)
    if field == "Q":
        _reject_imaginary(doc, literals)

    om = doc["omega"]
    dO = len(_list(om["basis"], "omega.basis"))
    left, right = (
        [literals.mat(m, dO, dO, f"omega.{side}[{i}]") for i, m in enumerate(_list(om[side], f"omega.{side}"))]
        for side in ("left", "right")
    )
    if len(left) != dA or len(right) != dA:
        raise ParseError("omega actions must list one matrix per algebra basis element")
    lcols = [col for m in left for col in m.cols_sparse()]  # column i*dO + j: a_i . xi_j
    rcols = [m.cols_sparse()[j] for j in range(dO) for m in right]  # column j*dA + i: xi_j . a_i
    omega = Bimodule(algebra, dO, Mat(dO, dA * dO, lcols), Mat(dO, dO * dA, rcols), "omega1")

    d = literals.mat(doc["d"], dO, dA, "d")
    db = doc["dual_basis"]
    forms = [
        literals.scalars(f, dO, f"dual_basis.forms[{i}]") for i, f in enumerate(_list(db["forms"], "dual_basis.forms"))
    ]
    functionals = [
        literals.mat(m, dA, dO, f"functional[{i}]")
        for i, m in enumerate(_list(db["functionals"], "dual_basis.functionals"))
    ]
    if len(forms) != len(functionals):
        raise ParseError(f"dual_basis: {len(forms)} forms but {len(functionals)} functionals")
    box = literals.mat(doc["box"], dO * dO, dO, "box")
    sigma_inv = literals.mat(doc["sigma_inv"], dO * dO, dO * dO, "sigma_inv")
    geometry = Geometry(algebra, omega, d, forms, functionals, box, sigma_inv, name=name, validate=validate)

    states: dict[str, State] = {}
    for sname, coords in sorted(_object(doc, "states").items()):
        state = State(literals.scalars(coords, dA, f"states.{sname}"), sname)
        if algebra.star is not None:  # also when not validating: the certificate decides state.faithful
            report = {r.name: r for r in state.validate(algebra)}
            for check in ("state-unital", "state-hermitian", "state-positive"):
                if validate and check in report and not report[check].ok:
                    raise ValidationError(check, witness=(sname, report[check].witness))
        states[sname] = state

    modules: dict[str, ConnectionModule] = {
        # through Omega1 (x)_A A = Omega1 both Leibniz rules of A are d(ab) = da.b + a.db, which a
        # validating Geometry has checked, so A does not check them again
        "A": trivial_module(geometry, "A", validate=False),
        # a validating Geometry has checked this Leibniz pair: (box_vec, sigma_vec) on OV1 and VO1,
        # the very pairs that are vec's OE and EO, so vec does not check it again
        "vec": vec_module(geometry, "vec", validate=False),
    }
    for mname, decl in sorted(_object(doc, "modules").items()):
        space = decl.get("space", "omega")
        if space != "omega":
            raise ParseError(f"module {mname}: only the 1-form space can be declared externally")
        nabla = literals.mat(decl["nabla"], dO * dO, dO, f"{mname}.nabla")
        sigma = literals.mat(decl["sigma"], dO * dO, dO * dO, f"{mname}.sigma")
        modules[mname] = omega_module(geometry, nabla, sigma, mname, validate=validate)

    inner_products: dict[str, InnerProduct] = {}
    state_list = list(states.values())
    specs = _object(doc, "inner_products")
    if specs and algebra.star is None:
        raise ParseError(f"inner_products: {', '.join(sorted(specs))} need algebra.star")
    for iname, spec in sorted(specs.items()):
        if iname == "A" and spec == "canonical":
            ip = canonical_algebra_ip(algebra, modules["A"].space)
        else:
            target = modules.get(iname)
            if target is None:
                raise ParseError(f"inner product for undeclared module {iname!r}")
            dim = target.space.dim
            what = f"inner_products.{iname}"
            cells = [
                literals.scalars(cell, dA, f"{what}[{i}][{j}]")
                for i, row in enumerate(_list(spec, what, dim))
                for j, cell in enumerate(_list(row, what, dim))
            ]
            ip = InnerProduct(target.space, Mat.from_cols(cells, dA), f"ip-{iname}")
        if validate:
            for r in ip.validate(geometry, state_list):
                if not r.ok:
                    raise ValidationError(r.name, witness=r.witness)
        inner_products[iname] = ip

    return Bundle(
        name=name,
        field=field,
        truncation=truncation,
        algebra=algebra,
        geometry=geometry,
        modules=modules,
        inner_products=inner_products,
        states=states,
        document=doc,
    )


def _object(doc: dict, key: str) -> dict:
    """An optional JSON object, or a ParseError naming the key that holds something else."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ParseError(f"{key}: expected an object, got {type(value).__name__}")
    return value


def _missing_keys(doc: dict) -> list[str]:
    """Dotted names of the required keys absent from a bundle document."""
    missing = [key for key in REQUIRED_KEYS if key not in doc]
    for key, subkeys in REQUIRED_NESTED_KEYS.items():
        if key in doc:
            sub = doc[key] if isinstance(doc[key], dict) else {}
            missing += [f"{key}.{k}" for k in subkeys if k not in sub]
    modules = doc.get("modules", {})
    for mname, decl in sorted(modules.items() if isinstance(modules, dict) else ()):
        decl = decl if isinstance(decl, dict) else {}
        missing += [f"modules.{mname}.{k}" for k in MODULE_KEYS if k not in decl]
    return missing


# the end of a literal that ends in i (before any trailing space) in text joined by "\0"; a "\0" inside a
# literal may match too, so a match is settled literal by literal
_IMAGINARY_TAIL = re.compile(r"[iI]\s*(?:\0|\Z)")


def _reject_imaginary(doc, literals: _Literals):
    """Raise a ParseError at the first literal, in document order, that is not real.
    A list of text is searched as one joined string, not called on literal by literal."""

    def walk(x):
        if isinstance(x, dict):
            x = list(x.values())
        elif isinstance(x, str):
            x = [x]
        elif not isinstance(x, list):
            return
        try:
            joined = "\0".join(x)
        except TypeError:  # not all text
            for y in x:
                walk(y)
            return
        if not _IMAGINARY_TAIL.search(joined):
            return  # only a literal ending in i can parse to a non-real scalar
        for text in x:
            if text.rstrip().endswith(("i", "I")):
                try:
                    val = literals[text]
                except ScalarParseError:
                    continue
                if not val.is_real():
                    raise ParseError(f"field Q cannot carry the scalar {text!r}")

    for key in ("algebra", "omega", "d", "dual_basis", "box", "sigma_inv", "modules", "inner_products", "states"):
        if key in doc:
            value = doc[key]
            if key in ("algebra", "omega") and isinstance(value, dict):
                value = {k: v for k, v in value.items() if k != "basis"}  # basis names, not scalars
            walk(value)


def load_bundle(path, validate: bool = True) -> Bundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text ({err.reason} at byte {err.start})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from None
    return load_bundle_dict(doc, validate=validate)


BUILTIN_NAMES = ("two-point-universal", "z3-function-calculus", "zero-form-smoke")


def builtin_bundle_dict(name: str) -> dict:
    """A fresh document of a built-in bundle, from its generator in ``builtin_data``."""
    if name not in BUILTIN_NAMES:
        raise ParseError(f"unknown builtin bundle {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return getattr(builtin_data, name.replace("-", "_"))()


def load_builtin(name: str, validate: bool = True) -> Bundle:
    return load_bundle_dict(builtin_bundle_dict(name), validate=validate)


def resolve_bundle(spec: str, validate: bool = True) -> Bundle:
    """Accept either a path to a JSON file or a builtin bundle name."""
    if spec in BUILTIN_NAMES:
        return load_builtin(spec, validate=validate)
    return load_bundle(spec, validate=validate)
