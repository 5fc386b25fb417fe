"""Bundle round-trips, fault injection, CLI behaviour and determinism."""

import copy
from fractions import Fraction
import hashlib
import itertools
import json
from pathlib import Path
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdiffop import builtin_data, scalars
from ncdiffop.bundle import (
    BUILTIN_NAMES,
    ParseError,
    builtin_bundle_dict,
    canonical_json,
    load_builtin,
    load_bundle,
    load_builtin,
    load_bundle_dict,
)
from ncdiffop.cli import main
from ncdiffop.exprs import DegreeExceeded, ExprError, UnknownName, parse_operator
from ncdiffop.report import ValidationError
import bump_sweep
import oracles


@pytest.fixture(scope="module")
def two_point_doc():
    return builtin_data.two_point_universal()


def test_round_trip_digest_stable(two_point_doc):
    bundle = load_bundle_dict(two_point_doc)
    doc2 = bundle.to_dict()
    bundle2 = load_bundle_dict(doc2)
    assert bundle.digest() == bundle2.digest()
    assert canonical_json(bundle2.to_dict()) == canonical_json(doc2)


def test_load_from_path(tmp_path, two_point_doc):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(two_point_doc))
    bundle = load_bundle(path)
    assert bundle.name == "two-point-universal"


def test_parse_error_on_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_bundle(path)
    with pytest.raises(ParseError):
        load_bundle_dict({"format": "something-else"})


@pytest.mark.parametrize("keys", [("algebra",), ("d", "sigma_inv")])
def test_missing_required_keys_named(tmp_path, capsys, two_point_doc, keys):
    doc = {k: v for k, v in two_point_doc.items() if k not in keys}
    with pytest.raises(ParseError) as err:
        load_bundle_dict(doc)
    assert all(k in str(err.value) for k in keys)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "error: missing required key(s): " + ", ".join(keys) in capsys.readouterr().err


@pytest.mark.parametrize(
    "path,expected",
    [
        (("algebra",), ["algebra.basis", "algebra.mul", "algebra.unit"]),
        (("algebra", "unit"), ["algebra.unit"]),
        (("omega", "left"), ["omega.left"]),
        (("dual_basis",), ["dual_basis.forms", "dual_basis.functionals"]),
        (("dual_basis", "functionals"), ["dual_basis.functionals"]),
        (("modules", "omega1", "sigma"), ["modules.omega1.sigma"]),
    ],
    ids=["algebra-empty", "algebra.unit", "omega.left", "dual_basis-empty", "dual_basis.functionals", "module.sigma"],
)
def test_missing_nested_keys_named(tmp_path, capsys, two_point_doc, path, expected):
    doc = copy.deepcopy(two_point_doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if len(path) == 1:
        parent[path[0]] = {}
    else:
        del parent[path[-1]]
    with pytest.raises(ParseError) as err:
        load_bundle_dict(doc)
    assert str(err.value) == "missing required key(s): " + ", ".join(expected)
    file = tmp_path / "nested.json"
    file.write_text(json.dumps(doc))
    assert main(["validate", str(file)]) == 2
    captured = capsys.readouterr()
    assert "error: missing required key(s): " + ", ".join(expected) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "path,value,key",
    [
        (("algebra", "basis"), 5, "algebra.basis"),
        (("modules",), [1], "modules"),
        (("algebra", "unit"), "1", "algebra.unit"),
        (("truncation_degree",), "x", "truncation_degree"),
        # only a non-negative JSON integer is a degree; int() used to read these as -1, 3, 1, 10**9
        (("truncation_degree",), -1, "truncation_degree"),
        (("truncation_degree",), 3.7, "truncation_degree"),
        (("truncation_degree",), True, "truncation_degree"),
        (("truncation_degree",), 1e9, "truncation_degree"),
        # inner product cells are scalar lists of the algebra's dimension, like every other coordinate list
        (("inner_products", "omega1", 0, 0), ["x", "0"], "inner_products.omega1[0][0]"),
        (("inner_products", "omega1", 0, 0), ["1"], "inner_products.omega1[0][0]"),
        (("inner_products", "omega1", 0, 0), "10", "inner_products.omega1[0][0]"),
    ],
    ids=[
        "algebra.basis-int",
        "modules-list",
        "algebra.unit-string",
        "truncation_degree-string",
        "truncation_degree-negative",
        "truncation_degree-float",
        "truncation_degree-bool",
        "truncation_degree-1e9",
        "inner_product-cell-scalar",
        "inner_product-cell-length",
        "inner_product-cell-string",
    ],
)
def test_malformed_nested_values_named(tmp_path, capsys, two_point_doc, path, value, key):
    doc = copy.deepcopy(two_point_doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    with pytest.raises(ParseError) as err:
        load_bundle_dict(doc)
    assert str(err.value).startswith(f"{key}: ")
    file = tmp_path / "malformed.json"
    file.write_text(json.dumps(doc))
    assert main(["validate", str(file)]) == 2
    captured = capsys.readouterr()
    assert f"error: {key}: " in captured.err
    assert "Traceback" not in captured.err


def test_boolean_scalar_is_input_error(two_point_doc):
    # JSON integers are read as scalars, floats and booleans are not
    doc = copy.deepcopy(two_point_doc)
    doc["states"]["point1"] = [1, 0]
    assert load_bundle_dict(doc).to_dict()["states"]["point1"] == ["1", "0"]
    for bad, message in (([True, 0], "a boolean"), ([1, False], "a boolean"), ([1.0, 0], "inexact")):
        doc["states"]["point1"] = bad
        with pytest.raises(ParseError) as err:
            load_bundle_dict(doc)
        assert str(err.value).startswith(f"states.point1: {message}")


def test_cli_validate_boolean_scalar_is_input_error(tmp_path, capsys, two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["states"]["uniform"] = [True, 0]
    path = tmp_path / "boolean-scalar.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: states.uniform: a boolean is not a scalar" in captured.err
    assert "Traceback" not in captured.err


def test_cli_verify_negative_truncation_is_input_error(tmp_path, capsys, two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["truncation_degree"] = -1
    path = tmp_path / "negative-truncation.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: truncation_degree: expected a non-negative integer, got -1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("which", ["A", "omega1"], ids=["canonical", "explicit"])
def test_cli_validate_inner_product_without_star_is_input_error(tmp_path, capsys, two_point_doc, which):
    # an inner product pairs with a conjugate, which needs the star; no state needs it here
    doc = copy.deepcopy(two_point_doc)
    del doc["algebra"]["star"]
    doc["states"] = {}
    doc["inner_products"] = {which: two_point_doc["inner_products"][which]}
    path = tmp_path / "no-star.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: inner_products: {which} need algebra.star" in captured.err
    assert "Traceback" not in captured.err


def test_load_parses_each_distinct_literal_once(monkeypatch):
    doc = builtin_data.z3_function_calculus()
    literals = []

    def walk(x):
        if isinstance(x, str):
            try:
                scalars.sc(x)
            except scalars.ScalarParseError:
                return  # a name, such as "canonical"
            literals.append(x)
        elif isinstance(x, list):
            for y in x:
                walk(y)
        elif isinstance(x, dict):
            for k, y in x.items():
                if k != "basis":
                    walk(y)

    walk(doc)
    assert len(literals) > 3000 and sorted(set(literals)) == ["-1", "0", "1", "1/3"]
    calls = []
    parse_rat = scalars._parse_rat
    monkeypatch.setattr(scalars, "_parse_rat", lambda text: calls.append(text) or parse_rat(text))
    load_bundle_dict(doc)
    assert sorted(calls) == sorted(set(calls)) and len(calls) <= 4


# bundle.digest() of each built-in: the canonical serialization is read back from
# the loaded scalars, so a change to how literals are parsed would move these
PINNED_BUNDLE_DIGESTS = {
    "z3-function-calculus": "5dbf42fcd4b7fbaa271f82774776857021752a74ce39b76dd7b7815ea6de8d0b",
    "two-point-universal": "28e1ed3670c60188de5392508e42d600f399369e4b5a1e3a006fa01cd1c7bbca",
    "zero-form-smoke": "d0600a4a5c53066953cf6de5c884db05d2fc0a609333089f8681a89ad62249dd",
}


@pytest.mark.parametrize("name", sorted(PINNED_BUNDLE_DIGESTS))
def test_builtin_bundle_digest_pinned(name):
    assert load_builtin(name).digest() == PINNED_BUNDLE_DIGESTS[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_memoised_digest_matches_a_fresh_serialization(name):
    bundle = load_builtin(name)
    first = bundle.digest()
    assert bundle.digest() is first
    assert first == hashlib.sha256(canonical_json(bundle.to_dict()).encode()).hexdigest()


def explicit_algebra_inner_product(doc, factor: int) -> dict:
    """The two-point bundle with ``inner_products.A`` written out as a table, ``factor``
    times the canonical pairing <a, conj(b)> = a b*."""
    doc = copy.deepcopy(doc)
    canonical = load_bundle_dict(doc).inner_products["A"].matrix
    d = canonical.rows  # the module is A itself
    cells = [[str(factor * x) for x in canonical.column(c)] for c in range(d * d)]
    doc["inner_products"]["A"] = [cells[i * d : (i + 1) * d] for i in range(d)]
    return doc


def test_explicit_algebra_inner_product_is_digested(two_point_doc):
    """A table under inner_products.A is part of the digest and survives to_dict: twice the
    canonical pairing is another bundle, with its own digest and Gram matrices."""
    builtin = load_bundle_dict(two_point_doc)
    assert load_bundle_dict(explicit_algebra_inner_product(two_point_doc, 1)).digest() != builtin.digest()
    doubled = load_bundle_dict(explicit_algebra_inner_product(two_point_doc, 2))
    assert doubled.digest() != builtin.digest()
    from ncdiffop.sobolev import SobolevPairings, sobolev_gram

    def gram(bundle):
        pairings = SobolevPairings(bundle.modules["A"], bundle.inner_products["omega1"], bundle.inner_products["A"])
        return [[str(x) for x in row] for row in sobolev_gram(pairings, bundle.states["point1"], 1).matrix.data]

    assert (gram(builtin), gram(doubled)) == ([["2", "-1"], ["-1", "1"]], [["4", "-2"], ["-2", "2"]])
    again = load_bundle_dict(doubled.to_dict())
    assert again.to_dict()["inner_products"]["A"] == doubled.document["inner_products"]["A"]
    assert again.digest() == doubled.digest()


def respelled(doc: dict) -> dict:
    """The document with every scalar literal written another way for the same value (a JSON
    integer, ``"2/2"``, ``" 1"``, ``"1+0i"``, ``"-3/3"``, ``"0/7"``, ``"2/6"``, ...), keys the
    format does not define added, and the header and module defaults left out."""
    spellings = itertools.count()

    def respell(text: str):
        value = Fraction(text)
        if value == 0:
            return "0/7"
        if value.denominator > 1:
            return f"{2 * value.numerator}/{2 * value.denominator}"
        n = value.numerator
        return [n, f"{2 * n}/2", f" {n}", f"{n}+0i", f"{3 * n}/3"][next(spellings) % 5]

    def walk(x):
        if isinstance(x, list):
            return [walk(y) for y in x]
        if isinstance(x, dict):
            return {k: y if k in ("basis", "space") else walk(y) for k, y in x.items()}
        return x if x == "canonical" else respell(x)

    body = {k: walk(v) for k, v in doc.items() if k not in ("format", "name", "field", "truncation_degree", "notes")}
    out = {"format": doc["format"], "name": doc["name"], "notes": doc["notes"], "comment": "not a key of the format"}
    out.update(body, algebra={**body["algebra"], "x-names": ["e", "p"]})
    for decl in out["modules"].values():
        del decl["space"]
        decl["x-source"] = "docs/bundle-derivations.md"
    assert doc["field"] == "Q" and doc["truncation_degree"] == 3  # the defaults
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_respelled_document_has_the_builtin_digest(name):
    doc = builtin_bundle_dict(name)
    other = respelled(doc)
    assert other != doc
    assert load_bundle_dict(other).digest() == PINNED_BUNDLE_DIGESTS[name]


def test_field_q_rejects_gaussian_scalars(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["states"]["uniform"] = ["1/2+1i", "1/2-1i"]
    with pytest.raises(ParseError):
        load_bundle_dict(doc)


@pytest.mark.parametrize("key", ["algebra", "omega"])
def test_field_q_reads_basis_names_as_names(two_point_doc, key):
    """A basis name that parses as a Gaussian scalar is still only a name."""
    doc = copy.deepcopy(two_point_doc)
    doc[key]["basis"][1] = "2i"
    bundle = load_bundle_dict(doc)
    assert bundle.field == "Q"
    assert "2i" in (bundle.algebra.basis_names if key == "algebra" else bundle.to_dict()["omega"]["basis"])
    doc["states"]["uniform"] = ["1/2+1i", "1/2-1i"]
    with pytest.raises(ParseError, match="cannot carry the scalar '1/2\\+1i'"):
        load_bundle_dict(doc)


@pytest.mark.parametrize(
    "where",
    [("modules", "omega1", "nabla", 1, 0), ("inner_products", "omega1", 1, 1, 1), ("states", "point1", 1)],
    ids=["modules", "inner_products", "states"],
)
def test_cli_field_q_rejects_nested_imaginary_literal(tmp_path, capsys, two_point_doc, where):
    """An imaginary literal deep under modules, inner products or states is an
    input error on field Q, reported with its text; the same document with the
    literal as a name under algebra.basis loads."""
    doc = copy.deepcopy(two_point_doc)
    *path, last = where
    holder = doc
    for key in path:
        holder = holder[key]
    original, holder[last] = holder[last], "1/2-3i "
    target = tmp_path / "imaginary.json"
    target.write_text(json.dumps(doc))
    assert main(["validate", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: field Q cannot carry the scalar '1/2-3i '\n"
    assert "Traceback" not in captured.err
    holder[last] = original
    doc["algebra"]["basis"][0] = "1/2-3i "
    target.write_text(json.dumps(doc))
    assert main(["validate", str(target)]) == 0
    capsys.readouterr()


NON_REAL = ["2i", "1/2-1i", "3I ", "1i\n", "i"]
literal_texts = st.sampled_from(["0", "1", "-1/2", *NON_REAL, "x\0i", "1i\0", "", " ", "bad i"])
TWO_POINT_LITERALS = list(bump_sweep.literal_paths(builtin_data.two_point_universal()))


def field_error(doc):
    """The text of the field rule's ParseError that loading ``doc`` raises, or None."""
    try:
        load_bundle_dict(doc)
    except ParseError as err:
        return str(err) if str(err).startswith("field Q cannot carry") else None
    except ValidationError:
        pass
    return None


def walk_error(doc):
    """The text of the ParseError the document walk of ``oracles`` raises, or None."""
    try:
        oracles.reject_imaginary(doc)
    except ParseError as err:
        return str(err)
    return None


@given(st.sampled_from(TWO_POINT_LITERALS), literal_texts)
@settings(max_examples=200, deadline=None)
def test_field_q_refuses_the_literal_the_walk_names(path, text):
    """One literal the loader reads, set to any text: the load raises the field error
    exactly when the document walk does, naming the same literal."""
    doc = bump_sweep.builtin_with("two-point-universal", path, text)
    assert field_error(doc) == walk_error(doc)


@given(
    st.dictionaries(st.sampled_from(TWO_POINT_LITERALS), st.sampled_from([*NON_REAL, None]), min_size=1, max_size=6),
    st.sampled_from(["Q", "Q(i)"]),
)
@settings(max_examples=200, deadline=None)
def test_field_error_iff_the_walk_refuses(texts, field):
    """Several literals, each set to a non-real text or respelled with its own value
    (None): on Q the load raises the field error if and only if the walk does; on Q(i)
    it never does."""
    doc = builtin_data.two_point_universal()
    doc["field"] = field
    for path, text in texts.items():
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = f" {parent[path[-1]]} " if text is None else text
    if field == "Q":
        assert (field_error(doc) is None) == (walk_error(doc) is None)
    else:
        assert field_error(doc) is None


def test_field_q_ignores_a_key_the_loader_does_not_read(two_point_doc):
    """A non-real literal at an unknown key is not read, so it refuses nothing, and it is
    not part of the digest, like every other unknown key."""
    doc = copy.deepcopy(two_point_doc)
    doc["algebra"]["extra"] = ["1i"]
    assert walk_error(doc) == "field Q cannot carry the scalar '1i'"
    assert load_bundle_dict(doc).digest() == load_bundle_dict(two_point_doc).digest()


def test_field_q_names_the_first_literal_read(two_point_doc):
    """Of several non-real literals the error names the first one the loader reads:
    states are read before modules, which come first in the document walk."""
    doc = copy.deepcopy(two_point_doc)
    doc["modules"]["omega1"]["nabla"][1][0] = "2i"
    doc["states"]["uniform"][0] = "1i"
    assert walk_error(doc) == "field Q cannot carry the scalar '2i'"
    with pytest.raises(ParseError, match="^field Q cannot carry the scalar '1i'$"):
        load_bundle_dict(doc)


def test_cli_field_q_after_a_failed_geometry_invariant(tmp_path, capsys, two_point_doc):
    """A non-real state is read after the geometry is built, like every other format
    error in the states, so a geometry that fails a load-time invariant is reported first."""
    doc = copy.deepcopy(two_point_doc)
    doc["box"][1][0] = "5"
    doc["states"]["uniform"][0] = "1/2+1i"
    path = tmp_path / "both.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "validation failed: box-right-leibniz\n  witness: [0, 0]\n"


def dual_basis_bumps(doc):
    """Every document with 1 added to one entry of its dual basis."""
    db = doc["dual_basis"]
    sites = [("forms", i, j) for i, f in enumerate(db["forms"]) for j in range(len(f))]
    sites += [
        ("functionals", q, r, c)
        for q, m in enumerate(db["functionals"])
        for r in range(len(m))
        for c in range(len(m[r]))
    ]
    for part, *where, last in sites:
        bumped = copy.deepcopy(doc)
        target = bumped["dual_basis"][part]
        for k in where:
            target = target[k]
        target[last] = str(Fraction(target[last]) + 1)
        yield (part, *where, last), bumped


@pytest.mark.parametrize("name", ["two_point_universal", "z3_function_calculus"])
def test_cli_validate_bumped_dual_basis_never_raises(tmp_path, capsys, name):
    """A bad dual basis is a failed check (exit 1, named) or a valid bundle (exit 0), never a traceback."""
    path = tmp_path / "bumped.json"
    names = set()
    for site, doc in dual_basis_bumps(getattr(builtin_data, name)()):
        path.write_text(json.dumps(doc))
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1), site
        if code == 1:
            names.add(err.splitlines()[0])
    assert "validation failed: dual-basis" in names


def test_cli_validate_bad_dual_basis_witness(tmp_path, capsys, two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["dual_basis"]["forms"][0] = ["2", "0"]
    path = tmp_path / "bad-dual.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[:2] == ["validation failed: dual-basis", "  witness: ['omega1', 0]"]


def test_cli_validate_dual_basis_length_mismatch_is_input_error(tmp_path, capsys, two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["dual_basis"]["forms"].pop()
    path = tmp_path / "short-dual.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dual_basis: 1 forms but 2 functionals")


def asymmetric_inner_product(doc) -> dict:
    """The two-point bundle with <w12, conj(w21)> = p1 but <w21, conj(w12)> = 0.  Its two
    states span the dual of A, so both state Gram matrices are non-Hermitian."""
    doc = copy.deepcopy(doc)
    doc["inner_products"]["omega1"][0][1] = ["1", "0"]
    return doc


def test_cli_validate_asymmetric_inner_product_witness(tmp_path, capsys, two_point_doc):
    path = tmp_path / "asymmetric-ip.json"
    path.write_text(json.dumps(asymmetric_inner_product(two_point_doc)))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["validation failed: ip-omega1:symmetry", "  witness: [0, 1]"]


def test_unvalidated_asymmetric_inner_product_fails_report(two_point_doc):
    """A non-Hermitian state Gram matrix fails positivity without a certificate, not with a traceback."""
    from ncdiffop.verify import verify_all

    report = verify_all(load_bundle_dict(asymmetric_inner_product(two_point_doc), validate=False), seed=7)
    assert not report.ok
    failed = {c.name: c.witness for c in report.suites["sobolev"].checks if not c.ok}
    names = ("ip-omega1:symmetry", "ip-omega1:positive[point1]", "ip-omega1:positive[uniform]")
    assert {name: failed.get(name, "passed") for name in names} == dict(zip(names, [(0, 1), None, None]))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_body_does_not_depend_on_validation(name):
    """A state's faithfulness, which decides the gram-strict checks, is certified on every
    load with a star, so a bundle that validates reports the same body unvalidated."""
    from ncdiffop.verify import verify_all

    validated, unvalidated = (verify_all(load_builtin(name, validate=v), degree=2, seed=7) for v in (True, False))
    assert any(c.name.startswith("gram-strict-") for c in validated.suites["sobolev"].checks)
    assert unvalidated.body_json() == validated.body_json()


# -- the five documented fault injections ----------------------------------------


def test_fault_broken_leibniz(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["d"] = [["1", "1"], ["1", "-1"]]
    with pytest.raises(ValidationError) as err:
        load_bundle_dict(doc)
    assert err.value.name in ("leibniz", "d-of-unit")
    assert err.value.witness is not None or err.value.name == "d-of-unit"


def test_fault_singular_sigma(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["sigma_inv"] = [["0"] * 4 for _ in range(4)]
    with pytest.raises(ValidationError) as err:
        load_bundle_dict(doc)
    assert err.value.name in ("sigma-invertible", "box-left-leibniz")


def test_fault_non_bimodule_ev(two_point_doc):
    # corrupt a dual-basis functional: it stops being right-linear / dual
    doc = copy.deepcopy(two_point_doc)
    doc["dual_basis"]["functionals"][0] = [["1", "0"], ["1", "0"]]
    with pytest.raises(Exception) as err:
        load_bundle_dict(doc)
    assert "dual basis" in str(err.value) or "right-A-linear" in str(err.value)


def test_fault_nonassociative_algebra(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["algebra"]["mul"][0][1] = ["1", "0"]
    with pytest.raises(ValidationError) as err:
        load_bundle_dict(doc)
    assert err.value.name in ("associativity", "unit-laws")
    assert err.value.witness is not None


def test_fault_non_positive_state(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["states"]["uniform"] = ["2", "-1"]
    with pytest.raises(ValidationError) as err:
        load_bundle_dict(doc)
    assert err.value.name == "state-positive"
    assert err.value.witness is not None


def test_fault_corrupt_box_caught_by_suites(two_point_doc):
    # a corrupted right connection slips past a validation-free load but the
    # connection and duality suites report it with a witness (associativity of
    # the product survives this corruption: the dual tower is re-derived and
    # stays internally consistent)
    doc = copy.deepcopy(two_point_doc)
    doc["box"] = [["0", "0"], ["5", "2"], ["3", "7"], ["0", "0"]]
    bundle = load_bundle_dict(doc, validate=False)
    from ncdiffop.verify import verify_all

    report = verify_all(bundle, suites=["connections", "ev-duality"])
    assert not report.ok
    failing = [c for s in report.suites.values() for c in s.checks if not c.ok]
    assert failing


def test_fault_mismatched_braiding_caught_by_suites(two_point_doc):
    # swapping the braiding constants keeps sigma-inverse a bimodule
    # isomorphism but breaks its compatibility with the right connection;
    # unvalidated loading succeeds and the suites report it with witnesses
    doc = copy.deepcopy(two_point_doc)
    doc["sigma_inv"] = [
        ["0", "0", "0", "0"],
        ["0", "3", "0", "0"],
        ["0", "0", "2", "0"],
        ["0", "0", "0", "0"],
    ]
    bundle = load_bundle_dict(doc, validate=False)
    from ncdiffop.verify import verify_all

    report = verify_all(bundle, suites=["connections", "ev-duality", "action"])
    assert not report.ok
    failing = [c for s in report.suites.values() for c in s.checks if not c.ok]
    assert failing and any(c.witness is not None for c in failing)


# -- expression parsing ------------------------------------------------------------


def test_parse_operator_expressions(two_point_doc):
    bundle = load_bundle_dict(two_point_doc)
    g = bundle.geometry
    op = parse_operator(g, "2*v1@v2 + 1/3*v1 - 1", 3)
    assert set(op.components) == {0, 1, 2}
    unit = parse_operator(g, "1", 3)
    assert set(unit.components) == {0} and unit.component(0) == list(g.algebra.unit)
    with pytest.raises(UnknownName):
        parse_operator(g, "v9", 3)
    with pytest.raises(DegreeExceeded):
        parse_operator(g, "v1@v1@v1@v1", 3)
    with pytest.raises(ExprError):
        parse_operator(g, "", 3)


# -- CLI ---------------------------------------------------------------------------


def test_cli_validate_builtin(capsys):
    assert main(["validate", "zero-form-smoke"]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "digest" in out


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/bundle.json"]) == 2


def test_cli_validate_directory_is_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_cli_validate_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "café"}'.encode("latin-1"))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


def test_cli_validate_invalid_bundle(tmp_path, capsys, two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["algebra"]["mul"][0][1] = ["1", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "witness" in err


def test_cli_verify_selected_suites(capsys):
    code = main(["verify", "zero-form-smoke", "--suites", "fgp-zigzag,hopf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fgp-zigzag" in out and "hopf" in out


def test_cli_verify_unknown_suite(capsys):
    assert main(["verify", "zero-form-smoke", "--suites", "nope"]) == 2


@pytest.mark.parametrize("suites", ["", " ", "theta,"])
def test_cli_verify_empty_suite_name_is_input_error(capsys, suites):
    # an empty --suites is an empty suite name, as in "theta,", not a request for every suite
    assert main(["verify", "zero-form-smoke", "--suites", suites]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown suite ''")
    assert not captured.out


def test_verify_all_empty_suite_selection_is_an_error():
    # the library twin of the CLI rule: None selects every suite, an empty selection none
    from ncdiffop.verify import SUITE_NAMES, UnknownSuite, verify_all

    bundle = load_builtin("zero-form-smoke")
    for empty in ([], ()):
        with pytest.raises(UnknownSuite):
            verify_all(bundle, suites=empty)
    assert sorted(verify_all(bundle, suites=None).suites) == sorted(SUITE_NAMES)


@pytest.mark.parametrize(
    "suites, degree",
    [(None, -1), (["bullet"], -1), (["sobolev"], -1), (["hopf"], -1), (None, True), (None, 1.0), (None, "2")],
)
def test_verify_all_rejects_a_degree_that_is_not_a_non_negative_int(suites, degree):
    # the library twin of the CLI rule, as the loader's rule for truncation_degree: no
    # suite runs on such a degree, whether it would recurse or check nothing
    from ncdiffop.verify import verify_all

    with pytest.raises(ValueError) as err:
        verify_all(load_builtin("zero-form-smoke"), suites=suites, degree=degree)
    assert str(err.value) == f"degree: expected a non-negative integer, got {degree!r}"


def test_cli_verify_negative_degree_is_input_error(capsys):
    assert main(["verify", "two-point-universal", "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error: degree must be non-negative" in captured.err
    assert not captured.out


def test_verify_runs_the_requested_degree():
    # a degree above 3 is checked, not capped, so the reported degree is the one run
    from ncdiffop.verify import verify_all

    report = verify_all(load_builtin("z3-function-calculus"), suites=["fgp-zigzag"], degree=4)
    names = [c.name for c in report.suites["fgp-zigzag"].checks]
    assert names == ["zigzag-1", "zigzag-2", "zigzag-3", "zigzag-4", "idempotent-squared"]
    assert report.ok and report.body_dict()["degree"] == 4


def test_cli_gram_negative_order_is_input_error(capsys):
    assert main(["gram", "two-point-universal", "A", "uniform", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error: order must be non-negative" in captured.err
    assert not captured.out
    assert main(["gram", "two-point-universal", "A", "uniform", "0"]) == 0


def test_cli_verify_json_deterministic(capsys):
    assert main(["verify", "zero-form-smoke", "--json", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "zero-form-smoke", "--json", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    body = json.loads(first)
    assert body["ok"] is True
    assert "timing" not in body


def test_cli_apply_and_errors(capsys):
    assert main(["apply", "two-point-universal", "A", "v1", "1,0", "--trace"]) == 0
    assert main(["apply", "two-point-universal", "A", "v9", "1,0"]) == 2
    assert main(["apply", "two-point-universal", "nope", "v1", "1,0"]) == 2
    assert main(["apply", "two-point-universal", "A", "v1", "1,0,0"]) == 2
    assert main(["apply", "two-point-universal", "A", "v1@v1@v1@v1", "1,0"]) == 2


@pytest.mark.parametrize("expr", ["@v1", "*v1", "2**v1", "v1@@v2", "v1 + @v2", "v1@", "v1 v2", "2 3"])
def test_cli_apply_malformed_expression_is_input_error(expr):
    # a subprocess with a timeout: a parser that stops advancing fails here instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "ncdiffop.cli", "apply", "two-point-universal", "A", expr, "1,0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["apply", "two-point-universal", "A", "1/0*v1", "1,0"],
        ["apply", "two-point-universal", "A", "v1", "1/0,0"],
    ],
    ids=["coefficient", "element"],
)
def test_cli_apply_zero_denominator_is_input_error(capsys, args):
    assert main(args) == 2
    assert "error: zero denominator in '1/0'" in capsys.readouterr().err


def test_cli_validate_zero_denominator_is_input_error(tmp_path, capsys, two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["states"]["uniform"] = ["1/0", "1"]
    path = tmp_path / "zero-denominator.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: states.uniform: zero denominator in '1/0'" in captured.err
    assert "Traceback" not in captured.err


def test_cli_apply_field_q_rejects_gaussian_element(tmp_path, capsys, two_point_doc):
    assert main(["apply", "z3-function-calculus", "A", "1", "1+2i,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: field Q cannot carry the scalar '1+2i'\n"
    assert not captured.out
    doc = copy.deepcopy(two_point_doc)
    doc["field"] = "Q(i)"
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps(doc))
    assert main(["apply", str(path), "A", "1", "1+2i,0"]) == 0
    assert capsys.readouterr().out == "result: 1+2i, 0\n"


def test_cli_apply_unit_is_identity(capsys):
    assert main(["apply", "two-point-universal", "omega1", "1", "1/2,-3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == ["1/2", "-3"]


def test_cli_gram(capsys):
    assert main(["gram", "two-point-universal", "A", "uniform", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["positive_semidefinite"] is True
    assert main(["gram", "two-point-universal", "A", "nope", "1"]) == 2
    assert main(["gram", "two-point-universal", "vec", "uniform", "1"]) == 2  # no declared pairing


def test_tensor_rebracketing_all_builtin_bundles():
    # dimension equality and equivariant invertible re-bracketing for the
    # omega towers of every shipped bundle
    from oracles import unit_row
    from ncdiffop.bimodule import TensorPair, intertwining_failure
    from ncdiffop.linalg import Mat, inverse, kron_vec
    from ncdiffop.scalars import ZERO
    from oracles import lift, push

    for name in ("two-point-universal", "z3-function-calculus"):
        g = load_builtin(name).geometry
        e = f = h = g.omega
        ef = TensorPair(e, f)
        ef_h = TensorPair(ef.space, h)
        fh = TensorPair(f, h)
        e_fh = TensorPair(e, fh.space)
        assert ef_h.dim == e_fh.dim
        cols = []
        for idx in range(ef_h.dim):
            out = [ZERO] * e_fh.dim
            for p, c in enumerate(lift(ef_h, unit_row(ef_h.dim, idx))):
                if not c:
                    continue
                ij, k = divmod(p, h.dim)
                for q, cc in enumerate(lift(ef, unit_row(ef.dim, ij))):
                    if not cc:
                        continue
                    i, j = divmod(q, f.dim)
                    inner = push(fh, kron_vec(unit_row(f.dim, j), unit_row(h.dim, k)))
                    term = push(e_fh, kron_vec(unit_row(e.dim, i), inner))
                    out = [x + c * cc * y for x, y in zip(out, term)]
            cols.append(out)
        rebracket = Mat.from_cols(cols)
        assert intertwining_failure(ef_h.space, e_fh.space, rebracket) is None
        inverse(rebracket)


@pytest.mark.parametrize(
    "cells,witness,detail,cli_witness",
    [
        (
            [(0, 0, 1)],
            ("left", 0),
            "ip-omega1-pairing: not a bimodule map at ('left', 0)",
            "['left', 0]",
        ),
        (
            [(0, 1, 0), (1, 0, 0)],
            "(omega1(x)conj(omega1))",
            "validation failed: ip-omega1-pairing-not-well-defined witness=(omega1(x)conj(omega1))",
            "(omega1(x)conj(omega1))",
        ),
    ],
    ids=["not-a-bimodule-map", "not-well-defined"],
)
def test_refused_pairing_keeps_its_witness(tmp_path, capsys, two_point_doc, cells, witness, detail, cli_witness):
    """A pairing on the 1-forms that is no bimodule map E (x)_A conj E -> A fails with the
    place it fails at: the action it does not commute with, or the quotient it does not
    descend to.  The second case sets a symmetric pair of cells, so the symmetry check,
    which comes first, passes."""
    doc = copy.deepcopy(two_point_doc)
    for i, j, t in cells:
        doc["inner_products"]["omega1"][i][j][t] = "5"
    bundle = load_bundle_dict(doc, validate=False)
    results = bundle.inner_products["omega1"].validate(bundle.geometry)
    check = next(r for r in results if r.name == "ip-omega1:bimodule-map")
    assert (check.ok, check.witness, check.detail) == (False, witness, detail)
    with pytest.raises(ValidationError) as err:
        load_bundle_dict(doc)
    assert (err.value.name, err.value.witness) == ("ip-omega1:bimodule-map", witness)
    path = tmp_path / "pairing.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"validation failed: ip-omega1:bimodule-map\n  witness: {cli_witness}\n"


def test_field_qi_accepts_real_and_gaussian(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["field"] = "Q(i)"
    bundle = load_bundle_dict(doc)
    assert bundle.field == "Q(i)"
    # the conjugation round-trips through serialization
    assert load_bundle_dict(bundle.to_dict()).digest() == bundle.digest()


# -- report bodies pinned across commits -------------------------------------------
# sha256 of the stdout of `ncdiffop verify <bundle> --json --seed 7 [args...]`, one
# row (id, args, sha256, why) per pin; a --seed among the args replaces the 7.
# Criterion 10 compares runs of one commit; these digests pin the bodies across
# changes to the arithmetic, so a change that alters any check's outcome or the
# canonical form of a body shows here.  Re-record only for a deliberate change
# of the report format or of the checks themselves.
PINNED_BODIES = [
    (
        "two-point-universal",
        ["two-point-universal"],
        "f8facf4a6ab82e49440a0cc49ab172dc6315bebf870c8283ccbe3278f1dc533f",
        "every suite of the two-point bundle at its default degree",
    ),
    (
        "zero-form-smoke",
        ["zero-form-smoke"],
        "ba66916fb37b391fa7e6190cf1edd3371e28f1b272bdb3cc8f538730980278bd",
        "every suite of the bundle with no 1-forms at its default degree",
    ),
    (
        "z3-subset",
        ["z3-function-calculus", "--suites", "fgp-zigzag,connections,ev-duality,bullet,sobolev"],
        "5057b90a9ded5a703869ec1a46a3edbeccf7dd63ef13ccdcadd8886cc14b533a",
        "the z3 suites that read no crossing, at the default degree",
    ),
    (
        "z3-theta-deg2",
        ["z3-function-calculus", "--suites", "theta", "--degree", "2"],
        "629d67e702d69e48beaba7bcfa5a493f47eb7bf6ae930a5ae511b69ea1b47f58",
        "the z3 crossings alone, below the default degree",
    ),
    (
        "z3-centre-deg1",
        ["z3-function-calculus", "--suites", "centre", "--degree", "1"],
        "7545248c365530567292c1c769c029ab515120f2c30537e984bfa640da9cad0c",
        "the centre candidate's checks stopping at degree 1",
    ),
    (
        "z3-action",
        ["z3-function-calculus", "--suites", "action"],
        "a41494d5c312720b42d681ba3c53215176848ff13043b3dbca8a92417f35f9e4",
        "the module actions of z3 at the default degree",
    ),
    (
        "z3-theta-centre",
        ["z3-function-calculus", "--suites", "theta,centre"],
        "7481f8357ad392c5178c6996ae7a7614fe53d010afb85d09ecf50d4c9917fc17",
        "theta and centre sharing the crossings of one bundle",
    ),
    *(
        (
            f"z3-bullet-deg{degree}-seed{seed}",
            ["z3-function-calculus", "--suites", "bullet", "--degree", str(degree), "--seed", str(seed)],
            digest,
            "below degree 3 bullet-associativity-random builds the degree-2 and -3 triples itself",
        )
        for degree, seed, digest in [
            (1, 4, "43e28b8bbb97aefd945425f37c3394a0699b8f2eec9b2cc8452e316290f479e1"),
            (1, 10, "002dced34c407f8455843c4c896b69d90ff916eb7b33672f06b20672c978963a"),
            (2, 4, "fb582444b1b8d54509dab133fe457c38d42e68200d28ae185002d4c44b909727"),
            (2, 10, "d839dd3ae2de946e0cfc9084fc8380046eadbe91fdbf1d7ffacf291e253e632a"),
        ]
    ),
    (
        "two-point-theta-centre-deg8",
        ["two-point-universal", "--suites", "theta,centre", "--degree", "8"],
        "811801f005438b24c01144565a43eaa77bf27e5c6fbc489e02217c77c54555b6",
        "the only pin above degree 6: its 112 tensor pairs have 5 action contents, so most are shared",
    ),
    (
        "z3-deg4",
        ["z3-function-calculus", "--seed", "0", "--degree", "4"],
        "bfadaa6754f33bfb11e18b90025daf020c3f286a8b32581b9e2efbaaad69d129",
        "degree 4 is where the largest identity Kronecker factors occur, in theta, centre and ev-duality",
    ),
    (
        "two-point-deg4",
        ["two-point-universal", "--seed", "0", "--degree", "4"],
        "0815f5e0c7bcdce50db4087ee7df8084adc937a58ad6e4d5d1f8052715cd72da",
        "every suite of the two-point bundle at degree 4, the crossings included",
    ),
    (
        "zero-form-deg5",
        ["zero-form-smoke", "--seed", "0", "--degree", "5"],
        "2a45b1b3820c6732468023f458e483d6d5c075d163460a5b619b90b8cade81b2",
        "crossings without Omega1: centre asks them to degree 2, theta then to 5, reading centre's witnesses",
    ),
    (
        "z3-bullet-deg5",
        ["z3-function-calculus", "--seed", "0", "--suites", "bullet", "--degree", "5"],
        "eecbafaa235901c1fee07b5085bc3387e67ac565cf76bbd9dd2f786d7215e015",
        "the bullet tables at degree 5",
    ),
    (
        "z3-theta-deg5",
        ["z3-function-calculus", "--seed", "0", "--suites", "theta", "--degree", "5"],
        "725cab7f23468a07fc5487623209aa07374af5ab9b8a1c763ff477aaf9740ec3",
        "theta above degree 4",
    ),
    (
        "z3-ev-duality-deg5",
        ["z3-function-calculus", "--seed", "0", "--suites", "ev-duality", "--degree", "5"],
        "0ccd4d0ae2a29fe63e608fbca225cdd6cbb0746adf063deb185725f7469f7bd6",
        "the W(5) (x) V(5) relations, read from the nonzero action entries and spanned with coordinate kills",
    ),
    (
        "z3-ev-fgp-deg6",
        ["z3-function-calculus", "--seed", "0", "--suites", "ev-duality,fgp-zigzag", "--degree", "6"],
        "effb514f551e9e1cd2a1b0581c4a79735a2c26c1de95fb34800ab012923fce07",
        "the ev and coev contractions at degree 6, where they meet the largest identity factors",
    ),
    (
        "two-point-deg6",
        ["two-point-universal", "--seed", "0", "--degree", "6"],
        "755d54c2a424ab307ed5336d18e229edaed0517fe9be87deea780a98a848cdbd",
        "relation spans mixing 502 one-entry vectors (coordinate kills) with 222 of several entries",
    ),
    (
        "z3-sobolev-deg5",
        ["z3-function-calculus", "--seed", "0", "--suites", "sobolev", "--degree", "5"],
        "8a47ac31863d4f086aa1e070bdea67494a2d4dcdaae7a65e348d754924126123",
        "the Sobolev pairings above degree 4, one product with the pairing's matrix per degree",
    ),
]


def verify_body(capsys, args) -> str:
    """The stdout of ``ncdiffop verify <bundle> --json --seed 7 [args...]``, which must pass."""
    assert main(["verify", args[0], "--json", "--seed", "7", *args[1:]]) == 0
    return capsys.readouterr().out


def body_matches(body: str, digest: str) -> bool:
    return hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [pytest.param(args, digest, id=id) for id, args, digest, _ in PINNED_BODIES])
def test_cli_verify_body_digest_pinned(capsys, args, digest):
    assert body_matches(verify_body(capsys, args), digest)


def test_a_one_byte_change_to_a_pinned_body_fails(capsys):
    _, args, digest, _ = PINNED_BODIES[1]  # zero-form-smoke, the quickest
    body = verify_body(capsys, args)
    assert body_matches(body, digest) and not body_matches(body + " ", digest)


def test_ci_workflow_pins_no_digest():
    """The pinned bodies live in PINNED_BODIES, which Tier-1 runs, and not in CI steps."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    assert not re.search(r"\b[0-9a-f]{64}\b", workflow.read_text())


def test_cli_apply_and_gram_values_pinned(capsys):
    # the bodies above carry only check names and outcomes; these outputs carry
    # exact scalars, integral and not, through `str`
    assert main(["apply", "two-point-universal", "omega1", "2*v1@v2 + 1/3*v1 - 1", "1/2,-3", "--trace", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == ["595/6", "3"]
    assert doc["derivatives"] == {"1": ["-13/4", "31/2"], "2": ["189/4", "-35/2"]}
    assert main(["gram", "two-point-universal", "A", "uniform", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gram"] == [["27", "-53/2"], ["-53/2", "27"]]
    assert main(["gram", "z3-function-calculus", "A", "uniform", "2", "--json"]) == 0
    gram = json.loads(capsys.readouterr().out)["gram"]
    assert gram == [["11", "-16/3", "-16/3"], ["-16/3", "11", "-16/3"], ["-16/3", "-16/3", "11"]]


Z3_EXPR = "2/3*v1@v5@v3 - 3*v2@v3@v1 + 5/2*v1@v6 - 1/3*v4 + 7/5"  # degrees 3, 2, 1 and 0


def test_cli_apply_z3_values_pinned(capsys):
    # words of every degree up to the truncation, with fractional coefficients, on A and omega1
    assert main(["apply", "z3-function-calculus", "A", Z3_EXPR, "1/2,-3,2", "--trace", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == ["-123/10", "-38/15", "14/5"]
    assert doc["derivatives"] == {
        "1": ["-7/2", "5", "-3/2", "3/2", "7/2", "-5"],
        "2": ["10", "2", "-3", "-17/2", "-7", "13/2", "2", "-10", "-17/2", "3", "13/2", "7"],
        "3": ["-9", "-17", "-41/2", "29/2", "-21", "13", "18", "15/2", "30", "4", "5/2", "-22"]
        + ["-41/2", "29/2", "13", "21", "18", "15/2", "4", "-30", "5/2", "-22", "-17", "9"],
    }
    element = "1,-1/3,0,2,1/2,-1"
    assert main(["apply", "z3-function-calculus", "omega1", Z3_EXPR, element, "--trace", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == ["-83/30", "-16/45", "0", "-19/20", "1/5", "-7/5"]
    assert doc["derivatives"]["1"] == ["-4/3", "-3/2", "1/3", "-3/2", "1", "3", "-1", "-3", "4/3", "3/2", "-1/3", "3/2"]
    assert doc["derivatives"]["2"][:12] == ["2/3", "-3", "7/3", "9/2", "2", "6", "-5/3", "0", "-8/3", "-3", "-2/3", "-9/2"]
    assert doc["derivatives"]["3"][:12] == ["6", "18", "-10/3", "0", "-14/3", "-3/2", "-7/3", "-12", "-8", "-9", "-4/3", "-9"]
    assert [len(doc["derivatives"][n]) for n in ("2", "3")] == [24, 48]
    assert main(["apply", "z3-function-calculus", "A", "v3@v2@v4 - 1/2*v5", "1/2,-3,2"]) == 0
    assert capsys.readouterr().out == "result: 0, -17, -5/2\n"
    assert main(["apply", "z3-function-calculus", "omega1", "v3@v2@v4 - 1/2*v5", element]) == 0
    assert capsys.readouterr().out == "result: 0, -10/3, -1/6, 0, 0, 3/4\n"


# sha256 of `verify_all(load_bundle_dict(doc, validate=False), seed=7).body_json()` for
# corruptions of the built-in bundles that fail several checks.  These pin which
# checks fail, their witnesses and which lazily built structure reports a
# ValidationError first, so a change to the order of the lazy builds shows here.
# The star entry and the inner-product cell reach the checks written on the
# algebra's product and star (the inner-product symmetry, the canonical pairing
# on A, the conjugate bimodule).  The two states of two-point-universal span the
# dual of A, so any asymmetric cell there makes a state Gram matrix
# non-Hermitian; the z3 cell changes by (0, 1, -1), which both z3 states kill.
SWAPPED_BRAIDING = [["0", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "0"]]
TWO_POINT, Z3 = "two-point-universal", "z3-function-calculus"
PINNED_FAILING_BODIES = [
    (TWO_POINT, ("sigma_inv",), SWAPPED_BRAIDING, "4fe58a040c14ccdb6c30061143cf4715878c7cec21c6213e793bcc6fa7511048"),
    (TWO_POINT, ("box", 1, 0), "5", "b712d39e4dfca8c0592bd374808d703e2081fc4da805e36244b4e6b988ccaf12"),
    (TWO_POINT, ("algebra", "star", 1, 1), "-1", "0ac27c951b1039b325709b47cc1e7dc5ab104289e25cc7acf815e1020a947c3d"),
    (
        Z3,
        ("inner_products", "omega1", 2, 5),
        ["0", "1", "-1"],
        "86bb4b72f59f2abc670ab7015bdc5d59fa962961d386fcf0e42a1ca4d849cb59",
    ),
]


@pytest.mark.parametrize(
    "name,path,value,digest",
    PINNED_FAILING_BODIES,
    ids=["swapped-braiding", "corrupt-box", "corrupt-star", "asymmetric-inner-product"],
)
def test_failing_body_digest_pinned(name, path, value, digest):
    from ncdiffop.verify import verify_all

    doc = builtin_bundle_dict(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    report = verify_all(load_bundle_dict(doc, validate=False), seed=7)
    assert not report.ok
    assert hashlib.sha256(report.body_json().encode()).hexdigest() == digest
