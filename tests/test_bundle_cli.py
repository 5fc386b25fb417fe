"""Bundle round-trips, fault injection, CLI behaviour and determinism."""

import copy
from fractions import Fraction
import hashlib
import json
import subprocess
import sys

import pytest

from ncdiffop import builtin_data
from ncdiffop.bundle import (
    ParseError,
    canonical_json,
    load_builtin,
    load_bundle,
    load_bundle_dict,
)
from ncdiffop.cli import main
from ncdiffop.exprs import DegreeExceeded, ExprError, UnknownName, parse_operator
from ncdiffop.report import ValidationError


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
    ],
    ids=["algebra.basis-int", "modules-list", "algebra.unit-string", "truncation_degree-string"],
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
    assert "2i" in (bundle.algebra.basis_names if key == "algebra" else bundle.omega_basis)
    doc["states"]["uniform"] = ["1/2+1i", "1/2-1i"]
    with pytest.raises(ParseError, match="cannot carry the scalar '1/2\\+1i'"):
        load_bundle_dict(doc)


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
    from ncdiffop.algebra import unit_row
    from ncdiffop.bimodule import BimoduleMap, TensorPair
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
        BimoduleMap(ef_h.space, e_fh.space, rebracket, "assoc")
        inverse(rebracket)


def test_field_qi_accepts_real_and_gaussian(two_point_doc):
    doc = copy.deepcopy(two_point_doc)
    doc["field"] = "Q(i)"
    bundle = load_bundle_dict(doc)
    assert bundle.field == "Q(i)"
    # the conjugation round-trips through serialization
    assert load_bundle_dict(bundle.to_dict()).digest() == bundle.digest()


# -- report bodies pinned across commits -------------------------------------------
# sha256 of the stdout of `ncdiffop verify <bundle> --json --seed 7 [--suites ...]`.
# Criterion 10 compares runs of one commit; these digests pin the bodies across
# changes to the arithmetic, so a change that alters any check's outcome or the
# canonical form of a body shows here.  Re-record only for a deliberate change
# of the report format or of the checks themselves.
PINNED_BODIES = [
    (["two-point-universal"], "f8facf4a6ab82e49440a0cc49ab172dc6315bebf870c8283ccbe3278f1dc533f"),
    (["zero-form-smoke"], "ba66916fb37b391fa7e6190cf1edd3371e28f1b272bdb3cc8f538730980278bd"),
    (
        ["z3-function-calculus", "--suites", "fgp-zigzag,connections,ev-duality,bullet,sobolev"],
        "5057b90a9ded5a703869ec1a46a3edbeccf7dd63ef13ccdcadd8886cc14b533a",
    ),
    (
        ["z3-function-calculus", "--suites", "theta", "--degree", "2"],
        "629d67e702d69e48beaba7bcfa5a493f47eb7bf6ae930a5ae511b69ea1b47f58",
    ),
    (
        ["z3-function-calculus", "--suites", "centre", "--degree", "1"],
        "7545248c365530567292c1c769c029ab515120f2c30537e984bfa640da9cad0c",
    ),
    (
        ["z3-function-calculus", "--suites", "action"],
        "a41494d5c312720b42d681ba3c53215176848ff13043b3dbca8a92417f35f9e4",
    ),
]


@pytest.mark.parametrize(
    "args,digest",
    PINNED_BODIES,
    ids=["two-point-universal", "zero-form-smoke", "z3-subset", "z3-theta-deg2", "z3-centre-deg1", "z3-action"],
)
def test_cli_verify_body_digest_pinned(capsys, args, digest):
    assert main(["verify", args[0], "--json", "--seed", "7", *args[1:]]) == 0
    body = capsys.readouterr().out
    assert hashlib.sha256(body.encode()).hexdigest() == digest


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
# two corruptions of two-point-universal that fail several checks.  These pin which
# checks fail, their witnesses and which lazily built structure reports a
# ValidationError first, so a change to the order of the lazy builds shows here.
SWAPPED_BRAIDING = [["0", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "0"]]
PINNED_FAILING_BODIES = [
    (("sigma_inv",), SWAPPED_BRAIDING, "4fe58a040c14ccdb6c30061143cf4715878c7cec21c6213e793bcc6fa7511048"),
    (("box", 1, 0), "5", "b712d39e4dfca8c0592bd374808d703e2081fc4da805e36244b4e6b988ccaf12"),
]


@pytest.mark.parametrize("path,value,digest", PINNED_FAILING_BODIES, ids=["swapped-braiding", "corrupt-box"])
def test_failing_body_digest_pinned(two_point_doc, path, value, digest):
    from ncdiffop.verify import verify_all

    doc = copy.deepcopy(two_point_doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    report = verify_all(load_bundle_dict(doc, validate=False), seed=7)
    assert not report.ok
    assert hashlib.sha256(report.body_json().encode()).hexdigest() == digest
