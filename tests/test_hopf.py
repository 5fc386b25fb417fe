"""The Hopf cross-check as matrix identities, against the per-element checks kept
in ``tests/oracles.py``.

One entry of one g_i block of a module's action, or of the adjoint action, is
bumped: every check must give the oracle's verdict and, where the oracle names a
witness, the same one.  The representation check is the exception: the oracle's
double loop names the last failing pair, the identity the first.  Every failed
check keeps a witness, pinned below on a few corruptions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncdiffop import hopf
from ncdiffop.centre import verify_centre
from ncdiffop.hopf import Group, HModule, cyclic_group, phi_matrix, regular_module, standard_candidate, symmetric_group_3
from ncdiffop.linalg import Mat
from ncdiffop.scalars import ONE, sc


def bumped(module: HModule, i: int, j: int, k: int, delta: str) -> HModule:
    """The module with ``delta`` added to entry (k, j) of the block of g_i."""
    a = module.action
    entries = [(r, c, v) for c, col in enumerate(a.cols_sparse()) for r, v in col]
    action = Mat.from_entries(a.rows, a.cols, entries + [(k, i * module.dim + j, sc(delta))])
    return HModule(module.group, action, module.name)


def corrupted(which: str, target: str, i: int, j: int, k: int, delta: str):
    cand = standard_candidate(which)
    if target == "adjoint":
        cand.adjoint = bumped(cand.adjoint, i, j, k, delta)
    else:
        cand.modules[target] = bumped(cand.module(target), i, j, k, delta)
    return cand


def failures(results) -> dict:
    return {r.name: r.witness for r in results if not r.ok}


@st.composite
def corruptions(draw):
    which = draw(st.sampled_from(["Z2", "S3"]))
    cand = standard_candidate(which)
    target = draw(st.sampled_from([*cand.object_names(), "adjoint"]))
    dim = (cand.adjoint if target == "adjoint" else cand.module(target)).dim
    i = draw(st.integers(0, cand.group.order - 1))
    j, k = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    return which, target, i, j, k, draw(st.sampled_from(["1", "-1", "2", "-1/2"]))


@settings(max_examples=60, deadline=None)
@given(corruptions())
def test_bumped_actions_give_the_oracle_verdicts_and_witnesses(case):
    cand = corrupted(*case)
    got, want = verify_centre(cand), oracles.hopf_centre_checks(cand)
    assert [(r.name, r.ok) for r in got] == [(r.name, r.ok) for r in want]
    modules = {m.name: m for m in (*cand.modules.values(), cand.adjoint)}
    table = oracles.HopfTable(cand.group)
    for r, o in zip(got, want):
        assert r.ok == (r.witness is None), r
        if r.name.endswith(":representation"):
            pairs = oracles.hopf_failing_pairs(table, oracles.hopf_mats(modules[r.name.split(":")[0]]))
            assert r.witness == (pairs[0] if pairs else None)
        elif o.witness is not None:
            assert r.witness == o.witness


PINNED = {
    ("S3", "regular", 0, 3, 3, "-1"): {
        "hopf-morphism-regular": ("regular", 0),
        "hopf-inverse-regular": (0, 3),
        "hopf-algebra-in-centre-regular": (0, 1, 5),
        "hopf-naturality-symmetrizer": ("H-linear", (0, 0)),
        "hopf-naturality-sum": ("H-linear", (0, 3)),
        "regular:representation": (0, 1),
        "regular:identity": (3,),
    },
    ("Z2", "adjoint", 1, 0, 1, "1"): {
        "hopf-morphism-regular": ("regular", 1),
        "hopf-morphism-sign": ("sign", 1),
        "hopf-product-morphism": 1,
        "adjoint:representation": (1, 1),
        "hopf-unit-element-invariant": (1, 0),
    },
    ("S3", "permutation", 1, 0, 0, "1"): {
        "hopf-morphism-permutation": ("permutation", 1),
        "hopf-inverse-permutation": (1, 0),
        "hopf-algebra-in-centre-permutation": (1, 1, 0),
        "permutation:representation": (1, 1),
    },
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_witnesses_of_bumped_actions(case):
    assert failures(verify_centre(corrupted(*case))) == PINNED[case]


def test_witnesses_of_a_bumped_unit_object_and_tensor_product(monkeypatch):
    # no bump of a module's action breaks these two: phi of a tensor product and of
    # the trivial module are read off the actions whatever they are
    cand = standard_candidate("Z2")
    trivial, tensor = hopf.trivial_module, hopf.tensor_module
    monkeypatch.setattr(hopf, "trivial_module", lambda g: bumped(trivial(g), 1, 0, 0, "1"))
    monkeypatch.setattr(hopf, "tensor_module", lambda v, w, name=None: bumped(tensor(v, w, name), 1, 0, 0, "1"))
    assert failures([cand.check_unit(), cand.check_tensor_compat("sign", "regular")]) == {
        "hopf-unit-object": (1, 0),
        "hopf-tensor-compat-sign-regular": (1, 0, 0),
    }


def test_witness_of_a_map_that_is_linear_but_not_natural(monkeypatch):
    # phi doubled on the regular module: the symmetrizer and the sum stay H-linear
    cand = standard_candidate("S3")
    monkeypatch.setattr(cand, "phi", lambda m: phi_matrix(cand.group, m).scale(2 if m.name == "regular" else 1))
    assert failures(cand.check_naturality()) == {
        "hopf-naturality-symmetrizer": ("natural", (0, 0)),
        "hopf-naturality-sum": ("natural", (0, 0)),
    }


def test_representation_witness_is_the_first_failing_pair():
    # g_1 acting on the regular module of S3 as the identity: g_1 g_2 is the first
    # pair that fails; the per-element double loop overwrote its witness and named (5, 4)
    g = symmetric_group_3()
    cols = regular_module(g).action.cols_sparse()
    broken = HModule(g, Mat(6, 36, cols[:6] + Mat.identity(6).cols_sparse() + cols[12:]), "regular")
    rep = broken.validate()[0]
    assert (rep.name, rep.ok, rep.witness) == ("regular:representation", False, (1, 2))
    table, mats = oracles.HopfTable(g), oracles.hopf_mats(broken)
    assert oracles.hopf_failing_pairs(table, mats)[0] == (1, 2)
    assert oracles.hopf_validate(table, mats, "regular")[0].witness == (5, 4)


@pytest.mark.parametrize("group", [cyclic_group(3), symmetric_group_3(), Group([1, 0], lambda a, b: (a + b) % 2, "Z2'")])
def test_group_reads_mu_unit_and_antipode_from_its_table(group):
    table, n = oracles.HopfTable(group), group.order
    cells = [(i, j) for i in range(n) for j in range(n)]
    assert group.mu == Mat.from_entries(n, n * n, ((table.imul(i, j), i * n + j, ONE) for i, j in cells))
    assert group.unit == Mat.from_entries(n, 1, [(table.index[table.identity], 0, ONE)])
    assert group.antipode == Mat.from_entries(n, n, ((table.iinv(i), i, ONE) for i in range(n)))


def test_group_without_identity_is_refused():
    with pytest.raises(ValueError, match="no identity"):
        Group(range(2), lambda a, b: 0, "zero")


@pytest.mark.parametrize("group", [cyclic_group(2), symmetric_group_3()], ids=["Z2", "S3"])
def test_adjoint_action_conjugates(group):
    """Column (g, h) of the adjoint action is the basis vector of g h g^-1, read from ``Group.mult``."""
    elems, mult, n = group.elements, group.mult, group.order
    identity = next(e for e in elems if all(mult(e, f) == f for f in elems))
    inverse = {g: next(f for f in elems if mult(g, f) == identity) for g in elems}
    conjugate = [elems.index(mult(mult(g, h), inverse[g])) for g in elems for h in elems]
    want = Mat.from_entries(n, n * n, ((k, t, ONE) for t, k in enumerate(conjugate)))
    assert hopf.adjoint_module(group).action == want
