"""The package works on sparse ``Mat``s only: no module but the CLI applies a
matrix to a dense coordinate list, and none brings back the dense algebra
helpers, the per-element action lists (``M.left[i]``, ``M.right[i]``,
``A.left_mult``, ``A.right_mult``, a Hopf module's ``.mats``) or the
braiding-invertibility option that the sparse identities replaced.  No product builds an identity Kronecker
factor: ``A @ (I (x) X (x) I)`` and ``(I (x) X (x) I) @ B`` go through
``Mat.mul_ikron`` and ``linalg.ikron_mul``, which apply it without building it,
and neither kernel is handed one as an operand: the contractions
``(X (x) I)(I (x) y)`` and ``(I (x) X)(y (x) I)`` go through ``linalg.contract``.

Dense coordinate lists appear only where the CLI reads an element from the
command line and prints one.  A bimodule holds each action once, as one
matrix, and so does a module over a group algebra.  A map between graded sums is one ``linalg.Graded``: no module brings
back the per-degree dicts of matrices it replaced, their pairwise sum
(``_add``), their stacking (``_stacked``, ``_stacking``), their witness rule
by first index (``_first_by_block``) or a ``first_mismatch`` on dicts.  An
inner product is not evaluated on dense coordinate lists (``of_elements``):
Sobolev pairings are products with its matrix.  The retired helpers live on as the oracles in ``tests/oracles.py``.

``Mat.swap`` is used only where a map really flips two legs: the star's
anti-multiplicativity, the conjugate symmetry of an inner product, the
conjugate bimodule, the dual basis and the nesting in ``coev_pow``.  A check
whose witness reads the legs in another order than its domain's columns says
so with ``first_mismatch``'s ``order``, and multiplies neither side by a swap.
Only the stdlib ``ast`` is used, as in ``test_imports.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncdiffop"
RETIRED = {
    "unit_row",
    "apply_star",
    "right_apply",
    "mul_tensor",
    "left_mult_matrix",
    "sigma_invertible_required",
    "left_mult",
    "right_mult",
    "_add",
    "_stacked",
    "_stacking",
    "_first_by_block",
    "of_elements",
}
ACTION_LISTS = {"left", "right"}
PER_ELEMENT_LISTS = {"mats"}
APPLY_ALLOWED = {"cli.py"}


def dense_layer_uses(source: str, allow_apply: bool = False) -> list[str]:
    """Each definition or use of a retired name, each ``.apply(`` call, each
    subscript of a ``.left`` or ``.right`` attribute and each ``.mats`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.keyword) and node.arg:
            names = [node.arg]
        elif isinstance(node, ast.alias):
            names = [node.asname or node.name]
        found += [f"{name} (line {node.lineno})" for name in names if name in RETIRED]
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        if call and node.func.attr == "apply" and not allow_apply:
            found.append(f".apply( (line {node.lineno})")
        target = node.value if isinstance(node, ast.Subscript) else None
        if isinstance(target, ast.Attribute) and target.attr in ACTION_LISTS:
            found.append(f".{target.attr}[ (line {node.lineno})")
        if isinstance(node, ast.Attribute) and node.attr in PER_ELEMENT_LISTS:
            found.append(f".{node.attr} (line {node.lineno})")
    return sorted(found)


def _is_identity(node, identities: set) -> bool:
    """``Mat.identity(...)``, or a name bound to it."""
    if isinstance(node, ast.Name):
        return node.id in identities
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "identity"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "Mat"
    )


def _is_identity_kron(node, identities: set) -> bool:
    """A ``.kron(...)`` with an identity factor: its receiver or its argument is
    ``Mat.identity(...)``, a name bound to it, or such a ``.kron(...)`` itself."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "kron"):
        return False
    return any(_is_identity(f, identities) or _is_identity_kron(f, identities) for f in (node.func.value, *node.args))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope) -> list:
    """The nodes of a module or function body, not descending into nested functions."""
    nodes, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, FUNCTIONS):
            todo += ast.iter_child_nodes(node)
    return nodes


def _bound(nodes, test) -> set:
    """The names that an assignment among ``nodes`` binds to an expression passing
    ``test``, tuple unpacking included."""
    names = set()
    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and test(v)}
    return names


def _product_operands(node) -> list:
    """The operands of an ``@``, of a ``.mul_ikron(...)`` call (its receiver too) or
    of an ``ikron_mul(...)`` call."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return [node.left, node.right]
    if not isinstance(node, ast.Call):
        return []
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "mul_ikron":
        return [func.value, *node.args]
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return list(node.args) if name == "ikron_mul" else []


def identity_kron_products(source: str) -> list[str]:
    """Each operand of ``@``, ``mul_ikron`` or ``ikron_mul`` that is a Kronecker
    product with an identity factor, written out or through a name bound to one in
    the same function (or in an enclosing one)."""
    found = []

    def visit(scope, identities: set, krons: set):
        nodes = _own_nodes(scope)
        identities = identities | _bound(nodes, lambda v: _is_identity(v, set()))
        krons = krons | _bound(nodes, lambda v: _is_identity_kron(v, identities))
        for node in nodes:
            if isinstance(node, FUNCTIONS):
                visit(node, identities, krons)
                continue
            for operand in _product_operands(node):
                named = isinstance(operand, ast.Name) and operand.id in krons
                if named or _is_identity_kron(operand, identities):
                    found.append(f"{ast.unparse(operand)} (line {operand.lineno})")

    visit(ast.parse(source), set(), set())
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_identity_kron_product(path):
    assert identity_kron_products(path.read_text()) == []


def test_identity_kron_product_use_is_found():
    source = (
        "def f(a, x, n):\n"
        "    I, y = Mat.identity(n), x\n"
        "    lifted = x.kron(I)\n"
        "    b = a @ Mat.identity(n).kron(x)\n"
        "    c = x.kron(I).kron(y) @ a\n"
        "    return b @ lifted + a @ x.kron(y) + a.mul_ikron(n, x, 1)\n"
        "def g(I, x):\n"
        "    return x @ I.kron(x) @ x.kron(Mat.identity(2)) + balance(x.kron(Mat.identity(3)))\n"
    )
    assert identity_kron_products(source) == [
        "Mat.identity(n).kron(x) (line 4)",
        "lifted (line 6)",
        "x.kron(I).kron(y) (line 5)",
        "x.kron(Mat.identity(2)) (line 8)",
    ]


def test_identity_kron_kernel_operand_is_found():
    """The contractions once written as ``ikron_mul`` of a built identity factor,
    the factor bound to a name as ``coev`` was in ``CrossingMap._coev_bullet``."""
    source = (
        "def f(ev, x, g, t, n, dO):\n"
        "    I = Mat.identity(n)\n"
        "    a = linalg.ikron_mul(1, ev, 2, Mat.identity(n).kron(x))\n"
        "    coev = g.coev_one.kron(Mat.identity(n))\n"
        "    b = {k: ikron_mul(dO, t(k), 1, coev) for k in (n, n + 1)}\n"
        "    c = I.kron(x).mul_ikron(1, ev, 2) + x.mul_ikron(n, ev.kron(I), 1)\n"
        "    ok = ikron_mul(1, ev, 2, x.kron(t)) + contract(ev, 2, n, x) + x.mul_ikron(1, ev, n)\n"
        "    return kernel(I.kron(x) - t.kron(I)), balance(coev), a, b, c, ok\n"
    )
    assert identity_kron_products(source) == [
        "I.kron(x) (line 6)",
        "Mat.identity(n).kron(x) (line 3)",
        "coev (line 5)",
        "ev.kron(I) (line 6)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dense_layer(path):
    assert dense_layer_uses(path.read_text(), allow_apply=path.name in APPLY_ALLOWED) == []


def test_dense_layer_use_is_found():
    source = (
        "from .algebra import unit_row\n"
        "def apply_star(x):\n"
        "    return x.star.apply(x)\n"
        "def f(m, sigma_invertible_required=False):\n"
        "    return m.right_apply(unit_row(2, 0), m.mul_tensor)\n"
        "g = Module(sigma_invertible_required=True)\n"
        "h = A.left_mult_matrix\n"
    )
    assert dense_layer_uses(source) == [
        ".apply( (line 3)",
        "apply_star (line 2)",
        "left_mult_matrix (line 7)",
        "mul_tensor (line 5)",
        "right_apply (line 5)",
        "sigma_invertible_required (line 4)",
        "sigma_invertible_required (line 6)",
        "unit_row (line 1)",
        "unit_row (line 5)",
    ]
    assert dense_layer_uses("x = m.apply(v)\n", allow_apply=True) == []


def test_action_list_use_is_found():
    source = (
        "def f(e, A, i):\n"
        "    x = e.left[i] @ e.right[0]\n"
        "    return A.left_mult[i], A.right_mult\n"
        "y = [m for m in omega.left]\n"
        "z = e.left_action @ e.right_action\n"
        "w = pair.left\n"
    )
    assert dense_layer_uses(source) == [
        ".left[ (line 2)",
        ".right[ (line 2)",
        "left_mult (line 3)",
        "right_mult (line 3)",
    ]


def test_per_element_action_list_use_is_found():
    source = (
        "class HModule:\n"
        "    def __init__(self, group, mats):\n"
        "        self.mats = mats\n"
        "def f(v, i):\n"
        "    return v.mats[i] @ v.action, [m.kron(m) for m in v.mats]\n"
        "mats = [w.action]\n"
    )
    assert dense_layer_uses(source) == [".mats (line 3)", ".mats (line 5)", ".mats (line 5)"]


SWAP_ALLOWED = {
    "Algebra.validate",
    "InnerProduct.validate",
    "conjugate_bimodule",
    "dualize_right_module",
    "Geometry.coev_pow",
}


def swap_uses(source: str) -> list[str]:
    """Each use of ``Mat.swap``, called or not, outside the functions in ``SWAP_ALLOWED``,
    named by the classes and functions it sits in."""
    found = []

    def visit(node, scope: tuple):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            is_swap = isinstance(child, ast.Attribute) and child.attr == "swap"
            if is_swap and isinstance(child.value, ast.Name) and child.value.id == "Mat":
                name = ".".join(scope) or "<module>"
                if name not in SWAP_ALLOWED:
                    found.append(f"{name} (line {child.lineno})")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_swap_only_flips_legs(path):
    assert swap_uses(path.read_text()) == []


def test_swap_use_is_found():
    source = (
        "class Algebra:\n"
        "    def validate(self, d):\n"
        "        return self.star @ Mat.swap(d, d)\n"
        "class Bimodule:\n"
        "    def validate(self, d, n):\n"
        "        to_right = Mat.swap(d * d, n)\n"
        "        return [f @ to_right for f in (lambda: Mat.swap(d, n),)]\n"
        "def conjugate_bimodule(e):\n"
        "    def inner(p, q):\n"
        "        return Mat.swap(p, q)\n"
        "    return inner, Mat.swap(e, e)\n"
        "def intertwining_failure(src, swap=Mat.swap):\n"
        "    flip = Mat.swap\n"
        "    return flip(2, 3), swap, src.swap(2, 3)\n"
        "FLIP = Mat.swap(2, 2)\n"
    )
    assert swap_uses(source) == [
        "<module> (line 15)",
        "Bimodule.validate (line 6)",
        "Bimodule.validate (line 7)",
        "conjugate_bimodule.inner (line 10)",
        "intertwining_failure (line 12)",
        "intertwining_failure (line 13)",
    ]


def dict_mismatch_uses(source: str) -> list[str]:
    """Each ``first_mismatch`` call given a dict display or comprehension, and each
    ``isinstance(..., dict)`` in a function named ``first_mismatch``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "first_mismatch" and any(isinstance(a, (ast.Dict, ast.DictComp)) for a in node.args):
                found.append(f"first_mismatch on dicts (line {node.lineno})")
        if isinstance(node, ast.FunctionDef) and node.name == "first_mismatch":
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "isinstance":
                    if any(isinstance(a, ast.Name) and a.id == "dict" for a in inner.args):
                        found.append(f"isinstance(..., dict) in first_mismatch (line {inner.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_per_degree_dict_witness(path):
    assert dict_mismatch_uses(path.read_text()) == []


def test_per_degree_dict_use_is_found():
    source = (
        "def first_mismatch(lhs, rhs, shape):\n"
        "    keyed = isinstance(lhs, dict)\n"
        "def f(a, b):\n"
        "    _add(acc, 0, a)\n"
        "    return first_mismatch({0: a}, {m: b for m in range(2)}, (2,)), linalg.first_mismatch({}, {}, ())\n"
        "def _stacked(blocks, offsets, rows):\n"
        "    return first_mismatch(a, b, (2,)), Graded({0: a}).first_mismatch(Graded(), (2,))\n"
    )
    assert dict_mismatch_uses(source) == [
        "isinstance(..., dict) in first_mismatch (line 2)",
        "first_mismatch on dicts (line 5)",
        "first_mismatch on dicts (line 5)",
    ]
    assert dense_layer_uses(source) == ["_add (line 4)", "_stacked (line 6)"]
