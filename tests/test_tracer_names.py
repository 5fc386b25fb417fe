"""The benchmark's tracer patches functions of ``ncdiffop`` by name; every
name it lists must still resolve, or only a traced benchmark run would notice.
The same holds for what it reads without a list: the scalar operators it
counts, the sparse columns of the matrices ``Mat.apply`` reads, and the
rational type the benchmark's environment block names.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only; nothing is patched at import
    return module


def load_tracer():
    return load("tracer")


def test_tracer_targets_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS and tracer.CHECK_CLASSES
    for mod_name, path, span, _ in tracer.TARGETS:
        owner = importlib.import_module(f"ncdiffop.{mod_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: ncdiffop.{mod_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: ncdiffop.{mod_name}.{path} is not callable"
    for mod_name, cls_name, span in tracer.CHECK_CLASSES:
        cls = getattr(importlib.import_module(f"ncdiffop.{mod_name}"), cls_name, None)
        assert isinstance(cls, type), f"{span}: ncdiffop.{mod_name}.{cls_name} is gone"
        assert any(a.startswith("check_") or a == "extra_checks" for a in vars(cls)), cls_name


def test_tracer_hooks_resolve():
    from ncdiffop import scalars
    from ncdiffop.linalg import Mat

    tracer = load_tracer()
    for attr, _ in tracer.SCALAR_OPS:  # patched out of the class dict, not looked up through the MRO
        assert callable(vars(scalars.Scalar).get(attr)), f"Scalar.{attr} is gone"
    counting = tracer.Tracer("names", counting=True)
    counting._count_apply((Mat.identity(3), [scalars.ONE] * 3))  # reads Mat._cols_sparse
    assert (counting.apply_entries, counting.apply_nonzeros) == (9, 3)
    backend = load("harness").environment()["scalar_backend"]
    assert backend == f"{scalars._mpq.__module__}.{scalars._mpq.__qualname__}"
