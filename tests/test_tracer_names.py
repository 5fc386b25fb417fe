"""The benchmark's tracer patches functions of ``ncdiffop`` by name; every
name it lists must still resolve, or only a traced benchmark run would notice.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only; nothing is patched at import
    return module


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
