"""The bump sweep: every single-entry bump of a built-in bundle, loaded unvalidated
and verified.

Each scalar literal of the document in turn is set to each of ``VALUES`` (an
entry already equal to the value is skipped), and the document is loaded with
``validate=False``.  A load may fail only with a named ``ValidationError`` or
``ParseError``; any other exception, from the load or from ``verify_all``,
escapes.  The ``connections`` and ``sobolev`` bodies of the documents that
load are kept in order.

``tests/test_witnesses.py`` sweeps two-point-universal and pins the digest of
its bodies.  Run as a script, the sweep takes one built-in (z3 by default:
10,323 documents, about 4.5 min on a 2-core machine), prints its counts and
exits 1 with a traceback if any exception escapes::

    PYTHONPATH=src python tests/bump_sweep.py [bundle]
"""

from collections import Counter
import functools
import hashlib
import sys

from ncdiffop.bundle import ParseError, builtin_bundle_dict, load_bundle_dict
from ncdiffop.report import ValidationError
from ncdiffop.verify import verify_all

VALUES = ("5", "-1", "1/2")


def literal_paths(doc, path=()):
    """The path of every scalar literal of a bundle document, in document order: each
    text inside a list, but for basis names."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "basis":
                yield from literal_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            if isinstance(value, str):
                yield path + (i,)
            else:
                yield from literal_paths(value, path + (i,))


def builtin_with(name: str, path, value) -> dict:
    """A fresh document of the built-in ``name`` with the entry at ``path`` set to ``value``."""
    doc = builtin_bundle_dict(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def sweep(name: str) -> tuple[Counter, list[str]]:
    """The failed loads counted by error class, and the bodies of the documents that load."""
    base = builtin_bundle_dict(name)
    failures, bodies = Counter(), []
    for path in literal_paths(base):
        entry = functools.reduce(lambda x, key: x[key], path, base)
        for value in VALUES:
            if entry == value:
                continue
            try:
                bundle = load_bundle_dict(builtin_with(name, path, value), validate=False)
            except (ValidationError, ParseError) as err:
                failures[type(err).__name__] += 1
                continue
            bodies.append(verify_all(bundle, ["connections", "sobolev"], degree=2, seed=7).body_json())
    return failures, bodies


def bodies_digest(bodies: list[str]) -> str:
    return hashlib.sha256("\n".join(bodies).encode()).hexdigest()


def main(argv: list[str]) -> int:
    name = argv[0] if argv else "z3-function-calculus"
    failures, bodies = sweep(name)
    print(f"{name}: {sum(failures.values()) + len(bodies)} documents")
    for cls, count in sorted(failures.items()):
        print(f"  load failures {cls}: {count}")
    print(f"  bodies: {len(bodies)} ({len(set(bodies))} distinct), digest {bodies_digest(bodies)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
