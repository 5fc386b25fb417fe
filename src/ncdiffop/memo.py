"""The one caching rule of the kernel: a lazily built structure, or the
witness of an identity checked on one degree, is computed once per argument
tuple and kept on the instance that computes it.

``@memo`` on a method stores its results in a dict held in the instance's
``__dict__`` under the method's name with a leading underscore (``ev_pow``
caches in ``_ev_pow``, keyed by ``(n,)``).  The cache therefore lives and
dies with its instance.  A build that raises stores nothing, so the same call
raises again.  Keyword arguments are not part of the key: they hand the body
blocks its caller holds already, and must not change what it returns.

An ``over`` copy (``shared_copy``) reads the same caches as the instance it
copies: every cache is made on the instance first, so an entry either of the
two builds, before the copy or after, the other reads.  A copy differs only in
what no cached result depends on, such as the name an error is raised under.

The crossing checks keep their per-degree witnesses by this rule too, so each
identity reads its blocks once: a block must not be changed after a check has
read it (the witness tests corrupt blocks before any check runs).
"""

from __future__ import annotations

import copy
import functools


def memo(method):
    attr = "_" + method.__name__

    @functools.wraps(method)
    def cached(self, *args, **shared):
        try:
            return self.__dict__[attr][args]
        except KeyError:
            pass
        out = method(self, *args, **shared)
        self.__dict__.setdefault(attr, {})[args] = out
        return out

    cached.cache_name = attr
    return cached


def shared_copy(instance, **changes):
    """A shallow copy of ``instance`` with the attributes ``changes`` set, holding the
    very cache dicts of every ``@memo`` method of its class."""
    cls = type(instance)
    for name in dir(cls):
        attr = getattr(getattr(cls, name), "cache_name", None)
        if attr is not None:
            instance.__dict__.setdefault(attr, {})
    twin = copy.copy(instance)
    twin.__dict__.update(changes)
    return twin
