"""The one caching rule of the kernel: a lazily built structure is built once
per argument tuple and kept on the instance that builds it.

``@memo`` on a method stores its results in a dict held in the instance's
``__dict__`` under the method's name with a leading underscore (``ev_pow``
caches in ``_ev_pow``, keyed by ``(n,)``).  The cache therefore lives and
dies with its instance.  A build that raises stores nothing, so the same call
raises again.
"""

from __future__ import annotations

import functools


def memo(method):
    attr = "_" + method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        try:
            return self.__dict__[attr][args]
        except KeyError:
            pass
        out = method(self, *args)
        self.__dict__.setdefault(attr, {})[args] = out
        return out

    return cached
