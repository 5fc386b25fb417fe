"""Element-by-element oracles that tests compare the matrix identities with.

The library works with whole matrices; these read one element at a time
through a tensor pair's projection and section, or through the pairing of a
dual basis, the way the checks were written before they became identities.
"""

from ncdiffop.linalg import kron_vec


def lift(pair, vec):
    """The canonical plain-tensor representative of an element of E (x)_A F."""
    return pair.section.apply(vec)


def push(pair, plain):
    """The class in E (x)_A F of a plain tensor."""
    return pair.project.apply(plain)


def pair_apply(fgp, alpha, xi):
    """A dual element evaluated on a module element, landing in A."""
    return fgp.apply_mat.apply(kron_vec(alpha, xi))
