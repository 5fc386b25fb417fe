"""Element-by-element oracles that tests compare the matrix identities with.

The library works with whole matrices and one-column sparse coordinates;
these read one element at a time through dense coordinate lists: through a
tensor pair's projection and section, the pairing of a dual basis, or a
product table applied to a dense Kronecker vector, the way the library
computed them before they became products.
"""

from ncdiffop.linalg import Mat, kron_vec
from ncdiffop.scalars import ZERO


def col(coords) -> Mat:
    """Dense coordinates as a one-column matrix."""
    return Mat.from_cols([coords])


def vec_is_zero(x) -> bool:
    return all(a is ZERO or not a for a in x)


def lift(pair, vec):
    """The canonical plain-tensor representative of an element of E (x)_A F."""
    return pair.section.apply(vec)


def push(pair, plain):
    """The class in E (x)_A F of a plain tensor."""
    return pair.project.apply(plain)


def pair_apply(fgp, alpha, xi):
    """A dual element evaluated on a module element, landing in A."""
    return fgp.apply_mat.apply(kron_vec(alpha, xi))


def bullet_k(table, v, n, w, m, k):
    """v o_k w on dense coordinates of V(n) and V(m)."""
    return table.table(n, m, k).apply(kron_vec(v, w))


def bullet(x, y, table) -> dict:
    """The dense components, keyed by degree, of the product x bullet y."""
    out = {}
    for n in x.components:
        for m in y.components:
            for k in range(n + m + 1):
                term = bullet_k(table, x.component(n), n, y.component(m), m, k)
                if not vec_is_zero(term):
                    out[k] = [a + b for a, b in zip(out[k], term)] if k in out else term
    return out


def act_on(x, module, e):
    """The operator x applied to a dense module element, summed degree by degree."""
    out = [ZERO] * module.space.dim
    for n in x.components:
        term = module.act_table(n).apply(kron_vec(x.component(n), e))
        out = [a + b for a, b in zip(out, term)]
    return out


def right_bullet_by_algebra(table, n, a_coords, v_coords) -> dict:
    """v bullet a for homogeneous v of degree n.

    The top component is the plain right action; every lower degree picks up
    an iterated-derivative term, all the way down to degree zero.
    """
    out = {}
    for k in range(n, -1, -1):
        term = table.table(n, 0, k).apply(kron_vec(v_coords, a_coords))
        if any(term):
            out[k] = term
    return out


def crossing_apply(cm, n, v_coords, e_coords) -> dict:
    """theta on a degree-n tensor v (x) e; dense quotient coordinates per degree."""
    x = kron_vec(v_coords, e_coords)
    return {m: mat.apply(x) for m, mat in cm.theta[n].items()}
