"""Connes' complex through the orbit matrices: the independent test oracle
over Q for the cyclic homology that the package ranks on the normalized
(b, B) total complex.

HC_n = H_n(C_n / (1 - lambda), b), lambda = (-1)^n t, when Q is inside the
field (Connes 1985; Loday, Cyclic Homology, 2.1.5): no B, no total complex,
no normalization.  The oracle takes a built (co)cyclic module, forms the
projection P onto the signed orbits and the section S (`_signed_orbits`),
checks that b descends as P b lambda = P b, and ranks P b S.  It also runs
on a module whose operators were altered after building.
"""

from hopfcyclic.homology import (
    _as_cyclic, _check_truncation, _degree_pairs, _signed_cyclic,
    hochschild_boundary,
)
from hopfcyclic.errors import MixedIdentityFailure
from hopfcyclic.linalg import SparseMatrix, _homology_dims


def _signed_orbits(field, d, n):
    """(P, S) for the orbits of the basis tensors of (k^d)^(x)(n+1) under
    lambda = (-1)^n t, t a rotation of the factors.

    An orbit {x, t x, ..., t^(s-1) x} has lambda^s x = (-1)^(ns) x, so when
    n s is odd, 1 - lambda kills it and it carries no invariant.  Every other
    orbit is one basis vector [x] of C_n/(1 - lambda), x its least index.
    P: C_n -> C_n/(1 - lambda) sends t^k x to (-1)^(nk) [x] and S sends [x]
    to x, so P S = 1.  A rotation either way gives the same orbits, signs
    and quotient.
    """
    size = d ** (n + 1)
    top = d ** n
    neg = field.neg(field.one())
    seen = bytearray(size)
    proj, pick = {}, {}
    for x in range(size):
        if seen[x]:
            continue
        orbit = [x]
        y = (x % d) * top + x // d
        while y != x:
            orbit.append(y)
            y = (y % d) * top + y // d
        for y in orbit:
            seen[y] = 1
        if n * len(orbit) % 2:
            continue
        k = len(pick)
        for step, y in enumerate(orbit):
            proj[(k, y)] = neg if n * step % 2 else 1
        pick[(x, k)] = 1
    return (SparseMatrix._settled(field, len(pick), size, proj),
            SparseMatrix._settled(field, size, len(pick), pick))


def connes_dims(ops, nmax):
    """Cyclic homology dims through degree nmax (nmax <= N-1) from Connes'
    complex, with no B and no total complex; a cocyclic module is
    transposed first (its lambda-invariant cochains are spanned by the
    transposed P).

    Needs Q inside the field and a tensor-power module, C_n = C_0^(x)(n+1)
    with t rotating the factors, as built by `cyclic_module_of_algebra` and
    `cocyclic_module_of_coalgebra`.  With (P, S) of `_signed_orbits`, b_n
    descends to P_{n-1} b_n S_n on C/(1 - lambda), checked as
    P_{n-1} b_n lambda_n = P_{n-1} b_n (MixedIdentityFailure otherwise), and
    `_homology_dims` checks that the induced differential squares to zero.
    """
    f = ops.field
    if f.p is not None:
        raise ValueError("Connes' complex computes HC only when Q is inside "
                         "the field")
    ops = _as_cyclic(ops)
    _check_truncation(nmax, ops.N)
    d = ops.dim(0)
    if any(ops.dim(n) != d ** (n + 1) for n in range(ops.N + 1)):
        raise ValueError("Connes' complex needs C_n = C_0^(x)(n+1)")
    orbits = {}

    def maps(n):
        if n not in orbits:
            orbits[n] = _signed_orbits(f, d, n)
        return orbits[n]

    def diff(n):
        pb = maps(n - 1)[0] @ hochschild_boundary(ops, n)
        if pb @ _signed_cyclic(ops, n) != pb:
            raise MixedIdentityFailure(
                "b does not descend to C/(1 - lambda) at degree %d" % n)
        return pb @ maps(n)[1]

    return _homology_dims(_degree_pairs(f, d, diff, nmax))
