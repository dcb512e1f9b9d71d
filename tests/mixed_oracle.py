"""The mixed identities by one product per block: the test oracle for
`homology.check_mixed_complex`.

The package reads b b, B B and bB + Bb off the composites D_(n-1) D_n of
the total complex, which the cyclic ranks check too, and multiplies only
the blocks those composites do not reach.  This is the check it ran before,
kept verbatim: each identity at each degree by its own products, b b before
B B before bB + Bb, each by ascending degree.  `unchecked` copies a mixed
complex into fresh matrices that carry no verified composite, so the ranks
on the copy form every composite again.
"""

from hopfcyclic.errors import MixedIdentityFailure
from hopfcyclic.homology import MixedComplex
from hopfcyclic.linalg import SparseMatrix


def check_mixed_complex(mc):
    """b^2 = 0, B^2 = 0, bB + Bb = 0, exactly; raises MixedIdentityFailure."""
    N = mc.N
    for n in range(2, N + 1):
        if not (mc.b[n - 1] @ mc.b[n]).is_zero():
            raise MixedIdentityFailure("b b != 0 at degree %d" % n)
    for n in range(N - 1):
        if not (mc.B[n + 1] @ mc.B[n]).is_zero():
            raise MixedIdentityFailure("B B != 0 at degree %d" % n)
    for n in range(1, N):
        anti = mc.b[n + 1] @ mc.B[n] + mc.B[n - 1] @ mc.b[n]
        if not anti.is_zero():
            raise MixedIdentityFailure("bB + Bb != 0 at degree %d" % n)


def _fresh(m):
    return SparseMatrix._settled(m.field, m.rows, m.cols, dict(m.entries))


def unchecked(mc, b=(), B=()):
    """A copy of mc in fresh matrices, with copies of the b and B of the
    given dicts in place of its own; nothing on it is checked."""
    bs = {n: _fresh(m) for n, m in {**mc.b, **dict(b)}.items()}
    Bs = {n: _fresh(m) for n, m in {**mc.B, **dict(B)}.items()}
    return MixedComplex(mc.field, list(mc.dims), bs, Bs, mc.N)
