"""Spectral pages by exact subquotients: the test oracle for spectral_pages.

This is the page computation the package used before its filtered column
reduction, kept verbatim in method: every page and differential rank is a
dimension of sums of `Subspace`s.  It is slow, and independent of
`linalg.column_pairs`.
"""

from hopfcyclic.homology import SSPage
from hopfcyclic.linalg import SparseMatrix, Subspace, kernel


def _cached(memo, key, build):
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


def _z_subspace(fc, r, i, n, memo):
    """Z^r at filtration index i, total degree n: x in F_i with dx r steps
    deeper in the filtration.  Out-of-range filtration indices resolve to the
    zero subspace / the whole space through filtration_coords.  memo is the
    calling oracle_pages' dict of subspaces."""

    def build():
        f = fc.field
        if n < 0 or n > fc.N:
            return Subspace(f, 0)
        basis = fc.filtration(i, n)
        s = 1 if not fc.cochain else -1
        tgt = n - s
        j = i - s * r
        if tgt < 0 or tgt > fc.N:
            return basis
        dmat = fc.d[n]
        bm = basis.basis_matrix()
        img = dmat @ bm
        inside = set(fc.filtration_coords(j, tgt))
        comp = [c for c in range(fc.dim(tgt)) if c not in inside]
        pos = {c: k for k, c in enumerate(comp)}
        ent = {}
        for (rr, cc), v in img.entries.items():
            if rr in pos:
                ent[(pos[rr], cc)] = v
        proj = SparseMatrix(f, len(comp), basis.dim, ent)
        ker = kernel(proj)
        lifted = bm @ ker.basis_matrix()
        return Subspace(f, fc.dim(n),
                        [lifted.column(k) for k in range(ker.dim)])
    return _cached(memo, ("z", r, i, n), build)


def _boundary_part(fc, r, i, n, memo):
    """d(Z^{r-1} at filtration i +/- (r-1), degree next to n), as a Subspace."""

    def build():
        s = 1 if not fc.cochain else -1
        prev_n = n + s
        if prev_n < 0 or prev_n > fc.N:
            return Subspace(fc.field, fc.dim(n))
        src = _z_subspace(fc, r - 1, i + s * (r - 1), prev_n, memo)
        img = fc.d[prev_n] @ src.basis_matrix()
        return Subspace(fc.field, fc.dim(n),
                        [img.column(k) for k in range(src.dim)])
    return _cached(memo, ("b", r, i, n), build)


def oracle_pages(fc, rmax, window):
    """Pages E^0..E^rmax of the filtered complex, by exact subquotient counts.

    E^r at (i, j) (filtration degree, complementary degree; total n = i + j)
    is Z^r_{i,n} / (Z^{r-1}_{one step shallower} + d Z^{r-1}_{r-1 steps on the
    incoming side}); the differential rank at (i, j) is computed the same way
    on the target position.  Entries need total degree <= N-1 so that both
    incoming and outgoing boundaries stay inside the truncation.
    """
    imax, jmax = window
    s = 1 if not fc.cochain else -1
    memo = {}
    pages = []
    for r in range(rmax + 1):
        table = {}
        ranks = {}
        for i in range(imax + 1):
            for j in range(jmax + 1):
                n = i + j
                if n > fc.N - 1:
                    continue
                z = _z_subspace(fc, r, i, n, memo)
                den = _z_subspace(fc, r - 1, i - s, n, memo).sum(
                    _boundary_part(fc, r, i, n, memo))
                table[(i, j)] = z.dim - den.dim
                # rank of d_r: (i, j) -> (i - s*r, j + s*r - 1) at degree n - s
                out_n = n - s
                if 0 <= out_n <= fc.N:
                    ti = i - s * r
                    t_den = _z_subspace(fc, r - 1, ti - s, out_n, memo).sum(
                        _boundary_part(fc, r, ti, out_n, memo))
                    dz = fc.d[n] @ z.basis_matrix()
                    total = t_den.sum(Subspace(
                        fc.field, fc.dim(out_n),
                        [dz.column(k) for k in range(z.dim)]))
                    ranks[(i, j)] = total.dim - t_den.dim
                else:
                    ranks[(i, j)] = 0
        pages.append(SSPage(r, table, ranks))
    return pages
