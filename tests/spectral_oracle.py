"""Spectral pages by exact subquotients: the test oracle for spectral_pages.

This is the page computation the package used before its filtered column
reduction, kept in method: every page and differential rank is a dimension
of sums of `Subspace`s.  It is slow, and independent of the persistence
pairs that `spectral_pages` reads off `linalg._homology_dims`.  Filtered
complexes are chain complexes with an increasing filtration; a cochain
complex enters as its transpose.  `full_total_complex` builds the total
complex of a (co)cylinder on its full cells, as the package did before it
normalized the H direction: the complex whose pages those of the
normalized one must equal.
"""

from hopfcyclic.cylinder import CoalgebraCocylinder
from hopfcyclic.homology import FilteredComplex, SSPage
from hopfcyclic.linalg import SparseMatrix, Subspace, col_items, kernel, place


def filtration_coords(fc, i, n):
    """Ambient coordinates spanning F_i T_n: those of the cells q <= i."""
    if n < 0 or n > fc.N:
        return []
    return [c for (_, q, off, dim) in fc.cells[n] if q <= i
            for c in range(off, off + dim)]


def find_cell(fc, n, p, q):
    """The cell (p, q, offset, dim) of T_n."""
    for cell in fc.cells[n]:
        if cell[0] == p and cell[1] == q:
            return cell
    raise KeyError("no cell (p=%d, q=%d) in degree %d" % (p, q, n))


def cell_block(fc, n, src_cell, dst_cell):
    """The block of d_n between two cells, as a matrix."""
    _, _, soff, sdim = src_cell
    _, _, doff, ddim = dst_cell
    return SparseMatrix(fc.field, ddim, sdim, {
        (i - doff, j): v for j in range(sdim)
        for i, v in col_items(fc.d[n].columns.get(soff + j, ()))
        if doff <= i < doff + ddim})


def _cached(memo, key, build):
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


def _z_subspace(fc, r, i, n, memo):
    """Z^r at filtration index i, total degree n: x in F_i with dx r steps
    deeper in the filtration.  Out-of-range filtration indices resolve to the
    zero subspace / the whole space through `filtration_coords`.  memo is the
    calling oracle_pages' dict of subspaces."""

    def build():
        f = fc.field
        if n < 0 or n > fc.N:
            return Subspace(f, 0)
        basis = Subspace(f, fc.dim(n), [{c: f.one()}
                                        for c in filtration_coords(fc, i, n)])
        tgt = n - 1
        j = i - r
        if tgt < 0 or tgt > fc.N:
            return basis
        dmat = fc.d[n]
        bm = basis.basis_matrix()
        img = dmat @ bm
        inside = set(filtration_coords(fc, j, tgt))
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
    """d(Z^{r-1} at filtration i + r - 1, degree n + 1), as a Subspace."""

    def build():
        prev_n = n + 1
        if prev_n > fc.N:
            return Subspace(fc.field, fc.dim(n))
        src = _z_subspace(fc, r - 1, i + r - 1, prev_n, memo)
        img = fc.d[prev_n] @ src.basis_matrix()
        return Subspace(fc.field, fc.dim(n),
                        [img.column(k) for k in range(src.dim)])
    return _cached(memo, ("b", r, i, n), build)


def _denominator(fc, r, i, n, memo):
    """Z^{r-1} one step shallower plus the incoming boundaries: E^r at
    filtration i, degree n, is Z^r modulo this."""
    z = _z_subspace(fc, r - 1, i - 1, n, memo)
    return Subspace(fc.field, fc.dim(n),
                    z.basis + _boundary_part(fc, r, i, n, memo).basis)


def _rank_out(fc, r, i, n, memo):
    """Rank of d^r out of filtration i, total degree n, into
    (i - r, degree n - 1): the dimension its image adds to the target's
    denominator."""
    if not 1 <= n <= fc.N:
        return 0
    z = _z_subspace(fc, r, i, n, memo)
    t_den = _denominator(fc, r, i - r, n - 1, memo)
    dz = fc.d[n] @ z.basis_matrix()
    total = Subspace(fc.field, fc.dim(n - 1),
                     t_den.basis + [dz.column(k) for k in range(z.dim)])
    return total.dim - t_den.dim


def oracle_pages(fc, rmax, window):
    """Pages E^0..E^rmax of the filtered complex, by exact subquotient counts.

    E^r at (i, j) (filtration degree, complementary degree; total n = i + j)
    is Z^r_{i,n} / (Z^{r-1}_{i-1,n} + d Z^{r-1}_{i+r-1,n+1}); the rank of d^r
    out of (i, j) is computed the same way on the target position, and the
    rank into (i, j) is the rank out of (i + r, j - r + 1).  Entries need
    total degree <= N-1 so that both incoming and outgoing boundaries stay
    inside the truncation.
    """
    imax, jmax = window
    memo = {}
    pages = []
    for r in range(rmax + 1):
        table = {}
        ranks = {}
        ranks_in = {}
        for i in range(imax + 1):
            for j in range(jmax + 1):
                n = i + j
                if n > fc.N - 1:
                    continue
                table[(i, j)] = _z_subspace(fc, r, i, n, memo).dim \
                    - _denominator(fc, r, i, n, memo).dim
                ranks[(i, j)] = _rank_out(fc, r, i, n, memo)
                ranks_in[(i, j)] = _rank_out(fc, r, i + r, n + 1, memo)
        pages.append(SSPage(r, table, ranks, ranks_in))
    return pages


def full_total_complex(cyl, N):
    """The total complex of a cylinder (or the transpose of a cocylinder's)
    on the full cells H^(x)(p+1) (x) B^(x)(q+1), q descending, summed from
    every (co)face."""
    co = isinstance(cyl, CoalgebraCocylinder)
    kind = cyl.family[0]

    def terms(direction, p, q):
        """The signed (co)faces of b_v or b_h out of the chain cell (p, q),
        read at their cochain source on the coalgebra side."""
        if co:
            p, q = (p - 1, q) if direction == "h" else (p, q - 1)
        op = getattr(cyl, kind + "_" + direction)
        count = (q if direction == "v" else p) + 1 + co
        return [((-1) ** i, op(p, q, i)) for i in range(count)]

    cells, dims = [], []
    for n in range(N + 1):
        row, off = [], 0
        for q in range(n, -1, -1):
            dim = cyl.space_dim(n - q, q)
            row.append((n - q, q, off, dim))
            off += dim
        cells.append(row)
        dims.append(off)
    d = {}
    for n in range(1, N + 1):
        below = {q: off for _, q, off, _ in cells[n - 1]}
        placed = []
        for p, q, off, _ in cells[n]:
            if q >= 1:
                sign = -1 if p % 2 else 1
                placed += [(sign * c, m, below[q - 1], off, co)
                           for c, m in terms("v", p, q)]
            if p >= 1:
                placed += [(c, m, below[q], off, co)
                           for c, m in terms("h", p, q)]
        d[n] = place(cyl.field, dims[n - 1], dims[n], placed)
    return FilteredComplex(cyl.field, dims, d, cells, N)
