"""Spectral pages by exact subquotients: the test oracle for spectral_pages.

This is the page computation the package used before its filtered column
reduction, kept in method: every page and differential rank is a dimension
of sums of `Subspace`s.  It is slow, and independent of the persistence
pairs that `spectral_pages` reads off `linalg._homology_dims`.  Filtered
complexes are chain complexes with an increasing filtration; a cochain
complex enters as its transpose.  `full_total_complex` builds the total
complex of a (co)cylinder on its full cells, as the package did before it
normalized the H direction: the complex whose pages those of the
normalized one must equal.  `h_normalized_pages` is the route the package
took while it normalized the H direction only: its total complex on the
cells H (x) Hbar^(x)p (x) B^(x)(q+1), and E^0 restored from the
dimensions of the degenerate parts of the cells and the ranks of their
acyclic rows.
"""

from hopfcyclic.crossed import unit_legs
from hopfcyclic.cylinder import CoalgebraCocylinder
from hopfcyclic.homology import FilteredComplex, SSPage, spectral_pages
from hopfcyclic.hopf import check_hopf
from hopfcyclic.linalg import (
    SparseMatrix, Subspace, amplify, col_items, kernel, place, widen,
)


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


def h_normalized_total_complex(cyl, N):
    """(total complex, degenerate) of a (co)cylinder normalized in the H
    direction only, degenerate mapping each cell (p, q) to the dimension
    of its horizontally degenerate part.

    Each (co)face is built on the cells H (x) Hbar^(x)p (x) B^(x)(q+1):
    the B-leg ones `amplify` of the block's product (coproduct), the
    H-leg ones of H's read as P (x) ... m ... (x) C on the Hbar legs
    (`crossed.unit_legs` of H's unit, on the coalgebra side of its counit,
    transposed), and the last ones the (co)cylinder's kernels read on the
    quotient once and passed through the other legs by `widen`."""
    co = isinstance(cyl, CoalgebraCocylinder)
    f, dh, db = cyl.field, cyl.dh, cyl.db
    e = dh - 1
    if co:
        unit, hopf_map, block_map = (cyl.hopf.counit, cyl.hopf.comult,
                                     cyl.C.comult)
        v_kernel = lambda p: cyl.coface_v(p, 0, 1)  # noqa: E731
        h_kernel = lambda q: cyl.coface_h(0, q, 1)  # noqa: E731
    else:
        unit, hopf_map, block_map = cyl.hopf.unit, cyl.hopf.mult, cyl.A.mult
        v_kernel = lambda p: cyl.face_v(p, 1, 1)  # noqa: E731
        h_kernel = lambda q: cyl.face_h(1, q, 1)  # noqa: E731
    check_hopf(cyl.hopf).require("H fails the Hopf axioms")
    C, P = unit_legs(f, unit.transpose() if co else unit)
    left, right = (C.transpose(), P.transpose()) if co else (P, C)

    def on(one, free, bars, tail):
        """I_free (x) one^(x)bars (x) I_tail, bars >= 1."""
        out = one
        for _ in range(bars - 1):
            out = out.kron(one)
        return amplify(out, free, tail)

    def quotient(m, tgt, src):
        """m, a map from the chain cell src to tgt (its transpose on the
        coalgebra side), each given as (free, bars, tail) legs, read on
        the quotient."""
        if co:
            tgt, src = src, tgt
        if src[1]:
            m = m @ on(right, *src)
        if tgt[1]:
            m = on(left, *tgt) @ m
        return m

    def passing(m, mid, tgt_lo, src_lo):
        return widen(m, mid, src_lo, tgt_lo) if co \
            else widen(m, mid, tgt_lo, src_lo)

    first = quotient(hopf_map, (dh, 0, 1), (dh, 1, 1))
    inner = quotient(hopf_map, (1, 1, 1), (1, 2, 1))
    kernel_v = [quotient(v_kernel(p), (dh, p, db), (dh, p, db * db))
                for p in range(N)]
    kernel_h = [quotient(h_kernel(q), (dh, 0, db ** (q + 1)),
                         (dh, 1, db ** (q + 1))) for q in range(N)]
    cells, dims, degenerate = [], [], {}
    for n in range(N + 1):
        row, off = [], 0
        for q in range(n, -1, -1):
            p = n - q
            dim = dh * e ** p * db ** (q + 1)
            row.append((p, q, off, dim))
            degenerate[(p, q)] = cyl.space_dim(p, q) - dim
            off += dim
        cells.append(row)
        dims.append(off)
    d = {}
    for n in range(1, N + 1):
        below = {q: off for _, q, off, _ in cells[n - 1]}
        terms = []
        for p, q, off, _ in cells[n]:
            if q >= 1:
                sign = -1 if p % 2 else 1
                to = below[q - 1]
                hb = dh * e ** p
                terms += [(sign * (-1) ** i,
                           amplify(block_map, hb * db ** i, db ** (q - 1 - i)),
                           to, off, co) for i in range(q)]
                last = kernel_v[p]
                if q > 1:
                    last = passing(last, db ** (q - 1), 1, db)
                terms.append((sign * (-1) ** q, last, to, off, co))
            if p >= 1:
                to = below[q]
                tail = db ** (q + 1)
                terms.append((1, amplify(first, 1, e ** (p - 1) * tail), to,
                              off, co))
                terms += [((-1) ** i, amplify(inner, dh * e ** (i - 1),
                                              e ** (p - 1 - i) * tail),
                           to, off, co) for i in range(1, p)]
                last = kernel_h[q]
                if p > 1:
                    last = passing(last, e ** (p - 1), tail, e * tail)
                terms.append(((-1) ** p, last, to, off, co))
        d[n] = place(f, dims[n - 1], dims[n], terms)
    return FilteredComplex(f, dims, d, cells, N), degenerate


def h_normalized_pages(cyl, N, rmax, window):
    """The pages of the (co)cylinder's total complex through N as the
    route normalized in the H direction only gives them: those of its
    complex, with E^0 restored by adding to each position (i, j) = (q, p)
    the degenerate part of its cell, and to each d^0 rank out of (into)
    it the rank of that part's acyclic row out of p (p + 1): the sum over
    k < p (p + 1) of (-1)^(p-1-k) (-1)^(p-k) times the degenerate
    dimension at (k, q)."""
    fc, degenerate = h_normalized_total_complex(cyl, N)
    pages = spectral_pages(fc, rmax, window)

    def acyclic_rank(p, q):
        return sum((-1) ** (p - 1 - k) * degenerate.get((k, q), 0)
                   for k in range(p))

    e0 = pages[0]
    for (i, j) in e0.table:
        e0.table[(i, j)] += degenerate.get((j, i), 0)
        e0.diff_ranks[(i, j)] += acyclic_rank(j, i)
        e0.diff_ranks_in[(i, j)] += acyclic_rank(j + 1, i)
    return pages
