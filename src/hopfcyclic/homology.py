"""Mixed complexes, Hopf-(co)module (co)homology, total complexes, pages.

Everything here reduces to exact rank computations.  The degree-raising
operator of a mixed complex is built as (1 - signed_cyclic) . extra_degeneracy
. norm, with the extra degeneracy t s_n (chain side) and its mirror on the
cochain side; the three mixed-complex identities are asserted, never assumed.

The total complex of a cylinder carries d = (-1)^p b_vertical + b_horizontal
(the sign lives on the vertical part and depends on the horizontal degree, as
required by d^2 = 0 for commuting boundaries) and is filtered by the vertical
degree; spectral-sequence pages come from the standard exact subquotient
counts of a filtered complex.
"""

from __future__ import annotations

from .crossed import CocyclicOps, CyclicOps
from .errors import (
    BoundaryNotSquareZero, CoboundaryNotSquareZero, FiltrationViolation,
    HomotopyFailure, MixedIdentityFailure, NotCosemisimple, NotSemisimple,
    TotalNotSquareZero, TruncationTooShallow,
)
# `rank` is not called here but stays bound on purpose: perfbench's self-test
# checks that the tracer rebinds a function imported by name elsewhere.
from .linalg import (  # noqa: F401
    SparseMatrix, Subspace, _homology_dims, block_matrix, kernel, rank,
)


class MixedComplex:
    """Spaces with b (degree -1) and B (degree +1); cochain swaps directions.

    Chain side: b[n]: M_n -> M_{n-1} (1 <= n <= N), B[n]: M_n -> M_{n+1}
    (0 <= n <= N-1).  Cochain side: b[n]: M^n -> M^{n+1} (0 <= n <= N-1),
    B[n]: M^n -> M^{n-1} (1 <= n <= N).
    """

    def __init__(self, field, dims, b, B, N, cochain=False):
        self.field = field
        self.dims = dims
        self.b = b
        self.B = B
        self.N = N
        self.cochain = cochain

    def dim(self, n):
        return self.dims[n]


def _signed_cyclic(ops, n):
    f = ops.field
    t = ops.t(n)
    return t if n % 2 == 0 else t.scale(f.neg(f.one()))


def _norm(ops, n):
    f = ops.field
    lam = _signed_cyclic(ops, n)
    out = SparseMatrix.identity(f, ops.dim(n))
    acc = SparseMatrix.identity(f, ops.dim(n))
    for _ in range(n):
        acc = lam @ acc
        out = out + acc
    return out


def mixed_complex(ops: CyclicOps, check=True) -> MixedComplex:
    """Chain mixed complex of a cyclic module: b alternating faces,
    B = (1 - lambda) (t s_n) N."""
    f = ops.field
    N = ops.N
    b = {}
    for n in range(1, N + 1):
        acc = SparseMatrix.zeros(f, ops.dim(n - 1), ops.dim(n))
        sign = f.one()
        for i in range(n + 1):
            acc = acc + ops.face(n, i).scale(sign)
            sign = f.neg(sign)
        b[n] = acc
    B = {}
    for n in range(N):
        s_extra = ops.t(n + 1) @ ops.degen(n, n)
        one_minus = SparseMatrix.identity(f, ops.dim(n + 1)) \
            - _signed_cyclic(ops, n + 1)
        B[n] = one_minus @ s_extra @ _norm(ops, n)
    mc = MixedComplex(f, [ops.dim(n) for n in range(N + 1)], b, B, N)
    if check:
        check_mixed_complex(mc)
    return mc


def cochain_mixed_complex(ops: CocyclicOps, check=True) -> MixedComplex:
    """Cochain mixed complex of a cocyclic module: b alternating cofaces,
    B = N (sig^n t) (1 - lambda)."""
    f = ops.field
    N = ops.N
    b = {}
    for n in range(N):
        acc = SparseMatrix.zeros(f, ops.dim(n + 1), ops.dim(n))
        sign = f.one()
        for i in range(n + 2):
            acc = acc + ops.coface(n, i).scale(sign)
            sign = f.neg(sign)
        b[n] = acc
    B = {}
    for n in range(1, N + 1):
        s_extra = ops.codegen(n, n - 1) @ ops.t(n)
        one_minus = SparseMatrix.identity(f, ops.dim(n)) - _signed_cyclic(ops, n)
        B[n] = _norm(ops, n - 1) @ s_extra @ one_minus
    mc = MixedComplex(f, [ops.dim(n) for n in range(N + 1)], b, B, N,
                      cochain=True)
    if check:
        check_mixed_complex(mc)
    return mc


def check_mixed_complex(mc: MixedComplex):
    """b^2 = 0, B^2 = 0, bB + Bb = 0, exactly; raises MixedIdentityFailure."""
    N = mc.N
    if not mc.cochain:
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
    else:
        for n in range(N - 1):
            if not (mc.b[n + 1] @ mc.b[n]).is_zero():
                raise MixedIdentityFailure("b b != 0 at degree %d" % n)
        for n in range(2, N + 1):
            if not (mc.B[n - 1] @ mc.B[n]).is_zero():
                raise MixedIdentityFailure("B B != 0 at degree %d" % n)
        for n in range(1, N):
            anti = mc.B[n + 1] @ mc.b[n] + mc.b[n - 1] @ mc.B[n]
            if not anti.is_zero():
                raise MixedIdentityFailure("bB + Bb != 0 at degree %d" % n)


def _zero_in(field, dim):
    return SparseMatrix.zeros(field, dim, 0)


def _zero_out(field, dim):
    return SparseMatrix.zeros(field, 0, dim)


def _degree_pairs(field, dim0, diff, nmax, cochain):
    """(d_out, d_in) at degrees 0..nmax, calling diff(n) once per degree.

    Chain side: d_out = diff(n) (zero at n = 0), d_in = diff(n + 1).
    Cochain side: d_out = diff(n), d_in = diff(n - 1) (zero at n = 0).
    dim0 is the dimension in degree 0.  Pairs are built as they are
    consumed, so an error surfaces at the first degree that has it.
    """
    prev = _zero_in(field, dim0) if cochain else _zero_out(field, dim0)
    for n in range(nmax + 1):
        nxt = diff(n) if cochain else diff(n + 1)
        yield (nxt, prev) if cochain else (prev, nxt)
        prev = nxt


def hochschild_dims(mc: MixedComplex, nmax):
    """Homology of the b-column through degree nmax (nmax <= N-1)."""
    if nmax > mc.N - 1:
        raise TruncationTooShallow("need degree %d, truncated at %d"
                                   % (nmax + 1, mc.N))
    return _homology_dims(_degree_pairs(mc.field, mc.dim(0), mc.b.__getitem__,
                                        nmax, mc.cochain))


def _total_spaces(mc, n):
    """Block degrees [n, n-2, ...] of the cyclic total complex."""
    return [n - 2 * i for i in range((n // 2) + 1)]


def _total_differential(mc, n):
    """Tot_n -> Tot_{n-1} (chain) or Tot^n -> Tot^{n+1} (cochain)."""
    f = mc.field
    src = _total_spaces(mc, n)
    dst = _total_spaces(mc, n - 1 if not mc.cochain else n + 1)
    blocks = {}
    for i, m in enumerate(src):
        if not mc.cochain:
            if m >= 1:
                blocks[(i, i)] = mc.b[m]
            if i >= 1:
                blocks[(i - 1, i)] = mc.B[m]
        else:
            if m <= mc.N - 1:
                blocks[(i, i)] = mc.b[m]
            if m >= 1:
                blocks[(i + 1, i)] = mc.B[m]
    return block_matrix(f, blocks, [mc.dim(m) for m in dst],
                        [mc.dim(m) for m in src])


def cyclic_dims(mc: MixedComplex, nmax):
    """Cyclic (co)homology dims from the (b, B) total complex, n <= nmax <= N-1."""
    if nmax > mc.N - 1:
        raise TruncationTooShallow("need degree %d, truncated at %d"
                                   % (nmax + 1, mc.N))
    return _homology_dims(_degree_pairs(
        mc.field, mc.dim(0), lambda n: _total_differential(mc, n), nmax,
        mc.cochain))


# -- Hopf-module homology and Hopf-comodule cohomology -------------------------------

def trivial_module_action(h):
    """H acting on the ground field through the counit."""
    return h.counit


def trivial_comodule_coaction(h):
    """The ground field coacting trivially: 1 (x) m."""
    return h.unit


def hopf_module_boundary(h, action, p):
    """The bar boundary H^(x)p (x) M -> H^(x)(p-1) (x) M."""
    f = h.field
    d = h.dim
    m = action.rows
    ident = SparseMatrix.identity
    acc = h.counit.kron(ident(f, d ** (p - 1) * m))
    sign = f.one()
    for i in range(1, p):
        sign = f.neg(sign)
        acc = acc + ident(f, d ** (i - 1)).kron(h.mult) \
            .kron(ident(f, d ** (p - 1 - i) * m)).scale(sign)
    sign = f.neg(sign)
    acc = acc + ident(f, d ** (p - 1)).kron(action).scale(sign)
    return acc


def hopf_comodule_coboundary(h, coaction, p):
    """The cobar coboundary H^(x)p (x) M -> H^(x)(p+1) (x) M."""
    f = h.field
    d = h.dim
    m = coaction.cols
    ident = SparseMatrix.identity
    acc = h.unit.kron(ident(f, d ** p * m))
    sign = f.one()
    for i in range(1, p + 1):
        sign = f.neg(sign)
        acc = acc + ident(f, d ** (i - 1)).kron(h.comult) \
            .kron(ident(f, d ** (p - i) * m)).scale(sign)
    sign = f.neg(sign)
    acc = acc + ident(f, d ** p).kron(coaction).scale(sign)
    return acc


def hopf_module_homology(h, action, qmax):
    """dims of H_q of the bar complex of the module with structure map action."""
    deltas = {p: hopf_module_boundary(h, action, p) for p in range(1, qmax + 2)}
    for p in range(2, qmax + 2):
        if not (deltas[p - 1] @ deltas[p]).is_zero():
            raise BoundaryNotSquareZero("delta delta != 0 at degree %d" % p)
    return _homology_dims(_degree_pairs(h.field, action.rows,
                                        deltas.__getitem__, qmax, False))


def hopf_comodule_cohomology(h, coaction, pmax):
    """dims of H^p of the cobar complex of the comodule."""
    deltas = {p: hopf_comodule_coboundary(h, coaction, p)
              for p in range(pmax + 1)}
    for p in range(1, pmax + 1):
        if not (deltas[p] @ deltas[p - 1]).is_zero():
            raise CoboundaryNotSquareZero("delta delta != 0 at degree %d" % p)
    return _homology_dims(_degree_pairs(h.field, coaction.cols,
                                        deltas.__getitem__, pmax, True))


# -- integrals and (co)semisimplicity homotopies --------------------------------------

def find_right_integral(h):
    """t with t.x = counit(x) t and counit(t) = 1, as a dict vector.

    Raises NotSemisimple when no normalized right integral exists."""
    f = h.field
    d = h.dim
    ent = {}
    for j in range(d):
        eps_j = h.counit[(0, j)]
        for i in range(d):
            col = h.mult.column(i * d + j)
            for r, v in col.items():
                key = (j * d + r, i)
                ent[key] = f.add(ent.get(key, f.zero()), v)
            if not f.is_zero(eps_j):
                key = (j * d + i, i)
                w = f.sub(ent.get(key, f.zero()), eps_j)
                if f.is_zero(w):
                    ent.pop(key, None)
                else:
                    ent[key] = w
    eq = SparseMatrix(f, d * d, d, ent)
    sol = kernel(eq)
    for b in sol.basis:
        val = f.zero()
        for i, v in b.items():
            val = f.add(val, f.mul(h.counit[(0, i)], v))
        if not f.is_zero(val):
            inv = f.inv(val)
            return {i: f.mul(inv, v) for i, v in b.items()}
    raise NotSemisimple("no right integral with counit 1 "
                        "(integral space dim %d)" % sol.dim)


def find_dual_left_integral(h):
    """Functional x with (id (x) x) comult = x(.) 1 and x(1) = 1, as a dict.

    Raises NotCosemisimple when normalization is impossible."""
    f = h.field
    d = h.dim
    ent = {}
    for j in range(d):
        col = h.comult.column(j)
        for rs, v in col.items():
            r, s = divmod(rs, d)
            key = (j * d + r, s)
            ent[key] = f.add(ent.get(key, f.zero()), v)
        for r, uv in h.unit.column(0).items():
            key = (j * d + r, j)
            w = f.sub(ent.get(key, f.zero()), uv)
            if f.is_zero(w):
                ent.pop(key, None)
            else:
                ent[key] = w
    eq = SparseMatrix(f, d * d, d, ent)
    sol = kernel(eq)
    for b in sol.basis:
        val = f.zero()
        for s, v in b.items():
            val = f.add(val, f.mul(h.unit[(s, 0)], v))
        if not f.is_zero(val):
            inv = f.inv(val)
            return {s: f.mul(inv, v) for s, v in b.items()}
    raise NotCosemisimple("no left integral in the dual with value 1 at 1 "
                          "(solution space dim %d)" % sol.dim)


def semisimple_homotopy_check(h, t, action, qmax):
    """delta h + h delta = id in degrees 1..qmax, with h = prepend t.

    The degree-0 identity cannot hold unless the coinvariants vanish, so the
    check starts at degree 1 (the complex is exact in positive degrees)."""
    f = h.field
    d = h.dim
    m = action.rows
    tcol = SparseMatrix.column_vector(f, t, d)

    def hmap(n):
        return tcol.kron(SparseMatrix.identity(f, d ** n * m))

    report = []
    for n in range(1, qmax + 1):
        lhs = hopf_module_boundary(h, action, n + 1) @ hmap(n) \
            + hmap(n - 1) @ hopf_module_boundary(h, action, n)
        ok = lhs == SparseMatrix.identity(f, d ** n * m)
        report.append((n, ok))
        if not ok:
            raise HomotopyFailure("delta h + h delta != id at degree %d" % n)
    return report


def cosemisimple_homotopy_check(h, x, coaction, pmax):
    """delta h + h delta = id in degrees 1..pmax, with h = evaluate x on g_1."""
    f = h.field
    d = h.dim
    m = coaction.cols
    xrow = SparseMatrix.row_vector(f, x, d)

    def hmap(n):
        return xrow.kron(SparseMatrix.identity(f, d ** (n - 1) * m))

    report = []
    for n in range(1, pmax + 1):
        lhs = hopf_comodule_coboundary(h, coaction, n - 1) @ hmap(n) \
            + hmap(n + 1) @ hopf_comodule_coboundary(h, coaction, n)
        ok = lhs == SparseMatrix.identity(f, d ** n * m)
        report.append((n, ok))
        if not ok:
            raise HomotopyFailure("delta h + h delta != id at degree %d" % n)
    return report


# -- total complex of a cylinder and its filtration -----------------------------------

class FilteredComplex:
    """A truncated (co)chain complex with a filtration by coordinate blocks.

    cells[n] lists (p, q, offset, dim) summands of T_n; the filtration index
    is the vertical degree q: increasing (q <= i) on the chain side,
    decreasing (q >= i) on the cochain side.  d maps T_n -> T_{n-1} (chain)
    or T_n -> T_{n+1} (cochain).
    """

    def __init__(self, field, dims, d, cells, levels, N, cochain=False):
        self.field = field
        self.dims = dims
        self.d = d
        self.cells = cells
        self.levels = levels
        self.N = N
        self.cochain = cochain

    def dim(self, n):
        return 0 if n < 0 or n > self.N else self.dims[n]

    def filtration_coords(self, i, n):
        """Ambient coordinates spanning F_i T_n."""
        if n < 0 or n > self.N:
            return []
        out = []
        for (p, q, off, dim) in self.cells[n]:
            inside = (q <= i) if not self.cochain else (q >= i)
            if inside:
                out.extend(range(off, off + dim))
        return out

    def filtration(self, i, n) -> Subspace:
        f = self.field
        one = f.one()
        return Subspace(f, self.dim(n),
                        [{j: one} for j in self.filtration_coords(i, n)])

    def cell_block(self, n, src_cell, dst_cell):
        """The block of d between two cells, as a matrix."""
        dn = self.d[n]
        sp, sq, soff, sdim = src_cell
        dp, dq, doff, ddim = dst_cell
        ent = {}
        for (i, j), v in dn.entries.items():
            if soff <= j < soff + sdim and doff <= i < doff + ddim:
                ent[(i - doff, j - soff)] = v
        return SparseMatrix(self.field, ddim, sdim, ent)

    def find_cell(self, n, p, q):
        for cell in self.cells[n]:
            if cell[0] == p and cell[1] == q:
                return cell
        raise KeyError("no cell (p=%d, q=%d) in degree %d" % (p, q, n))


def total_complex_algebra(cyl, N=3, check=True) -> FilteredComplex:
    """Tot_n = sum of X_{p,q} (p+q = n, ordered by q), d = (-1)^p b_v + b_h,
    filtered by F_i = sum over q <= i."""
    f = cyl.field
    cells = []
    dims = []
    for n in range(N + 1):
        row = []
        off = 0
        for q in range(n + 1):
            p = n - q
            dim = cyl.space_dim(p, q)
            row.append((p, q, off, dim))
            off += dim
        cells.append(row)
        dims.append(off)
    d = {}
    for n in range(1, N + 1):
        blocks = {}
        src_dims = [c[3] for c in cells[n]]
        dst_dims = [c[3] for c in cells[n - 1]]
        for si, (p, q, _, _) in enumerate(cells[n]):
            if q >= 1:
                bv = cyl.b_v(p, q)
                if p % 2 == 1:
                    bv = bv.scale(f.neg(f.one()))
                blocks[(q - 1, si)] = bv
            if p >= 1:
                blocks[(q, si)] = cyl.b_h(p, q)
        d[n] = block_matrix(f, blocks, dst_dims, src_dims)
    fc = FilteredComplex(f, dims, d, cells, N, N)
    if check:
        for n in range(2, N + 1):
            if not (d[n - 1] @ d[n]).is_zero():
                raise TotalNotSquareZero("d d != 0 at degree %d" % n)
        check_filtration(fc)
    return fc


def total_complex_coalgebra(cocyl, N=3, check=True) -> FilteredComplex:
    """Tot^n = sum of X_{p,q} (p+q = n, ordered by q descending),
    d = (-1)^p b_v + b_h, filtered by F^i = sum over q >= i."""
    f = cocyl.field
    cells = []
    dims = []
    for n in range(N + 1):
        row = []
        off = 0
        for q in range(n, -1, -1):
            p = n - q
            dim = cocyl.space_dim(p, q)
            row.append((p, q, off, dim))
            off += dim
        cells.append(row)
        dims.append(off)
    d = {}
    for n in range(N):
        blocks = {}
        src_dims = [c[3] for c in cells[n]]
        dst_dims = [c[3] for c in cells[n + 1]]
        dst_pos = {(c[0], c[1]): k for k, c in enumerate(cells[n + 1])}
        for si, (p, q, _, _) in enumerate(cells[n]):
            bv = cocyl.b_v(p, q)
            if p % 2 == 1:
                bv = bv.scale(f.neg(f.one()))
            blocks[(dst_pos[(p, q + 1)], si)] = bv
            blocks[(dst_pos[(p + 1, q)], si)] = cocyl.b_h(p, q)
        d[n] = block_matrix(f, blocks, dst_dims, src_dims)
    fc = FilteredComplex(f, dims, d, cells, N, N, cochain=True)
    if check:
        for n in range(N - 1):
            if not (d[n + 1] @ d[n]).is_zero():
                raise TotalNotSquareZero("d d != 0 at degree %d" % n)
        check_filtration(fc)
    return fc


def check_filtration(fc: FilteredComplex):
    """Nesting, exhaustion, and d-stability of the filtration, exactly."""
    for n in range(fc.N + 1):
        prev = set()
        rng = range(fc.levels + 1) if not fc.cochain else \
            range(fc.levels, -1, -1)
        for i in rng:
            cur = set(fc.filtration_coords(i, n))
            if not prev <= cur:
                raise FiltrationViolation("filtration not nested at (%d, %d)"
                                          % (i, n))
            prev = cur
        if len(prev) != fc.dim(n):
            raise FiltrationViolation("filtration not exhaustive at degree %d"
                                      % n)
    for n in (range(1, fc.N + 1) if not fc.cochain else range(fc.N)):
        dn = fc.d[n]
        tgt = n - 1 if not fc.cochain else n + 1
        for i in range(fc.levels + 1):
            sub = fc.filtration(i, tgt)
            for j in fc.filtration_coords(i, n):
                if not sub.contains(dn.column(j)):
                    raise FiltrationViolation(
                        "d leaves F_%d at degree %d" % (i, n))
    return True


def total_homology_dims(fc: FilteredComplex, nmax):
    """Homology of the total complex through degree nmax (needs nmax <= N-1)."""
    if nmax > fc.N - 1:
        raise TruncationTooShallow("need degree %d, truncated at %d"
                                   % (nmax + 1, fc.N))
    return _homology_dims(_degree_pairs(fc.field, fc.dim(0), fc.d.__getitem__,
                                        nmax, fc.cochain))


# -- spectral sequence of a filtered complex ------------------------------------------

class SSPage:
    """One page: dims and differential ranks over a (filtration, comp) window."""

    def __init__(self, r, table, diff_ranks):
        self.r = r
        self.table = table
        self.diff_ranks = diff_ranks

    def dim(self, i, j):
        return self.table.get((i, j), 0)

    def __repr__(self):
        return "SSPage(r=%d, %d positions)" % (self.r, len(self.table))


def _cached(memo, key, build):
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


def _z_subspace(fc, r, i, n, memo):
    """Z^r at filtration index i, total degree n: x in F_i with dx r steps
    deeper in the filtration.  Out-of-range filtration indices resolve to the
    zero subspace / the whole space through filtration_coords.  memo is the
    calling spectral_pages' dict of subspaces."""

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


def spectral_pages(fc: FilteredComplex, rmax, window):
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


def page_zero_matches_horizontal_boundary(fc: FilteredComplex, cyl, n, p, q):
    """The induced page-0 differential on the graded cell equals the
    (untwisted) horizontal boundary, entrywise."""
    if not fc.cochain:
        src = fc.find_cell(n, p, q)
        dst = fc.find_cell(n - 1, p - 1, q)
        return fc.cell_block(n, src, dst) == cyl.b_h(p, q)
    src = fc.find_cell(n, p, q)
    dst = fc.find_cell(n + 1, p + 1, q)
    return fc.cell_block(n, src, dst) == cyl.b_h(p, q)


# -- Eilenberg-Zilber comparison at the Hochschild level -------------------------------

def ez_compare_hochschild(cyl, nmax, cochain=False):
    """dim H_n(Tot) vs dim H_n(diagonal b) per degree n <= nmax.

    Returns a list of (n, total_dim, diagonal_dim, equal); mismatches are
    reported, not raised.
    """
    from .cylinder import diagonal_cocyclic, diagonal_cyclic
    f = cyl.field
    if not cochain:
        fc = total_complex_algebra(cyl, N=nmax + 1, check=False)
        diag = diagonal_cyclic(cyl, N=nmax + 1)
        mc = mixed_complex(diag, check=False)
    else:
        fc = total_complex_coalgebra(cyl, N=nmax + 1, check=False)
        diag = diagonal_cocyclic(cyl, N=nmax + 1)
        mc = cochain_mixed_complex(diag, check=False)
    tot = total_homology_dims(fc, nmax)
    dia = hochschild_dims(mc, nmax)
    return [(n, tot[n], dia[n], tot[n] == dia[n]) for n in range(nmax + 1)]
