"""Mixed complexes, Connes' complex, Hopf-(co)module (co)homology, total
complexes, pages.

Everything here reduces to exact rank computations.  The Hochschild
boundary b of a (co)cyclic module is the alternating sum of its (co)faces,
built in one place (`hochschild_boundary`).  The degree-raising operator of
a mixed complex is built as (1 - signed_cyclic) . extra_degeneracy . norm,
with the extra degeneracy t s_n (chain side) and its mirror on the cochain
side; the three mixed-complex identities are asserted, never assumed.

When Q is inside the field, cyclic (co)homology is also the homology of
Connes' complex (Connes 1985; Loday, Cyclic Homology, 2.1.5):
HC_n = H_n(C_n / (1 - lambda), b) on the chain side and HC^n = H^n of the
lambda-invariant cochains on the cochain side, lambda = (-1)^n t.  On a
tensor-power module t rotates the factors, so both have a basis of signed
orbits of basis tensors and need no elimination (`connes_dims`).  Over F_p
the two differ (C2 over F_2 is the example), so there the (b, B) total
complex is the only route.

The total complex of a cylinder carries d = (-1)^p b_vertical + b_horizontal
(the sign lives on the vertical part and depends on the horizontal degree, as
required by d^2 = 0 for commuting boundaries) and is filtered by the vertical
degree.  Its coordinates are ordered so that the order refines the
filtration, so one persistence reduction of d per degree (`column_pairs`,
with clearing) pairs the generators, and every spectral-sequence page and
page differential rank is a count of those pairs by filtration gap.
"""

from __future__ import annotations

from collections import Counter

from .crossed import CocyclicOps, CyclicOps
from .errors import (
    BoundaryNotSquareZero, CoboundaryNotSquareZero, FiltrationViolation,
    HomotopyFailure, MixedIdentityFailure, NotCosemisimple, NotSemisimple,
    TotalNotSquareZero, TruncationTooShallow,
)
# `rank` is not called here but stays bound on purpose: perfbench's self-test
# checks that the tracer rebinds a function imported by name elsewhere.
from .linalg import (  # noqa: F401
    SparseMatrix, Subspace, _homology_dims, block_matrix, column_pairs,
    combine, kernel, rank,
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


def _one_minus_lambda(ops, n):
    one = SparseMatrix.identity(ops.field, ops.dim(n))
    return one - _signed_cyclic(ops, n)


def _norm(ops, n):
    """1 + lambda + ... + lambda^n."""
    lam = _signed_cyclic(ops, n)
    powers = [SparseMatrix.identity(ops.field, ops.dim(n))]
    for _ in range(n):
        powers.append(lam @ powers[-1])
    return combine(ops.field, ops.dim(n), ops.dim(n), ((1, m) for m in powers))


def hochschild_boundary(ops, n):
    """b out of degree n: sum of (-1)^i d_i, C_n -> C_{n-1}, on a cyclic
    module; sum of (-1)^i delta^i, C^n -> C^{n+1}, on a cocyclic one."""
    if isinstance(ops, CocyclicOps):
        return combine(ops.field, ops.dim(n + 1), ops.dim(n),
                       (((-1) ** i, ops.coface(n, i)) for i in range(n + 2)))
    return combine(ops.field, ops.dim(n - 1), ops.dim(n),
                   (((-1) ** i, ops.face(n, i)) for i in range(n + 1)))


def mixed_complex(ops: CyclicOps, check=True) -> MixedComplex:
    """Chain mixed complex of a cyclic module: b alternating faces,
    B = (1 - lambda) (t s_n) N."""
    N = ops.N
    b = {n: hochschild_boundary(ops, n) for n in range(1, N + 1)}
    B = {n: _one_minus_lambda(ops, n + 1) @ (ops.t(n + 1) @ ops.degen(n, n))
         @ _norm(ops, n) for n in range(N)}
    mc = MixedComplex(ops.field, [ops.dim(n) for n in range(N + 1)], b, B, N)
    if check:
        check_mixed_complex(mc)
    return mc


def cochain_mixed_complex(ops: CocyclicOps, check=True) -> MixedComplex:
    """Cochain mixed complex of a cocyclic module: b alternating cofaces,
    B = N (sig^n t) (1 - lambda)."""
    N = ops.N
    b = {n: hochschild_boundary(ops, n) for n in range(N)}
    B = {n: _norm(ops, n - 1) @ (ops.codegen(n, n - 1) @ ops.t(n))
         @ _one_minus_lambda(ops, n) for n in range(1, N + 1)}
    mc = MixedComplex(ops.field, [ops.dim(n) for n in range(N + 1)], b, B, N,
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


def _check_truncation(nmax, N):
    """Degrees through nmax need the differential out of degree nmax + 1."""
    if nmax > N - 1:
        raise TruncationTooShallow("need degree %d, truncated at %d"
                                   % (nmax + 1, N))


def hochschild_dims(mc: MixedComplex, nmax):
    """Homology of the b-column through degree nmax (nmax <= N-1)."""
    _check_truncation(nmax, mc.N)
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
    _check_truncation(nmax, mc.N)
    return _homology_dims(_degree_pairs(
        mc.field, mc.dim(0), lambda n: _total_differential(mc, n), nmax,
        mc.cochain))


# -- straight from a (co)cyclic module: b alone, Connes' complex --------------

def b_column_dims(ops, nmax):
    """Hochschild (co)homology of a (co)cyclic module through degree nmax
    (nmax <= N-1), from b alone: no B, no mixed complex."""
    _check_truncation(nmax, ops.N)
    return _homology_dims(_degree_pairs(
        ops.field, ops.dim(0), lambda n: hochschild_boundary(ops, n), nmax,
        isinstance(ops, CocyclicOps)))


def _signed_orbits(field, d, n):
    """(P, S) for the orbits of the basis tensors of (k^d)^(x)(n+1) under
    lambda = (-1)^n t, t a rotation of the factors.

    An orbit {x, t x, ..., t^(s-1) x} has lambda^s x = (-1)^(ns) x, so when
    n s is odd, 1 - lambda kills it and it carries no invariant.  Every other
    orbit is one basis vector [x] of C_n/(1 - lambda), x its least index.
    P: C_n -> C_n/(1 - lambda) sends t^k x to (-1)^(nk) [x] and S sends [x]
    to x, so P S = 1.  Transposed, P holds the signed orbit sums that span
    the lambda-invariants and S reads their representative coordinates.  A
    rotation either way gives the same orbits, signs, quotient and
    invariants.
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
    """Cyclic (co)homology dims through degree nmax (nmax <= N-1) from
    Connes' complex, with no B and no total complex.

    Needs Q inside the field and a tensor-power module, C_n = C_0^(x)(n+1)
    with t rotating the factors, as built by `cyclic_module_of_algebra` and
    `cocyclic_module_of_coalgebra`.  With (P, S) of `_signed_orbits`:

    - chain side, b_n descends to P_{n-1} b_n S_n on C/(1 - lambda), checked
      as P_{n-1} b_n (1 - lambda_n) = 0;
    - cochain side, b^n restricts to S_{n+1}^T b^n P_n^T on the invariants,
      checked as (1 - lambda_{n+1}) b^n P_n^T = 0.

    Either check raises MixedIdentityFailure, and `_homology_dims` checks
    that the induced differential squares to zero.
    """
    f = ops.field
    if f.p is not None:
        raise ValueError("Connes' complex computes HC only when Q is inside "
                         "the field")
    _check_truncation(nmax, ops.N)
    d = ops.dim(0)
    if any(ops.dim(n) != d ** (n + 1) for n in range(ops.N + 1)):
        raise ValueError("Connes' complex needs C_n = C_0^(x)(n+1)")
    cochain = isinstance(ops, CocyclicOps)
    orbits = {}

    def maps(n):
        if n not in orbits:
            P, S = _signed_orbits(f, d, n)
            orbits[n] = (P.transpose(), S.transpose()) if cochain else (P, S)
        return orbits[n]

    def chain_diff(n):
        pb = maps(n - 1)[0] @ hochschild_boundary(ops, n)
        if not (pb @ _one_minus_lambda(ops, n)).is_zero():
            raise MixedIdentityFailure(
                "b does not descend to C/(1 - lambda) at degree %d" % n)
        return pb @ maps(n)[1]

    def cochain_diff(n):
        bv = hochschild_boundary(ops, n) @ maps(n)[0]
        if not (_one_minus_lambda(ops, n + 1) @ bv).is_zero():
            raise MixedIdentityFailure(
                "b leaves the lambda-invariant cochains at degree %d" % n)
        return maps(n + 1)[1] @ bv

    return _homology_dims(_degree_pairs(
        f, d, cochain_diff if cochain else chain_diff, nmax, cochain))


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
    faces = [h.counit.kron(ident(f, d ** (p - 1) * m))]
    faces += [ident(f, d ** (i - 1)).kron(h.mult).kron(ident(f, d ** (p - 1 - i) * m))
              for i in range(1, p)]
    faces.append(ident(f, d ** (p - 1)).kron(action))
    return combine(f, d ** (p - 1) * m, d ** p * m,
                   (((-1) ** i, face) for i, face in enumerate(faces)))


def hopf_comodule_coboundary(h, coaction, p):
    """The cobar coboundary H^(x)p (x) M -> H^(x)(p+1) (x) M."""
    f = h.field
    d = h.dim
    m = coaction.cols
    ident = SparseMatrix.identity
    faces = [h.unit.kron(ident(f, d ** p * m))]
    faces += [ident(f, d ** (i - 1)).kron(h.comult).kron(ident(f, d ** (p - i) * m))
              for i in range(1, p + 1)]
    faces.append(ident(f, d ** p).kron(coaction))
    return combine(f, d ** (p + 1) * m, d ** p * m,
                   (((-1) ** i, face) for i, face in enumerate(faces)))


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
        return Subspace.coordinate(self.field, self.dim(n),
                                   self.filtration_coords(i, n))

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
    """Nesting, exhaustion, and d-stability of the filtration, exactly.

    Once nesting holds, a column whose boundary lies in the filtration
    piece of the level where the column enters lies in every larger piece
    too, so d-stability is tested once per column, at that level."""
    order = range(fc.levels + 1) if not fc.cochain else \
        range(fc.levels, -1, -1)
    entering = {}  # n -> [(i, coordinates entering the filtration at i)]
    for n in range(fc.N + 1):
        prev = set()
        entering[n] = []
        for i in order:
            cur = set(fc.filtration_coords(i, n))
            if not prev <= cur:
                raise FiltrationViolation("filtration not nested at (%d, %d)"
                                          % (i, n))
            entering[n].append((i, sorted(cur - prev)))
            prev = cur
        if len(prev) != fc.dim(n):
            raise FiltrationViolation("filtration not exhaustive at degree %d"
                                      % n)
    for n in (range(1, fc.N + 1) if not fc.cochain else range(fc.N)):
        dn = fc.d[n]
        tgt = n - 1 if not fc.cochain else n + 1
        for i, cols in entering[n]:
            if not cols:
                continue
            sub = fc.filtration(i, tgt)
            for j in cols:
                if not sub.contains(dn.column(j)):
                    raise FiltrationViolation(
                        "d leaves F_%d at degree %d" % (i, n))
    return True


def total_homology_dims(fc: FilteredComplex, nmax):
    """Homology of the total complex through degree nmax (needs nmax <= N-1)."""
    _check_truncation(nmax, fc.N)
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


def _coordinate_levels(fc, n):
    """The filtration level q of each coordinate of T_n, checking that the
    coordinate order refines the filtration (q ascending on the chain side,
    descending on the cochain side)."""
    levels = [None] * fc.dim(n)
    for (_, q, off, dim) in fc.cells[n]:
        levels[off:off + dim] = [q] * dim
    step = levels if not fc.cochain else levels[::-1]
    if any(a > b for a, b in zip(step, step[1:])):
        raise FiltrationViolation("coordinate order does not refine the "
                                  "filtration at degree %d" % n)
    return levels


def _filtered_pairs(fc, nmax):
    """{n: {column: pivot row}} of d out of each degree a page at total
    degree <= nmax reads, by `column_pairs` with clearing.

    The differential into a degree is reduced before the one out of it
    (d_(nmax+1), ..., d_1 on the chain side, d^0, ..., d^nmax on the cochain
    side), and a column that is already a pivot row is skipped: it is the
    last row of a boundary, so it reduces to zero.
    """
    degrees = range(nmax + 1, 0, -1) if not fc.cochain else range(nmax + 1)
    pairs = {}
    cleared = ()
    for n in degrees:
        pairs[n] = column_pairs(fc.d[n], cleared)
        cleared = set(pairs[n].values())
    return pairs


def spectral_pages(fc: FilteredComplex, rmax, window):
    """Pages E^0..E^rmax of the filtered complex, from one filtered column
    reduction of d per degree.

    The coordinate order refines the filtration, so the pairs of
    `column_pairs` split the complex into elementary pieces: a pair (column
    in degree n, pivot row) of filtration gap g = |level(column) -
    level(row)| lives on pages E^0..E^g and is killed by d^g.  Hence dim E^r
    at (i, j) (filtration degree, complementary degree; total n = i + j)
    counts the degree-n generators at level i that are unpaired or have gap
    >= r, and the rank of d^r at (i, j) counts the pairs whose column sits
    there with gap exactly r.  Entries need total degree <= N-1 so that both
    incoming and outgoing boundaries stay inside the truncation; a rank whose
    target degree falls outside 0..N is 0, as no pair reaches it.
    """
    imax, jmax = window
    s = 1 if not fc.cochain else -1
    nmax = min(fc.N - 1, imax + jmax)
    level = {n: _coordinate_levels(fc, n) for n in range(nmax + 2)}
    gens = Counter()     # (n, level) -> generators
    paired = Counter()   # (n, level, gap) -> generators paired with that gap
    sources = Counter()  # (n, level, gap) -> pairs with their column there
    for n in range(nmax + 1):
        for (_, q, _, dim) in fc.cells[n]:
            gens[(n, q)] += dim
    for n, prs in _filtered_pairs(fc, nmax).items():
        src, tgt = level[n], level[n - s]
        for col, row in prs.items():
            g = s * (src[col] - tgt[row])
            if g < 0:
                raise FiltrationViolation("d leaves F_%d at degree %d"
                                          % (src[col], n))
            paired[(n, src[col], g)] += 1
            paired[(n - s, tgt[row], g)] += 1
            sources[(n, src[col], g)] += 1
    pages = []
    for r in range(rmax + 1):
        table = {}
        ranks = {}
        for i in range(imax + 1):
            for j in range(jmax + 1):
                n = i + j
                if n > fc.N - 1:
                    continue
                table[(i, j)] = gens[(n, i)] - sum(paired[(n, i, g)]
                                                   for g in range(r))
                ranks[(i, j)] = sources[(n, i, r)]
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
