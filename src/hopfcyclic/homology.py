"""Mixed complexes, Connes' complex, Hopf-module homology, total complexes,
pages: chain complexes only.

Every cochain invariant is the chain invariant of the transpose, which has
the same ranks: a cocyclic module enters as its dual cyclic module
(`CocyclicOps.transpose`), a comodule over H as the dual module over H*
(`hopf.dual_hopf`), and a cocylinder's total complex as its transpose,
filtered by q <= i (a filtered complex and its dual have the same
persistence pairs: de Silva, Morozov & Vejdemo-Johansson 2011).

Everything reduces to exact rank computations.  Every homology dimension
and every spectral page comes from `_homology_dims`, which checks each
composite d_out . d_in = 0 and takes each rank from one reduction of the
coboundary d^T, cleared across degrees in the cohomology direction (Chen &
Kerber 2011); the pages read the pairs that reduction keeps on each
differential.  The Hochschild boundary b is the
alternating sum of the faces, built in one place (`hochschild_boundary`).
The degree-raising operator of a mixed complex is built as
(1 - signed_cyclic) . extra_degeneracy . norm, with the extra degeneracy
t s_n; the three mixed-complex identities are asserted, never assumed, in
one place, `check_mixed_complex`.  It reads them off the composites D D of
the (b, B) total complex, which it keeps for the ranks of `cyclic_dims`
and `hochschild_dims`, and multiplies apart only the top blocks those
composites do not reach, so each product is formed once.  The normalized
mixed complex of an algebra (`normalized_mixed_complex`) drops the
degenerate chains, those with the unit in a leg past the first, and writes
b and B = s N on the rest by index arithmetic.

When Q is inside the field, cyclic homology is also the homology of Connes'
complex (Connes 1985; Loday, Cyclic Homology, 2.1.5): HC_n = H_n(C_n /
(1 - lambda), b), lambda = (-1)^n t.  On an algebra's cyclic module t rotates
the factors, so the quotient has a basis of signed orbits of basis tensors,
and `connes_dims` writes b on it from the structure constants.  Over F_p the
two differ (C2 over F_2 is the example): there (b, B) is the only route.

The total complex of a cylinder carries d = (-1)^p b_vertical + b_horizontal
(the sign lives on the vertical part and depends on the horizontal degree, as
required by d^2 = 0 for commuting boundaries) and is filtered by the vertical
degree.  Its coordinates are ordered so that the order refines the
filtration.  With the cell blocks taken in reverse order, each d_n^T is a
coboundary of the dual complex in an order that refines the dual
filtration, so the cleared reduction of `_homology_dims` pairs the
generators, and every spectral-sequence page and page differential rank is
a count of those pairs by filtration gap.
"""

from __future__ import annotations

from collections import Counter

from .crossed import CocyclicOps, CyclicOps, normalized_faces, unit_first
from .errors import (
    BoundaryNotSquareZero, CoboundaryNotSquareZero, CompositionNotZero,
    FiltrationViolation, HomotopyFailure, MixedIdentityFailure,
    NotCosemisimple, NotSemisimple, TotalNotSquareZero, TruncationTooShallow,
)
from .fields import settle
from .hopf import dual_hopf
# `rank` is not called here but stays bound on purpose: perfbench's self-test
# checks that the tracer rebinds a function imported by name elsewhere.
from .linalg import (  # noqa: F401
    SparseMatrix, _homology_dims, amplify, block_matrix, combine, kernel, rank,
)


class MixedComplex:
    """Spaces with b (degree -1) and B (degree +1).

    b[n]: M_n -> M_{n-1} (1 <= n <= N), B[n]: M_n -> M_{n+1} (0 <= n <= N-1).
    """

    def __init__(self, field, dims, b, B, N):
        self.field = field
        self.dims = dims
        self.b = b
        self.B = B
        self.N = N
        self._totals = {}  # n -> (blocks, Tot_n -> Tot_(n-1))

    def dim(self, n):
        return self.dims[n]


def _as_cyclic(ops):
    """A cyclic module as is; a cocyclic one as its transpose."""
    return ops.transpose() if isinstance(ops, CocyclicOps) else ops


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


def hochschild_boundary(ops: CyclicOps, n):
    """b out of degree n: sum of (-1)^i d_i, C_n -> C_{n-1}."""
    return combine(ops.field, ops.dim(n - 1), ops.dim(n),
                   (((-1) ** i, ops.face(n, i)) for i in range(n + 1)))


def mixed_complex(ops) -> MixedComplex:
    """Mixed complex of a cyclic module: b alternating faces,
    B = (1 - lambda) (t s_n) N.  A cocyclic module is transposed first."""
    ops = _as_cyclic(ops)
    N = ops.N
    b = {n: hochschild_boundary(ops, n) for n in range(1, N + 1)}
    B = {n: _one_minus_lambda(ops, n + 1) @ (ops.t(n + 1) @ ops.degen(n, n))
         @ _norm(ops, n) for n in range(N)}
    mc = MixedComplex(ops.field, [ops.dim(n) for n in range(N + 1)], b, B, N)
    check_mixed_complex(mc)
    return mc


def _normalized_b(r, n):
    """b out of degree n on the normalized chains of r (unit e_0)."""
    d, e = r.dim, r.dim - 1
    return combine(r.field, d * e ** (n - 1), d * e ** n,
                   (((-1) ** i, face)
                    for i, face in enumerate(normalized_faces(r, n))))


def _normalized_B(field, d, n):
    """B = s N out of degree n on the normalized chains of an algebra of
    dimension d (unit e_0): a chain (x_0, ..., x_n) with x_0 >= 1 goes to
    the sum over i of (-1)^(n i) (1, x_i, ..., x_n, x_0, ..., x_(i-1)), and
    one with x_0 = 0, the unit, to 0.  Such a chain sits at index e^n + y,
    y the base-e number of (x_0 - 1, ..., x_n - 1), e = d - 1, and its
    image term at y rotated left by i digits."""
    e = d - 1
    sums = {}
    get = sums.get
    for y in range(e ** (n + 1)):
        col = e ** n + y
        for i in range(n + 1):
            top = e ** (n + 1 - i)
            key = ((y % top) * e ** i + y // top, col)
            sums[key] = get(key, 0) + (-1 if n * i % 2 else 1)
    return SparseMatrix._settled(field, d * e ** (n + 1), d * e ** n,
                                 settle(field, sums))


def normalized_mixed_complex(r, N) -> MixedComplex:
    """The normalized mixed complex (R (x) Rbar^(x)n, b, B = s N) of an
    algebra r through degree N, Rbar = R / k 1, in a basis where r's unit
    is e_0 (`unit_first`).  It has the Hochschild and cyclic homology of
    r's cyclic module over every field (Loday, Cyclic Homology, 1.1.14 and
    2.1.9), on d (d - 1)^n coordinates instead of d^(n+1); the three mixed
    identities are checked."""
    r = unit_first(r)
    d = r.dim
    mc = MixedComplex(r.field, [d * (d - 1) ** n for n in range(N + 1)],
                      {n: _normalized_b(r, n) for n in range(1, N + 1)},
                      {n: _normalized_B(r.field, d, n) for n in range(N)}, N)
    check_mixed_complex(mc)
    return mc


def normalized_hochschild_dims(r, nmax):
    """Hochschild homology of an algebra r through degree nmax from the
    normalized b alone."""
    r = unit_first(r)
    return _homology_dims(_degree_pairs(r.field, r.dim,
                                        lambda n: _normalized_b(r, n), nmax))


def cochain_mixed_complex(ops: CocyclicOps) -> MixedComplex:
    """The mixed complex of the transpose: b and B are the transposes of
    the cochain b and B = N (sig^(n-1) t) (1 - lambda)."""
    return mixed_complex(ops)


def check_mixed_complex(mc: MixedComplex):
    """b^2 = 0, B^2 = 0, bB + Bb = 0, exactly; raises MixedIdentityFailure
    at the first failure, b b before B B before bB + Bb, each by ascending
    degree.

    The identities are read off the composites D_(n-1) D_n of the total
    complex, n = 2..N, the ones `cyclic_dims` checks.  The source block of
    degree m = n - 2j of Tot_n goes by b b into degree m - 2, by bB + Bb
    into degree m (j >= 1) and by B B into degree m + 2 (j >= 2).  So the
    composites reach b b at every degree 2..N, bB + Bb at 1..N-2 and B B at
    0..N-4; bB + Bb at N - 1 and B B at N - 3 and N - 2 are multiplied
    directly.  Each b b and each composite found zero is kept on its left
    factor (`SparseMatrix._kills`), so the ranks of `hochschild_dims` and
    `cyclic_dims` do not form it again.  The composites also hold b B at
    degree 0, which is not one of the three: a composite nonzero there is
    left for the ranks to refuse."""
    N = mc.N
    d = {n: _total_differential(mc, n) for n in range(1, N + 1)}
    comps = {n: d[n - 1] @ d[n] for n in range(2, N + 1)}

    def zero(n, src):
        """Whether D_(n-1) D_n is zero from its source block src, of degree
        n - 2 src, into its first target block, of degree n - 2."""
        lo = sum(mc.dim(n - 2 * k) for k in range(src))
        hi = lo + mc.dim(n - 2 * src)
        rows = mc.dim(n - 2)
        return not any(i < rows and lo <= j < hi for i, j in comps[n].entries)

    for n in range(2, N + 1):
        if not zero(n, 0):
            raise MixedIdentityFailure("b b != 0 at degree %d" % n)
    for n in range(N - 1):
        if not (zero(n + 4, 2) if n + 4 <= N
                else (mc.B[n + 1] @ mc.B[n]).is_zero()):
            raise MixedIdentityFailure("B B != 0 at degree %d" % n)
    for n in range(1, N):
        if not (zero(n + 2, 1) if n + 2 <= N
                else (mc.b[n + 1] @ mc.B[n] + mc.B[n - 1] @ mc.b[n])
                .is_zero()):
            raise MixedIdentityFailure("bB + Bb != 0 at degree %d" % n)
    for n in range(2, N + 1):
        mc.b[n - 1]._kills = mc.b[n]
        if not comps[n].entries:
            d[n - 1]._kills = d[n]


def _degree_pairs(field, dim0, diff, nmax):
    """(d_out, d_in) = (diff(n), diff(n + 1)) at degrees 0..nmax, with
    d_out zero at n = 0, calling diff once per degree.

    dim0 is the dimension in degree 0.  Pairs are built as they are
    consumed, so an error surfaces at the first degree that has it.
    """
    prev = SparseMatrix.zeros(field, 0, dim0)
    for n in range(nmax + 1):
        nxt = diff(n + 1)
        yield prev, nxt
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
                                        nmax))


def _total_spaces(n):
    """Block degrees [n, n-2, ...] of the cyclic total complex."""
    return [n - 2 * i for i in range((n // 2) + 1)]


def _total_differential(mc, n):
    """Tot_n -> Tot_{n-1}, assembled once from the b and B it is made of: a
    block replaced since is assembled anew."""
    src = _total_spaces(n)
    blocks = {}
    for i, m in enumerate(src):
        if m >= 1:
            blocks[(i, i)] = mc.b[m]
        if i >= 1:
            blocks[(i - 1, i)] = mc.B[m]
    made = mc._totals.get(n)
    if made and all(made[0][ij] is m for ij, m in blocks.items()):
        return made[1]
    total = block_matrix(mc.field, blocks,
                         [mc.dim(m) for m in _total_spaces(n - 1)],
                         [mc.dim(m) for m in src])
    mc._totals[n] = (blocks, total)
    return total


def cyclic_dims(mc: MixedComplex, nmax):
    """Cyclic homology dims from the (b, B) total complex, n <= nmax <= N-1."""
    _check_truncation(nmax, mc.N)
    return _homology_dims(_degree_pairs(
        mc.field, mc.dim(0), lambda n: _total_differential(mc, n), nmax))


# -- b alone on a (co)cyclic module; Connes' complex of an algebra -------------

def b_column_dims(ops, nmax):
    """Hochschild homology of a (transposed co)cyclic module through degree
    nmax (nmax <= N-1), from b alone: no B, no mixed complex."""
    ops = _as_cyclic(ops)
    _check_truncation(nmax, ops.N)
    return _homology_dims(_degree_pairs(
        ops.field, ops.dim(0), lambda n: hochschild_boundary(ops, n), nmax))


def _signed_orbit_labels(d, n):
    """(labels, count) for the orbits of the basis tensors of (k^d)^(x)(n+1)
    under lambda = (-1)^n t, t x = (x % d) d^n + x // d: None on an orbit of
    size s with n s odd, which 1 - lambda kills; else labels[t^k x] = (its
    number in the order of least tensors x, (-1)^(nk))."""
    size, top = d ** (n + 1), d ** n
    seen, labels, count = bytearray(size), [None] * size, 0
    for x in range(size):
        if seen[x]:
            continue
        orbit = [x]
        y = (x % d) * top + x // d
        while y != x:
            orbit.append(y)
            y = (y % d) * top + y // d
        for step, y in enumerate(orbit):
            seen[y] = 1
            if n * len(orbit) % 2 == 0:
                labels[y] = (count, -1 if n * step % 2 else 1)
        count += n * len(orbit) % 2 == 0
    return labels, count


def connes_dims(r, nmax):
    """Cyclic homology of an algebra r through degree nmax from Connes'
    complex C_n/(1 - lambda), C_n = R^(x)(n+1); needs Q inside the field.

    b is written from r's structure constants tensor by tensor: d_i (i < n)
    multiplies digits i and i + 1, d_n = d_0 t, and each term lands on its
    signed orbit.  b descends exactly when each tensor t^k x of a kept orbit
    has (-1)^(nk) times the column of its least tensor x and each of a
    killed orbit the zero column: checked on every tensor
    (MixedIdentityFailure).  The least tensors' columns are the differential."""
    f = r.field
    if f.p is not None:
        raise ValueError("Connes' complex computes HC only when Q is inside "
                         "the field")
    d, cols = r.dim, r.mult.column_index()  # column a d + b: e_a e_b
    below = [[(y, 1) for y in range(d)], d]  # degree 0: d one-tensor orbits

    def diff(n):
        labels, rows = below
        faces = [((-1) ** i, d ** (n - 1 - i % n)) for i in range(n + 1)]
        top = d ** n

        def column(x):
            sums = {}
            for i, (sign, low) in enumerate(faces):
                # d_n = d_0 t, t moving the last factor to the front
                hi, tail = divmod(x if i < n else x % d * top + x // d, low)
                head, pair = divmod(hi, d * d)
                for c, v in cols.get(pair, {}).items():
                    lab = labels[(head * d + c) * low + tail]
                    if lab:
                        sums[lab[0]] = sums.get(lab[0], 0) + sign * lab[1] * v
            return {k: v for k, v in sums.items() if v}

        here, count = _signed_orbit_labels(d, n)
        reps = []
        for x, lab in enumerate(here):
            col = column(x)
            if lab and lab[0] == len(reps):  # the least tensor of its orbit
                reps.append(col)
            elif col != ({k: lab[1] * v for k, v in reps[lab[0]].items()}
                         if lab else {}):
                raise MixedIdentityFailure(
                    "b does not descend to C/(1 - lambda) at degree %d" % n)
        below[:] = [here, count]
        return SparseMatrix._settled(f, rows, count, settle(f, {
            (k, j): v for j, col in enumerate(reps) for k, v in col.items()}))

    return _homology_dims(_degree_pairs(f, d, diff, nmax))


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
    faces = [amplify(h.counit, 1, d ** (p - 1) * m)]
    faces += [amplify(h.mult, d ** (i - 1), d ** (p - 1 - i) * m)
              for i in range(1, p)]
    faces.append(amplify(action, d ** (p - 1), 1))
    return combine(f, d ** (p - 1) * m, d ** p * m,
                   (((-1) ** i, face) for i, face in enumerate(faces)))


def hopf_comodule_coboundary(h, coaction, p):
    """The cobar coboundary H^(x)p (x) M -> H^(x)(p+1) (x) M: the transpose
    of the bar boundary of M* (action: the transposed coaction) over the dual
    Hopf algebra H*."""
    return hopf_module_boundary(dual_hopf(h), coaction.transpose(),
                                p + 1).transpose()


def hopf_module_homology(h, action, qmax):
    """dims of H_q of the bar complex of the module with structure map action.

    `_homology_dims` checks each composite delta_(p-1) delta_p right after
    building delta_p, so its first failure is BoundaryNotSquareZero(p)."""
    built = []

    def delta(p):
        built.append(p)
        return hopf_module_boundary(h, action, p)

    try:
        return _homology_dims(_degree_pairs(h.field, action.rows, delta, qmax))
    except CompositionNotZero:
        raise BoundaryNotSquareZero(built[-1]) from None


def hopf_comodule_cohomology(h, coaction, pmax):
    """dims of H^p of the cobar complex of the comodule, as the bar homology
    of M* over H* (bar degree p + 1 is cobar degree p)."""
    try:
        return hopf_module_homology(dual_hopf(h), coaction.transpose(), pmax)
    except BoundaryNotSquareZero as e:
        raise CoboundaryNotSquareZero(e.degree - 1) from None


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

    This is the normalized integral of the dual Hopf algebra H*, found as
    its right integral: one with counit 1 exists exactly when H* is
    semisimple, and then it is two-sided (a semisimple Hopf algebra is
    unimodular).  Raises NotCosemisimple when normalization is impossible."""
    try:
        return find_right_integral(dual_hopf(h))
    except NotSemisimple as e:
        raise NotCosemisimple("the dual Hopf algebra has %s" % e) from None


def semisimple_homotopy_check(h, t, action, qmax):
    """delta h + h delta = id in degrees 1..qmax, with h = prepend t.

    The degree-0 identity cannot hold unless the coinvariants vanish, so the
    check starts at degree 1 (the complex is exact in positive degrees)."""
    f = h.field
    d = h.dim
    m = action.rows
    tcol = SparseMatrix.column_vector(f, t, d)

    def hmap(n):
        return amplify(tcol, 1, d ** n * m)

    report = []
    lower = hopf_module_boundary(h, action, 1)
    for n in range(1, qmax + 1):
        upper = hopf_module_boundary(h, action, n + 1)
        lhs = upper @ hmap(n) + hmap(n - 1) @ lower
        ok = lhs == SparseMatrix.identity(f, d ** n * m)
        report.append((n, ok))
        if not ok:
            raise HomotopyFailure("delta h + h delta != id at degree %d" % n)
        lower = upper
    return report


def cosemisimple_homotopy_check(h, x, coaction, pmax):
    """delta h + h delta = id in degrees 1..pmax, with h = evaluate x on g_1:
    the transpose of the semisimple check over H*, x prepended."""
    return semisimple_homotopy_check(dual_hopf(h), x, coaction.transpose(),
                                     pmax)


# -- total complex of a cylinder and its filtration -----------------------------------

class FilteredComplex:
    """A truncated chain complex with an increasing filtration by coordinate
    blocks.

    cells[n] lists (p, q, offset, dim) summands of T_n; the filtration index
    is the vertical degree q (F_i T_n = sum over q <= i), and d[n] maps
    T_n -> T_{n-1}.
    """

    def __init__(self, field, dims, d, cells, levels, N):
        self.field = field
        self.dims = dims
        self.d = d
        self.cells = cells
        self.levels = levels
        self.N = N

    def dim(self, n):
        return 0 if n < 0 or n > self.N else self.dims[n]

    def filtration_coords(self, i, n):
        """Ambient coordinates spanning F_i T_n."""
        if n < 0 or n > self.N:
            return []
        out = []
        for (p, q, off, dim) in self.cells[n]:
            if q <= i:
                out.extend(range(off, off + dim))
        return out

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


def _total_cells(cyl, N):
    """cells[n] = [(n - q, q, offset, dim) for q = 0..n], and dims[n]."""
    cells = []
    dims = []
    for n in range(N + 1):
        row = []
        off = 0
        for q in range(n + 1):
            dim = cyl.space_dim(n - q, q)
            row.append((n - q, q, off, dim))
            off += dim
        cells.append(row)
        dims.append(off)
    return cells, dims


def _total_complex(cyl, N, b_v, b_h):
    """Tot_n = sum of X_{p,q} (p+q = n, ordered by q), d = (-1)^p b_v + b_h
    with b_v(p, q): X_{p,q} -> X_{p,q-1} and b_h(p, q): X_{p,q} -> X_{p-1,q},
    filtered by F_i = sum over q <= i.  Unchecked: `spectral_pages` checks
    d d = 0 and the filtration, `total_homology_dims` every composite."""
    f = cyl.field
    cells, dims = _total_cells(cyl, N)
    d = {}
    for n in range(1, N + 1):
        blocks = {}
        for p, q, _, _ in cells[n]:
            if q >= 1:
                bv = b_v(p, q)
                if p % 2 == 1:
                    bv = bv.scale(f.neg(f.one()))
                blocks[(q - 1, q)] = bv
            if p >= 1:
                blocks[(q, q)] = b_h(p, q)
        d[n] = block_matrix(f, blocks, [c[3] for c in cells[n - 1]],
                            [c[3] for c in cells[n]])
    return FilteredComplex(f, dims, d, cells, N, N)


def total_complex_algebra(cyl, N=3) -> FilteredComplex:
    """The total complex of the cylinder, d = (-1)^p b_v + b_h."""
    return _total_complex(cyl, N, cyl.b_v, cyl.b_h)


def total_complex_coalgebra(cocyl, N=3) -> FilteredComplex:
    """The transpose of the cochain total complex Tot^n = sum of X_{p,q}
    (p+q = n), d^n = (-1)^p b_v + b_h, filtered by q >= i: the cylinder's
    total complex of the transposed coboundaries b_v(p, q-1)^T and
    b_h(p-1, q)^T, filtered by q <= i.  It has the cochain complex's
    (co)homology and pages; a cochain d^r out of a position is d^r into it.
    """
    return _total_complex(cocyl, N,
                          lambda p, q: cocyl.b_v(p, q - 1).transpose(),
                          lambda p, q: cocyl.b_h(p - 1, q).transpose())


def check_filtration(fc: FilteredComplex):
    """Nesting, exhaustion, and d-stability of the filtration, exactly.

    Once nesting holds, a column whose boundary lies in the filtration
    piece of the level where the column enters lies in every larger piece
    too, so d-stability is tested once per column, at that level.  Every
    piece is spanned by coordinates, so a column lies in it exactly when
    every row the column touches is one of them."""
    entering = {}  # n -> [(i, coordinates entering the filtration at i)]
    for n in range(fc.N + 1):
        prev = set()
        entering[n] = []
        for i in range(fc.levels + 1):
            cur = set(fc.filtration_coords(i, n))
            if not prev <= cur:
                raise FiltrationViolation("filtration not nested at (%d, %d)"
                                          % (i, n))
            entering[n].append((i, sorted(cur - prev)))
            prev = cur
        if len(prev) != fc.dim(n):
            raise FiltrationViolation("filtration not exhaustive at degree %d"
                                      % n)
    for n in range(1, fc.N + 1):
        dn = fc.d[n]
        for i, cols in entering[n]:
            if not cols:
                continue
            inside = set(fc.filtration_coords(i, n - 1))
            for j in cols:
                if not inside.issuperset(dn.column(j)):
                    raise FiltrationViolation(
                        "d leaves F_%d at degree %d" % (i, n))
    return True


def total_homology_dims(fc: FilteredComplex, nmax):
    """Homology of the total complex through degree nmax (needs nmax <= N-1)."""
    _check_truncation(nmax, fc.N)
    return _homology_dims(_degree_pairs(fc.field, fc.dim(0), fc.d.__getitem__,
                                        nmax))


# -- spectral sequence of a filtered complex ------------------------------------------

class SSPage:
    """One page: dims and differential ranks over a (filtration, comp) window.

    diff_ranks[(i, j)] is the rank of d^r out of (i, j), diff_ranks_in[(i, j)]
    the rank of d^r into it, from (i + r, j - r + 1).
    """

    def __init__(self, r, table, diff_ranks, diff_ranks_in):
        self.r = r
        self.table = table
        self.diff_ranks = diff_ranks
        self.diff_ranks_in = diff_ranks_in

    def dim(self, i, j):
        return self.table.get((i, j), 0)

    def __repr__(self):
        return "SSPage(r=%d, %d positions)" % (self.r, len(self.table))


def _coordinate_levels(fc, n):
    """The filtration level q of each coordinate of T_n, checking that the
    coordinate order refines the filtration (q ascending)."""
    levels = [None] * fc.dim(n)
    for (_, q, off, dim) in fc.cells[n]:
        levels[off:off + dim] = [q] * dim
    if any(a > b for a, b in zip(levels, levels[1:])):
        raise FiltrationViolation("coordinate order does not refine the "
                                  "filtration at degree %d" % n)
    return levels


def _reversed_blocks(fc, n):
    """The position of each coordinate of T_n once its cell blocks are
    taken in reverse order (q descending), each block kept in its order."""
    pos = [0] * fc.dim(n)
    new = 0
    for (_, _, off, dim) in reversed(fc.cells[n]):
        pos[off:off + dim] = range(new, new + dim)
        new += dim
    return pos


def _filtered_pairs(fc):
    """{n: {column: pivot row}} of d_1, ..., d_N, from the cleared
    reduction of `_homology_dims`, which checks every composite first.

    The dual complex is filtered by q >= i, so its coordinates refine that
    filtration once the cell blocks are taken in reverse order.  d_n with
    the blocks of both degrees reversed, (tgt[i], src[j]) for an entry
    (i, j), is the transpose of the coboundary d^(n-1) in such coordinates:
    the reduction of its rows, each pivot a row's last nonzero column, is
    the filtered reduction of the coboundary's columns, cleared across
    degrees.  Each kept pair (pivot column, row) is a pair (column, row) of
    d_n once the positions are read back.  A nonzero composite d_(n-1) d_n
    raises TotalNotSquareZero at its lowest degree n.
    """
    pos = [_reversed_blocks(fc, n) for n in range(fc.N + 1)]
    built = {}

    def reversed_d(n):
        src, tgt = pos[n], pos[n - 1]
        built[n] = SparseMatrix._settled(
            fc.field, fc.dim(n - 1), fc.dim(n),
            {(tgt[i], src[j]): v for (i, j), v in fc.d[n].entries.items()})
        return built[n]

    try:
        _homology_dims(_degree_pairs(fc.field, fc.dim(0), reversed_d,
                                     fc.N - 1))
    except CompositionNotZero:
        raise TotalNotSquareZero("d d != 0 at degree %d" % max(built)) \
            from None
    back = [sorted(range(len(ps)), key=ps.__getitem__) for ps in pos]
    return {n: {back[n][c]: back[n - 1][r] for c, r in m._pairs.items()}
            for n, m in built.items()}


def spectral_pages(fc: FilteredComplex, rmax, window):
    """Pages E^0..E^rmax of the filtered complex, from the one cleared
    reduction that gives its homology dimensions.

    The coordinate order refines the filtration, so the pairs of
    `_filtered_pairs` split the complex into elementary pieces: a pair
    (column in degree n, pivot row) of filtration gap g = level(column) -
    level(row) lives on pages E^0..E^g and is killed by d^g.  Hence dim E^r
    at (i, j) (filtration degree, complementary degree; total n = i + j)
    counts the degree-n generators at level i that are unpaired or have gap
    >= r; the rank of d^r out of (i, j) counts the pairs whose column sits
    there with gap exactly r, and the rank into (i, j) the pairs whose row
    sits there.  Entries need total degree <= N-1 so that both incoming and
    outgoing boundaries stay inside the truncation; a rank whose target
    degree falls outside 0..N is 0, as no pair reaches it.

    The pages rely on d d = 0 and on a filtration that d preserves: the
    reduction checks every composite, through d_N whatever the window, and
    the filtration is checked before any pair is read.  Then every gap is
    >= 0: each coboundary column has entries only at levels >= its own,
    and the reduction adds to it only columns to its left, whose levels are
    >= its own too.
    """
    pairs = _filtered_pairs(fc)
    check_filtration(fc)
    imax, jmax = window
    nmax = min(fc.N - 1, imax + jmax)
    level = {n: _coordinate_levels(fc, n) for n in range(nmax + 2)}
    gens = Counter()     # (n, level) -> generators
    paired = Counter()   # (n, level, gap) -> generators paired with that gap
    sources = Counter()  # (n, level, gap) -> pairs with their column there
    targets = Counter()  # (n, level, gap) -> pairs with their row there
    for n in range(nmax + 1):
        for (_, q, _, dim) in fc.cells[n]:
            gens[(n, q)] += dim
    for n in range(1, nmax + 2):
        src, tgt = level[n], level[n - 1]
        for col, row in pairs[n].items():
            g = src[col] - tgt[row]
            paired[(n, src[col], g)] += 1
            paired[(n - 1, tgt[row], g)] += 1
            sources[(n, src[col], g)] += 1
            targets[(n - 1, tgt[row], g)] += 1
    pages = []
    killed = Counter()   # (n, level) -> generators paired with gap < r
    for r in range(rmax + 1):
        table = {}
        ranks = {}
        ranks_in = {}
        for i in range(imax + 1):
            for j in range(jmax + 1):
                n = i + j
                if n > fc.N - 1:
                    continue
                table[(i, j)] = gens[(n, i)] - killed[(n, i)]
                ranks[(i, j)] = sources[(n, i, r)]
                ranks_in[(i, j)] = targets[(n, i, r)]
                killed[(n, i)] += paired[(n, i, r)]
        pages.append(SSPage(r, table, ranks, ranks_in))
    return pages


def page_zero_matches_horizontal_boundary(fc: FilteredComplex, cyl, n, p, q):
    """The induced page-0 differential on the graded cell equals the
    (untwisted) horizontal boundary, entrywise."""
    src = fc.find_cell(n, p, q)
    dst = fc.find_cell(n - 1, p - 1, q)
    return fc.cell_block(n, src, dst) == cyl.b_h(p, q)


# -- Eilenberg-Zilber comparison at the Hochschild level -------------------------------

def ez_compare_hochschild(cyl, nmax):
    """dim H_n(Tot) vs dim H_n(diagonal b) per degree n <= nmax, for a
    cylinder (homology) or a cocylinder (cohomology, through transposes).

    Returns a list of (n, total_dim, diagonal_dim, equal); mismatches are
    reported, not raised.
    """
    from .cylinder import CoalgebraCocylinder, diagonal_cocyclic, diagonal_cyclic
    if isinstance(cyl, CoalgebraCocylinder):
        fc = total_complex_coalgebra(cyl, N=nmax + 1)
        diag = diagonal_cocyclic(cyl, N=nmax + 1)
    else:
        fc = total_complex_algebra(cyl, N=nmax + 1)
        diag = diagonal_cyclic(cyl, N=nmax + 1)
    tot = total_homology_dims(fc, nmax)
    dia = b_column_dims(diag, nmax)
    return [(n, tot[n], dia[n], tot[n] == dia[n]) for n in range(nmax + 1)]
