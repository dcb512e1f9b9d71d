"""Mixed complexes, Hopf-module homology, total complexes, pages: chain
complexes only, and the closed form that needs none.

Every cochain invariant is the chain invariant of the transpose, which has
the same ranks: a cocyclic module is read as its dual cyclic module in
cochain order (`crossed._CochainOrder`), its cofaces summed transposed into
b and each B composed as the cochain B and transposed once, a comodule
over H as the dual module over H* (`hopf.dual_hopf`), and a cocylinder's
total complex as its transpose, filtered by q <= i (a filtered complex and
its dual have the same persistence pairs: de Silva, Morozov &
Vejdemo-Johansson 2011).

Everything reduces to exact rank computations.  Every homology dimension
and every spectral page comes from `_homology_dims`, which checks each
composite d_out . d_in = 0 and takes each rank from one reduction of the
coboundary d^T, cleared across degrees in the cohomology direction (Chen &
Kerber 2011); the pages read the pairs that reduction keeps on each
differential.  The Hochschild boundary b is the
alternating sum of the faces, built in one place (`hochschild_boundary`).
The degree-raising operator of a mixed complex is built as
(1 - signed_cyclic) . extra_degeneracy . norm, with the extra degeneracy
t s_n.  A mixed complex through degree N holds b through N and B only
through N - 2: the blocks of Tot_N, all that the ranks through degree
N - 1 read.  The three mixed-complex identities are asserted on those
blocks, never assumed, in one place, `check_mixed_complex`.  It reads them
off the composites D D of the (b, B) total complex, which it keeps for the
ranks of `cyclic_dims` and `hochschild_dims`, and multiplies apart only
B B at N - 3, which those composites do not reach, so each product is
formed once.  The normalized
mixed complex of an algebra (`normalized_mixed_complex`) drops the
degenerate chains, those with the unit in a leg past the first, and writes
b and B = s N on the rest by index arithmetic.  It gives an algebra's
Hochschild and cyclic homology over every field (Loday, Cyclic Homology,
2.1.9), so it is the one chain route for both.

An algebra that is semisimple over Q needs no chain complex: its HH_0 is
d - rank [R, R] and every other HH_n is zero, so HC_2k = HH_0 and
HC_2k+1 = 0 (`semisimple_hh0`, which decides semisimplicity by the rank of
the trace form).  The normalized complex stays the general route and its
test oracle.

The total complex of a cylinder carries d = (-1)^p b_vertical + b_horizontal
(the sign lives on the vertical part and depends on the horizontal degree, as
required by d^2 = 0 for commuting boundaries) and is filtered by the vertical
degree.  Its cell blocks are laid out by q descending, so each d_n^T is a
coboundary of the dual complex in coordinates that refine the dual
filtration q >= i: the cleared reduction of `_homology_dims` pairs the
generators on d_n as it is built, and every spectral-sequence page and page
differential rank is a count of those pairs by filtration gap.

The bar and cobar complexes and the total complexes are built on their
normalized chains, with no unit (on the cochain side, counit) in a leg of H
past the first: the degenerate chains span a subcomplex with acyclic rows
(Mac Lane, Homology, X.2), so the homology and every page from E^1 on are
unchanged, and E^0 is restored by its closed form.
"""

from __future__ import annotations

from collections import Counter

from .crossed import (
    CocyclicOps, CyclicOps, _CochainOrder, normalized_faces, unit_first,
    unit_legs,
)
from .errors import (
    AxiomFailure, BoundaryNotSquareZero, CoboundaryNotSquareZero,
    CompositionNotZero, FiltrationViolation, HomotopyFailure,
    MixedIdentityFailure, NotCosemisimple, NotSemisimple, TotalNotSquareZero,
    TruncationTooShallow,
)
from .fields import settle
from .hopf import dual_hopf
from .linalg import (
    SparseMatrix, _homology_dims, amplify, block_matrix, col_items, combine,
    kernel, pack_columns, place, rank, widen,
)


class MixedComplex:
    """Spaces with b (degree -1) and B (degree +1).

    b[n]: M_n -> M_{n-1} (1 <= n <= N), B[n]: M_n -> M_{n+1} (0 <= n <= N-2):
    the blocks of the (b, B) total complex through Tot_N, all that the ranks
    through degree N - 1 read.  B[N-1] would only enter Tot_(N+1).
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
    """A cyclic module as is; a cocyclic one read as its transpose, its own
    matrices composed in cochain order (`crossed._CochainOrder`)."""
    return _CochainOrder(ops) if isinstance(ops, CocyclicOps) else ops


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
    """b out of degree n: sum of (-1)^i d_i, C_n -> C_{n-1}; on a cochain
    view the cofaces are summed transposed (`place`)."""
    return place(ops.field, ops.dim(n - 1), ops.dim(n),
                 [((-1) ** i, ops.face(n, i), 0, 0, ops.transposed)
                  for i in range(n + 1)])


def mixed_complex(ops) -> MixedComplex:
    """Mixed complex of a cyclic module: b alternating faces,
    B = (1 - lambda) (t s_n) N.  A cocyclic module gives the mixed complex
    of its transpose: each B is composed in cochain order, the cochain
    B = N (sig^n t) (1 - lambda), and only the finished B is transposed.
    It reads the faces through degree N, but the degeneracies and the
    rotation only through N - 1: none into N and none at N."""
    ops = _as_cyclic(ops)
    N = ops.N
    b = {n: hochschild_boundary(ops, n) for n in range(1, N + 1)}
    B = {n: ops.compose(_one_minus_lambda(ops, n + 1),
                        ops.compose(ops.t(n + 1), ops.degen(n, n)),
                        _norm(ops, n)) for n in range(N - 1)}
    if ops.transposed:
        B = {n: m.transpose() for n, m in B.items()}
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
    rows = d * e ** (n + 1)
    sums = {}
    get = sums.get
    for y in range(e ** (n + 1)):
        base = (e ** n + y) * rows
        for i in range(n + 1):
            top = e ** (n + 1 - i)
            key = base + (y % top) * e ** i + y // top
            sums[key] = get(key, 0) + (-1 if n * i % 2 else 1)
    return SparseMatrix._of_columns(field, rows, d * e ** n,
                                    pack_columns(field, sums, rows))


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
                      {n: _normalized_B(r.field, d, n) for n in range(N - 1)},
                      N)
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
    """b^2 = 0, B^2 = 0, bB + Bb = 0, exactly, on every block the complex
    holds (b through N, B through N - 2); raises MixedIdentityFailure at
    the first failure, b b before B B before bB + Bb, each by ascending
    degree.

    The identities are read off the composites D_(n-1) D_n of the total
    complex, n = 2..N, the ones `cyclic_dims` checks.  The source block of
    degree m = n - 2j of Tot_n goes by b b into degree m - 2, by bB + Bb
    into degree m (j >= 1) and by B B into degree m + 2 (j >= 2).  So the
    composites reach b b at every degree 2..N, bB + Bb at every degree
    1..N-2 and B B at 0..N-4; only B B at N - 3 is multiplied directly.
    Each b b and each composite found zero is kept on its left
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
        return not any(lo <= j < hi and col[0] < rows
                       for j, col in comps[n].columns.items())

    for n in range(2, N + 1):
        if not zero(n, 0):
            raise MixedIdentityFailure("b b != 0 at degree %d" % n)
    for n in range(N - 2):
        if not (zero(n + 4, 2) if n + 4 <= N
                else (mc.B[n + 1] @ mc.B[n]).is_zero()):
            raise MixedIdentityFailure("B B != 0 at degree %d" % n)
    for n in range(1, N - 1):
        if not zero(n + 2, 1):
            raise MixedIdentityFailure("bB + Bb != 0 at degree %d" % n)
    for n in range(2, N + 1):
        mc.b[n - 1]._kills = mc.b[n]
        if comps[n].is_zero():
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


# -- b alone on a (co)cyclic module; the closed form of a semisimple algebra ---

def b_column_dims(ops, nmax):
    """Hochschild homology of a cyclic module, or of a cocyclic module's
    transpose, through degree nmax (nmax <= N-1), from b alone: no B, no
    mixed complex, and no matrix transposed."""
    ops = _as_cyclic(ops)
    _check_truncation(nmax, ops.N)
    return _homology_dims(_degree_pairs(
        ops.field, ops.dim(0), lambda n: hochschild_boundary(ops, n), nmax))


def semisimple_hh0(r):
    """dim HH_0(r) = d - rank [r, r] when the algebra r is semisimple over
    Q; None over F_p or when r is not semisimple.

    In characteristic 0 the radical of the trace form tr(L_x L_y) is the
    Jacobson radical (Dickson's criterion), so r is semisimple exactly when
    G_ab = tr(L_(e_a) L_(e_b)) = tr L_(e_a e_b) = sum_c m^c_ab tau_c,
    tau_c = tr L_(e_c) = sum_k m^k_ck, has rank d.  A semisimple algebra
    over Q is separable, so HH_n = 0 for n >= 1, and by the SBI sequence
    HC_2k = HH_0 and HC_2k+1 = 0 (Loday, Cyclic Homology; Cibils 2000)."""
    f = r.field
    if f.p is not None:
        return None
    d, cols = r.dim, r.mult.columns  # column a d + b: e_a e_b
    tau = [0] * d
    for pair, col in cols.items():
        c, k = divmod(pair, d)
        tau[c] += sum(v for i, v in col_items(col) if i == k)
    gram = {divmod(pair, d): sum(v * tau[c] for c, v in col_items(col))
            for pair, col in cols.items()}
    if rank(SparseMatrix._settled(f, d, d, settle(f, gram))) < d:
        return None
    commutators = {}  # column j: e_a e_b - e_b e_a, a < b in order
    pairs = ((a, b) for a in range(d) for b in range(a + 1, d))
    for j, (a, b) in enumerate(pairs):
        for sign, pair in ((1, a * d + b), (-1, b * d + a)):
            for c, v in col_items(cols.get(pair, ())):
                commutators[(c, j)] = commutators.get((c, j), 0) + sign * v
    return d - rank(SparseMatrix._settled(
        f, d, d * (d - 1) // 2, settle(f, commutators)))


# -- Hopf-module homology and Hopf-comodule cohomology -------------------------------

def trivial_module_action(h):
    """H acting on the ground field through the counit."""
    return h.counit


def trivial_comodule_coaction(h):
    """The ground field coacting trivially: 1 (x) m."""
    return h.unit


def hopf_module_boundary(h, action, p):
    """The bar boundary H^(x)p (x) M -> H^(x)(p-1) (x) M."""
    return _bar_boundary((h.counit, h.mult, action, h.dim, action.rows), p)


def hopf_comodule_coboundary(h, coaction, p):
    """The cobar coboundary H^(x)p (x) M -> H^(x)(p+1) (x) M: the transpose
    of the bar boundary of M* (action: the transposed coaction) over the dual
    Hopf algebra H*."""
    return hopf_module_boundary(dual_hopf(h), coaction.transpose(),
                                p + 1).transpose()


def _check_bar_laws(h, action, top):
    """delta delta = 0 on the full bar complex through degree min(3, top),
    whose composites hold every face identity that a higher one tensors
    with identities, so a failure is named at the degree the full complex
    shows it; then the unit laws of the product, counit and action, which
    make the degenerate chains a subcomplex (else AxiomFailure)."""
    lower = None
    for p in range(1, min(3, top) + 1):
        upper = hopf_module_boundary(h, action, p)
        if lower is not None and not (lower @ upper).is_zero():
            raise BoundaryNotSquareZero(p)
        lower = upper
    f, d, m = h.field, h.dim, action.rows
    ident = SparseMatrix.identity(f, d)
    if not (h.mult @ amplify(h.unit, 1, d) == ident
            and h.mult @ amplify(h.unit, d, 1) == ident
            and h.counit @ h.unit == SparseMatrix.identity(f, 1)
            and action @ amplify(h.unit, 1, m)
            == SparseMatrix.identity(f, m)):
        raise AxiomFailure("the unit of the bar complex is not a unit of "
                           "its product, counit and action")


def _bar_boundary(pieces, p):
    """The bar boundary out of degree p on the chains L^(x)p (x) M, from the
    `pieces` (counit, product, action, e, m), e = dim L, m = dim M: on the
    full chains (L = H, `hopf_module_boundary`) and on the normalized ones
    (L = Hbar, the pieces that `hopf_module_homology` reads off H once).
    Its faces are laid out as `crossed.normalized_faces` lays them out: the
    counit on the first leg, the product of each adjacent pair of legs,
    the action on the last leg and M."""
    eps, bar, act, e, m = pieces
    faces = [amplify(eps, 1, e ** (p - 1) * m)]
    faces += [amplify(bar, e ** (i - 1), e ** (p - 1 - i) * m)
              for i in range(1, p)]
    faces.append(amplify(act, e ** (p - 1), 1))
    return combine(eps.field, e ** (p - 1) * m, e ** p * m,
                   (((-1) ** i, face) for i, face in enumerate(faces)))


def hopf_module_homology(h, action, qmax):
    """dims of H_q of the bar complex of the module with structure map
    action, ranked on the normalized bar complex Hbar^(x)p (x) M, Hbar =
    H / k 1, on (d - 1)^p m coordinates instead of d^p m; the unit need not
    be e_0 (`crossed.unit_legs`).

    After `_check_bar_laws`, `_homology_dims` checks each normalized
    composite delta_(p-1) delta_p right after building delta_p, so a
    failure is BoundaryNotSquareZero(p) at the lowest degree p showing it."""
    f = h.field
    _check_bar_laws(h, action, qmax + 1)
    C, P = unit_legs(f, h.unit)
    m = action.rows
    pieces = (h.counit @ C, P @ h.mult @ C.kron(C),
              action @ amplify(C, 1, m), h.dim - 1, m)
    built = []

    def delta(p):
        built.append(p)
        return _bar_boundary(pieces, p)

    try:
        return _homology_dims(_degree_pairs(f, m, delta, qmax))
    except CompositionNotZero:
        raise BoundaryNotSquareZero(built[-1]) from None


def hopf_comodule_cohomology(h, coaction, pmax):
    """dims of H^p of the cobar complex of the comodule, as the bar homology
    of M* over H* (bar degree p + 1 is cobar degree p): the normalized one,
    in the basis of H* whose unit, the counit of H, is f_0."""
    try:
        return hopf_module_homology(dual_hopf(h), coaction.transpose(), pmax)
    except BoundaryNotSquareZero as e:
        raise CoboundaryNotSquareZero(e.degree - 1) from None
    except AxiomFailure:
        raise AxiomFailure("the counit of the cobar complex is not a counit "
                           "of its coproduct, unit and coaction") from None


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
    """A truncated chain complex with an increasing filtration, one level
    per coordinate.

    cells[n] lists (p, q, offset, dim) summands of T_n, one after the other
    and q descending; the filtration index is the vertical degree q
    (F_i T_n = sum over q <= i), `level(n)` reads it off per coordinate,
    and d[n] maps T_n -> T_{n-1}.  On a total complex normalized in the H
    direction, degenerate maps each cell (p, q) to the dimension of its
    degenerate part, from which `spectral_pages` restores E^0.
    """

    def __init__(self, field, dims, d, cells, N, degenerate=None):
        self.field = field
        self.dims = dims
        self.d = d
        self.cells = cells
        self.N = N
        self.degenerate = degenerate or {}

    def dim(self, n):
        return 0 if n < 0 or n > self.N else self.dims[n]

    def level(self, n):
        """The level q of each coordinate of T_n.  FiltrationViolation
        unless the cells tile T_n, each starting where the one before it
        ends, in an order that refines the filtration (q descending)."""
        out = []
        for (_, q, off, dim) in self.cells[n]:
            if off != len(out):
                break
            if dim and out and out[-1] < q:
                raise FiltrationViolation("coordinate order does not refine "
                                          "the filtration at degree %d" % n)
            out += [q] * dim
        else:
            if len(out) == self.dim(n):
                return out
        raise FiltrationViolation("filtration not exhaustive at degree %d"
                                  % n)


def _normalized_cells(cyl, N):
    """cells[n] = [(n - q, q, offset, dim) for q = n, n-1, ..., 0] of the
    cells H (x) Hbar^(x)p (x) B^(x)(q+1), dims[n], and the dimension of the
    degenerate part of each full cell."""
    dh, db = cyl.dh, cyl.db
    cells, dims, degenerate = [], [], {}
    for n in range(N + 1):
        row = []
        off = 0
        for q in range(n, -1, -1):
            p = n - q
            dim = dh * (dh - 1) ** p * db ** (q + 1)
            row.append((p, q, off, dim))
            degenerate[(p, q)] = cyl.space_dim(p, q) - dim
            off += dim
        cells.append(row)
        dims.append(off)
    return cells, dims, degenerate


def _total_complex(cyl, N, unit, hopf_map, block_map, v_kernel, h_kernel,
                   transposed):
    """Tot_n = sum of the cells X_{p,q} (p+q = n, q descending), each
    normalized in the H direction, d = (-1)^p b_v + b_h with
    b_v(p, q): X_{p,q} -> X_{p,q-1} and b_h(p, q): X_{p,q} -> X_{p-1,q},
    filtered by F_i = sum over q <= i.

    The horizontally degenerate chains, images of degen_h, have `unit`
    (H's unit; on the coalgebra side the counit of H, the unit of H*) in
    an H leg past the first.  Vertical operators commute with horizontal
    ones, so they span a sub-double complex, each of whose rows is acyclic
    (Loday, Cyclic Homology, 1.1.14).  The quotient lives on the cells
    H (x) Hbar^(x)p (x) B^(x)(q+1), Hbar = H / k unit, where a map of
    cells is read as P (x) ... m ... (x) C on the Hbar legs
    (`crossed.unit_legs`; transposed for a cocylinder's coboundaries).
    The (co)faces on the B legs are `amplify` of `block_map`, those on two
    H legs `amplify` of `hopf_map` read on the quotient, and the last ones
    the kernels v_kernel(p), h_kernel(q), read on the quotient once and
    passed through the other legs by `widen`; each is summed straight into
    its block of d_n (`place`).  Unchecked: `spectral_pages` checks d d = 0
    and the filtration, `total_homology_dims` every composite."""
    f, dh, db = cyl.field, cyl.dh, cyl.db
    e = dh - 1
    C, P = unit_legs(f, unit)
    left, right = (C.transpose(), P.transpose()) if transposed else (P, C)

    def on(one, free, bars, tail):
        """I_free (x) one^(x)bars (x) I_tail, bars >= 1."""
        out = one
        for _ in range(bars - 1):
            out = out.kron(one)
        return amplify(out, free, tail)

    def quotient(m, tgt, src):
        """m, a map from the chain cell src to tgt (its transpose when
        transposed), each given as (free, bars, tail) legs, read on the
        quotient."""
        if transposed:
            tgt, src = src, tgt
        if src[1]:
            m = m @ on(right, *src)
        if tgt[1]:
            m = on(left, *tgt) @ m
        return m

    def passing(m, mid, tgt_lo, src_lo):
        """m with I_mid passed through above the digit tgt_lo of the chain
        target and src_lo of the chain source."""
        if transposed:
            return widen(m, mid, src_lo, tgt_lo)
        return widen(m, mid, tgt_lo, src_lo)

    first = quotient(hopf_map, (dh, 0, 1), (dh, 1, 1))
    inner = quotient(hopf_map, (1, 1, 1), (1, 2, 1))
    kernel_v = [quotient(v_kernel(p), (dh, p, db), (dh, p, db * db))
                for p in range(N)]
    kernel_h = [quotient(h_kernel(q), (dh, 0, db ** (q + 1)),
                         (dh, 1, db ** (q + 1))) for q in range(N)]
    cells, dims, degenerate = _normalized_cells(cyl, N)
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
                           to, off, transposed) for i in range(q)]
                last = kernel_v[p]
                if q > 1:
                    last = passing(last, db ** (q - 1), 1, db)
                terms.append((sign * (-1) ** q, last, to, off, transposed))
            if p >= 1:
                to = below[q]
                tail = db ** (q + 1)
                terms.append((1, amplify(first, 1, e ** (p - 1) * tail), to,
                              off, transposed))
                terms += [((-1) ** i, amplify(inner, dh * e ** (i - 1),
                                              e ** (p - 1 - i) * tail),
                           to, off, transposed) for i in range(1, p)]
                last = kernel_h[q]
                if p > 1:
                    last = passing(last, e ** (p - 1), tail, e * tail)
                terms.append(((-1) ** p, last, to, off, transposed))
        d[n] = place(f, dims[n - 1], dims[n], terms)
    return FilteredComplex(f, dims, d, cells, N, degenerate)


def total_complex_algebra(cyl, N=3) -> FilteredComplex:
    """The total complex of the cylinder, d = (-1)^p b_v + b_h, normalized
    in the H direction."""
    return _total_complex(cyl, N, cyl.hopf.unit, cyl.hopf.mult, cyl.A.mult,
                          lambda p: cyl.face_v(p, 1, 1),
                          lambda q: cyl.face_h(1, q, 1), False)


def total_complex_coalgebra(cocyl, N=3) -> FilteredComplex:
    """The transpose of the cochain total complex Tot^n = sum of X_{p,q}
    (p+q = n), d^n = (-1)^p b_v + b_h, filtered by q >= i: the cylinder's
    total complex of the transposed coboundaries b_v(p, q-1)^T and
    b_h(p-1, q)^T, filtered by q <= i.  It has the cochain complex's
    (co)homology and pages; a cochain d^r out of a position is d^r into it.
    Its cells run q descending, an order that refines the cochain
    filtration q >= i.  It is normalized in the H direction: the
    codegeneracies apply the counit, so its transpose is normalized as a
    cylinder over H* is, in the basis of H whose counit is the first dual
    basis vector (e'_j = e_j - e_0 for a group algebra).  The cocylinder
    is compiled over H as given, and that change of basis is carried onto
    its kernels: compiled over the changed H, whose coproduct is denser,
    the corpus cocylinders built 24 to 115 times slower.
    """
    return _total_complex(cocyl, N, cocyl.hopf.counit.transpose(),
                          cocyl.hopf.comult, cocyl.C.comult,
                          lambda p: cocyl.coface_v(p, 0, 1),
                          lambda q: cocyl.coface_h(0, q, 1), True)


def check_filtration(fc: FilteredComplex):
    """Exhaustion, refinement (`FilteredComplex.level`) and d-stability of
    the filtration, exactly.

    Every piece is a union of cells by level, so the pieces nest.  Levels
    fall as the coordinate index rises, so a column's first row sits at the
    highest level the column reaches: d leaves the filtration exactly when
    a column of d_n has its first row above the column's own level."""
    level = [fc.level(n) for n in range(fc.N + 1)]
    for n in range(1, fc.N + 1):
        src, tgt = level[n], level[n - 1]
        out = [src[j] for j, col in fc.d[n].columns.items()
               if tgt[col[0]] > src[j]]
        if out:
            raise FiltrationViolation("d leaves F_%d at degree %d"
                                      % (min(out), n))
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


def spectral_pages(fc: FilteredComplex, rmax, window):
    """Pages E^0..E^rmax of the filtered complex, from the one cleared
    reduction that gives its homology dimensions.

    The dual complex is filtered by q >= i, which the coordinates refine:
    the cells run q descending.  So d_n is the transpose of the coboundary
    d^(n-1) in such coordinates, and the reduction of its rows in
    `_homology_dims`, each pivot a row's last nonzero column, is the
    filtered reduction of the coboundary's columns, cleared across degrees.
    It keeps its pairs (column, pivot row) on d_n, and they split the
    complex into elementary pieces: a pair (column in degree n, pivot row)
    of filtration gap g = level(column) - level(row) lives on pages
    E^0..E^g and is killed by d^g.  Hence dim E^r at (i, j) (filtration
    degree, complementary degree; total n = i + j) counts the degree-n
    generators at level i that are unpaired or have gap >= r; the rank of
    d^r out of (i, j) counts the pairs whose column sits there with gap
    exactly r, and the rank into (i, j) the pairs whose row sits there.
    Entries need total degree <= N-1 so that both incoming and outgoing
    boundaries stay inside the truncation; a rank whose target degree falls
    outside 0..N is 0, as no pair reaches it.  On a total complex
    normalized in the H direction, E^0 adds back the degenerate parts
    (`fc.degenerate`): their dimensions, and the ranks of their acyclic
    rows.

    The pages rely on d d = 0 and on a filtration that d preserves: the
    reduction checks every composite, through d_N whatever the window, and
    raises TotalNotSquareZero at the lowest degree n of a nonzero
    d_(n-1) d_n; the filtration is checked before any pair is read.  Then
    every gap is >= 0: each coboundary column has entries only at levels
    >= its own, and the reduction adds to it only columns to its left,
    whose levels are >= its own too.
    """
    built = []

    def d(n):
        built.append(n)
        return fc.d[n]

    try:
        _homology_dims(_degree_pairs(fc.field, fc.dim(0), d, fc.N - 1))
    except CompositionNotZero:
        raise TotalNotSquareZero("d d != 0 at degree %d" % built[-1]) \
            from None
    check_filtration(fc)
    imax, jmax = window
    nmax = min(fc.N - 1, imax + jmax)
    level = {n: fc.level(n) for n in range(nmax + 2)}
    gens = Counter()     # (n, level) -> generators
    paired = Counter()   # (n, level, gap) -> generators paired with that gap
    sources = Counter()  # (n, level, gap) -> pairs with their column there
    targets = Counter()  # (n, level, gap) -> pairs with their row there
    for n in range(nmax + 1):
        for (_, q, _, dim) in fc.cells[n]:
            gens[(n, q)] += dim
    for n in range(1, nmax + 2):
        src, tgt = level[n], level[n - 1]
        for col, row in fc.d[n]._pairs.items():
            g = src[col] - tgt[row]
            paired[(n, src[col], g)] += 1
            paired[(n - 1, tgt[row], g)] += 1
            sources[(n, src[col], g)] += 1
            targets[(n - 1, tgt[row], g)] += 1
    degenerate = fc.degenerate

    def acyclic_rank(p, q):
        """The rank of d^0 = b_h out of the degenerate part of the cell
        (p, q): its row is acyclic, so this rank is
        sum over k < p of (-1)^(p-1-k) times the dimension at (k, q)."""
        return sum((-1) ** (p - 1 - k) * degenerate.get((k, q), 0)
                   for k in range(p))

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
                if r == 0:
                    table[(i, j)] += degenerate.get((j, i), 0)
                    ranks[(i, j)] += acyclic_rank(j, i)
                    ranks_in[(i, j)] += acyclic_rank(j + 1, i)
        pages.append(SSPage(r, table, ranks, ranks_in))
    return pages


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
