"""Sparse exact linear algebra: rank, kernel, image, homology dimensions.

Matrices are immutable dict-of-entries sparse maps over a Field.  Vectors are
dicts {index: scalar} with no stored zeros.  Everything is exact; there is no
tolerance anywhere.

There are two doors into a matrix.  The public constructor is for input from
outside the computation (parsed files, the Hopf builders, `from_rows`,
tests): it checks every key against the shape and settles every value into
the field (`Field.of` for a non-int, then `fields.settle`), so an F_p value
lies in [0, p), an integral Q value is an int and no zero is kept.  Every
computed result (`@`, `kron`, `amplify`, `widen`, `transpose`, `identity`,
`block_matrix`, `combine`, a basis matrix, an inverse, the compiled
operators of `tensor`) is settled exactly once by `fields.settle` or built
from settled scalars, and is adopted as is by `SparseMatrix._settled`.
Every sum of matrices, `+`, `-`, negation, `scale` and the alternating face
sums of the cylinders and mixed complexes, goes through `combine`.

Elimination has one forward pass, `_reduce_columns`: the persistence
reduction on columns, fraction-free over Q with native ints.  Each column
is reduced only by earlier ones and its pivot is its last nonzero row, so
its pairs respect any filtration that the coordinate order refines
(Edelsbrunner, Letscher & Zomorodian 2002).
`rank` is the number of pairs of the same reduction fed a matrix's rows,
the columns of its transpose, and keeps the pairs on the matrix.  Every
homology rank, and every pair a spectral page counts, comes from
`_homology_dims`: such a reduction of each coboundary d^T, cleared across
degrees, a row of d that is a pivot of the previous differential's
reduction being skipped (Chen & Kerber 2011).
`_echelonize` reads a row echelon form off the same reduction, with the
rows fed in as columns in reversed coordinates.  `_rref` adds one bottom-up
back-substitution through a {pivot column: row} index; `Subspace`, `kernel`
and `invert` use it, and `Subspace.reduce` clears a vector through the
same index.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import CompositionNotZero
from .fields import Field, settle


class SparseMatrix:
    """Immutable sparse matrix; entries maps (row, col) -> nonzero scalar."""

    __slots__ = ("field", "rows", "cols", "entries", "_cols_index",
                 "_pairs", "_kills")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError("entry (%d,%d) out of %dx%d" % (i, j, rows, cols))
                ent[(i, j)] = v if v.__class__ is int else field.of(v)
        self.entries = settle(field, ent)
        self._cols_index = None
        self._pairs = None
        self._kills = None

    @classmethod
    def _settled(cls, field, rows, cols, entries):
        """Adopt `entries` unchecked and uncopied.

        Every key must lie in bounds and every value must be settled: no
        zeros, an integral Q value an int, an F_p value in [0, p).
        """
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._cols_index = None
        m._pairs = None
        m._kills = None
        return m

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._settled(field, n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, field, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        ent = {}
        for i, r in enumerate(dense):
            for j, v in enumerate(r):
                v = field.of(v)
                if not field.is_zero(v):
                    ent[(i, j)] = v
        return cls(field, rows, cols, ent)

    @classmethod
    def column_vector(cls, field, vec, dim):
        """A dim x 1 matrix from a dict or list."""
        if isinstance(vec, dict):
            ent = {(i, 0): v for i, v in vec.items()}
        else:
            ent = {(i, 0): field.of(v) for i, v in enumerate(vec)}
        return cls(field, dim, 1, ent)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        return self.entries.get(ij, self.field.zero())

    def column_index(self):
        """{col: {row: scalar}} over the nonzero columns, built once."""
        if self._cols_index is None:
            idx = {}
            for (i, k), v in self.entries.items():
                idx.setdefault(k, {})[i] = v
            self._cols_index = idx
        return self._cols_index

    def column(self, j):
        """Column j as a dict {row: scalar}."""
        return self.column_index().get(j, {})

    def nnz(self):
        return len(self.entries)

    def to_rows(self):
        z = self.field.zero()
        out = [[z] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, self.nnz())

    def first_difference(self, other):
        """First (row, col) where self and other differ, or None."""
        keys = set(self.entries) | set(other.entries)
        for ij in sorted(keys):
            if self[ij] != other[ij]:
                return ij
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return combine(self.field, self.rows, self.cols, ((1, self), (1, other)))

    def __sub__(self, other):
        return combine(self.field, self.rows, self.cols, ((1, self), (-1, other)))

    def __neg__(self):
        return combine(self.field, self.rows, self.cols, ((-1, self),))

    def scale(self, c):
        return combine(self.field, self.rows, self.cols, ((c, self),))

    def __matmul__(self, other):
        """Composition self . other (apply other first)."""
        if self.cols != other.rows:
            raise ValueError("composition mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # Native sums; an exact cancellation over Q is dropped at once.  F_p
        # representatives are positive, so their sums never hit 0 before
        # `settle` reduces them.
        cols = self.column_index()
        sums = {}
        get = sums.get
        for (k, j), bv in other.entries.items():
            col = cols.get(k)
            if col:
                for i, av in col.items():
                    ij = (i, j)
                    w = get(ij, 0) + av * bv
                    if w:
                        sums[ij] = w
                    else:
                        del sums[ij]
        return SparseMatrix._settled(self.field, self.rows, other.cols,
                                     settle(self.field, sums))

    def transpose(self):
        return SparseMatrix._settled(
            self.field, self.cols, self.rows,
            {(j, i): v for (i, j), v in self.entries.items()})

    def kron(self, other):
        """Kronecker product; row-major, leftmost factor varying slowest."""
        f = self.field
        rows, cols = other.rows, other.cols
        right = list(other.entries.items())
        ent = {}
        for (i1, j1), v1 in self.entries.items():
            i0, j0 = i1 * rows, j1 * cols
            for (i2, j2), v2 in right:
                ent[(i0 + i2, j0 + j2)] = v1 * v2
        return SparseMatrix._settled(f, self.rows * rows, self.cols * cols,
                                     settle(f, ent))

    def apply(self, vec):
        """Apply to a dict-vector; returns a dict-vector."""
        cols = self.column_index()
        out = {}
        get = out.get
        for j, c in vec.items():
            col = cols.get(j)
            if col:
                for i, a in col.items():
                    out[i] = get(i, 0) + a * c
        return settle(self.field, out)


def combine(field, rows, cols, terms):
    """The rows x cols matrix sum of c * m over the (c, m) pairs of terms.

    Every m must be rows x cols.  The sum is taken with native + and * in one
    dict and settled once, so c may be any int or field scalar (a sign -1
    over F_p included).
    """
    sums = {}
    get = sums.get
    for c, m in terms:
        if m.rows != rows or m.cols != cols:
            raise ValueError("shape mismatch %sx%s vs %sx%s"
                             % (rows, cols, m.rows, m.cols))
        for ij, v in m.entries.items():
            sums[ij] = get(ij, 0) + c * v
    return SparseMatrix._settled(field, rows, cols, settle(field, sums))


def amplify(m: SparseMatrix, left, right) -> SparseMatrix:
    """I_left (x) m (x) I_right, by index arithmetic: m's entry at (i, j)
    lands at ((a rows + i) right + b, (a cols + j) right + b) for a < left
    and b < right.  The identity entries are 1, so m's scalars are adopted
    as they are, with no product and no settle."""
    rows, cols = m.rows * right, m.cols * right
    corners = [(a * rows + i * right, a * cols + j * right, v)
               for a in range(left) for (i, j), v in m.entries.items()]
    diagonal = range(right)
    return SparseMatrix._settled(m.field, left * rows, left * cols, {
        (r + b, c + b): v for r, c, v in corners for b in diagonal})


def widen(m: SparseMatrix, mid, row_lo, col_lo) -> SparseMatrix:
    """m with I_mid inserted at one digit of its rows and one of its
    columns, by index arithmetic: m's entry at (i, j) lands at
    ((i // row_lo mid + x) row_lo + i % row_lo,
    (j // col_lo mid + x) col_lo + j % col_lo) for x < mid.  So an operator
    on U (x) W -> U' (x) W', with row_lo = dim W' and col_lo = dim W, passes
    a middle factor of dimension mid through untouched.  As in `amplify`,
    m's scalars are adopted as they are, with no product and no settle."""
    corners = [((i // row_lo) * mid * row_lo + i % row_lo,
                (j // col_lo) * mid * col_lo + j % col_lo, v)
               for (i, j), v in m.entries.items()]
    middle = [(x * row_lo, x * col_lo) for x in range(mid)]
    return SparseMatrix._settled(m.field, m.rows * mid, m.cols * mid, {
        (r + dr, c + dc): v for r, c, v in corners for dr, dc in middle})


def block_matrix(field, blocks, row_dims, col_dims):
    """Assemble a matrix from a {(bi, bj): SparseMatrix} block dict."""
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    ent = {}
    for (bi, bj), m in blocks.items():
        if m is None:
            continue
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError("block (%d,%d) shape mismatch" % (bi, bj))
        for (i, j), v in m.entries.items():
            ent[(roff[bi] + i, coff[bj] + j)] = v
    return SparseMatrix._settled(field, roff[-1], coff[-1], ent)


# -- elimination --------------------------------------------------------------

def _echelonize(field, rows):
    """Row echelon form of a list of dict-vectors, read off `_reduce_columns`.

    Returns (pivots, rows): pivot columns strictly increasing, row k with
    entry 1 at pivots[k] and nothing to its left.  Entries above a pivot are
    left in place; `_rref` clears them.  Zero rows drop out, so the rank is
    len(pivots).

    Each row enters the column reduction as a column whose coordinate j is
    row -j, so its pivot, the last nonzero row, is the row's leftmost
    column.  The kept columns are scaled to pivot entry 1 and sorted by
    pivot.
    """
    _, kept = _reduce_columns(field, [
        (k, {-j: v for j, v in r.items()}) for k, r in enumerate(rows) if r])
    pivots = sorted(-low for low in kept)
    out = []
    for j in pivots:
        col = kept[-j]
        inv = field.inv(col[-j])
        out.append({-k: field.mul(inv, v) for k, v in col.items()})
    return pivots, out


def _rref(field, rows):
    """Reduced row echelon form: `_echelonize`, then one back-substitution.

    The back-substitution runs bottom-up through a {pivot column: row} index
    of the rows already reduced; each row is cleared only at the pivot
    columns it holds.  Every pivot entry is 1 and alone in its column, so the
    result is the canonical RREF of the row space.
    """
    pivots, rows = _echelonize(field, rows)
    below = {}
    for k in range(len(rows) - 1, -1, -1):
        rows[k] = below[pivots[k]] = _clear(field, rows[k], below)
    return pivots, rows


def _clear(field, r, index):
    """r - sum of r[j] * index[j] over the pivot columns j of index that r
    holds, summed natively and settled once.

    index maps pivot columns to reduced rows (entry 1 at their own pivot, 0
    at every other pivot in index), so each coefficient is the entry of r
    itself and the result is 0 at every pivot.
    """
    out = dict(r)
    get = out.get
    for j, c in r.items():
        row = index.get(j)
        if row is not None:
            for k, v in row.items():
                out[k] = get(k, 0) - c * v
    return settle(field, out)


def _reduce_columns(field, columns):
    """The one forward elimination: (pairs, kept) of a column reduction.

    columns is a list of (key, nonzero dict-vector), taken in order, each
    reduced only by earlier reduced columns: while its last nonzero row is
    the pivot of an earlier column, a multiple of that column is subtracted
    to clear it.  pairs maps the key of each column that does not reduce to
    zero to its pivot row; kept maps each pivot row to its reduced column,
    normalized by `_kept_column`.

    Sums are native and the rows of the column being reduced wait in a
    max-heap, so the next pivot candidate is found without a rescan; over
    F_p an entry is settled only when it reaches the top of the heap.  Over
    Q the reduction is fraction-free: the column is scaled by the pivot
    entry of the column it subtracts, which `_kept_column` keeps a positive
    int.
    """
    p = field.p
    kept = {}
    pairs = {}
    for j, col in columns:
        low = max(col)
        if low in kept:
            col = dict(col) if p is not None else _integral(col)
            heap = [-k for k in col]
            heapq.heapify(heap)
            while low is not None and low in kept:
                pcol = kept[low]
                v = col[low]
                pv = pcol[low]  # 1 over F_p
                if pv != 1:
                    for k in col:
                        col[k] *= pv
                for k, w in pcol.items():
                    if k in col:
                        col[k] -= v * w
                    else:
                        col[k] = -v * w
                        heapq.heappush(heap, -k)
                del col[low]  # cancelled exactly
                heapq.heappop(heap)
                low = None
                while heap:
                    k = -heap[0]
                    w = col[k] if p is None else col[k] % p
                    if w:
                        col[k] = w
                        low = k
                        break
                    del col[k]
                    heapq.heappop(heap)
            if low is None:
                continue
        pairs[j] = low
        kept[low] = _kept_column(field, col, low)
    return pairs, kept


def _integral(col):
    """A Q column times the lcm of its denominators: an int vector."""
    den = 1
    for v in col.values():
        if v.__class__ is Fraction:
            den = math.lcm(den, v.denominator)
    return {k: int(v * den) for k, v in col.items()}


def _kept_column(field, col, low):
    """A reduced column, settled once: over F_p scaled to pivot entry 1,
    over Q an int vector with coprime entries and a positive pivot entry."""
    p = field.p
    if p is not None:
        inv = field.inv(col[low] % p)
        return settle(field, {k: v * inv for k, v in col.items()})
    col = _integral(col)
    g = math.gcd(*col.values())
    if col[low] < 0:
        g = -g
    return {k: v // g for k, v in col.items() if v}


class Subspace:
    """A subspace of k^n presented by a reduced-echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_index", "_pos")

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        pivots, basis = _rref(field, list(vectors))
        self.basis = basis
        self.pivots = pivots
        self._index = dict(zip(pivots, basis))
        self._pos = None

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residual of a dict-vector modulo this subspace: 0 at every
        pivot."""
        return _clear(self.field, vec, self._index)

    def contains(self, vec):
        return not self.reduce(vec)

    def coefficients(self, vec):
        """The nonzero coefficients of vec in the echelon basis, as {basis
        index: scalar}, or None if vec lies outside.  The basis is reduced,
        so they are the entries of vec at the pivots."""
        if not self.contains(vec):
            return None
        if self._pos is None:
            self._pos = {j: k for k, j in enumerate(self.pivots)}
        pos = self._pos
        return {pos[j]: v for j, v in vec.items() if j in pos}

    def sum(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace(self.field, self.ambient_dim, self.basis + other.basis)

    def basis_matrix(self):
        """ambient_dim x dim matrix whose columns are the basis vectors."""
        ent = {}
        for k, b in enumerate(self.basis):
            for i, v in b.items():
                ent[(i, k)] = v
        return SparseMatrix._settled(self.field, self.ambient_dim, self.dim,
                                     ent)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def rank(m: SparseMatrix, cleared=()) -> int:
    """The number of pairs of the reduction of m's rows.

    The rows enter `_reduce_columns` as columns, read off m's entries with
    no transpose, so each pivot is a row's last nonzero column.  The pairs
    are kept on m as {pivot column: row}, so m is reduced once however
    often its rank is asked for, and the pivot columns are at hand to clear
    the next differential's rows.  Rows in cleared are skipped: the caller
    vouches that each is a combination of earlier rows, which would reduce
    to zero, so the pairs kept are those of the full reduction.
    """
    if m._pairs is None:
        rows = {}
        for (i, j), v in m.entries.items():
            rows.setdefault(i, {})[j] = v
        pairs, _ = _reduce_columns(m.field, [
            (i, rows[i]) for i in sorted(rows) if i not in cleared])
        m._pairs = {low: i for i, low in pairs.items()}
    return len(m._pairs)


def kernel(m: SparseMatrix) -> Subspace:
    """Basis of {v : Mv = 0}."""
    f = m.field
    pivots, rred = _rref(f, m.row_dicts())
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    vecs = []
    for fc in free:
        v = {fc: f.one()}
        for pc, r in zip(pivots, rred):
            c = r.get(fc)
            if c is not None:
                v[pc] = f.neg(c)
        vecs.append(v)
    return Subspace(f, m.cols, vecs)


def image(m: SparseMatrix) -> Subspace:
    """Column span."""
    return Subspace(m.field, m.rows, m.transpose().row_dicts())


def _homology_dims(pairs):
    """dim ker(d_out) - rank(d_in) for each (d_out, d_in) pair of an
    iterable of consecutive differentials, in order.

    Every rank is one reduction of a coboundary's columns, the rows of d,
    cleared in the cohomology direction (Chen & Kerber 2011).  Once
    d_out . d_in = 0 is verified, each pivot column c of d_out's row
    reduction is skipped among d_in's rows: the reduced row of d_out with
    last nonzero entry at c is a combination R with R . d_in = 0, so row c
    of d_in is a combination of the rows before it.  A differential is d_in
    at one degree and d_out at the next and `rank` keeps its pairs, so
    each matrix is reduced once.  A composite found zero is kept on its
    left factor (`_kills`), here or by a caller that has already formed
    it, so each composite is multiplied once.  A shape mismatch or a
    nonzero composite (CompositionNotZero) raises at the first pair that
    has it.
    """
    out = []
    for d_out, d_in in pairs:
        if d_out.cols != d_in.rows:
            raise ValueError("complex shape mismatch")
        if d_out._kills is not d_in:
            comp = d_out @ d_in
            if not comp.is_zero():
                ij = sorted(comp.entries)[0]
                raise CompositionNotZero("d.d != 0 first at %s" % (ij,))
            d_out._kills = d_in
        if d_out._pairs is None:
            rank(d_out)
        out.append(d_in.rows - len(d_out._pairs) - rank(d_in, d_out._pairs))
    return out


def invert(m: SparseMatrix):
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    f = m.field
    n = m.rows
    aug = []
    for i, r in enumerate(m.row_dicts()):
        r = dict(r)
        r[n + i] = f.one()
        aug.append(r)
    pivots, rred = _rref(f, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    ent = {}
    for i, r in zip(pivots, rred):
        for j, v in r.items():
            if j >= n:
                ent[(i, j - n)] = v
    return SparseMatrix._settled(f, n, n, ent)
