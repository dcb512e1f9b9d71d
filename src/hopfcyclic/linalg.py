"""Sparse exact linear algebra: rank, kernel, image, homology dimensions.

Matrices are immutable dict-of-entries sparse maps over a Field.  Vectors are
dicts {index: scalar} with no stored zeros.  Everything is exact; there is no
tolerance anywhere.

All elimination goes through one kernel.  `_echelonize` is the forward pass:
rows are bucketed by leading column and only the bucket of the current pivot
column is reduced.  The pivot is the leftmost column, then the sparsest row
holding it, then the first such row in input order.  `rank` needs only this
pass.  `_rref` adds one bottom-up back-substitution through a {pivot column:
row} index; `Subspace`, `kernel`, `solve` and `invert` use it, and
`Subspace.reduce` clears a vector through the same index.
"""

from __future__ import annotations

import heapq

from .errors import CompositionNotZero
from .fields import Field


class SparseMatrix:
    """Immutable sparse matrix; entries maps (row, col) -> nonzero scalar."""

    __slots__ = ("field", "rows", "cols", "entries", "_cols_index")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError("entry (%d,%d) out of %dx%d" % (i, j, rows, cols))
                if not field.is_zero(v):
                    ent[(i, j)] = v
        self.entries = ent
        self._cols_index = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls(field, n, n, {(i, i): one for i in range(n)})

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

    @classmethod
    def row_vector(cls, field, vec, dim):
        if isinstance(vec, dict):
            ent = {(0, j): v for j, v in vec.items()}
        else:
            ent = {(0, j): field.of(v) for j, v in enumerate(vec)}
        return cls(field, 1, dim, ent)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        return self.entries.get(ij, self.field.zero())

    def column(self, j):
        """Column j as a dict {row: scalar}."""
        if self._cols_index is None:
            idx = {}
            for (i, k), v in self.entries.items():
                idx.setdefault(k, {})[i] = v
            self._cols_index = idx
        return self._cols_index.get(j, {})

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

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch %sx%s vs %sx%s"
                             % (self.rows, self.cols, other.rows, other.cols))

    def __add__(self, other):
        self._same_shape(other)
        f = self.field
        ent = dict(self.entries)
        for ij, v in other.entries.items():
            w = f.add(ent.get(ij, f.zero()), v)
            if f.is_zero(w):
                ent.pop(ij, None)
            else:
                ent[ij] = w
        return SparseMatrix(f, self.rows, self.cols, ent)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one()))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one()))

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return SparseMatrix.zeros(f, self.rows, self.cols)
        return SparseMatrix(f, self.rows, self.cols,
                            {ij: f.mul(c, v) for ij, v in self.entries.items()})

    def __matmul__(self, other):
        """Composition self . other (apply other first)."""
        if self.cols != other.rows:
            raise ValueError("composition mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        ent = {}
        for (k, j), bv in other.entries.items():
            col = self.column(k)
            for i, av in col.items():
                ij = (i, j)
                w = f.add(ent.get(ij, f.zero()), f.mul(av, bv))
                if f.is_zero(w):
                    ent.pop(ij, None)
                else:
                    ent[ij] = w
        return SparseMatrix(f, self.rows, other.cols, ent)

    def transpose(self):
        return SparseMatrix(self.field, self.cols, self.rows,
                            {(j, i): v for (i, j), v in self.entries.items()})

    def kron(self, other):
        """Kronecker product; row-major, leftmost factor varying slowest."""
        f = self.field
        ent = {}
        for (i1, j1), v1 in self.entries.items():
            for (i2, j2), v2 in other.entries.items():
                ent[(i1 * other.rows + i2, j1 * other.cols + j2)] = f.mul(v1, v2)
        return SparseMatrix(f, self.rows * other.rows, self.cols * other.cols, ent)

    def apply(self, vec):
        """Apply to a dict-vector; returns a dict-vector."""
        f = self.field
        out = {}
        for j, c in vec.items():
            for i, a in self.column(j).items():
                w = f.add(out.get(i, f.zero()), f.mul(a, c))
                if f.is_zero(w):
                    out.pop(i, None)
                else:
                    out[i] = w
        return out


def kron_all(field, mats):
    """Kronecker product of a list (empty list gives the 1x1 identity)."""
    out = SparseMatrix.identity(field, 1)
    for m in mats:
        out = out.kron(m)
    return out


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
    return SparseMatrix(field, roff[-1], coff[-1], ent)


# -- echelon machinery ---------------------------------------------------------

def _echelonize(field, rows):
    """Forward elimination of a list of dict-vectors to row echelon form.

    Returns (pivots, rows): pivot columns strictly increasing, row k with
    entry 1 at pivots[k] and nothing to its left.  Entries above a pivot are
    left in place; `_rref` clears them.  Zero rows drop out, so the rank is
    len(pivots).

    Rows are bucketed by leading column.  Each step pops the smallest
    column that has a bucket: only the rows in that bucket hold the column,
    so only they are reduced, and each is re-bucketed by its new leading
    column.  Pivot rule: leftmost column, then the sparsest candidate row,
    then the first in input order.
    """
    buckets = {}
    for k, r in enumerate(rows):
        if r:
            buckets.setdefault(min(r), []).append((len(r), k, r))
    heap = list(buckets)
    heapq.heapify(heap)
    pivots = []
    out = []
    while heap:
        col = heapq.heappop(heap)
        bucket = buckets.pop(col)
        best = min(bucket)
        bucket.remove(best)
        prow = best[2]
        inv = field.inv(prow[col])
        prow = {j: field.mul(inv, v) for j, v in prow.items()}
        for _, k, r in bucket:
            r = _row_axpy(field, r, field.neg(r[col]), prow)
            if r:
                lead = min(r)
                if lead not in buckets:
                    buckets[lead] = []
                    heapq.heappush(heap, lead)
                buckets[lead].append((len(r), k, r))
        pivots.append(col)
        out.append(prow)
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
    """r with each pivot column j it holds cleared: r - r[j] * index[j].

    index maps pivot columns to reduced rows (entry 1 at their own pivot, 0
    at every other pivot in index), so clearing one pivot column never
    refills another.
    """
    for j in [j for j in r if j in index]:
        r = _row_axpy(field, r, field.neg(r[j]), index[j])
    return r


def _row_axpy(field, r, c, p):
    """r + c*p for dict-vectors."""
    out = dict(r)
    for j, v in p.items():
        w = field.add(out.get(j, field.zero()), field.mul(c, v))
        if field.is_zero(w):
            out.pop(j, None)
        else:
            out[j] = w
    return out


class Subspace:
    """A subspace of k^n presented by a reduced-echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_index")

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        pivots, basis = _rref(field, list(vectors))
        self.basis = basis
        self.pivots = pivots
        self._index = dict(zip(pivots, basis))

    @classmethod
    def full(cls, field, n):
        one = field.one()
        return cls(field, n, [{i: one} for i in range(n)])

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residual of a dict-vector modulo this subspace."""
        return _clear(self.field, dict(vec), self._index)

    def contains(self, vec):
        return not self.reduce(vec)

    def coefficients(self, vec):
        """Coefficients of vec in the echelon basis, or None if outside."""
        f = self.field
        r = dict(vec)
        coeffs = []
        for pc, b in zip(self.pivots, self.basis):
            c = r.get(pc, f.zero())
            coeffs.append(c)
            if not f.is_zero(c):
                r = _row_axpy(f, r, f.neg(c), b)
        return None if r else coeffs

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
        return SparseMatrix(self.field, self.ambient_dim, self.dim, ent)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def rank(m: SparseMatrix) -> int:
    pivots, _ = _echelonize(m.field, m.row_dicts())
    return len(pivots)


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


def homology_dim(d_out: SparseMatrix, d_in: SparseMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    Raises CompositionNotZero unless d_out . d_in = 0 (exactly).
    """
    return _homology_dims([(d_out, d_in)])[0]


def _homology_dims(pairs):
    """homology_dim of each (d_out, d_in) pair of an iterable, in order.

    A differential is d_in at one degree and d_out at the next: each matrix
    object is ranked once, and each composite d_out . d_in is multiplied
    once.  A shape mismatch or a nonzero composite raises at the first pair
    that has it.
    """
    ranks = {}  # id(m) -> (m, rank); holding m keeps its id from being reused

    def rank_of(m):
        if id(m) not in ranks:
            ranks[id(m)] = (m, rank(m))
        return ranks[id(m)][1]

    out = []
    for d_out, d_in in pairs:
        if d_out.cols != d_in.rows:
            raise ValueError("complex shape mismatch")
        comp = d_out @ d_in
        if not comp.is_zero():
            ij = sorted(comp.entries)[0]
            raise CompositionNotZero("d.d != 0 first at %s" % (ij,))
        out.append(d_in.rows - rank_of(d_out) - rank_of(d_in))
    return out


def solve(m: SparseMatrix, vec):
    """One solution x of Mx = v (dict-vectors), or None."""
    f = m.field
    cols = m.cols
    aug = m.row_dicts()
    for i, c in vec.items():
        aug[i] = dict(aug[i])
        aug[i][cols] = c
    pivots, rred = _rref(f, aug)
    x = {}
    for pc, r in zip(pivots, rred):
        if pc == cols:
            return None  # inconsistent
        c = r.get(cols)
        if c is not None:
            x[pc] = c
    return x


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
    return SparseMatrix(f, n, n, ent)
