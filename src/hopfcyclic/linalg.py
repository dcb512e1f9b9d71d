"""Sparse exact linear algebra: rank, kernel, image, homology dimensions.

Matrices are immutable and stored once, column by column, in compressed
column form (Davis, Direct Methods for Sparse Linear Systems, 2006):
`columns` maps each nonzero column j to one flat tuple (r0, v0, r1, v1,
...), rows ascending, values settled and nonzero.  A tuple is never
changed, so builders share it: a product whose right factor has column j
equal to the unit vector e_k takes the left factor's column k itself, a
sum of one term with coefficient 1 keeps that term's columns, `amplify`
with no identity on the right and `block_matrix` with one block at row
offset 0 keep their input's columns, a relabelling of columns moves them,
and every unit column (i, 1) is one tuple for the whole process
(`unit_column`).  The columns are the only index: `entries` ({(row, col):
scalar}), `column(j)` ({row: scalar}) and `m[i, j]` are views computed on
each read.  Vectors are dicts {index: scalar} with no stored zeros.
Everything is exact; there is no tolerance anywhere.

There are two doors into a matrix.  The public constructor is for input from
outside the computation (parsed files, the Hopf builders, `from_rows`,
tests): it checks every key against the shape and settles every value into
the field (`Field.of` for a non-int, then `pack_columns`), so an F_p value
lies in [0, p), an integral Q value is an int and no zero is kept.  Every
computed result (`@`, `kron`, `amplify`, `widen`, `transpose`, `identity`,
`block_matrix`, `combine`, `place`, `relabel`, a basis matrix, an inverse,
the compiled operators of `tensor`) writes its columns directly and is adopted
as is by `SparseMatrix._of_columns`.  A product is written one column at a
time (Gustavson 1978): a one-entry column of the right factor takes the
left factor's column, shared or scaled, and any other column is summed with
native + and * in a small dict of its own, then sorted and settled on its
own (`_settled_column`).  Every other sum is taken with native + and * in
one dict keyed by the column-major position j rows + i, and split into
columns after one sort of its keys, each value settled exactly once on the
way (`pack_columns`): every sum of matrices, `+`, `-`, negation, `scale`
and the alternating face sums of the cylinders and mixed complexes, goes
through `combine`; `place` sums (transposed) blocks at offsets, the faces
of a whole total-complex differential in one pass.

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
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, repeat

from .errors import CompositionNotZero
from .fields import Field, settle

_flatten = chain.from_iterable


def col_items(col):
    """The (row, scalar) pairs of a packed column."""
    it = iter(col)
    return zip(it, it)


class _UnitColumns(dict):
    """The packed unit column e_i = (i, 1), made the first time row i asks
    for it and shared from then on by every matrix that holds it.  Most
    columns of the structure maps and of the operators built from them by
    index arithmetic are unit columns, so this keeps one tuple per row
    index in place of one per column; a column is never changed, so the
    sharing is invisible."""

    __slots__ = ()

    def __missing__(self, i):
        col = self[i] = (i, 1)
        return col


unit_column = _UnitColumns().__getitem__


def _single(i, v):
    """The packed column with the one entry v at row i."""
    return unit_column(i) if v == 1 else (i, v)


def _pack(col):
    """A flat sequence (r0, v0, r1, v1, ...) as a packed column, a unit
    column shared."""
    return _single(*col) if len(col) == 2 else tuple(col)


def _shift(rows, vals, off):
    """The packed column of the ascending rows, each plus off, against
    vals."""
    if len(rows) == 1:
        return _single(rows[0] + off, vals[0])
    return tuple(_flatten(zip(map(off.__add__, rows), vals)))


class SparseMatrix:
    """Immutable sparse matrix; columns maps col -> (r0, v0, r1, v1, ...),
    rows ascending, scalars settled and nonzero, empty columns absent."""

    __slots__ = ("field", "rows", "cols", "columns", "_pairs", "_kills")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError("entry (%d,%d) out of %dx%d" % (i, j, rows, cols))
                ent[j * rows + i] = v if v.__class__ is int else field.of(v)
        self.columns = pack_columns(field, ent, rows)
        self._pairs = None
        self._kills = None

    @classmethod
    def _of_columns(cls, field, rows, cols, columns):
        """Adopt packed `columns` unchecked and uncopied.

        Every row and column must lie in bounds, every column must be
        nonempty with rows ascending, and every value must be settled: no
        zeros, an integral Q value an int, an F_p value in [0, p).
        """
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.columns = columns
        m._pairs = None
        m._kills = None
        return m

    @classmethod
    def _settled(cls, field, rows, cols, entries):
        """Pack a {(row, col): scalar} dict unchecked: every key must lie
        in bounds."""
        return cls._of_columns(field, rows, cols, pack_columns(
            field, {j * rows + i: v for (i, j), v in entries.items()}, rows))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._of_columns(field, n, n,
                               dict(zip(range(n), map(unit_column, range(n)))))

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

    # -- views ----------------------------------------------------------------

    @property
    def entries(self):
        """{(row, col): scalar}, built from the columns on each read."""
        return {(i, j): v for j, col in self.columns.items()
                for i, v in col_items(col)}

    def __getitem__(self, ij):
        i, j = ij
        col = self.columns.get(j, ())
        k = bisect_left(col[::2], i)
        if 2 * k < len(col) and col[2 * k] == i:
            return col[2 * k + 1]
        return self.field.zero()

    def column(self, j):
        """Column j as a dict {row: scalar}."""
        return dict(col_items(self.columns.get(j, ())))

    def nnz(self):
        return sum(map(len, self.columns.values())) >> 1

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        columns = self.columns
        for j in sorted(columns):
            for i, v in col_items(columns[j]):
                out[i][j] = v
        return out

    def is_zero(self):
        return not self.columns

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, self.nnz())

    def first_difference(self, other):
        """First (row, col) in row-major order where self and other differ,
        or None."""
        a, b = self.columns, other.columns
        first = None
        for j in a.keys() | b.keys():
            x, y = a.get(j, ()), b.get(j, ())
            if x != y:
                x, y = dict(col_items(x)), dict(col_items(y))
                i = min(i for i in x.keys() | y.keys() if x.get(i) != y.get(i))
                if first is None or (i, j) < first:
                    first = (i, j)
        return first

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
        """Composition self . other (apply other first), written one column
        at a time (Gustavson, ACM TOMS 1978).

        A column of other with one entry v at row k is self's column k:
        shared as it is when v = 1, else scaled entry by entry, as a
        product of nonzero scalars never cancels over Q or F_p.  A column
        with several entries is summed natively in a dict {row: sum} of its
        own, then sorted and settled on its own (`_settled_column`); no
        product-wide dict or sort is kept, unlike `combine` and `place`."""
        if self.cols != other.rows:
            raise ValueError("composition mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        p = self.field.p
        left = self.columns.get
        out = {}
        for j, col in other.columns.items():
            if len(col) == 2:
                a = left(col[0])
                if a is not None:
                    v = col[1]
                    out[j] = a if v == 1 else _scale(p, v, a)
                continue
            sums = {}
            get = sums.get
            it = iter(col)
            for k, bv in zip(it, it):
                a = left(k)
                if a is None:
                    continue
                if len(a) == 2:
                    i = a[0]
                    sums[i] = get(i, 0) + a[1] * bv
                    continue
                ia = iter(a)
                for i, av in zip(ia, ia):
                    sums[i] = get(i, 0) + av * bv
            a = _settled_column(p, sums)
            if a:
                out[j] = a
        return SparseMatrix._of_columns(self.field, self.rows, other.cols, out)

    def transpose(self):
        """Rows become columns: self's columns are read in ascending order,
        so each new column is written with its rows ascending."""
        out = {}
        get = out.get
        columns = self.columns
        for j in sorted(columns):
            col = columns[j]
            if len(col) == 2:
                row = get(col[0])
                if row is None:
                    out[col[0]] = [j, col[1]]
                else:
                    row += (j, col[1])
                continue
            it = iter(col)
            for i, v in zip(it, it):
                row = get(i)
                if row is None:
                    out[i] = [j, v]
                else:
                    row += (j, v)
        return SparseMatrix._of_columns(
            self.field, self.cols, self.rows,
            {i: _pack(row) for i, row in out.items()})

    def kron(self, other):
        """Kronecker product; row-major, leftmost factor varying slowest.

        Column j1 other.cols + j2 holds, for each entry (i1, v1) of self's
        column j1 in turn, other's column j2 shifted down by i1 other.rows
        and scaled by v1, so its rows come out ascending; a product of
        nonzero scalars is nonzero, so nothing cancels, and a product of
        ints over Q is settled as it is."""
        p = self.field.p
        rows, cols = other.rows, other.cols
        right = [(j, list(col_items(col)), _ints(p, col))
                 for j, col in other.columns.items()]
        out = {}
        for j1, a in self.columns.items():
            j0 = j1 * cols
            ints = _ints(p, a)
            a = list(col_items(a))
            for j2, b, b_ints in right:
                if len(a) == 1 and len(b) == 1:
                    (i1, v1), (i2, v2) = a[0], b[0]
                    out[j0 + j2] = _single(i1 * rows + i2,
                                           v1 * v2 if ints and b_ints
                                           else _scalar(p, v1 * v2))
                    continue
                if ints and b_ints:
                    col = [x for i1, v1 in a for i2, v2 in b
                           for x in (i1 * rows + i2, v1 * v2)]
                elif p is not None:
                    col = [x for i1, v1 in a for i2, v2 in b
                           for x in (i1 * rows + i2, v1 * v2 % p)]
                else:
                    col = [x for i1, v1 in a for i2, v2 in b
                           for x in (i1 * rows + i2, _scalar(p, v1 * v2))]
                out[j0 + j2] = tuple(col)
        return SparseMatrix._of_columns(self.field, self.rows * rows,
                                        self.cols * cols, out)


def combine(field, rows, cols, terms):
    """The rows x cols matrix sum of c * m over the (c, m) pairs of terms.

    Every m must be rows x cols, and c may be any int or field scalar (a
    sign -1 over F_p included): it is settled first, and a term whose c is
    0 is dropped.  One term is scaled column by column, and with c = 1 its
    columns are shared; several are summed as `place` sums them.
    """
    scaled = []
    for c, m in terms:
        if m.rows != rows or m.cols != cols:
            raise ValueError("shape mismatch %sx%s vs %sx%s"
                             % (rows, cols, m.rows, m.cols))
        c = _scalar(field.p, c)
        if c:
            scaled.append((c, m))
    if len(scaled) == 1:
        c, m = scaled[0]
        columns = m.columns if c == 1 else {
            j: _scale(field.p, c, col) for j, col in m.columns.items()}
        return SparseMatrix._of_columns(field, rows, cols, columns)
    return place(field, rows, cols,
                 [(c, m, 0, 0, False) for c, m in scaled])


def place(field, rows, cols, terms):
    """The rows x cols matrix sum of c * m, or of c * m^T when t, with its
    top left corner at (r0, c0), over the (c, m, r0, c0, t) of terms.

    Each (transposed) m must fit inside, and c may be any int or field
    scalar.  The sum is taken with native + and * in one dict, keyed by the
    column-major position j rows + i, and split into settled columns once
    (`pack_columns`), so the blocks of a total complex are summed from
    their faces in one pass, with no block, sign or transpose of its own.
    """
    p = field.p
    sums = {}
    get = sums.get
    for c, m, r0, c0, t in terms:
        h, w = (m.cols, m.rows) if t else (m.rows, m.cols)
        if r0 + h > rows or c0 + w > cols:
            raise ValueError("block %dx%d at (%d, %d) outside %dx%d"
                             % (h, w, r0, c0, rows, cols))
        c = _scalar(p, c)
        if not c:
            continue
        for j, col in m.columns.items():
            if t:  # entry (i, j) of m lands at (r0 + j, c0 + i)
                base = r0 + j
                it = iter(col)
                for i, v in zip(it, it):
                    k = (c0 + i) * rows + base
                    sums[k] = get(k, 0) + c * v
                continue
            if len(col) == 2:
                k = (c0 + j) * rows + r0 + col[0]
                sums[k] = get(k, 0) + c * col[1]
                continue
            base = (c0 + j) * rows + r0
            it = iter(col)
            for i, v in zip(it, it):
                k = base + i
                sums[k] = get(k, 0) + c * v
    return SparseMatrix._of_columns(field, rows, cols,
                                    pack_columns(field, sums, rows))


def _scalar(p, v):
    """A native scalar settled: reduced mod p, or over Q (p None) an
    integral Fraction made an int."""
    if p is not None:
        return v % p
    if v.__class__ is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _ints(p, col):
    """Whether a packed column over Q has only int values."""
    return p is None and all(v.__class__ is int for v in col[1::2])


def _shifts(rows, vals, offsets):
    """The packed columns of the ascending rows, each plus off, against
    vals, for each off in offsets; rows has two entries or more."""
    return (tuple(_flatten(zip(map(off.__add__, rows), vals)))
            for off in offsets)


def _singles(rows, v):
    """The one-entry packed columns (r, v) for r in rows; unit columns are
    shared."""
    return map(unit_column, rows) if v == 1 else zip(rows, repeat(v))


def _scale(p, c, col):
    """A packed column times a nonzero settled scalar c; a product of
    nonzero scalars is nonzero, so the column loses no entry, and over Q a
    product of ints is settled as it is."""
    if len(col) == 2:
        return _single(col[0], _scalar(p, c * col[1]))
    vals = col[1::2]
    if p is not None:
        vals = [c * v % p for v in vals]
    elif c.__class__ is int and _ints(p, col):
        vals = list(map(c.__mul__, vals))
    else:
        vals = [_scalar(p, c * v) for v in vals]
    return tuple(_flatten(zip(col[::2], vals)))


def _settled_column(p, sums):
    """The packed column of a dict {row: native sum}: its rows sorted, its
    values settled as `pack_columns` settles them; () when every sum
    cancelled."""
    col = []
    for i in sorted(sums):
        v = sums[i]
        if p is None:
            if not v:
                continue
            if v.__class__ is Fraction and v.denominator == 1:
                v = v.numerator
        else:
            v %= p
            if not v:
                continue
        col += (i, v)
    return _pack(col)


def pack_columns(field, sums, rows):
    """The packed columns of a dict of native sums keyed by column-major
    position j rows + i: one sort of the keys, then each column is cut off
    in turn, its values settled as `fields.settle` settles (zeros dropped,
    an integral Q value an int, an F_p value in [0, p))."""
    p = field.p
    out = {}
    long = []  # columns of more than one entry, grown as lists
    end = 0
    for k in sorted(sums):
        v = sums[k]
        if p is None:
            if not v:
                continue
            if v.__class__ is Fraction and v.denominator == 1:
                v = v.numerator
        else:
            v %= p
            if not v:
                continue
        if k >= end:  # the first entry of column j
            j = k // rows
            base = j * rows
            end = base + rows
            out[j] = unit_column(k - base) if v == 1 else (k - base, v)
            continue
        col = out[j]
        if col.__class__ is tuple:
            col = out[j] = [*col]
            long.append(j)
        col += (k - base, v)
    for j in long:
        out[j] = tuple(out[j])
    return out


def relabel(m: SparseMatrix, row_of=None, col_of=None) -> SparseMatrix:
    """m with entry (i, j) moved to (row_of(i), col_of(j)); each is a
    permutation of m's rows or columns, None for the identity.  Moved
    columns are shared; a column whose rows move is sorted again."""
    columns = m.columns
    if row_of is not None:
        columns = {j: _single(row_of(col[0]), col[1]) if len(col) == 2
                   else tuple(
            _flatten(sorted([(row_of(i), v) for i, v in col_items(col)])))
            for j, col in columns.items()}
    if col_of is not None:
        columns = dict(zip(map(col_of, columns), columns.values()))
    return SparseMatrix._of_columns(m.field, m.rows, m.cols, columns)


def amplify(m: SparseMatrix, left, right) -> SparseMatrix:
    """I_left (x) m (x) I_right, by index arithmetic: m's entry at (i, j)
    lands at ((a rows + i) right + b, (a cols + j) right + b) for a < left
    and b < right.  The identity entries are 1, so m's scalars are adopted
    as they are, with no product and no settle; the block a = 0 of
    I_left (x) m is m's own columns."""
    rows, cols = m.rows * right, m.cols * right
    out = {}
    for j, col in m.columns.items():
        if len(col) == 2:  # the columns (a cols + j) right + b, one entry each
            i, v = col
            if right == 1:
                out.update(zip(range(j, left * cols, cols),
                               _singles(range(i, left * rows, rows), v)))
                continue
            for a in range(left):
                r0, c0 = a * rows + i * right, a * cols + j * right
                out.update(zip(range(c0, c0 + right),
                               _singles(range(r0, r0 + right), v)))
            continue
        if right == 1:
            rows_a, vals = col[::2], col[1::2]
            out[j] = col
            for a in range(1, left):
                out[a * cols + j] = _shift(rows_a, vals, a * rows)
            continue
        spread, vals = [i * right for i in col[::2]], col[1::2]
        for a in range(left):
            r0, c0 = a * rows, a * cols + j * right
            out.update(zip(range(c0, c0 + right),
                           _shifts(spread, vals, range(r0, r0 + right))))
    return SparseMatrix._of_columns(m.field, left * rows, left * cols, out)


def widen(m: SparseMatrix, mid, row_lo, col_lo) -> SparseMatrix:
    """m with I_mid inserted at one digit of its rows and one of its
    columns, by index arithmetic: m's entry at (i, j) lands at
    ((i // row_lo mid + x) row_lo + i % row_lo,
    (j // col_lo mid + x) col_lo + j % col_lo) for x < mid.  So an operator
    on U (x) W -> U' (x) W', with row_lo = dim W' and col_lo = dim W, passes
    a middle factor of dimension mid through untouched.  The row map is
    increasing, so each column keeps its rows ascending; as in `amplify`,
    m's scalars are adopted as they are, with no product and no settle."""
    out = {}
    for j, col in m.columns.items():
        spread = [(i // row_lo) * mid * row_lo + i % row_lo
                  for i in col[::2]]
        vals = col[1::2]
        c0 = (j // col_lo) * mid * col_lo + j % col_lo
        if len(spread) == 1:  # the columns c0 + x col_lo, each one entry
            r0 = spread[0]
            out.update(zip(range(c0, c0 + mid * col_lo, col_lo),
                           _singles(range(r0, r0 + mid * row_lo, row_lo),
                                    vals[0])))
            continue
        out.update(zip(range(c0, c0 + mid * col_lo, col_lo),
                       _shifts(spread, vals, range(0, mid * row_lo, row_lo))))
    return SparseMatrix._of_columns(m.field, m.rows * mid, m.cols * mid, out)


def block_matrix(field, blocks, row_dims, col_dims):
    """Assemble a matrix from a {(bi, bj): SparseMatrix} block dict.

    The blocks are taken by block row, so each column is the concatenation
    of its pieces with rows ascending; a column with one piece at row
    offset 0 is the block's column, shared."""
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    out = {}
    get = out.get
    for (bi, bj), m in sorted(blocks.items()):
        if m is None:
            continue
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError("block (%d,%d) shape mismatch" % (bi, bj))
        r0, c0 = roff[bi], coff[bj]
        for j, col in m.columns.items():
            if r0:
                col = _shift(col[::2], col[1::2], r0)
            got = get(c0 + j)
            out[c0 + j] = col if got is None else got + col
    return SparseMatrix._of_columns(field, roff[-1], coff[-1], out)


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
        return SparseMatrix._of_columns(
            self.field, self.ambient_dim, self.dim,
            {k: _pack(tuple(_flatten(sorted(b.items()))))
             for k, b in enumerate(self.basis)})

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def rank(m: SparseMatrix, cleared=()) -> int:
    """The number of pairs of the reduction of m's rows.

    The rows enter `_reduce_columns` as columns, read off m's columns with
    no transpose, so each pivot is a row's last nonzero column.  The pairs
    are kept on m as {pivot column: row}, so m is reduced once however
    often its rank is asked for, and the pivot columns are at hand to clear
    the next differential's rows.  Rows in cleared are skipped: the caller
    vouches that each is a combination of earlier rows, which would reduce
    to zero, so the pairs kept are those of the full reduction.
    """
    if m._pairs is None:
        rows = {}
        get = rows.get
        for j, col in m.columns.items():
            if len(col) == 2:
                i = col[0]
                row = get(i)
                if row is None:
                    rows[i] = {j: col[1]}
                else:
                    row[j] = col[1]
                continue
            it = iter(col)
            for i, v in zip(it, it):
                row = get(i)
                if row is None:
                    rows[i] = {j: v}
                else:
                    row[j] = v
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
    columns = m.columns
    return Subspace(m.field, m.rows,
                    [dict(col_items(columns[j])) for j in sorted(columns)])


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
                ij = min((col[0], j) for j, col in comp.columns.items())
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
    out = {}  # the rows i come in ascending order
    for i, r in zip(pivots, rred):
        for j, v in r.items():
            if j >= n:
                col = out.get(j - n)
                if col is None:
                    out[j - n] = [i, v]
                else:
                    col += (i, v)
    return SparseMatrix._of_columns(
        f, n, n, {j: _pack(col) for j, col in out.items()})
