"""Row elimination through Field methods: the test oracle for the one kernel.

`linalg` reads every rank, echelon form and inverse off one fraction-free
column reduction.  This is the bucketed forward pass on rows and the
back-substitution the package used before, kept verbatim (`_echelonize`,
`_clear`, `_row_axpy`), with the rank, reduced echelon form, kernel basis
and inverse built on them as `linalg` builds its own.
"""

import heapq

from hopfcyclic.linalg import SparseMatrix


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


def rref(field, rows):
    """(pivots, rows) of the reduced row echelon form."""
    pivots, rows = _echelonize(field, rows)
    below = {}
    for k in range(len(rows) - 1, -1, -1):
        rows[k] = below[pivots[k]] = _clear(field, rows[k], below)
    return pivots, rows


def rank(m):
    return len(_echelonize(m.field, m.row_dicts())[0])


def reduce(field, basis, pivots, vec):
    """Residual of vec modulo the span of a reduced echelon basis."""
    return _clear(field, dict(vec), dict(zip(pivots, basis)))


def kernel_basis(m):
    """The reduced echelon basis of {v : Mv = 0}."""
    f = m.field
    pivots, rred = rref(f, m.row_dicts())
    pivset = set(pivots)
    vecs = []
    for fc in (j for j in range(m.cols) if j not in pivset):
        v = {fc: f.one()}
        for pc, r in zip(pivots, rred):
            c = r.get(fc)
            if c is not None:
                v[pc] = f.neg(c)
        vecs.append(v)
    return rref(f, vecs)[1]


def inverse(m):
    """The exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    f = m.field
    n = m.rows
    aug = []
    for i, r in enumerate(m.row_dicts()):
        r = dict(r)
        r[n + i] = f.one()
        aug.append(r)
    pivots, rred = rref(f, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return SparseMatrix(f, n, n, {(i, j - n): v for i, r in zip(pivots, rred)
                                  for j, v in r.items() if j >= n})
