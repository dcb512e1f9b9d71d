"""Tensor-index bookkeeping and the operator compiler.

Basis of a tensor product is ordered row-major with the LEFTMOST factor
varying SLOWEST; this single convention is fixed package-wide.

Structural operators on tensor-power spaces (rotations with coaction legs,
conjugation actions, leg products under antipodes, ...) are described
declaratively: a list of input factors, a Sweedler-leg expansion per factor,
and one expression per output factor referencing each produced leg exactly
once.  `compile_operator` turns such a description into an exact sparse
matrix, evaluating column by column so the (potentially huge) intermediate
leg space is never materialized.

The compiler reads every leg assignment as one integer offset: each leg adds
a fixed weight times its value, so an input column is a fold of its factors'
(offset, coeff) lists, and each offset expands into the Kronecker product of
the output expressions' columns.  Nothing is built over the leg space of an
expression: each expression column is made the first time it is reached,
straight from the structure tables (`mult`, `action`, `antipode(_inv)`,
`counit`, `unit`) and the memoized columns of its parts, and each expansion
splits a basis vector one leg at a time by `comult` or `coaction`.
Scalars are summed with native + and * and settled into the field once per
column and once per entry of the result.  The expansions and the expression
columns are memoized on the `Spaces` passed in, under (label, expansion)
and under the expression's shape (the tree with each leg replaced by its
space label), so a column made for one operator serves every later one on
those spaces.  `hopf.algebra_spaces` and `hopf.coalgebra_spaces` build a
fresh `Spaces` for each structure, which maps the label "H" to its Hopf
algebra and "A" or "C" to the structure itself, whose maps the compiler
reads; so that memo lives as long as the cylinder, module form or crossed
product that owns it.  A (co)cylinder
compiles one kernel per row or column of each rotation and last (co)face
and widens it to the other cells by index arithmetic, so on a cylinder the
memo serves the kernels of the other rows and columns, which share
expression shapes (the coaction bars, the conjugating pairs), and the
closed forms of the module form, which compiles on the cylinder's spaces.

A compiled operator is a pure function of the structure tables and its
description, so `compile_operator` keeps it for the whole process, under
(the table key of the `Spaces`, the specs, the outputs).  The table key is
made once per `Spaces`: for each label, its dimension and each structure
map present as (p, rows, cols, frozenset of its columns), so structures
with equal integer tables over different fields (`c2_Q`, `c2_F2`) never
share an entry, and a later job on equal tables (a second command in one
process) compiles nothing.  Each entry holds its column
keys (none when they are range(cols)) and its columns as two tuples; the
entries hold at most `OPERATOR_BUDGET` nonzeros together, the oldest
evicted first, and an operator larger than that is not kept.  A hit
returns a new `SparseMatrix` around the shared immutable columns, so what a
caller writes on a matrix (the pairs of `rank`, the `_kills` of a checked
composite) never reaches another job.
"""

from __future__ import annotations

from .fields import settle
from .linalg import (
    SparseMatrix, col_items, pack_columns, unit_column,
)


def tensor_unindex(dims, idx):
    multi = [0] * len(dims)
    for k in range(len(dims) - 1, -1, -1):
        multi[k] = idx % dims[k]
        idx //= dims[k]
    return tuple(multi)


def perm_matrix(field, dims, out_to_in):
    """Factor permutation; out_to_in[k] is the input position of output k.

    The output index is linear in the input digits: input factor s adds its
    digit times the stride of the output position it moves to."""
    n = len(dims)
    assert sorted(out_to_in) == list(range(n))
    stride = [0] * n
    total = 1
    for k in range(n - 1, -1, -1):
        s = out_to_in[k]
        stride[s] = total
        total *= dims[s]
    out = [0]
    for d, w in zip(dims, stride):
        out = [i + m * w for i in out for m in range(d)]
    return SparseMatrix._of_columns(field, total, total,
                                    dict(enumerate(map(unit_column, out))))


class Spaces(dict):
    """Label -> the structure whose maps that label's legs read, with the
    compiler's memo and the key of its structure tables.

    A structure is a `HopfAlgebra`, `ComoduleAlgebra` or `ModuleCoalgebra`
    (any object with `dim` will do), read for the maps of `_MAPS` it has:
    mult: X (x) X -> X, unit: k -> X (dim x 1), comult: X -> X (x) X,
    counit: X -> k (1 x dim), antipode / antipode_inv: X -> X,
    coaction: X -> H (x) X, action: H (x) X -> X.

    `memo` holds the expansions and the expression columns
    `compile_operator` makes on these spaces, so it lives exactly as long as
    the object that owns the spaces (a cylinder, a module form, one crossed
    product).  `tables` (`_tables_key`), made by the first compile on these
    spaces, keys the compiled operators, which outlive the spaces and serve
    every later `Spaces` with equal tables.
    """

    __slots__ = ("memo", "tables")

    def __init__(self, structures):
        super().__init__(structures)
        self.memo = {}
        self.tables = None


# -- expression constructors ----------------------------------------------------

def leg(slot):
    return ("leg", slot)


def S(e):
    return ("S", e)


def Sinv(e):
    return ("Sinv", e)


def prod(*es):
    return ("prod", es)


def act(h_expr, c_expr):
    return ("act", h_expr, c_expr)


def eps(e):
    return ("eps", e)


def unit(space_label):
    return ("unit", space_label)


class Legs:
    """Slot numbering for the legs produced by a list of factor expansions.

    Expansions: ("id",) keeps the factor; ("comult", k) splits it into k+1
    Sweedler legs (0)..(k) left to right; ("coaction", k) yields k coaction
    legs (k-bar)..(1-bar) left to right followed by the (0-bar) body.
    """

    def __init__(self, specs):
        self.specs = specs
        self.start = []
        self.leg_spaces = []
        pos = 0
        for label, exp in specs:
            self.start.append(pos)
            if exp[0] == "id":
                self.leg_spaces.append(label)
                pos += 1
            elif exp[0] == "comult":
                self.leg_spaces.extend([label] * (exp[1] + 1))
                pos += exp[1] + 1
            elif exp[0] == "coaction":
                self.leg_spaces.extend(["H"] * exp[1] + [label])
                pos += exp[1] + 1
            else:
                raise ValueError("unknown expansion %r" % (exp,))

    def plain(self, f):
        assert self.specs[f][1][0] == "id"
        return ("leg", self.start[f])

    def com(self, f, j):
        """Sweedler comultiplication leg (j) of factor f."""
        kind, k = self.specs[f][1]
        assert kind == "comult" and 0 <= j <= k
        return ("leg", self.start[f] + j)

    def coact(self, f, bar):
        """Coaction leg; bar >= 1 are H legs (leftmost = highest), 0 the body."""
        kind, k = self.specs[f][1]
        assert kind == "coaction" and 0 <= bar <= k
        return ("leg", self.start[f] + (k - bar))


def _expansion(field, spaces, label, exp):
    """Memoized expansion of one factor: (leg dims, decoded columns).

    columns[i] lists (leg values, coeff) for the expansion of basis vector i,
    split one leg at a time: ("comult", k) splits the last leg k times by
    the comultiplication, ("coaction", k) the body k times by the coaction.
    """
    key = ("expansion", label, exp)
    got = spaces.memo.get(key)
    if got is not None:
        return got
    x = spaces[label]
    d = x.dim
    if exp[0] == "id":
        k, split, ldims = 0, None, [d]
    elif exp[0] == "comult":
        k, split, ldims = exp[1], x.comult, [d] * (exp[1] + 1)
    elif exp[0] == "coaction":
        k, split = exp[1], x.coaction
        ldims = [spaces["H"].dim] * k + [d]
    else:
        raise ValueError("unknown expansion %r" % (exp,))
    split = split and split.columns
    columns = []
    for i in range(d):
        terms = {(i,): 1}
        for _ in range(k):
            nxt = {}
            get = nxt.get
            for legs, c in terms.items():
                head = legs[:-1]
                for r, v in col_items(split.get(legs[-1], ())):
                    split_legs = head + divmod(r, d)
                    nxt[split_legs] = get(split_legs, 0) + c * v
            terms = settle(field, nxt)
        columns.append(list(terms.items()))
    got = spaces.memo[key] = ldims, columns
    return got


def _shape(e, leg_spaces):
    """The expression with each leg replaced by its space label."""
    tag = e[0]
    if tag == "leg":
        return ("leg", leg_spaces[e[1]])
    if tag in ("S", "Sinv", "eps"):
        return (tag, _shape(e[1], leg_spaces))
    if tag == "prod":
        return ("prod", tuple(_shape(x, leg_spaces) for x in e[1]))
    if tag == "act":
        return ("act", _shape(e[1], leg_spaces), _shape(e[2], leg_spaces))
    if tag == "unit":
        return e
    raise ValueError("unknown expression %r" % (e,))


def _slots(e, out):
    """Append the expression's leg slots, in the order its columns read them."""
    tag = e[0]
    if tag == "leg":
        out.append(e[1])
    elif tag in ("S", "Sinv", "eps"):
        _slots(e[1], out)
    elif tag == "prod":
        for x in e[1]:
            _slots(x, out)
    elif tag == "act":
        _slots(e[1], out)
        _slots(e[2], out)
    return out


def _apply(cols, vec):
    """A linear map, given by its packed columns, applied to
    [(index, coeff)]."""
    out = {}
    get = out.get
    for j, c in vec:
        for i, a in col_items(cols.get(j, ())):
            out[i] = get(i, 0) + a * c
    return out


def _apply2(cols, d, x, y):
    """A bilinear map X (x) Y -> Z, given by the packed columns of its
    matrix (column a d + b for the basis tensor (a, b), d = dim Y), applied
    to x, y as [(index, coeff)]."""
    out = {}
    get = out.get
    for a, c in x:
        base = a * d
        for b, e in y:
            ce = c * e
            for i, v in col_items(cols.get(base + b, ())):
                out[i] = get(i, 0) + v * ce
    return out


class _Columns(dict):
    """The columns of one expression shape on one structure, made on demand.

    Maps a column index (the shape's legs, read in `_slots` order, as one
    mixed-radix number) to its settled entries [(row, coeff)].  `cols` and
    `rows` are the dimensions of the shape's matrix, which is never built:
    a column is made from the columns of the shape's parts, themselves
    memoized under their own shapes, and one structure map.  A product is
    folded left to right, ((x1 x2) x3) ..., so a column of
    prod(x1, ..., xn) is the product of a column of prod(x1, ..., xn-1)
    and one of xn.
    """

    __slots__ = ("field", "tag", "parts", "table", "d", "space", "cols",
                 "rows")

    def __init__(self, field, spaces, shape):
        super().__init__()
        self.field = field
        self.tag = tag = shape[0]
        self.parts = ()
        self.table = self.d = None
        if tag in ("leg", "unit"):
            self.space = shape[1]
            self.rows = spaces[self.space].dim
            self.cols = self.rows if tag == "leg" else 1
            if tag == "unit":
                self.table = list(spaces[self.space].unit.column(0).items())
            return
        if tag == "prod":
            xs = shape[1]
            if not xs:
                raise ValueError("empty product; use unit(label)")
            if len(xs) > 1:
                xs = (("prod", xs[:-1]) if len(xs) > 2 else xs[0], xs[-1])
        else:
            xs = shape[1:]
        self.parts = tuple(_columns(field, spaces, x) for x in xs)
        first, last = self.parts[0].space, self.parts[-1].space
        if tag == "prod":
            if first != last:
                raise ValueError("product of legs from different spaces")
            sp = first
            if len(self.parts) == 2:
                self.table = spaces[sp].mult.columns
                self.d = spaces[sp].dim
        elif tag == "act":
            if first != "H":
                raise ValueError("action by a non-Hopf expression")
            sp = last
            self.table = spaces[sp].action.columns
            self.d = spaces[sp].dim
        elif tag == "eps":
            sp = "1"
            self.table = spaces[first].counit.columns
        else:
            if first != "H":
                raise ValueError("antipode applied to non-Hopf leg")
            sp = "H"
            h = spaces["H"]
            self.table = (h.antipode if tag == "S"
                          else h.antipode_inv).columns
        self.space = sp
        self.rows = 1 if sp == "1" else spaces[sp].dim
        self.cols = 1
        for p in self.parts:
            self.cols *= p.cols

    def column(self, k):
        col = self.get(k)
        if col is None:
            col = self[k] = self._make(k)
        return col

    def _make(self, k):
        tag = self.tag
        if tag == "leg":
            return [(k, 1)]
        if tag == "unit":
            return self.table
        if len(self.parts) == 1:
            inner = self.parts[0].column(k)
            if self.table is None:
                return inner
            out = _apply(self.table, inner)
        else:
            left, right = self.parts
            k1, k2 = divmod(k, right.cols)
            out = _apply2(self.table, self.d, left.column(k1),
                          right.column(k2))
        return list(settle(self.field, out).items())


def _columns(field, spaces, shape):
    """The memoized `_Columns` of an expression shape."""
    got = spaces.memo.get(shape)
    if got is None:
        got = spaces.memo[shape] = _Columns(field, spaces, shape)
    return got


def _weighted(memo, cache, k, w):
    """Column k of an expression, its rows times the block weight w, stored
    in the compile's own cache (the memo itself when w is 1)."""
    col = memo.column(k)
    if cache is not memo:
        col = cache[k] = [(r * w, v) for r, v in col]
    return col


# The most nonzeros the compiled operators kept across jobs hold together.
OPERATOR_BUDGET = 1 << 16

_MAPS = ("mult", "unit", "comult", "counit", "antipode", "antipode_inv",
         "coaction", "action")


def _tables_key(spaces):
    """Each label's dimension and the maps of `_MAPS` its structure has, as
    the operator cache reads them: (label, dim, ((name, p, rows, cols,
    frozenset of columns), ...))."""
    return tuple(sorted(
        (label, x.dim, tuple(
            (name, m.field.p, m.rows, m.cols, frozenset(m.columns.items()))
            for name in _MAPS for m in (getattr(x, name, None),)
            if m is not None))
        for label, x in spaces.items()))


class _Operators(dict):
    """The compiled operators of the process, oldest first: key -> (rows,
    cols, column keys or None when they are range(cols), columns, nnz).
    `held` is the sum of the nnz, at most `OPERATOR_BUDGET`.  `tables`
    maps each table key the entries use to [that key, its entries], so
    that equal tables compiled on in many jobs are held once."""

    __slots__ = ("held", "tables")

    def __init__(self):
        super().__init__()
        self.held = 0
        self.tables = {}

    def clear(self):
        super().clear()
        self.held = 0
        self.tables.clear()

    def canonical(self, tables):
        """The table key equal to tables that the entries hold, if any."""
        got = self.tables.get(tables)
        return tables if got is None else got[0]

    def store(self, key, m):
        nnz = m.nnz()
        if nnz > OPERATOR_BUDGET:
            return
        while self.held + nnz > OPERATOR_BUDGET:
            old = next(iter(self))
            self.held -= self.pop(old)[4]
            count = self.tables[old[0]]
            count[1] -= 1
            if not count[1]:
                del self.tables[old[0]]
        count = self.tables.setdefault(key[0], [key[0], 0])
        count[1] += 1
        cols = m.columns
        self[(count[0],) + key[1:]] = (
            m.rows, m.cols, None if len(cols) == m.cols else tuple(cols),
            tuple(cols.values()), nnz)
        self.held += nnz


_operators = _Operators()


def compile_operator(field, spaces, specs, outputs):
    """The sparse matrix of an operator from its leg description.

    specs: list of (space_label, expansion) tuples for the input factors.
    outputs: expressions, one per output factor, using every leg exactly
    once, built by the constructors above (nested tuples).
    spaces: the `Spaces` of one structure.

    The result is kept for the process under the table key of the spaces
    and the description, and a later call with equal tables and
    description gets a new matrix around the same columns without
    compiling; see the module docstring.  A miss compiles (`_compile`).
    """
    tables = spaces.tables
    if tables is None:
        tables = spaces.tables = _operators.canonical(_tables_key(spaces))
    key = (tables, tuple(specs), tuple(outputs))
    got = _operators.get(key)
    if got is None:
        m = _compile(field, spaces, specs, outputs)
        _operators.store(key, m)
        return m
    rows, cols, keys, columns, _ = got
    return SparseMatrix._of_columns(
        field, rows, cols,
        dict(zip(range(cols) if keys is None else keys, columns)))


def _compile(field, spaces, specs, outputs):
    """Fold the sparse matrix of an operator from its leg description, on
    spaces whose memo keeps the expansions and the expression columns made
    here for every later compile on them.

    Every leg assignment is read as one integer, linear in the leg values:
    each leg adds a fixed weight times its value.  A leg that is an output
    on its own adds its share of the output row; the legs of the other
    outputs add their output's column index, as one mixed-radix number
    above the row.  So each expansion column becomes a list of (offset,
    coeff), and the input columns are folded breadth-first, one factor at a
    time, into one [(offset, coeff)] list per input column; distinct leg
    assignments land on distinct offsets, so no two terms of the fold
    merge.  Each offset expands into the Kronecker product of the output
    columns it names, each evaluated from the structure tables the first
    time any compile on these spaces reaches it; the sums are native, keyed
    by column-major position, and split into settled columns once
    (`pack_columns`).
    """
    legmap = Legs(specs)
    leg_dims = []
    factor_cols = []
    for label, exp in specs:
        ldims, cols = _expansion(field, spaces, label, exp)
        factor_cols.append((len(leg_dims), cols))
        leg_dims.extend(ldims)

    # Expression blocks, rightmost first: (radix, weighted columns, row
    # weight, memo).  A block with row weight 1 reads the memo itself.
    blocks = []
    weight = [0] * len(leg_dims)
    expr_slots = []
    used = []
    n_out = 1
    n_off = 1
    for e in reversed(outputs):
        slots = _slots(e, [])
        used.extend(slots)
        if e[0] == "leg":
            weight[e[1]] = n_out
            n_out *= leg_dims[e[1]]
            continue
        for s in reversed(slots):
            weight[s] = n_off
            n_off *= leg_dims[s]
        expr_slots.extend(slots)
        memo = _columns(field, spaces, _shape(e, legmap.leg_spaces))
        blocks.append((memo.cols, memo if n_out == 1 else {}, n_out, memo))
        n_out *= memo.rows
    if sorted(used) != list(range(len(leg_dims))):
        raise ValueError("legs not used exactly once: %s of %d"
                         % (sorted(used), len(leg_dims)))
    for s in expr_slots:
        weight[s] *= n_out

    factor_terms = [
        [[(sum(weight[first + t] * x for t, x in enumerate(legs)), v)
          for legs, v in col] for col in cols]
        for first, cols in factor_cols]
    # The term lists of the input columns, in column order, over every
    # factor but the last, which is folded in as each column is reached.
    last = factor_terms.pop() if factor_terms else [[(0, 1)]]
    flat = [[(0, 1)]]
    for terms in factor_terms:
        flat = [[(o + o2, c * c2) for o, c in ts for o2, c2 in col]
                for ts in flat for col in terms]

    # An offset splits into the row of its bare legs and, above it, the
    # column indices of the expressions.
    n_in = len(flat) * len(last)
    single = len(blocks) == 1
    if single:
        _, cols1, w1, memo1 = blocks[0]
    sums = {}
    get = sums.get
    base = 0  # j n_out, for the input column j
    for ts in flat:
        for col_in in last:
            for o1, c1 in ts:
                for o2, c2 in col_in:
                    e, r = divmod(o1 + o2, n_out)
                    c = c1 * c2
                    if not blocks:
                        r += base
                        sums[r] = get(r, 0) + c
                        continue
                    if single:
                        col = cols1.get(e)
                        if col is None:
                            col = _weighted(memo1, cols1, e, w1)
                        r += base
                        for r2, y in col:
                            r2 += r
                            sums[r2] = get(r2, 0) + c * y
                        continue
                    rows = [(r + base, c)]
                    for radix, cols, w, memo in blocks:
                        e, k = divmod(e, radix)
                        col = cols.get(k)
                        if col is None:
                            col = _weighted(memo, cols, k, w)
                        if not col:
                            break
                        rows = [(r + r2, x * y) for r, x in rows
                                for r2, y in col]
                    else:
                        for r, x in rows:
                            sums[r] = get(r, 0) + x
            base += n_out
    return SparseMatrix._of_columns(field, n_out, n_in,
                                    pack_columns(field, sums, n_out))
