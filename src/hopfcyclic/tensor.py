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
the output expressions' columns.  Scalars are summed with native + and *
and settled into the field once per entry.  The expansion and expression
matrices are memoized on the `Spaces` passed in, under (label, expansion)
and under the expression's shape (the tree with each leg replaced by its
space label).  `hopf.algebra_spaces` and `hopf.coalgebra_spaces` build a
fresh `Spaces` for each structure, so the memo lives as long as the
cylinder, module form or crossed product that owns it, and never across
structures.
"""

from __future__ import annotations

from .fields import settle
from .linalg import SparseMatrix, kron_all


def tensor_index(dims, multi):
    idx = 0
    for d, m in zip(dims, multi):
        idx = idx * d + m
    return idx


def tensor_unindex(dims, idx):
    multi = [0] * len(dims)
    for k in range(len(dims) - 1, -1, -1):
        multi[k] = idx % dims[k]
        idx //= dims[k]
    return tuple(multi)


def perm_matrix(field, dims, out_to_in):
    """Factor permutation; out_to_in[k] is the input position of output k."""
    n = len(dims)
    assert sorted(out_to_in) == list(range(n))
    out_dims = [dims[s] for s in out_to_in]
    total = 1
    for d in dims:
        total *= d
    ent = {}
    one = field.one()
    for j in range(total):
        multi = tensor_unindex(dims, j)
        ent[(tensor_index(out_dims, [multi[s] for s in out_to_in]), j)] = one
    return SparseMatrix._settled(field, total, total, ent)


class Spaces(dict):
    """Label -> SpaceOps of one structure, with the compiler's memo.

    `memo` holds the expansion and expression matrices `compile_operator`
    builds on these spaces, so it lives exactly as long as the object that
    owns the spaces (a cylinder, a module form, one crossed product).
    """

    __slots__ = ("memo",)

    def __init__(self, ops):
        super().__init__(ops)
        self.memo = {}


class SpaceOps:
    """Structure maps of one kind of tensor factor, as matrices.

    mult: X (x) X -> X, unit: k -> X (dim x 1), comult: X -> X (x) X,
    counit: X -> k (1 x dim), antipode / antipode_inv: X -> X,
    coaction: X -> H (x) X, action: H (x) X -> X.
    """

    def __init__(self, dim, mult=None, unit=None, comult=None, counit=None,
                 antipode=None, antipode_inv=None, coaction=None, action=None):
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self.coaction = coaction
        self.action = action


# -- expression constructors ----------------------------------------------------

def leg(slot):
    return ("leg", slot)


def S(e):
    return ("S", e)


def Sinv(e):
    return ("Sinv", e)


def prod(*es):
    return ("prod", list(es))


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


def _mult_chain(field, ops, n):
    """Iterated product X^(x)n -> X; n = 0 gives the unit, n = 1 the identity."""
    if n == 0:
        return ops.unit
    m = SparseMatrix.identity(field, ops.dim)
    for _ in range(n - 1):
        m = ops.mult @ m.kron(SparseMatrix.identity(field, ops.dim))
    return m


def iterate_comult_matrix(field, ops, k):
    """X -> X^(x)(k+1) by k applications of comult to the last factor."""
    m = SparseMatrix.identity(field, ops.dim)
    for j in range(k):
        m = SparseMatrix.identity(field, ops.dim ** j).kron(ops.comult) @ m
    return m


def iterate_coaction_matrix(field, hdim, ops, k):
    """X -> H^(x)k (x) X by k applications of the coaction to the body."""
    m = SparseMatrix.identity(field, ops.dim)
    for j in range(k):
        m = SparseMatrix.identity(field, hdim ** j).kron(ops.coaction) @ m
    return m


def _expansion_matrix(field, spaces, label, exp):
    ops = spaces[label]
    if exp[0] == "id":
        return SparseMatrix.identity(field, ops.dim), [ops.dim]
    if exp[0] == "comult":
        k = exp[1]
        return iterate_comult_matrix(field, ops, k), [ops.dim] * (k + 1)
    if exp[0] == "coaction":
        k = exp[1]
        hdim = spaces["H"].dim
        return (iterate_coaction_matrix(field, hdim, ops, k),
                [hdim] * k + [ops.dim])
    raise ValueError("unknown expansion %r" % (exp,))


def _expansion(field, spaces, label, exp):
    """Memoized expansion of one factor: (leg dims, decoded columns).

    columns[i] lists (leg values, coeff) for the expansion of basis vector i.
    """
    key = ("expansion", label, exp)
    got = spaces.memo.get(key)
    if got is None:
        mat, ldims = _expansion_matrix(field, spaces, label, exp)
        got = ldims, [[(tensor_unindex(ldims, r), v)
                       for r, v in mat.column(i).items()]
                      for i in range(mat.cols)]
        spaces.memo[key] = got
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
    """Append the expression's leg slots, in the order its matrix reads them."""
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


def _compile_expr(field, spaces, shape):
    """Memoized (matrix, space label) of an expression shape.

    The matrix maps the tensor product of the expression's legs (in `_slots`
    order) to the expression's output space ("1" for counit-consumed scalars).
    """
    got = spaces.memo.get(shape)
    if got is None:
        got = _build_expr(field, spaces, shape)
        spaces.memo[shape] = got
    return got


def _build_expr(field, spaces, shape):
    tag = shape[0]
    if tag == "leg":
        sp = shape[1]
        return SparseMatrix.identity(field, spaces[sp].dim), sp
    if tag in ("S", "Sinv"):
        m, sp = _compile_expr(field, spaces, shape[1])
        if sp != "H":
            raise ValueError("antipode applied to non-Hopf leg")
        a = spaces["H"].antipode if tag == "S" else spaces["H"].antipode_inv
        return a @ m, "H"
    if tag == "prod":
        parts = [_compile_expr(field, spaces, x) for x in shape[1]]
        sp = parts[0][1]
        if any(p[1] != sp for p in parts):
            raise ValueError("product of legs from different spaces")
        mat = _mult_chain(field, spaces[sp], len(parts)) @ kron_all(
            field, [p[0] for p in parts])
        return mat, sp
    if tag == "act":
        hm, hsp = _compile_expr(field, spaces, shape[1])
        cm, csp = _compile_expr(field, spaces, shape[2])
        if hsp != "H":
            raise ValueError("action by a non-Hopf expression")
        return spaces[csp].action @ hm.kron(cm), csp
    if tag == "eps":
        m, sp = _compile_expr(field, spaces, shape[1])
        return spaces[sp].counit @ m, "1"
    sp = shape[1]
    return spaces[sp].unit, sp


def _fold(factor_terms, blocks, f, terms, prefix, sums):
    """Fold factors f.. into `terms` and add each input column to `sums`.

    terms: (offset, coeff) of factors 0..f-1 for the input columns whose
    leading indices give `prefix`.  At the last factor each offset expands
    into the Kronecker product of its output columns.
    """
    if f < len(factor_terms):
        base = prefix * len(factor_terms[f])
        for i, col in enumerate(factor_terms[f]):
            _fold(factor_terms, blocks, f + 1,
                  [(o + o2, c * c2) for o, c in terms for o2, c2 in col],
                  base + i, sums)
        return
    get = sums.get
    for o, c in terms:
        rows = [(0, c)]
        for radix, cols, w in blocks:
            o, k = divmod(o, radix)
            if cols is None:
                rows = [(r + k * w, x) for r, x in rows]
                continue
            col = cols.get(k)
            if col is None:
                break
            rows = [(r + r2, x * y) for r, x in rows for r2, y in col]
        else:
            for r, x in rows:
                key = (r, prefix)
                sums[key] = get(key, 0) + x


def compile_operator(field, spaces, specs, outputs):
    """Build the sparse matrix of an operator from its leg description.

    specs: list of (space_label, expansion) for the input factors.
    outputs: expressions, one per output factor, using every leg exactly once.
    spaces: the `Spaces` of one structure; its memo keeps the expansion and
    expression matrices built here for every later compile on it.

    Output k reads its legs as one column index c_k, and (c_0, c_1, ...) is
    one mixed-radix offset, linear in the leg values: each leg adds a fixed
    weight times its value.  So each expansion column becomes a list of
    (offset, coeff), and an input column folds the lists of its factors one
    at a time; distinct leg assignments land on distinct offsets, so no two
    terms of the fold merge.  Each offset expands into the Kronecker product
    of the output columns it names, and the sum in each output entry is
    settled into the field at the end.
    """
    legmap = Legs(specs)
    leg_dims = []
    factor_cols = []
    for label, exp in specs:
        ldims, cols = _expansion(field, spaces, label, exp)
        factor_cols.append((len(leg_dims), cols))
        leg_dims.extend(ldims)

    # Output blocks, rightmost first: (radix, columns, row weight).  A run of
    # plain legs is one identity block (columns None); any other output has
    # its columns as {col: [(weighted row, coeff)]}.
    blocks = []
    weight = [0] * len(leg_dims)
    used = []
    n_out = 1
    n_off = 1
    for e in reversed(outputs):
        mat, _ = _compile_expr(field, spaces, _shape(e, legmap.leg_spaces))
        slots = _slots(e, [])
        for s in reversed(slots):
            weight[s] = n_off
            n_off *= leg_dims[s]
        used.extend(slots)
        if e[0] != "leg":
            cols = {}
            for (r, c), v in mat.entries.items():
                cols.setdefault(c, []).append((r * n_out, v))
            blocks.append((mat.cols, cols, n_out))
        elif blocks and blocks[-1][1] is None:
            radix, _, w = blocks[-1]
            blocks[-1] = (radix * mat.cols, None, w)
        else:
            blocks.append((mat.cols, None, n_out))
        n_out *= mat.rows
    if sorted(used) != list(range(len(leg_dims))):
        raise ValueError("legs not used exactly once: %s of %d"
                         % (sorted(used), len(leg_dims)))

    factor_terms = [
        [[(sum(weight[first + t] * x for t, x in enumerate(legs)), v)
          for legs, v in col] for col in cols]
        for first, cols in factor_cols]
    n_in = 1
    for terms in factor_terms:
        n_in *= len(terms)

    sums = {}
    _fold(factor_terms, blocks, 0, [(0, 1)], 0, sums)
    return SparseMatrix._settled(field, n_out, n_in, settle(field, sums))
