"""Crossed products and the standard (co)cyclic modules of (co)algebras.

The crossed product algebra of a comodule algebra A lives on A (x) H with

    (a (x) g)(b (x) h) = a b0 (x) Sinv(b1) g b2 h

where b2 (x) b1 (x) b0 is the twice-iterated coaction of b.  The crossed
product coalgebra of a module coalgebra C lives on C (x) H with

    Delta(a (x) g) = (a0 (x) g1) (x) (Sinv(g0 S(g2)) . a1 (x) g3).

Cyclic module of an algebra R: C_n = R^(x)(n+1), faces multiply adjacent
factors with the last face wrapping (r_n r_0, r_1, ..., r_{n-1}),
degeneracies insert 1, and t pulls the last factor to the front.  Cocyclic
module of a coalgebra: cofaces comultiply slot i (the last one wraps),
codegeneracies hit slot i+1 with the counit, tau rotates left.  Its
transpose is a cyclic module, and its cohomology is computed as the
homology of the transpose.  A cocyclic module reads itself that way
(`CocyclicOps` is a `CyclicOps`), so every reader of a cyclic module takes
it as it is, with no coface, codegeneracy or rotation transposed: as
(A B)^T = B^T A^T and an equality holds exactly when its transpose does,
each cooperator stands in its transpose's place and each composite is
formed in reverse order, reported under the cochain names and degrees.
"""

from __future__ import annotations

from .hopf import (
    Algebra, Coalgebra, CheckReport, algebra_spaces, check_algebra,
    check_coalgebra, coalgebra_spaces,
)
from .linalg import (
    SparseMatrix, amplify, col_items, invert, relabel, unit_column,
)
from .tensor import Legs, S, Sinv, act, compile_operator, perm_matrix, prod


def crossed_product_algebra(a) -> Algebra:
    """The crossed product of a comodule algebra with its Hopf algebra."""
    f = a.field
    spaces = algebra_spaces(a)
    specs = [("A", ("id",)), ("H", ("id",)),
             ("A", ("coaction", 2)), ("H", ("id",))]
    L = Legs(specs)
    mult = compile_operator(f, spaces, specs, [
        prod(L.plain(0), L.coact(2, 0)),
        prod(Sinv(L.coact(2, 1)), L.plain(1), L.coact(2, 2), L.plain(3)),
    ])
    unit = a.unit.kron(a.hopf.unit)
    names = ["%s*%s" % (x, y)
             for x in a.algebra.basis_names for y in a.hopf.basis_names]
    out = Algebra(f, a.dim * a.hopf.dim, mult, unit, names)
    check_algebra(out).require("the crossed product fails the algebra axioms")
    return out


def crossed_product_coalgebra(c) -> Coalgebra:
    """The crossed product of a module coalgebra with its Hopf algebra."""
    f = c.field
    spaces = coalgebra_spaces(c)
    specs = [("C", ("comult", 1)), ("H", ("comult", 3))]
    L = Legs(specs)
    comult = compile_operator(f, spaces, specs, [
        L.com(0, 0),
        L.com(1, 1),
        act(Sinv(prod(L.com(1, 0), S(L.com(1, 2)))), L.com(0, 1)),
        L.com(1, 3),
    ])
    counit = c.counit.kron(c.hopf.counit)
    names = ["%s*%s" % (x, y)
             for x in c.coalgebra.basis_names for y in c.hopf.basis_names]
    out = Coalgebra(f, c.dim * c.hopf.dim, comult, counit, names)
    check_coalgebra(out).require(
        "the crossed product fails the coalgebra axioms")
    return out


class _OnRead:
    """A map of operators, each built on its first read by build(key) and
    kept.  Only the keys in `domain` exist (when given; else build raises
    KeyError for a key that does not).  It holds only what was read, so it
    cannot be iterated."""

    def __init__(self, build, domain=None):
        self.build = build
        self.domain = domain
        self.made = {}

    def __getitem__(self, key):
        got = self.made.get(key)
        if got is None:
            if self.domain is not None and key not in self.domain:
                raise KeyError(key)
            got = self.made[key] = self.build(key)
        return got

    def __iter__(self):
        raise TypeError("operators built on read cannot be iterated")


class CyclicOps:
    """Face/degeneracy/cyclic matrices of a cyclic module up to degree N.

    The three maps are read by key only, never iterated, so any of them
    may build its matrices on read (`_OnRead`).  A module whose degree N
    carries its faces only holds no degeneracy into N and no t at N.
    `transposed` says whether each map read off it is the transpose of the
    one it stands for (`CocyclicOps`)."""

    transposed = False

    def __init__(self, field, dims, faces, degens, cyclic, N):
        self.field = field
        self.dims = dims          # dims[n] = dim C_n, 0 <= n <= N
        self.faces = faces        # (n, i) -> C_n -> C_{n-1}, n >= 1
        self.degens = degens      # (n, i) -> C_n -> C_{n+1}, n <= N-1
        self.cyclic = cyclic      # n -> C_n -> C_n
        self.N = N

    def dim(self, n):
        return self.dims[n]

    def face(self, n, i):
        return self.faces[(n, i)]

    def degen(self, n, i):
        return self.degens[(n, i)]

    def t(self, n):
        return self.cyclic[n]

    def label(self, name, n):
        """The name and degree that an identity or map named `name` at
        degree n is reported under."""
        return name, n

    def compose(self, *maps):
        """The composite maps[0] . maps[1] . ... of maps read off this
        module, the last applied first."""
        out = maps[0]
        for m in maps[1:]:
            out = out @ m
        return out


# A cyclic identity or map at degree n, as a cocyclic module names it:
# (cochain name, shift), reported at degree n + shift.
_COCHAIN_NAMES = {
    "d_i d_j = d_{j-1} d_i": ("del^j del^i = del^i del^{j-1}", -2),
    "s_i s_j = s_{j+1} s_i": ("sig^j sig^i = sig^i sig^{j+1}", 2),
    "d_i s_j relations": ("sig^j del^i relations", 0),
    "d_0 t = d_n": ("t del^0 = del^{n+1}", -1),
    "d_i t = t d_{i-1}": ("t del^i = del^{i-1} t", -1),
    "s_0 t = t^2 s_n": ("t sig^0 = sig^{n-1} t^2", 1),
    "s_i t = t s_{i-1}": ("t sig^i = sig^{i-1} t", 1),
    "t^(n+1) = id": ("t^(n+1) = id", 0),
    "t": ("t", 0),
    "d_%d": ("del^%d", -1),
    "s_%d": ("sig^%d", 1),
}


class CocyclicOps(CyclicOps):
    """Coface/codegeneracy/cocyclic matrices of a cocyclic module, read as
    its transpose's cyclic module: face (n, i) is coface (n - 1, i),
    degeneracy (n, i) is codegeneracy (n + 1, i) and t(n) is t(n), none of
    them transposed.  As A^T B^T = (B A)^T and an equality holds exactly
    when its transpose does, each composite is formed in reverse order
    (`compose`), so every reader of a cyclic module reads the cochain
    relations as they are, each identity and map reported by its cochain
    name and degree (`label`).  A sum of maps is summed transposed
    (`transposed`)."""

    transposed = True

    def __init__(self, field, dims, cofaces, codegens, cocyclic, N):
        self.field = field
        self.dims = dims          # dims[n] = dim C^n
        self.cofaces = cofaces    # (n, i) -> C^n -> C^{n+1}, n <= N-1, 0<=i<=n+1
        self.codegens = codegens  # (n, i) -> C^n -> C^{n-1}, n >= 1, 0<=i<=n-1
        self.cocyclic = cocyclic  # n -> C^n -> C^n
        self.N = N

    def coface(self, n, i):
        return self.cofaces[(n, i)]

    def codegen(self, n, i):
        return self.codegens[(n, i)]

    def face(self, n, i):
        return self.cofaces[(n - 1, i)]

    def degen(self, n, i):
        return self.codegens[(n + 1, i)]

    def t(self, n):
        return self.cocyclic[n]

    def label(self, name, n):
        name, shift = _COCHAIN_NAMES[name]
        return name, n + shift

    def compose(self, *maps):
        """The cochain composite ... maps[1] . maps[0], the transpose of
        the composite maps[0]^T . maps[1]^T . ... on the transpose."""
        out = maps[-1]
        for m in maps[-2::-1]:
            out = out @ m
        return out


def _rotate_left(x, d, top):
    """x is the index of a basis tensor of factors of dimension d, top = d
    to the number of factors less one; the index of that tensor once its
    first factor moves to the end."""
    return (x % top) * d + x // top


def cyclic_module_of_algebra(r: Algebra, N: int = 3) -> CyclicOps:
    f = r.field
    d = r.dim
    dims = [d ** (n + 1) for n in range(N + 1)]
    faces, degens, cyclic = {}, {}, {}
    for n in range(N + 1):
        cyclic[n] = perm_matrix(f, [d] * (n + 1),
                                tuple([n] + list(range(n))))
    for n in range(1, N + 1):
        for i in range(n):
            faces[(n, i)] = amplify(r.mult, d ** i, d ** (n - 1 - i))
        # d_n = d_0 t and t moves the last factor to the front, so column c
        # of d_0 is column t^-1(c) of d_n: c rotated left
        top = d ** n
        faces[(n, n)] = relabel(faces[(n, 0)],
                                col_of=lambda c: _rotate_left(c, d, top))
    for n in range(N):
        for i in range(n + 1):
            degens[(n, i)] = amplify(r.unit, d ** (i + 1), d ** (n - i))
    return CyclicOps(f, dims, faces, degens, cyclic, N)


def cocyclic_module_of_coalgebra(c: Coalgebra, N: int = 3) -> CocyclicOps:
    f = c.field
    d = c.dim
    dims = [d ** (n + 1) for n in range(N + 1)]
    cofaces, codegens, cocyclic = {}, {}, {}
    for n in range(N + 1):
        cocyclic[n] = perm_matrix(f, [d] * (n + 1),
                                  tuple(list(range(1, n + 1)) + [0]))
    for n in range(N):
        for i in range(n + 1):
            cofaces[(n, i)] = amplify(c.comult, d ** i, d ** (n - i))
        # del^(n+1) = tau del^0 and tau moves the first factor to the end, so
        # row i of del^0 is row tau(i) of del^(n+1): i rotated left
        top = d ** (n + 1)
        cofaces[(n, n + 1)] = relabel(
            cofaces[(n, 0)], row_of=lambda i: _rotate_left(i, d, top))
    for n in range(1, N + 1):
        for i in range(n):
            codegens[(n, i)] = amplify(c.counit, d ** (i + 1), d ** (n - 1 - i))
    return CocyclicOps(f, dims, cofaces, codegens, cocyclic, N)


# -- the quotient by the unit, on which homology's normalized chains live ----

def dual_algebra(c: Coalgebra) -> Algebra:
    """The algebra C* = (Delta^T, counit^T) on the dual basis: its cyclic
    module is the transpose of C's cocyclic module, face by face."""
    return Algebra(c.field, c.dim, c.comult.transpose(), c.counit.transpose(),
                   c.basis_names)


def unit_basis(field, unit):
    """(basis, inverse) of the change of basis that puts the nonzero d x 1
    column `unit` at e_0: f_0 = unit, then the e_j other than e_k in order,
    k the first coordinate of unit; both the identity when unit is e_0.
    The columns of basis are the f_j in the old coordinates."""
    d = unit.rows
    col = unit.column(0)
    if col == {0: 1}:
        ident = SparseMatrix.identity(field, d)
        return ident, ident
    k = min(col)
    cols = {0: unit.columns[0]}
    cols.update({c: unit_column(j)
                 for c, j in enumerate([j for j in range(d) if j != k], 1)})
    basis = SparseMatrix._of_columns(field, d, d, cols)
    return basis, invert(basis)


def unit_legs(field, unit):
    """(C, P) for a leg of Rbar = R / k unit, R of dimension d: C (d x
    (d - 1)) takes the coordinates f_1, ..., f_(d-1) of `unit_basis` to R,
    and P ((d - 1) x d) reads them off an element of R, so P C = I and the
    kernel of P is the line of the unit.  On a tensor power whose chains
    with the unit in a leg span a subcomplex, the quotient complex is P
    (x) ... d ... (x) C on those legs; with the unit at e_0 both only
    select the coordinates 1, ..., d - 1."""
    basis, inv = unit_basis(field, unit)
    d = unit.rows
    C = SparseMatrix._of_columns(field, d, d - 1, {
        j - 1: col for j, col in basis.columns.items() if j})
    rows = {}
    for j, col in inv.columns.items():
        kept = tuple(x for i, v in col_items(col) if i for x in (i - 1, v))
        if kept:
            rows[j] = kept
    return C, SparseMatrix._of_columns(field, d - 1, d, rows)


def unit_first(r: Algebra) -> Algebra:
    """r itself when its unit is e_0; else r in the basis of `unit_basis`."""
    if r.unit.column(0) == {0: 1}:
        return r
    basis, inv = unit_basis(r.field, r.unit)
    return Algebra(r.field, r.dim, inv @ r.mult @ basis.kron(basis),
                   inv @ r.unit)


# -- identity suites -------------------------------------------------------------

def _power(m, k):
    """m^k for k >= 1."""
    out = m
    for _ in range(k - 1):
        out = m @ out
    return out


def check_cyclic_ops(ops: CyclicOps, cyclic=True, report=None,
                     top_faces_only=False):
    """Simplicial + cyclic-compatibility relations; t^(n+1) = id if cyclic.

    With cyclic=False the same relations are checked minus t^(n+1) = id
    (a paracyclic module).  With top_faces_only, degree N carries its faces
    only: every relation is checked through N - 1, and d_i d_j at N too.
    Each identity is recorded under the name and degree that `ops.label`
    gives it, and each side is composed by `ops.compose`.
    """
    rep = report or CheckReport("cyclic module")
    N = ops.N - 1 if top_faces_only else ops.N
    mul = ops.compose

    def chk(name, n, lhs, rhs):
        name, n = ops.label(name, n)
        rep.record_bool(name, lhs == rhs, "degree %d" % n)

    for n in range(2, ops.N + 1):
        for j in range(n + 1):
            for i in range(j):
                chk("d_i d_j = d_{j-1} d_i", n,
                    mul(ops.face(n - 1, i), ops.face(n, j)),
                    mul(ops.face(n - 1, j - 1), ops.face(n, i)))
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                chk("s_i s_j = s_{j+1} s_i", n,
                    mul(ops.degen(n + 1, i), ops.degen(n, j)),
                    mul(ops.degen(n + 1, j + 1), ops.degen(n, i)))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = mul(ops.face(n + 1, i), ops.degen(n, j))
                if i < j:
                    rhs = mul(ops.degen(n - 1, j - 1), ops.face(n, i))
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(ops.field, ops.dim(n))
                else:
                    rhs = mul(ops.degen(n - 1, j), ops.face(n, i - 1))
                chk("d_i s_j relations", n, lhs, rhs)
    for n in range(1, N + 1):
        chk("d_0 t = d_n", n, mul(ops.face(n, 0), ops.t(n)), ops.face(n, n))
        for i in range(1, n + 1):
            chk("d_i t = t d_{i-1}", n, mul(ops.face(n, i), ops.t(n)),
                mul(ops.t(n - 1), ops.face(n, i - 1)))
    for n in range(N):
        chk("s_0 t = t^2 s_n", n, mul(ops.degen(n, 0), ops.t(n)),
            mul(ops.t(n + 1), ops.t(n + 1), ops.degen(n, n)))
        for i in range(1, n + 1):
            chk("s_i t = t s_{i-1}", n, mul(ops.degen(n, i), ops.t(n)),
                mul(ops.t(n + 1), ops.degen(n, i - 1)))
    if cyclic:
        for n in range(N + 1):
            chk("t^(n+1) = id", n, _power(ops.t(n), n + 1),
                SparseMatrix.identity(ops.field, ops.dim(n)))
    return rep


def check_cocyclic_ops(ops: CocyclicOps, cocyclic=True, report=None,
                       top_faces_only=False):
    """`check_cyclic_ops` on the cocyclic module as it reads itself
    (`CocyclicOps`), reported as a "cocyclic module": its own matrices,
    composed in cochain order, under the cochain names and degrees; no
    matrix is transposed.  t^(n+1) = id if cocyclic.  With top_faces_only,
    degree N carries its cofaces from N - 1 only."""
    return check_cyclic_ops(ops, cocyclic,
                            report or CheckReport("cocyclic module"),
                            top_faces_only)
