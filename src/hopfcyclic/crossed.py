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
cohomology is computed as the homology of its transpose, a cyclic module
(`CocyclicOps.transpose`).
"""

from __future__ import annotations

from .errors import AxiomFailure, IdentityFailure
from .hopf import (
    Algebra, Coalgebra, CheckReport, algebra_spaces, check_algebra,
    check_coalgebra, coalgebra_spaces,
)
from .linalg import SparseMatrix
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
    rep = check_algebra(out)
    if not rep.ok:
        raise AxiomFailure("crossed product algebra: %s" % rep.failures())
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
    rep = check_coalgebra(out)
    if not rep.ok:
        raise AxiomFailure("crossed product coalgebra: %s" % rep.failures())
    return out


class CyclicOps:
    """Face/degeneracy/cyclic matrices of a cyclic module up to degree N."""

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


class CocyclicOps:
    """Coface/codegeneracy/cocyclic matrices of a cocyclic module."""

    def __init__(self, field, dims, cofaces, codegens, cocyclic, N):
        self.field = field
        self.dims = dims          # dims[n] = dim C^n
        self.cofaces = cofaces    # (n, i) -> C^n -> C^{n+1}, n <= N-1, 0<=i<=n+1
        self.codegens = codegens  # (n, i) -> C^n -> C^{n-1}, n >= 1, 0<=i<=n-1
        self.cocyclic = cocyclic  # n -> C^n -> C^n
        self.N = N

    def dim(self, n):
        return self.dims[n]

    def coface(self, n, i):
        return self.cofaces[(n, i)]

    def codegen(self, n, i):
        return self.codegens[(n, i)]

    def t(self, n):
        return self.cocyclic[n]

    def transpose(self) -> CyclicOps:
        """The dual cyclic module, d_i = (delta^i)^T, s_i = (sigma^i)^T,
        t = tau^T: transposing reverses composition, so each cocyclic
        relation becomes the matching cyclic one (Connes 1983), and b, B and
        Connes' complex become the transposes of the cochain ones."""
        return _DualCyclicOps(self)


class _DualCyclicOps(CyclicOps):
    """A cocyclic module's transpose, each matrix transposed as it is read,
    so the cocyclic module's matrices are never held twice."""

    def __init__(self, co):
        super().__init__(co.field, co.dims, None, None, None, co.N)
        self.co = co

    def face(self, n, i):
        return self.co.coface(n - 1, i).transpose()

    def degen(self, n, i):
        return self.co.codegen(n + 1, i).transpose()

    def t(self, n):
        return self.co.t(n).transpose()


def cyclic_module_of_algebra(r: Algebra, N: int = 3) -> CyclicOps:
    f = r.field
    d = r.dim
    ident = SparseMatrix.identity

    def I(k):
        return ident(f, d ** k)

    dims = [d ** (n + 1) for n in range(N + 1)]
    faces, degens, cyclic = {}, {}, {}
    for n in range(N + 1):
        cyclic[n] = perm_matrix(f, [d] * (n + 1),
                                tuple([n] + list(range(n))))
    for n in range(1, N + 1):
        for i in range(n):
            faces[(n, i)] = I(i).kron(r.mult).kron(I(n - 1 - i))
        faces[(n, n)] = faces[(n, 0)] @ cyclic[n]
    for n in range(N):
        for i in range(n + 1):
            degens[(n, i)] = I(i + 1).kron(r.unit).kron(I(n - i))
    return CyclicOps(f, dims, faces, degens, cyclic, N)


def cocyclic_module_of_coalgebra(c: Coalgebra, N: int = 3) -> CocyclicOps:
    f = c.field
    d = c.dim
    ident = SparseMatrix.identity

    def I(k):
        return ident(f, d ** k)

    dims = [d ** (n + 1) for n in range(N + 1)]
    cofaces, codegens, cocyclic = {}, {}, {}
    for n in range(N + 1):
        cocyclic[n] = perm_matrix(f, [d] * (n + 1),
                                  tuple(list(range(1, n + 1)) + [0]))
    for n in range(N):
        for i in range(n + 1):
            cofaces[(n, i)] = I(i).kron(c.comult).kron(I(n - i))
        cofaces[(n, n + 1)] = cocyclic[n + 1] @ cofaces[(n, 0)]
    for n in range(1, N + 1):
        for i in range(n):
            codegens[(n, i)] = I(i + 1).kron(c.counit).kron(I(n - 1 - i))
    return CocyclicOps(f, dims, cofaces, codegens, cocyclic, N)


# -- identity suites -------------------------------------------------------------

def check_cyclic_ops(ops: CyclicOps, cyclic=True, report=None, raise_on_fail=False):
    """Simplicial + cyclic-compatibility relations; t^(n+1) = id if cyclic.

    With cyclic=False the same relations are checked minus t^(n+1) = id
    (a paracyclic module).
    """
    rep = report or CheckReport("cyclic module")
    N = ops.N

    def chk(name, n, lhs, rhs):
        ok = lhs == rhs
        rep.record_bool(name, ok, "degree %d" % n)
        if raise_on_fail and not ok:
            raise IdentityFailure(name, q=n)

    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                chk("d_i d_j = d_{j-1} d_i", n,
                    ops.face(n - 1, i) @ ops.face(n, j),
                    ops.face(n - 1, j - 1) @ ops.face(n, i))
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                chk("s_i s_j = s_{j+1} s_i", n,
                    ops.degen(n + 1, i) @ ops.degen(n, j),
                    ops.degen(n + 1, j + 1) @ ops.degen(n, i))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = ops.face(n + 1, i) @ ops.degen(n, j)
                if i < j:
                    rhs = ops.degen(n - 1, j - 1) @ ops.face(n, i)
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(ops.field, ops.dim(n))
                else:
                    rhs = ops.degen(n - 1, j) @ ops.face(n, i - 1)
                chk("d_i s_j relations", n, lhs, rhs)
    for n in range(1, N + 1):
        chk("d_0 t = d_n", n, ops.face(n, 0) @ ops.t(n), ops.face(n, n))
        for i in range(1, n + 1):
            chk("d_i t = t d_{i-1}", n,
                ops.face(n, i) @ ops.t(n), ops.t(n - 1) @ ops.face(n, i - 1))
    for n in range(N):
        chk("s_0 t = t^2 s_n", n,
            ops.degen(n, 0) @ ops.t(n),
            ops.t(n + 1) @ ops.t(n + 1) @ ops.degen(n, n))
        for i in range(1, n + 1):
            chk("s_i t = t s_{i-1}", n,
                ops.degen(n, i) @ ops.t(n), ops.t(n + 1) @ ops.degen(n, i - 1))
    if cyclic:
        for n in range(N + 1):
            tn = SparseMatrix.identity(ops.field, ops.dim(n))
            for _ in range(n + 1):
                tn = ops.t(n) @ tn
            chk("t^(n+1) = id", n, tn,
                SparseMatrix.identity(ops.field, ops.dim(n)))
    return rep


def check_cocyclic_ops(ops: CocyclicOps, cocyclic=True, report=None,
                       raise_on_fail=False):
    """Cosimplicial + cocyclic-compatibility relations; t^(n+1) = id if cocyclic."""
    rep = report or CheckReport("cocyclic module")
    N = ops.N

    def chk(name, n, lhs, rhs):
        ok = lhs == rhs
        rep.record_bool(name, ok, "degree %d" % n)
        if raise_on_fail and not ok:
            raise IdentityFailure(name, q=n)

    for n in range(N - 1):
        for j in range(n + 2 + 1):
            for i in range(j):
                chk("del^j del^i = del^i del^{j-1}", n,
                    ops.coface(n + 1, j) @ ops.coface(n, i),
                    ops.coface(n + 1, i) @ ops.coface(n, j - 1))
    for n in range(2, N + 1):
        for i in range(n):
            for j in range(i, n - 1):
                chk("sig^j sig^i = sig^i sig^{j+1}", n,
                    ops.codegen(n - 1, j) @ ops.codegen(n, i),
                    ops.codegen(n - 1, i) @ ops.codegen(n, j + 1))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = ops.codegen(n + 1, j) @ ops.coface(n, i)
                if i < j:
                    rhs = ops.coface(n - 1, i) @ ops.codegen(n, j - 1)
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(ops.field, ops.dim(n))
                else:
                    rhs = ops.coface(n - 1, i - 1) @ ops.codegen(n, j)
                chk("sig^j del^i relations", n, lhs, rhs)
    for n in range(N):
        chk("t del^0 = del^{n+1}", n,
            ops.t(n + 1) @ ops.coface(n, 0), ops.coface(n, n + 1))
        for i in range(1, n + 2):
            chk("t del^i = del^{i-1} t", n,
                ops.t(n + 1) @ ops.coface(n, i),
                ops.coface(n, i - 1) @ ops.t(n))
    for n in range(1, N + 1):
        chk("t sig^0 = sig^{n-1} t^2", n,
            ops.t(n - 1) @ ops.codegen(n, 0),
            ops.codegen(n, n - 1) @ ops.t(n) @ ops.t(n))
        for i in range(1, n):
            chk("t sig^i = sig^{i-1} t", n,
                ops.t(n - 1) @ ops.codegen(n, i),
                ops.codegen(n, i - 1) @ ops.t(n))
    if cocyclic:
        for n in range(N + 1):
            tn = SparseMatrix.identity(ops.field, ops.dim(n))
            for _ in range(n + 1):
                tn = ops.t(n) @ tn
            chk("t^(n+1) = id", n, tn,
                SparseMatrix.identity(ops.field, ops.dim(n)))
    return rep
