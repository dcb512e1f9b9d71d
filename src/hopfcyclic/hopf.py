"""Finite-dimensional Hopf algebras by structure constants, with axiom checks.

All structure maps are sparse matrices over an exact field:

    mult: H (x) H -> H        comult: H -> H (x) H
    unit: k -> H (dim x 1)    counit: H -> k (1 x dim)
    antipode, antipode_inv: H -> H

plus comodule algebras (coaction A -> H (x) A, an algebra map) and module
coalgebras (action H (x) C -> C, a coalgebra map).  Axiom checkers evaluate
the defining identities exhaustively as exact matrix equalities and report
pass/fail per axiom with the first failing basis tuple; each law is
written once, and `CheckReport.require` is the one refusal of a structure,
an AxiomFailure naming each failed axiom.  `dual_hopf` transposes every
structure map; the cobar complex of an H-comodule is computed as the
transposed bar complex of the dual module over H*.
"""

from __future__ import annotations

from itertools import permutations

from .errors import AxiomFailure, CharTwo, NotAGroup, Singular
from .fields import Field
from .linalg import SparseMatrix, amplify, invert
from .tensor import Spaces, perm_matrix, tensor_unindex


class CheckReport:
    """Outcome of an axiom suite: (axiom name, passed, failure detail) rows."""

    def __init__(self, subject):
        self.subject = subject
        self.entries = []

    def record(self, name, lhs, rhs, in_dims):
        if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
            self.entries.append((name, False, "shape %dx%d against %dx%d" % (
                lhs.rows, lhs.cols, rhs.rows, rhs.cols)))
            return
        diff = None if lhs == rhs else lhs.first_difference(rhs)
        if diff is None:
            self.entries.append((name, True, None))
        else:
            row, col = diff
            detail = "first failure at input basis %s" % (
                tensor_unindex(in_dims, col),)
            self.entries.append((name, False, detail))

    def record_bool(self, name, ok, detail=None):
        self.entries.append((name, ok, None if ok else detail))

    @property
    def ok(self):
        return all(e[1] for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e[1]]

    def require(self, what):
        """AxiomFailure "<what>: <each failed entry name>" unless all pass."""
        failed = [name for name, _, _ in self.failures()]
        if failed:
            raise AxiomFailure("%s: %s" % (what, ", ".join(failed)))

    def __repr__(self):
        state = "ok" if self.ok else "FAILED %d" % len(self.failures())
        return "CheckReport(%s: %s, %d axioms)" % (self.subject, state,
                                                   len(self.entries))


class Algebra:
    """Unital associative algebra by structure constants."""

    def __init__(self, field, dim, mult, unit, basis_names=None):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.basis_names = basis_names or ["e%d" % i for i in range(dim)]


class Coalgebra:
    """Coassociative counital coalgebra by structure constants."""

    def __init__(self, field, dim, comult, counit, basis_names=None):
        self.field = field
        self.dim = dim
        self.comult = comult
        self.counit = counit
        self.basis_names = basis_names or ["e%d" % i for i in range(dim)]


class HopfAlgebra:
    """Finite-dimensional Hopf algebra with bijective antipode."""

    def __init__(self, field, dim, mult, unit, comult, counit, antipode,
                 antipode_inv=None, basis_names=None):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        if antipode_inv is None:
            antipode_inv = antipode_inverse(antipode)
        self.antipode_inv = antipode_inv
        self.basis_names = basis_names or ["e%d" % i for i in range(dim)]

    def as_algebra(self):
        return Algebra(self.field, self.dim, self.mult, self.unit,
                       self.basis_names)

    def as_coalgebra(self):
        return Coalgebra(self.field, self.dim, self.comult, self.counit,
                         self.basis_names)


class ComoduleAlgebra:
    """Algebra A with a coaction A -> H (x) A that is an algebra map."""

    def __init__(self, hopf, algebra, coaction):
        self.hopf = hopf
        self.algebra = algebra
        self.coaction = coaction

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def mult(self):
        return self.algebra.mult

    @property
    def unit(self):
        return self.algebra.unit


class ModuleCoalgebra:
    """Coalgebra C with an action H (x) C -> C that is a coalgebra map."""

    def __init__(self, hopf, coalgebra, action):
        self.hopf = hopf
        self.coalgebra = coalgebra
        self.action = action

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def dim(self):
        return self.coalgebra.dim

    @property
    def comult(self):
        return self.coalgebra.comult

    @property
    def counit(self):
        return self.coalgebra.counit


# -- axiom suites ----------------------------------------------------------------

def _ident(field, n):
    return SparseMatrix.identity(field, n)


def check_algebra(a, report=None):
    f = a.field
    d = a.dim
    rep = report or CheckReport("algebra")
    i = _ident(f, d)
    rep.record("associativity", a.mult @ amplify(a.mult, 1, d),
               a.mult @ amplify(a.mult, d, 1), [d, d, d])
    rep.record("left unit", a.mult @ amplify(a.unit, 1, d), i, [d])
    rep.record("right unit", a.mult @ amplify(a.unit, d, 1), i, [d])
    return rep


def check_coalgebra(c, report=None):
    f = c.field
    d = c.dim
    rep = report or CheckReport("coalgebra")
    i = _ident(f, d)
    rep.record("coassociativity", amplify(c.comult, 1, d) @ c.comult,
               amplify(c.comult, d, 1) @ c.comult, [d])
    rep.record("left counit", amplify(c.counit, 1, d) @ c.comult, i, [d])
    rep.record("right counit", amplify(c.counit, d, 1) @ c.comult, i, [d])
    return rep


def check_hopf(h: HopfAlgebra) -> CheckReport:
    """Exhaustive Hopf-algebra axiom suite; failures reported, not raised."""
    f = h.field
    d = h.dim
    rep = CheckReport("hopf")
    i = _ident(f, d)
    check_algebra(h, rep)
    check_coalgebra(h, rep)
    mid_swap = perm_matrix(f, [d] * 4, (0, 2, 1, 3))
    rep.record("comult multiplicative",
               h.comult @ h.mult,
               h.mult.kron(h.mult) @ mid_swap @ h.comult.kron(h.comult),
               [d, d])
    rep.record("comult of unit", h.comult @ h.unit, h.unit.kron(h.unit), [1])
    rep.record("counit multiplicative",
               h.counit @ h.mult, h.counit.kron(h.counit), [d, d])
    rep.record("counit of unit", h.counit @ h.unit, _ident(f, 1), [1])
    target = h.unit @ h.counit
    rep.record("antipode left",
               h.mult @ amplify(h.antipode, 1, d) @ h.comult, target, [d])
    rep.record("antipode right",
               h.mult @ amplify(h.antipode, d, 1) @ h.comult, target, [d])
    rep.record("antipode inverse (left)",
               h.antipode_inv @ h.antipode, i, [d])
    rep.record("antipode inverse (right)",
               h.antipode @ h.antipode_inv, i, [d])
    return rep


def check_module(h: HopfAlgebra, action, report=None) -> CheckReport:
    """The module laws of action: H (x) M -> M."""
    dh, m = h.dim, action.rows
    rep = report or CheckReport("module")
    rep.record("action associative", action @ amplify(h.mult, 1, m),
               action @ amplify(action, dh, 1), [dh, dh, m])
    rep.record("action unital", action @ amplify(h.unit, 1, m),
               _ident(h.field, m), [m])
    return rep


def check_comodule(h: HopfAlgebra, coaction, report=None) -> CheckReport:
    """The comodule laws of coaction: M -> H (x) M."""
    dh, m = h.dim, coaction.cols
    rep = report or CheckReport("comodule")
    rep.record("coaction coassociative",
               amplify(h.comult, 1, m) @ coaction,
               amplify(coaction, dh, 1) @ coaction, [m])
    rep.record("coaction counital", amplify(h.counit, 1, m) @ coaction,
               _ident(h.field, m), [m])
    return rep


def check_comodule_algebra(a: ComoduleAlgebra) -> CheckReport:
    f = a.field
    dh, da = a.hopf.dim, a.dim
    rep = CheckReport("comodule algebra")
    check_algebra(a.algebra, rep)
    check_comodule(a.hopf, a.coaction, rep)
    swap = perm_matrix(f, [dh, da, dh, da], (0, 2, 1, 3))
    rep.record("coaction multiplicative",
               a.coaction @ a.mult,
               a.hopf.mult.kron(a.mult) @ swap @ a.coaction.kron(a.coaction),
               [da, da])
    rep.record("coaction of unit",
               a.coaction @ a.unit, a.hopf.unit.kron(a.unit), [1])
    return rep


def check_module_coalgebra(c: ModuleCoalgebra) -> CheckReport:
    f = c.field
    dh, dc = c.hopf.dim, c.dim
    rep = CheckReport("module coalgebra")
    check_coalgebra(c.coalgebra, rep)
    check_module(c.hopf, c.action, rep)
    swap = perm_matrix(f, [dh, dh, dc, dc], (0, 2, 1, 3))
    rep.record("action comultiplicative",
               c.comult @ c.action,
               c.action.kron(c.action) @ swap
               @ c.hopf.comult.kron(c.comult), [dh, dc])
    rep.record("action counital",
               c.counit @ c.action, c.hopf.counit.kron(c.counit), [dh, dc])
    return rep


# -- builders ---------------------------------------------------------------------

def antipode_inverse(s: SparseMatrix) -> SparseMatrix:
    """Exact inverse of the antipode matrix; Singular if not bijective."""
    if s.rows != s.cols:
        raise Singular("antipode not square")
    inv = invert(s)
    if inv is None:
        raise Singular("antipode is not invertible")
    return inv


def _group_check(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("multiplication table is not n x n over 0..n-1")
    e = None
    for cand in range(n):
        if all(table[cand][j] == j and table[j][cand] == j for j in range(n)):
            e = cand
            break
    if e is None:
        raise NotAGroup("no identity element")
    for i in range(n):
        if e not in table[i]:
            raise NotAGroup("element %d has no inverse" % i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup("not associative at (%d,%d,%d)" % (i, j, k))
    return e


def group_algebra(table, field: Field, names=None) -> HopfAlgebra:
    """Hopf algebra kG of a finite group given by its multiplication table."""
    e = _group_check(table)
    n = len(table)
    one = field.one()
    mult = SparseMatrix(field, n, n * n,
                        {(table[i][j], i * n + j): one
                         for i in range(n) for j in range(n)})
    unit = SparseMatrix(field, n, 1, {(e, 0): one})
    comult = SparseMatrix(field, n * n, n, {(i * n + i, i): one for i in range(n)})
    counit = SparseMatrix(field, 1, n, {(0, i): one for i in range(n)})
    inv = {i: next(j for j in range(n) if table[i][j] == e) for i in range(n)}
    antipode = SparseMatrix(field, n, n, {(inv[i], i): one for i in range(n)})
    return HopfAlgebra(field, n, mult, unit, comult, counit, antipode,
                       basis_names=names)


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n):
    """Multiplication table of S_n (composition: row then column permutation)."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        table.append([index[tuple(p[q[k]] for k in range(n))] for q in perms])
    return table


def trivial_hopf(field: Field) -> HopfAlgebra:
    return group_algebra([[0]], field, names=["1"])


def sweedler_hopf(field: Field) -> HopfAlgebra:
    """The four-dimensional Hopf algebra with basis {1, g, x, gx}.

    Relations g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g (x) g,
    Delta(x) = x (x) 1 + g (x) x; S(g) = g, S(x) = -gx.  The antipode has
    order four.  Needs characteristic != 2.
    """
    if field.characteristic == 2:
        raise CharTwo("this Hopf algebra degenerates in characteristic 2")
    one = field.one()
    neg = field.neg(one)
    I, G, X, GX = 0, 1, 2, 3
    prod_table = {
        (I, I): (I, one), (I, G): (G, one), (I, X): (X, one), (I, GX): (GX, one),
        (G, I): (G, one), (G, G): (I, one), (G, X): (GX, one), (G, GX): (X, one),
        (X, I): (X, one), (X, G): (GX, neg), (X, X): None, (X, GX): None,
        (GX, I): (GX, one), (GX, G): (X, neg), (GX, X): None, (GX, GX): None,
    }
    ment = {}
    for (i, j), v in prod_table.items():
        if v is not None:
            k, c = v
            ment[(k, i * 4 + j)] = c
    mult = SparseMatrix(field, 4, 16, ment)
    unit = SparseMatrix(field, 4, 1, {(I, 0): one})
    cent = {
        (I * 4 + I, I): one,
        (G * 4 + G, G): one,
        (X * 4 + I, X): one, (G * 4 + X, X): one,
        (GX * 4 + G, GX): one, (I * 4 + GX, GX): one,
    }
    comult = SparseMatrix(field, 16, 4, cent)
    counit = SparseMatrix(field, 1, 4, {(0, I): one, (0, G): one})
    antipode = SparseMatrix(field, 4, 4,
                            {(I, I): one, (G, G): one, (GX, X): neg, (X, GX): one})
    return HopfAlgebra(field, 4, mult, unit, comult, counit, antipode,
                       basis_names=["1", "g", "x", "gx"])


def dual_hopf(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra H* on the dual basis: every structure map
    transposed, so product and coproduct, unit and counit trade places."""
    return HopfAlgebra(h.field, h.dim, h.comult.transpose(),
                       h.counit.transpose(), h.mult.transpose(),
                       h.unit.transpose(), h.antipode.transpose(),
                       h.antipode_inv.transpose(),
                       ["%s*" % name for name in h.basis_names])


# -- canonical (co)actions ----------------------------------------------------------

def regular_comodule_algebra(h: HopfAlgebra) -> ComoduleAlgebra:
    """H coacting on itself by its comultiplication."""
    return ComoduleAlgebra(h, h.as_algebra(), h.comult)


def trivial_comodule_algebra(h: HopfAlgebra, algebra=None) -> ComoduleAlgebra:
    """Coaction a -> 1 (x) a on any algebra (the ground field by default)."""
    if algebra is None:
        f = h.field
        algebra = Algebra(f, 1, SparseMatrix.identity(f, 1),
                          SparseMatrix.identity(f, 1), ["1"])
    coaction = amplify(h.unit, 1, algebra.dim)
    return ComoduleAlgebra(h, algebra, coaction)


def regular_module_coalgebra(h: HopfAlgebra) -> ModuleCoalgebra:
    """H acting on itself by multiplication."""
    return ModuleCoalgebra(h, h.as_coalgebra(), h.mult)


def trivial_module_coalgebra(h: HopfAlgebra, coalgebra=None) -> ModuleCoalgebra:
    """Action h . c = counit(h) c on any coalgebra (ground field by default)."""
    if coalgebra is None:
        f = h.field
        coalgebra = Coalgebra(f, 1, SparseMatrix.identity(f, 1),
                              SparseMatrix.identity(f, 1), ["1"])
    action = amplify(h.counit, 1, coalgebra.dim)
    return ModuleCoalgebra(h, coalgebra, action)


# -- operator-compiler contexts -----------------------------------------------------

def algebra_spaces(a: ComoduleAlgebra) -> Spaces:
    return Spaces({"H": a.hopf, "A": a})


def coalgebra_spaces(c: ModuleCoalgebra) -> Spaces:
    return Spaces({"H": c.hopf, "C": c})
