"""Bi-paracyclic operator families for comodule algebras and module coalgebras.

The cylinder of a comodule algebra A lives on X_{p,q} = H^(x)(p+1) (x)
A^(x)(q+1): the vertical (A-direction) operators rotate/multiply the A-block
and conjugate the H-block through coaction legs; the horizontal (H-direction)
operators act on the H-block with an overall S-inverse-twisted conjugation.
Dually for a module coalgebra C with cofaces/codegeneracies.  The first
column H (x) A^(x)(n+1) (H (x) C^(x)(n+1)) is the p = 0 column of the
(co)cylinder with its vertical operators.

Each operator but the rotations tau_v, tau_h (which keep their cell) maps
the cell (p, q) into the cell shifted by its shift, and there are `count`
of it at (p, q):

    operator    shift     count        operator    shift     count
    face_v      (0, -1)   q + 1        coface_v    (0, +1)   q + 2
    degen_v     (0, +1)   q + 1        codegen_v   (0, -1)   q
    face_h      (-1, 0)   p + 1        coface_h    (+1, 0)   p + 2
    degen_h     (+1, 0)   p + 1        codegen_h   (-1, 0)   p

Bi-paracyclic (Getzler-Jones) means: each column and each row is a
paracyclic (paracocyclic) module, tau_v and tau_h commute, tau_h^(p+1)
tau_v^(q+1) = id, and every vertical operator x commutes with every
horizontal operator y: x at y's target after y equals y at x's target after
x.  That one table drives the identity suite, the alternating
(co)boundaries of the module forms and the conjugation onto Hopf-(co)module
form; the total complexes of `homology` read the (co)faces, normalized in
the H direction.

Also here: the diagonal (co)cyclic modules, the degreewise isomorphisms with
the (co)cyclic module of the crossed product, the regrouping transform onto
Hopf-(co)module form together with the closed forms of the transformed
operators that move legs between the blocks, the action/coaction on the
first column, and the coinvariant quotient/subspace with induced
(co)cyclic operators.

An operator that is one structure map on adjacent legs tensored with
identities, every (co)face and (co)degeneracy but the last (co)faces and
the closed forms of that shape, is built by index arithmetic
(`linalg.amplify`).  The rotations and last (co)faces move every factor
but one or two as plain legs: the vertical ones pass all but the moved
block factor(s), the horizontal ones all but the moved H factor(s).  Each
is compiled once per row or column, at q = 0 (the last vertical face at
q = 1) or at p = 0 (the last horizontal face at p = 1), and every other
cell inserts the passed legs into that kernel by index arithmetic
(`linalg.widen`).  The regrouping maps onto module form and their closed
vertical rotation and last (co)face are built the same way.  A kernel is
compiled from a leg-by-leg description; conjugation by an element u
expands as u0 . g . S(u1) over a comultiplication split of u, with S and
S-inverse placed per the standard Hopf identities (Sinv(x))0 = Sinv(x1),
S((Sinv(x))1) = x0.
"""

from __future__ import annotations

import functools

from .crossed import CocyclicOps, CyclicOps, _OnRead, _power, \
    crossed_product_algebra, crossed_product_coalgebra, check_cocyclic_ops, \
    check_cyclic_ops, cocyclic_module_of_coalgebra, cyclic_module_of_algebra
from .errors import (
    ClosedFormMismatch, NotInverse, NotIntertwining, NotRestricting,
    NotWellDefined,
)
from .hopf import (
    CheckReport, algebra_spaces, check_comodule, check_comodule_algebra,
    check_hopf, check_module, check_module_coalgebra, coalgebra_spaces,
)
from .linalg import SparseMatrix, Subspace, amplify, col_items, combine, \
    image, kernel, pack_columns, widen
from .tensor import Legs, S, Sinv, act, compile_operator, prod


# operator -> (shift (dp, dq) to the cell it maps into, its count at (p, q));
# the rotations keep their cell and take no index
_OPERATORS = {
    "tau_v": ((0, 0), None),
    "tau_h": ((0, 0), None),
    "face_v": ((0, -1), lambda p, q: q + 1),
    "degen_v": ((0, 1), lambda p, q: q + 1),
    "face_h": ((-1, 0), lambda p, q: p + 1),
    "degen_h": ((1, 0), lambda p, q: p + 1),
    "coface_v": ((0, 1), lambda p, q: q + 2),
    "codegen_v": ((0, -1), lambda p, q: q),
    "coface_h": ((1, 0), lambda p, q: p + 2),
    "codegen_h": ((-1, 0), lambda p, q: p),
}


def _target(name, p, q):
    """The cell that operator `name` maps the cell (p, q) into."""
    (dp, dq), _ = _OPERATORS[name]
    return p + dp, q + dq


def _inside(cell, P, Q):
    """Whether the cell lies in the window 0..P x 0..Q."""
    return 0 <= cell[0] <= P and 0 <= cell[1] <= Q


def _indices(name, p, q):
    """The index tuples of `name` at (p, q): one empty tuple for a rotation."""
    count = _OPERATORS[name][1]
    return [()] if count is None else [(i,) for i in range(count(p, q))]


def _coaction_bars(L, first, count):
    """The products of coaction legs 1 and of legs 2 over the `count` A
    factors from `first` on."""
    return (prod(*[L.coact(first + j, 1) for j in range(count)]),
            prod(*[L.coact(first + j, 2) for j in range(count)]))


def _cell_op(build):
    """A cell operator memoized on its structure's `_cache` under
    (name, *args)."""
    name = build.__name__

    @functools.wraps(build)
    def op(self, *args):
        key = (name,) + args
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build(self, *args)
        return got
    return op


class _CellOperators:
    """Memoized operators on the cells H^(x)(p+1) (x) B^(x)(q+1), with B
    the (co)module (co)algebra `structure` whose leg label is `block`."""

    block = None

    def __init__(self, structure, spaces):
        self.field = structure.field
        self.spaces = spaces
        self.hopf = structure.hopf
        self.dh = structure.hopf.dim
        self.db = structure.dim
        self._cache = {}

    def space_dim(self, p, q):
        return self.dh ** (p + 1) * self.db ** (q + 1)

    def _specs(self, p, q, expand=None):
        expand = expand or {}
        return [("H" if f <= p else self.block, expand.get(f, ("id",)))
                for f in range(p + 1 + q + 1)]

    def _compile(self, specs, outputs):
        return compile_operator(self.field, self.spaces, specs, outputs)

    def _on_block(self, m, p, before, after):
        """I (x) m (x) I on a cell H^(x)(p+1) (x) B^(x)(q+1): m on the B
        legs with `before` B legs to its left and `after` to its right."""
        return amplify(m, self.dh ** (p + 1) * self.db ** before,
                       self.db ** after)

    def _on_hopf(self, m, before, after, q):
        """I (x) m (x) I on a cell H^(x)(p+1) (x) B^(x)(q+1): m on the H
        legs with `before` H legs to its left and `after` to its right."""
        return amplify(m, self.dh ** before,
                       self.dh ** after * self.db ** (q + 1))

    def _widen(self, kernel, mid, lo, hi):
        """`kernel` with I_mid passed through.  The algebra side moves a
        factor from behind the passed legs to in front of them, so they are
        the digits above `lo` in the rows and above `hi` in the columns;
        the coalgebra side moves one the other way."""
        if self.block == "A":
            return widen(kernel, mid, lo, hi)
        return widen(kernel, mid, hi, lo)

    def _widen_v(self, kernel, legs):
        """A vertical kernel with `legs` more B legs passed through."""
        return self._widen(kernel, self.db ** legs, 1, self.db)

    def _widen_h(self, kernel, legs, q):
        """A horizontal kernel on row q with `legs` more H legs passed
        through."""
        n = self.db ** (q + 1)
        return self._widen(kernel, self.dh ** legs, n, self.dh * n)

    def _alternating(self, name, p, q):
        """The alternating sum of the family `name` at (p, q): a Hochschild
        (co)boundary into the family's target cell."""
        op = getattr(self, name)
        return combine(self.field, self.space_dim(*_target(name, p, q)),
                       self.space_dim(p, q),
                       [((-1) ** i, op(p, q, i))
                        for (i,) in _indices(name, p, q)])


class AlgebraCylinder(_CellOperators):
    """Operator families on H^(x)(p+1) (x) A^(x)(q+1) for a comodule algebra."""

    block = "A"
    family = ("face", "degen")
    module = CyclicOps

    def __init__(self, comodule_algebra):
        super().__init__(comodule_algebra, algebra_spaces(comodule_algebra))
        self.A = comodule_algebra

    # -- vertical (A-direction) family ------------------------------------------

    def _rotation_v_parts(self, p, q):
        """Legs, conjugated H-block and coaction body shared by the vertical
        rotation and the last vertical face: the coaction legs of the last A
        factor conjugate every H factor."""
        aq = p + 1 + q
        specs = self._specs(p, q, {aq: ("coaction", 2 * p + 2)})
        L = Legs(specs)
        outs = [prod(L.coact(aq, 2 * p + 2 - 2 * k), L.plain(k),
                     S(L.coact(aq, 2 * p + 1 - 2 * k))) for k in range(p + 1)]
        return specs, L, outs, L.coact(aq, 0)

    @_cell_op
    def tau_v(self, p, q):
        if q:
            return self._widen_v(self.tau_v(p, 0), q)
        specs, L, outs, body = self._rotation_v_parts(p, 0)
        return self._compile(specs, outs + [body])

    @_cell_op
    def face_v(self, p, q, i):
        if i < q:
            return self._on_block(self.A.mult, p, i, q - 1 - i)
        if q > 1:
            return self._widen_v(self.face_v(p, 1, 1), q - 1)
        specs, L, outs, body = self._rotation_v_parts(p, 1)
        return self._compile(specs, outs + [prod(body, L.plain(p + 1))])

    @_cell_op
    def degen_v(self, p, q, i):
        return self._on_block(self.A.unit, p, i + 1, q - i)

    # -- horizontal (H-direction) family -----------------------------------------

    def _rotation_h_parts(self, p, q):
        """Legs, S-inverse-twisted last H factor and coaction bodies shared
        by the horizontal rotation and the last horizontal face."""
        specs = self._specs(p, q,
                            {p + 1 + j: ("coaction", 2) for j in range(q + 1)})
        L = Legs(specs)
        bar1, bar2 = _coaction_bars(L, p + 1, q + 1)
        bodies = [L.coact(p + 1 + j, 0) for j in range(q + 1)]
        return specs, L, (Sinv(bar1), L.plain(p), bar2), bodies

    @_cell_op
    def tau_h(self, p, q):
        if p:
            return self._widen_h(self.tau_h(0, q), p, q)
        specs, L, twisted, bodies = self._rotation_h_parts(0, q)
        return self._compile(specs, [prod(*twisted)] + bodies)

    @_cell_op
    def face_h(self, p, q, i):
        if i < p:
            return self._on_hopf(self.hopf.mult, i, p - 1 - i, q)
        if p > 1:
            return self._widen_h(self.face_h(1, q, 1), p - 1, q)
        specs, L, twisted, bodies = self._rotation_h_parts(1, q)
        return self._compile(specs, [prod(*twisted, L.plain(0))] + bodies)

    @_cell_op
    def degen_h(self, p, q, i):
        return self._on_hopf(self.hopf.unit, i + 1, p - i, q)

    # -- first column ------------------------------------------------------------

    @_cell_op
    def first_column(self, q):
        """The action H (x) (H (x) A^(x)(q+1)) -> H (x) A^(x)(q+1) on the
        first column."""
        specs = [("H", ("comult", 1)), ("H", ("id",))]
        specs += [("A", ("coaction", 2)) for _ in range(q + 1)]
        L = Legs(specs)
        bar1, bar2 = _coaction_bars(L, 2, q + 1)
        outs = [prod(Sinv(bar1), L.com(0, 0), bar2, L.plain(1),
                     Sinv(L.com(0, 1)))]
        outs.extend(L.coact(2 + j, 0) for j in range(q + 1))
        return self._compile(specs, outs)


class CoalgebraCocylinder(_CellOperators):
    """Cooperator families on H^(x)(p+1) (x) C^(x)(q+1) for a module coalgebra."""

    block = "C"
    family = ("coface", "codegen")
    module = CocyclicOps

    def __init__(self, module_coalgebra):
        super().__init__(module_coalgebra, coalgebra_spaces(module_coalgebra))
        self.C = module_coalgebra

    def _gblock_pairs(self, L, p):
        """The product g_0^(0) S(g_0^(2)) ... g_p^(0) S(g_p^(2)) of comult-2 legs."""
        terms = []
        for i in range(p + 1):
            terms.append(L.com(i, 0))
            terms.append(S(L.com(i, 2)))
        return prod(*terms)

    # -- vertical (C-direction, cosimplicial) family ------------------------------

    @_cell_op
    def tau_v(self, p, q):
        if q:
            return self._widen_v(self.tau_v(p, 0), q)
        specs = self._specs(p, 0, {i: ("comult", 2) for i in range(p + 1)})
        L = Legs(specs)
        outs = [L.com(i, 1) for i in range(p + 1)]
        outs.append(act(self._gblock_pairs(L, p), L.plain(p + 1)))
        return self._compile(specs, outs)

    @_cell_op
    def coface_v(self, p, q, i):
        if i <= q:
            return self._on_block(self.C.comult, p, i, q - i)
        if q:
            return self._widen_v(self.coface_v(p, 0, 1), q)
        expand = {f: ("comult", 2) for f in range(p + 1)}
        expand[p + 1] = ("comult", 1)
        specs = self._specs(p, 0, expand)
        L = Legs(specs)
        outs = [L.com(f, 1) for f in range(p + 2)]
        outs.append(act(self._gblock_pairs(L, p), L.com(p + 1, 0)))
        return self._compile(specs, outs)

    @_cell_op
    def codegen_v(self, p, q, i):
        return self._on_block(self.C.counit, p, i + 1, q - 1 - i)

    # -- horizontal (H-direction, cosimplicial) family ----------------------------

    def _diag_sinv_outputs(self, L, q):
        """Leg q+1 of the H factor of the cell (0, q), then the C-block
        acted on diagonally by Sinv(g^(0) S(g^(2))).

        The H factor carries comult legs 0..2q+2 (and more): the (0)-block
        is 0..q, leg q+1 is kept, the (2)-block is q+2..2q+2.  The j-th
        diagonal component is leg(q+2+j) . Sinv(leg(q-j)).
        """
        return [L.com(0, q + 1)] + [
            act(prod(L.com(0, q + 2 + j), Sinv(L.com(0, q - j))),
                L.plain(1 + j)) for j in range(q + 1)]

    @_cell_op
    def tau_h(self, p, q):
        if p:
            return self._widen_h(self.tau_h(0, q), p, q)
        specs = self._specs(0, q, {0: ("comult", 2 * q + 2)})
        return self._compile(specs, self._diag_sinv_outputs(Legs(specs), q))

    @_cell_op
    def coface_h(self, p, q, i):
        if i <= p:
            return self._on_hopf(self.hopf.comult, i, p - i, q)
        if p:
            return self._widen_h(self.coface_h(0, q, 1), p, q)
        specs = self._specs(0, q, {0: ("comult", 2 * q + 3)})
        L = Legs(specs)
        return self._compile(
            specs, [L.com(0, 2 * q + 3)] + self._diag_sinv_outputs(L, q))

    @_cell_op
    def codegen_h(self, p, q, i):
        return self._on_hopf(self.hopf.counit, i + 1, p - 1 - i, q)

    # -- first column ------------------------------------------------------------

    @_cell_op
    def first_column(self, q):
        """The coaction H (x) C^(x)(q+1) -> H (x) (H (x) C^(x)(q+1)) on the
        first column.

        The Hopf factor splits into 2q+5 legs: a (q+1)-leg block, one kept
        leg, another (q+1)-leg block, and two outer legs combining to
        S(leg_last).leg.
        """
        specs = [("H", ("comult", 2 * q + 4))]
        specs += [("C", ("id",)) for _ in range(q + 1)]
        L = Legs(specs)
        outs = [prod(S(L.com(0, 2 * q + 4)), L.com(0, q + 1)),
                L.com(0, 2 * q + 3)]
        for j in range(q + 1):
            outs.append(act(prod(L.com(0, q + 2 + j), Sinv(L.com(0, q - j))),
                            L.plain(1 + j)))
        return self._compile(specs, outs)


# -- identity suites ------------------------------------------------------------

def _view(cyl, axis, fixed, M):
    """The paracyclic (paracocyclic) module of `cyl` in direction `axis`
    ("v" or "h") through degrees 0..M, the other degree held at `fixed`:
    every (co)face and (co)degeneracy whose target lies in the range.
    `cyl.family` names the (co)face and (co)degeneracy families, and
    `cyl.module` is the (co)cyclic module class of each row and column."""
    cell = (lambda n: (fixed, n)) if axis == "v" else (lambda n: (n, fixed))
    maps = []
    for kind in cyl.family:
        name = "%s_%s" % (kind, axis)
        op = getattr(cyl, name)
        maps.append({(n, i): op(*cell(n), i) for n in range(M + 1)
                     if _inside(_target(name, *cell(n)), *cell(M))
                     for (i,) in _indices(name, *cell(n))})
    rotation = getattr(cyl, "tau_" + axis)
    return cyl.module(cyl.field, [cyl.space_dim(*cell(n)) for n in range(M + 1)],
                      *maps, {n: rotation(*cell(n)) for n in range(M + 1)}, M)


def _check_bi_paracyclic(cyl, P, Q, report, pairs):
    """Every column and row through `check_cyclic_ops` (a cocylinder's in
    cochain order, as `CocyclicOps`), the rotation identities, and
    `x y commute` for each ordered pair (x, y) of `pairs` on every cell
    whose targets lie in the window: x at y's target after y equals y at
    x's target after x."""
    def chk(name, p, q, lhs, rhs):
        report.record_bool(name, lhs == rhs, "cell (p=%d, q=%d)" % (p, q))

    for p in range(P + 1):
        check_cyclic_ops(_view(cyl, "v", p, Q), False, report)
    for q in range(Q + 1):
        check_cyclic_ops(_view(cyl, "h", q, P), False, report)
    for p in range(P + 1):
        for q in range(Q + 1):
            tv, th = cyl.tau_v(p, q), cyl.tau_h(p, q)
            ident = SparseMatrix.identity(cyl.field, cyl.space_dim(p, q))
            chk("tau_v tau_h = tau_h tau_v", p, q, tv @ th, th @ tv)
            pv, ph = _power(tv, q + 1), _power(th, p + 1)
            chk("tau_h^(p+1) tau_v^(q+1) = id", p, q, ph @ pv, ident)
            chk("tau_v^(q+1) tau_h^(p+1) = id", p, q, pv @ ph, ident)
            for x, y in pairs:
                xt, yt = _target(x, p, q), _target(y, p, q)
                if not (_inside(xt, P, Q) and _inside(yt, P, Q)):
                    continue
                opx, opy = getattr(cyl, x), getattr(cyl, y)
                for i in _indices(x, p, q):
                    for j in _indices(y, p, q):
                        chk("%s %s commute" % (x, y), p, q,
                            opx(*yt, *i) @ opy(p, q, *j),
                            opy(*xt, *j) @ opx(p, q, *i))
    return report


def check_algebra_cylinder(cyl: AlgebraCylinder, P, Q) -> CheckReport:
    """Full bi-paracyclic suite, commutation, and the cylindrical condition."""
    return _check_bi_paracyclic(
        cyl, P, Q, CheckReport("algebra cylinder"),
        [("face_v", "tau_h"), ("degen_v", "tau_h"), ("face_h", "tau_v"),
         ("degen_h", "tau_v"), ("face_v", "face_h"), ("degen_v", "face_h"),
         ("face_v", "degen_h"), ("degen_v", "degen_h")])


def check_coalgebra_cocylinder(
        cocyl: CoalgebraCocylinder, P, Q) -> CheckReport:
    """Full bi-paracocyclic suite, commutation, and the cocylindrical condition."""
    return _check_bi_paracyclic(
        cocyl, P, Q, CheckReport("coalgebra cocylinder"),
        [("coface_v", "tau_h"), ("codegen_v", "tau_h"), ("coface_h", "tau_v"),
         ("codegen_h", "tau_v"), ("coface_v", "coface_h"),
         ("coface_v", "codegen_h"), ("codegen_v", "coface_h"),
         ("codegen_v", "codegen_h")])


# -- diagonals --------------------------------------------------------------------

def _diagonal(cyl, N):
    """The (co)cyclic module on the diagonal cells X_{n,n}: each operator is
    the vertical one of its index at the horizontal one's target, after the
    horizontal one.  Each is built on its first read (`_OnRead`), so a mixed
    complex through N builds no degeneracy into N and no rotation at N."""
    def family(kind):
        name = kind + "_h"
        v, h = getattr(cyl, kind + "_v"), getattr(cyl, name)

        def build(key):
            n, i = key
            return v(*_target(name, n, n), i) @ h(n, n, i)
        return _OnRead(build, frozenset(
            (n, i) for n in range(N + 1) if _inside(_target(name, n, n), N, N)
            for (i,) in _indices(name, n, n)))

    return cyl.module(cyl.field, [cyl.space_dim(n, n) for n in range(N + 1)],
                      *map(family, cyl.family),
                      _OnRead(lambda n: cyl.tau_v(n, n) @ cyl.tau_h(n, n),
                              range(N + 1)), N)


def diagonal_cyclic(cyl: AlgebraCylinder, N=3) -> CyclicOps:
    """The cyclic module on the diagonal cells X_{n,n}."""
    return _diagonal(cyl, N)


def diagonal_cocyclic(cocyl: CoalgebraCocylinder, N=3) -> CocyclicOps:
    """The cocyclic module on the diagonal cells X_{n,n}."""
    return _diagonal(cocyl, N)


# -- isomorphism with the crossed product (co)cyclic module -------------------------

def phi_matrix_algebra(a, n):
    """Degree-n map (A (x) H)^(x)(n+1) -> H^(x)(n+1) (x) A^(x)(n+1).

    Slot k of the H-block receives g_k conjugated by the S-inverse of the
    level-(k+1) coaction legs of a_{k+1}, ..., a_n; the A-block keeps a_0 and
    the coaction bodies.
    """
    f = a.field
    spaces = algebra_spaces(a)
    specs = []
    for i in range(n + 1):
        specs.append(("A", ("coaction", 2 * i) if i else ("id",)))
        specs.append(("H", ("id",)))
    L = Legs(specs)

    def abar(i, b):  # coaction leg b of a_i (factor 2i)
        return L.coact(2 * i, b)

    outs = []
    for k in range(n):
        lower = [abar(i, 2 * k + 1) for i in range(k + 1, n + 1)]
        upper = [abar(i, 2 * k + 2) for i in range(k + 1, n + 1)]
        outs.append(prod(Sinv(prod(*lower)), L.plain(2 * k + 1), prod(*upper)))
    outs.append(L.plain(2 * n + 1))
    outs.append(L.plain(0))
    for i in range(1, n + 1):
        outs.append(abar(i, 0))
    return compile_operator(f, spaces, specs, outs)


def psi_matrix_algebra(a, n):
    """Degree-n map H^(x)(n+1) (x) A^(x)(n+1) -> (A (x) H)^(x)(n+1).

    Slot k of the output is (coaction body of a_k) (x) (u_k . g_k) where u_k
    is the ordered product of the level-(i-k) coaction legs of a_i, i > k,
    acting by conjugation.
    """
    f = a.field
    spaces = algebra_spaces(a)
    specs = [("H", ("id",)) for _ in range(n + 1)]
    for i in range(n + 1):
        specs.append(("A", ("coaction", 2 * i) if i else ("id",)))
    L = Legs(specs)

    def abar(i, b):
        return L.coact(n + 1 + i, b)

    outs = []
    for k in range(n + 1):
        outs.append(L.plain(n + 1) if k == 0 else abar(k, 0))
        if k == n:
            outs.append(L.plain(n))
        else:
            left = [abar(i, 2 * (i - k)) for i in range(k + 1, n + 1)]
            right = [abar(i, 2 * (i - k) - 1) for i in range(k + 1, n + 1)]
            outs.append(prod(prod(*left), L.plain(k), S(prod(*right))))
    return compile_operator(f, spaces, specs, outs)


def phi_matrix_coalgebra(c, n):
    """Degree-n map (C (x) H)^(x)(n+1) -> H^(x)(n+1) (x) C^(x)(n+1).

    H-slot k keeps the middle comultiplication leg of g_k; C-slot j > 0 is
    a_j acted on by the nested pairs g_i^(inner) S(g_i^(outer)), i < j.
    """
    f = c.field
    spaces = coalgebra_spaces(c)
    specs = []
    for i in range(n + 1):
        specs.append(("C", ("id",)))
        k = 2 * (n - i)
        specs.append(("H", ("comult", k) if k else ("id",)))
    L = Legs(specs)

    def g(i, j):
        if 2 * (n - i) == 0:
            return L.plain(2 * i + 1)
        return L.com(2 * i + 1, j)

    outs = [g(k, n - k) for k in range(n + 1)]
    outs.append(L.plain(0))
    for j in range(1, n + 1):
        terms = []
        for i in range(j):
            terms.append(g(i, j - i - 1))
            terms.append(S(g(i, 2 * (n - i) - (j - i - 1))))
        outs.append(act(prod(*terms), L.plain(2 * j)))
    return compile_operator(f, spaces, specs, outs)


def psi_matrix_coalgebra(c, n):
    """Inverse of the degree-n coalgebra-side map, the mirror of its leg
    nesting: slot k undoes the nested action with the S-inverse of symmetric
    leg pairs straddling each middle leg."""
    f = c.field
    spaces = coalgebra_spaces(c)
    specs = []
    for i in range(n + 1):
        k = 2 * (n - i)
        specs.append(("H", ("comult", k) if k else ("id",)))
    specs += [("C", ("id",))] * (n + 1)
    L = Legs(specs)

    def g(i, j):
        return L.plain(i) if n - i == 0 else L.com(i, j)

    outs = []
    for k in range(n + 1):
        if k == 0:
            outs.append(L.plain(n + 1))
        else:
            terms = []
            for i in range(k):
                m, d = n - i, k - i
                terms.append(g(i, m - d))
                terms.append(S(g(i, m + d)))
            outs.append(act(Sinv(prod(*terms)), L.plain(n + 1 + k)))
        outs.append(g(k, n - k))
    return compile_operator(f, spaces, specs, outs)


def phi_psi_algebra(a, N=3):
    """Families (phi_n, psi_n), verified mutually inverse and intertwining."""
    phi = {n: phi_matrix_algebra(a, n) for n in range(N + 1)}
    psi = {n: psi_matrix_algebra(a, n) for n in range(N + 1)}
    crossed_ops = cyclic_module_of_algebra(crossed_product_algebra(a), N)
    diag_ops = diagonal_cyclic(AlgebraCylinder(a), N)
    for n in range(N + 1):
        ident = SparseMatrix.identity(a.field, phi[n].cols)
        if psi[n] @ phi[n] != ident or phi[n] @ psi[n] != \
                SparseMatrix.identity(a.field, phi[n].rows):
            raise NotInverse("phi/psi not inverse at degree %d" % n)
    _check_intertwining(phi, crossed_ops, diag_ops)
    return phi, psi


def phi_psi_coalgebra(c, N=2):
    """Families (phi_n, psi_n), verified inverse and intertwining."""
    phi = {n: phi_matrix_coalgebra(c, n) for n in range(N + 1)}
    psi = {n: psi_matrix_coalgebra(c, n) for n in range(N + 1)}
    for n in range(N + 1):
        if psi[n] @ phi[n] != SparseMatrix.identity(c.field, phi[n].cols):
            raise NotInverse("phi/psi not inverse at degree %d" % n)
    src = cocyclic_module_of_coalgebra(crossed_product_coalgebra(c), N)
    dst = diagonal_cocyclic(CoalgebraCocylinder(c), N)
    # phi^T intertwines the transposes, from dst's to src's: checked as
    # D_dst phi = phi D_src on the cochain maps, composed in cochain order
    _check_intertwining(phi, dst, src)
    return phi, psi


def _check_intertwining(phi, src: CyclicOps, dst: CyclicOps):
    """phi must carry every face/degeneracy/cyclic operator of src to dst,
    each side composed by `dst.compose`; a failure names the operator and
    degree as dst labels them."""
    def fail(name, n, *i):
        name, n = dst.label(name, n)
        raise NotIntertwining("%s at degree %d" % (name % i, n))

    mul = dst.compose
    N = min(src.N, dst.N, max(phi))
    for n in range(N + 1):
        if mul(phi[n], src.t(n)) != mul(dst.t(n), phi[n]):
            fail("t", n)
    for n in range(1, N + 1):
        for i in range(n + 1):
            if mul(phi[n - 1], src.face(n, i)) != mul(dst.face(n, i), phi[n]):
                fail("d_%d", n, i)
    for n in range(N):
        for i in range(n + 1):
            if mul(phi[n + 1], src.degen(n, i)) != mul(dst.degen(n, i),
                                                       phi[n]):
                fail("s_%d", n, i)


# -- first-column action / coaction --------------------------------------------------

def first_column_action(a, n):
    """Action H (x) (H (x) A^(x)(n+1)) -> H (x) A^(x)(n+1) on the first
    column, as compiled by a cylinder of its own."""
    return AlgebraCylinder(a).first_column(n)


def first_column_coaction(c, n):
    """Coaction H (x) C^(x)(n+1) -> H (x) (H (x) C^(x)(n+1)) on the first
    column, as compiled by a cocylinder of its own."""
    return CoalgebraCocylinder(c).first_column(n)


def _mprod(*terms):
    """Product expression, skipping absent (None) terms; None if all absent."""
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return prod(*terms)


def _conjugated(name):
    """The operator `name` of the (co)cylinder `base` carried onto module
    form: to_module at its target cell, after it, after from_module.  It is
    memoized (`_cell_op`), so the alternating (co)boundary reuses the
    operators that check() has compared."""
    def op(self, p, q, *i):
        return self.to_module(*_target(name, p, q)) \
            @ getattr(self.base, name)(p, q, *i) @ self.from_module(p, q)
    op.__name__ = op.__qualname__ = name
    return _cell_op(op)


# -- regrouping onto Hopf-module form (algebra side) ---------------------------------

class AlgebraModuleForm(_CellOperators):
    """The cylinder conjugated onto H^(x)p (x) (H (x) A^(x)(q+1)).

    to_module / from_module are the mutually inverse regrouping maps.  The
    conjugated operators that move legs between the blocks admit closed
    forms (bar faces act through the first-column action, the rotation and
    last face conjugate through the top coaction legs of the last A factor),
    built independently and compared entrywise by check(); the regrouping
    leaves the other vertical operators as they are in the cylinder.
    """

    block = "A"

    def __init__(self, cyl: AlgebraCylinder):
        super().__init__(cyl.A, cyl.spaces)
        self.base = cyl

    @_cell_op
    def to_module(self, p, q):
        if q:
            return amplify(self.to_module(p, 0), 1, self.db ** q)
        specs = self._specs(p, 0, {i: ("comult", 1) for i in range(1, p + 1)})
        L = Legs(specs)
        outs = [L.com(i, 0) for i in range(1, p + 1)]
        outs.append(_mprod(L.plain(0), *[L.com(i, 1) for i in range(1, p + 1)]))
        outs.append(L.plain(p + 1))
        return self._compile(specs, outs)

    @_cell_op
    def from_module(self, p, q):
        if q:
            return amplify(self.from_module(p, 0), 1, self.db ** q)
        specs = self._specs(p, 0, {i: ("comult", 1) for i in range(p)})
        L = Legs(specs)
        tail = _mprod(*[L.com(i, 1) for i in range(p)])
        outs = [_mprod(L.plain(p), Sinv(tail) if tail else None)]
        outs.extend(L.com(i, 0) for i in range(p))
        outs.append(L.plain(p + 1))
        return self._compile(specs, outs)

    # -- conjugated operators --------------------------------------------------

    tau_v = _conjugated("tau_v")
    face_v = _conjugated("face_v")
    degen_v = _conjugated("degen_v")
    tau_h = _conjugated("tau_h")
    face_h = _conjugated("face_h")
    degen_h = _conjugated("degen_h")

    def boundary_h(self, p, q):
        """Conjugated horizontal boundary (the Hopf-module boundary)."""
        return self._alternating("face_h", p, q)

    # -- closed forms ------------------------------------------------------------

    def _rotation_v_parts(self, p, q):
        """Shared legs/outputs of the conjugated vertical rotation and last
        face: the last A factor's coaction tower pairs off around every bar
        factor twice (once for the bar slot, once inside the module slot) and
        frames the module product.  This is the honest expansion of the
        conjugate; the literal source display redistributes legs in a way
        that only agrees in the cocommutative case (see tests)."""
        aq = p + 1 + q
        expand = {i: ("comult", 2) for i in range(p)}
        expand[aq] = ("coaction", 4 * p + 2)
        specs = self._specs(p, q, expand)
        L = Legs(specs)
        bars = []
        mod = [L.coact(aq, 4 * p + 2), L.plain(p)]
        tails = [Sinv(_mprod(*[L.com(i, 2) for i in range(p)])),
                 S(L.coact(aq, 4 * p + 1))] if p else [S(L.coact(aq, 4 * p + 1))]
        mod.extend(t for t in tails if t is not None)
        for i in range(1, p + 1):
            top = 4 * p - 4 * (i - 1)
            bars.append(prod(L.coact(aq, top), L.com(i - 1, 0),
                             S(L.coact(aq, top - 3))))
            mod.extend([L.coact(aq, top - 1), L.com(i - 1, 1),
                        S(L.coact(aq, top - 2))])
        return specs, L, bars, _mprod(*mod), aq

    @_cell_op
    def closed_tau_v(self, p, q):
        if q:
            return self._widen_v(self.closed_tau_v(p, 0), q)
        specs, L, bars, mod, aq = self._rotation_v_parts(p, 0)
        return self._compile(specs, bars + [mod, L.coact(aq, 0)])

    @_cell_op
    def closed_last_face_v(self, p, q):
        if q > 1:
            return self._widen_v(self.closed_last_face_v(p, 1), q - 1)
        specs, L, bars, mod, aq = self._rotation_v_parts(p, 1)
        return self._compile(specs,
                             bars + [mod, prod(L.coact(aq, 0), L.plain(p + 1))])

    def closed_tau_h(self, p, q):
        """Closed form of the conjugated horizontal rotation, derived by
        expanding the regrouping maps: the leading slot combines the module
        factor's first leg with the S-inverse of the top legs of every bar
        factor, and the module slot conjugates the last bar factor through
        the coaction legs.  (The literal display for this operator in the
        source computations does not equal the conjugate; see the recorded
        counterexample in the tests.)"""
        if p == 0:
            return self.base.tau_h(0, q)
        expand = {i: ("comult", 3) for i in range(p - 1)}
        expand[p - 1] = ("comult", 2)
        expand[p] = ("comult", 1)
        expand.update({p + 1 + j: ("coaction", 2) for j in range(q + 1)})
        specs = self._specs(p, q, expand)
        L = Legs(specs)
        bar1, bar2 = _coaction_bars(L, p + 1, q + 1)
        top = [L.com(i, 3) for i in range(p - 1)] + [L.com(p - 1, 2)]
        mid = [L.com(i, 2) for i in range(p - 1)] + [L.com(p - 1, 1)]
        outs = [prod(L.com(p, 0), Sinv(_mprod(*top)))]
        outs.extend(L.com(i, 0) for i in range(p - 1))
        outs.append(_mprod(Sinv(bar1), L.com(p - 1, 0), bar2, L.com(p, 1),
                           Sinv(_mprod(*mid)),
                           *[L.com(i, 1) for i in range(p - 1)]))
        outs.extend(L.coact(p + 1 + j, 0) for j in range(q + 1))
        return self._compile(specs, outs)

    @_cell_op
    def closed_face_h(self, p, q, i):
        if i == 0:
            return self._on_hopf(self.hopf.counit, 0, p, q)
        if i < p:
            return self._on_hopf(self.hopf.mult, i - 1, p - i, q)
        # the last face is the first-column action, past the bar factors
        # before its own
        return amplify(self.first_column(q), self.dh ** (p - 1), 1)

    def closed_degen_h(self, p, q, i):
        return self._on_hopf(self.hopf.unit, i, p + 1 - i, q)

    def first_column(self, q):
        """The first-column action at degree q, the cylinder's."""
        return self.base.first_column(q)

    # -- verification --------------------------------------------------------------

    def check(self, P, Q) -> CheckReport:
        """to/from inverse, every conjugated operator vs its closed form or
        the cylinder operator it leaves alone, and the conjugated horizontal
        boundary vs the Hopf-module boundary; the first mismatch raises
        ClosedFormMismatch."""
        from .homology import hopf_module_boundary
        cyl = self.base
        rep = CheckReport("algebra module form")

        def chk(name, p, q, lhs, rhs):
            ok = lhs == rhs
            rep.record_bool(name, ok, "cell (p=%d, q=%d)" % (p, q))
            if not ok:
                raise ClosedFormMismatch("%s at (p=%d, q=%d)" % (name, p, q))

        for p in range(P + 1):
            for q in range(Q + 1):
                ident = SparseMatrix.identity(self.field, cyl.space_dim(p, q))
                chk("to . from = id", p, q,
                    self.to_module(p, q) @ self.from_module(p, q), ident)
                chk("from . to = id", p, q,
                    self.from_module(p, q) @ self.to_module(p, q), ident)
                chk("transformed tau_v", p, q,
                    self.tau_v(p, q), self.closed_tau_v(p, q))
                chk("transformed tau_h", p, q,
                    self.tau_h(p, q), self.closed_tau_h(p, q))
                for i in range(q + 1):
                    if q >= 1:
                        chk("transformed face_v %d" % i, p, q,
                            self.face_v(p, q, i),
                            self.closed_last_face_v(p, q) if i == q
                            else cyl.face_v(p, q, i))
                    chk("transformed degen_v %d" % i, p, q,
                        self.degen_v(p, q, i), cyl.degen_v(p, q, i))
                for i in range(p + 1):
                    if p >= 1:
                        chk("transformed face_h %d" % i, p, q,
                            self.face_h(p, q, i), self.closed_face_h(p, q, i))
                    chk("transformed degen_h %d" % i, p, q,
                        self.degen_h(p, q, i), self.closed_degen_h(p, q, i))
                if p >= 1:
                    delta = hopf_module_boundary(
                        cyl.A.hopf, self.first_column(q), p)
                    chk("transformed boundary_h = module boundary", p, q,
                        self.boundary_h(p, q), delta)
        return rep


# -- regrouping onto Hopf-comodule form (coalgebra side) ------------------------------

class CoalgebraModuleForm(_CellOperators):
    """The cocylinder conjugated onto H^(x)p (x) (H (x) C^(x)(q+1)).

    The regrouping leaves every vertical cooperator but the rotation and the
    last coface as it is in the cocylinder; check() compares those with the
    cocylinder's own and the others with their closed forms."""

    block = "C"

    def __init__(self, cocyl: CoalgebraCocylinder):
        super().__init__(cocyl.C, cocyl.spaces)
        self.base = cocyl

    @_cell_op
    def to_module(self, p, q):
        """Regroup by peeling the leading factor: its first leg becomes the
        module slot and S of its remaining legs left-multiplies the other
        factors diagonally (H is a module coalgebra over itself by
        multiplication, so the dot here is multiplication)."""
        if q:
            return amplify(self.to_module(p, 0), 1, self.db ** q)
        specs = self._specs(p, 0, {0: ("comult", p)})
        L = Legs(specs)
        outs = [prod(S(L.com(0, p - j)), L.plain(j + 1)) for j in range(p)]
        outs.append(L.com(0, 0))
        outs.append(L.plain(p + 1))
        return self._compile(specs, outs)

    @_cell_op
    def from_module(self, p, q):
        if q:
            return amplify(self.from_module(p, 0), 1, self.db ** q)
        specs = self._specs(p, 0, {p: ("comult", p)})
        L = Legs(specs)
        outs = [L.com(p, 0)]
        for i in range(1, p + 1):
            outs.append(prod(L.com(p, i), L.plain(i - 1)))
        outs.append(L.plain(p + 1))
        return self._compile(specs, outs)

    # -- conjugated operators ---------------------------------------------------

    tau_v = _conjugated("tau_v")
    coface_v = _conjugated("coface_v")
    codegen_v = _conjugated("codegen_v")
    tau_h = _conjugated("tau_h")
    coface_h = _conjugated("coface_h")
    codegen_h = _conjugated("codegen_h")

    def coboundary_h(self, p, q):
        return self._alternating("coface_h", p, q)

    # -- closed forms --------------------------------------------------------------

    def _module_action_pairs(self, L, gmod, gbars):
        """g^(0) gbar_1^(0) S(gbar_1^(2)) ... S(g^(2)) with comult-2 factors."""
        terms = [L.com(gmod, 0)]
        for i in gbars:
            terms.append(L.com(i, 0))
            terms.append(S(L.com(i, 2)))
        terms.append(S(L.com(gmod, 2)))
        return prod(*terms)

    @_cell_op
    def closed_tau_v(self, p, q):
        if q:
            return self._widen_v(self.closed_tau_v(p, 0), q)
        specs = self._specs(p, 0, {f: ("comult", 2) for f in range(p + 1)})
        L = Legs(specs)
        outs = [L.com(i, 1) for i in range(p + 1)]
        outs.append(act(self._module_action_pairs(L, p, range(p)),
                        L.plain(p + 1)))
        return self._compile(specs, outs)

    @_cell_op
    def closed_last_coface_v(self, p, q):
        if q:
            return self._widen_v(self.closed_last_coface_v(p, 0), q)
        expand = {f: ("comult", 2) for f in range(p + 1)}
        expand[p + 1] = ("comult", 1)
        specs = self._specs(p, 0, expand)
        L = Legs(specs)
        outs = [L.com(f, 1) for f in range(p + 2)]
        outs.append(act(self._module_action_pairs(L, p, range(p)),
                        L.com(p + 1, 0)))
        return self._compile(specs, outs)

    def first_column(self, q):
        """The first-column coaction at degree q, the cocylinder's."""
        return self.base.first_column(q)

    def closed_coface_h(self, p, q, i):
        if i == 0:
            return self._on_hopf(self.hopf.unit, 0, p + 1, q)
        if i <= p:
            return self._on_hopf(self.hopf.comult, i - 1, p + 1 - i, q)
        return amplify(self.first_column(q), self.dh ** p, 1)

    def closed_codegen_h(self, p, q, i):
        return self._on_hopf(self.hopf.counit, i, p - i, q)

    def closed_cotau_h(self, p, q):
        """The first bar factor's outer legs wrap into the two module slots,
        S of its middle block left-multiplies the remaining bar factors
        diagonally, and the module factor acts on the C-block."""
        if p == 0:
            return self.base.tau_h(0, q)
        gmod = p
        expand = {gmod: ("comult", 2 * q + 4), 0: ("comult", p)}
        specs = self._specs(p, q, expand)
        L = Legs(specs)
        lg = lambda j: L.com(gmod, j)
        outs = []
        for j in range(p - 1):  # bar slots holding g_{j+2} (factor j+1)
            outs.append(prod(S(L.com(0, p - j)), L.plain(j + 1)))
        outs.append(prod(S(prod(lg(2 * q + 4), L.com(0, 1))), lg(q + 1)))
        outs.append(prod(lg(2 * q + 3), L.com(0, 0)))
        for j in range(q + 1):
            outs.append(act(prod(lg(q + 2 + j), Sinv(lg(q - j))),
                            L.plain(p + 1 + j)))
        return self._compile(specs, outs)

    # -- verification -----------------------------------------------------------------

    def check(self, P, Q) -> CheckReport:
        from .homology import hopf_comodule_coboundary
        cocyl = self.base
        rep = CheckReport("coalgebra module form")

        def chk(name, p, q, lhs, rhs):
            ok = lhs == rhs
            rep.record_bool(name, ok, "cell (p=%d, q=%d)" % (p, q))
            if not ok:
                raise ClosedFormMismatch("%s at (p=%d, q=%d)" % (name, p, q))

        for p in range(P + 1):
            for q in range(Q + 1):
                ident = SparseMatrix.identity(self.field, cocyl.space_dim(p, q))
                chk("to . from = id", p, q,
                    self.to_module(p, q) @ self.from_module(p, q), ident)
                chk("from . to = id", p, q,
                    self.from_module(p, q) @ self.to_module(p, q), ident)
                chk("transformed tau_v", p, q,
                    self.tau_v(p, q), self.closed_tau_v(p, q))
                for i in range(q + 2):
                    chk("transformed coface_v %d" % i, p, q,
                        self.coface_v(p, q, i),
                        self.closed_last_coface_v(p, q) if i == q + 1
                        else cocyl.coface_v(p, q, i))
                for i in range(q):
                    chk("transformed codegen_v %d" % i, p, q,
                        self.codegen_v(p, q, i), cocyl.codegen_v(p, q, i))
                for i in range(p + 2):
                    chk("transformed coface_h %d" % i, p, q,
                        self.coface_h(p, q, i), self.closed_coface_h(p, q, i))
                cb = hopf_comodule_coboundary(
                    cocyl.C.hopf, self.first_column(q), p)
                chk("transformed coboundary_h = comodule coboundary", p, q,
                    self.coboundary_h(p, q), cb)
                if p >= 1:
                    chk("transformed tau_h", p, q,
                        self.tau_h(p, q), self.closed_cotau_h(p, q))
                    for i in range(p):
                        chk("transformed codegen_h %d" % i, p, q,
                            self.codegen_h(p, q, i), self.closed_codegen_h(p, q, i))
                else:
                    chk("transformed tau_h (p=0)", p, q,
                        self.tau_h(p, q), cocyl.tau_h(p, q))
        return rep


# -- coinvariants of the first column ------------------------------------------------

class QuotientPresentation:
    """A quotient V / R with projection and lift matrices.

    Quotient coordinates are the ambient coordinates away from the echelon
    pivots of R; the projection reduces a vector modulo R and reads those
    coordinates, the lift embeds them back as representatives."""

    def __init__(self, relations: Subspace):
        f = relations.field
        n = relations.ambient_dim
        self.relations = relations
        pivset = set(relations.pivots)
        self.coords = [j for j in range(n) if j not in pivset]
        pos = {j: k for k, j in enumerate(self.coords)}
        ent = {}
        for j in range(n):
            for i, v in relations.reduce({j: f.one()}).items():
                ent[(pos[i], j)] = v
        self.project = SparseMatrix(f, len(self.coords), n, ent)
        self.lift = SparseMatrix(f, n, len(self.coords),
                                 {(j, k): f.one()
                                  for k, j in enumerate(self.coords)})

    @property
    def dim(self):
        return len(self.coords)


def coinvariant_cyclic_module(a, N=2, top_faces_only=False):
    """The quotient of the first column, the cylinder's p = 0 column with
    its vertical operators, by span{h.x - counit(h) x}, with the induced
    cyclic operators.  Returns (CyclicOps, [QuotientPresentation]).

    H must pass `check_hopf`, A `check_comodule_algebra` and each degree's
    compiled first-column action `check_module`, else AxiomFailure.

    With top_faces_only, degree N carries its faces only, all that a mixed
    complex through N reads of it: no degeneracy into N and no rotation at
    N is built, and the suite checks what is built
    (`check_cyclic_ops`)."""
    check_hopf(a.hopf).require("H fails the Hopf axioms")
    check_comodule_algebra(a).require("A fails the comodule algebra axioms")
    f = a.field
    cyl = AlgebraCylinder(a)
    pres = []
    for n in range(N + 1):
        x = cyl.space_dim(0, n)
        # each degree on spaces of its own: its columns share no expression
        # with the vertical operators or the other degrees, and kept on the
        # cylinder's memo they raised the peak of S3 --nmax 3 by a sixth
        action = first_column_action(a, n)
        check_module(a.hopf, action).require(
            "the first-column action fails the module axioms")
        rel = action - amplify(a.hopf.counit, 1, x)
        pres.append(QuotientPresentation(image(rel)))

    relmats = [p.relations.basis_matrix() for p in pres]

    def induce(op, n_src, n_dst, name):
        moved = pres[n_dst].project @ op
        if not (moved @ relmats[n_src]).is_zero():
            raise NotWellDefined("%s does not preserve the relations at "
                                 "degree %d" % (name, n_src))
        return moved @ pres[n_src].lift

    dims = [p.dim for p in pres]
    top = N - 1 if top_faces_only else N
    faces = {(n, i): induce(cyl.face_v(0, n, i), n, n - 1, "face %d" % i)
             for n in range(1, N + 1) for i in range(n + 1)}
    degens = {(n, i): induce(cyl.degen_v(0, n, i), n, n + 1,
                             "degeneracy %d" % i)
              for n in range(top) for i in range(n + 1)}
    cyc = {n: induce(cyl.tau_v(0, n), n, n, "cyclic operator")
           for n in range(top + 1)}
    ops = CyclicOps(f, dims, faces, degens, cyc, N)
    rep = check_cyclic_ops(ops, cyclic=True, top_faces_only=top_faces_only)
    if not rep.ok:
        raise NotWellDefined("induced operators fail the cyclic suite: %s"
                             % rep.failures()[:3])
    return ops, pres


class SubspacePresentation:
    """A subspace W of V with inclusion matrix and coordinate solving."""

    def __init__(self, subspace: Subspace):
        self.subspace = subspace
        self.include = subspace.basis_matrix()

    @property
    def dim(self):
        return self.subspace.dim

    def restrict(self, op, target: "SubspacePresentation", name):
        """Matrix of op on subspace coordinates; NotRestricting if it leaves."""
        moved = op @ self.include
        rows = target.dim
        keyed = {}
        for k, col in moved.columns.items():
            coeffs = target.subspace.coefficients(dict(col_items(col)))
            if coeffs is None:
                raise NotRestricting("%s leaves the coinvariant subspace" % name)
            keyed.update((k * rows + i, v) for i, v in coeffs.items())
        field = self.subspace.field
        return SparseMatrix._of_columns(field, rows, self.dim,
                                        pack_columns(field, keyed, rows))


def coinvariant_cocyclic_module(c, N=2, top_faces_only=False):
    """The subspace of the first column, the cocylinder's p = 0 column with
    its vertical cooperators, where the coaction is trivial, with the
    induced cocyclic operators.  Returns (CocyclicOps, [SubspacePresentation]).

    H must pass `check_hopf`, C `check_module_coalgebra` and each degree's
    compiled first-column coaction `check_comodule`, else AxiomFailure.

    With top_faces_only, degree N carries only its cofaces from N - 1, as
    in `coinvariant_cyclic_module`: no codegeneracy out of N and no
    rotation at N."""
    check_hopf(c.hopf).require("H fails the Hopf axioms")
    check_module_coalgebra(c).require("C fails the module coalgebra axioms")
    f = c.field
    cocyl = CoalgebraCocylinder(c)
    pres = []
    for n in range(N + 1):
        x = cocyl.space_dim(0, n)
        # each degree on spaces of its own, as in coinvariant_cyclic_module
        coaction = first_column_coaction(c, n)
        check_comodule(c.hopf, coaction).require(
            "the first-column coaction fails the comodule axioms")
        insert1 = amplify(c.hopf.unit, 1, x)
        pres.append(SubspacePresentation(kernel(coaction - insert1)))

    dims = [p.dim for p in pres]
    top = N - 1 if top_faces_only else N
    cofaces = {(n, i): pres[n].restrict(cocyl.coface_v(0, n, i), pres[n + 1],
                                        "coface %d" % i)
               for n in range(N) for i in range(n + 2)}
    codegens = {(n, i): pres[n].restrict(cocyl.codegen_v(0, n, i),
                                         pres[n - 1], "codegeneracy %d" % i)
                for n in range(1, top + 1) for i in range(n)}
    cyc = {n: pres[n].restrict(cocyl.tau_v(0, n), pres[n], "cocyclic operator")
           for n in range(top + 1)}
    ops = CocyclicOps(f, dims, cofaces, codegens, cyc, N)
    rep = check_cocyclic_ops(ops, cocyclic=True, top_faces_only=top_faces_only)
    if not rep.ok:
        raise NotRestricting("induced operators fail the cocyclic suite: %s"
                             % rep.failures()[:3])
    return ops, pres
