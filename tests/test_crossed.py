"""Crossed products and standard (co)cyclic modules."""

import glob
import os

import pytest

from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    check_algebra, check_coalgebra, cyclic_group_table, group_algebra,
    regular_comodule_algebra, regular_module_coalgebra, sweedler_hopf,
    symmetric_group_table, trivial_comodule_algebra, trivial_hopf,
    trivial_module_coalgebra,
)
from hopfcyclic.crossed import (
    check_cocyclic_ops, check_cyclic_ops, cocyclic_module_of_coalgebra,
    crossed_product_algebra, crossed_product_coalgebra,
    cyclic_module_of_algebra, dual_algebra,
)
from hopfcyclic.homology import hopf_module_boundary, trivial_module_action
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix, combine
from hopfcyclic.tensor import perm_matrix

QQ = Field.rationals()
F2 = Field.prime(2)


def kc2(field=QQ):
    return group_algebra(cyclic_group_table(2), field)


def test_crossed_algebra_group_case():
    a = regular_comodule_algebra(kc2())
    r = crossed_product_algebra(a)
    assert r.dim == 4
    assert check_algebra(r).ok
    # (g x g)(g x 1) = 1 x g ; index a*2+h
    col = r.mult.column(3 * 4 + 2)
    assert col == {1: QQ.one()}


def test_crossed_algebra_unit_absorbs():
    a = regular_comodule_algebra(sweedler_hopf(QQ))
    r = crossed_product_algebra(a)
    i = SparseMatrix.identity(QQ, r.dim)
    assert r.mult @ r.unit.kron(i) == i
    assert r.mult @ i.kron(r.unit) == i


def test_crossed_algebra_trivial_coaction_is_tensor_algebra():
    h = sweedler_hopf(QQ)
    a = trivial_comodule_algebra(h, h.as_algebra())
    r = crossed_product_algebra(a)
    d = h.dim
    swap = perm_matrix(QQ, [d, d, d, d], (0, 2, 1, 3))
    tensor_mult = h.mult.kron(h.mult) @ swap
    assert r.mult == tensor_mult


def test_crossed_algebra_trivial_hopf_degenerates():
    h2 = kc2()
    triv = trivial_hopf(QQ)
    a = trivial_comodule_algebra(triv, h2.as_algebra())
    r = crossed_product_algebra(a)
    assert r.dim == 2
    assert r.mult == h2.mult and r.unit == h2.unit


def test_crossed_coalgebra_group_case():
    c = regular_module_coalgebra(kc2())
    cc = crossed_product_coalgebra(c)
    assert check_coalgebra(cc).ok
    # group-likes stay group-like: Delta(a x g) = (a x g) x (a x g)
    for idx in range(4):
        assert cc.comult.column(idx) == {idx * 4 + idx: QQ.one()}
    # counit is the tensor counit
    assert cc.counit == c.counit.kron(c.hopf.counit)


def test_crossed_coalgebra_trivial_action_is_tensor_coalgebra():
    h = sweedler_hopf(QQ)
    c = trivial_module_coalgebra(h, h.as_coalgebra())
    cc = crossed_product_coalgebra(c)
    d = h.dim
    swap = perm_matrix(QQ, [d, d, d, d], (0, 2, 1, 3))
    tensor_comult = swap @ h.comult.kron(h.comult)
    assert cc.comult == tensor_comult


def test_crossed_coalgebra_trivial_hopf_degenerates():
    h2 = kc2()
    triv = trivial_hopf(QQ)
    c = trivial_module_coalgebra(triv, h2.as_coalgebra())
    cc = crossed_product_coalgebra(c)
    assert cc.dim == 2
    assert cc.comult == h2.comult and cc.counit == h2.counit


def test_cyclic_module_ground_field():
    f = QQ
    triv = trivial_hopf(f)
    ops = cyclic_module_of_algebra(triv.as_algebra(), N=3)
    for n in range(1, 4):
        for i in range(n + 1):
            assert ops.face(n, i) == SparseMatrix.identity(f, 1)
        assert ops.t(n) == SparseMatrix.identity(f, 1)
    assert check_cyclic_ops(ops).ok


@pytest.mark.parametrize("field", [QQ, F2])
def test_cyclic_module_kc2_suite(field):
    ops = cyclic_module_of_algebra(kc2(field).as_algebra(), N=3)
    rep = check_cyclic_ops(ops)
    assert rep.ok, rep.failures()
    # d_1(g x g) = g.g = 1 (wrap face)
    assert ops.face(1, 1).column(1 * 2 + 1) == {0: field.one()}


def test_cyclic_module_s3_suite():
    ops = cyclic_module_of_algebra(
        group_algebra(symmetric_group_table(3), QQ).as_algebra(), N=2)
    assert check_cyclic_ops(ops).ok


def test_cyclic_module_sweedler_suite():
    ops = cyclic_module_of_algebra(sweedler_hopf(QQ).as_algebra(), N=3)
    assert check_cyclic_ops(ops).ok


def test_cocyclic_module_ground_field():
    triv = trivial_hopf(QQ)
    ops = cocyclic_module_of_coalgebra(triv.as_coalgebra(), N=3)
    for n in range(3):
        for i in range(n + 2):
            assert ops.coface(n, i) == SparseMatrix.identity(QQ, 1)
    assert check_cocyclic_ops(ops).ok


@pytest.mark.parametrize("make", [
    lambda: kc2().as_coalgebra(),
    lambda: sweedler_hopf(QQ).as_coalgebra(),
])
def test_cocyclic_module_suites(make):
    ops = cocyclic_module_of_coalgebra(make(), N=3)
    rep = check_cocyclic_ops(ops)
    assert rep.ok, rep.failures()


def test_cocyclic_coface_on_group_like():
    ops = cocyclic_module_of_coalgebra(kc2().as_coalgebra(), N=2)
    # del^0(a) = (a, a) for group-like a at degree 0
    assert ops.coface(0, 0).column(1) == {1 * 2 + 1: QQ.one()}
    # del^1 at degree 0 is the wrap coface; same on group-likes
    assert ops.coface(0, 1).column(1) == {1 * 2 + 1: QQ.one()}


def test_crossed_modules_over_crossed_products_pass_suites():
    r = crossed_product_algebra(regular_comodule_algebra(kc2()))
    assert check_cyclic_ops(cyclic_module_of_algebra(r, N=2)).ok
    cc = crossed_product_coalgebra(regular_module_coalgebra(kc2()))
    assert check_cocyclic_ops(cocyclic_module_of_coalgebra(cc, N=2)).ok


# -- the (co)faces against the kron / matmul expressions they are built from ---

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
CORPUS = sorted(glob.glob(os.path.join(DATA, "*.json")))


def _ident(f, n):
    return SparseMatrix.identity(f, n)


def _oracle_cyclic(r, N):
    """faces, degeneracies of the cyclic module of r as Kronecker products
    of identities and r's structure maps; the wrap face is d_0 t."""
    f, d = r.field, r.dim
    faces, degens = {}, {}
    for n in range(1, N + 1):
        for i in range(n):
            faces[(n, i)] = _ident(f, d ** i).kron(r.mult).kron(
                _ident(f, d ** (n - 1 - i)))
        faces[(n, n)] = faces[(n, 0)] @ perm_matrix(
            f, [d] * (n + 1), tuple([n] + list(range(n))))
    for n in range(N):
        for i in range(n + 1):
            degens[(n, i)] = _ident(f, d ** (i + 1)).kron(r.unit).kron(
                _ident(f, d ** (n - i)))
    return faces, degens


def _oracle_cocyclic(c, N):
    """cofaces, codegeneracies of the cocyclic module of c as Kronecker
    products; the wrap coface is tau del^0."""
    f, d = c.field, c.dim
    cofaces, codegens = {}, {}
    for n in range(N):
        for i in range(n + 1):
            cofaces[(n, i)] = _ident(f, d ** i).kron(c.comult).kron(
                _ident(f, d ** (n - i)))
        cofaces[(n, n + 1)] = perm_matrix(
            f, [d] * (n + 2), tuple(list(range(1, n + 2)) + [0])) \
            @ cofaces[(n, 0)]
    for n in range(1, N + 1):
        for i in range(n):
            codegens[(n, i)] = _ident(f, d ** (i + 1)).kron(c.counit).kron(
                _ident(f, d ** (n - 1 - i)))
    return cofaces, codegens


def _oracle_bar_boundary(h, action, p):
    """The bar boundary as the alternating sum of Kronecker products."""
    f, d, m = h.field, h.dim, action.rows
    faces = [h.counit.kron(_ident(f, d ** (p - 1) * m))]
    faces += [_ident(f, d ** (i - 1)).kron(h.mult).kron(
        _ident(f, d ** (p - 1 - i) * m)) for i in range(1, p)]
    faces.append(_ident(f, d ** (p - 1)).kron(action))
    return combine(f, d ** (p - 1) * m, d ** p * m,
                   (((-1) ** i, face) for i, face in enumerate(faces)))


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_faces_and_bar_boundary_match_kronecker_products(path):
    """At N = 3, every face, degeneracy, coface and codegeneracy of the
    (co)cyclic modules of A, C, H and, where dim^4 stays small, of the
    crossed products, and the bar boundary of C and of the ground field,
    equal the kron / matmul expressions they are written without."""
    N = 3
    doc = load_document(path)
    h = doc.hopf
    algebras = [doc.algebra.algebra, h.as_algebra()]
    coalgebras = [doc.coalgebra.coalgebra, h.as_coalgebra()]
    if (doc.algebra.dim * h.dim) ** (N + 1) <= 9 ** 4:
        algebras.append(crossed_product_algebra(doc.algebra))
    if (doc.coalgebra.dim * h.dim) ** (N + 1) <= 9 ** 4:
        coalgebras.append(crossed_product_coalgebra(doc.coalgebra))
    for r in algebras:
        ops = cyclic_module_of_algebra(r, N)
        faces, degens = _oracle_cyclic(r, N)
        assert ops.faces == faces and ops.degens == degens
    for c in coalgebras:
        ops = cocyclic_module_of_coalgebra(c, N)
        cofaces, codegens = _oracle_cocyclic(c, N)
        assert ops.cofaces == cofaces and ops.codegens == codegens
    for action in (doc.coalgebra.action, trivial_module_action(h)):
        for p in range(1, N + 1):
            assert hopf_module_boundary(h, action, p) == \
                _oracle_bar_boundary(h, action, p)


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_the_dual_algebra_has_the_transposed_cocyclic_module(path):
    """At N = 3, the cyclic module of C* = (Delta^T, counit^T) equals the
    transposed cocyclic module of C, face by face, for C, H and, where
    dim^4 stays small, the crossed product coalgebra."""
    N = 3
    doc = load_document(path)
    h = doc.hopf
    coalgebras = [doc.coalgebra.coalgebra, h.as_coalgebra()]
    if (doc.coalgebra.dim * h.dim) ** (N + 1) <= 9 ** 4:
        coalgebras.append(crossed_product_coalgebra(doc.coalgebra))
    for c in coalgebras:
        ops = cyclic_module_of_algebra(dual_algebra(c), N)
        dual = cocyclic_module_of_coalgebra(c, N).transpose()
        for n in range(N + 1):
            assert ops.dim(n) == dual.dim(n) and ops.t(n) == dual.t(n)
            for i in range(n + 1):
                if n >= 1:
                    assert ops.face(n, i) == dual.face(n, i)
                if n < N:
                    assert ops.degen(n, i) == dual.degen(n, i)
