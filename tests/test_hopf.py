"""Hopf algebra builders and exhaustive axiom suites."""

import pytest

from hopfcyclic.errors import CharTwo, NotAGroup, Singular
from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    CheckReport, HopfAlgebra, antipode_inverse, check_comodule_algebra, check_hopf,
    check_module_coalgebra, cyclic_group_table, group_algebra,
    regular_comodule_algebra, regular_module_coalgebra, space_ops,
    sweedler_hopf, symmetric_group_table, trivial_comodule_algebra,
    trivial_hopf, trivial_module_coalgebra,
)
from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.tensor import Legs, Spaces, compile_operator

QQ = Field.rationals()
F2 = Field.prime(2)


def test_trivial_group_algebra():
    h = trivial_hopf(QQ)
    assert h.dim == 1
    assert check_hopf(h).ok


@pytest.mark.parametrize("field", [QQ, F2])
def test_c2_axioms(field):
    h = group_algebra(cyclic_group_table(2), field)
    rep = check_hopf(h)
    assert rep.ok, rep.failures()
    # each element self-inverse: S = id
    assert h.antipode == SparseMatrix.identity(field, 2)


def test_s3_axioms():
    h = group_algebra(symmetric_group_table(3), QQ)
    assert h.dim == 6
    assert check_hopf(h).ok
    # antipode permutes basis to inverses; it is an involution for groups
    assert h.antipode @ h.antipode == SparseMatrix.identity(QQ, 6)


def test_sweedler_axioms_and_antipode_order():
    h = sweedler_hopf(QQ)
    rep = check_hopf(h)
    assert rep.ok, rep.failures()
    s2 = h.antipode @ h.antipode
    assert s2 != SparseMatrix.identity(QQ, 4)
    assert s2 @ s2 == SparseMatrix.identity(QQ, 4)
    assert h.antipode_inv == s2 @ h.antipode  # S^-1 = S^3


def test_sweedler_char_two_rejected():
    with pytest.raises(CharTwo):
        sweedler_hopf(F2)


def test_corrupted_antipode_reported():
    h = sweedler_hopf(QQ)
    bad = HopfAlgebra(QQ, 4, h.mult, h.unit, h.comult, h.counit,
                      SparseMatrix.identity(QQ, 4))
    rep = check_hopf(bad)
    assert not rep.ok
    names = [name for name, ok, _ in rep.entries if not ok]
    assert any("antipode" in n for n in names)
    # all other axiom families still pass
    assert all("antipode" in n for n in names)


def test_not_a_group():
    with pytest.raises(NotAGroup):
        group_algebra([[0, 1], [1, 1]], QQ)
    with pytest.raises(NotAGroup):
        group_algebra([[1, 0], [1, 0]], QQ)


def test_antipode_inverse():
    assert antipode_inverse(SparseMatrix.identity(QQ, 3)) == \
        SparseMatrix.identity(QQ, 3)
    h = sweedler_hopf(QQ)
    s3 = h.antipode @ h.antipode @ h.antipode
    assert antipode_inverse(h.antipode) == s3
    with pytest.raises(Singular):
        antipode_inverse(SparseMatrix.zeros(QQ, 2, 2))


@pytest.mark.parametrize("make", [
    lambda: group_algebra(cyclic_group_table(2), QQ),
    lambda: group_algebra(cyclic_group_table(3), QQ),
    lambda: sweedler_hopf(QQ),
])
def test_regular_and_trivial_comodule_algebra(make):
    h = make()
    assert check_comodule_algebra(regular_comodule_algebra(h)).ok
    assert check_comodule_algebra(trivial_comodule_algebra(h)).ok
    assert check_comodule_algebra(
        trivial_comodule_algebra(h, h.as_algebra())).ok


def test_corrupted_coaction_fails():
    h = group_algebra(cyclic_group_table(2), QQ)
    a = regular_comodule_algebra(h)
    # twist the coaction by a non-algebra map: swap the two H legs of alpha(g)
    twisted = a.coaction + SparseMatrix(QQ, 4, 2, {(1 * 2 + 0, 1): QQ.one(),
                                                   (1 * 2 + 1, 1): QQ.of(-1)})
    from hopfcyclic.hopf import ComoduleAlgebra
    bad = ComoduleAlgebra(h, h.as_algebra(), twisted)
    assert not check_comodule_algebra(bad).ok


@pytest.mark.parametrize("make", [
    lambda: group_algebra(cyclic_group_table(2), QQ),
    lambda: sweedler_hopf(QQ),
])
def test_regular_and_trivial_module_coalgebra(make):
    h = make()
    assert check_module_coalgebra(regular_module_coalgebra(h)).ok
    assert check_module_coalgebra(trivial_module_coalgebra(h)).ok
    assert check_module_coalgebra(
        trivial_module_coalgebra(h, h.as_coalgebra())).ok


def test_corrupted_action_fails():
    from hopfcyclic.hopf import ModuleCoalgebra
    h = group_algebra(cyclic_group_table(2), QQ)
    c = regular_module_coalgebra(h)
    bad_action = c.action + SparseMatrix(QQ, 2, 4, {(0, 3): QQ.one(),
                                                    (1, 3): QQ.of(-1)})
    bad = ModuleCoalgebra(h, h.as_coalgebra(), bad_action)
    assert not check_module_coalgebra(bad).ok


def _iterated_comult(h, k):
    """H -> H^(x)(k+1), compiled from the expansion ("comult", k) of one
    H factor into its k + 1 Sweedler legs."""
    specs = [("H", ("comult", k))]
    L = Legs(specs)
    return compile_operator(h.field, Spaces({"H": space_ops(h)}), specs,
                            [L.com(0, j) for j in range(k + 1)])


def test_iterate_comult_small_cases():
    h = group_algebra(cyclic_group_table(2), QQ)
    assert _iterated_comult(h, 0) == SparseMatrix.identity(QQ, 2)
    assert _iterated_comult(h, 1) == h.comult
    d2 = _iterated_comult(h, 2)
    # group-like g = basis 1: lands on (g, g, g)
    assert d2.column(1) == {1 * 4 + 1 * 2 + 1: QQ.one()}


@pytest.mark.parametrize("make", [
    lambda: group_algebra(symmetric_group_table(3), QQ),
    lambda: sweedler_hopf(QQ),
])
@pytest.mark.parametrize("k", [2, 3])
def test_iterate_comult_association_free(make, k):
    h = make()
    right = _iterated_comult(h, k)
    # left-associated build: expand the FIRST factor each step
    left = SparseMatrix.identity(h.field, h.dim)
    for j in range(k):
        left = h.comult.kron(SparseMatrix.identity(h.field, h.dim ** j)) @ left
    assert left == right


def test_check_report_compares_whole_matrices():
    """A record compares shapes as well as nonzeros: the 2 x 2 identity
    against the 2 x 3 matrix with the same nonzeros is a failure that names
    both shapes, not a pass."""
    rep = CheckReport("shapes")
    wide = SparseMatrix(QQ, 2, 3, {(0, 0): 1, (1, 1): 1})
    rep.record("square vs wide", SparseMatrix.identity(QQ, 2), wide, [2])
    assert not rep.ok
    assert rep.failures() == [("square vs wide", False,
                               "shape 2x2 against 2x3")]
    rep = CheckReport("values")
    rep.record("equal", wide, SparseMatrix(QQ, 2, 3, {(1, 1): 1, (0, 0): 1}),
               [3])
    rep.record("unequal", wide, SparseMatrix(QQ, 2, 3, {(0, 0): 1, (1, 2): 1}),
               [3])
    assert rep.entries == [
        ("equal", True, None),
        ("unequal", False, "first failure at input basis (1,)")]
