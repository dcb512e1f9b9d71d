"""Mixed complexes, Hopf-(co)module (co)homology, integrals, homotopies."""

import pytest

from hopfcyclic.cylinder import AlgebraCylinder
from hopfcyclic.errors import (
    BoundaryNotSquareZero, CompositionNotZero, HomotopyFailure,
    MixedIdentityFailure, NotCosemisimple, NotSemisimple, TruncationTooShallow,
)
from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    cyclic_group_table, group_algebra, regular_comodule_algebra,
    regular_module_coalgebra, sweedler_hopf, symmetric_group_table,
    trivial_hopf,
)
from hopfcyclic.crossed import (
    cocyclic_module_of_coalgebra, crossed_product_algebra,
    crossed_product_coalgebra, cyclic_module_of_algebra,
)
from hopfcyclic.homology import (
    cochain_mixed_complex, cosemisimple_homotopy_check, cyclic_dims,
    find_dual_left_integral, find_right_integral, hochschild_dims,
    hopf_comodule_cohomology, hopf_module_homology, mixed_complex,
    semisimple_homotopy_check, total_complex_algebra, total_homology_dims,
    trivial_comodule_coaction, trivial_module_action,
)
from hopfcyclic.linalg import SparseMatrix

QQ = Field.rationals()
F2 = Field.prime(2)


def kc2(field=QQ):
    return group_algebra(cyclic_group_table(2), field)


def test_ground_field_mixed_complex():
    mc = mixed_complex(cyclic_module_of_algebra(
        trivial_hopf(QQ).as_algebra(), N=4))
    assert hochschild_dims(mc, 3) == [1, 0, 0, 0]
    assert cyclic_dims(mc, 3) == [1, 0, 1, 0]


def test_ground_field_cochain_mixed_complex():
    mc = cochain_mixed_complex(cocyclic_module_of_coalgebra(
        trivial_hopf(QQ).as_coalgebra(), N=4))
    assert hochschild_dims(mc, 3) == [1, 0, 0, 0]
    assert cyclic_dims(mc, 3) == [1, 0, 1, 0]


@pytest.mark.parametrize("field,hh", [
    (QQ, [2, 0, 0, 0]),
    (F2, [2, 2, 2, 2]),
])
def test_kc2_hochschild(field, hh):
    mc = mixed_complex(cyclic_module_of_algebra(kc2(field).as_algebra(), N=4))
    assert hochschild_dims(mc, 3) == hh


def test_kc2_cyclic_dims():
    mc = mixed_complex(cyclic_module_of_algebra(kc2().as_algebra(), N=4))
    assert cyclic_dims(mc, 3) == [2, 0, 2, 0]


def test_trivial_hopf_crossed_product_same_hc():
    from hopfcyclic.hopf import trivial_comodule_algebra
    h = kc2()
    a = trivial_comodule_algebra(trivial_hopf(QQ), h.as_algebra())
    r = crossed_product_algebra(a)
    mc_r = mixed_complex(cyclic_module_of_algebra(r, N=3))
    mc_a = mixed_complex(cyclic_module_of_algebra(h.as_algebra(), N=3))
    assert cyclic_dims(mc_r, 2) == cyclic_dims(mc_a, 2)


def test_mixed_identities_hold_for_shipped_modules():
    for alg in [kc2().as_algebra(), kc2(F2).as_algebra(),
                group_algebra(cyclic_group_table(3), QQ).as_algebra(),
                sweedler_hopf(QQ).as_algebra()]:
        mixed_complex(cyclic_module_of_algebra(alg, N=3))  # raises on failure
    for coalg in [kc2().as_coalgebra(), sweedler_hopf(QQ).as_coalgebra()]:
        cochain_mixed_complex(cocyclic_module_of_coalgebra(coalg, N=3))


def test_truncation_guard():
    mc = mixed_complex(cyclic_module_of_algebra(kc2().as_algebra(), N=2))
    with pytest.raises(TruncationTooShallow):
        hochschild_dims(mc, 2)
    with pytest.raises(TruncationTooShallow):
        cyclic_dims(mc, 2)


def test_group_homology_cross_check():
    assert hopf_module_homology(kc2(), trivial_module_action(kc2()), 3) \
        == [1, 0, 0, 0]
    h2 = kc2(F2)
    assert hopf_module_homology(h2, trivial_module_action(h2), 3) \
        == [1, 1, 1, 1]
    triv = trivial_hopf(QQ)
    assert hopf_module_homology(triv, trivial_module_action(triv), 2) \
        == [1, 0, 0]


def test_comodule_cohomology():
    h = kc2()
    assert hopf_comodule_cohomology(h, trivial_comodule_coaction(h), 3) \
        == [1, 0, 0, 0]
    h2 = kc2(F2)  # group algebras are cosemisimple over any field
    assert hopf_comodule_cohomology(h2, trivial_comodule_coaction(h2), 3) \
        == [1, 0, 0, 0]
    triv = trivial_hopf(QQ)
    assert hopf_comodule_cohomology(triv, trivial_comodule_coaction(triv), 2) \
        == [1, 0, 0]
    # not cosemisimple: dims are whatever the ranks give; just compute them
    h4 = sweedler_hopf(QQ)
    dims = hopf_comodule_cohomology(h4, trivial_comodule_coaction(h4), 2)
    assert dims[0] == 1 and any(d != 0 for d in dims[1:])


def test_right_integral():
    t = find_right_integral(kc2())
    assert t == {0: QQ.parse("1/2"), 1: QQ.parse("1/2")}
    assert find_right_integral(trivial_hopf(QQ)) == {0: QQ.one()}
    with pytest.raises(NotSemisimple):
        find_right_integral(kc2(F2))
    with pytest.raises(NotSemisimple):
        find_right_integral(sweedler_hopf(QQ))


def test_dual_left_integral():
    # the dual-basis functional at the group identity
    assert find_dual_left_integral(kc2()) == {0: QQ.one()}
    s3 = group_algebra(symmetric_group_table(3), QQ)
    x = find_dual_left_integral(s3)
    assert x == {0: QQ.one()}
    assert find_dual_left_integral(trivial_hopf(QQ)) == {0: QQ.one()}
    with pytest.raises(NotCosemisimple):
        find_dual_left_integral(sweedler_hopf(QQ))


def test_semisimple_homotopy():
    h = kc2()
    t = find_right_integral(h)
    rep = semisimple_homotopy_check(h, t, trivial_module_action(h), 3)
    assert all(ok for _, ok in rep)
    # corrupted integral: counit 0
    bad = {0: QQ.one(), 1: QQ.of(-1)}
    with pytest.raises(HomotopyFailure):
        semisimple_homotopy_check(h, bad, trivial_module_action(h), 2)


def test_cosemisimple_homotopy():
    h = kc2()
    x = find_dual_left_integral(h)
    rep = cosemisimple_homotopy_check(h, x, trivial_comodule_coaction(h), 3)
    assert all(ok for _, ok in rep)
    bad = {0: QQ.one(), 1: QQ.one()}
    with pytest.raises(HomotopyFailure):
        cosemisimple_homotopy_check(h, bad, trivial_comodule_coaction(h), 2)


def test_homotopy_matches_vanishing():
    """Where the homotopy identity holds, positive-degree homology vanishes."""
    h = kc2()
    t = find_right_integral(h)
    semisimple_homotopy_check(h, t, trivial_module_action(h), 3)
    assert hopf_module_homology(h, trivial_module_action(h), 3)[1:] == [0, 0, 0]
    x = find_dual_left_integral(h)
    cosemisimple_homotopy_check(h, x, trivial_comodule_coaction(h), 3)
    assert hopf_comodule_cohomology(h, trivial_comodule_coaction(h), 3)[1:] \
        == [0, 0, 0]


def test_s3_group_homology_rational():
    s3 = group_algebra(symmetric_group_table(3), QQ)
    assert hopf_module_homology(s3, trivial_module_action(s3), 2) == [1, 0, 0]


def _spoil(d_out, d_in):
    """d_in with one entry changed so that d_out . d_in != 0."""
    f = d_in.field
    i = min(k for (_, k) in d_out.entries)  # a nonzero column of d_out
    ent = dict(d_in.entries)
    ent[(i, 0)] = f.add(d_in[(i, 0)], f.one())
    spoiled = SparseMatrix(f, d_in.rows, d_in.cols, ent)
    assert not (d_out @ spoiled).is_zero()
    return spoiled


def test_dims_still_check_composites_when_construction_did_not():
    """Ranking each differential once must not drop the d.d = 0 check."""
    mc = mixed_complex(cyclic_module_of_algebra(kc2().as_algebra(), N=4),
                       check=False)
    mc.b[3] = _spoil(mc.b[2], mc.b[3])  # b[1] = 0: the algebra commutes
    with pytest.raises(CompositionNotZero):
        hochschild_dims(mc, 2)
    with pytest.raises(CompositionNotZero):
        cyclic_dims(mc, 2)
    fc = total_complex_algebra(
        AlgebraCylinder(regular_comodule_algebra(kc2())), N=4, check=False)
    fc.d[3] = _spoil(fc.d[2], fc.d[3])
    with pytest.raises(CompositionNotZero):
        total_homology_dims(fc, 2)
    not_an_action = SparseMatrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(BoundaryNotSquareZero):
        hopf_module_homology(kc2(), not_an_action, 2)
