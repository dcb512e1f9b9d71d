"""Mixed complexes, Connes' complex, Hopf-(co)module (co)homology,
integrals, homotopies."""

import functools
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import connes_oracle
import mixed_oracle
from hopfcyclic import homology
from hopfcyclic.cylinder import AlgebraCylinder
from hopfcyclic.errors import (
    BoundaryNotSquareZero, CoboundaryNotSquareZero, CompositionNotZero,
    HomotopyFailure, HopfCyclicError, MixedIdentityFailure, NotCosemisimple,
    NotSemisimple, TruncationTooShallow,
)
from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    Algebra, HopfAlgebra, cyclic_group_table, group_algebra,
    regular_comodule_algebra, regular_module_coalgebra, sweedler_hopf,
    symmetric_group_table, trivial_hopf,
)
from hopfcyclic.crossed import (
    CocyclicOps, cocyclic_module_of_coalgebra, crossed_product_algebra,
    crossed_product_coalgebra, cyclic_module_of_algebra, dual_algebra,
    normalized_faces, unit_first,
)
from hopfcyclic.homology import (
    MixedComplex, _signed_orbit_labels, b_column_dims, check_mixed_complex,
    cochain_mixed_complex, connes_dims,
    cosemisimple_homotopy_check, cyclic_dims,
    find_dual_left_integral, find_right_integral, hochschild_dims,
    hopf_comodule_cohomology, hopf_module_homology, mixed_complex,
    normalized_hochschild_dims, normalized_mixed_complex,
    semisimple_homotopy_check, total_complex_algebra, total_homology_dims,
    trivial_comodule_coaction, trivial_module_action,
)
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix, invert
from hopfcyclic.tensor import perm_matrix

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


def test_cobar_of_a_non_coassociative_comult_is_not_square_zero():
    """The cobar complex is computed as the transposed bar complex over the
    dual; its error still names the cobar degree."""
    h = kc2()
    comult = SparseMatrix(QQ, 4, 2, {(0, 0): 1, (3, 1): 1, (1, 1): 1})
    bad = HopfAlgebra(QQ, 2, h.mult, h.unit, comult, h.counit, h.antipode,
                      h.antipode_inv)
    with pytest.raises(CoboundaryNotSquareZero,
                       match="delta delta != 0 at degree 2$"):
        hopf_comodule_cohomology(bad, trivial_comodule_coaction(bad), 3)


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


def test_each_bar_boundary_and_composite_is_built_once(monkeypatch):
    """The bar homology multiplies each composite delta_(p-1) delta_p once
    (with the zero map out of degree 0: qmax + 1 products), and the
    homotopy check builds each bar boundary once (qmax + 1 of them)."""
    from hopfcyclic import homology
    h2, h = kc2(F2), kc2()
    t = find_right_integral(h)
    built = []
    boundary = homology.hopf_module_boundary
    monkeypatch.setattr(homology, "hopf_module_boundary",
                        lambda *args: built.append(args[2]) or boundary(*args))
    products = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    assert hopf_module_homology(h2, trivial_module_action(h2), 4) == [1] * 5
    assert built == [1, 2, 3, 4, 5] and len(products) == 5
    built.clear()
    semisimple_homotopy_check(h, t, trivial_module_action(h), 3)
    assert built == [1, 2, 3, 4]


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
    """Ranking each differential once must not drop the d.d = 0 check: a
    differential spoiled after construction is still caught (the total
    complex checks nothing when built, the mixed complex checks itself)."""
    mc = mixed_complex(cyclic_module_of_algebra(kc2().as_algebra(), N=4))
    mc.b[3] = _spoil(mc.b[2], mc.b[3])  # b[1] = 0: the algebra commutes
    with pytest.raises(CompositionNotZero):
        hochschild_dims(mc, 2)
    with pytest.raises(CompositionNotZero):
        cyclic_dims(mc, 2)
    fc = total_complex_algebra(
        AlgebraCylinder(regular_comodule_algebra(kc2())), N=4)
    fc.d[3] = _spoil(fc.d[2], fc.d[3])
    with pytest.raises(CompositionNotZero):
        total_homology_dims(fc, 2)
    not_an_action = SparseMatrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(BoundaryNotSquareZero):
        hopf_module_homology(kc2(), not_an_action, 2)


@functools.lru_cache(maxsize=None)
def _mixed_base(name):
    """A small mixed complex over Q (the cyclic module of kC2) and one over
    F_2 (the normalized one of the crossed product of c2_F2), N = 4."""
    if name == "kC2":
        return mixed_complex(cyclic_module_of_algebra(kc2().as_algebra(), N=4))
    doc = load_document(os.path.join(DATA, "c2_F2.json"))
    return normalized_mixed_complex(crossed_product_algebra(doc.algebra), 4)


def _outcome(run):
    """run()'s value, or the type and text of the error it raises."""
    try:
        return run()
    except HopfCyclicError as e:
        return type(e).__name__, str(e)


def _checked_dims(mc, check):
    check(mc)
    return hochschild_dims(mc, mc.N - 1), cyclic_dims(mc, mc.N - 1)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.parametrize("name", ["kC2", "c2_F2"])
def test_mixed_identities_keep_their_texts_and_precedence(name, data):
    """With up to three entries of b and B altered, the check read off the
    total composites raises what the check by one product per block
    (`mixed_oracle`) raised, the same identity at the same degree, and the
    ranks after it give the same dimensions or the same error."""
    mc = _mixed_base(name)
    f, N = mc.field, mc.N
    spoiled = {"b": {}, "B": {}}
    for kind, n, i, j, v in data.draw(st.lists(st.tuples(
            st.sampled_from("bB"), st.integers(0, N), st.integers(0, 999),
            st.integers(0, 999), st.integers(1, 3)), min_size=1, max_size=3)):
        n = max(n, 1) if kind == "b" else min(n, N - 1)
        m = spoiled[kind].get(n, getattr(mc, kind)[n])
        ent = dict(m.entries)
        ij = (i % m.rows, j % m.cols)
        ent[ij] = ent.get(ij, 0) + v
        spoiled[kind][n] = SparseMatrix(f, m.rows, m.cols, ent)
    new = mixed_oracle.unchecked(mc, spoiled["b"], spoiled["B"])
    old = mixed_oracle.unchecked(mc, spoiled["b"], spoiled["B"])
    assert _outcome(lambda: _checked_dims(new, check_mixed_complex)) \
        == _outcome(lambda: _checked_dims(
            old, mixed_oracle.check_mixed_complex))


def test_b_B_at_degree_zero_is_left_to_the_ranks():
    """b B out of degree 0 is none of the three identities: a complex that
    satisfies them but not b_1 B_0 = 0 passes the check, as before, and the
    cyclic ranks refuse it, while b alone has its homology."""
    b1 = SparseMatrix.from_rows(QQ, [[0, 1], [0, 0]])
    mc = MixedComplex(QQ, [2, 2, 1],
                      {1: b1, 2: SparseMatrix.zeros(QQ, 2, 1)},
                      {0: SparseMatrix.from_rows(QQ, [[0, 0], [0, 1]]),
                       1: SparseMatrix.zeros(QQ, 1, 2)}, 2)
    assert not (mc.b[1] @ mc.B[0]).is_zero()
    for check in (check_mixed_complex, mixed_oracle.check_mixed_complex):
        copy = mixed_oracle.unchecked(mc)
        check(copy)
        assert hochschild_dims(copy, 1) == [1, 1]
        with pytest.raises(CompositionNotZero):
            cyclic_dims(copy, 1)


# -- hh from b alone, hc from Connes' complex ----------------------------------

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def _corpus_modules(name, nmax):
    """The crossed-product (co)cyclic modules of a corpus file at N = nmax+1."""
    doc = load_document(os.path.join(DATA, name + ".json"))
    return [cyclic_module_of_algebra(crossed_product_algebra(doc.algebra),
                                     N=nmax + 1),
            cocyclic_module_of_coalgebra(
                crossed_product_coalgebra(doc.coalgebra), N=nmax + 1)]


def _mixed(ops):
    if isinstance(ops, CocyclicOps):
        return cochain_mixed_complex(ops)
    return mixed_complex(ops)


def _corpus_algebras(name):
    """The crossed product algebra of a corpus file and the dual algebra of
    its crossed product coalgebra, the algebras of `_corpus_modules`."""
    doc = load_document(os.path.join(DATA, name + ".json"))
    return [crossed_product_algebra(doc.algebra),
            dual_algebra(crossed_product_coalgebra(doc.coalgebra))]


# Every Q corpus file, both blocks, at windows that run in seconds.
@pytest.mark.parametrize("name, nmax", [
    ("ground_field_Q", 4), ("c2_Q", 5), ("c2_Q_trivial", 3), ("c3_Q", 2),
    ("c3_Q_trivial", 2), ("sweedler_Q", 1), ("sweedler_Q_trivial", 1),
    ("s3_Q", 1),
])
def test_b_column_and_connes_complex_match_the_mixed_complex(name, nmax):
    """b alone on each (co)cyclic module, and Connes' complex of its algebra
    (the dual algebra on the cochain side) and through the orbit matrices,
    against the (b, B) mixed complex of the module."""
    for ops, r in zip(_corpus_modules(name, nmax), _corpus_algebras(name)):
        mc = _mixed(ops)
        assert b_column_dims(ops, nmax) == hochschild_dims(mc, nmax)
        hc = cyclic_dims(mc, nmax)
        assert connes_dims(r, nmax) == hc
        assert connes_oracle.connes_dims(ops, nmax) == hc


def test_connes_complex_of_small_algebras():
    k = trivial_hopf(QQ).as_algebra()
    assert connes_dims(k, 4) == [1, 0, 1, 0, 1]
    ops = cyclic_module_of_algebra(k, N=5)
    assert connes_oracle.connes_dims(ops, 4) == [1, 0, 1, 0, 1]
    c = kc2().as_coalgebra()
    assert connes_dims(dual_algebra(c), 3) == [2, 0, 2, 0]
    ops = cocyclic_module_of_coalgebra(c, N=4)
    assert connes_oracle.connes_dims(ops, 3) == [2, 0, 2, 0]
    with pytest.raises(TruncationTooShallow):
        connes_oracle.connes_dims(ops, 4)
    # HC is not H(C/(1 - lambda)) over F_2
    with pytest.raises(ValueError):
        connes_dims(kc2(F2).as_algebra(), 2)
    with pytest.raises(ValueError):
        connes_oracle.connes_dims(
            cyclic_module_of_algebra(kc2(F2).as_algebra(), N=3), 2)


def test_signed_orbits_drop_the_orbits_lambda_kills():
    """On (k^2)^(x)2, lambda = -t kills e0 e0 and e1 e1 and identifies
    e0 e1 with -e1 e0; in even degree every orbit survives."""
    P, S = connes_oracle._signed_orbits(QQ, 2, 1)
    assert P.to_rows() == [[0, 1, -1, 0]]
    assert (P @ S).to_rows() == [[1]]
    P, S = connes_oracle._signed_orbits(QQ, 2, 2)
    assert P.rows == 4 and (P @ S) == SparseMatrix.identity(QQ, 4)


def test_signed_orbit_labels_drop_the_orbits_lambda_kills():
    """The same facts for the labels the package reads: e0 e0 and e1 e1
    are killed, e0 e1 is [e0 e1] and e1 e0 is -[e0 e1]; in even degree
    every orbit survives.  On every (d, n) tried the labels are the
    columns of the orbit projection P, and the least tensor of each orbit
    comes first and carries +1."""
    assert _signed_orbit_labels(2, 1) == ([None, (0, 1), (0, -1), None], 1)
    labels, count = _signed_orbit_labels(2, 2)
    assert count == 4 and None not in labels
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (2, 5)]:
        labels, count = _signed_orbit_labels(d, n)
        P, _ = connes_oracle._signed_orbits(QQ, d, n)
        assert P.rows == count
        kept = [(y, lab) for y, lab in enumerate(labels) if lab is not None]
        assert {(k, y): s for y, (k, s) in kept} == P.entries
        firsts = {}
        for y, (k, s) in kept:
            firsts.setdefault(k, s)
        assert list(firsts) == list(range(count))
        assert set(firsts.values()) <= {1}


def test_the_descent_check_catches_a_mislabelled_orbit(monkeypatch):
    """The induced b is checked against lambda on every basis tensor: with
    the sign of t e_0 (x) e_0 (x) e_1 = e_1 (x) e_0 (x) e_0, the second
    tensor of its orbit, flipped in degree 2, b fails to descend there."""
    honest = homology._signed_orbit_labels

    def spoiled(d, n):
        labels, count = honest(d, n)
        if n == 2:
            k, s = labels[d ** n]
            labels[d ** n] = (k, -s)
        return labels, count

    monkeypatch.setattr(homology, "_signed_orbit_labels", spoiled)
    with pytest.raises(MixedIdentityFailure,
                       match="b does not descend to C/\\(1 - lambda\\) at "
                             "degree 2"):
        connes_dims(_corpus_algebras("c3_Q")[0], 2)


def _rotation_replaced(ops):
    """ops with t swapping the first two factors instead of rotating."""
    d = ops.dim(0)
    cyc = ops.cocyclic if isinstance(ops, CocyclicOps) else ops.cyclic
    for n in range(2, ops.N + 1):
        cyc[n] = perm_matrix(QQ, [d] * (n + 1),
                             (1, 0) + tuple(range(2, n + 1)))
    return ops


@pytest.mark.parametrize("cochain", [False, True])
def test_connes_complex_refuses_a_t_that_is_not_the_rotation(cochain):
    ops = _corpus_modules("c3_Q", 2)[cochain]
    with pytest.raises(MixedIdentityFailure):
        connes_oracle.connes_dims(_rotation_replaced(ops), 2)


def _face_flipped(ops, n):
    """ops with the sign of one (co)face out of degree n flipped."""
    if isinstance(ops, CocyclicOps):
        ops.cofaces[(n, 1)] = -ops.cofaces[(n, 1)]
    else:
        ops.faces[(n, 1)] = -ops.faces[(n, 1)]
    return ops


@pytest.mark.parametrize("cochain", [False, True])
def test_a_flipped_face_is_caught(cochain):
    """b alone fails b b = 0; on Connes' complex the flipped face no longer
    commutes with the rotation, so the descent (invariance) check fires
    before b b is formed."""
    with pytest.raises(CompositionNotZero):
        b_column_dims(_face_flipped(_corpus_modules("c3_Q", 2)[cochain], 2),
                      2)
    with pytest.raises(MixedIdentityFailure):
        connes_oracle.connes_dims(
            _face_flipped(_corpus_modules("c3_Q", 2)[cochain], 2), 2)


def test_connes_complex_checks_that_b_squares_to_zero():
    """A non-associative product still commutes with the rotation, so b
    descends; the induced b must still fail b b = 0."""
    mult = SparseMatrix.from_rows(QQ, [
        # e0 is the unit; e1 e1 = e2, e1 e2 = e1, e2 e1 = e2 e2 = 0
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 1, 0, 0],
    ])
    unit = SparseMatrix.from_rows(QQ, [[1], [0], [0]])
    r = Algebra(QQ, 3, mult, unit, ["1", "x", "y"])
    with pytest.raises(CompositionNotZero):
        connes_dims(r, 2)
    with pytest.raises(CompositionNotZero):
        connes_oracle.connes_dims(cyclic_module_of_algebra(r, N=3), 2)


# -- the normalized complexes ----------------------------------------------------

# Every corpus file, both blocks, over Q and F_2, at windows that run in
# seconds through the unnormalized (b, B).
@pytest.mark.parametrize("name, nmax", [
    ("ground_field_Q", 4), ("c2_Q", 4), ("c2_Q_trivial", 3), ("c2_F2", 4),
    ("c2_F2_trivial", 3), ("c3_Q", 2), ("c3_Q_trivial", 2), ("sweedler_Q", 1),
    ("sweedler_Q_trivial", 1), ("s3_Q", 1),
])
def test_normalized_complex_matches_the_unnormalized_route(name, nmax):
    """hh from the normalized b and hc from the normalized (b, B) equal the
    unnormalized (b, B) of the (co)cyclic module and, over Q, Connes'
    complex."""
    for ops, r in zip(_corpus_modules(name, nmax), _corpus_algebras(name)):
        mc = _mixed(ops)
        hh, hc = hochschild_dims(mc, nmax), cyclic_dims(mc, nmax)
        assert normalized_hochschild_dims(r, nmax) == hh
        assert cyclic_dims(normalized_mixed_complex(r, nmax + 1), nmax) == hc
        if r.field.p is None:
            assert connes_dims(r, nmax) == hc
            assert connes_oracle.connes_dims(ops, nmax) == hc


def _restricted(m, rows, cols):
    """m on the coordinates listed in rows and cols, in their order."""
    rpos = {x: k for k, x in enumerate(rows)}
    cpos = {x: k for k, x in enumerate(cols)}
    return SparseMatrix(m.field, len(rows), len(cols), {
        (rpos[i], cpos[j]): v for (i, j), v in m.entries.items()
        if i in rpos and j in cpos})


def _non_degenerate(d, n):
    """The basis tensors of (k^d)^(x)(n+1) with no e_0 past the first leg."""
    return [x for x in range(d ** (n + 1))
            if all(x // d ** k % d for k in range(n))]


@pytest.mark.parametrize("name", ["ground_field_Q", "c2_Q", "c2_F2", "c3_Q",
                                  "sweedler_Q"])
def test_normalized_faces_and_B_are_the_full_ones_restricted(name):
    """Each normalized face is the full face, and the normalized B the
    full B = (1 - lambda) t s_n N, read on the non-degenerate coordinates,
    on the crossed product algebra and the dual algebra (unit moved to
    e_0) of the crossed product coalgebra."""
    N = 3 if name != "sweedler_Q" else 2
    for r in _corpus_algebras(name):
        r = unit_first(r)
        ops = cyclic_module_of_algebra(r, N)
        full, normal = mixed_complex(ops), normalized_mixed_complex(r, N)
        keep = [_non_degenerate(r.dim, n) for n in range(N + 1)]
        assert normal.dims == [len(k) for k in keep]
        for n in range(1, N + 1):
            assert normalized_faces(r, n) == [
                _restricted(ops.face(n, i), keep[n - 1], keep[n])
                for i in range(n + 1)]
        for n in range(N):
            assert normal.B[n] == _restricted(full.B[n], keep[n + 1], keep[n])


def test_unit_first_moves_the_unit_to_e0():
    """A corpus algebra's unit is e_0 already; the dual algebra of a group
    coalgebra has unit the counit, sum of the dual basis, and is moved."""
    r = crossed_product_algebra(regular_comodule_algebra(kc2()))
    assert unit_first(r) is r
    dual = dual_algebra(kc2().as_coalgebra())
    assert dual.unit.column(0) == {0: 1, 1: 1}
    moved = unit_first(dual)
    assert moved.unit.column(0) == {0: 1}
    ident = SparseMatrix.identity(QQ, 2)
    assert moved.mult @ moved.unit.kron(ident) == ident
    assert moved.mult @ ident.kron(moved.unit) == ident


@functools.lru_cache(maxsize=None)
def _normalized_dims(name, side, nmax):
    r = _corpus_algebras(name)[side]
    return (normalized_hochschild_dims(r, nmax),
            cyclic_dims(normalized_mixed_complex(r, nmax + 1), nmax))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.parametrize("name, nmax", [
    ("c2_Q", 3), ("c2_F2", 3), ("c3_Q", 1), ("sweedler_Q", 1),
])
@pytest.mark.parametrize("side", [0, 1], ids=["algebra", "coalgebra"])
def test_a_unit_off_the_basis_gives_the_same_dims(name, nmax, side, data):
    """The algebra in a random basis, a permutation of a lower
    unitriangular one, where its unit is no basis vector and its first
    nonzero coordinate may be any, has the same normalized hh and hc."""
    r = _corpus_algebras(name)[side]
    f, d = r.field, r.dim
    perm = data.draw(st.permutations(range(d)))
    lower = data.draw(st.dictionaries(
        st.tuples(st.integers(1, d - 1), st.integers(0, d - 2))
        .filter(lambda ij: ij[1] < ij[0]),
        st.integers(-2, 2), max_size=d))
    entries = {(i, i): 1 for i in range(d)}
    entries.update({ij: f.of(v) for ij, v in lower.items()})
    basis = SparseMatrix(f, d, d, {(perm[i], i): 1 for i in range(d)}) \
        @ SparseMatrix(f, d, d, entries)
    inv = invert(basis)
    conj = Algebra(f, d, inv @ r.mult @ basis.kron(basis), inv @ r.unit)
    unit = conj.unit.column(0)
    assume(len(unit) > 1 or 0 not in unit)
    assert (normalized_hochschild_dims(conj, nmax),
            cyclic_dims(normalized_mixed_complex(conj, nmax + 1), nmax)) \
        == _normalized_dims(name, side, nmax)


def _kc2xc2(field):
    return group_algebra([[i ^ j for j in range(4)] for i in range(4)], field)


_SMALL_Q_ALGEBRAS = {
    "kC2": lambda: kc2().as_algebra(),
    "kC3": lambda: group_algebra(cyclic_group_table(3), QQ).as_algebra(),
    "kC2xC2": lambda: _kc2xc2(QQ).as_algebra(),
    "sweedler": lambda: sweedler_hopf(QQ).as_algebra(),
}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
@pytest.mark.parametrize("name, nmax", [
    ("kC2", 3), ("kC3", 2), ("kC2xC2", 2), ("sweedler", 2),
])
def test_connes_complex_matches_the_orbit_matrices_and_the_mixed_complex(
        name, nmax, data):
    """In a random invertible integer basis, whose inverse brings Fraction
    structure constants and a unit that is not e_0, Connes' complex of the
    algebra has the cyclic homology of the orbit-matrix route on its cyclic
    module and of the normalized (b, B) total complex."""
    r = _SMALL_Q_ALGEBRAS[name]()
    d = r.dim
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                       max_size=d), min_size=d, max_size=d))
    basis = SparseMatrix.from_rows(QQ, rows)
    inv = invert(basis)
    assume(inv is not None)
    conj = Algebra(QQ, d, inv @ r.mult @ basis.kron(basis), inv @ r.unit)
    assume(conj.unit.column(0) != {0: 1})
    assume(any(v.__class__ is not int for v in conj.mult.entries.values()))
    hc = connes_dims(conj, nmax)
    assert hc == connes_oracle.connes_dims(
        cyclic_module_of_algebra(conj, N=nmax + 1), nmax)
    assert hc == cyclic_dims(normalized_mixed_complex(conj, nmax + 1), nmax)
