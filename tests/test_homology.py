"""Mixed complexes, the normalized complex against Connes' complex,
Hopf-(co)module (co)homology, integrals, homotopies."""

import functools
import os
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import connes_oracle
import mixed_oracle
from hopfcyclic import cli, homology, linalg
from hopfcyclic.corpus import corpus_documents
from hopfcyclic.cylinder import (
    AlgebraCylinder, first_column_action, first_column_coaction,
)
from hopfcyclic.errors import (
    AxiomFailure, BoundaryNotSquareZero, CoboundaryNotSquareZero, CompositionNotZero,
    HomotopyFailure, HopfCyclicError, MixedIdentityFailure, NotCosemisimple,
    NotSemisimple, TruncationTooShallow,
)
from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    Algebra, HopfAlgebra, cyclic_group_table, dual_hopf, group_algebra,
    regular_comodule_algebra, regular_module_coalgebra, sweedler_hopf,
    symmetric_group_table, trivial_hopf,
)
from hopfcyclic.crossed import (
    CocyclicOps, cocyclic_module_of_coalgebra, crossed_product_algebra,
    crossed_product_coalgebra, cyclic_module_of_algebra, dual_algebra,
    unit_first,
)
from hopfcyclic.homology import (
    MixedComplex, b_column_dims, check_mixed_complex, cochain_mixed_complex,
    cosemisimple_homotopy_check, cyclic_dims,
    find_dual_left_integral, find_right_integral, hochschild_dims,
    hopf_comodule_cohomology, hopf_module_homology, mixed_complex,
    normalized_hochschild_dims, normalized_mixed_complex, semisimple_hh0,
    semisimple_homotopy_check, total_complex_algebra, total_homology_dims,
    trivial_comodule_coaction, trivial_module_action,
)
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix, invert
from hopfcyclic.tensor import perm_matrix

QQ = Field.rationals()
F2 = Field.prime(2)
DATA = os.path.join(os.path.dirname(__file__), "..", "data")


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
    """A non-coassociative comultiplication is refused by H's Hopf axioms,
    checked on H itself before the cobar complex is computed as the
    transposed bar complex over the dual."""
    h = kc2()
    comult = SparseMatrix(QQ, 4, 2, {(0, 0): 1, (3, 1): 1, (1, 1): 1})
    bad = HopfAlgebra(QQ, 2, h.mult, h.unit, comult, h.counit, h.antipode,
                      h.antipode_inv)
    with pytest.raises(AxiomFailure,
                       match="^H fails the Hopf axioms: coassociativity, "):
        hopf_comodule_cohomology(bad, trivial_comodule_coaction(bad), 3)


@pytest.mark.parametrize("p", [2, 3])
def test_a_spoiled_normalized_boundary_is_named_at_its_degree(p,
                                                              monkeypatch):
    """The normalized composites are checked as each boundary is built: a
    bar boundary spoiled at degree p, on an H and a (co)action that pass
    their suites, is BoundaryNotSquareZero(p) on the bar side and
    CoboundaryNotSquareZero(p - 1) on the cobar side, whose bar degree p
    is cobar degree p - 1."""
    honest = homology._bar_boundary

    def spoiled(pieces, q):
        d = honest(pieces, q)
        return _spoil(honest(pieces, q - 1), d) if q == p else d

    monkeypatch.setattr(homology, "_bar_boundary", spoiled)
    h = kc2()  # the regular (co)module, whose boundaries are nonzero
    with pytest.raises(BoundaryNotSquareZero) as bar:
        hopf_module_homology(h, h.mult, 3)
    assert bar.value.degree == p
    with pytest.raises(CoboundaryNotSquareZero) as cobar:
        hopf_comodule_cohomology(h, h.comult, 3)
    assert cobar.value.degree == p - 1


@pytest.mark.parametrize("bad, library, trivial", [
    ("counit", hopf_module_homology, trivial_module_action),
    ("unit", hopf_comodule_cohomology, trivial_comodule_coaction),
], ids=["bar", "cobar"])
def test_the_library_refuses_an_h_that_is_no_hopf_algebra(bad, library,
                                                          trivial):
    """The (co)bar homology of the library, not only the CLI, checks H's
    Hopf axioms, with the CLI's text: Sweedler with eps(g) = -1, or with
    H's unit set to g, is refused naming the failed axioms."""
    h = load_document(os.path.join(
        DATA, "..", "tests", "sweedler_Q_bad_%s.json" % bad)).hopf
    with pytest.raises(AxiomFailure) as e:
        library(h, trivial(h), 3)
    assert str(e.value) == ("H fails the Hopf axioms: left %s, right %s, "
                            "antipode left, antipode right" % (bad, bad))


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
    """The bar homology builds each normalized boundary once and multiplies
    each composite delta_(p-1) delta_p once (with the zero map out of
    degree 0: qmax + 1 products) and builds no full boundary, and the
    homotopy check builds each full bar boundary once (qmax + 1 of
    them).  Both kinds go through the one builder, told apart by the
    dimension of their H legs: 2 on the full chains, 1 on the normalized."""
    from hopfcyclic import homology
    h2, h = kc2(F2), kc2()
    t = find_right_integral(h)
    built, normal, made = [], [], []
    builder = homology._bar_boundary

    def spy(pieces, p):
        out = builder(pieces, p)
        if pieces[3] == h.dim:
            built.append(p)
        else:
            normal.append(p)
            made.append(out)
        return out

    monkeypatch.setattr(homology, "_bar_boundary", spy)
    composites = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: (
        composites.append(1) if any(b is m for m in made) else None)
        or matmul(a, b))
    assert hopf_module_homology(h2, trivial_module_action(h2), 4) == [1] * 5
    assert normal == [1, 2, 3, 4, 5] and len(composites) == 5
    assert built == []
    semisimple_homotopy_check(h, t, trivial_module_action(h), 3)
    assert built == [1, 2, 3, 4]


def _full_bar_dims(h, action, qmax):
    """The bar homology ranked on the full complex H^(x)p (x) M, the route
    the normalized one replaced: the oracle."""
    return linalg._homology_dims(homology._degree_pairs(
        h.field, action.rows,
        lambda p: homology.hopf_module_boundary(h, action, p), qmax))


def _full_cobar_dims(h, coaction, pmax):
    return _full_bar_dims(dual_hopf(h), coaction.transpose(), pmax)


# the top (co)bar degree per dimension of H: the full oracle stays small
_BAR_TOP = {1: 6, 2: 8, 3: 5, 4: 4, 6: 3}


@pytest.mark.parametrize("name", sorted(
    n[:-5] for n in os.listdir(DATA)))
def test_normalized_bar_and_cobar_equal_the_full_route(name):
    """On every corpus file the normalized bar and cobar homology equal the
    full complexes' ranks: with the trivial (co)action through the top
    degree of _BAR_TOP, and with the first-column (co)action of each block
    at degree 0 through degree 2 (1 on S3)."""
    doc = load_document(os.path.join(DATA, name + ".json"))
    h = doc.hopf
    top = _BAR_TOP[h.dim]
    assert hopf_module_homology(h, trivial_module_action(h), top) \
        == _full_bar_dims(h, trivial_module_action(h), top)
    assert hopf_comodule_cohomology(h, trivial_comodule_coaction(h), top) \
        == _full_cobar_dims(h, trivial_comodule_coaction(h), top)
    top = 2 if h.dim <= 4 else 1
    action = first_column_action(doc.algebra, 0)
    assert hopf_module_homology(h, action, top) \
        == _full_bar_dims(h, action, top)
    coaction = first_column_coaction(doc.coalgebra, 0)
    assert hopf_comodule_cohomology(h, coaction, top) \
        == _full_cobar_dims(h, coaction, top)


@pytest.mark.parametrize("name, top", [
    ("s3_Q", 5), ("c2_F2", 15), ("sweedler_Q", 6),
])
def test_bar_reports_at_scale_match_the_full_route(name, top, monkeypatch,
                                                    capsys):
    """`compute hopf-homology --qmax top` and `comodule-cohomology --pmax
    top` at the scale points of the (co)bar gate, byte for byte against
    the reports recorded when the full bar complex was ranked
    (tests/goldens)."""
    monkeypatch.chdir(os.path.join(DATA, ".."))
    for target, flag, golden in (
            ("hopf-homology", "--qmax", "hopf_homology_%s_q%d"),
            ("comodule-cohomology", "--pmax", "comodule_cohomology_%s_p%d")):
        code = cli.main(["compute", target, "-i", "data/%s.json" % name,
                         flag, str(top)])
        with open(os.path.join("tests", "goldens",
                               golden % (name, top) + ".json")) as fh:
            assert code == 0 and capsys.readouterr().out == fh.read()


def _random_basis(data, f, d):
    """A random basis of k^d as the columns of a matrix: a permutation of a
    lower unitriangular one, so the first nonzero coordinate of a vector
    may move anywhere."""
    perm = data.draw(st.permutations(range(d)))
    lower = data.draw(st.dictionaries(
        st.tuples(st.integers(1, d - 1), st.integers(0, d - 2))
        .filter(lambda ij: ij[1] < ij[0]),
        st.integers(-2, 2), max_size=d))
    entries = {(i, i): 1 for i in range(d)}
    entries.update({ij: f.of(v) for ij, v in lower.items()})
    return SparseMatrix(f, d, d, {(perm[i], i): 1 for i in range(d)}) \
        @ SparseMatrix(f, d, d, entries)


def _hopf_in_basis(h, basis):
    """h with every structure map written in the basis whose vectors are
    the columns of `basis`."""
    inv = invert(basis)
    return HopfAlgebra(h.field, h.dim, inv @ h.mult @ basis.kron(basis),
                       inv @ h.unit, inv.kron(inv) @ h.comult @ basis,
                       h.counit @ basis, inv @ h.antipode @ basis,
                       inv @ h.antipode_inv @ basis)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.parametrize("name, top", [
    ("c2_Q", 6), ("c2_F2", 6), ("c3_Q", 4), ("sweedler_Q", 3), ("s3_Q", 2),
])
def test_bar_and_cobar_with_the_unit_and_counit_off_e0(name, top, data):
    """H in a random basis, a permutation of a lower unitriangular one,
    where neither its unit nor its counit is the first (dual) basis vector:
    the bar and cobar homology with the trivial (co)action are those of H
    in its own basis, by the full route."""
    h = load_document(os.path.join(DATA, name + ".json")).hopf
    conj = _hopf_in_basis(h, _random_basis(data, h.field, h.dim))
    assume(conj.unit.column(0) != {0: 1})
    assume(conj.counit.transpose().column(0) != {0: 1})
    assert hopf_module_homology(conj, trivial_module_action(conj), top) \
        == _full_bar_dims(h, trivial_module_action(h), top)
    assert hopf_comodule_cohomology(conj, trivial_comodule_coaction(conj),
                                    top) \
        == _full_cobar_dims(h, trivial_comodule_coaction(h), top)


def test_a_unit_that_is_no_unit_is_refused_before_normalizing():
    """The normalized bar complex has the bar homology only when the unit
    laws hold; a product with e_0 e_1 = 0 is refused, on both sides, by
    the unit (counit) laws of H's Hopf axioms, at a degree whose full
    composites the trivial (co)action keeps zero."""
    h = kc2()
    bad_mult = SparseMatrix(QQ, 2, 4, {(0, 0): 1, (1, 2): 1, (0, 3): 1})
    bad = HopfAlgebra(QQ, 2, bad_mult, h.unit, h.comult, h.counit,
                      h.antipode, h.antipode_inv)
    with pytest.raises(AxiomFailure, match="^H fails the Hopf axioms: "
                                           "associativity, left unit, "):
        hopf_module_homology(bad, trivial_module_action(bad), 1)
    bad = HopfAlgebra(QQ, 2, h.mult, h.unit, bad_mult.transpose(), h.counit,
                      h.antipode, h.antipode_inv)
    with pytest.raises(AxiomFailure, match="^H fails the Hopf axioms: "
                                           "coassociativity, left counit, "):
        hopf_comodule_cohomology(bad, trivial_comodule_coaction(bad), 1)


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
    complex checks nothing when built, the mixed complex checks itself).
    The bar complex's are spoiled in
    `test_a_spoiled_normalized_boundary_is_named_at_its_degree`; a map
    that is no action is refused by its module laws before any boundary
    is built."""
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
    with pytest.raises(AxiomFailure, match="^the action fails the module "
                                           "axioms: action associative$"):
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
        n = max(n, 1) if kind == "b" else min(n, N - 2)
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


@pytest.mark.parametrize("entry, text", [
    ((1, 1), "B B != 0 at degree 1"),
    ((15, 7), "bB + Bb != 0 at degree 2"),
])
def test_a_spoiled_top_B_is_refused(entry, text):
    """The complex holds B through N - 2 only, and that top block is still
    checked: on the cyclic module of kC2 (N = 4), one entry of B[2] added
    to breaks B B at N - 3, which is multiplied apart, or bB + Bb at
    N - 2, which is read off the composite D_3 D_4; each is refused by
    its identity, as the oracle refuses it."""
    mc = _mixed_base("kC2")
    assert sorted(mc.B) == [0, 1, 2]
    m = mc.B[2]
    ent = dict(m.entries)
    ent[entry] = ent.get(entry, 0) + 1
    bad = {2: SparseMatrix(QQ, m.rows, m.cols, ent)}
    for check in (check_mixed_complex, mixed_oracle.check_mixed_complex):
        with pytest.raises(MixedIdentityFailure, match=re.escape(text)):
            check(mixed_oracle.unchecked(mc, B=bad))


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


def _normalized_hc(r, nmax):
    """hc of an algebra through nmax from its normalized (b, B), the one
    chain route of `compute hc`."""
    return cyclic_dims(normalized_mixed_complex(r, nmax + 1), nmax)


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
    """b alone on each (co)cyclic module, the normalized (b, B) of its
    algebra (the dual algebra on the cochain side) and Connes' complex
    through the orbit matrices, against the (b, B) mixed complex of the
    module."""
    for ops, r in zip(_corpus_modules(name, nmax), _corpus_algebras(name)):
        mc = _mixed(ops)
        assert b_column_dims(ops, nmax) == hochschild_dims(mc, nmax)
        hc = cyclic_dims(mc, nmax)
        assert _normalized_hc(r, nmax) == hc
        assert connes_oracle.connes_dims(ops, nmax) == hc


def test_connes_complex_of_small_algebras():
    k = trivial_hopf(QQ).as_algebra()
    assert _normalized_hc(k, 4) == [1, 0, 1, 0, 1]
    ops = cyclic_module_of_algebra(k, N=5)
    assert connes_oracle.connes_dims(ops, 4) == [1, 0, 1, 0, 1]
    c = kc2().as_coalgebra()
    assert _normalized_hc(dual_algebra(c), 3) == [2, 0, 2, 0]
    ops = cocyclic_module_of_coalgebra(c, N=4)
    assert connes_oracle.connes_dims(ops, 3) == [2, 0, 2, 0]
    with pytest.raises(TruncationTooShallow):
        connes_oracle.connes_dims(ops, 4)
    # HC is not H(C/(1 - lambda)) over F_2
    with pytest.raises(ValueError):
        connes_oracle.connes_dims(
            cyclic_module_of_algebra(kc2(F2).as_algebra(), N=3), 2)


def test_signed_orbits_drop_the_orbits_lambda_kills():
    """On (k^2)^(x)2, lambda = -t kills e0 e0 and e1 e1 and identifies
    e0 e1 with -e1 e0; in even degree every orbit survives."""
    P, S = connes_oracle._signed_orbits(QQ, 2, 1)
    assert P == SparseMatrix.from_rows(QQ, [[0, 1, -1, 0]])
    assert (P @ S) == SparseMatrix.identity(QQ, 1)
    P, S = connes_oracle._signed_orbits(QQ, 2, 2)
    assert P.rows == 4 and (P @ S) == SparseMatrix.identity(QQ, 4)


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
    descends; the induced b must still fail b b = 0.  The normalized
    (b, B) fails its first mixed identity, b b = 0, at degree 2."""
    mult = SparseMatrix.from_rows(QQ, [
        # e0 is the unit; e1 e1 = e2, e1 e2 = e1, e2 e1 = e2 e2 = 0
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 1, 0, 0],
    ])
    unit = SparseMatrix.from_rows(QQ, [[1], [0], [0]])
    r = Algebra(QQ, 3, mult, unit, ["1", "x", "y"])
    with pytest.raises(MixedIdentityFailure, match="b b != 0 at degree 2"):
        _normalized_hc(r, 2)
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
    complex through the orbit matrices."""
    for ops, r in zip(_corpus_modules(name, nmax), _corpus_algebras(name)):
        mc = _mixed(ops)
        hh, hc = hochschild_dims(mc, nmax), cyclic_dims(mc, nmax)
        assert normalized_hochschild_dims(r, nmax) == hh
        assert _normalized_hc(r, nmax) == hc
        if r.field.p is None:
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
    """The normalized b, the alternating sum of the normalized faces, is
    the full b, and the normalized B the full B = (1 - lambda) t s_n N,
    read on the non-degenerate coordinates, on the crossed product algebra
    and the dual algebra (unit moved to e_0) of the crossed product
    coalgebra."""
    N = 3 if name != "sweedler_Q" else 2
    for r in _corpus_algebras(name):
        r = unit_first(r)
        ops = cyclic_module_of_algebra(r, N)
        full, normal = mixed_complex(ops), normalized_mixed_complex(r, N)
        keep = [_non_degenerate(r.dim, n) for n in range(N + 1)]
        assert normal.dims == [len(k) for k in keep]
        for n in range(1, N + 1):
            assert normal.b[n] == _restricted(full.b[n], keep[n - 1],
                                              keep[n])
        for n in range(N - 1):
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
    basis = _random_basis(data, f, d)
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
    structure constants and a unit that is not e_0, the normalized (b, B)
    total complex of the algebra has the cyclic homology of Connes' complex
    through the orbit matrices on its cyclic module."""
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
    assert _normalized_hc(conj, nmax) == connes_oracle.connes_dims(
        cyclic_module_of_algebra(conj, N=nmax + 1), nmax)


# -- the closed form of a semisimple algebra over Q ----------------------------

_Q_FILES = sorted(name for name, doc in corpus_documents().items()
                  if doc.field.p is None)


def _admitted_nmax(doc, side):
    """The largest --nmax the gate admits for `compute hh|hc` on a side."""
    dh, d = doc.hopf.dim, getattr(doc, side).dim
    nmax = -1
    while all(value <= limit for _, (value, _), limit
              in cli._sizes("hh", {"nmax": nmax + 1}, dh, d)):
        nmax += 1
    return nmax


@pytest.mark.parametrize("name", _Q_FILES)
def test_the_semisimple_closed_form_matches_the_direct_routes(name):
    """On every Q corpus file, both sides, at every --nmax the gate admits,
    the hh and hc tables of `compute` equal the normalized b and (b, B);
    Sweedler, the one crossed product that is not semisimple, gets no
    closed form."""
    doc = load_document(os.path.join(DATA, name + ".json"))
    for side, r in zip(("algebra", "coalgebra"), _corpus_algebras(name)):
        if name.startswith("sweedler"):
            assert semisimple_hh0(r) is None
            continue
        nmax = _admitted_nmax(doc, side)
        assert nmax >= 1
        hh = normalized_hochschild_dims(r, nmax)
        hc = _normalized_hc(r, nmax)
        for n in range(nmax + 1):
            assert cli._crossed_dims(r, ["hh", "hc"], n) \
                == {"hh": hh[:n + 1], "hc": hc[:n + 1]}, (side, n)


@pytest.mark.parametrize("name", ["sweedler_Q", "sweedler_Q_trivial"])
def test_hc_of_sweedler_matches_connes_complex(name):
    """Sweedler's crossed products are not semisimple, so `compute hc`
    ranks their normalized (b, B): on both files, both sides, at every
    --nmax the gate admits, its table equals Connes' complex through the
    orbit matrices on the built (co)cyclic module."""
    doc = load_document(os.path.join(DATA, name + ".json"))
    nmax = 2
    for side, ops, r in zip(("algebra", "coalgebra"),
                            _corpus_modules(name, nmax),
                            _corpus_algebras(name)):
        assert _admitted_nmax(doc, side) == nmax
        hc = connes_oracle.connes_dims(ops, nmax)
        for n in range(nmax + 1):
            assert cli._crossed_dims(r, ["hc"], n) == {"hc": hc[:n + 1]}, \
                (side, n)


def test_the_closed_form_answers_over_q_only():
    """kC2 over F_3 is semisimple with a nondegenerate trace form, and C2
    over F_2 has a semisimple coalgebra side, yet neither gets a closed
    form: over F_p the chain complexes are ranked."""
    assert semisimple_hh0(kc2().as_algebra()) == 2
    assert semisimple_hh0(kc2(Field.prime(3)).as_algebra()) is None
    for r in _corpus_algebras("c2_F2"):
        assert semisimple_hh0(r) is None


def _algebra(d, products, unit):
    """The algebra over Q with e_a e_b = sum of v e_c over products[(a, b)]
    = {c: v} and the unit sum of v e_c over unit = {c: v}."""
    mult = {(c, a * d + b): v for (a, b), terms in products.items()
            for c, v in terms.items()}
    return Algebra(QQ, d, SparseMatrix(QQ, d, d * d, mult),
                   SparseMatrix(QQ, d, 1, {(c, 0): v
                                           for c, v in unit.items()}))


# (algebra, HH_0), HH_0 None where the algebra is not semisimple.
_CLOSED_FORM_CASES = {
    "QxQ": (lambda: _algebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}},
                             {0: 1, 1: 1}), 2),
    "M2(Q)": (lambda: _algebra(4, {(2 * i + j, 2 * j + k): {2 * i + k: 1}
                                   for i in range(2) for j in range(2)
                                   for k in range(2)}, {0: 1, 3: 1}), 1),
    "Q[C3]": (lambda: group_algebra(cyclic_group_table(3), QQ).as_algebra(),
              3),
    "c2_Q": (lambda: _corpus_algebras("c2_Q")[0], 4),
    "Q[x]/x^2": (lambda: _algebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                      (1, 0): {1: 1}}, {0: 1}), None),
    "T2(Q)": (lambda: _algebra(3, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                   (1, 2): {1: 1}, (2, 2): {2: 1}},
                               {0: 1, 2: 1}), None),
    "sweedler": (lambda: sweedler_hopf(QQ).as_algebra(), None),
}


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_CASES))
def test_the_closed_form_does_not_depend_on_the_basis(name, data):
    """In a random invertible integer basis, a semisimple algebra has the
    closed form HH_0 of its own basis, and hh and hc equal the normalized
    b and (b, B); an algebra that is not semisimple has none."""
    build, h0 = _CLOSED_FORM_CASES[name]
    r = build()
    d = r.dim
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                       max_size=d), min_size=d, max_size=d))
    basis = SparseMatrix.from_rows(QQ, rows)
    inv = invert(basis)
    assume(inv is not None)
    conj = Algebra(QQ, d, inv @ r.mult @ basis.kron(basis), inv @ r.unit)
    assert semisimple_hh0(r) == semisimple_hh0(conj) == h0
    if h0 is not None:
        assert cli._crossed_dims(conj, ["hh", "hc"], 2) \
            == {"hh": normalized_hochschild_dims(conj, 2),
                "hc": _normalized_hc(conj, 2)} \
            == {"hh": [h0, 0, 0], "hc": [h0, 0, h0]}
