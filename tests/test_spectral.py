"""Total complexes, filtrations, spectral pages, EZ comparison, collapse."""

import json
import os
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_oracle import (
    cell_block, find_cell, full_total_complex, h_normalized_pages,
    oracle_pages,
)

from hopfcyclic import homology
from hopfcyclic.errors import (
    FiltrationViolation, MixedIdentityFailure, TotalNotSquareZero,
)
from hopfcyclic.fields import Field
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix, invert
from hopfcyclic.hopf import (
    Algebra, Coalgebra, ComoduleAlgebra, HopfAlgebra, ModuleCoalgebra,
    cyclic_group_table,
    group_algebra, regular_comodule_algebra, regular_module_coalgebra,
    sweedler_hopf, trivial_comodule_algebra, trivial_hopf,
)
from hopfcyclic.crossed import (
    cocyclic_module_of_coalgebra, crossed_product_algebra,
    crossed_product_coalgebra, cyclic_module_of_algebra,
)
from hopfcyclic.cylinder import (
    AlgebraCylinder, CoalgebraCocylinder, coinvariant_cocyclic_module,
    coinvariant_cyclic_module,
)
from hopfcyclic.homology import (
    FilteredComplex, check_filtration, cochain_mixed_complex, cyclic_dims,
    ez_compare_hochschild, mixed_complex, spectral_pages,
    total_complex_algebra, total_complex_coalgebra, total_homology_dims,
)

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
ROOT = os.path.join(os.path.dirname(__file__), "..")


def kc2(field=QQ):
    return group_algebra(cyclic_group_table(2), field)


def make_cyl(field=QQ):
    return AlgebraCylinder(regular_comodule_algebra(kc2(field)))


def test_total_complex_square_zero_and_filtration():
    """The cells are normalized in both directions: 2 1^p 2 1^q of the full
    2^(p+1) 2^(q+1) coordinates, which are the sum over l <= p, k <= q of
    C(p, l) C(q, k) normalized cells (l, k) (Dold-Kan), the rest
    degenerate."""
    fc = total_complex_algebra(make_cyl(), N=3)
    assert fc.normalized and fc.dims == [4, 8, 12, 16]
    assert all(dim == 4 for n in range(4) for *_, dim in fc.cells[n])
    assert [sum(comb(p, l) * comb(q, k) * 4 for p, q, _, _ in fc.cells[n]
                for l in range(p + 1) for k in range(q + 1))
            for n in range(4)] == [4, 16, 48, 128]
    for n in range(2, 4):
        assert (fc.d[n - 1] @ fc.d[n]).is_zero()
    assert check_filtration(fc)  # exhaustion, refinement, d-stability


def test_pages_refuse_a_total_complex_that_is_not_square_zero():
    """The total complex is built unchecked; the pages, which rely on
    d d = 0, refuse a d[3] spoiled after construction."""
    fc = total_complex_algebra(make_cyl(), N=3)
    i = min(k for (_, k) in fc.d[2].entries)  # a nonzero column of d[2]
    ent = dict(fc.d[3].entries)
    ent[(i, 0)] = QQ.add(fc.d[3][(i, 0)], QQ.one())
    fc.d[3] = SparseMatrix(QQ, fc.d[3].rows, fc.d[3].cols, ent)
    with pytest.raises(TotalNotSquareZero, match="d d != 0 at degree 3"):
        spectral_pages(fc, 1, (1, 1))


def _spoiled_top(fc):
    """fc with one entry of d[3] bumped so that d[2] d[3] != 0: the entry
    sends the first column of T_3 at level 0 to a row at level 2, the first
    one d[2] does not kill, so d[3] also leaves F_0."""
    _, _, off, dim = find_cell(fc, 2, 0, 2)
    i = min(j for (_, j) in fc.d[2].entries if off <= j < off + dim)
    _, _, j, _ = find_cell(fc, 3, 3, 0)
    ent = dict(fc.d[3].entries)
    ent[(i, j)] = QQ.add(fc.d[3][(i, j)], QQ.one())
    fc.d[3] = SparseMatrix(QQ, fc.d[3].rows, fc.d[3].cols, ent)
    return fc


def test_pages_refuse_d_d_before_the_filtration():
    """A total complex that breaks both d d = 0 and the filtration is
    refused for d d first, at the degree of the lowest failing composite."""
    fc = _spoiled_top(total_complex_algebra(make_cyl(), N=3))
    with pytest.raises(FiltrationViolation, match="d leaves F_0 at degree 3"):
        check_filtration(fc)
    with pytest.raises(TotalNotSquareZero, match="d d != 0 at degree 3"):
        spectral_pages(fc, 1, (1, 1))


def test_a_narrow_window_still_checks_the_top_composite():
    """The window (0, 0) reads only degrees 0 and 1, but the reduction runs
    through d_N: a spoiled d[3] is refused all the same."""
    fc = _spoiled_top(total_complex_algebra(make_cyl(), N=3))
    with pytest.raises(TotalNotSquareZero, match="d d != 0 at degree 3"):
        spectral_pages(fc, 2, (0, 0))


def test_pages_reduce_each_differential_once(monkeypatch):
    """One pages run on a corpus total complex reduces d_0 (zero), d_1, ...,
    d_N once each and multiplies each composite d_(n-1) d_n once."""
    from hopfcyclic import linalg
    doc = load_document(os.path.join(ROOT, "data", "sweedler_Q.json"))
    fc = total_complex_algebra(AlgebraCylinder(doc.algebra), N=3)
    reduced, products = [], []
    reduce_columns = linalg._reduce_columns
    matmul = SparseMatrix.__matmul__

    def spy_reduce(field, columns):
        reduced.append(len(columns))
        return reduce_columns(field, columns)

    def spy_matmul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(linalg, "_reduce_columns", spy_reduce)
    monkeypatch.setattr(SparseMatrix, "__matmul__", spy_matmul)
    spectral_pages(fc, 2, (1, 1))
    dims = [0] + fc.dims
    assert len(reduced) == fc.N + 1 and reduced[0] == 0
    assert products == [(dims[n - 1], dims[n], dims[n + 1])
                        for n in range(1, fc.N + 1)]


def test_cells_run_q_descending_and_pages_reduce_d_as_built():
    """On both sides the cells of Tot_n run q = n, n-1, ..., 0, one block
    after the other, and the pages keep their pairs on every d_n of the
    total complex: the matrices reduced are the ones it holds, no copy."""
    cocyl = CoalgebraCocylinder(regular_module_coalgebra(kc2()))
    for fc in (total_complex_algebra(make_cyl(), N=3),
               total_complex_coalgebra(cocyl, N=3)):
        for n in range(fc.N + 1):
            cells = fc.cells[n]
            assert [(p, q) for p, q, _, _ in cells] == \
                [(n - q, q) for q in range(n, -1, -1)]
            assert [off for _, _, off, _ in cells] == \
                [sum(dim for *_, dim in cells[:k]) for k in range(n + 1)]
        assert all(fc.d[n]._pairs is None for n in range(1, fc.N + 1))
        spectral_pages(fc, 1, (1, 1))
        assert all(fc.d[n]._pairs is not None for n in range(1, fc.N + 1))


def test_total_complex_trivial_hopf_is_hochschild_of_a():
    h = kc2()
    a = trivial_comodule_algebra(trivial_hopf(QQ), h.as_algebra())
    cyl = AlgebraCylinder(a)
    fc = total_complex_algebra(cyl, N=3)
    tot = total_homology_dims(fc, 2)
    mc = mixed_complex(cyclic_module_of_algebra(h.as_algebra(), N=3))
    from hopfcyclic.homology import hochschild_dims
    # every row is the Hochschild complex of A; only row q=0 survives in
    # total homology through the horizontal contraction
    assert tot[0] == hochschild_dims(mc, 0)[0]


def _non_degenerate(dh, db, p, q):
    """The coordinates of the cell (p, q) with no unit e_0 in an H leg or a
    B leg past the first."""
    tail = db ** (q + 1)
    return [x for x in range(dh ** (p + 1) * tail)
            if all(x // tail // dh ** k % dh for k in range(p))
            and all(x // db ** k % db for k in range(q))]


def test_page_zero_differential_is_horizontal_boundary():
    """d^0 = b_h: each block of d between horizontally adjacent cells is
    the full horizontal boundary, the alternating sum of the faces,
    restricted to the non-degenerate coordinates (both units are e_0)."""
    cyl = make_cyl()
    fc = total_complex_algebra(cyl, N=3)
    for n in range(1, 4):
        for q in range(n):
            p = n - q
            src = find_cell(fc, n, p, q)
            dst = find_cell(fc, n - 1, p - 1, q)
            b_h = sum((cyl.face_h(p, q, i).scale((-1) ** i)
                       for i in range(1, p + 1)), cyl.face_h(p, q, 0))
            rows = _non_degenerate(2, 2, p - 1, q)
            cols = _non_degenerate(2, 2, p, q)
            want = {(r, c): b_h[(i, j)] for r, i in enumerate(rows)
                    for c, j in enumerate(cols) if b_h[(i, j)]}
            assert cell_block(fc, n, src, dst) == \
                SparseMatrix(QQ, len(rows), len(cols), want)


def test_semisimple_first_page_vanishes_above_row_zero():
    fc = total_complex_algebra(make_cyl(), N=3)
    pages = spectral_pages(fc, 2, (2, 2))
    e1 = pages[1]
    assert all(v == 0 for (i, j), v in e1.table.items() if j > 0)
    # row zero is the coinvariant complex
    a = regular_comodule_algebra(kc2())
    _, pres = coinvariant_cyclic_module(a, N=2)
    assert [e1.dim(i, 0) for i in range(3)] == [p.dim for p in pres]


def test_f2_negative_control_nonvanishing():
    a = trivial_comodule_algebra(kc2(F2))
    fc = total_complex_algebra(AlgebraCylinder(a), N=3)
    pages = spectral_pages(fc, 1, (2, 2))
    assert any(v for (i, j), v in pages[1].table.items() if j > 0)


def test_pages_weakly_decrease():
    for field in (QQ, F2):
        a = regular_comodule_algebra(kc2(field))
        fc = total_complex_algebra(AlgebraCylinder(a), N=3)
        pages = spectral_pages(fc, 3, (2, 2))
        for r in range(3):
            for key, v in pages[r + 1].table.items():
                assert v <= pages[r].table[key]


def test_convergence_to_total_homology():
    fc = total_complex_algebra(make_cyl(), N=3)
    tot = total_homology_dims(fc, 2)
    stab = spectral_pages(fc, 4, (2, 2))[-1]
    for n in range(3):
        assert sum(stab.dim(i, n - i) for i in range(n + 1)) == tot[n]


def test_differential_ranks_explain_page_drop():
    fc = total_complex_algebra(make_cyl(F2), N=3)
    pages = spectral_pages(fc, 2, (2, 2))
    for r in range(2):
        cur, nxt = pages[r], pages[r + 1]
        for (i, j), v in nxt.table.items():
            out_rank = cur.diff_ranks.get((i, j), 0)
            in_rank = cur.diff_ranks.get((i + r, j - r + 1), 0)
            if (i + r, j - r + 1) in cur.table and i + j <= fc.N - 2:
                assert v == cur.table[(i, j)] - out_rank - in_rank


def test_ez_hochschild_kc2():
    rep = ez_compare_hochschild(make_cyl(), 2)
    assert all(eq for _, _, _, eq in rep)
    assert rep[0][1] == 4


def test_ez_hochschild_sweedler_degree_one():
    cyl = AlgebraCylinder(regular_comodule_algebra(sweedler_hopf(QQ)))
    rep = ez_compare_hochschild(cyl, 1)
    assert all(eq for _, _, _, eq in rep)


def test_ez_cochain_side_kc2():
    cocyl = CoalgebraCocylinder(regular_module_coalgebra(kc2()))
    rep = ez_compare_hochschild(cocyl, 2)
    assert all(eq for _, _, _, eq in rep)


@pytest.mark.parametrize("bad", ["action", "coaction"])
def test_ez_hochschild_names_the_total_complex_that_fails(bad, monkeypatch,
                                                           capsys):
    """Sweedler with an action entry (a coaction term) negated: the total
    complex is no complex, and `compare ez-hochschild` says so by its
    degree, as `ss-pages` does; the reports are the CI negative
    controls'."""
    from hopfcyclic import cli
    monkeypatch.chdir(ROOT)
    code = cli.main(["compare", "ez-hochschild", "-i",
                     "tests/sweedler_Q_bad_%s.json" % bad, "--nmax", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"] == \
        "TotalNotSquareZero: d d != 0 at degree 2"
    with open(os.path.join("tests", "goldens",
                           "ez_hochschild_bad_%s_sweedler_Q_n1.json" % bad)) \
            as fh:
        assert out == fh.read()


@pytest.mark.parametrize("side", ["cylinder", "cocylinder"])
def test_ez_hochschild_names_the_diagonal_that_fails(side, monkeypatch):
    """Only the diagonal spoiled, b_2 given one entry that b_1 does not
    kill: the total complex passes, and the diagonal fails with the text
    of its mixed complex."""
    honest = homology.hochschild_boundary

    def spoiled(ops, n):
        b = honest(ops, n)
        if n != 2:
            return b
        f = b.field
        i = min(k for (_, k) in honest(ops, 1).entries)
        entries = dict(b.entries)
        entries[(i, 0)] = f.add(b[(i, 0)], f.one())
        return SparseMatrix(f, b.rows, b.cols, entries)

    monkeypatch.setattr(homology, "hochschild_boundary", spoiled)
    h = sweedler_hopf(QQ)
    cyl = (AlgebraCylinder(regular_comodule_algebra(h)) if side == "cylinder"
           else CoalgebraCocylinder(regular_module_coalgebra(h)))
    with pytest.raises(MixedIdentityFailure) as e:
        ez_compare_hochschild(cyl, 1)
    assert str(e.value) == "b b != 0 at degree 2"


def test_cochain_total_complex_and_pages():
    cocyl = CoalgebraCocylinder(regular_module_coalgebra(kc2()))
    fc = total_complex_coalgebra(cocyl, N=3)
    pages = spectral_pages(fc, 2, (2, 2))
    e1 = pages[1]
    # cosemisimple: entries away from the coinvariant column vanish;
    # with the q >= i filtration that is complementary degree > 0
    assert all(v == 0 for (i, j), v in e1.table.items() if j > 0)


def test_collapse_algebra_side():
    a = regular_comodule_algebra(kc2())
    r = crossed_product_algebra(a)
    lhs = cyclic_dims(mixed_complex(cyclic_module_of_algebra(r, N=3)), 2)
    ops, _ = coinvariant_cyclic_module(a, N=3)
    rhs = cyclic_dims(mixed_complex(ops), 2)
    assert lhs == rhs == [4, 0, 4]


def test_collapse_coalgebra_side():
    c = regular_module_coalgebra(kc2())
    cc = crossed_product_coalgebra(c)
    lhs = cyclic_dims(cochain_mixed_complex(
        cocyclic_module_of_coalgebra(cc, N=3)), 2)
    cops, _ = coinvariant_cocyclic_module(c, N=3)
    rhs = cyclic_dims(cochain_mixed_complex(cops), 2)
    assert lhs == rhs == [4, 0, 4]


# -- spectral_pages against the subquotient oracle ----------------------------------

def _same_pages(got, want):
    return [(p.r, p.table, p.diff_ranks, p.diff_ranks_in) for p in got] == \
        [(p.r, p.table, p.diff_ranks, p.diff_ranks_in) for p in want]


# (rmax, pmax, qmax) per corpus file: the largest window whose oracle run
# stays within a few seconds.
@pytest.mark.parametrize("name, rmax, pmax, qmax", [
    ("c2_F2", 3, 2, 2), ("c2_F2_trivial", 3, 2, 2), ("c2_Q", 3, 2, 2),
    ("c2_Q_trivial", 3, 2, 2), ("c3_Q", 2, 1, 1), ("c3_Q_trivial", 2, 1, 1),
    ("ground_field_Q", 3, 3, 3), ("s3_Q", 1, 1, 0), ("sweedler_Q", 2, 1, 1),
    ("sweedler_Q_trivial", 2, 1, 1),
])
def test_pages_match_subquotient_oracle_on_corpus(name, rmax, pmax, qmax):
    doc = load_document(os.path.join(ROOT, "data", name + ".json"))
    N, window = pmax + qmax + 1, (pmax, qmax)
    for cyl, total in ((AlgebraCylinder(doc.algebra), total_complex_algebra),
                       (CoalgebraCocylinder(doc.coalgebra),
                        total_complex_coalgebra)):
        assert _same_pages(spectral_pages(total(cyl, N), rmax, window),
                           oracle_pages(full_total_complex(cyl, N), rmax,
                                        window))


# (rmax, pmax, qmax) of the ss-pages goldens on the three files they cover
@pytest.mark.parametrize("name, rmax, pmax, qmax", [
    ("c2_Q", 4, 3, 3), ("c3_Q", 2, 2, 2), ("c2_F2", 3, 3, 3),
])
def test_closed_form_page_zero_equals_the_full_total_complex(
        name, rmax, pmax, qmax):
    """The total complexes are normalized in both directions and restore
    E^0 and E^1 by the Dold-Kan count: full cell dimensions, binomial sums
    of the normalized values, and the ranks of the acyclic degenerate
    parts.  Every page, E^0 and E^1 included, tables and both rank maps,
    equals the one the pairs of the full total complex give, on both
    sides."""
    doc = load_document(os.path.join(ROOT, "data", name + ".json"))
    N = pmax + qmax + 1
    for cyl, total in ((AlgebraCylinder(doc.algebra), total_complex_algebra),
                       (CoalgebraCocylinder(doc.coalgebra),
                        total_complex_coalgebra)):
        fc = total(cyl, N)
        full = full_total_complex(cyl, N)
        assert sum(fc.dims) < sum(full.dims)
        pages = spectral_pages(fc, rmax, (pmax, qmax))
        assert _same_pages(pages, spectral_pages(full, rmax, (pmax, qmax)))
        assert pages[0].table == {
            (q, p): cyl.space_dim(p, q) for (q, p) in pages[0].table}


def _in_basis(doc, basis):
    """The comodule algebra and module coalgebra of doc over H written in
    the basis of H whose vectors are the columns of `basis`."""
    h, f = doc.hopf, doc.field
    inv = invert(basis)
    conj = HopfAlgebra(f, h.dim, inv @ h.mult @ basis.kron(basis),
                       inv @ h.unit, inv.kron(inv) @ h.comult @ basis,
                       h.counit @ basis, inv @ h.antipode @ basis,
                       inv @ h.antipode_inv @ basis)
    a, c = doc.algebra, doc.coalgebra
    return (ComoduleAlgebra(conj, a.algebra, inv.kron(
                SparseMatrix.identity(f, a.dim)) @ a.coaction),
            ModuleCoalgebra(conj, c.coalgebra, c.action @ basis.kron(
                SparseMatrix.identity(f, c.dim))))


@settings(max_examples=4, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, rmax, pmax, qmax", [
    ("c2_F2", 2, 2, 1), ("c3_Q", 1, 1, 0), ("sweedler_Q", 1, 1, 0),
])
def test_pages_with_the_unit_and_counit_off_e0(name, rmax, pmax, qmax, data):
    """H in a random basis, a permutation of a lower unitriangular one,
    where neither its unit nor its counit is the first (dual) basis vector:
    the normalized total complexes read their cells in the basis of
    `unit_basis`, and every page, E^0 included, is that of H in its own
    basis, on both sides."""
    doc = load_document(os.path.join(ROOT, "data", name + ".json"))
    f, d = doc.field, doc.hopf.dim
    perm = data.draw(st.permutations(range(d)))
    lower = data.draw(st.dictionaries(
        st.tuples(st.integers(1, d - 1), st.integers(0, d - 2))
        .filter(lambda ij: ij[1] < ij[0]),
        st.integers(-2, 2), max_size=d))
    entries = {(i, i): 1 for i in range(d)}
    entries.update({ij: f.of(v) for ij, v in lower.items()})
    basis = SparseMatrix(f, d, d, {(perm[i], i): 1 for i in range(d)}) \
        @ SparseMatrix(f, d, d, entries)
    a, c = _in_basis(doc, basis)
    assume(a.hopf.unit.column(0) != {0: 1})
    assume(a.hopf.counit.transpose().column(0) != {0: 1})
    window, N = (pmax, qmax), pmax + qmax + 1
    for cyl, own in ((AlgebraCylinder(a), AlgebraCylinder(doc.algebra)),
                     (CoalgebraCocylinder(c),
                      CoalgebraCocylinder(doc.coalgebra))):
        total = total_complex_algebra if cyl.block == "A" \
            else total_complex_coalgebra
        assert _same_pages(spectral_pages(total(cyl, N), rmax, window),
                           spectral_pages(total(own, N), rmax, window))


# The largest K per corpus file at which the route normalized in the H
# direction only takes under a second for both sides: the total complex
# through N = K + 1 that every admitted window (pmax, qmax) with pmax +
# qmax = K builds, read at the window (K, K), which holds every position
# of each of them.
_DESK_WINDOWS = {
    "c2_F2": 9, "c2_F2_trivial": 9, "c2_Q": 9, "c2_Q_trivial": 9,
    "c3_Q": 5, "c3_Q_trivial": 5, "ground_field_Q": 11, "s3_Q": 2,
    "sweedler_Q": 3, "sweedler_Q_trivial": 3,
}


@pytest.mark.parametrize("name", sorted(_DESK_WINDOWS))
def test_pages_match_the_h_normalized_route_on_every_corpus_window(name):
    """Every page through stability (rmax = K + 1), tables and both rank
    maps, of the total complexes normalized in both directions, with E^0
    and E^1 restored by the Dold-Kan count, equals the one the route
    normalized in the H direction only gives (`h_normalized_pages`), on
    both sides, on every window the ss-pages gate admits with pmax +
    qmax = K."""
    from hopfcyclic import cli
    doc = load_document(os.path.join(ROOT, "data", name + ".json"))
    K = _DESK_WINDOWS[name]
    for cyl, total in ((AlgebraCylinder(doc.algebra), total_complex_algebra),
                       (CoalgebraCocylinder(doc.coalgebra),
                        total_complex_coalgebra)):
        for pmax in range(K + 1):
            bounds = {"rmax": K + 1, "pmax": pmax, "qmax": K - pmax}
            assert all(value <= limit for _, (value, _), limit in
                       cli._sizes("ss-pages", bounds, cyl.dh, cyl.db))
        window = (K, K)
        assert _same_pages(spectral_pages(total(cyl, K + 1), K + 1, window),
                           h_normalized_pages(cyl, K + 1, K + 1, window))


def _block_in_basis(doc, basis):
    """The comodule algebra and module coalgebra of doc with A and C
    written in the basis whose vectors are the columns of `basis`."""
    h, f = doc.hopf, doc.field
    inv = invert(basis)
    ident = SparseMatrix.identity(f, h.dim)
    a, c = doc.algebra, doc.coalgebra
    return (ComoduleAlgebra(h, Algebra(f, a.dim,
                                       inv @ a.mult @ basis.kron(basis),
                                       inv @ a.unit),
                            ident.kron(inv) @ a.coaction @ basis),
            ModuleCoalgebra(h, Coalgebra(f, c.dim,
                                         inv.kron(inv) @ c.comult @ basis,
                                         c.counit @ basis),
                            inv @ c.action @ ident.kron(basis)))


@settings(max_examples=4, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, rmax, pmax, qmax", [
    ("c2_F2", 2, 1, 2), ("c3_Q", 1, 0, 1), ("sweedler_Q", 1, 0, 1),
])
def test_pages_with_the_block_unit_and_counit_off_e0(name, rmax, pmax, qmax,
                                                     data):
    """A and C in a random basis, a permutation of a lower unitriangular
    one, where neither A's unit nor C's counit is the first (dual) basis
    vector: the total complexes read their B legs in the basis of
    `unit_basis`, and every page, E^0 and E^1 included, is that of A and
    C in their own bases, on both sides."""
    doc = load_document(os.path.join(ROOT, "data", name + ".json"))
    f, d = doc.field, doc.algebra.dim
    perm = data.draw(st.permutations(range(d)))
    lower = data.draw(st.dictionaries(
        st.tuples(st.integers(1, d - 1), st.integers(0, d - 2))
        .filter(lambda ij: ij[1] < ij[0]),
        st.integers(-2, 2), max_size=d))
    entries = {(i, i): 1 for i in range(d)}
    entries.update({ij: f.of(v) for ij, v in lower.items()})
    basis = SparseMatrix(f, d, d, {(perm[i], i): 1 for i in range(d)}) \
        @ SparseMatrix(f, d, d, entries)
    a, c = _block_in_basis(doc, basis)
    assume(a.unit.column(0) != {0: 1})
    assume(c.counit.transpose().column(0) != {0: 1})
    window, N = (pmax, qmax), pmax + qmax + 1
    for cyl, own, total in (
            (AlgebraCylinder(a), AlgebraCylinder(doc.algebra),
             total_complex_algebra),
            (CoalgebraCocylinder(c), CoalgebraCocylinder(doc.coalgebra),
             total_complex_coalgebra)):
        assert _same_pages(spectral_pages(total(cyl, N), rmax, window),
                           spectral_pages(total(own, N), rmax, window))


def test_a_larger_rmax_only_appends_stable_pages():
    """The dimensions are running sums over the gaps: a larger rmax leaves
    the earlier pages as they were, and every page past the largest gap is
    E_infinity, with d^r = 0."""
    fc = total_complex_algebra(make_cyl(), N=3)
    short = spectral_pages(fc, 3, (1, 1))
    long = spectral_pages(fc, 200, (1, 1))
    assert _same_pages(long[:4], short)
    last = long[-1]
    assert all(p.table == last.table for p in long[3:])
    assert not any(last.diff_ranks.values())


def test_pages_report_matches_recorded_subquotient_report(monkeypatch, capsys):
    """c2_Q at rmax 4, pmax 3, qmax 3, byte for byte against the report of
    the subquotient code (tests/goldens, recorded from that code)."""
    from hopfcyclic import cli
    monkeypatch.chdir(ROOT)
    code = cli.main(["compute", "ss-pages", "-i", "data/c2_Q.json",
                     "--rmax", "4", "--pmax", "3", "--qmax", "3"])
    with open(os.path.join("tests", "goldens",
                           "ss_pages_c2_Q_r4_p3_q3.json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


def test_pages_report_over_q_at_dimension_nine(monkeypatch, capsys):
    """c3_Q (d = 9) at pmax 2, qmax 2, byte for byte against the report
    recorded before the pages and the homology dimensions shared one
    reduction: fraction-free clearing across three degrees on both
    sides."""
    from hopfcyclic import cli
    monkeypatch.chdir(ROOT)
    code = cli.main(["compute", "ss-pages", "-i", "data/c3_Q.json",
                     "--pmax", "2", "--qmax", "2"])
    with open(os.path.join("tests", "goldens",
                           "ss_pages_c3_Q_r2_p2_q2.json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


def test_pages_report_over_f2(monkeypatch, capsys):
    """c2_F2 at rmax 3, pmax 3, qmax 3, byte for byte against the report
    recorded when the pages reduced a block-reversed copy of each
    differential: the elimination on integer scalars, with nonzero d^0 and
    d^1 on both sides."""
    from hopfcyclic import cli
    monkeypatch.chdir(ROOT)
    code = cli.main(["compute", "ss-pages", "-i", "data/c2_F2.json",
                     "--rmax", "3", "--pmax", "3", "--qmax", "3"])
    with open(os.path.join("tests", "goldens",
                           "ss_pages_c2_F2_r3_p3_q3.json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


# H's unit or counit spoiled in Sweedler's algebra: the unit set to g (as in
# tests/sweedler_Q_bad_unit.json), or either one set to zero, with the Hopf
# axioms each fails
_BAD_UNITS = {
    "unit g": ("unit", [[1, "1"]],
               "left unit, right unit, antipode left, antipode right"),
    "zero unit": ("unit", [], "left unit, right unit, counit of unit, "
                              "antipode left, antipode right"),
    "zero counit": ("counit", [], "left counit, right counit, counit of "
                                  "unit, antipode left, antipode right"),
}


@pytest.mark.parametrize("argv", [
    ["compute", "ss-pages", "--pmax", "1", "--qmax", "1"],
    ["compare", "ez-hochschild", "--nmax", "1"],
], ids=["ss-pages", "ez-hochschild"])
@pytest.mark.parametrize("case", sorted(_BAD_UNITS))
def test_total_complexes_refuse_a_unit_that_is_not_one(case, argv, tmp_path,
                                                       monkeypatch, capsys):
    """The total complexes quotient by the chains with H's unit (on the
    cochain side, counit) in a leg past the first, which is a subcomplex
    only when it is a unit: an H whose unit is g or zero, or whose counit
    is zero, exits 1 with AxiomFailure naming the Hopf axioms it fails, on
    either command.  The unit g is the file of the CI negative control,
    whose reports are recorded."""
    from hopfcyclic import cli
    monkeypatch.chdir(ROOT)
    with open(os.path.join("data", "sweedler_Q.json")) as fh:
        doc = json.load(fh)
    key, value, failed = _BAD_UNITS[case]
    doc["hopf"][key] = value
    path = os.path.join("tests", "sweedler_Q_bad_unit.json")
    with open(path) as fh:
        assert (json.load(fh) == doc) == (case == "unit g")
    if case != "unit g":
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
    code = cli.main(argv[:2] + ["-i", path] + argv[2:])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"] == \
        "AxiomFailure: H fails the Hopf axioms: " + failed
    if case == "unit g":
        golden = {"ss-pages": "ss_pages_bad_unit_sweedler_Q_p1_q1",
                  "ez-hochschild": "ez_hochschild_bad_unit_sweedler_Q_n1"}
        with open(os.path.join("tests", "goldens",
                               golden[argv[1]] + ".json")) as fh:
            assert out == fh.read()


# The block's unit or counit spoiled in Sweedler's comodule algebra and
# module coalgebra: A's unit set to g (as in
# tests/sweedler_Q_bad_block_unit.json) or zero, or C's counit zero, with
# the refusal naming the (co)algebra axioms each fails
_BAD_BLOCK_UNITS = {
    "A unit g": ("algebra", "unit", [[1, "1"]],
                 "A fails the algebra axioms: left unit, right unit"),
    "zero A unit": ("algebra", "unit", [],
                    "A fails the algebra axioms: left unit, right unit"),
    "zero C counit": ("coalgebra", "counit", [],
                      "C fails the coalgebra axioms: left counit, "
                      "right counit"),
}


@pytest.mark.parametrize("argv", [
    ["compute", "ss-pages", "--pmax", "1", "--qmax", "1"],
    ["compare", "ez-hochschild", "--nmax", "1"],
], ids=["ss-pages", "ez-hochschild"])
@pytest.mark.parametrize("case", sorted(_BAD_BLOCK_UNITS))
def test_total_complexes_refuse_a_block_unit_that_is_not_one(
        case, argv, tmp_path, monkeypatch, capsys):
    """The total complexes also quotient by the chains with the block's
    unit (on the cochain side, C's counit) in a leg past the first, a
    subcomplex only when it is a unit: an A whose unit is g or zero, or a
    C whose counit is zero, exits 1 with AxiomFailure naming the failed
    (co)algebra axioms, on either command, where each used to exit 0.  The
    unit g is the file of the CI negative control, whose reports are
    recorded."""
    from hopfcyclic import cli
    monkeypatch.chdir(ROOT)
    with open(os.path.join("data", "sweedler_Q.json")) as fh:
        doc = json.load(fh)
    block, key, value, law = _BAD_BLOCK_UNITS[case]
    doc[block][key] = value
    path = os.path.join("tests", "sweedler_Q_bad_block_unit.json")
    with open(path) as fh:
        assert (json.load(fh) == doc) == (case == "A unit g")
    if case != "A unit g":
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
    code = cli.main(argv[:2] + ["-i", path] + argv[2:])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"] == "AxiomFailure: " + law
    if case == "A unit g":
        golden = {"ss-pages": "ss_pages_bad_block_unit_sweedler_Q_p1_q1",
                  "ez-hochschild": "ez_hochschild_bad_block_unit_sweedler_Q_n1"}
        with open(os.path.join("tests", "goldens",
                               golden[argv[1]] + ".json")) as fh:
            assert out == fh.read()


@st.composite
def _elementary_complexes(draw):
    """(filtered complex, expected pages, rmax, window): a random chain or
    cochain complex given by elementary pieces (d y = x on each pair,
    unpaired generators closed), then hidden by a random filtered change of
    basis per degree.  Both are laid out with q descending, as the total
    complexes are.  A cochain complex (filtered by q >= i) is handed over as
    its transpose in the same coordinates, so a cochain d^r out of a
    position is the rank of d^r into it."""
    field = draw(st.sampled_from([QQ, F2, F3]))
    cochain = draw(st.booleans())
    N = draw(st.integers(min_value=1, max_value=4))
    top = draw(st.integers(min_value=0, max_value=3))
    rnd = draw(st.randoms(use_true_random=False))
    s = 1 if not cochain else -1
    cells, levels = [], []
    for n in range(N + 1):
        row, lev = [], []
        for q in range(top, -1, -1):
            k = rnd.randint(0, 2)
            row.append((n - q, q, len(lev), k))
            lev += [q] * k
        cells.append(row)
        levels.append(lev)
    degrees = range(1, N + 1) if not cochain else range(N)
    used = [set() for _ in range(N + 1)]
    pairs = {n: [] for n in degrees}
    for n in degrees:
        t = n - s
        for y, ly in enumerate(levels[n]):
            free = [x for x, lx in enumerate(levels[t])
                    if x not in used[t] and s * (ly - lx) >= 0]
            if y not in used[n] and free and rnd.random() < 0.7:
                x = rnd.choice(free)
                used[n].add(y)
                used[t].add(x)
                pairs[n].append((y, x))

    def scalar(nonzero=False):
        while True:
            v = field.of(rnd.randint(-2, 2))
            if v or not nonzero:
                return v

    def filtered_basis_change(lev):
        # triangular with a nonzero diagonal, each new basis vector a sum of
        # coordinates no later in the filtration: each coordinate sits at a
        # level no lower than the later ones, so lower triangular for a chain
        # complex (q <= i) and upper for a cochain one (q >= i); times a
        # lower unitriangular mix inside each level
        m = len(lev)
        tri = {(a, b): scalar(a == b) for b in range(m) for a in range(m)
               if s * (a - b) >= 0}
        mix = {(a, b): scalar() if a > b and lev[a] == lev[b] else int(a == b)
               for a in range(m) for b in range(m)}
        return SparseMatrix(field, m, m, tri) @ SparseMatrix(field, m, m, mix)

    g = [filtered_basis_change(lev) for lev in levels]
    dims = [len(lev) for lev in levels]
    d = {}
    for n in degrees:
        t = n - s
        normal = SparseMatrix(field, dims[t], dims[n],
                              {(x, y): 1 for y, x in pairs[n]})
        d[n] = g[t] @ normal @ invert(g[n])
    if cochain:
        d = {n + 1: m.transpose() for n, m in d.items()}
    fc = FilteredComplex(field, dims, d, cells, N)

    rmax = rnd.randint(0, top + 1)
    gap = [{} for _ in range(N + 1)]
    chain_pairs = []  # (column degree, column level, row level, gap)
    for n in degrees:
        for y, x in pairs[n]:
            g = s * (levels[n][y] - levels[n - s][x])
            gap[n][y] = gap[n - s][x] = g
            if cochain:
                chain_pairs.append((n + 1, levels[n + 1][x], levels[n][y], g))
            else:
                chain_pairs.append((n, levels[n][y], levels[n - 1][x], g))
    want = []
    for r in range(rmax + 1):
        table, ranks, ranks_in = {}, {}, {}
        for i in range(top + 1):
            for j in range(N):
                n = i + j
                if n > N - 1:
                    continue
                table[(i, j)] = sum(
                    1 for c, lc in enumerate(levels[n])
                    if lc == i and gap[n].get(c, r) >= r)
                ranks[(i, j)] = sum(1 for m, lc, _, g in chain_pairs
                                    if (m, lc, g) == (n, i, r))
                ranks_in[(i, j)] = sum(1 for m, _, lr, g in chain_pairs
                                       if (m, lr, g) == (n + 1, i, r))
        want.append((r, table, ranks, ranks_in))
    return fc, want, rmax, (top, N - 1)


@given(_elementary_complexes())
@settings(max_examples=80, deadline=None)
def test_pages_of_random_filtered_complexes(case):
    fc, want, rmax, window = case
    assert check_filtration(fc)
    got = spectral_pages(fc, rmax, window)
    assert [(p.r, p.table, p.diff_ranks, p.diff_ranks_in) for p in got] == want
    assert _same_pages(oracle_pages(fc, rmax, window), got)


# -- negative controls: filtrations that are not filtrations ------------------------

def _two_level_complex(d_entries, cells0=((-1, 1, 0, 1), (0, 0, 1, 1))):
    """T_1 = one generator at level 0, T_0 = the given cells (by default q
    descending: row 0 at level 1, row 1 at level 0); d_1 as given."""
    cells = [list(cells0), [(1, 0, 0, 1)]]
    d = {1: SparseMatrix(QQ, 2, 1, d_entries)}
    return FilteredComplex(QQ, [2, 1], d, cells, 1)


def test_d_leaving_the_filtration_is_refused():
    fc = _two_level_complex({(0, 0): 1})  # level 0 -> level 1
    with pytest.raises(FiltrationViolation, match="d leaves F_0"):
        check_filtration(fc)
    with pytest.raises(FiltrationViolation, match="d leaves F_0"):
        spectral_pages(fc, 1, (1, 0))
    # level 0 -> levels 1 and 0: the column's last row stays, its first leaves
    with pytest.raises(FiltrationViolation, match="d leaves F_0 at degree 1"):
        check_filtration(_two_level_complex({(0, 0): 1, (1, 0): 1}))
    assert check_filtration(_two_level_complex({(1, 0): 1}))


@pytest.mark.parametrize("cells1", [
    [(0, 1, 0, 2), (1, 0, 1, 1)],  # coordinate 1 at levels 1 and 0
    [(0, 1, 0, 1), (1, 0, 2, 1)],  # coordinate 1 in no cell
    [(0, 1, 0, 1)],                # coordinate 1 in no cell, at the end
], ids=["overlap", "gap", "short"])
def test_cells_that_do_not_tile_the_degree_are_refused(cells1):
    """Cells of T_1 (dimension 2) that overlap or leave out a coordinate: no
    level per coordinate exists, so neither the check nor the pages read
    them (an overlap counted on its cells gives E^0 three generators in
    degree 1)."""
    cells = [[(0, 0, 0, 1)], cells1, [(1, 1, 0, 1)]]
    d = {1: SparseMatrix(QQ, 1, 2, {}), 2: SparseMatrix(QQ, 2, 1, {})}
    fc = FilteredComplex(QQ, [1, 2, 1], d, cells, 2)
    for check in (lambda: check_filtration(fc),
                  lambda: spectral_pages(fc, 1, (1, 1))):
        with pytest.raises(FiltrationViolation,
                           match="not exhaustive at degree 1"):
            check()


def test_coordinate_order_that_does_not_refine_the_filtration_is_refused():
    """T_0 laid out q ascending: d keeps the filtration, but the coordinate
    order does not refine the dual filtration q >= i."""
    fc = _two_level_complex({(0, 0): 1},
                            cells0=((0, 0, 0, 1), (-1, 1, 1, 1)))
    with pytest.raises(FiltrationViolation, match="does not refine"):
        spectral_pages(fc, 1, (1, 0))
