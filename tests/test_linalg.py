"""Exact linear algebra: rank / kernel / image / homology bookkeeping."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from hopfcyclic.errors import CompositionNotZero
from hopfcyclic.fields import Field
from hopfcyclic.io import _map_matrix, _map_pairs
from hopfcyclic.linalg import (
    SparseMatrix, Subspace, _echelonize, homology_dim, image, invert, kernel,
    rank, solve,
)

QQ = Field.rationals()
F2 = Field.prime(2)


def test_field_parse_roundtrip():
    assert QQ.parse("-3/6") == QQ.parse("-1/2")
    assert QQ.to_str(QQ.parse("4/2")) == "2"
    assert F2.parse("3") == 1
    assert F2.parse("1/1") == 1
    with pytest.raises(ValueError):
        Field.prime(6)
    # Q: integral scalars are native ints, true fractions stay Fraction
    for x in (QQ.zero(), QQ.one(), QQ.of(3), QQ.parse("4/2"), QQ.inv(-1),
              QQ.of(Fraction(6, 3))):
        assert type(x) is int
    assert QQ.parse("4/2") == 2 and QQ.inv(-1) == -1
    for x in (QQ.parse("1/2"), QQ.inv(2)):
        assert type(x) is Fraction and x == Fraction(1, 2)
    assert QQ.is_one(QQ.of(Fraction(2, 2)))
    assert QQ.is_one(QQ.mul(QQ.inv(2), 2))
    # F_2: every result stays reduced in [0, 2)
    for x in (F2.zero(), F2.one(), F2.of(-3), F2.of(Fraction(1, 3)),
              F2.parse("5"), F2.parse("-1/3"), F2.inv(1), F2.add(1, 1),
              F2.sub(0, 1), F2.neg(1), F2.mul(1, 1)):
        assert type(x) is int and 0 <= x < 2


def test_rank_empty_matrix():
    m = SparseMatrix.zeros(QQ, 0, 0)
    assert rank(m) == 0


def test_rank_identity():
    assert rank(SparseMatrix.identity(QQ, 3)) == 3


def test_rank_ones_over_f2():
    m = SparseMatrix.from_rows(F2, [[1, 1], [1, 1]])
    assert rank(m) == 1


def test_kernel_identity_and_zero():
    assert kernel(SparseMatrix.identity(QQ, 4)).dim == 0
    assert kernel(SparseMatrix.zeros(QQ, 2, 3)).dim == 3


def test_kernel_row_vector():
    m = SparseMatrix.from_rows(QQ, [[1, 1]])
    k = kernel(m)
    assert k.dim == 1
    # span{(1, -1)} in echelon form
    assert k.basis == [{0: QQ.one(), 1: QQ.of(-1)}]


def test_image_cases():
    assert image(SparseMatrix.zeros(QQ, 3, 2)).dim == 0
    assert image(SparseMatrix.identity(QQ, 3)).dim == 3
    col = SparseMatrix.from_rows(QQ, [[1], [1]])
    im = image(col)
    assert im.dim == 1 and im.basis == [{0: QQ.one(), 1: QQ.one()}]


def test_homology_point_complex():
    z = SparseMatrix.zeros(QQ, 1, 1)
    assert homology_dim(z, z) == 1


def test_homology_id_kills():
    i1 = SparseMatrix.identity(QQ, 1)
    z = SparseMatrix.zeros(QQ, 1, 1)
    assert homology_dim(i1, z) == 0


def test_homology_two_step():
    # k <-(0)- k <-(id)- k : middle homology 0
    z = SparseMatrix.zeros(QQ, 1, 1)
    i1 = SparseMatrix.identity(QQ, 1)
    assert homology_dim(z, i1) == 0


def test_homology_rejects_nonzero_composition():
    i1 = SparseMatrix.identity(QQ, 1)
    with pytest.raises(CompositionNotZero):
        homology_dim(i1, i1)


def _random_matrix(field, rows, cols, rng, density=0.4):
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = field.of(rng.randint(-3, 3))
                if not field.is_zero(v):
                    ent[(i, j)] = v
    return SparseMatrix(field, rows, cols, ent)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    for field in (QQ, F2):
        m = _random_matrix(field, rows, cols, rng)
        assert rank(m) + kernel(m).dim == cols


def test_image_inside_kernel_when_composition_zero():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_matrix(QQ, 4, 3, rng)
        k = kernel(m)
        # build N with columns spanned by kernel vectors, so M @ N = 0
        cols = [k.basis[i % max(k.dim, 1)] if k.dim else {} for i in range(2)]
        ent = {}
        for j, c in enumerate(cols):
            for i, v in c.items():
                ent[(i, j)] = v
        n = SparseMatrix(QQ, 3, 2, ent)
        assert (m @ n).is_zero()
        for j in range(2):
            assert k.contains(n.column(j))
        assert all(image(n).contains(b) for b in image(n).basis)


def test_subspace_sum_and_coefficients():
    a = Subspace(QQ, 3, [{0: QQ.one()}])
    b = Subspace(QQ, 3, [{1: QQ.one()}])
    s = a.sum(b)
    assert s.dim == 2
    coeffs = s.coefficients({0: QQ.of(2), 1: QQ.of(-5)})
    assert coeffs == [QQ.of(2), QQ.of(-5)]
    assert s.coefficients({2: QQ.one()}) is None


def test_solve_and_invert():
    m = SparseMatrix.from_rows(QQ, [[2, 1], [1, 1]])
    x = solve(m, {0: QQ.of(3), 1: QQ.of(2)})
    assert m.apply(x) == {0: QQ.of(3), 1: QQ.of(2)}
    inv = invert(m)
    assert inv @ m == SparseMatrix.identity(QQ, 2)
    sing = SparseMatrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert invert(sing) is None


def test_invert_true_fractions_round_trip_through_io():
    m = SparseMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    inv = invert(m)
    assert inv == SparseMatrix.from_rows(
        QQ, [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
    assert inv @ m == SparseMatrix.identity(QQ, 2)
    assert [[QQ.to_str(v) for v in r] for r in inv.to_rows()] == [
        ["-2", "1"], ["3/2", "-1/2"]]
    assert _map_matrix(QQ, _map_pairs(QQ, inv), 2) == inv


_ORACLE_ENTRIES = (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2),
                   Fraction(3, 2), Fraction(-3, 2))


@st.composite
def _small_q_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = rows if draw(st.booleans()) else draw(
        st.integers(min_value=0, max_value=6))
    dense = [[draw(st.sampled_from(_ORACLE_ENTRIES)) for _ in range(cols)]
             for _ in range(rows)]
    return rows, cols, dense


@given(_small_q_matrices())
@settings(max_examples=80, deadline=None)
def test_q_elimination_agrees_with_sympy(drawn):
    """rank / kernel / invert over mixed int and Fraction entries vs sympy."""
    rows, cols, dense = drawn
    ent = {(i, j): QQ.of(v) for i, r in enumerate(dense)
           for j, v in enumerate(r) if v != 0}
    m = SparseMatrix(QQ, rows, cols, ent)
    ref = sympy.zeros(rows, cols)
    for (i, j), v in ent.items():
        ref[i, j] = sympy.Rational(v.numerator, v.denominator)
    ref_rank = ref.rank()
    assert rank(m) == ref_rank
    k = kernel(m)
    assert k.dim == cols - ref_rank
    for b in k.basis:
        assert m.apply(b) == {}
    inv = invert(m)
    if rows != cols or ref.det() == 0:
        assert inv is None
    else:
        ref_inv = ref.inv()
        assert inv is not None
        for i in range(rows):
            for j in range(cols):
                r = ref_inv[i, j]
                assert inv[(i, j)] == Fraction(int(r.p), int(r.q))


_ORACLE_FIELDS = (QQ, F2, Field.prime(3), Field.prime(5))


@st.composite
def _sparse_matrices(draw):
    """A field and a sparse matrix over it, with zero and duplicate rows."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    values = _ORACLE_ENTRIES if field.p is None else (0, 0, 0, 1, -1, 2, 3, 4)
    rows = draw(st.integers(min_value=0, max_value=8))
    cols = draw(st.integers(min_value=0, max_value=8))
    dense = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("zero", "duplicate", "sparse", "sparse")))
        if kind == "zero":
            dense.append([0] * cols)
        elif kind == "duplicate" and dense:
            dense.append(list(draw(st.sampled_from(dense))))
        else:
            dense.append([draw(st.sampled_from(values)) for _ in range(cols)])
    ent = {(i, j): field.of(v) for i, r in enumerate(dense)
           for j, v in enumerate(r) if not field.is_zero(field.of(v))}
    return field, SparseMatrix(field, rows, cols, ent)


def _domain(field):
    return sympy.QQ if field.p is None else sympy.GF(field.p, symmetric=False)


def _to_domain(m):
    dom = _domain(m.field)
    rows = [[dom(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = dom(v.numerator, v.denominator) \
            if m.field.p is None else dom(v)
    return DomainMatrix(rows, (m.rows, m.cols), dom)


def _from_domain_rows(field, dm):
    """The nonzero rows of a DomainMatrix as dict-vectors over field."""
    out = []
    for row in dm.to_list():
        vec = {}
        for j, x in enumerate(row):
            v = (Fraction(int(x.numerator), int(x.denominator))
                 if field.p is None else int(x))
            v = field.of(v)
            if not field.is_zero(v):
                vec[j] = v
        if vec:
            out.append(vec)
    return out


@given(_sparse_matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_agrees_with_sympy_domain_matrix(drawn):
    """rank, kernel and the reduced echelon basis against sympy over Q and
    GF(2), GF(3), GF(5)."""
    field, m = drawn
    ref = _to_domain(m)
    assert rank(m) == ref.rank() == len(_echelonize(field, m.row_dicts())[0])
    rref, pivots = ref.rref()
    sub = Subspace(field, m.cols, m.row_dicts())
    assert sub.pivots == list(pivots)
    assert sub.basis == _from_domain_rows(field, rref)
    ker = kernel(m)
    null = ref.nullspace()
    if null.shape[0]:
        assert ker.basis == _from_domain_rows(field, null.rref()[0])
    else:
        assert ker.dim == 0
    assert ker.dim == m.cols - ref.rank()


def test_echelonize_pivot_rule():
    """Leftmost column, then the sparsest candidate, then input order; the
    forward pass leaves entries above the pivots in place."""
    m = SparseMatrix.from_rows(QQ, [[2, 2, 2, 0],
                                    [1, 0, 1, 0],
                                    [0, 3, 0, 1]])
    pivots, rows = _echelonize(QQ, m.row_dicts())
    # row 1 is the sparsest holder of column 0; row 0 reduces to (0, 2, 0, 0)
    assert pivots == [0, 1, 3]
    assert rows == [{0: 1, 2: 1}, {1: 1}, {3: 1}]
    assert rank(m) == len(pivots) == 3
    tie = SparseMatrix.from_rows(QQ, [[0, 2, 0, 3],
                                      [1, 1, 0, 0],
                                      [1, 0, 2, 0]])
    pivots, rows = _echelonize(QQ, tie.row_dicts())
    assert pivots == [0, 1, 2]
    assert rows[0] == {0: 1, 1: 1}
    assert rank(tie) == len(pivots) == 3
    assert Subspace(QQ, 4, tie.row_dicts()).basis == [
        {0: 1, 3: Fraction(-3, 2)}, {1: 1, 3: Fraction(3, 2)},
        {2: 1, 3: Fraction(3, 4)}]


def test_matmul_and_kron_shapes():
    a = SparseMatrix.from_rows(QQ, [[1, 2], [0, 1]])
    b = SparseMatrix.from_rows(QQ, [[1, 0], [1, 1]])
    assert (a @ b).to_rows() == SparseMatrix.from_rows(QQ, [[3, 2], [1, 1]]).to_rows()
    k = a.kron(b)
    assert k.rows == 4 and k.cols == 4
    # leftmost factor varies slowest: k[i1*2+i2, j1*2+j2] = a[i1,j1] b[i2,j2]
    assert k[(0, 0)] == QQ.one() and k[(1, 0)] == QQ.one()
    assert k[(2, 2)] == QQ.one() and k[(0, 1)] == 0 and k[(0, 2)] == QQ.of(2)
