"""Exact linear algebra: rank / kernel / image / homology bookkeeping."""

import random
import time
from fractions import Fraction
from unittest import mock

import elimination_oracle
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from hopfcyclic import linalg
from hopfcyclic.errors import CompositionNotZero
from hopfcyclic.fields import Field, is_prime
from hopfcyclic.io import _map_matrix, _map_pairs
from hopfcyclic.linalg import (
    SparseMatrix, Subspace, _echelonize, _homology_dims, amplify,
    block_matrix, combine, image, invert, kernel, rank, relabel, unit_column,
    widen,
)
from hopfcyclic.tensor import (
    SpaceOps, Spaces, compile_operator, leg, perm_matrix, prod,
)

QQ = Field.rationals()
F2 = Field.prime(2)


def test_is_prime_is_exact_below_its_bound():
    assert [n for n in range(-3, 5000) if is_prime(n)] == \
        list(sympy.primerange(0, 5000))
    # a Carmichael number and strong pseudoprimes to bases 2 and 2, 3, 5, 7
    for n in (561, 2047, 3215031751):
        assert not is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            Field.prime(n)
    start = time.perf_counter()
    assert is_prime(10 ** 18 + 9) and Field.prime(10 ** 18 + 9).p == 10 ** 18 + 9
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="decided exactly"):
        is_prime(2 ** 89 - 1)


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
    assert QQ.of(Fraction(2, 2)) == 1
    assert QQ.mul(QQ.inv(2), 2) == 1
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
    assert _homology_dims([(z, z)]) == [1]


def test_homology_id_kills():
    i1 = SparseMatrix.identity(QQ, 1)
    z = SparseMatrix.zeros(QQ, 1, 1)
    assert _homology_dims([(i1, z)]) == [0]


def test_homology_two_step():
    # k <-(0)- k <-(id)- k : middle homology 0
    z = SparseMatrix.zeros(QQ, 1, 1)
    i1 = SparseMatrix.identity(QQ, 1)
    assert _homology_dims([(z, i1)]) == [0]


def test_homology_rejects_nonzero_composition():
    i1 = SparseMatrix.identity(QQ, 1)
    with pytest.raises(CompositionNotZero):
        _homology_dims([(i1, i1)])


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
    assert coeffs == {0: QQ.of(2), 1: QQ.of(-5)}
    assert s.coefficients({1: QQ.of(3)}) == {1: QQ.of(3)}
    assert s.coefficients({2: QQ.one()}) is None


def test_invert():
    m = SparseMatrix.from_rows(QQ, [[2, 1], [1, 1]])
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
    assert [[QQ.to_str(inv[i, j]) for j in range(2)] for i in range(2)] == [
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
        assert (m @ SparseMatrix.column_vector(QQ, b, cols)).is_zero()
    inv = invert(m)
    if rows != cols or ref.det() == 0:
        assert inv is None
    else:
        ref_inv = ref.inv()
        assert inv is not None
        _assert_settled(inv)
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


def _domain_rows(field, dm):
    """Every row of a DomainMatrix as a dict-vector over field."""
    return [{j: v for j, x in enumerate(row)
             for v in [field.of(Fraction(int(x.numerator), int(x.denominator))
                                if field.p is None else int(x))] if v}
            for row in dm.to_list()]


def _from_domain_rows(field, dm):
    """The nonzero rows of a DomainMatrix as dict-vectors over field."""
    return [r for r in _domain_rows(field, dm) if r]


def _from_domain_matrix(field, dm):
    return SparseMatrix(field, *dm.shape, {
        (i, j): v for i, r in enumerate(_domain_rows(field, dm))
        for j, v in r.items()})


def _square_block(m):
    """The leading square block of m."""
    n = min(m.rows, m.cols)
    return SparseMatrix(m.field, n, n, {
        (i, j): v for (i, j), v in m.entries.items() if i < n and j < n})


@given(_sparse_matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_agrees_with_sympy_domain_matrix(drawn):
    """rank, kernel, the reduced echelon basis and the inverse of the leading
    square block against sympy over Q and GF(2), GF(3), GF(5)."""
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
    for space in (sub, ker):
        _assert_settled(space.basis_matrix())
    sq = _square_block(m)
    ref_sq = _to_domain(sq)
    inv = invert(sq)
    if ref_sq.rank() < sq.rows:
        assert inv is None
    else:
        assert inv == _from_domain_matrix(field, ref_sq.inv())
        _assert_settled(inv)


@given(_sparse_matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_one_kernel_agrees_with_the_row_elimination_oracle(drawn, data):
    """rank, echelon pivots, the reduced echelon basis, the kernel basis, the
    inverse and residuals against the bucketed row elimination through Field
    methods (`elimination_oracle`) over Q and GF(2), GF(3), GF(5); a residual
    is 0 at every pivot and differs from its vector by a member of the
    span."""
    field, m = drawn
    assert rank(m) == elimination_oracle.rank(m)
    pivots, basis = elimination_oracle.rref(field, m.row_dicts())
    assert _echelonize(field, m.row_dicts())[0] == pivots
    sub = Subspace(field, m.cols, m.row_dicts())
    assert sub.pivots == pivots and sub.basis == basis
    assert kernel(m).basis == elimination_oracle.kernel_basis(m)
    sq = _square_block(m)
    assert invert(sq) == elimination_oracle.inverse(sq)
    values = _ORACLE_ENTRIES if field.p is None else (0, 1, 2, 3, 4)
    vec = {j: v for j in range(m.cols)
           for v in [field.of(data.draw(st.sampled_from(values)))] if v}
    res = sub.reduce(vec)
    assert res == elimination_oracle.reduce(field, basis, pivots, vec)
    _assert_settled_scalars(field, res.values())
    assert not any(j in res for j in pivots)
    diff = {j: w for j in set(vec) | set(res)
            for w in [field.sub(vec.get(j, 0), res.get(j, 0))] if w}
    assert sub.contains(diff)
    assert elimination_oracle.reduce(field, basis, pivots, diff) == {}


def _column_pairs(m, cleared=()):
    """{column: pivot row} of the reduction of m's columns: the pairs that
    `rank` keeps on m's transpose, whose rows are m's columns."""
    t = m.transpose()
    rank(t, cleared)
    return {j: i for i, j in t._pairs.items()}


@given(_sparse_matrices())
@settings(max_examples=120, deadline=None)
def test_column_pairs_match_the_lower_left_rank_function(drawn):
    """(column j, row i) is a pair exactly when the rank of the block of rows
    >= i and columns <= j jumps there, ranked by sympy (the persistence
    pairing, which no reduction order changes); clearing the columns that
    have no pair leaves the pairs as they are."""
    field, m = drawn
    ref = _to_domain(m)

    def r(i, j):
        return ref[i:, :j + 1].rank() if i < m.rows and j >= 0 else 0

    want = {j: i for i in range(m.rows) for j in range(m.cols)
            if r(i, j) - r(i + 1, j) - r(i, j - 1) + r(i + 1, j - 1) == 1}
    got = _column_pairs(m)
    assert got == want and len(got) == rank(m)
    unpaired = set(range(m.cols)) - set(got)
    assert _column_pairs(m, unpaired) == want


def _random_invertible(field, n, rng):
    """L D U with L unit lower triangular, D a nonzero diagonal and U unit
    upper triangular: invertible by construction."""
    values = _ORACLE_ENTRIES if field.p is None else tuple(range(field.p))
    nonzero = [v for v in values if v]

    def triangle(above):
        return SparseMatrix.from_rows(field, [
            [1 if i == j else rng.choice(values) if (j > i) == above else 0
             for j in range(n)] for i in range(n)])

    diag = SparseMatrix.from_rows(field, [
        [rng.choice(nonzero) if i == j else 0 for j in range(n)]
        for i in range(n)])
    return triangle(False) @ diag @ triangle(True)


@st.composite
def _complexes(draw):
    """A chain complex C_0 <- C_1 <- ... <- C_(L+1) with known homology.

    d_n = Q_(n-1) E_n Q_n^(-1), each Q_n a random invertible matrix and
    E_n a direct sum of elementary k -> k pieces: rank(d_n) of C_n's
    coordinates, chosen at random, each sent to a nonzero multiple of its
    own coordinate of C_(n-1), among those no piece of E_(n-1) leaves.
    Returns (field, dims, {n: d_n}, ranks, betti) with betti[n] = dim H_n
    for n <= L."""
    field = draw(st.sampled_from((QQ, F2, Field.prime(3))))
    top = draw(st.integers(min_value=1, max_value=4))  # L
    ranks = [0] + [draw(st.integers(min_value=0, max_value=3))
                   for _ in range(top + 1)] + [0]
    betti = [draw(st.integers(min_value=0, max_value=2))
             for _ in range(top + 2)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    dims = [ranks[n] + ranks[n + 1] + betti[n] for n in range(top + 2)]
    sources, targets = [], []
    for n, dim in enumerate(dims):
        coords = rng.sample(range(dim), dim)
        sources.append(coords[:ranks[n]])
        targets.append(coords[ranks[n]:ranks[n] + ranks[n + 1]])
    nonzero = [v for v in (_ORACLE_ENTRIES if field.p is None
                           else range(field.p)) if v]
    Q = [_random_invertible(field, dim, rng) for dim in dims]
    d = {}
    for n in range(1, top + 2):
        elementary = SparseMatrix(field, dims[n - 1], dims[n], {
            (t, s): field.of(rng.choice(nonzero))
            for s, t in zip(sources[n], targets[n - 1])})
        d[n] = Q[n - 1] @ elementary @ elimination_oracle.inverse(Q[n])
    return field, dims, d, ranks, betti[:top + 1]


def _chain_pairs(field, dims, d):
    """(d_n, d_(n+1)) for n = 0..L, d_0 the zero map out of C_0."""
    return [(SparseMatrix.zeros(field, 0, dims[0]), d[1])] + \
        [(d[n], d[n + 1]) for n in range(1, len(d))]


@given(_complexes())
@settings(max_examples=100, deadline=None)
def test_cleared_ranks_give_the_known_homology(drawn):
    """`_homology_dims` returns the Betti numbers the complex was built
    with; each rank equals the row elimination oracle's and the pairs kept
    equal those of an uncleared reduction; the rows of d_n fed to the
    reduction are exactly its nonzero rows less the pivots of d_(n-1)."""
    field, dims, d, ranks, betti = drawn
    fed = []
    reduce_columns = linalg._reduce_columns

    def spy(field, columns):
        fed.append({k for k, _ in columns})
        return reduce_columns(field, columns)

    with mock.patch.object(linalg, "_reduce_columns", spy):
        assert _homology_dims(_chain_pairs(field, dims, d)) == betti
    assert fed[0] == set() and len(fed) == len(d) + 1
    pivots = {}
    for n in range(1, len(d) + 1):
        m = d[n]
        assert rank(m) == elimination_oracle.rank(m) == ranks[n]
        full = SparseMatrix(field, m.rows, m.cols, m.entries)
        rank(full)
        assert m._pairs == full._pairs
        assert fed[n] == {i for i, _ in m.entries} - set(pivots)
        pivots = m._pairs


@given(_complexes(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_nonzero_composite_raises_at_its_first_pair(drawn, data):
    """One entry of one d_k is bumped by 1.  If some composite is then
    nonzero, CompositionNotZero is raised at the first such pair, with the
    first nonzero entry in its text, and no later pair is drawn.  Either
    way every rank, the ones kept on the matrices included, equals the
    oracle's: no clearing runs before its composite is checked."""
    field, dims, d, _, _ = drawn
    k = data.draw(st.integers(min_value=1, max_value=len(d)))
    m = d[k]
    i = data.draw(st.integers(min_value=0, max_value=m.rows - 1)) \
        if m.rows else None
    j = data.draw(st.integers(min_value=0, max_value=m.cols - 1)) \
        if m.cols else None
    if i is not None and j is not None:
        d[k] = m + SparseMatrix(field, m.rows, m.cols, {(i, j): 1})
    pairs = _chain_pairs(field, dims, d)
    composites = [a @ b for a, b in pairs]
    first = next((n for n, c in enumerate(composites) if not c.is_zero()),
                 None)
    drawn_pairs = []

    def lazy():
        for pair in pairs:
            drawn_pairs.append(pair)
            yield pair

    if first is None:
        got = _homology_dims(lazy())
        r = [0] + [elimination_oracle.rank(d[n]) for n in range(1, len(d) + 1)]
        assert got == [dims[n] - r[n] - r[n + 1] for n in range(len(d))]
    else:
        with pytest.raises(CompositionNotZero) as err:
            _homology_dims(lazy())
        assert str(err.value) == "d.d != 0 first at %s" % (
            min(composites[first].entries),)
        assert len(drawn_pairs) == first + 1
    for m in d.values():
        assert rank(m) == elimination_oracle.rank(m)


def test_column_pairs_pivot_rule():
    """The pivot is the last nonzero row; a column is reduced only by
    earlier columns, fraction-free over Q."""
    m = SparseMatrix.from_rows(QQ, [[1, 0, 1],
                                    [Fraction(1, 2), 2, 0],
                                    [3, 2, 0]])
    # column 1 clears row 2 against column 0 and stops at row 1
    assert _column_pairs(m) == {0: 2, 1: 1, 2: 0}
    assert _column_pairs(m, cleared={0}) == {1: 2, 2: 0}


def test_echelonize_pivot_rule():
    """Rows are taken in input order, each reduced only by earlier ones: its
    pivot is its leftmost column once no earlier pivot row holds that
    column.  Kept rows are scaled to pivot 1 and sorted by pivot; entries
    above a pivot are left in place."""
    m = SparseMatrix.from_rows(QQ, [[2, 2, 2, 0],
                                    [1, 0, 1, 0],
                                    [0, 3, 0, 1]])
    pivots, rows = _echelonize(QQ, m.row_dicts())
    # row 0 holds column 0 first; row 1 reduces against it to (0, -1, 0, 0)
    assert pivots == [0, 1, 3]
    assert rows == [{0: 1, 1: 1, 2: 1}, {1: 1}, {3: 1}]
    assert rank(m) == len(pivots) == 3
    tie = SparseMatrix.from_rows(QQ, [[0, 2, 0, 3],
                                      [1, 1, 0, 0],
                                      [1, 0, 2, 0]])
    pivots, rows = _echelonize(QQ, tie.row_dicts())
    # row 2 reduces against row 1, then against row 0, to pivot column 2
    assert pivots == [0, 1, 2]
    assert rows == [{0: 1, 1: 1}, {1: 1, 3: Fraction(3, 2)},
                    {2: 1, 3: Fraction(3, 4)}]
    assert rank(tie) == len(pivots) == 3
    assert Subspace(QQ, 4, tie.row_dicts()).basis == [
        {0: 1, 3: Fraction(-3, 2)}, {1: 1, 3: Fraction(3, 2)},
        {2: 1, 3: Fraction(3, 4)}]


def test_matmul_and_kron_shapes():
    a = SparseMatrix.from_rows(QQ, [[1, 2], [0, 1]])
    b = SparseMatrix.from_rows(QQ, [[1, 0], [1, 1]])
    assert (a @ b).entries == {(0, 0): 3, (0, 1): 2, (1, 0): 1, (1, 1): 1}
    k = a.kron(b)
    assert k.rows == 4 and k.cols == 4
    # leftmost factor varies slowest: k[i1*2+i2, j1*2+j2] = a[i1,j1] b[i2,j2]
    assert k[(0, 0)] == QQ.one() and k[(1, 0)] == QQ.one()
    assert k[(2, 2)] == QQ.one() and k[(0, 1)] == 0 and k[(0, 2)] == QQ.of(2)


def test_field_arithmetic_demotes_integral_fractions():
    half = Fraction(1, 2)
    assert type(QQ.add(half, half)) is int and QQ.add(half, half) == 1
    assert type(QQ.sub(Fraction(3, 2), half)) is int
    assert type(QQ.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(QQ.neg(Fraction(4, 2))) is int and QQ.neg(Fraction(4, 2)) == -2
    assert type(QQ.add(half, 1)) is Fraction
    # the reduced echelon bases of `test_echelonize_pivot_rule` once held
    # Fraction(1, 1) entries
    for dense in ([[2, 2, 2, 0], [1, 0, 1, 0], [0, 3, 0, 1]],
                  [[0, 2, 0, 3], [1, 1, 0, 0], [1, 0, 2, 0]]):
        m = SparseMatrix.from_rows(QQ, dense)
        for row in Subspace(QQ, 4, m.row_dicts()).basis:
            for v in row.values():
                assert type(v) is int or v.denominator > 1


def test_products_of_half_integer_matrices_store_ints():
    a = SparseMatrix.from_rows(QQ, [["1/2", "1/2"], ["1/2", "-1/2"]])
    b = SparseMatrix.from_rows(QQ, [["1/2", "3/2"], ["1/2", "3/2"]])
    prod_ab = a @ b
    assert prod_ab.entries == {(0, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)}
    twice = SparseMatrix.from_rows(QQ, [[2, 0], [0, 2]])
    for m in (twice @ a, a @ twice, a.kron(twice), twice.kron(a)):
        assert m.entries and all(type(v) is int for v in m.entries.values())


def _dense(m):
    return [[m[(i, j)] for j in range(m.cols)] for i in range(m.rows)]


def _ref_matmul(field, a, b, rows, inner, cols):
    out = [[field.zero()] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for t in range(inner):
                out[i][j] = field.add(out[i][j], field.mul(a[i][t], b[t][j]))
    return out


def _ref_kron(field, a, b):
    return [[field.mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def _assert_settled_scalars(field, values):
    for v in values:
        assert v != 0
        if field.p is None:
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
        else:
            assert type(v) is int and 0 < v < field.p


def _assert_settled(m):
    """The stored-entry invariant: keys in bounds, values settled."""
    for i, j in m.entries:
        assert 0 <= i < m.rows and 0 <= j < m.cols
    _assert_settled_scalars(m.field, m.entries.values())


@st.composite
def _product_operands(draw):
    """Two multipliable matrices, and whether their product must vanish:
    half of the time the pair is [A | A], [B; -B], which cancels entry by
    entry."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    values = _ORACLE_ENTRIES if field.p is None else (0, 0, 1, 2, 3, 4)
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=5))
                         for _ in range(3))

    def matrix(r, c):
        dense = [[field.of(draw(st.sampled_from(values))) for _ in range(c)]
                 for _ in range(r)]
        return SparseMatrix(field, r, c, {
            (i, j): v for i, row in enumerate(dense)
            for j, v in enumerate(row) if not field.is_zero(v)})

    a, b = matrix(rows, inner), matrix(inner, cols)
    cancels = draw(st.booleans())
    if cancels:
        a = SparseMatrix(field, rows, 2 * inner, {
            **a.entries,
            **{(i, j + inner): v for (i, j), v in a.entries.items()}})
        b = SparseMatrix(field, 2 * inner, cols, {
            **b.entries,
            **{(i + inner, j): field.neg(v) for (i, j), v in b.entries.items()}})
    return field, a, b, cancels


@given(_product_operands())
@settings(max_examples=150, deadline=None)
def test_native_products_agree_with_field_reference(drawn):
    """`@` and `kron` against dense loops through Field methods over Q
    (mixed int / Fraction), GF(2), GF(3) and GF(5); nothing stored is zero."""
    field, a, b, cancels = drawn
    ab = a @ b
    assert _dense(ab) == _ref_matmul(field, _dense(a), _dense(b),
                                     a.rows, a.cols, b.cols)
    _assert_settled(ab)
    if cancels:
        assert ab.is_zero()
    for x, y in ((a, b), (b, a)):
        k = x.kron(y)
        assert (k.rows, k.cols) == (x.rows * y.rows, x.cols * y.cols)
        assert _dense(k) == _ref_kron(field, _dense(x), _dense(y))
        _assert_settled(k)
    for m in (a, b, ab):
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert _dense(t) == [[m[(i, j)] for i in range(m.rows)]
                             for j in range(m.cols)]
        _assert_settled(t)


def test_public_constructor_checks_outside_input():
    with pytest.raises(IndexError):
        SparseMatrix(QQ, 2, 2, {(2, 0): 1})
    with pytest.raises(IndexError):
        SparseMatrix(QQ, 2, 2, {(0, -1): 1})
    m = SparseMatrix(QQ, 2, 2, {(0, 0): 0, (1, 1): Fraction(0), (0, 1): 3})
    assert m.entries == {(0, 1): 3}
    assert SparseMatrix(F2, 1, 1, {(0, 0): 0}).is_zero()
    a, b = SparseMatrix.identity(QQ, 2), SparseMatrix.identity(QQ, 3)
    for bad in (lambda: a + b, lambda: a - b,
                lambda: combine(QQ, 2, 2, [(1, a), (1, b)]),
                lambda: combine(QQ, 3, 3, [(1, a)])):
        with pytest.raises(ValueError, match="shape mismatch"):
            bad()


def test_public_constructor_settles_an_f2_multiple_of_two_to_zero():
    """An entry 2 over F_2 is zero: the matrix is zero and has rank 0."""
    m = SparseMatrix(F2, 1, 1, {(0, 0): 2})
    assert m.entries == {} and m.is_zero()
    assert rank(m) == 0
    assert rank(SparseMatrix(F2, 2, 2, {(0, 0): 1, (1, 1): 4})) == 1


def test_public_constructor_reduces_f_p_entries():
    """An F_2 entry 3 is 1, and so is -1; over F_3 a Fraction is read as
    the field element it names."""
    one = SparseMatrix(F2, 1, 1, {(0, 0): 1})
    assert SparseMatrix(F2, 1, 1, {(0, 0): 3}) == one
    assert SparseMatrix(F2, 1, 1, {(0, 0): -1}).entries == {(0, 0): 1}
    f3 = Field.prime(3)
    assert SparseMatrix(f3, 1, 1, {(0, 0): Fraction(1, 2)}).entries \
        == {(0, 0): 2}


def test_public_constructor_stores_integral_rationals_as_ints():
    """Fraction(4, 2) over Q is stored as the int 2, as every computed
    entry is; a true fraction stays a Fraction."""
    m = SparseMatrix(QQ, 1, 2,
                     {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert m.entries[(0, 0)].__class__ is int and m.entries[(0, 0)] == 2
    assert m.entries[(0, 1)] == Fraction(1, 2)
    assert m == SparseMatrix._settled(QQ, 1, 2, {(0, 0): 2,
                                                 (0, 1): Fraction(1, 2)})


def test_block_matrix_checks_block_shapes():
    one = SparseMatrix.identity(QQ, 1)
    assert block_matrix(QQ, {(0, 0): one, (1, 1): -one}, [1, 1], [1, 1]) \
        == SparseMatrix.from_rows(QQ, [[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="block"):
        block_matrix(QQ, {(0, 0): SparseMatrix.identity(QQ, 2)}, [1], [2])


def _ref_combine(field, rows, cols, terms):
    out = [[field.zero()] * cols for _ in range(rows)]
    for c, m in terms:
        c = field.of(c)
        for i in range(rows):
            for j in range(cols):
                out[i][j] = field.add(out[i][j], field.mul(c, m[(i, j)]))
    return out


def _ref_apply(field, m, vec):
    out = {}
    for i in range(m.rows):
        w = field.zero()
        for j, c in vec.items():
            w = field.add(w, field.mul(m[(i, j)], c))
        if not field.is_zero(w):
            out[i] = w
    return out


@st.composite
def _sum_terms(draw):
    """A field, a shape and (coefficient, matrix) terms; half of the time
    every term is followed by its negative, so the sum cancels to zero."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    values = _ORACLE_ENTRIES if field.p is None else (0, 0, 1, -1, 2, 3, 4)
    coeffs = _ORACLE_ENTRIES if field.p is None else (0, 1, -1, 2, -2, 3, 7)
    rows, cols = (draw(st.integers(min_value=0, max_value=5))
                  for _ in range(2))

    def matrix():
        return SparseMatrix(field, rows, cols, {
            (i, j): field.of(v) for i in range(rows) for j in range(cols)
            for v in [draw(st.sampled_from(values))] if v != 0})

    terms = [(draw(st.sampled_from(coeffs)), matrix())
             for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    cancels = draw(st.booleans())
    if cancels:
        terms = [t for c, m in terms for t in ((c, m), (-c, m))]
    vec = {j: field.of(v) for j in range(cols)
           for v in [draw(st.sampled_from(values))] if v != 0}
    return field, rows, cols, terms, cancels, vec


@given(_sum_terms())
@settings(max_examples=150, deadline=None)
def test_sums_agree_with_field_reference(drawn):
    """`combine`, `+`, `-`, unary `-`, `scale` and the product with a
    column vector against dense loops through Field methods over Q (mixed
    int / Fraction), GF(2), GF(3) and GF(5), with negative coefficients and
    cancelling sums; every result keeps the stored-entry invariant."""
    field, rows, cols, terms, cancels, vec = drawn
    total = combine(field, rows, cols, terms)
    assert (total.rows, total.cols) == (rows, cols)
    assert _dense(total) == _ref_combine(field, rows, cols, terms)
    _assert_settled(total)
    if cancels:
        assert total.is_zero()
    mats = [m for _, m in terms] or [SparseMatrix.zeros(field, rows, cols)]
    for a in mats:
        for c in {c for c, _ in terms} | {1, -1}:
            sc = a.scale(field.of(c))
            assert _dense(sc) == _ref_combine(field, rows, cols, [(c, a)])
            _assert_settled(sc)
        neg = -a
        assert _dense(neg) == _ref_combine(field, rows, cols, [(-1, a)])
        _assert_settled(neg)
        out = (a @ SparseMatrix.column_vector(field, vec, cols)).column(0)
        assert out == _ref_apply(field, a, vec)
        assert all(0 <= i < rows for i in out)
        _assert_settled_scalars(field, out.values())
        for b in mats:
            for got, sign in ((a + b, 1), (a - b, -1)):
                assert _dense(got) == _ref_combine(field, rows, cols,
                                                   [(1, a), (sign, b)])
                _assert_settled(got)
        assert (a - a).is_zero()
    ident = SparseMatrix.identity(field, rows)
    assert _dense(ident) == [[int(i == j) for j in range(rows)]
                             for i in range(rows)]
    _assert_settled(ident)
    bm = block_matrix(field, {(0, 0): mats[0], (0, 1): None,
                              (1, 0): mats[-1], (1, 1): ident},
                      [rows, rows], [cols, rows])
    z = [field.zero()] * rows
    assert _dense(bm) == [r + z for r in _dense(mats[0])] \
        + [r + s for r, s in zip(_dense(mats[-1]), _dense(ident))]
    _assert_settled(bm)


@st.composite
def _widen_operands(draw):
    """A field, a matrix whose rows and columns each split into a high and
    a low digit, and the dimension of the factor to pass between them."""
    field = draw(st.sampled_from((QQ, F2, Field.prime(3))))
    values = _ORACLE_ENTRIES if field.p is None else (0, 0, 1, -1, 2)
    r_hi, r_lo, c_hi, c_lo, mid = (draw(st.integers(min_value=1, max_value=3))
                                   for _ in range(5))
    rows, cols = r_hi * r_lo, c_hi * c_lo
    m = SparseMatrix(field, rows, cols, {
        (i, j): field.of(v) for i in range(rows) for j in range(cols)
        for v in [draw(st.sampled_from(values))] if v != 0})
    return m, (r_hi, r_lo), (c_hi, c_lo), mid


@given(_widen_operands())
@settings(max_examples=150, deadline=None)
def test_widen_is_a_permuted_kronecker_product(drawn):
    """widen(m, mid, row_lo, col_lo) against (m (x) I_mid) with its rows
    and columns permuted by `perm_matrix`: the passed factor moves from
    the lowest digit to the one above row_lo (col_lo), over Q, GF(2) and
    GF(3)."""
    m, (r_hi, r_lo), (c_hi, c_lo), mid = drawn
    f = m.field
    rows_in = perm_matrix(f, [r_hi, r_lo, mid], (0, 2, 1))
    cols_out = perm_matrix(f, [c_hi, mid, c_lo], (0, 2, 1))
    want = rows_in @ m.kron(SparseMatrix.identity(f, mid)) @ cols_out
    got = widen(m, mid, r_lo, c_lo)
    assert (got.rows, got.cols) == (m.rows * mid, m.cols * mid)
    assert got == want
    _assert_settled(got)


def _assert_packed(m):
    """The storage invariant: each stored column is a nonempty flat tuple
    (r0, v0, r1, v1, ...) with rows ascending and in bounds, values settled,
    and a column whose one entry is 1 the shared `unit_column`; every view
    agrees with it."""
    for j, col in m.columns.items():
        assert 0 <= j < m.cols and col.__class__ is tuple and col
        rows = col[::2]
        assert list(rows) == sorted(set(rows)) and 0 <= rows[0] \
            and rows[-1] < m.rows
        _assert_settled_scalars(m.field, col[1::2])
        if col[1:] == (1,):
            assert col is unit_column(col[0])
    dense = _dense(m)
    want = {(i, j): v for i, row in enumerate(dense)
            for j, v in enumerate(row) if v != 0}
    assert m.entries == want and m.nnz() == len(want)
    assert m.is_zero() == (not want)
    for j in range(m.cols):
        assert m.column(j) == {i: v for (i, k), v in want.items() if k == j}
    assert m.row_dicts() == [{j: v for (k, j), v in want.items() if k == i}
                             for i in range(m.rows)]


def _snapshot(*ms):
    return [(m, dict(m.columns)) for m in ms]


def _assert_untouched(snap):
    """No column dict changed and every column is the same object."""
    for m, cols in snap:
        assert m.columns == cols
        assert all(m.columns[j] is col for j, col in cols.items())


def _from_dense(field, dense, cols):
    return SparseMatrix(field, len(dense), cols, {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)
        if v != 0})


def _ref_shift(dense, rows, cols, row_of, col_of):
    out = [[0] * cols for _ in range(rows)]
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            out[row_of(i)][col_of(j)] = v
    return out


@st.composite
def _column_operands(draw):
    """A field (Q, GF(2) or GF(3)); a and b whose product has one column
    that cancels (over Q between true fractions); a permutation-like p
    (each column one entry 1); a scaling-like s (each column one entry:
    -1, 2 or 3/2, or plus or minus the inverse of a's first entry in that
    row's column, so a fraction times a fraction may be integral and a
    scaled column may be a unit column); a row order; a 2 x 4 table."""
    field = draw(st.sampled_from((QQ, F2, Field.prime(3))))
    values = _ORACLE_ENTRIES if field.p is None else (0, 0, 1, 2, -1)
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=4))
                         for _ in range(3))

    def dense(r, c):
        return [[field.of(draw(st.sampled_from(values))) for _ in range(c)]
                for _ in range(r)]

    da, db, table = dense(rows, inner), dense(inner, cols), dense(2, 4)
    # [A | A] times [[B, x], [B, -x]]: the last column cancels exactly
    x = [field.of(draw(st.sampled_from(values[3:]))) for _ in range(inner)]
    a = _from_dense(field, [r + r for r in da], 2 * inner)
    b = _from_dense(field, [r + [v] for r, v in zip(db, x)]
                    + [r + [field.neg(v)] for r, v in zip(db, x)], cols + 1)
    image = draw(st.lists(st.integers(min_value=0, max_value=2 * inner - 1),
                          min_size=1, max_size=5))
    p = SparseMatrix(field, 2 * inner, len(image),
                     {(i, j): 1 for j, i in enumerate(image)})
    picks = draw(st.lists(st.integers(min_value=0, max_value=2 * inner - 1),
                          min_size=1, max_size=6))
    scalars = {}
    for j, k in enumerate(picks):
        inv = field.inv(a.columns.get(k, (0, 1))[1])
        scalars[(k, j)] = draw(st.sampled_from(
            (field.neg(field.one()), field.of(2), field.of(Fraction(3, 2)),
             inv, field.neg(inv)) if field.p is None
            else (field.neg(field.one()), inv, field.neg(inv))))
    s = SparseMatrix(field, 2 * inner, len(picks), scalars)
    order = draw(st.permutations(range(rows)))
    return field, a, b, p, s, order, _from_dense(field, table, 4)


@given(_column_operands())
@settings(max_examples=120, deadline=None)
def test_column_storage_agrees_with_dense_oracle(drawn):
    """Every builder and view of the column storage against dense lists
    over Q (true fractions), GF(2) and GF(3): `@` (a cancelled column is
    not stored; a unit column of the right factor is the left factor's
    column object; any other one-entry column scales the left factor's
    column with no entry lost), `kron`, `amplify`, `widen`, `transpose`,
    `combine` (a sum that reaches p is zero), `block_matrix`, `identity`,
    `invert`, the product with a column vector, `relabel` and
    `compile_operator`, each storing a column whose one entry is 1 as the
    shared `unit_column`; `==` and `first_difference` read the columns;
    `@`, `combine`, `rank` and `kernel` leave every column they share
    untouched."""
    f, a, b, p, s, order, table = drawn
    snap = _snapshot(a, b, p, s)
    ab = a @ b
    assert _dense(ab) == _ref_matmul(f, _dense(a), _dense(b),
                                     a.rows, a.cols, b.cols)
    assert b.cols - 1 not in ab.columns
    ap = a @ p
    assert _dense(ap) == _ref_matmul(f, _dense(a), _dense(p),
                                     a.rows, a.cols, p.cols)
    for j, col in p.columns.items():
        assert ap.columns.get(j) is a.columns.get(col[0])
    scaled = a @ s
    assert _dense(scaled) == _ref_matmul(f, _dense(a), _dense(s),
                                         a.rows, a.cols, s.cols)
    for j, (k, v) in s.columns.items():
        assert len(scaled.columns.get(j, ())) == len(a.columns.get(k, ()))
    snap += _snapshot(ab, ap, scaled)
    for m in (a, b, p, s, ab, ap, scaled, ab.transpose() @ a):
        _assert_packed(m)
    k = a.kron(b)
    assert _dense(k) == _ref_kron(f, _dense(a), _dense(b))
    built = [k]
    for left, right in ((1, 1), (2, 1), (1, 2), (2, 3)):
        built.append(amplify(a, left, right))
        assert built[-1] == SparseMatrix.identity(f, left).kron(a).kron(
            SparseMatrix.identity(f, right))
    built += [widen(a, 2, 1, 1), widen(a, 2, a.rows, a.cols)]
    assert built[-2] == a.kron(SparseMatrix.identity(f, 2))
    assert built[-1] == SparseMatrix.identity(f, 2).kron(a)
    built.append(ab.transpose())
    assert _dense(built[-1]) == [list(r) for r in zip(*_dense(ab))]
    # a sum that reaches p cancels: p copies of one matrix over GF(p)
    signs = [1] * f.p if f.p else [1, -1]
    assert combine(f, ab.rows, ab.cols, [(c, ab) for c in signs]).columns \
        == {}
    terms = [(2, a), (-1, a @ SparseMatrix.identity(f, a.cols)), (3, a)]
    built.append(combine(f, a.rows, a.cols, terms))
    assert _dense(built[-1]) == _ref_combine(f, a.rows, a.cols, terms)
    ident = SparseMatrix.identity(f, ab.rows)
    built += [ident, block_matrix(f, {(0, 0): ab, (1, 0): ab, (1, 1): ident},
                                  [ab.rows, ab.rows], [ab.cols, ab.rows])]
    assert _dense(built[-1]) == [r + [0] * ab.rows for r in _dense(ab)] \
        + [r + s for r, s in zip(_dense(ab), _dense(ident))]
    flip = ab.cols - 1
    built.append(relabel(ab, row_of=order.__getitem__,
                         col_of=lambda j: flip - j))
    assert _dense(built[-1]) == _ref_shift(_dense(ab), ab.rows, ab.cols,
                                           order.__getitem__,
                                           lambda j: flip - j)
    vec = {j: f.one() for j in range(0, a.cols, 2)}
    assert (a @ SparseMatrix.column_vector(f, vec, a.cols)).column(0) \
        == _ref_apply(f, a, vec)
    # unit upper triangular, so invertible
    n = a.rows
    upper = _from_dense(f, [[1 if i == j else a[(i, j)] if i < j < a.cols
                             else 0 for j in range(n)] for i in range(n)], n)
    built.append(invert(upper))
    assert built[-1] @ upper == upper @ built[-1] == SparseMatrix.identity(f, n)
    # a 2 x 4 table read as X (x) X -> X, its legs swapped
    spaces = Spaces({"X": SpaceOps(2, mult=table)})
    built.append(compile_operator(f, spaces, [("X", ("id",)), ("X", ("id",))],
                                  [prod(leg(1), leg(0))]))
    assert built[-1] == table @ perm_matrix(f, [2, 2], (1, 0))
    for m in built:
        _assert_packed(m)
    # equality and the first difference read the columns
    assert ab == SparseMatrix(f, ab.rows, ab.cols, ab.entries)
    other = ab + SparseMatrix(f, ab.rows, ab.cols, {(0, flip): 1})
    assert ab != other and ab.first_difference(other) == (0, flip)
    for m in (a, b, p, s, ab, ap, scaled):
        rank(m)
        kernel(m)
    _assert_untouched(snap)
