"""The operator compiler against a materialized reference, its memo and
the compiled operators it keeps across jobs."""

import functools
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hopfcyclic import cli, tensor
from hopfcyclic.fields import Field
from hopfcyclic.hopf import algebra_spaces, coalgebra_spaces
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix, rank
from hopfcyclic.tensor import (
    OPERATOR_BUDGET, Legs, S, Sinv, act, compile_operator, eps, perm_matrix,
    prod, tensor_unindex, unit,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")
CORPUS = ("c2_Q", "c3_Q", "sweedler_Q", "c2_F2")
EVERY_FILE = sorted(f[:-5] for f in os.listdir(DATA) if f.endswith(".json"))
QQ = Field.rationals()


def load(name):
    return load_document(os.path.join(DATA, name + ".json"))


@pytest.fixture
def no_kept_operators():
    """Empty the compiled operators kept across jobs, so that what a test
    counts or finds in a memo does not depend on the tests run before."""
    tensor._operators.clear()


@pytest.fixture
def folds(monkeypatch):
    """The calls of the compiler's fold, one description each."""
    calls = []
    honest = tensor._compile

    def counted(field, spaces, specs, outputs):
        calls.append((specs, outputs))
        return honest(field, spaces, specs, outputs)

    monkeypatch.setattr(tensor, "_compile", counted)
    return calls


# -- reference: kron of output matrices . leg gather . kron of expansions ------

def _identity(field, n):
    return SparseMatrix.identity(field, n)


def _comult_power(field, ops, k):
    """X -> X^(k+1), comultiplying the leftmost factor each time."""
    m = _identity(field, ops.dim)
    for j in range(k):
        m = ops.comult.kron(_identity(field, ops.dim ** j)) @ m
    return m


def _ref_expansion(field, spaces, label, exp):
    ops = spaces[label]
    if exp[0] == "id":
        return _identity(field, ops.dim), [ops.dim]
    if exp[0] == "comult":
        return _comult_power(field, ops, exp[1]), [ops.dim] * (exp[1] + 1)
    k = exp[1]
    hops = spaces["H"]
    if k == 0:
        return _identity(field, ops.dim), [ops.dim]
    # (Delta^(k-1) (x) id) . coaction, equal to the iterated coaction
    m = _comult_power(field, hops, k - 1).kron(_identity(field, ops.dim))
    return m @ ops.coaction, [hops.dim] * k + [ops.dim]


def _ref_product(field, ops, n):
    """X^(n) -> X, bracketed to the right."""
    if n == 0:
        return ops.unit
    if n == 1:
        return _identity(field, ops.dim)
    return ops.mult @ _identity(field, ops.dim).kron(
        _ref_product(field, ops, n - 1))


def _ref_expr(field, spaces, leg_spaces, e):
    """(matrix, slots in reading order, space label) of an expression."""
    tag = e[0]
    if tag == "leg":
        sp = leg_spaces[e[1]]
        return _identity(field, spaces[sp].dim), [e[1]], sp
    if tag in ("S", "Sinv"):
        m, sl, _ = _ref_expr(field, spaces, leg_spaces, e[1])
        h = spaces["H"]
        return (h.antipode if tag == "S" else h.antipode_inv) @ m, sl, "H"
    if tag == "prod":
        parts = [_ref_expr(field, spaces, leg_spaces, x) for x in e[1]]
        sp = parts[0][2]
        mat = _ref_product(field, spaces[sp], len(parts)) @ functools.reduce(
            SparseMatrix.kron, [p[0] for p in parts])
        return mat, [s for p in parts for s in p[1]], sp
    if tag == "act":
        hm, hs, _ = _ref_expr(field, spaces, leg_spaces, e[1])
        cm, cs, sp = _ref_expr(field, spaces, leg_spaces, e[2])
        return spaces[sp].action @ hm.kron(cm), hs + cs, sp
    if tag == "eps":
        m, sl, sp = _ref_expr(field, spaces, leg_spaces, e[1])
        return spaces[sp].counit @ m, sl, "1"
    return spaces[e[1]].unit, [], e[1]


def reference(field, spaces, specs, outputs):
    leg_spaces = Legs(specs).leg_spaces
    expansions, leg_dims = [], []
    for label, exp in specs:
        m, ldims = _ref_expansion(field, spaces, label, exp)
        expansions.append(m)
        leg_dims.extend(ldims)
    outs = [_ref_expr(field, spaces, leg_spaces, e) for e in outputs]
    gather = perm_matrix(field, leg_dims, [s for _, sl, _ in outs for s in sl])
    assert_settled(gather)
    one = SparseMatrix.identity(field, 1)
    return (functools.reduce(SparseMatrix.kron, [m for m, _, _ in outs], one)
            @ gather @ functools.reduce(SparseMatrix.kron, expansions, one))


def assert_settled(m):
    """Every stored key is in bounds and every stored entry is a nonzero
    field scalar in its one form."""
    for i, j in m.entries:
        assert 0 <= i < m.rows and 0 <= j < m.cols
    for v in m.entries.values():
        assert v != 0
        if m.field.p is None:
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
        else:
            assert type(v) is int and 0 < v < m.field.p


# -- descriptions -----------------------------------------------------------------

def algebra_description():
    """Coaction, comult and id expansions; prod, S, Sinv, unit and eps."""
    specs = [("A", ("coaction", 2)), ("H", ("comult", 1)), ("A", ("id",))]
    L = Legs(specs)
    outs = [prod(L.coact(0, 0), L.plain(2)),
            prod(Sinv(L.coact(0, 2)), L.com(1, 1)),
            unit("A"),
            eps(S(L.coact(0, 1))),
            L.com(1, 0)]
    return specs, outs


def coalgebra_description():
    """The action through a product under both antipodes, two adjacent
    bare legs of different spaces, and a counit."""
    specs = [("H", ("comult", 2)), ("C", ("comult", 1)), ("C", ("id",))]
    L = Legs(specs)
    outs = [act(Sinv(prod(L.com(0, 0), S(L.com(0, 2)))), L.com(1, 1)),
            L.plain(2),
            L.com(0, 1),
            eps(L.com(1, 0))]
    return specs, outs


@pytest.mark.parametrize("name", CORPUS)
def test_compile_matches_reference_on_algebra_side(name):
    a = load(name).algebra
    spaces = algebra_spaces(a)
    specs, outs = algebra_description()
    got = compile_operator(a.field, spaces, specs, outs)
    assert got == reference(a.field, spaces, specs, outs)
    assert_settled(got)


@pytest.mark.parametrize("name", CORPUS)
def test_compile_matches_reference_on_coalgebra_side(name):
    c = load(name).coalgebra
    spaces = coalgebra_spaces(c)
    specs, outs = coalgebra_description()
    got = compile_operator(c.field, spaces, specs, outs)
    assert got == reference(c.field, spaces, specs, outs)
    assert_settled(got)


@pytest.mark.parametrize("name", CORPUS)
def test_shared_shape_with_other_slots_compiles_its_own_matrix(
        name, no_kept_operators):
    """Two descriptions with the same expression shapes but other slots:
    the second reuses the memoized expressions and still gets its own
    matrix."""
    a = load(name).algebra
    spaces = algebra_spaces(a)
    specs = [("A", ("id",)), ("A", ("id",)),
             ("H", ("comult", 1)), ("H", ("id",))]
    L = Legs(specs)
    first = [prod(L.plain(0), L.plain(1)),
             prod(L.com(2, 0), S(L.plain(3)), L.com(2, 1))]
    second = [prod(L.plain(1), L.plain(0)),
              prod(L.plain(3), S(L.com(2, 1)), L.com(2, 0))]
    m1 = compile_operator(a.field, spaces, specs, first)
    memo_size = len(spaces.memo)
    m2 = compile_operator(a.field, spaces, specs, second)
    assert len(spaces.memo) == memo_size
    assert m1 == reference(a.field, spaces, specs, first)
    assert m2 == reference(a.field, spaces, specs, second)
    if name == "sweedler_Q":
        assert m1 != m2


def test_memo_belongs_to_one_structure():
    """Equal dimensions and labels, different coactions: each structure's
    spaces compile their own matrix."""
    regular = load("c2_Q").algebra
    trivial = load("c2_Q_trivial").algebra
    assert (regular.dim, regular.hopf.dim) == (trivial.dim, trivial.hopf.dim)
    specs, outs = algebra_description()
    got = {}
    for key, a in (("regular", regular), ("trivial", trivial)):
        spaces = algebra_spaces(a)
        got[key] = compile_operator(a.field, spaces, specs, outs)
        assert got[key] == reference(a.field, spaces, specs, outs)
    assert got["regular"] != got["trivial"]


def test_fresh_spaces_start_with_an_empty_memo(no_kept_operators):
    a = load("sweedler_Q").algebra
    used = algebra_spaces(a)
    specs, outs = algebra_description()
    compile_operator(a.field, used, specs, outs)
    assert used.memo
    fresh = algebra_spaces(a)
    assert fresh.memo == {} and fresh.memo is not used.memo
    assert coalgebra_spaces(load("sweedler_Q").coalgebra).memo == {}


# -- compiled operators kept across jobs -----------------------------------------

_DESCRIPTIONS = {"algebra": (algebra_spaces, algebra_description),
                 "coalgebra": (coalgebra_spaces, coalgebra_description)}


@pytest.mark.parametrize("side", sorted(_DESCRIPTIONS))
@pytest.mark.parametrize("name", EVERY_FILE)
def test_a_hit_equals_a_fresh_compile(name, side, no_kept_operators, folds):
    """A second structure loaded from the same file (new objects, equal
    tables) gets the kept operator without a fold, as a new matrix equal
    to the one a fresh fold makes."""
    make_spaces, description = _DESCRIPTIONS[side]
    specs, outs = description()
    s = getattr(load(name), side)
    first = compile_operator(s.field, make_spaces(s), specs, outs)
    assert len(folds) == 1
    again = getattr(load(name), side)
    spaces = make_spaces(again)
    hit = compile_operator(again.field, spaces, specs, outs)
    assert len(folds) == 1 and spaces.memo == {}
    assert hit is not first
    assert hit == tensor._compile(again.field, make_spaces(again), specs,
                                  outs)
    assert_settled(hit)
    if name in CORPUS:
        assert hit == reference(again.field, spaces, specs, outs)


def test_fields_and_structures_never_share_an_entry(no_kept_operators):
    """c2_Q and c2_F2 have equal integer tables, c2_Q and c2_Q_trivial equal
    dimensions: each gets its own entry, and the F_2 operator is settled
    mod 2."""
    specs, outs = algebra_description()
    got = {}
    for name in ("c2_Q", "c2_F2", "c2_Q_trivial"):
        a = load(name).algebra
        spaces = algebra_spaces(a)
        got[name] = compile_operator(a.field, spaces, specs, outs)
        assert got[name] == reference(a.field, spaces, specs, outs)
        assert_settled(got[name])
    q, f2 = load("c2_Q").algebra, load("c2_F2").algebra
    assert [m.columns for m in (q.mult, q.coaction, q.hopf.antipode)] \
        == [m.columns for m in (f2.mult, f2.coaction, f2.hopf.antipode)]
    assert len(tensor._operators) == 3
    assert got["c2_F2"].field.p == 2 and got["c2_Q"].field.p is None
    assert got["c2_Q"] != got["c2_Q_trivial"]
    # a second description on c2_Q tables loaded anew: one more entry, on
    # the table key the first one holds
    specs, outs = coalgebra_description()
    c = load("c2_Q").coalgebra
    compile_operator(c.field, coalgebra_spaces(c), specs, outs)
    c = load("c2_Q").coalgebra
    spaces = coalgebra_spaces(c)
    compile_operator(c.field, spaces, specs[:2], [outs[0], outs[2], outs[3]])
    assert len(tensor._operators) == 5
    assert [n for _, n in tensor._operators.tables.values()] == [1, 1, 1, 2]
    assert sum(k[0] is spaces.tables for k in tensor._operators) == 2


def test_a_hit_is_a_new_matrix_with_no_pairs_or_kills(no_kept_operators):
    """What a job writes on a compiled matrix (the pairs of `rank`, the
    composite a check found zero) stays with that job's matrix."""
    a = load("sweedler_Q").algebra
    specs, outs = algebra_description()
    first = compile_operator(a.field, algebra_spaces(a), specs, outs)
    rank(first)
    first._kills = first
    assert first._pairs is not None
    hits = [compile_operator(a.field, algebra_spaces(a), specs, outs)
            for _ in range(2)]
    for hit in hits:
        assert hit is not first and hit._pairs is None and hit._kills is None
        assert hit == first
    assert hits[0] is not hits[1]


def _run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_a_repeated_job_folds_nothing(no_kept_operators, folds, capsys):
    """The second run of a job in one process reads every operator it
    compiles from the first, and prints the same report."""
    argv = ["verify", "cylindrical", "-i", os.path.join(DATA, "sweedler_Q.json"),
            "--pmax", "2", "--qmax", "1"]
    first = _run_cli(argv, capsys)
    assert first[0] == 0 and folds
    folds.clear()
    assert _run_cli(argv, capsys) == first
    assert folds == []


def test_the_kept_operators_stay_within_their_budget(no_kept_operators,
                                                     monkeypatch, capsys):
    """Sweedler ss-pages (2, 2) compiles more nonzeros than the budget: the
    oldest operators are dropped, and the report is still its golden."""
    monkeypatch.chdir(ROOT)
    compiled = []
    honest = tensor._compile

    def counted(*args):
        m = honest(*args)
        compiled.append(m.nnz())
        return m

    monkeypatch.setattr(tensor, "_compile", counted)
    code, out = _run_cli(["compute", "ss-pages", "-i", "data/sweedler_Q.json",
                          "--pmax", "2", "--qmax", "2"], capsys)
    with open(os.path.join("tests", "goldens",
                           "ss_pages_sweedler_Q_r2_p2_q2.json")) as fh:
        assert (code, out) == (0, fh.read())
    assert sum(compiled) > OPERATOR_BUDGET
    kept = tensor._operators
    assert 0 < kept.held == sum(e[4] for e in kept.values()) <= OPERATOR_BUDGET
    assert kept.held == sum(len(c) for e in kept.values() for c in e[3]) // 2
    assert sum(n for _, n in kept.tables.values()) == len(kept)
    assert all(kept.tables[key[0]][0] is key[0] for key in kept)


# -- random descriptions ------------------------------------------------------------

# The structure maps of each leg space: which expansions split it, and
# which expressions take it.
_SIDES = {
    "algebra": (algebra_spaces, lambda doc: doc.algebra, {
        "H": ("comult", True, True), "A": ("coaction", True, False)}),
    "coalgebra": (coalgebra_spaces, lambda doc: doc.coalgebra, {
        "H": ("comult", True, True), "C": ("comult", False, True)}),
}
_doc = functools.lru_cache(maxsize=None)(load)


def _draw_description(data, labels, dims):
    """Random specs and outputs: every leg used once, over every
    expression kind the side's spaces allow.  labels maps a space to
    (its expansion, whether it multiplies, whether it has a counit)."""
    specs = []
    for _ in range(data.draw(st.integers(1, 3), label="factors")):
        label = data.draw(st.sampled_from(sorted(labels)))
        if data.draw(st.booleans()):
            specs.append((label, ("id",)))
        else:
            specs.append((label, (labels[label][0],
                                  data.draw(st.integers(0, 2)))))
    leg_spaces = Legs(specs).leg_spaces
    width = 1
    for sp in leg_spaces:
        width *= dims[sp]
    assume(width <= 2 ** 12)
    items = [(("leg", s), sp) for s, sp in enumerate(leg_spaces)]
    mult = [sp for sp in sorted(labels) if labels[sp][1]]
    for _ in range(data.draw(st.integers(0, 8), label="steps")):
        kinds = ["unit"]
        if any(sp == "H" for _, sp in items):
            kinds += ["S", "Sinv"]
        if any(sp in labels and labels[sp][2] for _, sp in items):
            kinds.append("eps")
        if any(sum(sp == m for _, sp in items) >= 2 for m in mult):
            kinds.append("prod")
        if "C" in labels and {"H", "C"} <= {sp for _, sp in items}:
            kinds.append("act")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "unit":
            label = data.draw(st.sampled_from(mult))
            items.append((unit(label), label))
            continue
        if kind == "prod":
            sp = data.draw(st.sampled_from(
                [m for m in mult if sum(s == m for _, s in items) >= 2]))
            mine = [i for i, (_, s) in enumerate(items) if s == sp]
            picked = data.draw(st.lists(st.sampled_from(mine), min_size=2,
                                        max_size=3, unique=True))
            new = (prod(*[items[i][0] for i in picked]), sp)
            items = [x for i, x in enumerate(items) if i not in picked]
            items.append(new)
            continue
        if kind == "act":
            h = data.draw(st.sampled_from(
                [i for i, (_, s) in enumerate(items) if s == "H"]))
            c = data.draw(st.sampled_from(
                [i for i, (_, s) in enumerate(items) if s == "C"]))
            new = (act(items[h][0], items[c][0]), "C")
            items = [x for i, x in enumerate(items) if i not in (h, c)]
            items.append(new)
            continue
        if kind == "eps":
            ok = [i for i, (_, s) in enumerate(items)
                  if s in labels and labels[s][2]]
        else:
            ok = [i for i, (_, s) in enumerate(items) if s == "H"]
        i = data.draw(st.sampled_from(ok))
        wrap = {"S": S, "Sinv": Sinv, "eps": eps}[kind]
        items[i] = (wrap(items[i][0]), "1" if kind == "eps" else "H")
    outputs = data.draw(st.permutations([e for e, _ in items]))
    return specs, outputs


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(data=st.data(), name=st.sampled_from(CORPUS),
       side=st.sampled_from(sorted(_SIDES)))
def test_random_descriptions_match_the_reference(data, name, side):
    """Two random descriptions compiled on the same spaces, the second one
    reading the columns the first left in the memo; then both again on the
    spaces of a structure loaded anew, which get the kept operators."""
    tensor._operators.clear()
    make_spaces, block, labels = _SIDES[side]
    s = block(_doc(name))
    spaces = make_spaces(s)
    dims = {label: ops.dim for label, ops in spaces.items()}
    compiled = []
    for _ in range(2):
        specs, outs = _draw_description(data, labels, dims)
        got = compile_operator(s.field, spaces, specs, outs)
        assert got == reference(s.field, spaces, specs, outs)
        assert_settled(got)
        compiled.append((specs, outs, got))
    again = make_spaces(block(load(name)))
    for specs, outs, got in compiled:
        hit = compile_operator(s.field, again, specs, outs)
        assert hit == got and hit is not got
    assert again.memo == {}


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 4), max_size=5), data=st.data())
def test_perm_matrix_moves_each_factor_to_its_output_position(dims, data):
    perm = data.draw(st.permutations(range(len(dims))))
    m = perm_matrix(QQ, dims, perm)
    out_dims = [dims[s] for s in perm]
    total = m.rows
    assert (m.rows, m.cols, m.nnz()) == (total, total, total)
    for j in range(total):
        multi = tensor_unindex(dims, j)
        image = tensor_unindex(out_dims, next(iter(m.column(j))))
        assert image == tuple(multi[s] for s in perm)
    assert_settled(m)
