"""The cochain side as the transpose of the chain side.

A cocyclic module reads itself one way, as its transpose's cyclic module in
cochain order (`crossed.CocyclicOps` is a `CyclicOps`): each cooperator in
its transpose's place, each composite formed in reverse order.  That reading,
`hopf.dual_hopf` and the transposed total complex replace hand-written
cochain code.  The cyclic suite, the coalgebra-side intertwining check, b and
the mixed complex all take a cocyclic module as it is, which checks the
transpose of every chain identity and ranks the transpose of every cochain
map with no coface, codegeneracy or rotation transposed: only each finished
B is.  These tests fail when a transposition is wrong: the relation suites of
a cocyclic module and of its transpose, every map transposed up front
(`cochain_oracle.transposed_cyclic`), pass or fail together; on every
corruption, the cochain-order checks report entry for entry and raise word
for word what the hand-written ones did (`tests/cochain_oracle.py`); the
cyclic suite and b take a cocyclic module with no wrapper; the cochain
formulas the package no longer holds (kept here as an oracle) equal the
transposes of what the chain side builds; and a count of the transposes left
pins them to the B's and the structure maps.
"""

import os

import pytest

import cochain_oracle
import connes_oracle
from hopfcyclic import cylinder
from hopfcyclic.crossed import (
    CocyclicOps, check_cocyclic_ops, check_cyclic_ops,
    cocyclic_module_of_coalgebra, crossed_product_coalgebra, dual_algebra,
)
from hopfcyclic.cylinder import (
    CoalgebraCocylinder, diagonal_cocyclic, first_column_coaction,
    phi_psi_coalgebra,
)
from hopfcyclic.errors import NotCosemisimple, NotIntertwining
from hopfcyclic.hopf import check_hopf, dual_hopf
from hopfcyclic.homology import (
    _norm, _one_minus_lambda, b_column_dims, cyclic_dims,
    find_dual_left_integral, hochschild_boundary, hopf_comodule_coboundary,
    mixed_complex, normalized_mixed_complex, trivial_comodule_coaction,
)
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix, _homology_dims, combine

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
CORPUS = sorted(f[:-5] for f in os.listdir(DATA) if f.endswith(".json"))
Q_CORPUS = [name for name in CORPUS if "F2" not in name]


def _doc(name):
    return load_document(os.path.join(DATA, name + ".json"))


def _cocyclic_modules(name):
    """The cocyclic modules of both blocks' coalgebras, H and C # H, at
    N = 3, 2 or 1 as the coalgebra grows (dimension <= 2, <= 9, above)."""
    doc = _doc(name)
    out = []
    for coalg in (doc.hopf.as_coalgebra(),
                  crossed_product_coalgebra(doc.coalgebra)):
        out.append(cocyclic_module_of_coalgebra(
            coalg, N=3 if coalg.dim <= 2 else 2 if coalg.dim <= 9 else 1))
    return out


# -- (a) the relation suites pass and fail together ------------------------------

def _bumped(m):
    """m with its last entry (or, if it has none, entry (0, 0)) plus one."""
    f = m.field
    ij = max(m.entries, default=(0, 0))
    ent = dict(m.entries)
    ent[ij] = f.add(ent.get(ij, f.zero()), f.one())
    return SparseMatrix(f, m.rows, m.cols, ent)


_MAPS = ("cofaces", "codegens", "cocyclic")


def _corrupted(ops, table="cofaces", key=(0, 1)):
    """A copy of ops with one matrix changed by `_bumped`: by default a
    coface out of degree 0; `table` is one of `_MAPS`."""
    maps = {name: dict(getattr(ops, name)) for name in _MAPS}
    maps[table][key] = _bumped(maps[table][key])
    return CocyclicOps(ops.field, ops.dims, maps["cofaces"],
                       maps["codegens"], maps["cocyclic"], ops.N)


def _read_out(ops):
    """A cocyclic module with each map of ops read into a plain dict: the
    diagonal builds its maps on their first read and cannot be iterated."""
    N = ops.N
    return CocyclicOps(
        ops.field, ops.dims,
        {(n, i): ops.coface(n, i) for n in range(N) for i in range(n + 2)},
        {(n, i): ops.codegen(n, i) for n in range(1, N + 1) for i in range(n)},
        {n: ops.t(n) for n in range(N + 1)}, N)


def _corruptions(ops):
    """ops as it is, then with each coface, codegeneracy and t corrupted in
    turn."""
    yield ops
    for table in _MAPS:
        for key in sorted(getattr(ops, table)):
            yield _corrupted(ops, table, key)


@pytest.mark.parametrize("name", CORPUS)
def test_transpose_is_cyclic_exactly_where_the_module_is_cocyclic(name):
    for ops in _cocyclic_modules(name):
        assert check_cocyclic_ops(ops).ok
        assert check_cyclic_ops(cochain_oracle.transposed_cyclic(ops)).ok
        bad = _corrupted(ops)
        assert not check_cocyclic_ops(bad).ok
        assert not check_cyclic_ops(cochain_oracle.transposed_cyclic(bad)).ok


def _suite_outcome(check, ops, cocyclic):
    """The report's subject and entries."""
    rep = check(ops, cocyclic=cocyclic)
    return rep.subject, rep.entries


@pytest.mark.parametrize("name", CORPUS)
def test_cocyclic_suite_reports_what_the_hand_written_one_did(name):
    """Run in cochain order, the suite names each identity, gives its
    degree and fails where the hand-written cosimplicial suite did, entry
    for entry, on every corruption, with and without t^(n+1) = id."""
    for ops in _cocyclic_modules(name):
        for case in _corruptions(ops):
            for cocyclic in (True, False):
                assert _suite_outcome(check_cocyclic_ops, case, cocyclic) == \
                    _suite_outcome(cochain_oracle.check_cocyclic_ops, case,
                                   cocyclic)


@pytest.mark.parametrize("name", CORPUS)
def test_coalgebra_isomorphism_check_fails_where_the_cointertwining_did(
        name, monkeypatch):
    """phi_psi_coalgebra checks phi on the cochain maps, composed in
    cochain order; with each map of either cocyclic module corrupted in
    turn, it raises the text the hand-written cointertwining check raised,
    or passes where it passed."""
    c = _doc(name).coalgebra
    cp = crossed_product_coalgebra(c)
    N = 2 if cp.dim <= 9 else 1
    src = cocyclic_module_of_coalgebra(cp, N)
    dst = _read_out(diagonal_cocyclic(CoalgebraCocylinder(c), N))
    phi, _ = phi_psi_coalgebra(c, N)
    cases = [(s, dst) for s in _corruptions(src)]
    cases += [(src, d) for d in list(_corruptions(dst))[1:]]
    for s, d in cases:
        try:
            cochain_oracle._check_cointertwining(phi, s, d)
            want = None
        except NotIntertwining as e:
            want = str(e)
        monkeypatch.setattr(cylinder, "cocyclic_module_of_coalgebra",
                            lambda *args: s)
        monkeypatch.setattr(cylinder, "diagonal_cocyclic", lambda *args: d)
        try:
            phi_psi_coalgebra(c, N)
            got = None
        except NotIntertwining as e:
            got = str(e)
        assert got == want


def test_transpose_moves_each_map_to_its_dual_place():
    """The transposed cyclic module holds each map's transpose in its dual
    place, and the cocyclic module, read in cochain order, the map itself."""
    ops = _cocyclic_modules("sweedler_Q")[0]
    dual = cochain_oracle.transposed_cyclic(ops)
    view = ops
    assert dual.dims == ops.dims and dual.N == ops.N
    for (n, i), m in ops.cofaces.items():
        assert dual.face(n + 1, i) == m.transpose()
        assert view.face(n + 1, i) is m
    for (n, i), m in ops.codegens.items():
        assert dual.degen(n - 1, i) == m.transpose()
        assert view.degen(n - 1, i) is m
    for n in range(ops.N + 1):
        assert dual.t(n) == ops.t(n).transpose()
        assert view.t(n) is ops.t(n)


@pytest.mark.parametrize("name", CORPUS)
def test_every_cyclic_reader_takes_a_cocyclic_module_as_it_is(name):
    """A cocyclic module is read by the readers of a cyclic module with no
    wrapper: the cyclic suite records on it the entries the cocyclic suite
    does, passing and corrupted, and its b out of each degree is the
    alternating sum of the faces of its transpose."""
    for ops in _cocyclic_modules(name):
        for case in (ops, _corrupted(ops)):
            assert check_cyclic_ops(case).entries == \
                check_cocyclic_ops(case).entries
        dual = cochain_oracle.transposed_cyclic(ops)
        for n in range(1, ops.N + 1):
            assert hochschild_boundary(ops, n) == combine(
                ops.field, dual.dim(n - 1), dual.dim(n),
                (((-1) ** i, dual.face(n, i)) for i in range(n + 1)))


def _transposes(monkeypatch):
    """The list each call of `SparseMatrix.transpose` is recorded in."""
    calls = []
    honest = SparseMatrix.transpose
    monkeypatch.setattr(SparseMatrix, "transpose",
                        lambda m: calls.append(m) or honest(m))
    return calls


def test_the_cochain_checks_transpose_nothing(monkeypatch, capsys):
    """`verify cocylindrical` on Sweedler (1, 1) and the coalgebra-side
    isomorphism check compose the cooperators as they are: neither calls
    `SparseMatrix.transpose` once, and both pass."""
    from hopfcyclic import cli
    calls = _transposes(monkeypatch)
    assert cli.main(["verify", "cocylindrical", "-i",
                     os.path.join(DATA, "sweedler_Q.json"),
                     "--pmax", "1", "--qmax", "1"]) == 0
    capsys.readouterr()
    phi_psi_coalgebra(_doc("sweedler_Q").coalgebra, 2)
    assert calls == []


def test_the_cochain_homology_transposes_only_each_B(monkeypatch, capsys):
    """The mixed complex of a cocyclic module transposes its N - 1 finished
    B's and no coface, codegeneracy or rotation; b alone transposes
    nothing.  `compare diagonal-vs-direct` on C2 over Q through degree 2
    transposes four matrices: the coproduct and counit that `dual_algebra`
    turns into C*'s product and unit, and the diagonal's two B's."""
    from hopfcyclic import cli
    modules = _cocyclic_modules("c2_Q")
    calls = _transposes(monkeypatch)
    for ops in modules:
        calls.clear()
        mixed_complex(ops)
        assert len(calls) == ops.N - 1
        calls.clear()
        b_column_dims(ops, ops.N - 1)
        assert calls == []
    calls.clear()
    assert cli.main(["compare", "diagonal-vs-direct", "-i",
                     os.path.join(DATA, "c2_Q.json"), "--nmax", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 4


# -- (b) the cochain formulas, as an oracle ---------------------------------------

def _cochain_b(ops, n):
    """b^n = sum of (-1)^i delta^i: C^n -> C^{n+1}."""
    return combine(ops.field, ops.dim(n + 1), ops.dim(n),
                   (((-1) ** i, ops.coface(n, i)) for i in range(n + 2)))


def _cochain_B(ops, n):
    """B: C^n -> C^{n-1}, B = N (sig^(n-1) t) (1 - lambda), with N and
    lambda = (-1)^n t taken on the cocyclic module itself."""
    return _norm(ops, n - 1) @ (ops.codegen(n, n - 1) @ ops.t(n)) \
        @ _one_minus_lambda(ops, n)


def _cobar(h, coaction, p):
    """The cobar coboundary H^(x)p (x) M -> H^(x)(p+1) (x) M from its faces:
    1 in front, each comultiplication, the coaction last."""
    f, d, m = h.field, h.dim, coaction.cols
    ident = SparseMatrix.identity
    faces = [h.unit.kron(ident(f, d ** p * m))]
    faces += [ident(f, d ** (i - 1)).kron(h.comult).kron(
        ident(f, d ** (p - i) * m)) for i in range(1, p + 1)]
    faces.append(ident(f, d ** p).kron(coaction))
    return combine(f, d ** (p + 1) * m, d ** p * m,
                   (((-1) ** i, face) for i, face in enumerate(faces)))


def _invariant_connes_dims(ops, nmax):
    """HC^n through nmax as the cohomology of the lambda-invariant cochains:
    S_{n+1}^T b^n P_n^T on the signed orbit sums, after checking that b^n
    keeps the invariants."""
    d = ops.dim(0)
    P = {n: connes_oracle._signed_orbits(ops.field, d, n)[0].transpose()
         for n in range(nmax + 2)}
    S = {n: connes_oracle._signed_orbits(ops.field, d, n)[1].transpose()
         for n in range(nmax + 2)}
    diffs = []
    for n in range(nmax + 1):
        bv = _cochain_b(ops, n) @ P[n]
        assert (_one_minus_lambda(ops, n + 1) @ bv).is_zero()
        diffs.append(S[n + 1] @ bv)
    zero = SparseMatrix.zeros(ops.field, P[0].cols, 0)
    return _homology_dims(zip(diffs, [zero] + diffs))


@pytest.mark.parametrize("name", Q_CORPUS)
def test_cochain_formulas_are_the_transposed_chain_side(name):
    ops = _cocyclic_modules(name)[1]
    dual = cochain_oracle.transposed_cyclic(ops)
    mc = mixed_complex(ops)
    for n in range(ops.N):
        assert mc.b[n + 1] == hochschild_boundary(dual, n + 1)
        assert _cochain_b(ops, n) == \
            hochschild_boundary(dual, n + 1).transpose()
    for n in range(ops.N - 1):
        assert _cochain_B(ops, n + 1) == mc.B[n].transpose()
    d = ops.dim(0)
    for n in range(1, ops.N + 1):
        P, _ = connes_oracle._signed_orbits(ops.field, d, n - 1)
        _, S = connes_oracle._signed_orbits(ops.field, d, n)
        chain = P @ hochschild_boundary(dual, n) @ S
        invariant = S.transpose() @ _cochain_b(ops, n - 1) @ P.transpose()
        assert invariant == chain.transpose()
    hc = _invariant_connes_dims(ops, ops.N - 1)
    assert connes_oracle.connes_dims(ops, ops.N - 1) == hc
    coalgebra = crossed_product_coalgebra(_doc(name).coalgebra)
    assert cyclic_dims(normalized_mixed_complex(dual_algebra(coalgebra),
                                                ops.N), ops.N - 1) == hc


@pytest.mark.parametrize("name", Q_CORPUS)
def test_cobar_coboundary_is_the_transposed_dual_bar_boundary(name):
    doc = _doc(name)
    h = doc.hopf
    for coaction in (trivial_comodule_coaction(h),
                     first_column_coaction(doc.coalgebra, 0)):
        for p in range(3):
            assert hopf_comodule_coboundary(h, coaction, p) == \
                _cobar(h, coaction, p)


# -- (e) the dual Hopf algebra -----------------------------------------------------

@pytest.mark.parametrize("name", CORPUS)
def test_dual_hopf_is_a_hopf_algebra(name):
    h = _doc(name).hopf
    dual = dual_hopf(h)
    assert check_hopf(dual).ok
    twice = dual_hopf(dual)
    assert (twice.mult, twice.unit, twice.comult, twice.counit,
            twice.antipode) == (h.mult, h.unit, h.comult, h.counit,
                                h.antipode)


def test_dual_integral_on_the_corpus():
    """Group algebras are cosemisimple over any field, with the functional
    at the identity as integral; the four-dimensional Hopf algebra is not."""
    for name in CORPUS:
        h = _doc(name).hopf
        if name.startswith("sweedler"):
            with pytest.raises(NotCosemisimple):
                find_dual_left_integral(h)
        else:
            assert find_dual_left_integral(h) == {0: h.field.one()}


# -- recorded Sweedler reports ------------------------------------------------------

@pytest.mark.parametrize("golden, argv", [
    ("ss_pages_sweedler_Q_r2_p2_q1",
     "compute ss-pages --rmax 2 --pmax 2 --qmax 1"),
    ("comodule_cohomology_sweedler_Q_p4", "compute comodule-cohomology --pmax 4"),
    ("ez_hochschild_sweedler_Q_n1", "compare ez-hochschild --nmax 1"),
    ("diagonal_vs_direct_sweedler_Q_n1", "compare diagonal-vs-direct --nmax 1"),
])
def test_sweedler_reports_match_the_cochain_code(golden, argv, monkeypatch,
                                                   capsys):
    """Sweedler is not cocommutative, so a transposition slip shows here:
    each report byte for byte against the one recorded from the
    hand-written cochain code (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(argv.split() + ["-i", "data/sweedler_Q.json"])
    with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


def test_failing_cocylinder_report_matches_the_recorded_one(monkeypatch,
                                                            capsys):
    """A Sweedler module coalgebra with the action entry x . 1 -> x negated
    fails 19 of the cocylinder's identities, the first `t del^i = del^{i-1}
    t` at degree 0: the whole report, exit 1, byte for byte against the one
    recorded from the hand-written cocyclic suite (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(["verify", "cocylindrical", "--pmax", "1", "--qmax", "1",
                     "-i", "tests/sweedler_Q_bad_action.json"])
    with open(os.path.join("tests", "goldens",
                           "cocylindrical_bad_action_sweedler_Q_p1_q1.json")) \
            as fh:
        assert code == 1 and capsys.readouterr().out == fh.read()
