"""Bi-paracyclic operator families, diagonals, and the crossed-product isos."""

import os
import re
import time

import pytest

import cylinder_oracle
from hopfcyclic import cylinder
from hopfcyclic.errors import AxiomFailure, NotRestricting, NotWellDefined
from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    check_comodule, check_module, cyclic_group_table, group_algebra,
    regular_comodule_algebra, regular_module_coalgebra, sweedler_hopf,
    trivial_comodule_algebra, trivial_hopf, trivial_module_coalgebra,
)
from hopfcyclic.crossed import check_cyclic_ops, check_cocyclic_ops
from hopfcyclic.cylinder import (
    AlgebraCylinder, AlgebraModuleForm, CoalgebraCocylinder,
    CoalgebraModuleForm, check_algebra_cylinder, check_coalgebra_cocylinder,
    coinvariant_cocyclic_module, coinvariant_cyclic_module, diagonal_cocyclic,
    diagonal_cyclic, first_column_action, first_column_coaction,
    phi_psi_algebra, phi_psi_coalgebra, phi_matrix_algebra, psi_matrix_algebra,
    phi_matrix_coalgebra, psi_matrix_coalgebra,
)
from hopfcyclic.homology import cyclic_dims, mixed_complex
from hopfcyclic.io import load_document
from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.tensor import perm_matrix

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

QQ = Field.rationals()
F2 = Field.prime(2)


def kc2(field=QQ):
    return group_algebra(cyclic_group_table(2), field)


def test_trivial_hopf_cylinder_reduces_to_rotation():
    h = kc2()
    a = trivial_comodule_algebra(trivial_hopf(QQ), h.as_algebra())
    cyl = AlgebraCylinder(a)
    # tau_v is the bare rotation of the A-block; tau_v^(q+1) = id already
    rot = perm_matrix(QQ, [1, 2, 2, 2], (0, 3, 1, 2))
    assert cyl.tau_v(0, 2) == rot
    t3 = cyl.tau_v(0, 2)
    cube = t3 @ t3 @ t3
    assert cube == SparseMatrix.identity(QQ, 8)
    assert check_algebra_cylinder(cyl, 1, 2).ok


def test_kc2_cylinder_conjugation_trivial():
    cyl = AlgebraCylinder(regular_comodule_algebra(kc2()))
    # abelian group-likes: tau_v rotates the a's and fixes the g's
    assert cyl.tau_v(1, 1) == perm_matrix(QQ, [2] * 4, (0, 1, 3, 2))
    assert cyl.tau_h(1, 1) == perm_matrix(QQ, [2] * 4, (1, 0, 2, 3))


def test_kc2_full_suite():
    cyl = AlgebraCylinder(regular_comodule_algebra(kc2()))
    rep = check_algebra_cylinder(cyl, 2, 2)
    assert rep.ok


def test_kc2_trivial_coaction_f2_suite():
    a = trivial_comodule_algebra(kc2(F2))
    assert check_algebra_cylinder(AlgebraCylinder(a), 2, 2).ok


def test_sweedler_cylinder_suite_small_window():
    a = regular_comodule_algebra(sweedler_hopf(QQ))
    assert check_algebra_cylinder(AlgebraCylinder(a), 1, 1).ok


def test_kc2_cocylinder_suite():
    c = regular_module_coalgebra(kc2())
    assert check_coalgebra_cocylinder(CoalgebraCocylinder(c), 2, 2).ok


def test_trivial_action_cocylinder_suite():
    c = trivial_module_coalgebra(kc2(), kc2().as_coalgebra())
    cocyl = CoalgebraCocylinder(c)
    assert check_coalgebra_cocylinder(cocyl, 1, 1).ok
    # with trivial action the vertical rotation is the bare C-rotation
    assert cocyl.tau_v(0, 1) == perm_matrix(QQ, [2, 2, 2], (0, 2, 1))


def test_sweedler_cocylinder_suite():
    c = regular_module_coalgebra(sweedler_hopf(QQ))
    assert check_coalgebra_cocylinder(CoalgebraCocylinder(c), 1, 1).ok


@pytest.mark.parametrize("make,N", [
    (lambda: regular_comodule_algebra(kc2()), 3),
    (lambda: regular_comodule_algebra(sweedler_hopf(QQ)), 1),
])
def test_diagonal_is_cyclic(make, N):
    cyl = AlgebraCylinder(make())
    ops = diagonal_cyclic(cyl, N)
    rep = check_cyclic_ops(ops)
    assert rep.ok, rep.failures()


def test_diagonal_cocyclic_is_cocyclic():
    cocyl = CoalgebraCocylinder(regular_module_coalgebra(kc2()))
    ops = diagonal_cocyclic(cocyl, 2)
    assert check_cocyclic_ops(ops).ok


def test_diagonal_builds_each_operator_on_its_first_read():
    """Nothing is built until it is read, a second read returns the same
    matrix, a key past the module raises KeyError as a dict would, and the
    maps, which hold only what was read, refuse to be iterated."""
    ops = diagonal_cyclic(AlgebraCylinder(regular_comodule_algebra(kc2())),
                          2)
    maps = (ops.faces, ops.degens, ops.cyclic)
    assert all(not m.made for m in maps)
    assert ops.face(2, 1) is ops.face(2, 1)
    assert ops.t(1) is ops.t(1)
    assert (set(ops.faces.made), set(ops.degens.made), set(ops.cyclic.made)) \
        == ({(2, 1)}, set(), {1})
    for m, key in ((ops.faces, (3, 0)), (ops.degens, (2, 0)),
                   (ops.cyclic, 3)):
        with pytest.raises(KeyError):
            m[key]
        with pytest.raises(TypeError):
            list(m)


def _c2_Q(block):
    return getattr(load_document(os.path.join(DATA, "c2_Q.json")), block)


# N = 3: the maps a top_faces_only module leaves out, by the module's keys
@pytest.mark.parametrize("build, block, names, dropped", [
    (coinvariant_cyclic_module, "algebra", ("faces", "degens", "cyclic"),
     (set(), {(2, 0), (2, 1), (2, 2)}, {3})),
    (coinvariant_cocyclic_module, "coalgebra",
     ("cofaces", "codegens", "cocyclic"),
     (set(), {(3, 0), (3, 1), (3, 2)}, {3})),
])
def test_a_top_faces_only_module_is_the_full_one_short_of_its_top(
        build, block, names, dropped):
    """With top_faces_only, degree N carries its (co)faces only: each map
    it holds equals the full module's, it holds no (co)degeneracy into N
    (on the transpose) and no rotation at N, and its cyclic homology
    through N - 1 is the full module's."""
    N = 3
    full, _ = build(_c2_Q(block), N)
    top, pres = build(_c2_Q(block), N, top_faces_only=True)
    assert top.dims == full.dims == [p.dim for p in pres]
    for name, gone in zip(names, dropped):
        held, whole = getattr(top, name), getattr(full, name)
        assert set(held) == set(whole) - gone
        assert all(held[k] == whole[k] for k in held)
    assert cyclic_dims(mixed_complex(top), N - 1) \
        == cyclic_dims(mixed_complex(full), N - 1)


def _spoil_top(monkeypatch, cls, name, cell, row, col):
    """Add 1 at (row, col) of the operator `name` of `cls` at `cell`."""
    honest = getattr(cls, name)

    def spoiled(self, *args):
        m = honest(self, *args)
        if args != cell:
            return m
        ent = dict(m.entries)
        ent[(row, col)] = ent.get((row, col), 0) + 1
        return SparseMatrix(m.field, m.rows, m.cols, ent)

    monkeypatch.setattr(cls, name, spoiled)


def test_a_top_face_off_the_quotient_is_refused(monkeypatch):
    """A module built with top_faces_only still checks that each top face
    is well defined on the quotient: on S3 at N = 2, a face out of degree
    N that carries a relation to a coordinate of the quotient is refused
    by that check, before the suite runs."""
    a = load_document(os.path.join(DATA, "s3_Q.json")).algebra
    _, pres = coinvariant_cyclic_module(a, 2, top_faces_only=True)
    _spoil_top(monkeypatch, AlgebraCylinder, "face_v", (0, 2, 1),
               pres[1].coords[0], pres[2].relations.pivots[0])
    with pytest.raises(NotWellDefined, match="face 1 does not preserve the "
                                             "relations at degree 2"):
        coinvariant_cyclic_module(a, 2, top_faces_only=True)


@pytest.mark.parametrize("build, block, cls, name, cell, text", [
    (coinvariant_cyclic_module, "algebra", AlgebraCylinder, "face_v",
     (0, 3, 1), "d_i d_j = d_{j-1} d_i', False, 'degree 3'"),
    (coinvariant_cocyclic_module, "coalgebra", CoalgebraCocylinder,
     "coface_v", (0, 2, 1), "del^j del^i = del^i del^{j-1}', False, "
                            "'degree 1'"),
])
def test_a_spoiled_top_face_fails_the_suite(build, block, cls, name, cell,
                                            text, monkeypatch):
    """On c2_Q the first column has no relations and its coinvariant
    subspace is the whole column, so a spoiled top (co)face is well
    defined; the suite of a top_faces_only module still checks d_i d_j at
    N and refuses it there."""
    _spoil_top(monkeypatch, cls, name, cell, 0, 0)
    with pytest.raises((NotWellDefined, NotRestricting), match=re.escape(
            text)):
        build(_c2_Q(block), 3, top_faces_only=True)


def test_phi_degree_zero_is_factor_swap():
    a = regular_comodule_algebra(kc2())
    phi0 = phi_matrix_algebra(a, 0)
    assert phi0 == perm_matrix(QQ, [2, 2], (1, 0))
    psi0 = psi_matrix_algebra(a, 0)
    assert psi0 == perm_matrix(QQ, [2, 2], (1, 0))


def test_phi_trivial_coaction_is_permutation():
    h = kc2()
    a = trivial_comodule_algebra(h, h.as_algebra())
    # (a0 x g0, a1 x g1) -> (g0, g1 | a0, a1): pure factor permutation
    assert phi_matrix_algebra(a, 1) == perm_matrix(QQ, [2] * 4, (1, 3, 0, 2))


def test_phi_psi_algebra_kc2():
    phi, psi = phi_psi_algebra(regular_comodule_algebra(kc2()), N=3)
    assert set(phi) == set(range(4))


def test_phi_psi_algebra_sweedler_small():
    phi, psi = phi_psi_algebra(regular_comodule_algebra(sweedler_hopf(QQ)), N=1)
    assert phi[1].rows == phi[1].cols == 256


def test_phi_psi_coalgebra_kc2():
    phi, psi = phi_psi_coalgebra(regular_module_coalgebra(kc2()), N=2)
    assert set(psi) == set(range(3))


def test_psi_coalgebra_display_degree_one():
    """The inverse agrees with the unambiguous displayed formula at n <= 1."""
    from hopfcyclic.hopf import coalgebra_spaces
    from hopfcyclic.tensor import Legs, S, Sinv, act, compile_operator, prod
    c = regular_module_coalgebra(sweedler_hopf(QQ))
    assert psi_matrix_coalgebra(c, 0) == perm_matrix(QQ, [4, 4], (1, 0))
    spaces = coalgebra_spaces(c)
    specs = [("H", ("comult", 2)), ("H", ("id",)), ("C", ("id",)), ("C", ("id",))]
    L = Legs(specs)
    display = compile_operator(QQ, spaces, specs, [
        L.plain(2), L.com(0, 1),
        act(Sinv(prod(L.com(0, 0), S(L.com(0, 2)))), L.plain(3)),
        L.plain(1),
    ])
    assert psi_matrix_coalgebra(c, 1) == display


def test_first_column_action_axioms_and_unit():
    a = regular_comodule_algebra(kc2())
    act_m = first_column_action(a, 1)
    assert act_m.rows == 8 and act_m.cols == 16
    assert check_module(a.hopf, act_m).ok  # associative and unital
    a4 = regular_comodule_algebra(sweedler_hopf(QQ))
    assert check_module(a4.hopf, first_column_action(a4, 1)).ok


def test_first_column_coaction_axioms_and_group_like_collapse():
    c = regular_module_coalgebra(kc2())
    co = first_column_coaction(c, 1)
    # on group-likes the coaction is trivial: (g | a, b) -> 1 x (g | a, b)
    for j in range(8):
        assert co.column(j) == {j: QQ.one()}
    assert check_comodule(c.hopf, co).ok  # coassociative and counital
    c4 = regular_module_coalgebra(sweedler_hopf(QQ))
    assert check_comodule(c4.hopf, first_column_coaction(c4, 1)).ok


@pytest.mark.parametrize("build, make, name, text", [
    (coinvariant_cyclic_module, regular_comodule_algebra,
     "first_column_action",
     "^the first-column action fails the module axioms: action "),
    (coinvariant_cocyclic_module, regular_module_coalgebra,
     "first_column_coaction",
     "^the first-column coaction fails the comodule axioms: coaction "),
], ids=["algebra", "coalgebra"])
def test_coinvariants_check_the_first_column_axioms(build, make, name, text,
                                                    monkeypatch):
    """The first-column (co)action is built unchecked; the coinvariant
    module, which relies on it, refuses one with an entry negated."""
    honest = getattr(cylinder, name)

    def spoiled(*args):
        m = honest(*args)
        ent = dict(m.entries)
        k = min(ent)
        ent[k] = m.field.neg(ent[k])
        return SparseMatrix(m.field, m.rows, m.cols, ent)

    monkeypatch.setattr(cylinder, name, spoiled)
    for h in (kc2(), sweedler_hopf(QQ)):
        with pytest.raises(AxiomFailure, match=text):
            build(make(h), N=1)


@pytest.mark.parametrize("build, block, dims", [
    (coinvariant_cyclic_module, "algebra", [18, 108, 648]),
    (coinvariant_cocyclic_module, "coalgebra", [36, 216, 1296]),
])
def test_s3_coinvariant_modules_at_degree_two(build, block, dims):
    """Scale point: at N = 2 the first-column (co)action of S3 reads
    2N + 5 = 9 legs of H, and its expression columns are made only where
    an input column reaches them, never over all of H^9, so each module
    takes a second or so (with every check on) in a few tens of MB."""
    doc = load_document(os.path.join(DATA, "s3_Q.json"))
    start = time.perf_counter()
    ops, pres = build(getattr(doc, block), N=2)
    assert [p.dim for p in pres] == dims
    assert ops.dims == dims
    assert time.perf_counter() - start < 30


# -- operators built by index arithmetic ---------------------------------------

CORPUS = sorted(f[:-5] for f in os.listdir(DATA) if f.endswith(".json"))

# every cell of the 2 x 2 window and one past it each way, where a kernel is
# widened by two legs
WIDENED_CELLS = [(p, q) for p in range(3) for q in range(3)] + [(3, 1), (1, 3)]


def _structures(doc):
    cyl = AlgebraCylinder(doc.algebra)
    cocyl = CoalgebraCocylinder(doc.coalgebra)
    return cyl, cocyl, AlgebraModuleForm(cyl), CoalgebraModuleForm(cocyl)


def _amplified_pairs(doc, P, Q):
    """(name, p, q, i, operator, its leg description) for every operator
    that `cylinder.py` builds by `amplify`, on every cell p <= P, q <= Q."""
    cyl, cocyl, amf, cmf = _structures(doc)
    for p in range(P + 1):
        for q in range(Q + 1):
            ranges = [
                (cyl, "face_v", range(q)), (cyl, "degen_v", range(q + 1)),
                (cyl, "face_h", range(p)), (cyl, "degen_h", range(p + 1)),
                (cocyl, "coface_v", range(q + 1)),
                (cocyl, "codegen_v", range(q)),
                (cocyl, "coface_h", range(p + 1)),
                (cocyl, "codegen_h", range(p)),
                (amf, "closed_face_h", range(p)),
                (amf, "closed_degen_h", range(p + 1)),
                (cmf, "closed_coface_h", range(p + 2)),
                (cmf, "closed_codegen_h", range(p)),
            ]
            for obj, name, indices in ranges:
                for i in indices:
                    extra = (first_column_coaction,) \
                        if name == "closed_coface_h" else ()
                    yield (name, p, q, i, getattr(obj, name)(p, q, i),
                           getattr(cylinder_oracle, name)(obj, p, q, i,
                                                          *extra))


def _widened_pairs(doc, cells):
    """(name, p, q, index, operator, its leg description) for every
    rotation, last (co)face, regrouping map, closed vertical form and
    closed last horizontal face that `cylinder.py` builds from a kernel on
    another cell, on each of the cells."""
    cyl, cocyl, amf, cmf = _structures(doc)
    o = cylinder_oracle
    for p, q in cells:
        rows = [(cyl, "tau_v", (), o.tau_v), (cyl, "tau_h", (), o.tau_h),
                (cocyl, "tau_v", (), o.cotau_v),
                (cocyl, "coface_v", (q + 1,), o.last_coface_v),
                (cocyl, "tau_h", (), o.cotau_h),
                (cocyl, "coface_h", (p + 1,), o.last_coface_h),
                (cmf, "closed_last_coface_v", (), o.closed_last_coface_v)]
        for mf in (amf, cmf):
            rows += [(mf, "to_module", (), o.to_module),
                     (mf, "from_module", (), o.from_module),
                     (mf, "closed_tau_v", (), o.closed_tau_v)]
        if q:
            rows += [(cyl, "face_v", (q,), o.last_face_v),
                     (amf, "closed_last_face_v", (), o.closed_last_face_v)]
        if p:
            rows += [(cyl, "face_h", (p,), o.last_face_h),
                     (amf, "closed_face_h", (p,), o.closed_last_face_h)]
        for obj, name, i, oracle in rows:
            yield ("%s.%s" % (type(obj).__name__, name), p, q, i,
                   getattr(obj, name)(p, q, *i), oracle(obj, p, q))


@pytest.mark.parametrize("name", CORPUS)
def test_amplified_operators_match_their_leg_descriptions(name):
    """Every operator built by index arithmetic equals the compiled leg
    description it replaces, on every corpus file:
    - each (co)face and (co)degeneracy, and each module-form closed form,
      that is one structure map tensored with identities, on the cells
      p, q <= 2: 171 operators a file;
    - each rotation, last (co)face, regrouping map, closed vertical
      rotation or last (co)face and closed last horizontal face, widened or
      amplified from its kernel, on the cells p, q <= 2, (3, 1) and
      (1, 3): 175 operators a file."""
    doc = load_document(os.path.join(DATA, name + ".json"))
    count = 0
    for op, p, q, i, got, want in _amplified_pairs(doc, 2, 2):
        assert got == want, (op, p, q, i)
        count += 1
    assert count == 171
    count = 0
    for op, p, q, i, got, want in _widened_pairs(doc, WIDENED_CELLS):
        assert got == want, (op, p, q, i)
        count += 1
    assert count == 175


@pytest.mark.parametrize("build, check, compiled", [
    (lambda doc: AlgebraCylinder(doc.algebra), check_algebra_cylinder,
     lambda P, Q: 2 * (P + Q + 2)),
    (lambda doc: CoalgebraCocylinder(doc.coalgebra),
     check_coalgebra_cocylinder, lambda P, Q: 2 * (P + Q + 2)),
    (lambda doc: AlgebraModuleForm(AlgebraCylinder(doc.algebra)),
     lambda mf, P, Q: mf.check(P, Q),
     lambda P, Q: 2 * (P + Q + 2) + 4 * (P + 1) + 1 + (Q + 1)
     + P * (Q + 1)),
    (lambda doc: CoalgebraModuleForm(CoalgebraCocylinder(doc.coalgebra)),
     lambda mf, P, Q: mf.check(P, Q),
     lambda P, Q: 2 * (P + Q + 2) + 4 * (P + 1) + 1 + (Q + 1)
     + P * (Q + 1)),
], ids=["cylinder", "cocylinder", "module-form-algebra",
        "module-form-coalgebra"])
def test_the_suites_compile_one_kernel_per_row_and_column(build, check,
                                                          compiled,
                                                          monkeypatch):
    """The rotations and last (co)faces are compiled once per column (the
    vertical ones) or row (the horizontal ones) and widened to every other
    cell, so the suite on the window P x Q compiles 2 (P + Q + 2)
    operators, not a few per cell.

    The module-form check compiles those kernels of the (co)cylinder it
    conjugates, and adds: per column p <= P, the regrouping maps (to the
    module form also at P + 1, the target of degen_h) and the closed
    vertical rotation and last (co)face; per row q <= Q, the first-column
    (co)action, which the closed last horizontal (co)face amplifies to
    every p.  Only the closed horizontal rotation is compiled on each cell
    with p >= 1."""
    honest = cylinder.compile_operator
    compiles = []

    def counted(*args):
        compiles.append(args)
        return honest(*args)

    monkeypatch.setattr(cylinder, "compile_operator", counted)
    doc = load_document(os.path.join(DATA, "sweedler_Q.json"))
    for P, Q in [(1, 1), (2, 1), (1, 2)]:
        compiles.clear()
        assert check(build(doc), P, Q).ok
        assert len(compiles) == compiled(P, Q), (P, Q)


@pytest.mark.parametrize("name, window", [("c3_Q", (2, 2)),
                                          ("sweedler_Q", (2, 1))])
def test_cell_operators_retain_few_bytes_per_nonzero(name, window):
    """Memory guard on the column storage: everything allocated from
    building the cylinder to the end of its suite and still alive, over the
    nonzeros its operator cache holds.  Matrices that kept a second,
    dict-of-dicts column index besides their entries retained 371-393
    bytes per nonzero here; one flat tuple per column, with unit columns
    and product columns shared, retains 70-90."""
    import gc
    import tracemalloc

    doc = load_document(os.path.join(DATA, name + ".json"))
    gc.collect()
    tracemalloc.start()
    try:
        cyl = AlgebraCylinder(doc.algebra)
        assert check_algebra_cylinder(cyl, *window).ok
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nnz = sum(m.nnz() for m in cyl._cache.values())
    assert nnz > 10000
    assert retained / nnz < 140
