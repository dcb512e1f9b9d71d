"""Regrouping transforms onto Hopf-(co)module form and their closed forms."""

import json
import os

import pytest

from hopfcyclic.fields import Field
from hopfcyclic.hopf import (
    cyclic_group_table, group_algebra, regular_comodule_algebra,
    regular_module_coalgebra, sweedler_hopf, trivial_comodule_algebra,
    trivial_hopf,
)
from hopfcyclic.cylinder import (
    AlgebraCylinder, AlgebraModuleForm, CoalgebraCocylinder,
    CoalgebraModuleForm, coinvariant_cocyclic_module, coinvariant_cyclic_module,
    _view, first_column_action,
    first_column_coaction,
)
from hopfcyclic.crossed import check_cyclic_ops, check_cocyclic_ops
from hopfcyclic.homology import hopf_comodule_coboundary, hopf_module_boundary
from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.tensor import tensor_unindex

QQ = Field.rationals()
DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def kc2():
    return group_algebra(cyclic_group_table(2), QQ)


def test_transform_identity_for_empty_bar_block():
    mf = AlgebraModuleForm(AlgebraCylinder(regular_comodule_algebra(kc2())))
    for q in range(3):
        n = mf.space_dim(0, q)
        assert mf.to_module(0, q) == SparseMatrix.identity(QQ, n)
        assert mf.from_module(0, q) == SparseMatrix.identity(QQ, n)


def test_transform_identity_for_trivial_hopf():
    h = kc2()
    a = trivial_comodule_algebra(trivial_hopf(QQ), h.as_algebra())
    mf = AlgebraModuleForm(AlgebraCylinder(a))
    for p in range(3):
        n = mf.space_dim(p, 1)
        assert mf.to_module(p, 1) == SparseMatrix.identity(QQ, n)


def test_algebra_module_form_full_check_kc2():
    mf = AlgebraModuleForm(AlgebraCylinder(regular_comodule_algebra(kc2())))
    rep = mf.check(2, 2)
    assert rep.ok, rep.failures()


def test_algebra_module_form_sweedler():
    a = regular_comodule_algebra(sweedler_hopf(QQ))
    rep = AlgebraModuleForm(AlgebraCylinder(a)).check(1, 1)
    assert rep.ok, rep.failures()


def test_coalgebra_module_form_full_check_kc2():
    cmf = CoalgebraModuleForm(
        CoalgebraCocylinder(regular_module_coalgebra(kc2())))
    rep = cmf.check(2, 2)
    assert rep.ok, rep.failures()


def test_coalgebra_module_form_sweedler():
    c = regular_module_coalgebra(sweedler_hopf(QQ))
    rep = CoalgebraModuleForm(CoalgebraCocylinder(c)).check(1, 1)
    assert rep.ok, rep.failures()


_CONJUGATED = {"tau_v", "face_v", "degen_v", "tau_h", "face_h", "degen_h",
               "coface_v", "codegen_v", "coface_h", "codegen_h"}


@pytest.mark.parametrize("form, cylinder, structure", [
    (AlgebraModuleForm, AlgebraCylinder, regular_comodule_algebra),
    (CoalgebraModuleForm, CoalgebraCocylinder, regular_module_coalgebra),
])
def test_the_check_conjugates_each_operator_once(form, cylinder, structure,
                                                 monkeypatch):
    """check() builds each conjugated operator once, and the alternating
    (co)boundary it compares with the Hopf-(co)module one reuses them: each
    product to_module . op that conjugates an operator is formed once, one
    per conjugated operator the form holds."""
    mf = form(cylinder(structure(sweedler_hopf(QQ))))
    formed = []
    honest = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__",
                        lambda a, b: formed.append((a, b)) or honest(a, b))
    assert mf.check(1, 1).ok
    monkeypatch.undo()
    regroup = {name: [m for key, m in mf._cache.items() if key[0] == name]
               for name in ("to_module", "from_module")}
    conjugations = [
        (id(a), id(b)) for a, b in formed
        if any(a is m for m in regroup["to_module"])
        and not any(b is m for m in regroup["from_module"])]
    held = [key for key in mf._cache if key[0] in _CONJUGATED]
    assert held and len(conjugations) == len(set(conjugations)) == len(held)


def test_boundary_equals_module_boundary_entrywise():
    a = regular_comodule_algebra(kc2())
    mf = AlgebraModuleForm(AlgebraCylinder(a))
    for p in range(1, 3):
        for q in range(3):
            delta = hopf_module_boundary(
                a.hopf, first_column_action(a, q), p)
            assert mf.boundary_h(p, q) == delta


def test_coboundary_equals_comodule_coboundary_entrywise():
    c = regular_module_coalgebra(kc2())
    cmf = CoalgebraModuleForm(CoalgebraCocylinder(c))
    for p in range(3):
        for q in range(3):
            cb = hopf_comodule_coboundary(
                c.hopf, first_column_coaction(c, q), p)
            assert cmf.coboundary_h(p, q) == cb


def test_published_rotation_display_is_not_the_conjugate():
    """The source's displayed transformed horizontal rotation redistributes a
    bar factor into the module slot; the actual conjugate moves the module
    slot's legs instead.  Recorded as a permanent counterexample."""
    a = regular_comodule_algebra(kc2())
    mf = AlgebraModuleForm(AlgebraCylinder(a))
    conj = mf.tau_h(1, 0)
    col = conj.column(2)  # input (1 | g | 1)
    assert col == {6: QQ.one()}  # conjugate lands on (g | g | 1)
    src = tensor_unindex([2, 2, 2], 2)
    dst = tensor_unindex([2, 2, 2], 6)
    # the displayed form would fix the first factor; the conjugate moves it
    assert src[0] != dst[0]


def test_first_column_families_are_paracyclic_and_cyclic_after_quotient():
    a = regular_comodule_algebra(kc2())
    fam = _view(AlgebraCylinder(a), "v", 0, 2)  # the first column
    rep = check_cyclic_ops(fam, cyclic=False)
    assert rep.ok
    ops, pres = coinvariant_cyclic_module(a, N=2)
    assert check_cyclic_ops(ops, cyclic=True).ok
    assert [p.dim for p in pres] == [4, 8, 16]


def test_coinvariant_quotient_dims_trivial_coaction():
    # relations vanish for an abelian group algebra acting by conjugation
    a = trivial_comodule_algebra(kc2())
    ops, pres = coinvariant_cyclic_module(a, N=2)
    assert [p.dim for p in pres] == [2, 2, 2]


def test_coinvariant_subspace_ops_cocyclic():
    c = regular_module_coalgebra(kc2())
    fam = _view(CoalgebraCocylinder(c), "v", 0, 2)  # the first column
    assert check_cocyclic_ops(fam, cocyclic=False).ok
    ops, pres = coinvariant_cocyclic_module(c, N=2)
    assert check_cocyclic_ops(ops, cocyclic=True).ok
    # group-like coaction is trivial, so the subspace is everything
    assert [p.dim for p in pres] == [4, 8, 16]


def test_coinvariant_modules_sweedler():
    a = regular_comodule_algebra(sweedler_hopf(QQ))
    ops, pres = coinvariant_cyclic_module(a, N=1)
    assert check_cyclic_ops(ops, cyclic=True).ok
    c = regular_module_coalgebra(sweedler_hopf(QQ))
    cops, cpres = coinvariant_cocyclic_module(c, N=1)
    assert check_cocyclic_ops(cops, cocyclic=True).ok


# -- recorded Sweedler reports ------------------------------------------------------

@pytest.mark.parametrize("golden, argv, exit_code", [
    ("transforms_sweedler_Q_p1_q1", "verify transforms --pmax 1 --qmax 1", 0),
    # asymmetric windows: a swapped P/Q or a wrong target shift shows here
    ("transforms_sweedler_Q_p1_q2", "verify transforms --pmax 1 --qmax 2", 0),
    ("cylindrical_sweedler_Q_p2_q1", "verify cylindrical --pmax 2 --qmax 1", 0),
    # every rotation and last (co)face off its kernel's row or column is
    # widened from the kernel
    ("cylindrical_sweedler_Q_p2_q2", "verify cylindrical --pmax 2 --qmax 2", 0),
    ("cocylindrical_sweedler_Q_p2_q2",
     "verify cocylindrical --pmax 2 --qmax 2", 0),
    ("cocylindrical_sweedler_Q_p1_q1",
     "verify cocylindrical --pmax 1 --qmax 1", 0),
    ("iso_sweedler_Q_n1", "verify iso --nmax 1", 0),
    # the coalgebra-side intertwining through degree 2
    ("iso_sweedler_Q_n2", "verify iso --nmax 2", 0),
    ("coinvariants_sweedler_Q_n1", "compute coinvariants --nmax 1", 0),
    # Sweedler is not semisimple: the collapse fails, the control exits 1
    ("collapse_coalgebra_sweedler_Q_n1", "compare collapse-coalgebra --nmax 1",
     1),
])
def test_sweedler_reports_match_the_recorded_ones(golden, argv, exit_code,
                                                  monkeypatch, capsys):
    """The (co)cylinder, module-form, isomorphism and coinvariant reports on
    Sweedler's non-cocommutative Hopf algebra, byte for byte against the
    ones recorded before these operators were given one definition each
    (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(argv.split() + ["-i", "data/sweedler_Q.json"])
    with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
        assert code == exit_code and capsys.readouterr().out == fh.read()


def test_failing_cylinder_report_matches_the_recorded_one(monkeypatch, capsys):
    """A Sweedler comodule algebra with the coaction term gx -> gx (x) g
    negated fails only `coaction multiplicative` as a comodule algebra, and
    21 of the cylinder's 122 identities, the first `d_i d_j = d_{j-1} d_i`
    at degree 2: the whole report, exit 1, byte for byte against the one
    recorded before the suites were one (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    bad = "tests/sweedler_Q_bad_coaction.json"
    assert cli.main(["verify", "comodule-algebra", "-i", bad]) == 1
    failed = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["ok"]]
    assert failed == ["coaction multiplicative"]
    code = cli.main(["verify", "cylindrical", "--pmax", "1", "--qmax", "2",
                     "-i", bad])
    with open(os.path.join("tests", "goldens",
                           "cylindrical_bad_coaction_sweedler_Q_p1_q2.json")) \
            as fh:
        assert code == 1 and capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("key", ["unit", "counit"])
@pytest.mark.parametrize("target", ["cylindrical", "cocylindrical"])
def test_cylinder_suites_refuse_an_h_whose_unit_or_counit_is_zero(
        target, key, tmp_path, monkeypatch, capsys):
    """The (co)cylinder suites check only the identities of the maps they
    build, which all hold on Sweedler with a zero counit (cylindrical) or
    a zero unit (cocylindrical).  So both commands check H's Hopf axioms
    first: either zero exits 1 with AxiomFailure naming the failed axioms,
    and no report entry is added when H passes (the goldens above)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    with open(os.path.join("data", "sweedler_Q.json")) as fh:
        doc = json.load(fh)
    doc["hopf"][key] = []
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code = cli.main(["verify", target, "--pmax", "1", "--qmax", "1",
                     "-i", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and "checks" not in report
    assert report["error"] == (
        "AxiomFailure: H fails the Hopf axioms: left %s, right %s, counit "
        "of unit, antipode left, antipode right" % (key, key))


@pytest.mark.parametrize("golden, target, bad, failing", [
    ("cylindrical_bad_coaction_sweedler_Q_p2_q2", "cylindrical",
     "tests/sweedler_Q_bad_coaction.json", 34),
    ("cocylindrical_bad_action_sweedler_Q_p2_q2", "cocylindrical",
     "tests/sweedler_Q_bad_action.json", 52),
], ids=["cylinder", "cocylinder"])
def test_failing_reports_on_the_widened_window_match_the_recorded_ones(
        golden, target, bad, failing, monkeypatch, capsys):
    """On the window (2, 2) every rotation and last (co)face outside its
    kernel's row or column is widened from the kernel.  The Sweedler
    structures with one coaction term, or one action entry, negated fail
    the same checks there as when every cell was compiled: the whole
    report, exit 1, byte for byte against the one recorded before the
    widening (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(["verify", target, "--pmax", "2", "--qmax", "2",
                     "-i", bad])
    out = capsys.readouterr().out
    with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
        assert code == 1 and out == fh.read()
    checks = json.loads(out)["checks"]
    assert (len(checks), sum(not c["ok"] for c in checks)) == (259, failing)
