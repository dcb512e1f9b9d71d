"""CLI contract: exit codes, reports, determinism, corpus round-trips."""

import json
import os
import subprocess
import sys

import pytest

from hopfcyclic.corpus import corpus_documents
from hopfcyclic.io import dumps_document, load_document, parse_document

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcyclic", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def data_file(name):
    return os.path.join(DATA, name + ".json")


def test_corpus_files_match_builders():
    for name, doc in corpus_documents().items():
        with open(data_file(name)) as fh:
            on_disk = fh.read()
        assert on_disk == dumps_document(doc), name


def test_round_trip_idempotent(tmp_path):
    src = data_file("sweedler_Q")
    doc = load_document(src)
    once = dumps_document(doc)
    twice = dumps_document(parse_document(json.loads(once)))
    assert once == twice


def test_verify_hopf_ok():
    code, out, _ = run_cli("verify", "hopf", "-i", data_file("c2_Q"))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and all(c["ok"] for c in rep["checks"])


def test_verify_corrupted_antipode_exits_one(tmp_path):
    with open(data_file("sweedler_Q")) as fh:
        data = json.load(fh)
    data["antipode_note"] = None
    data["hopf"]["antipode"] = [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"],
                                [3, 3, "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("verify", "hopf", "-i", str(bad))
    assert code == 1
    rep = json.loads(out)
    failed = [c["name"] for c in rep["checks"] if not c["ok"]]
    assert failed and all("antipode" in n for n in failed)


def test_missing_block_exits_two(tmp_path):
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    del data["algebra"]
    doc = tmp_path / "noalg.json"
    doc.write_text(json.dumps(data))
    code, out, _ = run_cli("verify", "comodule-algebra", "-i", str(doc))
    assert code == 2
    assert "algebra" in json.loads(out)["error"]


@pytest.mark.parametrize("args", [
    "verify iso", "verify transforms", "compute hh", "compute hc",
    "compute ss-pages", "compute coinvariants", "compare diagonal-vs-direct",
    "compare ez-hochschild",
])
def test_target_needing_either_block_exits_two_without_both(args, tmp_path,
                                                           capsys):
    """A target that runs on the algebra or the coalgebra block refuses a
    document with neither; a bad degree bound is reported first."""
    from hopfcyclic import cli
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    del data["algebra"], data["coalgebra"]
    doc = tmp_path / "hopf_only.json"
    doc.write_text(json.dumps(data))
    argv = args.split() + ["-i", str(doc)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "target %s needs an algebra or coalgebra block"
        % args.split()[1]}
    flag = "--qmax" if args in ("verify transforms", "compute ss-pages") \
        else "--nmax"
    assert cli.main(argv + [flag, "-1"]) == 2
    assert "must be an integer >= 0" in capsys.readouterr().out


def test_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, _ = run_cli("verify", "hopf", "-i", str(bad))
    assert code == 2


def test_out_of_range_index_exits_two(tmp_path):
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    data["hopf"]["mult"].append([5, 0, 0, "1"])
    bad = tmp_path / "range.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("verify", "hopf", "-i", str(bad))
    assert code == 2


@pytest.mark.parametrize("triple", [
    [2, -1, 0, "1"],  # flattens to 2 * 2 - 1, the key of e_1 e_1
    ["a", 1, 0, "1"],
    [1.7, 1, 0, "1"],  # int() would truncate it to e_1 e_1
    [True, 1, 0, "1"],
])
def test_bad_index_exits_two(triple, tmp_path):
    """Each index is checked against its own basis and must be a JSON
    integer; the triple replaces e_1 e_1 -> e_0 in C2's product."""
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    mult = data["hopf"]["mult"]
    mult[mult.index([1, 1, 0, "1"])] = triple
    bad = tmp_path / "index.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("verify", "hopf", "-i", str(bad))
    assert code == 2
    assert set(json.loads(out)) == {"error"}


def _set(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, reason", [
    (_set(("field", "p"), 2.9), "p must be an integer"),  # int() made it 2
    (_set(("field", "p"), True), "p must be an integer"),  # int() made it 1
    (_set(("field", "p"), "2"), "p must be an integer"),
    (_set(("field", "p"), 3215031751), "not prime"),  # strong pseudoprime
    (_set(("field", "p"), 2 ** 89 - 1), "decided exactly"),  # prime, too big
    (_set(("hopf", "basis"), 3), "hopf basis must be a list"),
    (_set(("hopf", "mult"), 5), "hopf mult must be a list"),
    (_set(("algebra",), [1]), "algebra block must be an object"),
    (_set(("coalgebra",), "counit"), "coalgebra block must be an object"),
], ids=["p-float", "p-bool", "p-string", "p-pseudoprime", "p-above-bound",
        "basis-int", "mult-int", "algebra-list", "coalgebra-string"])
def test_malformed_block_exits_two(edit, reason, tmp_path, capsys):
    """The prime must be a JSON integer, each block a JSON object and each
    of its entries a JSON list; anything else is a parse error."""
    from hopfcyclic import cli
    with open(data_file("c2_F2")) as fh:
        data = json.load(fh)
    edit(data)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["verify", "hopf", "-i", str(bad)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert set(err) == {"error"} and reason in err["error"]


@pytest.mark.parametrize("edit", [
    _set(("hopf", "antipode"), []),
    lambda data: data["hopf"]["basis"].append("z"),
], ids=["empty-antipode", "basis-longer-than-tables"])
def test_singular_antipode_exits_two(edit, tmp_path, capsys):
    """With no antipode entries, or a basis name that no table mentions,
    the antipode has no inverse and no operator can be built: every job
    refuses the input."""
    from hopfcyclic import cli
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    edit(data)
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(data))
    for job in ("verify hopf", "compute hc --nmax 1", "verify cylindrical",
                "compute coinvariants --nmax 1",
                "compute ss-pages --rmax 1 --pmax 1 --qmax 1"):
        assert cli.main(job.split() + ["-i", str(bad)]) == 2, job
        err = json.loads(capsys.readouterr().out)
        assert err == {"error": "bad hopf block: antipode is not invertible"}


def test_large_prime_field_is_accepted_at_once(tmp_path, capsys):
    from hopfcyclic import cli
    with open(data_file("c2_F2")) as fh:
        data = json.load(fh)
    data["field"]["p"] = 10 ** 18 + 9
    doc = tmp_path / "big_p.json"
    doc.write_text(json.dumps(data))
    assert cli.main(["verify", "hopf", "-i", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_compute_hc_ground_field():
    code, out, _ = run_cli("compute", "hc", "-i", data_file("ground_field_Q"),
                           "--nmax", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["tables"]["hc_crossed_product_algebra"] == [1, 0, 1, 0]
    assert rep["tables"]["hc_crossed_product_coalgebra"] == [1, 0, 1, 0]


def test_compute_hopf_homology_f2():
    code, out, _ = run_cli("compute", "hopf-homology", "-i",
                           data_file("c2_F2"), "--qmax", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["tables"]["hopf_module_homology_trivial_coefficients"] \
        == [1, 1, 1, 1]


def test_compute_ss_pages_semisimple_vanishing():
    code, out, _ = run_cli("compute", "ss-pages", "-i", data_file("c2_Q"),
                           "--rmax", "1", "--pmax", "2", "--qmax", "2")
    assert code == 0
    pages = json.loads(out)["tables"]["pages_algebra"]
    e1 = pages[1]["entries"]
    assert all(d == 0 for i, j, d, _ in e1 if j > 0)
    assert pages[1]["r"] == 1


def test_compare_collapse_and_verdicts():
    code, out, _ = run_cli("compare", "collapse-algebra", "-i",
                           data_file("c2_Q"), "--nmax", "2")
    assert code == 0
    rows = json.loads(out)["verdicts"]["hc_crossed_vs_coinvariants"]
    assert [r["lhs"] for r in rows] == [4, 0, 4]
    assert all(r["equal"] for r in rows)


def test_compare_diagonal_vs_direct():
    code, out, _ = run_cli("compare", "diagonal-vs-direct", "-i",
                           data_file("c2_Q"), "--nmax", "2")
    assert code == 0
    rep = json.loads(out)
    assert all(v["equal"] for rows in rep["verdicts"].values() for v in rows)


def test_csv_and_output_files(tmp_path):
    out_json = tmp_path / "report.json"
    csvdir = tmp_path / "csv"
    code, out, _ = run_cli("compute", "hh", "-i", data_file("c2_Q"),
                           "--nmax", "2", "-o", str(out_json),
                           "--csv", str(csvdir))
    assert code == 0 and out == ""
    rep = json.loads(out_json.read_text())
    assert rep["tables"]["hh_crossed_product_algebra"] == [4, 0, 0]
    csv = (csvdir / "hh_crossed_product_algebra.csv").read_text()
    assert csv.splitlines()[0] == "n,dim"
    assert csv.splitlines()[1] == "0,4"


@pytest.mark.parametrize("args", [
    ("verify", "hopf", "-i", data_file("c2_Q")),
    ("verify", "transforms", "-i", data_file("c2_Q"),
     "--pmax", "1", "--qmax", "1"),
    ("compute", "hc", "-i", data_file("c2_Q"), "--nmax", "2"),
    ("compute", "ss-pages", "-i", data_file("c2_F2_trivial"),
     "--rmax", "1", "--pmax", "1", "--qmax", "1"),
    ("compare", "ez-hochschild", "-i", data_file("c2_Q"), "--nmax", "1"),
])
def test_reports_byte_identical_across_runs(args):
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_timings_go_to_stderr_only():
    _, out1, err1 = run_cli("verify", "hopf", "-i", data_file("c2_Q"),
                            "--timings")
    _, out2, _ = run_cli("verify", "hopf", "-i", data_file("c2_Q"))
    assert out1 == out2
    assert "elapsed" in err1


@pytest.mark.parametrize("args, flag", [
    (["verify", "cylindrical", "-i", data_file("sweedler_Q"), "--pmax", "-2"],
     "--pmax"),
    (["compute", "hc", "-i", data_file("c2_Q"), "--nmax", "-1"], "--nmax"),
    (["compute", "hopf-homology", "-i", data_file("c2_F2"), "--qmax", "-3"],
     "--qmax"),
])
def test_negative_degree_bound_exits_two(args, flag):
    code, out, _ = run_cli(*args)
    assert code == 2
    err = json.loads(out)
    assert set(err) == {"error"} and flag in err["error"]


def test_non_integer_bound_in_options_exits_two(tmp_path):
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    data["options"] = {"N": "2"}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(data))
    code, out, _ = run_cli("verify", "iso", "-i", str(doc))
    assert code == 2
    assert "--nmax" in json.loads(out)["error"]


@pytest.mark.parametrize("value", [True, False])
def test_boolean_bound_in_options_exits_two(value, tmp_path):
    """A JSON boolean is not a degree bound, though Python counts it an int."""
    code, out, _ = run_cli("compute", "hh", "-i",
                           _with_options(tmp_path, {"N": value}))
    assert code == 2
    assert "--nmax" in json.loads(out)["error"]


def _with_options(tmp_path, options):
    with open(data_file("c2_Q")) as fh:
        data = json.load(fh)
    data["options"] = options
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(data))
    return str(doc)


def test_compute_reads_degree_bound_from_document_options(tmp_path):
    """`compute` takes N from the document's options, as `verify` does."""
    code, out, _ = run_cli("compute", "hh", "-i",
                           _with_options(tmp_path, {"N": -1}))
    assert code == 2
    assert "--nmax" in json.loads(out)["error"]
    code, out, _ = run_cli("compute", "hh", "-i",
                           _with_options(tmp_path, {"N": 1}))
    assert code == 0
    tables = json.loads(out)["tables"]
    assert tables and all(len(t) == 2 for t in tables.values())


def test_verify_that_checked_nothing_is_not_ok(monkeypatch, capsys):
    """A suite that runs no check cannot report `"ok": true`."""
    from hopfcyclic import cli
    from hopfcyclic.hopf import CheckReport
    monkeypatch.setattr(cli, "check_hopf", lambda h: CheckReport("hopf"))
    code = cli.main(["verify", "hopf", "-i", data_file("c2_Q")])
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [] and report["ok"] is False
    assert code == 1


def test_compare_without_verdicts_is_not_ok(monkeypatch, capsys):
    """A comparison that produces no verdict cannot report `"ok": true`."""
    from hopfcyclic import cli
    monkeypatch.setattr(cli, "ez_compare_hochschild", lambda *a, **k: [])
    code = cli.main(["compare", "ez-hochschild", "-i", data_file("c2_Q"),
                     "--nmax", "1"])
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"ez_algebra": [], "ez_coalgebra": []}
    assert report["ok"] is False and code == 1


# (job, file, --nmax) of each job refused by its chain-space row alone
@pytest.mark.parametrize("args", [
    ["compute", "hc", "c2_F2", "7"], ["compute", "hh", "c2_F2", "7"],
    ["compare", "diagonal-vs-direct", "s3_Q", "3"],
    ["compare", "collapse-algebra", "s3_Q", "3"],
    ["compare", "collapse-coalgebra", "s3_Q", "3"],
])
def test_crossed_product_job_above_size_limit_is_refused_at_once(
        args, monkeypatch, capsys):
    """C2 over F_2 at --nmax 7 needs a chain space of dimension 4^9, and S3
    at --nmax 3 one of 36^5: the job exits 2 before any crossed product is
    built.  (Over Q, `compute hh|hc` build it to ask whether it is
    semisimple: see the next test.)"""
    from hopfcyclic import cli

    def unreachable(*a, **k):
        raise AssertionError("a refused job built a crossed product")

    monkeypatch.setattr(cli, "crossed_product_algebra", unreachable)
    monkeypatch.setattr(cli, "crossed_product_coalgebra", unreachable)
    code = cli.main(args[:2] + ["-i", data_file(args[2]), "--nmax", args[3]])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    assert {"c2_F2": "4^9 = 262144",
            "s3_Q": "36^5 = 60466176"}[args[2]] in err["error"]


@pytest.mark.parametrize("target", ["hh", "hc"])
def test_closed_form_jobs_pass_the_chain_row_it_never_builds(target,
                                                             monkeypatch,
                                                             capsys):
    """`compute hh|hc` on a crossed product semisimple over Q build no
    chain space, so the chain-space row gives way where it alone refuses:
    C2 at --nmax 7 (4^9) and S3 at --nmax 3 (36^5) run, with no chain
    complex built.  The (co)face work row still bounds --nmax: C2 runs at
    --nmax 99, and at 100, where both rows refuse, the job is refused by
    its first.  Sweedler, which is not semisimple, is still refused at
    --nmax 3 (16^5), before any chain complex is built."""
    from hopfcyclic import cli

    def unreachable(*a, **k):
        raise AssertionError("a chain complex was built")

    for name in ("normalized_mixed_complex", "normalized_hochschild_dims"):
        monkeypatch.setattr(cli, name, unreachable)
    for name, nmax, h0 in (("c2_Q", 7, [4, 4]), ("s3_Q", 3, [9, 36])):
        assert cli.main(["compute", target, "-i", data_file(name),
                         "--nmax", str(nmax)]) == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        assert [t[0] for t in tables.values()] == h0
        assert all(len(t) == nmax + 1 for t in tables.values())
    for name, nmax, text in (
            ("c2_Q", 100, "chain space of dimension 4^102, above"),
            ("sweedler_Q", 3, "chain space of dimension 16^5 = 1048576")):
        code = cli.main(["compute", target, "-i", data_file(name),
                         "--nmax", str(nmax)])
        err = json.loads(capsys.readouterr().out)
        assert code == 2 and text in err["error"]
    cli._check_size(load_document(data_file("c2_Q")), target, {"nmax": 99},
                    ("algebra", "coalgebra"))


def test_the_gate_hands_its_crossed_product_to_the_job(monkeypatch, capsys):
    """Where the chain-space row gives way, the gate builds the side's
    crossed product to ask for the closed form, and the job reads that
    one: `compute hc` on C2 at --nmax 7 builds the algebra side's crossed
    product once and checks its algebra axioms once."""
    from hopfcyclic import cli, crossed
    calls = []
    for module, name in ((cli, "crossed_product_algebra"),
                         (crossed, "check_algebra")):
        def spied(*args, _name=name, _honest=getattr(module, name)):
            calls.append(_name)
            return _honest(*args)
        monkeypatch.setattr(module, name, spied)
    assert cli.main(["compute", "hc", "-i", data_file("c2_Q"),
                     "--nmax", "7"]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["check_algebra", "crossed_product_algebra"]


@pytest.mark.parametrize("nmax", [6, 7])
def test_semisimplicity_is_decided_once_per_side(nmax, monkeypatch, capsys):
    """`compute hc` on C2 decides once per side whether the crossed product
    is semisimple: in the job at --nmax 6, which the gate admits outright,
    and in the gate at --nmax 7, which hands its HH_0 to the job with the
    crossed product."""
    from hopfcyclic import cli
    calls = []
    honest = cli.semisimple_hh0
    monkeypatch.setattr(cli, "semisimple_hh0",
                        lambda r: calls.append(r.dim) or honest(r))
    assert cli.main(["compute", "hc", "-i", data_file("c2_Q"),
                     "--nmax", str(nmax)]) == 0
    tables = json.loads(capsys.readouterr().out)["tables"]
    assert [t[0] for t in tables.values()] == [4, 4]
    assert calls == [4, 4]


def test_huge_nmax_is_refused_without_building_the_power(capsys):
    """The estimate stops at the first factor past the limit: d^(nmax+2) is
    never built nor printed in full for an absurd --nmax."""
    from hopfcyclic import cli
    code = cli.main(["compute", "hc", "-i", data_file("c2_Q"),
                     "--nmax", str(10 ** 6)])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    assert "4^1000002, above the limit" in err["error"]


# The first --nmax at which each corpus structure's chain-space row
# dim(R)^(nmax+2) passes 2^17.  Every smaller --nmax is admitted, the
# Sweedler --nmax 2 and S3 --nmax 1 scale points (CI runs both) included.
# The row refuses `compare diagonal-vs-direct` there on every structure,
# and `compute hh` only where a crossed product is not semisimple over Q
# (C2 over F_2, Sweedler); the closed form of the others builds no chains.
@pytest.mark.parametrize("name, first_refused", [
    ("c2_Q", 7), ("c2_F2", 7), ("c3_Q", 4), ("sweedler_Q", 3), ("s3_Q", 2),
])
def test_size_limit_on_the_corpus(name, first_refused):
    from hopfcyclic import cli
    from hopfcyclic.errors import TooLarge
    doc = load_document(data_file(name))
    blocks = ("algebra", "coalgebra")
    for target in ("hh", "diagonal-vs-direct"):
        cli._check_size(doc, target, {"nmax": first_refused - 1}, blocks)
    with pytest.raises(TooLarge, match="chain space"):
        cli._check_size(doc, "diagonal-vs-direct",
                        {"nmax": first_refused}, blocks)
    if name in ("c2_F2", "sweedler_Q"):
        with pytest.raises(TooLarge, match="chain space"):
            cli._check_size(doc, "hh", {"nmax": first_refused}, blocks)
    else:
        cli._check_size(doc, "hh", {"nmax": first_refused}, blocks)


@pytest.mark.parametrize("args", [
    ["compute", "coinvariants", "--nmax", "4"],
    ["compare", "collapse-algebra", "--nmax", "1"],
    ["compare", "collapse-coalgebra", "--nmax", "1"],
])
def test_coinvariant_job_above_expression_limit_is_refused_at_once(
        args, monkeypatch, capsys):
    """S3 at top degree 4 needs a first column of dimension 6 6^5: the job
    exits 2 before any coinvariant module or crossed product is built.  On
    the corpus the crossed-product cap refuses a collapse job before the
    first column passes the cap, so the collapse rows lower the cap below
    S3's first column at top degree 2 (6 6^3) to reach it."""
    from hopfcyclic import cli

    def unreachable(*a, **k):
        raise AssertionError("a refused job built a module")

    for name in ("coinvariant_cyclic_module", "coinvariant_cocyclic_module",
                 "crossed_product_algebra", "crossed_product_coalgebra"):
        monkeypatch.setattr(cli, name, unreachable)
    collapse = args[0] == "compare"
    if collapse:
        monkeypatch.setattr(cli, "MAX_COLUMN_DIM", 2 ** 10)
    code = cli.main(args[:2] + ["-i", data_file("s3_Q")] + args[2:])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    expected = "6 6^3 = 1296" if collapse else "6 6^5 = 46656"
    assert ("first column of dimension %s, above the limit" % expected
            in err["error"])


def test_ss_pages_job_above_total_limit_is_refused_at_once(
        monkeypatch, capsys):
    """Sweedler at pmax = 3, qmax = 2 needs a top total space of 7 * 4^8:
    the job exits 2 before any total complex is built."""
    from hopfcyclic import cli

    def unreachable(*a, **k):
        raise AssertionError("a refused job built a total complex")

    for name in ("total_complex_algebra", "total_complex_coalgebra",
                 "AlgebraCylinder", "CoalgebraCocylinder"):
        monkeypatch.setattr(cli, name, unreachable)
    code = cli.main(["compute", "ss-pages", "-i", data_file("sweedler_Q"),
                     "--pmax", "3", "--qmax", "2"])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    assert "over p+q = 6 = 458752, above the limit" in err["error"]


@pytest.mark.parametrize("args, text", [
    (["compute", "coinvariants", "-i", "c2_Q", "--nmax", str(10 ** 6)],
     "first column of dimension 2 2^1000001, above the limit"),
    (["compute", "ss-pages", "-i", "c2_Q", "--pmax", str(10 ** 6)],
     "over p+q = 1000003, above the limit"),
    (["compute", "ss-pages", "-i", "ground_field_Q", "--pmax", str(10 ** 9)],
     "sum of 1^(p+1) 1^(q+1) over p+q = 1000000003, above the limit"),
])
def test_huge_bounds_are_refused_without_building_the_estimate(args, text,
                                                               capsys):
    from hopfcyclic import cli
    args = args[:3] + [data_file(args[3])] + args[4:]
    code = cli.main(args)
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and text in err["error"]


# The first --nmax of `compute coinvariants` each corpus structure is
# refused at (collapse-* builds one degree more, so its bound is one lower),
# and the first pmax + qmax of `compute ss-pages`.  Every benchmarked job is
# admitted: coinvariants on C2 at --nmax 3, collapse on C2 at --nmax 2 and
# pages on C2 at (2, 2); so is the S3 coinvariants --nmax 2 scale point
# (CI runs it).
@pytest.mark.parametrize("name, coinvariants, pages", [
    ("c2_Q", 14, 12), ("c2_F2", 14, 12), ("c3_Q", 8, 7),
    ("sweedler_Q", 6, 5), ("s3_Q", 4, 4),
])
def test_coinvariant_and_pages_limits_on_the_corpus(name, coinvariants, pages):
    from hopfcyclic import cli
    from hopfcyclic.errors import TooLarge
    doc = load_document(data_file(name))
    blocks = ("algebra", "coalgebra")
    n = coinvariants - 1
    # the coinvariant rows of collapse-* at --nmax m are those of
    # coinvariants at m + 1
    cli._check_size(doc, "coinvariants", {"nmax": n}, blocks)
    cli._check_size(doc, "coinvariants", {"nmax": (n - 1) + 1}, blocks)
    with pytest.raises(TooLarge):
        cli._check_size(doc, "coinvariants", {"nmax": n + 1}, blocks)
    with pytest.raises(TooLarge):
        cli._check_size(doc, "coinvariants", {"nmax": n + 1}, blocks)
    for pmax in range(pages):
        cli._check_size(doc, "ss-pages", {"rmax": 2, "pmax": pmax,
                                          "qmax": pages - 1 - pmax}, blocks)
        with pytest.raises(TooLarge):
            cli._check_size(doc, "ss-pages", {"rmax": 2, "pmax": pmax,
                                              "qmax": pages - pmax}, blocks)


@pytest.mark.parametrize("args, text", [
    (["verify", "cylindrical", "-i", "s3_Q", "--pmax", "3", "--qmax", "2"],
     "cells of total dimension 12 6^4 6^3 = 3359232"),
    (["verify", "cocylindrical", "-i", "sweedler_Q", "--pmax", "4",
      "--qmax", "3"], "cells of total dimension 20 4^5 4^4 = 5242880"),
    (["verify", "transforms", "-i", "s3_Q", "--pmax", "2", "--qmax", "1"],
     "closed vertical rotation expression of width 6^10 6 = 362797056"),
    (["verify", "iso", "-i", "s3_Q", "--nmax", "3"],
     "cells of total dimension 4 36^4 = 6718464"),
    (["compare", "ez-hochschild", "-i", "s3_Q", "--nmax", "2"],
     "cells of total dimension 4 36^4 = 6718464"),
    (["verify", "cylindrical", "-i", "c2_Q", "--pmax", str(10 ** 6)],
     "cells of total dimension 3000003 2^1000001 2^3, above the limit"),
])
def test_verify_and_ez_jobs_above_size_limits_are_refused_at_once(
        args, text, monkeypatch, capsys):
    """The job exits 2 before any cylinder, module form, isomorphism or
    total complex is built."""
    from hopfcyclic import cli

    def unreachable(*a, **k):
        raise AssertionError("a refused job built a structure")

    for name in ("AlgebraCylinder", "CoalgebraCocylinder",
                 "AlgebraModuleForm", "CoalgebraModuleForm",
                 "check_algebra_cylinder", "check_coalgebra_cocylinder",
                 "phi_psi_algebra", "phi_psi_coalgebra",
                 "ez_compare_hochschild"):
        monkeypatch.setattr(cli, name, unreachable)
    code = cli.main(args[:3] + [data_file(args[3])] + args[4:])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    assert text in err["error"]


# The first pmax = qmax window of `verify cylindrical|cocylindrical` and of
# `verify transforms`, and the first --nmax of `verify iso` and of `compare
# ez-hochschild`, that each corpus structure is refused at.  Every
# benchmarked and acceptance-tested job lies below these bounds.
@pytest.mark.parametrize("name, cylinder, transforms, iso, ez", [
    ("c2_Q", 7, 5, 8, 7), ("c3_Q", 5, 3, 5, 4), ("sweedler_Q", 4, 2, 4, 3),
    ("s3_Q", 3, 2, 3, 2),
])
def test_verify_and_ez_limits_on_the_corpus(name, cylinder, transforms, iso,
                                            ez):
    from hopfcyclic import cli
    from hopfcyclic.errors import TooLarge
    doc = load_document(data_file(name))
    blocks = ("algebra", "coalgebra")
    for target, first in (("cylindrical", cylinder),
                          ("cocylindrical", cylinder),
                          ("transforms", transforms)):
        cli._check_size(doc, target,
                        {"pmax": first - 1, "qmax": first - 1}, blocks)
        with pytest.raises(TooLarge):
            cli._check_size(doc, target,
                            {"pmax": first, "qmax": first}, blocks)
    for target, first in (("iso", iso), ("ez-hochschild", ez)):
        cli._check_size(doc, target, {"nmax": first - 1}, blocks)
        with pytest.raises(TooLarge):
            cli._check_size(doc, target, {"nmax": first}, blocks)


class _Reached(Exception):
    """Raised by a monkeypatched builder: the job was admitted."""


# On a structure of dimension 1 the dimension caps never grow, so the work
# that grows with the degrees alone is capped on its own: each job at the
# admitted edge reaches its first builder, the next one is refused before it.
@pytest.mark.parametrize("args, edge, refused, text", [
    ("compute hh", "--nmax 99", "--nmax 100",
     "(co)face work 102^3 = 1061208, above the limit 1048576"),
    ("compute hc", "--nmax 99", "--nmax 100", "(co)face work 102^3"),
    ("compare diagonal-vs-direct", "--nmax 99", "--nmax 100",
     "(co)face work"),
    ("compare collapse-coalgebra", "--nmax 99", "--nmax 100",
     "(co)face work"),
    ("compute coinvariants", "--nmax 100", "--nmax 101",
     "(co)face work 102^3 = 1061208, above the limit 1048576"),
    ("compute ss-pages", "--pmax 15 --qmax 14", "--pmax 15 --qmax 15",
     "(co)face work 32^2 33^2 = 1115136, above the limit 1048576"),
    # the total complex reaches every cell with p + q <= pmax + qmax + 1
    ("compute ss-pages", "--pmax 0 --qmax 29", "--pmax 0 --qmax 30",
     "(co)face work 32^2 33^2"),
    ("verify cylindrical", "--pmax 20 --qmax 20", "--pmax 21 --qmax 21",
     "operator pairs 529^2 = 279841, above the limit 262144"),
    ("verify cocylindrical", "--pmax 20 --qmax 20", "--pmax 21 --qmax 21",
     "operator pairs 529^2"),
    ("verify transforms", "--pmax 20 --qmax 20", "--pmax 21 --qmax 21",
     "operator pairs 529^2"),
    ("verify cylindrical", "--pmax 14 --qmax 30", "--pmax 15 --qmax 30",
     "operator pairs 544^2"),  # 512^2 is the limit itself
    ("verify iso", "--nmax 62", "--nmax 63",
     "operator pairs 65^3 = 274625, above the limit 262144"),
    ("compare ez-hochschild", "--nmax 61", "--nmax 62",
     "operator pairs 65^3"),
    ("compute hopf-homology", "--qmax 1022", "--qmax 1023",
     "(co)face work 1025^2 = 1050625, above the limit 1048576"),
    ("compute comodule-cohomology", "--pmax 1022", "--pmax 1023",
     "(co)face work 1025^2"),
    ("compute ss-pages", "--pmax 15 --qmax 14 --rmax 1091",
     "--pmax 15 --qmax 14 --rmax 1092",
     "page entries (--rmax 1092) 1093 16 15 = 262320, above the limit 262144"),
])
def test_degree_work_limits_on_a_structure_of_dimension_one(
        args, edge, refused, text, monkeypatch, capsys):
    from hopfcyclic import cli

    def reached(*a, **k):
        raise _Reached

    for name in ("crossed_product_algebra", "crossed_product_coalgebra",
                 "AlgebraCylinder", "CoalgebraCocylinder",
                 "phi_psi_algebra", "phi_psi_coalgebra",
                 "coinvariant_cyclic_module", "coinvariant_cocyclic_module",
                 "hopf_module_homology", "hopf_comodule_cohomology"):
        monkeypatch.setattr(cli, name, reached)
    argv = args.split() + ["-i", data_file("ground_field_Q")]
    with pytest.raises(_Reached):
        cli.main(argv + edge.split())
    code = cli.main(argv + refused.split())
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    assert text in err["error"]


# The first top degree of the (co)bar complex of `compute hopf-homology`
# (--qmax) and `compute comodule-cohomology` (--pmax) each corpus structure
# is refused at: the normalized top space (dim(H) - 1)^(top+1) first passes
# 2^17 there, and where dim(H) <= 2 (one normalized chain or none per
# degree) the (co)face work (top+2)^2 first passes 2^20.  The benchmarked
# jobs (--qmax 8 and --pmax 8 on c2_F2) lie below.
@pytest.mark.parametrize("name, first_refused", [
    ("c2_Q", 1023), ("c2_F2", 1023), ("c3_Q", 17), ("sweedler_Q", 10),
    ("s3_Q", 7), ("ground_field_Q", 1023),
])
def test_bar_limits_on_the_corpus(name, first_refused):
    from hopfcyclic import cli
    from hopfcyclic.errors import TooLarge
    doc = load_document(data_file(name))
    for target, flag in (("hopf-homology", "qmax"),
                         ("comodule-cohomology", "pmax")):
        cli._check_size(doc, target, {flag: first_refused - 1}, ("hopf",))
        with pytest.raises(TooLarge):
            cli._check_size(doc, target, {flag: first_refused}, ("hopf",))


# The first --rmax of `compute ss-pages` refused at each window: the page
# entries (rmax+1)(pmax+1)(qmax+1) first pass 2^18 there, on every structure.
@pytest.mark.parametrize("pmax, qmax, first_refused", [
    (1, 1, 65536), (2, 2, 29127), (3, 3, 16384), (15, 14, 1092),
])
def test_rmax_limit_on_the_corpus(pmax, qmax, first_refused):
    from hopfcyclic import cli
    from hopfcyclic.errors import TooLarge
    blocks = ("algebra", "coalgebra")
    for name in ("c2_Q", "ground_field_Q"):
        doc = load_document(data_file(name))
        if name == "c2_Q" and pmax + qmax >= 12:
            continue  # the total space refuses it first
        bounds = {"pmax": pmax, "qmax": qmax}
        cli._check_size(doc, "ss-pages",
                        dict(bounds, rmax=first_refused - 1), blocks)
        with pytest.raises(TooLarge):
            cli._check_size(doc, "ss-pages",
                            dict(bounds, rmax=first_refused), blocks)


@pytest.mark.parametrize("args, text", [
    (["compute", "hopf-homology", "-i", "s3_Q", "--qmax", "8"],
     "--qmax 8 on the hopf block needs a (co)bar space of dimension "
     "5^9 = 1953125, above the limit 131072"),
    (["compute", "comodule-cohomology", "-i", "s3_Q", "--pmax", "8"],
     "--pmax 8 on the hopf block needs a (co)bar space of dimension "
     "5^9 = 1953125, above the limit 131072"),
    (["compute", "hopf-homology", "-i", "ground_field_Q", "--qmax",
      "100000"], "(co)face work 100002^2"),
    (["compute", "ss-pages", "-i", "c2_Q", "--rmax", "100000000"],
     "--pmax 2 --qmax 2 on the algebra block needs page entries "
     "(--rmax 100000000) 100000001 3 3 = 900000009, above the limit 262144"),
])
def test_bar_and_rmax_jobs_above_size_limits_are_refused_at_once(
        args, text, monkeypatch, capsys):
    """The job exits 2 before any (co)bar complex, total complex or page
    is built."""
    from hopfcyclic import cli

    def unreachable(*a, **k):
        raise AssertionError("a refused job built a complex")

    for name in ("hopf_module_homology", "hopf_comodule_cohomology",
                 "spectral_pages", "total_complex_algebra",
                 "total_complex_coalgebra", "AlgebraCylinder",
                 "CoalgebraCocylinder"):
        monkeypatch.setattr(cli, name, unreachable)
    code = cli.main(args[:3] + [data_file(args[3])] + args[4:])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and set(err) == {"error"}
    assert text in err["error"]


# -- compute hc over Q: the normalized (b, B) of the crossed product algebras -

def _forbid_crossed_modules(monkeypatch, job):
    """Make both crossed-product (co)cyclic-module builders raise, where
    `crossed` defines them and where `cylinder` binds them."""
    from hopfcyclic import crossed, cylinder

    def unreachable(*a, **k):
        raise AssertionError("%s built a (co)cyclic module" % job)

    for module in (crossed, cylinder):
        for builder in ("cyclic_module_of_algebra",
                        "cocyclic_module_of_coalgebra"):
            monkeypatch.setattr(module, builder, unreachable)


def _mixed_product_counts(monkeypatch, name, nmax):
    """Run `compute hc` on a corpus file and return, per call of
    `check_mixed_complex` and of `cli.cyclic_dims` in order, (name, number
    of products it formed), and whether no pair of matrices was multiplied
    twice in the whole job."""
    from hopfcyclic import cli, homology
    from hopfcyclic.linalg import SparseMatrix
    operands = []
    honest_matmul = SparseMatrix.__matmul__

    def counted(self, other):
        operands.append((self, other))
        return honest_matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    counts = []

    def spy(module, attr):
        honest = getattr(module, attr)

        def spied(*args):
            before = len(operands)
            out = honest(*args)
            counts.append((attr, len(operands) - before))
            return out
        monkeypatch.setattr(module, attr, spied)

    spy(homology, "check_mixed_complex")
    spy(cli, "cyclic_dims")
    assert cli.main(["compute", "hc", "-i", data_file(name),
                     "--nmax", str(nmax)]) == 0
    pairs = [(id(a), id(b)) for a, b in operands]
    return counts, len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("name, nmax", [("sweedler_Q_trivial", 1),
                                        ("sweedler_Q", 1), ("sweedler_Q", 2)])
def test_hc_over_q_builds_no_cyclic_module(name, nmax, monkeypatch, capsys):
    """`compute hc` over Q on a crossed product that is not semisimple
    ranks the normalized (b, B) of each side's algebra, built from its
    structure constants: neither (co)cyclic-module builder runs.  Its
    check forms the composites D_(n-1) D_n of the total complex through
    N = nmax + 1 and, apart, the block product they do not reach (at
    nmax = 1: one D D; at nmax = 2: two D D and B B at 0); the cyclic
    ranks form only the empty composite out of degree 0.  No pair of
    matrices is multiplied twice."""
    _forbid_crossed_modules(monkeypatch, "compute hc over Q")
    counts, once = _mixed_product_counts(monkeypatch, name, nmax)
    capsys.readouterr()
    assert counts == [("check_mixed_complex", {1: 1, 2: 3}[nmax]),
                      ("cyclic_dims", 1)] * 2
    assert once


# The chain-complex route each `compute hh|hc` job on a crossed product
# that is not semisimple over Q takes, once per side.
_DIRECT_ROUTES = {("hh", "Q"): "normalized_hochschild_dims",
                  ("hc", "Q"): "normalized_mixed_complex",
                  ("hh", "F2"): "normalized_hochschild_dims",
                  ("hc", "F2"): "normalized_mixed_complex"}


@pytest.mark.parametrize("target", ["hh", "hc"])
@pytest.mark.parametrize("name, semisimple", [
    ("c2_Q", True), ("c3_Q", True), ("sweedler_Q", False), ("c2_F2", False),
])
def test_semisimple_crossed_products_over_q_build_no_chain_complex(
        target, name, semisimple, monkeypatch, capsys):
    """On a crossed product that is semisimple over Q, `compute hh|hc`
    read their tables off HH_0 and call no chain-complex route; on
    Sweedler over Q and on every F_p job the routes still run, once per
    side."""
    from hopfcyclic import cli
    calls = []
    for route in set(_DIRECT_ROUTES.values()):
        def spied(*args, _route=route, _honest=getattr(cli, route)):
            calls.append(_route)
            return _honest(*args)
        monkeypatch.setattr(cli, route, spied)
    code = cli.main(["compute", target, "-i", data_file(name), "--nmax", "2"])
    capsys.readouterr()
    assert code == 0
    want = _DIRECT_ROUTES[(target, name.rsplit("_", 1)[1])]
    assert calls == ([] if semisimple else [want, want])


def test_main_builds_its_parser_once(monkeypatch, capsys):
    """The parser is built by the first `main` call and reused: a second
    job prints the same report, and a bad target still exits 2."""
    from hopfcyclic import cli
    honest = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or honest())
    argv = ["compute", "hh", "-i", data_file("c2_Q"), "--nmax", "1"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "no-such-target", "-i", data_file("c2_Q")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert built == [1]


def test_importing_the_cli_builds_no_parser():
    out = subprocess.run(
        [sys.executable, "-c",
         "import hopfcyclic.cli as cli; print(cli._parser)"],
        capture_output=True, text=True, check=True).stdout
    assert out == "None\n"


# -- compare: the crossed product on the compute route ------------------------

# The exit code of each compare target that ranks the crossed product, as
# recorded when it ranked the unnormalized (b, B) of its (co)cyclic module:
# collapse fails over F_2 on the algebra side only.
@pytest.mark.parametrize("target, name, code", [
    ("diagonal-vs-direct", "c2_Q", 0), ("diagonal-vs-direct", "c2_F2", 0),
    ("collapse-algebra", "c2_Q", 0), ("collapse-algebra", "c2_F2", 1),
    ("collapse-coalgebra", "c2_Q", 0), ("collapse-coalgebra", "c2_F2", 0),
])
def test_compare_builds_no_crossed_product_module(target, name, code,
                                                  monkeypatch, capsys):
    """`compare` ranks the crossed product as `compute hh|hc` do: neither
    (co)cyclic-module builder of the crossed product runs, semisimplicity
    is decided once per side, for hh and hc together, and the exit code is
    the recorded one."""
    from hopfcyclic import cli
    _forbid_crossed_modules(monkeypatch, "compare " + target)
    decided = []
    honest = cli.semisimple_hh0
    monkeypatch.setattr(cli, "semisimple_hh0",
                        lambda r: decided.append(r) or honest(r))
    assert cli.main(["compare", target, "-i", data_file(name),
                     "--nmax", "2"]) == code
    assert json.loads(capsys.readouterr().out)["ok"] is (code == 0)
    assert len(decided) == (2 if target == "diagonal-vs-direct" else 1)


def test_diagonal_vs_direct_builds_the_normalized_b_once_per_side(
        monkeypatch, capsys):
    """On Sweedler, which is not semisimple, `compare diagonal-vs-direct`
    reads hh and hc of each side's crossed product off one normalized mixed
    complex: its b is built once per degree and side, and the report is
    the recorded one (tests/goldens)."""
    from hopfcyclic import cli, homology
    built = []
    honest = homology._normalized_b
    monkeypatch.setattr(homology, "_normalized_b",
                        lambda r, n: built.append(n) or honest(r, n))
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(["compare", "diagonal-vs-direct", "-i",
                     "data/sweedler_Q.json", "--nmax", "1"])
    with open(os.path.join("tests", "goldens",
                           "diagonal_vs_direct_sweedler_Q_n1.json")) as fh:
        assert (code, capsys.readouterr().out) == (0, fh.read())
    assert built == [1, 2] * 2


def _diagonals_read(monkeypatch, argv):
    """Run a job and return, per diagonal (co)cyclic module it built, in
    order, (N, made, keys): for its (co)faces, (co)degeneracies and
    rotations, the keys it read and all of its keys, each (co)face and
    (co)degeneracy keyed as the face(n, i) and degen(n, i) of the cyclic
    module it is (on the cochain side, of the transpose)."""
    from hopfcyclic import cli, cylinder
    from hopfcyclic.crossed import CocyclicOps
    built = []
    honest = cylinder._diagonal

    def spied(cyl, N):
        built.append(honest(cyl, N))
        return built[-1]

    monkeypatch.setattr(cylinder, "_diagonal", spied)
    assert cli.main(argv) == 0
    out = []
    for ops in built:
        if isinstance(ops, CocyclicOps):
            maps, shifts = (ops.cofaces, ops.codegens, ops.cocyclic), (1, -1)
        else:
            maps, shifts = (ops.faces, ops.degens, ops.cyclic), (0, 0)
        out.append((ops.N, *([{(n + d, i) for n, i in getattr(m, part)}
                               for m, d in zip(maps, shifts)]
                              + [set(getattr(maps[2], part))]
                              for part in ("made", "domain"))))
    return out


def test_diagonal_vs_direct_builds_no_top_degeneracy_or_rotation(
        monkeypatch, capsys):
    """The mixed complex of the diagonal through N = nmax + 1 reads every
    (co)face, but no degeneracy into N (on the cochain side no
    codegeneracy out of N) and no rotation at N, so none is built; `verify
    iso` reads, and so builds and checks, every map; `compare
    ez-hochschild` reads b alone, so it builds neither kind."""
    argv = ["-i", data_file("sweedler_Q"), "--nmax", "1"]
    seen = _diagonals_read(monkeypatch,
                           ["compare", "diagonal-vs-direct"] + argv)
    assert len(seen) == 2
    for N, made, keys in seen:
        assert N == 2 and made[0] == keys[0]
        assert made[1] and made[1] < keys[1]
        assert all(n < N - 1 for n, _ in made[1])
        assert made[2] == set(range(N))
    seen = _diagonals_read(monkeypatch, ["verify", "iso"] + argv)
    assert len(seen) == 2 and all(made == keys for _, made, keys in seen)
    for N, made, keys in _diagonals_read(
            monkeypatch, ["compare", "ez-hochschild"] + argv):
        assert made[0] == keys[0] and made[1] == made[2] == set()
    capsys.readouterr()


def test_hc_over_f2_forms_each_mixed_product_once(monkeypatch, capsys):
    """`compute hc` over F_2 ranks the normalized (b, B) of each side's
    algebra through N = nmax + 1.  Its check forms the N - 1 composites
    D_(n-1) D_n of the total complex and, apart, the one block product
    they do not reach (B B at N - 3); the cyclic ranks form only the empty
    composite out of degree 0.  No pair of matrices is multiplied twice."""
    nmax = 3
    counts, once = _mixed_product_counts(monkeypatch, "c2_F2", nmax)
    capsys.readouterr()
    assert counts == [("check_mixed_complex", nmax + 1),
                      ("cyclic_dims", 1)] * 2
    assert once


# Each report recorded from the route that ranked the crossed product
# through the unnormalized (b, B) of its (co)cyclic module, with its exit
# code (collapse fails over F_2).
@pytest.mark.parametrize("golden, argv, code", [
    ("collapse_algebra_s3_Q_n1",
     "compare collapse-algebra -i data/s3_Q.json --nmax 1", 0),
    ("collapse_coalgebra_s3_Q_n1",
     "compare collapse-coalgebra -i data/s3_Q.json --nmax 1", 0),
    ("diagonal_vs_direct_c3_Q_n2",
     "compare diagonal-vs-direct -i data/c3_Q.json --nmax 2", 0),
    ("collapse_algebra_c2_F2_n3",
     "compare collapse-algebra -i data/c2_F2.json --nmax 3", 1),
])
def test_compare_reports_match_the_unnormalized_route(golden, argv, code,
                                                      monkeypatch, capsys):
    """S3 is not abelian, C3 reaches d = 9 at degree 2 and C2 over F_2 is
    the modular negative control: each report byte for byte
    (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    got = cli.main(argv.split())
    with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
        assert (got, capsys.readouterr().out) == (code, fh.read())


# Each report as recorded from Connes' complex: the first three from the
# route that built the (co)cyclic modules and projected b onto the signed
# orbits with sparse products, the last from the route that wrote b on the
# orbits straight from the structure constants.
@pytest.mark.parametrize("golden, argv", [
    ("hc_sweedler_Q_n2", "compute hc -i data/sweedler_Q.json --nmax 2"),
    ("hc_s3_Q_n1", "compute hc -i data/s3_Q.json --nmax 1"),
    ("hc_c3_Q_n3", "compute hc -i data/c3_Q.json --nmax 3"),
    ("hc_sweedler_Q_trivial_n2",
     "compute hc -i data/sweedler_Q_trivial.json --nmax 2"),
])
def test_hc_reports_match_the_orbit_matrix_route(golden, argv, monkeypatch,
                                                  capsys):
    """Sweedler is not cocommutative, S3 is not abelian and C3 reaches
    d = 9 at degree 3: each report byte for byte (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(argv.split())
    with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


def test_hc_report_where_the_top_B_cost_the_most(monkeypatch, capsys):
    """`compute hc` on C2 over F_2 at --nmax 6, the largest admitted
    normalized (b, B) of the corpus, byte for byte as recorded when the
    mixed complex still built and checked B[N-1] (tests/goldens)."""
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main("compute hc -i data/c2_F2.json --nmax 6".split())
    with open(os.path.join("tests", "goldens", "hc_c2_F2_n6.json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


# Each report as recorded when hh was ranked on the normalized b; both
# crossed products are semisimple over Q, so they now take the closed form.
@pytest.mark.parametrize("golden, argv", [
    ("hh_s3_Q_n1", "compute hh -i data/s3_Q.json --nmax 1"),
    ("hh_c3_Q_trivial_n2", "compute hh -i data/c3_Q_trivial.json --nmax 2"),
])
def test_closed_form_hh_reports_match_the_normalized_b(golden, argv,
                                                       monkeypatch, capsys):
    from hopfcyclic import cli
    monkeypatch.chdir(os.path.join(DATA, ".."))
    code = cli.main(argv.split())
    with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
        assert code == 0 and capsys.readouterr().out == fh.read()


def test_negative_controls_across_jobs_in_one_process(monkeypatch):
    """The passing and failing Sweedler (co)cylinder jobs on the window
    (2, 2), in one process, then the passing ones again: each report and
    exit code is its golden, though the compiled operators of every
    earlier job are kept."""
    import cross_job_controls
    monkeypatch.chdir(os.path.join(DATA, ".."))
    for argv, got, want in cross_job_controls.outcomes():
        assert got == want, argv
