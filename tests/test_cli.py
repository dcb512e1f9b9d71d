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
