"""Self-tests of the benchmark: goldens, tracer bindings, seed handling.

    python3 -m pytest perfbench/selftest.py -q

Run from the root of a source checkout.  Takes about two minutes: it makes
one traced pass over every workload.
"""

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _job(jobs, *words):
    """Index of the job whose argv contains every word."""
    hits = [i for i, (argv, _, _) in enumerate(jobs)
            if all(w in argv for w in words)]
    assert len(hits) == 1, words
    return hits[0]


def _with_report(job, edit):
    argv, code, text = job
    report = json.loads(text)
    code = edit(report, code)
    return argv, code, run.report_text(report)


def test_benchmark_json_names_what_run_prints():
    spec = _benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, unit, _ in run.PER_LAYER]


def _bump_first_dim(report, code):
    table = report["tables"]["hopf_module_homology_trivial_coefficients"]
    table[0] += 1
    return code


def _claim_success(report, code):
    report["ok"] = True
    return 0


@pytest.mark.parametrize("words, corrupt", [
    (("hopf-homology",), _bump_first_dim),
    (("collapse-algebra",), _claim_success),
], ids=["wrong-table", "wrong-ok-verdict"])
def test_corrupted_golden_is_counted_as_failed(cli, words, corrupt):
    jobs = run.load_goldens("spectral-fp")
    idx = _job(jobs, *words)
    assert run.Pass(cli, jobs, [idx]).failed == []
    bad = list(jobs)
    bad[idx] = _with_report(jobs[idx], corrupt)
    assert run.Pass(cli, bad, [idx]).failed == [idx]


def test_expected_negative_job_keeps_exit_one():
    jobs = run.load_goldens("spectral-fp")
    codes = [code for _, code, _ in jobs]
    assert codes.count(1) == 1
    assert json.loads(jobs[_job(jobs, "collapse-algebra")][2])["ok"] is False


def test_failed_job_makes_the_run_exit_nonzero(cli, monkeypatch, capsys):
    jobs = run.load_goldens("spectral-fp")
    idx = _job(jobs, "hopf-homology")
    bad = [_with_report(jobs[idx], _bump_first_dim),
           jobs[_job(jobs, "coinvariants")]]
    monkeypatch.setattr(run, "load_goldens", lambda workload: bad)
    code = run.main(["--workload", "spectral-fp", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1


def _package_bindings():
    """Every (owner, name) -> object of the package's modules and classes."""
    out = {}
    for mod in tracer._package_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("hopfcyclic"):
                for attr, val in vars(obj).items():
                    out[(obj.__module__ + "." + obj.__qualname__, attr)] = val
    return out


@pytest.mark.parametrize("recorder", [tracer.SpanTracer, tracer.WorkCounter])
def test_install_rebinds_every_binding_and_restore_undoes_it(cli, recorder):
    before = _package_bindings()
    rec = recorder()
    rec.install()
    try:
        during = _package_bindings()
        originals = {id(orig) for _, _, orig in rec._patches.saved}
        left = [k for k, v in during.items() if id(v) in originals]
        assert left == [], "original still bound at %s" % left
        changed = {k for k in before if during[k] is not before[k]}
        assert {(o.__name__ if not isinstance(o, type) else
                 o.__module__ + "." + o.__qualname__, n)
                for o, n, _ in rec._patches.saved} == changed
    finally:
        rec.restore()
    after = _package_bindings()
    assert all(after[k] is before[k] for k in before)
    assert after.keys() == before.keys()


def test_imported_bindings_are_rebound(cli):
    from hopfcyclic import cylinder, homology, linalg, tensor
    with tracer.SpanTracer():
        assert homology.rank is linalg.rank
        assert cylinder.kernel is linalg.kernel
        assert cylinder.compile_operator is tensor.compile_operator
        assert hasattr(homology.rank, "__wrapped__")
        assert hasattr(cylinder.compile_operator, "__wrapped__")
    assert not hasattr(homology.rank, "__wrapped__")


def test_every_wrapped_function_is_reached_and_reports_are_unchanged(cli):
    reached = {}
    for workload in sorted(WORKLOADS):
        jobs = run.load_goldens(workload)
        with tracer.SpanTracer() as spans:
            traced = run.Pass(cli, jobs, list(range(len(jobs))))
        # goldens are the untraced reports, compared byte for byte
        assert traced.failed == [], workload
        for key, n in spans.fn_calls.items():
            reached[key] = reached.get(key, 0) + n
    assert sorted(k for k, n in reached.items() if n == 0) == []


def test_work_counter_counts_and_keeps_reports(cli):
    jobs = run.load_goldens("spectral-fp")
    idx = [_job(jobs, "hc"), _job(jobs, "coinvariants")]
    with tracer.WorkCounter() as work:
        counted = run.Pass(cli, jobs, idx)
    assert counted.failed == []
    assert work.matmul_madds > 0 and work.echelon_rows > 0
    assert work.compile_nnz > 0
    assert sum(work.field_calls["mul"]) > 0
    assert all(t[1] == 0 for t in work.field_calls.values())  # no Q on F_2


def test_seed_permutes_order_only(cli):
    bound = {m["name"]: m["bound"]
             for m in _benchmark_spec()["end_to_end"]}["batch_s"]
    jobs = run.load_goldens("spectral-fp")
    orders = [run.shuffled(random.Random(seed), len(jobs)) for seed in (1, 2)]
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1]) == list(range(len(jobs)))
    # alternate the two orders so that drift in machine speed hits both
    seconds, outputs = ([], []), []
    for _ in range(3):
        for k, order in enumerate(orders):
            done = run.Pass(cli, jobs, order)
            assert done.failed == []
            seconds[k].append(done.ref_seconds)
            outputs.append(done.outputs)
    assert all(out == outputs[0] for out in outputs)  # keyed by job
    fast, slow = sorted(statistics.median(t) for t in seconds)
    assert (slow - fast) / fast <= bound
