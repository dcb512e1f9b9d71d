"""Batch front door: verify / compute / compare on JSON structure files.

    hopfcyclic verify  <target> -i file.json [--pmax P --qmax Q --nmax N]
    hopfcyclic compute <target> -i file.json [--nmax N --rmax R ...]
    hopfcyclic compare <target> -i file.json [--nmax N]

plus `-o report.json` and `--csv dir/` on every command.  Exit codes:
0 all checks pass, 1 a check failed, 2 input error.  Reports are normalized
JSON and byte-identical across runs; wall-clock timings go to stderr only
when --timings is given.  No environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import HopfCyclicError, MissingBlock, ParseError
from .hopf import check_comodule_algebra, check_hopf, check_module_coalgebra
from .crossed import (
    cocyclic_module_of_coalgebra, crossed_product_algebra,
    crossed_product_coalgebra, cyclic_module_of_algebra,
)
from .cylinder import (
    AlgebraCylinder, AlgebraModuleForm, CoalgebraCocylinder,
    CoalgebraModuleForm, check_algebra_cylinder, check_coalgebra_cocylinder,
    coinvariant_cocyclic_module, coinvariant_cyclic_module, phi_psi_algebra,
    phi_psi_coalgebra,
)
from .homology import (
    cochain_mixed_complex, cyclic_dims, ez_compare_hochschild,
    hochschild_dims, hopf_comodule_cohomology, hopf_module_homology,
    mixed_complex, spectral_pages, total_complex_algebra,
    total_complex_coalgebra, trivial_comodule_coaction, trivial_module_action,
)
from .io import load_document

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

VERIFY_TARGETS = ("hopf", "comodule-algebra", "module-coalgebra",
                  "cylindrical", "cocylindrical", "iso", "transforms")
COMPUTE_TARGETS = ("hh", "hc", "hopf-homology", "comodule-cohomology",
                   "ss-pages", "coinvariants")
COMPARE_TARGETS = ("diagonal-vs-direct", "ez-hochschild", "collapse-algebra",
                   "collapse-coalgebra")


def _report_entries(rep):
    return [{"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in rep.entries]


def _require(doc, attr, target):
    if getattr(doc, attr) is None:
        raise MissingBlock("target %s needs the %s block" % (target, attr))


# The document `options` key of each degree-bound flag (see io.py).
_OPTION_KEYS = {"nmax": "N", "pmax": "P", "qmax": "Q", "rmax": "rmax"}


def _opt(params, doc, key, default):
    """A degree bound from its flag, else the document's options."""
    if params.get(key) is not None:
        value = params[key]
    else:
        value = doc.options.get(_OPTION_KEYS[key], default)
    if not isinstance(value, int) or value < 0:
        raise ParseError("degree bound --%s must be an integer >= 0, got %r"
                         % (key, value))
    return value


def cmd_verify(doc, target, params):
    checks = []
    if target == "hopf":
        checks += _report_entries(check_hopf(doc.hopf))
    elif target == "comodule-algebra":
        _require(doc, "algebra", target)
        checks += _report_entries(check_comodule_algebra(doc.algebra))
    elif target == "module-coalgebra":
        _require(doc, "coalgebra", target)
        checks += _report_entries(check_module_coalgebra(doc.coalgebra))
    elif target == "cylindrical":
        _require(doc, "algebra", target)
        pmax = _opt(params, doc, "pmax", 2)
        qmax = _opt(params, doc, "qmax", 2)
        rep = check_algebra_cylinder(AlgebraCylinder(doc.algebra), pmax, qmax)
        checks += _report_entries(rep)
    elif target == "cocylindrical":
        _require(doc, "coalgebra", target)
        pmax = _opt(params, doc, "pmax", 1)
        qmax = _opt(params, doc, "qmax", 1)
        rep = check_coalgebra_cocylinder(CoalgebraCocylinder(doc.coalgebra),
                                         pmax, qmax)
        checks += _report_entries(rep)
    elif target == "iso":
        nmax = _opt(params, doc, "nmax", 2)
        did = False
        if doc.algebra is not None:
            did = True
            try:
                phi_psi_algebra(doc.algebra, N=nmax)
                checks.append({"name": "algebra-side iso (inverse and "
                                       "intertwining, n <= %d)" % nmax,
                               "ok": True, "detail": None})
            except HopfCyclicError as e:
                checks.append({"name": "algebra-side iso", "ok": False,
                               "detail": str(e)})
        if doc.coalgebra is not None:
            did = True
            try:
                phi_psi_coalgebra(doc.coalgebra, N=nmax)
                checks.append({"name": "coalgebra-side iso (inverse and "
                                       "intertwining, n <= %d)" % nmax,
                               "ok": True, "detail": None})
            except HopfCyclicError as e:
                checks.append({"name": "coalgebra-side iso", "ok": False,
                               "detail": str(e)})
        if not did:
            raise MissingBlock("target iso needs an algebra or coalgebra block")
    elif target == "transforms":
        pmax = _opt(params, doc, "pmax", 1)
        qmax = _opt(params, doc, "qmax", 1)
        did = False
        if doc.algebra is not None:
            did = True
            mf = AlgebraModuleForm(AlgebraCylinder(doc.algebra))
            try:
                checks += _report_entries(mf.check(pmax, qmax))
            except HopfCyclicError as e:
                checks.append({"name": "algebra-side transforms", "ok": False,
                               "detail": str(e)})
        if doc.coalgebra is not None:
            did = True
            cmf = CoalgebraModuleForm(CoalgebraCocylinder(doc.coalgebra))
            try:
                checks += _report_entries(cmf.check(pmax, qmax))
            except HopfCyclicError as e:
                checks.append({"name": "coalgebra-side transforms", "ok": False,
                               "detail": str(e)})
        if not did:
            raise MissingBlock("target transforms needs an algebra or "
                               "coalgebra block")
    return {"checks": checks}, all(c["ok"] for c in checks)


def cmd_compute(doc, target, params):
    tables = {}
    checks = []
    if target in ("hh", "hc"):
        nmax = _opt(params, doc, "nmax", 2)
        did = False
        if doc.algebra is not None:
            did = True
            r = crossed_product_algebra(doc.algebra)
            mc = mixed_complex(cyclic_module_of_algebra(r, N=nmax + 1))
            fn = hochschild_dims if target == "hh" else cyclic_dims
            tables["%s_crossed_product_algebra" % target] = fn(mc, nmax)
        if doc.coalgebra is not None:
            did = True
            cc = crossed_product_coalgebra(doc.coalgebra)
            mc = cochain_mixed_complex(
                cocyclic_module_of_coalgebra(cc, N=nmax + 1))
            fn = hochschild_dims if target == "hh" else cyclic_dims
            tables["%s_crossed_product_coalgebra" % target] = fn(mc, nmax)
        if not did:
            raise MissingBlock("target %s needs an algebra or coalgebra block"
                               % target)
    elif target == "hopf-homology":
        qmax = _opt(params, doc, "qmax", 3)
        tables["hopf_module_homology_trivial_coefficients"] = \
            hopf_module_homology(doc.hopf, trivial_module_action(doc.hopf), qmax)
    elif target == "comodule-cohomology":
        pmax = _opt(params, doc, "pmax", 3)
        tables["hopf_comodule_cohomology_trivial_coefficients"] = \
            hopf_comodule_cohomology(doc.hopf,
                                     trivial_comodule_coaction(doc.hopf), pmax)
    elif target == "ss-pages":
        rmax = _opt(params, doc, "rmax", 2)
        pmax = _opt(params, doc, "pmax", 2)
        qmax = _opt(params, doc, "qmax", 2)
        did = False
        if doc.algebra is not None:
            did = True
            fc = total_complex_algebra(AlgebraCylinder(doc.algebra),
                                       N=pmax + qmax + 1)
            pages = spectral_pages(fc, rmax, (pmax, qmax))
            tables["pages_algebra"] = [
                {"r": pg.r,
                 "entries": [[i, j, pg.table[(i, j)],
                              pg.diff_ranks.get((i, j), 0)]
                             for (i, j) in sorted(pg.table)]}
                for pg in pages]
        if doc.coalgebra is not None:
            did = True
            fc = total_complex_coalgebra(CoalgebraCocylinder(doc.coalgebra),
                                         N=pmax + qmax + 1)
            pages = spectral_pages(fc, rmax, (pmax, qmax))
            tables["pages_coalgebra"] = [
                {"r": pg.r,
                 "entries": [[i, j, pg.table[(i, j)],
                              pg.diff_ranks.get((i, j), 0)]
                             for (i, j) in sorted(pg.table)]}
                for pg in pages]
        if not did:
            raise MissingBlock("target ss-pages needs an algebra or "
                               "coalgebra block")
    elif target == "coinvariants":
        nmax = _opt(params, doc, "nmax", 2)
        did = False
        if doc.algebra is not None:
            did = True
            _, pres = coinvariant_cyclic_module(doc.algebra, N=nmax)
            tables["coinvariant_quotient_dims"] = [p.dim for p in pres]
        if doc.coalgebra is not None:
            did = True
            _, pres = coinvariant_cocyclic_module(doc.coalgebra, N=nmax)
            tables["coinvariant_subspace_dims"] = [p.dim for p in pres]
        if not did:
            raise MissingBlock("target coinvariants needs an algebra or "
                               "coalgebra block")
    return {"checks": checks, "tables": tables}, True


def _verdicts(lhs, rhs):
    return [{"n": n, "lhs": lhs[n], "rhs": rhs[n], "equal": lhs[n] == rhs[n]}
            for n in range(len(lhs))]


def cmd_compare(doc, target, params):
    nmax = _opt(params, doc, "nmax", 2)
    verdicts = {}
    if target == "diagonal-vs-direct":
        did = False
        if doc.algebra is not None:
            did = True
            from .cylinder import diagonal_cyclic
            r = crossed_product_algebra(doc.algebra)
            mc_direct = mixed_complex(cyclic_module_of_algebra(r, N=nmax + 1))
            diag = diagonal_cyclic(AlgebraCylinder(doc.algebra), N=nmax + 1)
            mc_diag = mixed_complex(diag)
            verdicts["hh_algebra"] = _verdicts(
                hochschild_dims(mc_direct, nmax), hochschild_dims(mc_diag, nmax))
            verdicts["hc_algebra"] = _verdicts(
                cyclic_dims(mc_direct, nmax), cyclic_dims(mc_diag, nmax))
        if doc.coalgebra is not None:
            did = True
            from .cylinder import diagonal_cocyclic
            cc = crossed_product_coalgebra(doc.coalgebra)
            mc_direct = cochain_mixed_complex(
                cocyclic_module_of_coalgebra(cc, N=nmax + 1))
            diag = diagonal_cocyclic(CoalgebraCocylinder(doc.coalgebra),
                                     N=nmax + 1)
            mc_diag = cochain_mixed_complex(diag)
            verdicts["hh_coalgebra"] = _verdicts(
                hochschild_dims(mc_direct, nmax), hochschild_dims(mc_diag, nmax))
            verdicts["hc_coalgebra"] = _verdicts(
                cyclic_dims(mc_direct, nmax), cyclic_dims(mc_diag, nmax))
        if not did:
            raise MissingBlock("target diagonal-vs-direct needs an algebra "
                               "or coalgebra block")
    elif target == "ez-hochschild":
        did = False
        if doc.algebra is not None:
            did = True
            rep = ez_compare_hochschild(AlgebraCylinder(doc.algebra), nmax)
            verdicts["ez_algebra"] = [
                {"n": n, "lhs": a, "rhs": b, "equal": eq}
                for n, a, b, eq in rep]
        if doc.coalgebra is not None:
            did = True
            rep = ez_compare_hochschild(CoalgebraCocylinder(doc.coalgebra),
                                        nmax, cochain=True)
            verdicts["ez_coalgebra"] = [
                {"n": n, "lhs": a, "rhs": b, "equal": eq}
                for n, a, b, eq in rep]
        if not did:
            raise MissingBlock("target ez-hochschild needs an algebra or "
                               "coalgebra block")
    elif target == "collapse-algebra":
        _require(doc, "algebra", target)
        r = crossed_product_algebra(doc.algebra)
        lhs = cyclic_dims(mixed_complex(
            cyclic_module_of_algebra(r, N=nmax + 1)), nmax)
        ops, _ = coinvariant_cyclic_module(doc.algebra, N=nmax + 1)
        rhs = cyclic_dims(mixed_complex(ops), nmax)
        verdicts["hc_crossed_vs_coinvariants"] = _verdicts(lhs, rhs)
    elif target == "collapse-coalgebra":
        _require(doc, "coalgebra", target)
        cc = crossed_product_coalgebra(doc.coalgebra)
        lhs = cyclic_dims(cochain_mixed_complex(
            cocyclic_module_of_coalgebra(cc, N=nmax + 1)), nmax)
        ops, _ = coinvariant_cocyclic_module(doc.coalgebra, N=nmax + 1)
        rhs = cyclic_dims(cochain_mixed_complex(ops), nmax)
        verdicts["hc_crossed_vs_coinvariants"] = _verdicts(lhs, rhs)
    ok = all(v["equal"] for rows in verdicts.values() for v in rows)
    return {"checks": [], "verdicts": verdicts}, ok


def _write_csv(report, directory):
    os.makedirs(directory, exist_ok=True)
    for name, table in report.get("tables", {}).items():
        path = os.path.join(directory, name + ".csv")
        with open(path, "w") as fh:
            if name.startswith("pages"):
                fh.write("r,filtration,complementary,dim,diff_rank\n")
                for page in table:
                    for i, j, dim, rank in page["entries"]:
                        fh.write("%d,%d,%d,%d,%d\n"
                                 % (page["r"], i, j, dim, rank))
            else:
                fh.write("n,dim\n")
                for n, v in enumerate(table):
                    fh.write("%d,%d\n" % (n, v))
    for name, rows in report.get("verdicts", {}).items():
        path = os.path.join(directory, name + ".csv")
        with open(path, "w") as fh:
            fh.write("n,lhs,rhs,equal\n")
            for row in rows:
                fh.write("%d,%d,%d,%s\n" % (row["n"], row["lhs"], row["rhs"],
                                            str(row["equal"]).lower()))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="verify identities and compute cyclic homology of "
                    "crossed products from structure-constant files")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, targets in (("verify", VERIFY_TARGETS),
                         ("compute", COMPUTE_TARGETS),
                         ("compare", COMPARE_TARGETS)):
        p = sub.add_parser(cmd)
        p.add_argument("target", choices=targets)
        p.add_argument("-i", "--input", required=True)
        p.add_argument("-o", "--output")
        p.add_argument("--csv")
        p.add_argument("--timings", action="store_true")
        p.add_argument("--nmax", type=int)
        p.add_argument("--rmax", type=int)
        p.add_argument("--pmax", type=int)
        p.add_argument("--qmax", type=int)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    params = {"nmax": args.nmax, "rmax": args.rmax,
              "pmax": args.pmax, "qmax": args.qmax}
    start = time.time()
    try:
        doc = load_document(args.input)
    except ParseError as e:
        print(json.dumps({"error": str(e)}, sort_keys=True))
        return EXIT_INPUT_ERROR
    report = {
        "command": args.command,
        "target": args.target,
        "input": args.input,
        "params": {k: v for k, v in sorted(params.items()) if v is not None},
    }
    try:
        if args.command == "verify":
            body, ok = cmd_verify(doc, args.target, params)
        elif args.command == "compute":
            body, ok = cmd_compute(doc, args.target, params)
        else:
            body, ok = cmd_compare(doc, args.target, params)
    except (ParseError, MissingBlock) as e:
        print(json.dumps({"error": str(e)}, sort_keys=True))
        return EXIT_INPUT_ERROR
    except HopfCyclicError as e:
        report["error"] = "%s: %s" % (type(e).__name__, e)
        report["ok"] = False
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        _emit(text, args.output)
        return EXIT_CHECK_FAILED
    report.update(body)
    report["ok"] = ok
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _emit(text, args.output)
    if args.csv:
        _write_csv(report, args.csv)
    if args.timings:
        print("elapsed: %.3fs" % (time.time() - start), file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
