"""Batch front door: verify / compute / compare on JSON structure files.

    hopfcyclic verify  <target> -i file.json [--pmax P --qmax Q --nmax N]
    hopfcyclic compute <target> -i file.json [--nmax N --rmax R ...]
    hopfcyclic compare <target> -i file.json [--nmax N]

plus `-o report.json` and `--csv dir/` on every command.  Exit codes:
0 all checks pass, 1 a check failed or a verify / compare checked nothing,
2 input error or a job above a size limit (`MAX_CHAIN_DIM` on crossed
products, `MAX_COLUMN_DIM` on coinvariants, `MAX_TOTAL_DIM` on spectral pages,
`MAX_FACE_WORK` on all three, `MAX_CYLINDER_DIM` and `MAX_CHECK_WORK`
on `verify cylindrical|cocylindrical|transforms|iso` and `compare
ez-hochschild`).  Reports are normalized JSON and
byte-identical across runs; wall-clock timings go to stderr only when
--timings is given.  No environment variables are read.

`compute hh` ranks the Hochschild boundary b of the crossed product's
(co)cyclic module alone.  `compute hc` over Q ranks Connes' cyclic complex
(the quotient by 1 - lambda on the algebra side, the lambda-invariant
cochains on the coalgebra side); over F_p, where that complex can give other
dimensions, it ranks the (b, B) total complex.  `compare` always builds
(b, B).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import HopfCyclicError, MissingBlock, ParseError, TooLarge
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
    b_column_dims, cochain_mixed_complex, connes_dims, cyclic_dims,
    ez_compare_hochschild, hochschild_dims, hopf_comodule_cohomology,
    hopf_module_homology, mixed_complex, spectral_pages,
    total_complex_algebra, total_complex_coalgebra,
    trivial_comodule_coaction, trivial_module_action,
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


def _require_either(doc, target):
    if doc.algebra is None and doc.coalgebra is None:
        raise MissingBlock("target %s needs an algebra or coalgebra block"
                           % target)


# The document `options` key of each degree-bound flag (see io.py).
_OPTION_KEYS = {"nmax": "N", "pmax": "P", "qmax": "Q", "rmax": "rmax"}


def _opt(params, doc, key, default):
    """A degree bound from its flag, else the document's options."""
    if params.get(key) is not None:
        value = params[key]
    else:
        value = doc.options.get(_OPTION_KEYS[key], default)
    if type(value) is not int or value < 0:
        raise ParseError("degree bound --%s must be an integer >= 0, got %r"
                         % (key, value))
    return value


# Largest top chain space dim(R)^(nmax+2), R = A # H or C # H, that a
# crossed-product job may build: every path still builds the top b in full.
# Measured on a 2-core VM, the admitted corpus jobs at the edge take, for C2
# --nmax 6 (4^8 = 65536), 4.4 s and 295 MB with `compute hc` over Q
# (Connes' complex), 12-15 s and 300 MB with `compute hh`, and 39-41 s and
# 600 MB with `compute hc` over F_2 ((b, B)); for C3 --nmax 3 (9^5), 3.3 s
# and 186 MB with `hc`, 7-8 s and 168 MB with `hh`.  Through (b, B), the
# first refused ones, C2 --nmax 7 (4^9) and C3 --nmax 4 (9^6), had not
# finished after 400 s, at 1.8 and 2.2 GB resident.  The README lists every
# corpus bound.
MAX_CHAIN_DIM = 2 ** 17

# Largest first column H (x) X^(N+1) (X = A or C) at the top degree N that a
# coinvariant job may build.  Its (co)action is compiled column by column
# from the structure tables, so nothing is built over the 2N + 5 legs of H;
# the job's time and memory grow with the first column through its degrees.
# Measured with `compute coinvariants` on a 2-core VM: the admitted jobs at
# the edge take C2 --nmax 13 (2 2^14 = 2^15) 84 s and 1.6 GB, C3 --nmax 7
# (3 3^8) 15 s and 0.4 GB, Sweedler --nmax 5 (4 4^6) 34 s and 0.6 GB and
# S3 --nmax 3 (6 6^4) 5 s and 0.2 GB; of the first refused ones, S3
# --nmax 4 (6 6^5) takes 35 s and 1.1 GB and C3 --nmax 8 (3 3^9) 58 s and
# 1.3 GB, while C2 --nmax 14 doubles C2's edge.  The README lists the runs.
MAX_COLUMN_DIM = 2 ** 15

# Largest top total space, the sum of dim(H)^(p+1) dim(A)^(q+1) over
# p + q = pmax + qmax + 1, that `compute ss-pages` may build.  The last
# horizontal face reads 2q + 4 legs of H, but no matrix is built over them,
# so building grows with the total space.  Measured on a 2-core VM: the
# admitted jobs at the edge take C2 (pmax, qmax) = (6, 5), (11, 0) and
# (0, 11) (13 2^14 = 212992) 59-63 s and 1.4 GB, S3 (2, 1) (233280) 18 s
# and 0.6 GB and C3 (3, 3) (157464) 20 s and 0.6 GB; of the first refused
# ones, Sweedler (3, 2) (7 4^8 = 458752) takes 85 s and 1.7 GB and C3
# (4, 3) (9 3^10) 85 s and 2.3 GB, and C2 (6, 6) (14 2^15) doubles C2's
# edge.  The README lists the runs.
MAX_TOTAL_DIM = 2 ** 18

# Bound on what `verify cylindrical|cocylindrical|transforms|iso` and
# `compare ez-hochschild` build: the number of cells a job reaches times the
# largest of them (the diagonal cells on iso and ez-hochschild, whose total
# complex is smaller), and, apart, its widest operator expression, counted
# as dim(H)^legs (times dim(A) with a body leg).  The compiler builds nothing
# over those legs, so the width only stands in for the check work that grows
# with the degrees, which the cells undercount: C2 `cylindrical` (0, 15),
# whose cells sit at the bound, takes 215 s and 2.9 GB and is refused by its
# last horizontal face (2^34) alone.  Measured on a 2-core VM, the admitted
# corpus jobs at the edge take up to 67 s and 1.1 GB (C2 `cylindrical`
# (5, 8)); the width also refuses cheaper jobs, such as C2 `cylindrical`
# (4, 9) (64 s, 1.1 GB) and C2 `transforms` (5, 5) (8 s, 0.2 GB).  The
# README lists the runs and the bounds.
MAX_CYLINDER_DIM = 2 ** 21

# The caps above never grow on a structure of dimension 1 (ground_field_Q),
# where the work still grows with the degrees, so it is counted apart:
# MAX_FACE_WORK bounds the (co)face work of a job that builds a (co)cyclic
# module up to degree N, (N + 1)^3 (N + 1 degrees of up to N + 1 (co)faces
# over as many factors; N = nmax + 1 for the crossed products and collapse,
# nmax for coinvariants), and that of the total complex of ss-pages up to
# N = pmax + qmax + 1, (N + 1)^2 (N + 2)^2 (N + 1 degrees of up to N + 1
# cells with up to N + 2 (co)faces over as many factors); MAX_CHECK_WORK
# bounds the operator pairs of a verify or ez-hochschild job:
# ((pmax+2)(qmax+2))^2 for the (co)cylinder suites and transforms, (N+2)^3
# for the diagonal of iso and ez-hochschild.  Set from runs on
# ground_field_Q on both sides of each bound (2-core VM): the slowest
# targets at the admitted edges take 44 s (`diagonal-vs-direct --nmax 99`)
# and 67 s (`ez-hochschild --nmax 61`); the README lists the runs.  They
# admit every job on a structure of dimension >= 2 that the caps above
# admit.
MAX_FACE_WORK = 2 ** 20
MAX_CHECK_WORK = 2 ** 18


def _capped_power(d, k, limit):
    """d^k, or limit + 1 once the product passes limit: one factor at a
    time, so that a huge k never builds the power."""
    if d <= 1:
        return d if k else 1
    out = 1
    for _ in range(k):
        out *= d
        if out > limit:
            return limit + 1
    return out


def _capped_product(factors, limit):
    """The product of (base, exponent) factors, or limit + 1 once it passes
    limit, with no power built past limit."""
    out = 1
    for base, k in factors:
        out *= _capped_power(base, k, limit)
        if out > limit:
            return limit + 1
    return out


def _product_text(factors):
    text = " ".join("%d" % b if k == 1 else "%d^%d" % (b, k)
                    for b, k in factors)
    if all(k <= 64 for _, k in factors):
        text += " = %d" % math.prod(b ** k for b, k in factors)
    return text


def _check_size(doc, nmax, blocks):
    """Refuse a crossed-product job whose top chain space exceeds
    MAX_CHAIN_DIM, or whose (co)face work exceeds MAX_FACE_WORK, before
    anything is built."""
    for block in blocks:
        s = getattr(doc, block)
        if s is None:
            continue
        d = s.dim * s.hopf.dim
        k = nmax + 2
        if _capped_power(d, k, MAX_CHAIN_DIM) > MAX_CHAIN_DIM:
            raise TooLarge(
                "--nmax %d on the %s block needs a chain space of "
                "dimension %s, above the limit %d"
                % (nmax, block, _product_text([(d, k)]), MAX_CHAIN_DIM))
        if k ** 3 > MAX_FACE_WORK:
            raise TooLarge(
                "--nmax %d on the %s block needs (co)face work %s, above "
                "the limit %d" % (nmax, block, _product_text([(k, 3)]),
                                  MAX_FACE_WORK))


def _check_coinvariant_size(doc, nmax, top, blocks):
    """Refuse a coinvariant job whose first column at the top degree `top`
    passes MAX_COLUMN_DIM, or whose (co)face work up to `top` exceeds
    MAX_FACE_WORK."""
    for block in blocks:
        s = getattr(doc, block)
        if s is None:
            continue
        factors = [(s.hopf.dim, 1), (s.dim, top + 1)]
        if _capped_product(factors, MAX_COLUMN_DIM) > MAX_COLUMN_DIM:
            raise TooLarge(
                "--nmax %d on the %s block needs a first column of dimension "
                "%s, above the limit %d"
                % (nmax, block, _product_text(factors), MAX_COLUMN_DIM))
        if (top + 1) ** 3 > MAX_FACE_WORK:
            raise TooLarge(
                "--nmax %d on the %s block needs (co)face work %s, above "
                "the limit %d" % (nmax, block, _product_text([(top + 1, 3)]),
                                  MAX_FACE_WORK))


def _check_pages_size(doc, pmax, qmax, blocks):
    """Refuse a spectral-pages job whose top total space exceeds
    MAX_TOTAL_DIM, or whose (co)face work exceeds MAX_FACE_WORK, before
    anything is built."""
    n = pmax + qmax + 1
    work = [(n + 1, 2), (n + 2, 2)]
    for block in blocks:
        s = getattr(doc, block)
        if s is None:
            continue
        dh, da = s.hopf.dim, s.dim
        total = 0
        for p in range(n + 1):
            total += _capped_power(dh, p + 1, MAX_TOTAL_DIM) \
                * _capped_power(da, n - p + 1, MAX_TOTAL_DIM)
            if total > MAX_TOTAL_DIM:
                value = " = %d" % sum(dh ** (p + 1) * da ** (n - p + 1)
                                      for p in range(n + 1)) \
                    if n <= 64 else ""
                raise TooLarge(
                    "--pmax %d --qmax %d on the %s block needs a total space "
                    "of dimension sum of %d^(p+1) %d^(q+1) over p+q = %d%s, "
                    "above the limit %d"
                    % (pmax, qmax, block, dh, da, n, value, MAX_TOTAL_DIM))
        if _capped_product(work, MAX_FACE_WORK) > MAX_FACE_WORK:
            raise TooLarge(
                "--pmax %d --qmax %d on the %s block needs (co)face work %s, "
                "above the limit %d" % (pmax, qmax, block,
                                        _product_text(work), MAX_FACE_WORK))


def _build_sizes(target, dh, d, bounds):
    """(what, (base, exponent) factors, limit) for the cells, the widest
    operator expressions and the operator pairs of a verify or ez-hochschild
    job, with dh = dim(H) and d = dim(A) or dim(C): both sides share the
    shapes."""
    if target == "transforms":
        # the checks reach the cells (pmax+1, qmax) and (pmax, qmax+1)
        P, Q = bounds["pmax"], bounds["qmax"]
        cells = [((P + 2) * (Q + 2), 1), (max(dh, d), 1), (dh, P + 1),
                 (d, Q + 1)]
        widths = [("first-column (co)action", [(dh, 2 * Q + 5)]),
                  ("closed vertical rotation", [(dh, 4 * P + 2), (d, 1)]),
                  ("closed horizontal rotation", [(dh, 2 * P + 2 * Q + 3)])]
        pairs = [((P + 2) * (Q + 2), 2)]
    elif target in ("cylindrical", "cocylindrical"):
        P, Q = bounds["pmax"], bounds["qmax"]
        cells = [((P + 1) * (Q + 1), 1), (dh, P + 1), (d, Q + 1)]
        widths = [("last horizontal (co)face", [(dh, 2 * Q + 4)]),
                  ("vertical (co)action", [(dh, 2 * P + 2), (d, 1)])]
        pairs = [((P + 2) * (Q + 2), 2)]
    else:  # the diagonal cells up to N = nmax (iso) or nmax + 1 (ez)
        N = bounds["nmax"] + (target == "ez-hochschild")
        cells = [(N + 1, 1), (dh * d, N + 1)]
        widths = [("last horizontal (co)face", [(dh, 2 * N + 4)])]
        pairs = [(N + 2, 3)]
    return [("cells of total dimension", cells, MAX_CYLINDER_DIM)] \
        + [("a %s expression of width" % what, factors, MAX_CYLINDER_DIM)
           for what, factors in widths] \
        + [("operator pairs", pairs, MAX_CHECK_WORK)]


def _check_build_size(doc, target, bounds, blocks):
    """Refuse a verify or ez-hochschild job whose cells or widest expression
    pass MAX_CYLINDER_DIM, or whose operator pairs pass MAX_CHECK_WORK,
    before anything is built."""
    flags = " ".join("--%s %d" % kv for kv in sorted(bounds.items()))
    for block in blocks:
        s = getattr(doc, block)
        if s is None:
            continue
        for what, factors, limit in _build_sizes(target, s.hopf.dim, s.dim,
                                                 bounds):
            if _capped_product(factors, limit) > limit:
                raise TooLarge("%s on the %s block needs %s %s, above the "
                               "limit %d" % (flags, block, what,
                                             _product_text(factors), limit))


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
        _check_build_size(doc, target, {"pmax": pmax, "qmax": qmax},
                          ("algebra",))
        rep = check_algebra_cylinder(AlgebraCylinder(doc.algebra), pmax, qmax)
        checks += _report_entries(rep)
    elif target == "cocylindrical":
        _require(doc, "coalgebra", target)
        pmax = _opt(params, doc, "pmax", 1)
        qmax = _opt(params, doc, "qmax", 1)
        _check_build_size(doc, target, {"pmax": pmax, "qmax": qmax},
                          ("coalgebra",))
        rep = check_coalgebra_cocylinder(CoalgebraCocylinder(doc.coalgebra),
                                         pmax, qmax)
        checks += _report_entries(rep)
    elif target == "iso":
        nmax = _opt(params, doc, "nmax", 2)
        _require_either(doc, target)
        _check_build_size(doc, target, {"nmax": nmax},
                          ("algebra", "coalgebra"))
        if doc.algebra is not None:
            try:
                phi_psi_algebra(doc.algebra, N=nmax)
                checks.append({"name": "algebra-side iso (inverse and "
                                       "intertwining, n <= %d)" % nmax,
                               "ok": True, "detail": None})
            except HopfCyclicError as e:
                checks.append({"name": "algebra-side iso", "ok": False,
                               "detail": str(e)})
        if doc.coalgebra is not None:
            try:
                phi_psi_coalgebra(doc.coalgebra, N=nmax)
                checks.append({"name": "coalgebra-side iso (inverse and "
                                       "intertwining, n <= %d)" % nmax,
                               "ok": True, "detail": None})
            except HopfCyclicError as e:
                checks.append({"name": "coalgebra-side iso", "ok": False,
                               "detail": str(e)})
    elif target == "transforms":
        pmax = _opt(params, doc, "pmax", 1)
        qmax = _opt(params, doc, "qmax", 1)
        _require_either(doc, target)
        _check_build_size(doc, target, {"pmax": pmax, "qmax": qmax},
                          ("algebra", "coalgebra"))
        if doc.algebra is not None:
            mf = AlgebraModuleForm(AlgebraCylinder(doc.algebra))
            try:
                checks += _report_entries(mf.check(pmax, qmax))
            except HopfCyclicError as e:
                checks.append({"name": "algebra-side transforms", "ok": False,
                               "detail": str(e)})
        if doc.coalgebra is not None:
            cmf = CoalgebraModuleForm(CoalgebraCocylinder(doc.coalgebra))
            try:
                checks += _report_entries(cmf.check(pmax, qmax))
            except HopfCyclicError as e:
                checks.append({"name": "coalgebra-side transforms", "ok": False,
                               "detail": str(e)})
    # a run that checked nothing has shown nothing
    return {"checks": checks}, bool(checks) and all(c["ok"] for c in checks)


def _crossed_dims(target, ops, nmax):
    """hh from b alone on every field; hc from Connes' complex over Q and
    from the (b, B) total complex over F_p, where the two differ."""
    if target == "hh":
        return b_column_dims(ops, nmax)
    if ops.field.p is None:
        return connes_dims(ops, nmax)
    return cyclic_dims(mixed_complex(ops), nmax)


def _pages_table(pages, ranks):
    """Report rows [i, j, dim, rank] per page, the rank read from the
    SSPage attribute named by ranks."""
    return [{"r": pg.r,
             "entries": [[i, j, pg.table[(i, j)], getattr(pg, ranks)[(i, j)]]
                         for (i, j) in sorted(pg.table)]}
            for pg in pages]


def cmd_compute(doc, target, params):
    tables = {}
    checks = []
    if target in ("hh", "hc"):
        nmax = _opt(params, doc, "nmax", 2)
        _require_either(doc, target)
        _check_size(doc, nmax, ("algebra", "coalgebra"))
        if doc.algebra is not None:
            r = crossed_product_algebra(doc.algebra)
            tables["%s_crossed_product_algebra" % target] = _crossed_dims(
                target, cyclic_module_of_algebra(r, N=nmax + 1), nmax)
        if doc.coalgebra is not None:
            cc = crossed_product_coalgebra(doc.coalgebra)
            tables["%s_crossed_product_coalgebra" % target] = _crossed_dims(
                target, cocyclic_module_of_coalgebra(cc, N=nmax + 1), nmax)
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
        _require_either(doc, target)
        _check_pages_size(doc, pmax, qmax, ("algebra", "coalgebra"))
        if doc.algebra is not None:
            fc = total_complex_algebra(AlgebraCylinder(doc.algebra),
                                       N=pmax + qmax + 1)
            tables["pages_algebra"] = _pages_table(
                spectral_pages(fc, rmax, (pmax, qmax)), "diff_ranks")
        if doc.coalgebra is not None:
            fc = total_complex_coalgebra(CoalgebraCocylinder(doc.coalgebra),
                                         N=pmax + qmax + 1)
            # fc is the transposed cochain complex: the cochain d^r out of
            # a position is its d^r into that position
            tables["pages_coalgebra"] = _pages_table(
                spectral_pages(fc, rmax, (pmax, qmax)), "diff_ranks_in")
    elif target == "coinvariants":
        nmax = _opt(params, doc, "nmax", 2)
        _require_either(doc, target)
        _check_coinvariant_size(doc, nmax, nmax, ("algebra", "coalgebra"))
        if doc.algebra is not None:
            _, pres = coinvariant_cyclic_module(doc.algebra, N=nmax)
            tables["coinvariant_quotient_dims"] = [p.dim for p in pres]
        if doc.coalgebra is not None:
            _, pres = coinvariant_cocyclic_module(doc.coalgebra, N=nmax)
            tables["coinvariant_subspace_dims"] = [p.dim for p in pres]
    return {"checks": checks, "tables": tables}, True


def _verdicts(lhs, rhs):
    return [{"n": n, "lhs": lhs[n], "rhs": rhs[n], "equal": lhs[n] == rhs[n]}
            for n in range(len(lhs))]


def cmd_compare(doc, target, params):
    nmax = _opt(params, doc, "nmax", 2)
    verdicts = {}
    if target == "diagonal-vs-direct":
        _require_either(doc, target)
        _check_size(doc, nmax, ("algebra", "coalgebra"))
        if doc.algebra is not None:
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
    elif target == "ez-hochschild":
        _require_either(doc, target)
        _check_build_size(doc, target, {"nmax": nmax},
                          ("algebra", "coalgebra"))
        if doc.algebra is not None:
            rep = ez_compare_hochschild(AlgebraCylinder(doc.algebra), nmax)
            verdicts["ez_algebra"] = [
                {"n": n, "lhs": a, "rhs": b, "equal": eq}
                for n, a, b, eq in rep]
        if doc.coalgebra is not None:
            rep = ez_compare_hochschild(CoalgebraCocylinder(doc.coalgebra),
                                        nmax)
            verdicts["ez_coalgebra"] = [
                {"n": n, "lhs": a, "rhs": b, "equal": eq}
                for n, a, b, eq in rep]
    elif target == "collapse-algebra":
        _require(doc, "algebra", target)
        _check_size(doc, nmax, ("algebra",))
        _check_coinvariant_size(doc, nmax, nmax + 1, ("algebra",))
        r = crossed_product_algebra(doc.algebra)
        lhs = cyclic_dims(mixed_complex(
            cyclic_module_of_algebra(r, N=nmax + 1)), nmax)
        ops, _ = coinvariant_cyclic_module(doc.algebra, N=nmax + 1)
        rhs = cyclic_dims(mixed_complex(ops), nmax)
        verdicts["hc_crossed_vs_coinvariants"] = _verdicts(lhs, rhs)
    elif target == "collapse-coalgebra":
        _require(doc, "coalgebra", target)
        _check_size(doc, nmax, ("coalgebra",))
        _check_coinvariant_size(doc, nmax, nmax + 1, ("coalgebra",))
        cc = crossed_product_coalgebra(doc.coalgebra)
        lhs = cyclic_dims(cochain_mixed_complex(
            cocyclic_module_of_coalgebra(cc, N=nmax + 1)), nmax)
        ops, _ = coinvariant_cocyclic_module(doc.coalgebra, N=nmax + 1)
        rhs = cyclic_dims(cochain_mixed_complex(ops), nmax)
        verdicts["hc_crossed_vs_coinvariants"] = _verdicts(lhs, rhs)
    rows = [v for table in verdicts.values() for v in table]
    # a comparison that produced no verdict has shown nothing
    ok = bool(rows) and all(v["equal"] for v in rows)
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
    except (ParseError, MissingBlock, TooLarge) as e:
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
