"""Batch front door: verify / compute / compare on JSON structure files.

    hopfcyclic verify  <target> -i file.json [--pmax P --qmax Q --nmax N]
    hopfcyclic compute <target> -i file.json [--nmax N --rmax R ...]
    hopfcyclic compare <target> -i file.json [--nmax N]

plus `-o report.json` and `--csv dir/` on every command.  Exit codes:
0 all checks pass, 1 a check failed or a verify / compare checked nothing,
2 input error or a job above a size limit.  Reports are normalized JSON and
byte-identical across runs; wall-clock timings go to stderr only when
--timings is given.  No environment variables are read.

Each target is written once for the algebra and the coalgebra side and runs
on every block it needs that the document has.  Before anything is built,
one gate checks the rows of `_sizes` on each of those blocks in turn, in
the order below (dh = dim(H), d = the block's dimension, P = pmax,
Q = qmax; each limit is the `MAX_*` constant of that name):

    target               row                                         limit
    hh, hc,              chain space (dh d)^(nmax+2)                 CHAIN
    diagonal-vs-direct   (co)face work (nmax+2)^3                    FACE
                         (hh, hc: the chain row gives way when it alone
                         refuses and the crossed product is semisimple
                         over Q, read off the closed form)
    collapse-*           the rows of hh, then those of coinvariants
                         at nmax + 1
    coinvariants         first column dh d^(nmax+1)                  COLUMN
                         (co)face work (nmax+1)^3                    FACE
    hopf-homology,       normalized (co)bar space (dh-1)^(top+1)     CHAIN
    comodule-cohomology  on the hopf block
                         (co)face work (top+2)^2                     FACE
                         (top = qmax, resp. pmax)
    ss-pages             total space: sum of dh^(p+1) d^(q+1) over   TOTAL
                         p + q = n = P + Q + 1
                         (co)face work (n+1)^2 (n+2)^2               FACE
                         page entries (rmax+1)(P+1)(Q+1)             TOTAL
    cylindrical,         cells (P+1)(Q+1) dh^(P+1) d^(Q+1)           CYLINDER
    cocylindrical        last horizontal (co)face dh^(2Q+4)          CYLINDER
                         vertical (co)action dh^(2P+2) d             CYLINDER
                         operator pairs ((P+2)(Q+2))^2               CHECK
    transforms           cells (P+2)(Q+2) max(dh, d) dh^(P+1)        CYLINDER
                         d^(Q+1)
                         first-column (co)action dh^(2Q+5)           CYLINDER
                         closed vertical rotation dh^(4P+2) d        CYLINDER
                         closed horizontal rotation dh^(2P+2Q+3)     CYLINDER
                         operator pairs ((P+2)(Q+2))^2               CHECK
    iso (N = nmax),      cells (N+1) (dh d)^(N+1)                    CYLINDER
    ez-hochschild        last horizontal (co)face dh^(2N+4)          CYLINDER
    (N = nmax + 1)       operator pairs (N+2)^3                      CHECK

`compute hh|hc` on a crossed product that is semisimple over Q (of its dual
algebra on the coalgebra side) read both tables off HH_0 = d - rank [R, R]
and build no chain complex.  Otherwise, on every field, `compute hh` ranks
the normalized Hochschild boundary b of the same algebra alone and
`compute hc` its normalized (b, B) total complex.  Neither builds a
(co)cyclic module.  `compare` ranks the crossed product the same way, and
builds the unnormalized (b, B) only on the other side of each comparison:
the diagonal of the (co)cylinder, or the coinvariant module.

`compute hopf-homology|comodule-cohomology` rank the normalized (co)bar
complex, on the chains with no unit (counit) leg, which its gate row
counts, and `compute ss-pages` and `compare ez-hochschild` the total
complex normalized in the H direction, E^0 restored by its closed form;
their gate rows still count the full spaces.
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
    crossed_product_algebra, crossed_product_coalgebra, dual_algebra,
)
from .cylinder import (
    AlgebraCylinder, AlgebraModuleForm, CoalgebraCocylinder,
    CoalgebraModuleForm, check_algebra_cylinder, check_coalgebra_cocylinder,
    coinvariant_cocyclic_module, coinvariant_cyclic_module, diagonal_cocyclic,
    diagonal_cyclic, phi_psi_algebra, phi_psi_coalgebra,
)
from .homology import (
    cochain_mixed_complex, cyclic_dims, ez_compare_hochschild,
    hochschild_dims, hopf_comodule_cohomology, hopf_module_homology,
    mixed_complex, normalized_hochschild_dims, normalized_mixed_complex,
    semisimple_hh0, spectral_pages, total_complex_algebra,
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


# The one block of a target that does not run on each of the algebra and
# coalgebra blocks the document has.
_ONE_SIDE = {
    "hopf": "hopf", "hopf-homology": "hopf", "comodule-cohomology": "hopf",
    "comodule-algebra": "algebra", "cylindrical": "algebra",
    "collapse-algebra": "algebra",
    "module-coalgebra": "coalgebra", "cocylindrical": "coalgebra",
    "collapse-coalgebra": "coalgebra",
}


def _sides(doc, target):
    """The blocks a target runs on, in report order; MissingBlock when the
    document has none of them."""
    if target in _ONE_SIDE:
        side = _ONE_SIDE[target]
        if getattr(doc, side) is None:
            raise MissingBlock("target %s needs the %s block"
                               % (target, side))
        return [side]
    sides = [s for s in ("algebra", "coalgebra")
             if getattr(doc, s) is not None]
    if not sides:
        raise MissingBlock("target %s needs an algebra or coalgebra block"
                           % target)
    return sides


# The document `options` key of each degree-bound flag (see io.py).
_OPTION_KEYS = {"nmax": "N", "pmax": "P", "qmax": "Q", "rmax": "rmax"}

# The degree bounds of each target other than nmax alone (default 2), with
# their defaults, in the order they are read.
_BOUNDS = {
    "hopf": (), "comodule-algebra": (), "module-coalgebra": (),
    "cylindrical": (("pmax", 2), ("qmax", 2)),
    "cocylindrical": (("pmax", 1), ("qmax", 1)),
    "transforms": (("pmax", 1), ("qmax", 1)),
    "hopf-homology": (("qmax", 3),),
    "comodule-cohomology": (("pmax", 3),),
    "ss-pages": (("rmax", 2), ("pmax", 2), ("qmax", 2)),
}


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
# crossed-product job may build: the diagonal of `compare
# diagonal-vs-direct` builds the top b in full, `hh` and `hc` only its
# dim(R) (dim(R) - 1)^(nmax+1) non-degenerate columns.  A crossed product
# that is semisimple over Q builds no chains, so on `hh` and `hc` the row
# gives way there (`_closed_form`) and the (co)face work row bounds nmax.
# Measured on a 2-core VM through the normalized b and (b, B), the admitted
# corpus jobs at the edge take, for C2 --nmax 6 (4^8 = 65536), 1.3 s and
# 40 MB with `hc` and 0.5 s and 37 MB with `hh` over Q, 0.8 s and 40 MB and
# 0.6 s and 38 MB over F_2; for C3 --nmax 3 (9^5), 1.6-1.9 s and 63 MB with
# `hc`, 1.4 s and 59 MB with `hh`; through the closed form, 0.1-0.2 s and
# 18 MB.  Through the unnormalized (b, B), the first refused ones, C2
# --nmax 7 (4^9) and C3 --nmax 4 (9^6), had not finished after 400 s, at
# 1.8 and 2.2 GB resident.  The same limit holds the top normalized bar
# space (dim(H) - 1)^(top+1) that `compute hopf-homology|comodule-cohomology`
# rank: at the edges, S3 --qmax 6 (5^7) takes 3.7 s and 277 MB, Sweedler
# --qmax 9 (3^10) 1.7 s and 110 MB and C3 --qmax 16 (2^17) 21 s and
# 962 MB; over C2 the normalized space is 1 in every degree, so the
# (co)face work row bounds top.  The README lists every corpus bound.
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
# edge.  The same limit holds the page entries (rmax+1)(pmax+1)(qmax+1)
# the report prints.  The README lists the runs.
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
# nmax for coinvariants), that of the (co)bar complexes up to degree
# top + 1, (top + 2)^2 (each (co)face is one structure map tensored with
# identities), and that of the total complex of ss-pages up to
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


def _product_text(factors):
    text = " ".join("%d" % b if k == 1 else "%d^%d" % (b, k)
                    for b, k in factors)
    if all(k <= 64 for _, k in factors):
        text += " = %d" % math.prod(b ** k for b, k in factors)
    return text


def _row(what, factors, limit):
    """The gate row of a product of (base, exponent) factors; its value is
    limit + 1 from the first factor that passes limit on."""
    value = 1
    for base, k in factors:
        value *= _capped_power(base, k, limit)
        if value > limit:
            value = limit + 1
            break
    return what, (value, _product_text(factors)), limit


def _sizes(target, bounds, dh, d):
    """The gate rows (what, (value, text), limit) of a job on one block, in
    the order they are checked, with dh = dim(H) and d the block's
    dimension (dim(H) on the hopf block): the algebra and coalgebra sides
    share the shapes."""
    if target in ("hh", "hc", "diagonal-vs-direct", "collapse-algebra",
                  "collapse-coalgebra"):
        k = bounds["nmax"] + 2
        rows = [_row("a chain space of dimension", [(dh * d, k)],
                     MAX_CHAIN_DIM),
                _row("(co)face work", [(k, 3)], MAX_FACE_WORK)]
        if target.startswith("collapse"):
            rows += _sizes("coinvariants", {"nmax": k - 1}, dh, d)
        return rows
    if target == "coinvariants":
        top = bounds["nmax"]
        return [_row("a first column of dimension", [(dh, 1), (d, top + 1)],
                     MAX_COLUMN_DIM),
                _row("(co)face work", [(top + 1, 3)], MAX_FACE_WORK)]
    if target in ("hopf-homology", "comodule-cohomology"):
        (top,) = bounds.values()
        return [_row("a (co)bar space of dimension", [(d - 1, top + 1)],
                     MAX_CHAIN_DIM),
                _row("(co)face work", [(top + 2, 2)], MAX_FACE_WORK)]
    if target == "ss-pages":
        R, P, Q = bounds["rmax"], bounds["pmax"], bounds["qmax"]
        n = P + Q + 1
        total = 0
        for p in range(n + 1):  # stops at the first partial sum past it
            total += _capped_power(dh, p + 1, MAX_TOTAL_DIM) \
                * _capped_power(d, n - p + 1, MAX_TOTAL_DIM)
            if total > MAX_TOTAL_DIM:
                break
        text = "sum of %d^(p+1) %d^(q+1) over p+q = %d" % (dh, d, n)
        if n <= 64:
            text += " = %d" % sum(dh ** (p + 1) * d ** (n - p + 1)
                                  for p in range(n + 1))
        return [("a total space of dimension", (total, text), MAX_TOTAL_DIM),
                _row("(co)face work", [(n + 1, 2), (n + 2, 2)],
                     MAX_FACE_WORK),
                _row("page entries (--rmax %d)" % R,
                     [(R + 1, 1), (P + 1, 1), (Q + 1, 1)], MAX_TOTAL_DIM)]
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
    elif target in ("iso", "ez-hochschild"):
        # the diagonal cells up to N = nmax (iso) or nmax + 1 (ez)
        N = bounds["nmax"] + (target == "ez-hochschild")
        cells = [(N + 1, 1), (dh * d, N + 1)]
        widths = [("last horizontal (co)face", [(dh, 2 * N + 4)])]
        pairs = [(N + 2, 3)]
    else:  # the structure checks build nothing that grows
        return []
    return [_row("cells of total dimension", cells, MAX_CYLINDER_DIM)] \
        + [_row("a %s expression of width" % what, factors, MAX_CYLINDER_DIM)
           for what, factors in widths] \
        + [_row("operator pairs", pairs, MAX_CHECK_WORK)]


def _closed_form(doc, side):
    """(crossed product, HH_0) of the side when `compute hh|hc` read its
    tables off the closed form of a crossed product semisimple over Q, else
    None.  Asked only over Q and when the closed form's own d^2 products
    fit the chain-space limit."""
    d = doc.hopf.dim * getattr(doc, side).dim
    if doc.field.p is not None or d * d > MAX_CHAIN_DIM:
        return None
    r = _crossed_algebra(doc, side)
    h0 = semisimple_hh0(r)
    return None if h0 is None else (r, h0)


def _check_size(doc, target, bounds, sides):
    """Refuse a job with TooLarge at its first gate row above its limit,
    block by block, before anything is built; return {side: (crossed
    product, HH_0)} of what the gate built.

    The chain-space row of `compute hh|hc` gives way where it alone is
    above its limit and the side's crossed product takes the closed form,
    which builds no chain space; deciding that builds the crossed product
    and its HH_0, which the job then reads."""
    # rmax counts pages, not degrees: only the row that reads it names it
    flags = " ".join("--%s %d" % kv for kv in sorted(bounds.items())
                     if kv[0] != "rmax")
    built = {}
    for side in sides:
        rows = _sizes(target, bounds, doc.hopf.dim, getattr(doc, side).dim)
        over = [row for row in rows if row[1][0] > row[2]]
        if not over:
            continue
        if target in ("hh", "hc") and over == rows[:1]:
            closed = _closed_form(doc, side)
            if closed is not None:
                built[side] = closed
                continue
        what, (_, text), limit = over[0]
        raise TooLarge("%s on the %s block needs %s %s, above the limit %d"
                       % (flags, side, what, text, limit))
    return built


def _admit(doc, target, params):
    """(bounds, sides, built) of a job the gate admits: its degree bounds,
    the blocks it runs on and the crossed products (with their HH_0) the
    gate built."""
    if target in ("cylindrical", "cocylindrical"):
        _sides(doc, target)  # these name a missing block before a bad bound
    bounds = {key: _opt(params, doc, key, default)
              for key, default in _BOUNDS.get(target, (("nmax", 2),))}
    sides = _sides(doc, target)
    return bounds, sides, _check_size(doc, target, bounds, sides)


def _cylinder(doc, side):
    if side == "algebra":
        return AlgebraCylinder(doc.algebra)
    return CoalgebraCocylinder(doc.coalgebra)


def _coinvariants(doc, side, N, top_faces_only=False):
    """(module, presentations) of the side's coinvariant (co)cyclic module
    up to degree N; with top_faces_only, degree N carries its (co)faces
    only, all that a mixed complex through N reads."""
    if side == "algebra":
        return coinvariant_cyclic_module(doc.algebra, N, top_faces_only)
    return coinvariant_cocyclic_module(doc.coalgebra, N, top_faces_only)


def cmd_verify(doc, target, params):
    bounds, sides, _ = _admit(doc, target, params)
    checks = []
    for side in sides:
        s = getattr(doc, side)
        alg = side == "algebra"
        if target == "hopf":
            checks += _report_entries(check_hopf(s))
        elif target in ("comodule-algebra", "module-coalgebra"):
            check = check_comodule_algebra if alg else check_module_coalgebra
            checks += _report_entries(check(s))
        elif target in ("cylindrical", "cocylindrical"):
            suite = check_algebra_cylinder if alg \
                else check_coalgebra_cocylinder
            checks += _report_entries(suite(_cylinder(doc, side),
                                            bounds["pmax"], bounds["qmax"]))
        elif target == "iso":
            nmax = bounds["nmax"]
            try:
                (phi_psi_algebra if alg else phi_psi_coalgebra)(s, N=nmax)
                checks.append({"name": "%s-side iso (inverse and "
                                       "intertwining, n <= %d)" % (side, nmax),
                               "ok": True, "detail": None})
            except HopfCyclicError as e:
                checks.append({"name": "%s-side iso" % side, "ok": False,
                               "detail": str(e)})
        else:  # transforms
            form = AlgebraModuleForm if alg else CoalgebraModuleForm
            mf = form(_cylinder(doc, side))
            try:
                checks += _report_entries(mf.check(bounds["pmax"],
                                                   bounds["qmax"]))
            except HopfCyclicError as e:
                checks.append({"name": "%s-side transforms" % side,
                               "ok": False, "detail": str(e)})
    # a run that checked nothing has shown nothing
    return {"checks": checks}, bool(checks) and all(c["ok"] for c in checks)


def _crossed_algebra(doc, side):
    """The side's crossed product; on the coalgebra side its dual algebra,
    whose cyclic module is the transposed cocyclic module."""
    if side == "algebra":
        return crossed_product_algebra(doc.algebra)
    return dual_algebra(crossed_product_coalgebra(doc.coalgebra))


def _crossed_dims(r, targets, nmax, h0=None):
    """{target: table} of the targets ("hh", "hc") of the crossed-product
    algebra r through degree nmax.

    When r is semisimple over Q (`semisimple_hh0`, decided once for all the
    targets, or given as h0 where the gate has decided it), each is read
    off HH_0 = d - rank [r, r]: hh = [HH_0, 0, 0, ...] and hc = [HH_0, 0,
    HH_0, 0, ...], with no chain complex built.  Otherwise, on every field,
    hc comes from the normalized (b, B) total complex and hh from its b, or
    from the normalized b alone when hc is not asked for."""
    if h0 is None:
        h0 = semisimple_hh0(r)
    if h0 is not None:
        closed = {"hh": [h0] + [0] * nmax,
                  "hc": [0 if n % 2 else h0 for n in range(nmax + 1)]}
        return {target: closed[target] for target in targets}
    if "hc" not in targets:
        return {"hh": normalized_hochschild_dims(r, nmax)}
    mc = normalized_mixed_complex(r, nmax + 1)
    ranks = {"hh": hochschild_dims, "hc": cyclic_dims}
    return {target: ranks[target](mc, nmax) for target in targets}


def _pages_table(pages, ranks):
    """Report rows [i, j, dim, rank] per page, the rank read from the
    SSPage attribute named by ranks."""
    return [{"r": pg.r,
             "entries": [[i, j, pg.table[(i, j)], getattr(pg, ranks)[(i, j)]]
                         for (i, j) in sorted(pg.table)]}
            for pg in pages]


def cmd_compute(doc, target, params):
    bounds, sides, built = _admit(doc, target, params)
    tables = {}
    for side in sides:
        s = getattr(doc, side)
        alg = side == "algebra"
        if target in ("hh", "hc"):
            r, h0 = built.get(side) or (_crossed_algebra(doc, side), None)
            tables["%s_crossed_product_%s" % (target, side)] = _crossed_dims(
                r, [target], bounds["nmax"], h0)[target]
        elif target == "hopf-homology":
            tables["hopf_module_homology_trivial_coefficients"] = \
                hopf_module_homology(s, trivial_module_action(s),
                                     bounds["qmax"])
        elif target == "comodule-cohomology":
            tables["hopf_comodule_cohomology_trivial_coefficients"] = \
                hopf_comodule_cohomology(s, trivial_comodule_coaction(s),
                                         bounds["pmax"])
        elif target == "ss-pages":
            window = (bounds["pmax"], bounds["qmax"])
            total = total_complex_algebra if alg else total_complex_coalgebra
            fc = total(_cylinder(doc, side), N=sum(window) + 1)
            # on the coalgebra side fc is the transposed cochain complex:
            # the cochain d^r out of a position is its d^r into it
            tables["pages_" + side] = _pages_table(
                spectral_pages(fc, bounds["rmax"], window),
                "diff_ranks" if alg else "diff_ranks_in")
        else:  # coinvariants
            _, pres = _coinvariants(doc, side, bounds["nmax"])
            kind = "quotient" if alg else "subspace"
            tables["coinvariant_%s_dims" % kind] = [p.dim for p in pres]
    return {"checks": [], "tables": tables}, True


def _verdicts(lhs, rhs):
    return [{"n": n, "lhs": lhs[n], "rhs": rhs[n], "equal": lhs[n] == rhs[n]}
            for n in range(len(lhs))]


def cmd_compare(doc, target, params):
    bounds, sides, _ = _admit(doc, target, params)
    nmax = bounds["nmax"]
    verdicts = {}
    for side in sides:
        alg = side == "algebra"
        mixed = mixed_complex if alg else cochain_mixed_complex
        if target == "diagonal-vs-direct":
            dims = _crossed_dims(_crossed_algebra(doc, side), ["hh", "hc"],
                                 nmax)
            diagonal = diagonal_cyclic if alg else diagonal_cocyclic
            mc_diag = mixed(diagonal(_cylinder(doc, side), N=nmax + 1))
            verdicts["hh_" + side] = _verdicts(dims["hh"],
                                               hochschild_dims(mc_diag, nmax))
            verdicts["hc_" + side] = _verdicts(dims["hc"],
                                               cyclic_dims(mc_diag, nmax))
        elif target == "ez-hochschild":
            rep = ez_compare_hochschild(_cylinder(doc, side), nmax)
            verdicts["ez_" + side] = [
                {"n": n, "lhs": a, "rhs": b, "equal": eq}
                for n, a, b, eq in rep]
        else:  # collapse-algebra, collapse-coalgebra
            lhs = _crossed_dims(_crossed_algebra(doc, side), ["hc"], nmax)["hc"]
            ops, _ = _coinvariants(doc, side, nmax + 1, top_faces_only=True)
            rhs = cyclic_dims(mixed(ops), nmax)
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


_parser = None  # built by the first `main` call, not at import


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
