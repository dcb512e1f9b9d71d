"""The leg descriptions of the (co)cylinder operators that `cylinder.py`
builds by index arithmetic: the test oracle for their `amplify` and `widen`
forms.

`cylinder.py` writes each operator that is one structure map tensored with
identities as `linalg.amplify` of H's or the block's structure map, and
each rotation, last (co)face, regrouping map and closed vertical rotation or
last (co)face as its kernel on one cell with the other legs passed through
(`linalg.widen`, or `amplify` for the regrouping maps).  Below they are as
the package compiled them before, through `tensor.compile_operator` on the
legs of every cell: same families, same index ranges, same leg order.  Each
function takes the (co)cylinder or module form whose `_specs` and
`_compile` it uses.
"""

from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.tensor import Legs, S, Sinv, act, eps, prod, unit


def _plain(obj, p, q, expand=None):
    specs = obj._specs(p, q, expand)
    return specs, Legs(specs)


# -- AlgebraCylinder -----------------------------------------------------------

def face_v(cyl, p, q, i):  # i < q
    specs, L = _plain(cyl, p, q)
    outs = [L.plain(f) for f in range(p + 1)]
    for j in range(q + 1):
        if j == i:
            outs.append(prod(L.plain(p + 1 + i), L.plain(p + 1 + i + 1)))
        elif j != i + 1:
            outs.append(L.plain(p + 1 + j))
    return cyl._compile(specs, outs)


def degen_v(cyl, p, q, i):
    specs, L = _plain(cyl, p, q)
    outs = [L.plain(f) for f in range(p + 1)]
    for j in range(q + 1):
        outs.append(L.plain(p + 1 + j))
        if j == i:
            outs.append(unit("A"))
    return cyl._compile(specs, outs)


def face_h(cyl, p, q, i):  # i < p
    specs, L = _plain(cyl, p, q)
    outs = []
    for f in range(p + 1):
        if f == i:
            outs.append(prod(L.plain(i), L.plain(i + 1)))
        elif f != i + 1:
            outs.append(L.plain(f))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return cyl._compile(specs, outs)


def degen_h(cyl, p, q, i):
    specs, L = _plain(cyl, p, q)
    outs = []
    for f in range(p + 1):
        outs.append(L.plain(f))
        if f == i:
            outs.append(unit("H"))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return cyl._compile(specs, outs)


# -- CoalgebraCocylinder -------------------------------------------------------

def coface_v(cocyl, p, q, i):  # i <= q
    specs, L = _plain(cocyl, p, q, {p + 1 + i: ("comult", 1)})
    outs = [L.plain(f) for f in range(p + 1)]
    for j in range(q + 1):
        if j == i:
            outs.append(L.com(p + 1 + i, 0))
            outs.append(L.com(p + 1 + i, 1))
        else:
            outs.append(L.plain(p + 1 + j))
    return cocyl._compile(specs, outs)


def codegen_v(cocyl, p, q, i):
    specs, L = _plain(cocyl, p, q)
    outs = [L.plain(f) for f in range(p + 1)]
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1) if j != i + 1)
    outs.append(eps(L.plain(p + 1 + i + 1)))
    return cocyl._compile(specs, outs)


def coface_h(cocyl, p, q, i):  # i <= p
    specs, L = _plain(cocyl, p, q, {i: ("comult", 1)})
    outs = []
    for f in range(p + 1):
        if f == i:
            outs.append(L.com(i, 0))
            outs.append(L.com(i, 1))
        else:
            outs.append(L.plain(f))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return cocyl._compile(specs, outs)


def codegen_h(cocyl, p, q, i):
    specs, L = _plain(cocyl, p, q)
    outs = [L.plain(f) for f in range(p + 1) if f != i + 1]
    outs.append(eps(L.plain(i + 1)))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return cocyl._compile(specs, outs)


# -- AlgebraModuleForm closed forms ---------------------------------------------

def closed_face_h(mf, p, q, i):  # i < p
    specs, L = _plain(mf, p, q)
    if i == 0:
        outs = [L.plain(f) for f in range(1, p + 1)]
        outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
        outs.append(eps(L.plain(0)))
        return mf._compile(specs, outs)
    outs = []
    for f in range(p):
        if f == i - 1:
            outs.append(prod(L.plain(i - 1), L.plain(i)))
        elif f != i:
            outs.append(L.plain(f))
    outs.append(L.plain(p))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return mf._compile(specs, outs)


def closed_last_face_h(mf, p, q):  # p >= 1
    expand = {p - 1: ("comult", 1)}
    expand.update({p + 1 + j: ("coaction", 2) for j in range(q + 1)})
    specs, L = _plain(mf, p, q, expand)
    bar1, bar2 = _coaction_bars(L, p + 1, q + 1)
    outs = [L.plain(f) for f in range(p - 1)]
    outs.append(prod(Sinv(bar1), L.com(p - 1, 0), bar2, L.plain(p),
                     Sinv(L.com(p - 1, 1))))
    outs.extend(L.coact(p + 1 + j, 0) for j in range(q + 1))
    return mf._compile(specs, outs)


def closed_degen_h(mf, p, q, i):
    specs, L = _plain(mf, p, q)
    outs = []
    if i == 0:
        outs.append(unit("H"))
    for f in range(p):
        outs.append(L.plain(f))
        if f + 1 == i:
            outs.append(unit("H"))
    outs.append(L.plain(p))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return mf._compile(specs, outs)


# -- CoalgebraModuleForm closed forms -------------------------------------------

def closed_coface_h(mf, p, q, i, first_column_coaction):
    if i == 0:
        specs, L = _plain(mf, p, q)
        outs = [unit("H")]
        outs.extend(L.plain(f) for f in range(p + 1))
        outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
        return mf._compile(specs, outs)
    if i <= p:
        specs, L = _plain(mf, p, q, {i - 1: ("comult", 1)})
        outs = []
        for f in range(p):
            if f == i - 1:
                outs.append(L.com(i - 1, 0))
                outs.append(L.com(i - 1, 1))
            else:
                outs.append(L.plain(f))
        outs.append(L.plain(p))
        outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
        return mf._compile(specs, outs)
    fcc = first_column_coaction(mf.base.C, q)
    return SparseMatrix.identity(mf.field, mf.dh ** p).kron(fcc)


def closed_codegen_h(mf, p, q, i):  # i < p
    specs, L = _plain(mf, p, q)
    outs = [L.plain(f) for f in range(p) if f != i]
    outs.append(L.plain(p))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    outs.append(eps(L.plain(i)))
    return mf._compile(specs, outs)


# -- rotations and last (co)faces, compiled on every cell -----------------------

def _mprod(*terms):
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    return terms[0] if len(terms) == 1 else prod(*terms)


def _coaction_bars(L, first, count):
    return (prod(*[L.coact(first + j, 1) for j in range(count)]),
            prod(*[L.coact(first + j, 2) for j in range(count)]))


def _rotation_v_parts(cyl, p, q):
    aq = p + 1 + q
    specs, L = _plain(cyl, p, q, {aq: ("coaction", 2 * p + 2)})
    outs = [prod(L.coact(aq, 2 * p + 2 - 2 * k), L.plain(k),
                 S(L.coact(aq, 2 * p + 1 - 2 * k))) for k in range(p + 1)]
    return specs, L, outs, L.coact(aq, 0)


def tau_v(cyl, p, q):
    specs, L, outs, body = _rotation_v_parts(cyl, p, q)
    outs.append(body)
    outs.extend(L.plain(p + 1 + j) for j in range(q))
    return cyl._compile(specs, outs)


def last_face_v(cyl, p, q):  # q >= 1
    specs, L, outs, body = _rotation_v_parts(cyl, p, q)
    outs.append(prod(body, L.plain(p + 1)))
    outs.extend(L.plain(p + 1 + j) for j in range(1, q))
    return cyl._compile(specs, outs)


def _rotation_h_parts(cyl, p, q):
    specs, L = _plain(cyl, p, q,
                      {p + 1 + j: ("coaction", 2) for j in range(q + 1)})
    bar1, bar2 = _coaction_bars(L, p + 1, q + 1)
    bodies = [L.coact(p + 1 + j, 0) for j in range(q + 1)]
    return specs, L, (Sinv(bar1), L.plain(p), bar2), bodies


def tau_h(cyl, p, q):
    specs, L, twisted, bodies = _rotation_h_parts(cyl, p, q)
    outs = [prod(*twisted)]
    outs.extend(L.plain(i) for i in range(p))
    return cyl._compile(specs, outs + bodies)


def last_face_h(cyl, p, q):  # p >= 1
    specs, L, twisted, bodies = _rotation_h_parts(cyl, p, q)
    outs = [prod(*twisted, L.plain(0))]
    outs.extend(L.plain(i2) for i2 in range(1, p))
    return cyl._compile(specs, outs + bodies)


def _gblock_pairs(L, p):
    terms = []
    for i in range(p + 1):
        terms.append(L.com(i, 0))
        terms.append(S(L.com(i, 2)))
    return prod(*terms)


def cotau_v(cocyl, p, q):
    specs, L = _plain(cocyl, p, q, {i: ("comult", 2) for i in range(p + 1)})
    outs = [L.com(i, 1) for i in range(p + 1)]
    outs.extend(L.plain(p + 1 + j) for j in range(1, q + 1))
    outs.append(act(_gblock_pairs(L, p), L.plain(p + 1)))
    return cocyl._compile(specs, outs)


def last_coface_v(cocyl, p, q):
    expand = {f: ("comult", 2) for f in range(p + 1)}
    expand[p + 1] = ("comult", 1)
    specs, L = _plain(cocyl, p, q, expand)
    outs = [L.com(f, 1) for f in range(p + 1)]
    outs.append(L.com(p + 1, 1))
    outs.extend(L.plain(p + 1 + j) for j in range(1, q + 1))
    outs.append(act(_gblock_pairs(L, p), L.com(p + 1, 0)))
    return cocyl._compile(specs, outs)


def _diag_sinv_pairs(L, f, q):
    return [prod(L.com(f, q + 2 + j), Sinv(L.com(f, q - j)))
            for j in range(q + 1)]


def cotau_h(cocyl, p, q):
    specs, L = _plain(cocyl, p, q, {0: ("comult", 2 * q + 2)})
    comps = _diag_sinv_pairs(L, 0, q)
    outs = [L.plain(i) for i in range(1, p + 1)]
    outs.append(L.com(0, q + 1))
    outs.extend(act(comps[j], L.plain(p + 1 + j)) for j in range(q + 1))
    return cocyl._compile(specs, outs)


def last_coface_h(cocyl, p, q):
    specs, L = _plain(cocyl, p, q, {0: ("comult", 2 * q + 3)})
    comps = _diag_sinv_pairs(L, 0, q)
    outs = [L.com(0, 2 * q + 3)]
    outs.extend(L.plain(f) for f in range(1, p + 1))
    outs.append(L.com(0, q + 1))
    outs.extend(act(comps[j], L.plain(p + 1 + j)) for j in range(q + 1))
    return cocyl._compile(specs, outs)


# -- regrouping maps and closed vertical forms, compiled on every cell ----------

def to_module(mf, p, q):
    if mf.block == "A":
        specs, L = _plain(mf, p, q, {i: ("comult", 1) for i in range(1, p + 1)})
        outs = [L.com(i, 0) for i in range(1, p + 1)]
        outs.append(_mprod(L.plain(0), *[L.com(i, 1) for i in range(1, p + 1)]))
    else:
        specs, L = _plain(mf, p, q, {0: ("comult", p)})
        outs = [prod(S(L.com(0, p - j)), L.plain(j + 1)) for j in range(p)]
        outs.append(L.com(0, 0))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return mf._compile(specs, outs)


def from_module(mf, p, q):
    if mf.block == "A":
        specs, L = _plain(mf, p, q, {i: ("comult", 1) for i in range(p)})
        tail = _mprod(*[L.com(i, 1) for i in range(p)])
        outs = [_mprod(L.plain(p), Sinv(tail) if tail else None)]
        outs.extend(L.com(i, 0) for i in range(p))
    else:
        specs, L = _plain(mf, p, q, {p: ("comult", p)})
        outs = [L.com(p, 0)]
        for i in range(1, p + 1):
            outs.append(prod(L.com(p, i), L.plain(i - 1)))
    outs.extend(L.plain(p + 1 + j) for j in range(q + 1))
    return mf._compile(specs, outs)


def _closed_rotation_v_parts(mf, p, q):
    aq = p + 1 + q
    expand = {i: ("comult", 2) for i in range(p)}
    expand[aq] = ("coaction", 4 * p + 2)
    specs, L = _plain(mf, p, q, expand)
    bars = []
    mod = [L.coact(aq, 4 * p + 2), L.plain(p)]
    tails = [Sinv(_mprod(*[L.com(i, 2) for i in range(p)])),
             S(L.coact(aq, 4 * p + 1))] if p else [S(L.coact(aq, 4 * p + 1))]
    mod.extend(t for t in tails if t is not None)
    for i in range(1, p + 1):
        top = 4 * p - 4 * (i - 1)
        bars.append(prod(L.coact(aq, top), L.com(i - 1, 0),
                         S(L.coact(aq, top - 3))))
        mod.extend([L.coact(aq, top - 1), L.com(i - 1, 1),
                    S(L.coact(aq, top - 2))])
    return specs, L, bars, _mprod(*mod), aq


def _module_action_pairs(L, gmod, gbars):
    terms = [L.com(gmod, 0)]
    for i in gbars:
        terms.append(L.com(i, 0))
        terms.append(S(L.com(i, 2)))
    terms.append(S(L.com(gmod, 2)))
    return prod(*terms)


def closed_tau_v(mf, p, q):
    if mf.block == "A":
        specs, L, bars, mod, aq = _closed_rotation_v_parts(mf, p, q)
        outs = list(bars) + [mod, L.coact(aq, 0)]
        outs.extend(L.plain(p + 1 + j) for j in range(q))
        return mf._compile(specs, outs)
    specs, L = _plain(mf, p, q, {f: ("comult", 2) for f in range(p + 1)})
    outs = [L.com(i, 1) for i in range(p)]
    outs.append(L.com(p, 1))
    outs.extend(L.plain(p + 1 + j) for j in range(1, q + 1))
    outs.append(act(_module_action_pairs(L, p, range(p)), L.plain(p + 1)))
    return mf._compile(specs, outs)


def closed_last_face_v(mf, p, q):  # q >= 1
    specs, L, bars, mod, aq = _closed_rotation_v_parts(mf, p, q)
    outs = list(bars) + [mod, prod(L.coact(aq, 0), L.plain(p + 1))]
    outs.extend(L.plain(p + 1 + j) for j in range(1, q))
    return mf._compile(specs, outs)


def closed_last_coface_v(mf, p, q):
    expand = {f: ("comult", 2) for f in range(p + 1)}
    expand[p + 1] = ("comult", 1)
    specs, L = _plain(mf, p, q, expand)
    outs = [L.com(i, 1) for i in range(p)]
    outs.append(L.com(p, 1))
    outs.append(L.com(p + 1, 1))
    outs.extend(L.plain(p + 1 + j) for j in range(1, q + 1))
    outs.append(act(_module_action_pairs(L, p, range(p)), L.com(p + 1, 0)))
    return mf._compile(specs, outs)
