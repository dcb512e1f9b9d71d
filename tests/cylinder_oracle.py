"""The leg descriptions of the (co)cylinder operators that are one structure
map tensored with identities: the test oracle for their `amplify` forms.

`cylinder.py` writes each of these operators as `linalg.amplify` of H's or
the block's structure map.  Below they are as the package compiled them
before, through `tensor.compile_operator` on the cell's legs: same families,
same index ranges, same leg order.  Each function takes the (co)cylinder or
module form whose `_specs` and `_compile` it uses.
"""

from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.tensor import Legs, eps, prod, unit


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
