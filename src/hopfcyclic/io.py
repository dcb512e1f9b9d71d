"""JSON input documents: structure constants as sparse triple lists.

Schema (all scalars are exact strings: integers or fractions "a/b"):

    field:     {"kind": "Q"} or {"kind": "Fp", "p": prime}
    hopf:      basis, mult [[i,j,k,c]] (e_i e_j -> c e_k),
               unit [[i,c]], comult [[i,j,k,c]] (e_i -> c e_j x e_k),
               counit [[i,c]], antipode [[i,j,c]] (e_i -> c e_j)
    algebra:   basis, mult, unit, coaction [[i,j,k,c]] (a_i -> c h_j x a_k)
    coalgebra: basis, comult, counit, action [[i,j,k,c]] (h_i . c_j -> c c_k)
    options:   N, P, Q, rmax (all optional)

The antipode inverse is computed, never read.  Serialization is normalized
(sorted triples, canonical scalar strings), so parse/serialize round-trips
are idempotent and byte-identical across runs.
"""

from __future__ import annotations

import json

from .errors import ParseError, Singular
from .fields import Field
from .hopf import (
    Algebra, Coalgebra, ComoduleAlgebra, HopfAlgebra, ModuleCoalgebra,
)
from .linalg import SparseMatrix


def _parse_field(node):
    if not isinstance(node, dict) or "kind" not in node:
        raise ParseError("field block must carry a kind")
    if node["kind"] == "Q":
        return Field.rationals()
    if node["kind"] == "Fp":
        p = node.get("p")
        if type(p) is not int:
            raise ParseError("bad prime field: p must be an integer, got %r"
                             % (p,))
        try:
            return Field.prime(p)
        except ValueError as e:
            raise ParseError("bad prime field: %s" % e)
    raise ParseError("unknown field kind %r" % (node["kind"],))


def _lists(node, block, keys):
    """node[key] for each key, in order: node must be a JSON object and each
    value a JSON list."""
    if not isinstance(node, dict):
        raise ParseError("%s block must be an object" % block)
    out = []
    for key in keys:
        if key not in node:
            raise ParseError("%s block missing %r" % (block, key))
        if not isinstance(node[key], list):
            raise ParseError("%s %s must be a list" % (block, key))
        out.append(node[key])
    return out


def _entries(field, triples, shape, bounds, key, what):
    """The matrix of `shape` from entries [*indices, scalar]: index k must
    be a JSON integer in range(bounds[k]), and `key` maps the indices to
    (row, column)."""
    ent = {}
    for t in triples:
        try:
            *idx, c = t
            val = field.parse(str(c))
        except Exception as e:
            raise ParseError("bad %s entry %r: %s" % (what, t, e))
        if len(idx) != len(bounds) or not all(
                type(i) is int and 0 <= i < b for i, b in zip(idx, bounds)):
            raise ParseError("bad %s entry %r: each index must be an integer "
                             "within its basis" % (what, t))
        k = key(*idx)
        if k in ent:
            raise ParseError("duplicate %s entry %r" % (what, t))
        if not field.is_zero(val):
            ent[k] = val
    return SparseMatrix(field, *shape, ent)


def _mult_matrix(field, triples, d):
    return _entries(field, triples, (d, d * d), (d, d, d),
                    lambda i, j, k: (k, i * d + j), "mult")


def _comult_matrix(field, triples, d):
    return _entries(field, triples, (d * d, d), (d, d, d),
                    lambda i, j, k: (j * d + k, i), "comult")


def _vector(field, pairs, d):
    return _entries(field, pairs, (d, 1), (d,), lambda i: (i, 0), "vector")


def _covector(field, pairs, d):
    return _entries(field, pairs, (1, d), (d,), lambda i: (0, i), "covector")


def _map_matrix(field, triples, d):
    return _entries(field, triples, (d, d), (d, d),
                    lambda i, j: (j, i), "map")


def _coaction_matrix(field, triples, dh, da):
    return _entries(field, triples, (dh * da, da), (da, dh, da),
                    lambda i, j, k: (j * da + k, i), "coaction")


def _action_matrix(field, triples, dh, dc):
    return _entries(field, triples, (dc, dh * dc), (dh, dc, dc),
                    lambda i, j, k: (k, i * dc + j), "action")


class InputDocument:
    def __init__(self, field, hopf, algebra=None, coalgebra=None, options=None):
        self.field = field
        self.hopf = hopf
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.options = options or {}


def parse_document(data) -> InputDocument:
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    field = _parse_field(data.get("field", {}))
    hnode = data.get("hopf")
    if not isinstance(hnode, dict):
        raise ParseError("missing hopf block")
    basis, mult, unit, comult, counit, antipode = _lists(
        hnode, "hopf", ("basis", "mult", "unit", "comult", "counit",
                        "antipode"))
    d = len(basis)
    try:
        hopf = HopfAlgebra(
            field, d,
            _mult_matrix(field, mult, d),
            _vector(field, unit, d),
            _comult_matrix(field, comult, d),
            _covector(field, counit, d),
            _map_matrix(field, antipode, d),
            basis_names=[str(b) for b in basis])
    except Singular as e:  # no antipode inverse, so no operator can be built
        raise ParseError("bad hopf block: %s" % e)
    algebra = None
    if "algebra" in data:
        abasis, mult, unit, coaction = _lists(
            data["algebra"], "algebra", ("basis", "mult", "unit", "coaction"))
        da = len(abasis)
        alg = Algebra(field, da, _mult_matrix(field, mult, da),
                      _vector(field, unit, da), [str(b) for b in abasis])
        algebra = ComoduleAlgebra(
            hopf, alg, _coaction_matrix(field, coaction, d, da))
    coalgebra = None
    if "coalgebra" in data:
        cbasis, comult, counit, action = _lists(
            data["coalgebra"], "coalgebra",
            ("basis", "comult", "counit", "action"))
        dc = len(cbasis)
        coa = Coalgebra(field, dc, _comult_matrix(field, comult, dc),
                        _covector(field, counit, dc), [str(b) for b in cbasis])
        coalgebra = ModuleCoalgebra(
            hopf, coa, _action_matrix(field, action, d, dc))
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    return InputDocument(field, hopf, algebra, coalgebra, dict(options))


def load_document(path) -> InputDocument:
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError("cannot read %s: %s" % (path, e))
    return parse_document(data)


# -- normalized serialization ---------------------------------------------------------

def _mult_triples(field, m, d):
    out = []
    for (k, ij), v in m.entries.items():
        out.append([ij // d, ij % d, k, field.to_str(v)])
    return sorted(out, key=lambda t: t[:3])


def _comult_triples(field, m, d):
    out = []
    for (jk, i), v in m.entries.items():
        out.append([i, jk // d, jk % d, field.to_str(v)])
    return sorted(out, key=lambda t: t[:3])


def _vector_pairs(field, m):
    return sorted([[i, field.to_str(v)] for (i, _), v in m.entries.items()])


def _covector_pairs(field, m):
    return sorted([[j, field.to_str(v)] for (_, j), v in m.entries.items()])


def _map_pairs(field, m):
    return sorted([[j, i, field.to_str(v)] for (i, j), v in m.entries.items()],
                  key=lambda t: t[:2])


def _coaction_triples(field, m, da):
    out = []
    for (jk, i), v in m.entries.items():
        out.append([i, jk // da, jk % da, field.to_str(v)])
    return sorted(out, key=lambda t: t[:3])


def _action_triples(field, m, dc):
    out = []
    for (k, ij), v in m.entries.items():
        out.append([ij // dc, ij % dc, k, field.to_str(v)])
    return sorted(out, key=lambda t: t[:3])


def document_to_dict(doc: InputDocument) -> dict:
    f = doc.field
    h = doc.hopf
    out = {
        "field": {"kind": "Q"} if f.p is None else {"kind": "Fp", "p": f.p},
        "hopf": {
            "basis": list(h.basis_names),
            "mult": _mult_triples(f, h.mult, h.dim),
            "unit": _vector_pairs(f, h.unit),
            "comult": _comult_triples(f, h.comult, h.dim),
            "counit": _covector_pairs(f, h.counit),
            "antipode": _map_pairs(f, h.antipode),
        },
    }
    if doc.algebra is not None:
        a = doc.algebra
        out["algebra"] = {
            "basis": list(a.algebra.basis_names),
            "mult": _mult_triples(f, a.mult, a.dim),
            "unit": _vector_pairs(f, a.unit),
            "coaction": _coaction_triples(f, a.coaction, a.dim),
        }
    if doc.coalgebra is not None:
        c = doc.coalgebra
        out["coalgebra"] = {
            "basis": list(c.coalgebra.basis_names),
            "comult": _comult_triples(f, c.comult, c.dim),
            "counit": _covector_pairs(f, c.counit),
            "action": _action_triples(f, c.action, c.dim),
        }
    if doc.options:
        out["options"] = {k: doc.options[k] for k in sorted(doc.options)}
    return out


def dumps_document(doc: InputDocument) -> str:
    return json.dumps(document_to_dict(doc), sort_keys=True, indent=2) + "\n"
