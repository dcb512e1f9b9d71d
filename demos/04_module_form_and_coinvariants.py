#!/usr/bin/env python3
"""Regrouping the cylinder onto Hopf-module chains, and coinvariants.

A change of coordinates turns the horizontal direction of the cylinder into
the bar complex of the Hopf algebra with coefficients in the first column.
The transformed horizontal boundary literally EQUALS the Hopf-module
boundary, entrywise, and the quotient by the action relations carries an
induced cyclic structure whose rotation has finite order.
"""

from hopfcyclic import (
    AlgebraCylinder, AlgebraModuleForm, CoalgebraCocylinder,
    CoalgebraModuleForm, Field, check_cyclic_ops, check_cocyclic_ops,
    coinvariant_cocyclic_module, coinvariant_cyclic_module,
    cyclic_group_table, first_column_action, first_column_coaction,
    group_algebra, hopf_module_boundary, regular_comodule_algebra,
    regular_module_coalgebra,
)

QQ = Field.rationals()
h = group_algebra(cyclic_group_table(2), QQ, ["e", "g"])
a = regular_comodule_algebra(h)

print("== to/from module form are mutually inverse ==")
mf = AlgebraModuleForm(AlgebraCylinder(a))
rep = mf.check(2, 2)
print("window p,q <= 2:", rep.ok, "(%d comparisons incl. closed forms)"
      % len(rep.entries))

print()
print("== the transformed boundary IS the Hopf-module boundary ==")
for p, q in [(1, 0), (2, 1)]:
    delta = hopf_module_boundary(h, first_column_action(a, q), p)
    print("(p=%d, q=%d): conjugated boundary == bar boundary: %s"
          % (p, q, mf.boundary_h(p, q) == delta))

print()
print("== coinvariants carry an induced cyclic structure ==")
ops, pres = coinvariant_cyclic_module(a, N=2)
print("quotient dims by degree:", [p.dim for p in pres])
print("induced cyclic suite (incl. finite-order rotation):",
      check_cyclic_ops(ops).ok)

print()
print("== dual: comodule form and coinvariant subspaces ==")
c = regular_module_coalgebra(h)
cmf = CoalgebraModuleForm(CoalgebraCocylinder(c))
print("coalgebra-side transform check:", cmf.check(1, 1).ok)
cops, cpres = coinvariant_cocyclic_module(c, N=2)
print("subspace dims by degree:", [p.dim for p in cpres])
print("induced cocyclic suite:", check_cocyclic_ops(cops).ok)
print()
print("the first-column coaction itself:")
co = first_column_coaction(c, 1)
print("  coassociativity and counitality verified on construction;"
      " matrix is %dx%d" % (co.rows, co.cols))
