"""Exact-arithmetic cyclic homology of crossed products of finite-dimensional
Hopf (co)module (co)algebras.

The package materializes the bi-paracyclic operator families attached to a
comodule algebra or module coalgebra as exact sparse matrices, machine-checks
every structural identity (cylindrical conditions, isomorphisms with the
crossed-product (co)cyclic modules, transform closed forms, mixed-complex
identities, homotopies), and computes Hochschild/cyclic (co)homology and
spectral-sequence pages by exact rank computations over Q or a prime field.
"""

from .fields import Field
from .linalg import SparseMatrix, Subspace, image, kernel, rank
from .hopf import (
    Algebra, Coalgebra, ComoduleAlgebra, HopfAlgebra, ModuleCoalgebra,
    antipode_inverse, check_comodule_algebra, check_hopf,
    check_module_coalgebra, cyclic_group_table, dual_hopf, group_algebra,
    iterate_comult, regular_comodule_algebra, regular_module_coalgebra,
    sweedler_hopf, symmetric_group_table, trivial_comodule_algebra,
    trivial_hopf, trivial_module_coalgebra,
)
from .crossed import (
    CocyclicOps, CyclicOps, check_cocyclic_ops, check_cyclic_ops,
    cocyclic_module_of_coalgebra, crossed_product_algebra,
    crossed_product_coalgebra, cyclic_module_of_algebra, dual_algebra,
)
from .cylinder import (
    AlgebraCylinder, AlgebraModuleForm, CoalgebraCocylinder,
    CoalgebraModuleForm, check_algebra_cylinder, check_coalgebra_cocylinder,
    coinvariant_cocyclic_module, coinvariant_cyclic_module, diagonal_cocyclic,
    diagonal_cyclic, first_column_action, first_column_coaction,
    phi_psi_algebra, phi_psi_coalgebra,
)
from .homology import (
    FilteredComplex, MixedComplex, SSPage, b_column_dims,
    cochain_mixed_complex, connes_dims, cosemisimple_homotopy_check,
    cyclic_dims, ez_compare_hochschild,
    find_dual_left_integral, find_right_integral, hochschild_dims,
    hopf_comodule_cohomology, hopf_module_boundary, hopf_module_homology,
    mixed_complex, normalized_hochschild_dims, normalized_mixed_complex,
    semisimple_homotopy_check, spectral_pages,
    total_complex_algebra, total_complex_coalgebra, total_homology_dims,
    trivial_comodule_coaction, trivial_module_action,
)
from .io import InputDocument, dumps_document, load_document, parse_document
from .corpus import corpus_documents, write_corpus
