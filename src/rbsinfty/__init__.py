"""Exact symbolic operad calculus for Rota-Baxter systems.

Everything is exact: maps and tensors hold integer rows over one denominator
(:mod:`rbsinfty.graded`), the operad side plain ints; no floating point is
used anywhere in the library.

The package exposes:

* free non-symmetric graded operads on planar trees (:mod:`rbsinfty.trees`)
  with the two free resolutions and their differentials
  (:mod:`rbsinfty.minimal_model`) and the explicit contracting homotopy on
  tree monomials (:mod:`rbsinfty.monomial_model`);
* graded linear algebra over sparse rational tables — spaces, multilinear
  maps, based algebras, tensors (:mod:`rbsinfty.graded`) with the shared
  Koszul sign conventions (:mod:`rbsinfty.signs`);
* residual checkers for classical and homotopy Rota-Baxter systems
  (:mod:`rbsinfty.residuals`) and the Yang-Baxter correspondence in both its
  classical and homotopy forms (:mod:`rbsinfty.yang_baxter`);
* the deformation complex with its brackets, Maurer-Cartan equation and
  twisted differential (:mod:`rbsinfty.linfty`);
* a JSON-reporting command line (:mod:`rbsinfty.cli`, console script
  ``rbsinfty``).
"""

from .graded import (
    BasedAlgebra,
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    brace_map,
    compose_tensor,
    insert,
    raise_indices,
    tensor_product_multiply,
)
from .linfty import (
    TAG_ALG,
    TAG_R,
    TAG_S,
    CochainElement,
    Piece,
    basis_cochains,
    classical_cochain,
    desuspend_alg_map,
    generalized_jacobi_defect,
    is_mc,
    l_bracket,
    mc_residual,
    suspend_alg_map,
    twist_square_defects,
    twisted_differential,
    verify_generalized_jacobi,
)
from .minimal_model import (
    check_d_squared,
    diff_generator,
    presentation_generators,
)
from .monomial_model import (
    apply_homotopy,
    check_homotopy,
    diff_bar,
    enumerate_monomials,
    homotopy_H,
)
from .residuals import (
    HomotopyRBS,
    check_classical_rbs,
    dga_residual_R,
    dga_residual_S,
    hrbs_residual_R,
    hrbs_residual_S,
    stasheff_residual,
)
from .sampling import DEFAULT_COEFFICIENTS, random_multimap, random_tensor
from .signs import inversion_sign, koszul_chi, koszul_epsilon, permutation_sign, shuffles
from .trees import (
    Generator,
    OperadElement,
    TreeMonomial,
    as_element,
    brace,
    compose_at,
    corolla,
    gen,
    identity_element,
    leading_monomial,
    parse_tree,
)
from .yang_baxter import (
    F_inverse,
    F_map,
    InfinityYBPair,
    YBPair,
    check_classical_ybp,
    check_infinity_ybp,
    chi_inverse,
    chi_map,
    equivalence_identity_1,
    equivalence_identity_2,
    equivalence_identity_3,
    equivalence_identity_4,
    rbs_to_ybp,
    ybp_to_rbs,
)

__version__ = "0.1.0"

__all__ = [
    "BasedAlgebra",
    "CochainElement",
    "DEFAULT_COEFFICIENTS",
    "F_inverse",
    "F_map",
    "Generator",
    "GradedSpace",
    "HomotopyRBS",
    "InfinityYBPair",
    "MatrixAlgebra",
    "MultiMap",
    "OperadElement",
    "Piece",
    "TAG_ALG",
    "TAG_R",
    "TAG_S",
    "TensorElem",
    "TreeMonomial",
    "YBPair",
    "apply_homotopy",
    "as_element",
    "basis_cochains",
    "brace",
    "brace_map",
    "check_classical_rbs",
    "check_classical_ybp",
    "check_d_squared",
    "check_homotopy",
    "check_infinity_ybp",
    "chi_inverse",
    "chi_map",
    "classical_cochain",
    "compose_at",
    "compose_tensor",
    "corolla",
    "desuspend_alg_map",
    "dga_residual_R",
    "dga_residual_S",
    "diff_bar",
    "diff_generator",
    "enumerate_monomials",
    "equivalence_identity_1",
    "equivalence_identity_2",
    "equivalence_identity_3",
    "equivalence_identity_4",
    "gen",
    "generalized_jacobi_defect",
    "homotopy_H",
    "hrbs_residual_R",
    "hrbs_residual_S",
    "identity_element",
    "insert",
    "inversion_sign",
    "is_mc",
    "koszul_chi",
    "koszul_epsilon",
    "l_bracket",
    "leading_monomial",
    "mc_residual",
    "parse_tree",
    "permutation_sign",
    "presentation_generators",
    "raise_indices",
    "random_multimap",
    "random_tensor",
    "rbs_to_ybp",
    "shuffles",
    "stasheff_residual",
    "suspend_alg_map",
    "tensor_product_multiply",
    "twist_square_defects",
    "twisted_differential",
    "verify_generalized_jacobi",
    "ybp_to_rbs",
]
