"""Exact engine for derived brackets, bracket pencils, and torsion.

The package works with finite-dimensional algebras given by rational
structure constants.  Everything is exact: ranks and kernels run over the
rationals, polynomial arithmetic is sparse with Fraction coefficients, and
identities that guard a returned result raise when they fail (also under
`python -O`); cross-checks between independent computations live in the
tests.
"""

from .exact import (RatMatrix, SparsePoly, format_rat, generic_rank,
                    kernel_basis, mat_commutator, nilpotent_exp, parse_rat,
                    rank_exact, rational_sqrt)
from .tensors import (IdentityFailed, IrrationalEigenvalues, NormalizedPencil,
                      PencilAction, PreconditionViolated, StructureTensor, ad,
                      check_jacobi, check_skew, check_vanishing_propagation,
                      classify_operator, contract, derived, derived_iter,
                      is_derivation, is_lie, normalize_pencil,
                      shift_by_derivation, tensor_combination)
from .constructions import (AssocOperators, DeformationTable, GradingSpec,
                            InvolutionSplit, NilpotentSquareReport, Sl2Triple,
                            SpecialReport, assoc_operators, basis_matrices,
                            build_classical, build_gl_associative,
                            check_special, contractions_from_grading,
                            deform_bracket, direct_sum, grading_operator,
                            involution_split, nilpotent_square,
                            quasi_grading_extension, sl2_complete,
                            splitting_operators, tensor_from_matrix_basis)
from .poisson import (PCFamily, PoissonStructure, SeedNotCentral,
                      bihomogeneous_components, centre_candidates,
                      directional, directional_derivative, frozen_bracket,
                      from_tensor, lift_operator, lifted, pc_generate,
                      pc_verify, poisson_bracket)
from .analysis import (IndexReport, IndexTheoremReport, centraliser,
                       lie_centre, lie_index, lower_central_series,
                       nilpotency_class, verify_index_theorem)
from .nijenhuis import (AssocTorsionReport, NPropertiesReport,
                        assoc_torsion_formula,
                        certified_exp_identity_nijenhuis,
                        check_N_properties, diagonal_torsion_witnesses,
                        exp_identity_near, exp_identity_nijenhuis,
                        is_nijenhuis, torsion, torsion_decomposition,
                        torsion_split)
from .io import (ParseError, load_algebra, load_operator, load_seeds,
                 save_algebra, save_operator, save_seeds)

__version__ = "0.1.0"
