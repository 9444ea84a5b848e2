"""Numerical construction and verification of SIC fiducials along the
dimension ladder d -> d(d-2): Weyl-Heisenberg operator bases, symplectic
unitaries, equiangular tight frames, generalized parity, proto families,
and the seeded searches that find aligned SICs inside them.
"""

__version__ = "0.1.0"

from .errors import (AlignmentRequired, BadCompletion, BadDimension,
                     BadPairing, DimensionMismatch, EmptyEigenspace,
                     NoMatchingPhase, NotASic, NotCoprime, NotOrthonormal,
                     NotSymplectic, NotUnitary, ParamCountMismatch,
                     RankDeficient, SearchFailed, SicladderError, WrongCount)
from .linalg import (eig_unitary, gram_schmidt, partial_trace,
                     phase_fix_columns, principal_angles)
from .heisenberg import (crt_index, crt_permutation, crt_split_certificate,
                         crt_split_index, displaced_vector, displacement,
                         omega, overlap_table, tau, weyl_commutation_check,
                         wh_orbit)
from .clifford import (canonical_order3, crt_glue_symplectic,
                       crt_split_symplectic, eigenspace_basis,
                       fix_phase_principal, fix_phase_to_table,
                       is_symplectic, order3_elements, parity_matrix,
                       parity_operator, symplectic_order, symplectic_unitary,
                       zauner_matrix_standard)
from .frames import (EtfCertificate, FrameSpec, check_tight,
                     covariant_generator, grassmann_equidistance,
                     naimark_complement, restrict_to_span)
from .fiducials import (OverlapTable, SicFiducial, default_symmetry,
                        detect_order3_symmetry, detect_scalar_symmetry,
                        find_fiducial, gauge_normalize, overlap_phases,
                        sector_fiducials, sic_defect, symmetry_group_order,
                        two_design_check, two_design_deviation, verify_sic)
from .ladder import (AlignmentCertificate, GeneralizedParity, LabeledBasis,
                     ProtoFamily, block_coefficients, build_proto,
                     embedded_etf, feasible_targets, generalized_parity,
                     h_conjugate, lift_fiducial, make_proto_family,
                     paired_bases, paired_bases_refined, refining_involutions,
                     root_of_parity, translated_subspaces, verify_alignment)
from .optimizer import (COS_HALF_ANGLE_195, PHASE_CONSTANT_5, POLY_COEFFS_35,
                        ClimbOutcome, SearchConfig, SearchResult,
                        check_known_phase_5, check_known_polynomial_35,
                        climb, climb_refined, default_source,
                        equator_geometry_check, minimize, promote_solution,
                        select_source_by_phase)
