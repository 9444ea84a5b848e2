"""Numerical construction and verification of SIC fiducials along the
dimension ladder d -> d(d-2): Weyl-Heisenberg operator bases, symplectic
unitaries, equiangular tight frames, generalized parity, proto families,
and the seeded searches that find aligned SICs inside them.
"""

__version__ = "0.1.0"

from .errors import SearchFailed, SicladderError
from .linalg import eig_unitary, phase_fix_columns
from .heisenberg import (crt_index, crt_split_certificate, crt_split_index,
                         displaced_vector, displacement, omega, overlap_table,
                         tau, weyl_commutation_check, wh_orbit)
from .clifford import (canonical_order3, eigenspace_basis, fix_phase_principal,
                       fix_phase_to_table, is_symplectic, order3_elements,
                       parity_matrix, parity_operator, symplectic_unitary,
                       zauner_matrix_standard)
from .frames import (EtfCertificate, check_tight, covariant_generator,
                     grassmann_equidistance, restrict_to_span)
from .fiducials import (OverlapTable, SicFiducial, default_symmetry,
                        detect_order3_symmetry, detect_scalar_symmetry,
                        find_fiducial, gauge_normalize, overlap_phases,
                        sector_fiducials, sic_defect, symmetry_group_order,
                        two_design_deviation, verify_sic)
from .ladder import (AlignmentCertificate, GeneralizedParity, LabeledBasis,
                     ProtoFamily, build_proto, certificate_rows, embedded_etf,
                     equator_geometry_check, feasible_targets,
                     generalized_parity, h_conjugate, lift_fiducial,
                     make_proto_family, paired_bases, paired_bases_refined,
                     refining_involutions, root_of_parity, translated_subspaces,
                     verify_alignment)
from .optimizer import (PHASE_CONSTANT_5, POLY_COEFFS_35, ClimbOutcome,
                        SearchConfig, SearchResult, check_known_phase_5,
                        check_known_polynomial_35, climb, climb_refined,
                        default_source, minimize, promote_solution,
                        select_source_by_phase)
