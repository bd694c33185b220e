"""skeletrop: combinatorial skeletons and exact faithfulness certificates.

A library for modeling the dual intersection complex of a semistable
degeneration, equipping its skeleton with the piecewise integer affine
coordinates induced by vanishing-order data, and certifying, in exact
rational arithmetic, that the resulting map into tropical projective space
is unimodular on every simplex and injective on the whole skeleton.
"""

from ._version import __version__
from .bounds import BoundQuery, coordinate_count, corollary_twist, phi_upper_bound
from .complexes import (DualComplex, SimplexPoint, Stratum, Violation,
                        build_delta_complex, build_from_facets,
                        connected_components, face_restriction,
                        relint_membership, validate_complex)
from .documents import (InputDocument, InputError, emit_certificate,
                        generate_fixture, input_digest, input_text, parse_input)
from .lattice import (Constraint, IntMatrix, RationalPolyhedron,
                      SmithDecomposition, complete_to_basis, elementary_divisors,
                      extends_to_basis, relint_intersection_nonempty,
                      simplex_image_polyhedron, smith_normal_form)
from .sections import (AffineFunctional, OrderMatrix, canonical_order_matrix,
                       concavity_lower_bound, restrict_affine, validate_orders)
from .tropical import (INFINITY, MonomialSupport, TropicalProjectivePoint,
                       eval_min_plus, trop_eq, trop_normalize)
from .tropicalize import (ExactVerdict, FaceDischarge, FaithfulnessReport,
                          PairEvidence, PairRow, PiecewiseAffineMap, SeparationCertificate,
                          UnimodularityCertificate, build_map, check_faithful,
                          check_unimodular, images_relint_disjoint_exact,
                          piece_injective, separation_certificate)

__all__ = [
    "__version__",
    "BoundQuery", "coordinate_count", "corollary_twist", "phi_upper_bound",
    "DualComplex", "SimplexPoint", "Stratum", "Violation",
    "build_delta_complex", "build_from_facets", "connected_components",
    "face_restriction", "relint_membership", "validate_complex",
    "InputDocument", "InputError", "emit_certificate", "generate_fixture",
    "input_digest", "input_text", "parse_input",
    "Constraint", "IntMatrix", "RationalPolyhedron", "SmithDecomposition",
    "complete_to_basis", "elementary_divisors", "extends_to_basis",
    "relint_intersection_nonempty", "simplex_image_polyhedron",
    "smith_normal_form",
    "AffineFunctional", "OrderMatrix", "canonical_order_matrix",
    "concavity_lower_bound", "restrict_affine", "validate_orders",
    "INFINITY", "MonomialSupport", "TropicalProjectivePoint", "eval_min_plus",
    "trop_eq", "trop_normalize",
    "ExactVerdict", "FaceDischarge", "FaithfulnessReport", "PairEvidence",
    "PairRow", "PiecewiseAffineMap", "SeparationCertificate", "UnimodularityCertificate",
    "build_map", "check_faithful", "check_unimodular",
    "images_relint_disjoint_exact", "piece_injective", "separation_certificate",
]
