"""Exact homological algebra for tailed sequences of vector spaces.

Sequences carry Zero or Iso tails outside a finite window; morphisms live in
an enlarged category with an extra epsilon component, mirroring complexes of
modules over the dual numbers k[eps]/(eps^2).
"""

from .barcode import (Barcode, Classification, Interval, assemble, classify,
                      decompose, is_isomorphic, make_barcode,
                      max_injective_subobject, multiplicities, rank_pairing,
                      verify_certificate)
from .dualnum import (EpsComplex, HomotopyEquivalence, MinimalComplex,
                      as_complex, cohomology, eps_cohomology, from_seq, hom_k,
                      make_minimal, minimize, to_seq, validate)
from .errors import (NotExact, ParseError, StabilizationDepthExceeded,
                     ValidationFailed)
from .graded import (GradedHomElement, compose, differential, identity_element,
                     is_morphism, make_element, shift_element, zero_element)
from .hom import (HatMorphism, HomContext, compose_hat, direct_sum, get_context,
                  hat, hat_eps, identity_hat, shift_hat, zero_hat)
from .io import (Document, parse_document, parse_path, report_json,
                 seq_from_json, seq_to_json)
from .linalg import Field, Matrix, block_matrix, rank, solve, subspaces
from .phantom import (Derivation, Diagram, PhantomCertificate, PhantomVerdict,
                      check_derivation, inner_derivation, is_phantom,
                      phantom_basis, solve_inner)
from .seq import Seq, Tail, direct_sum_seq, interval, make_seq, shift, zero_seq
from .triang import (ExtensionClass, Triangle, cone, cone_triangle,
                     extension_from_eps, splits, triangle_from_ses,
                     truncate_above, truncate_below, truncation_inclusion,
                     truncation_projection, truncation_triangle)

__version__ = "0.1.0"

__all__ = [
    "Barcode", "Classification", "Derivation", "Diagram", "Document",
    "EpsComplex", "ExtensionClass", "Field", "GradedHomElement",
    "HatMorphism", "HomContext", "HomotopyEquivalence", "Interval",
    "Matrix", "MinimalComplex", "NotExact", "ParseError",
    "PhantomCertificate", "PhantomVerdict", "Seq", "StabilizationDepthExceeded",
    "Tail", "Triangle", "ValidationFailed", "as_complex", "assemble",
    "block_matrix", "check_derivation", "classify", "cohomology", "compose",
    "compose_hat", "cone", "cone_triangle", "decompose", "differential",
    "direct_sum", "direct_sum_seq", "eps_cohomology", "extension_from_eps",
    "from_seq", "get_context", "hat", "hat_eps", "hom_k",
    "identity_element", "identity_hat", "inner_derivation", "interval",
    "is_isomorphic", "is_morphism", "is_phantom", "make_barcode",
    "make_element", "make_minimal", "make_seq", "max_injective_subobject",
    "minimize", "multiplicities", "parse_document", "parse_path",
    "phantom_basis", "rank", "rank_pairing", "report_json", "seq_from_json",
    "seq_to_json", "shift", "shift_element", "shift_hat", "solve",
    "solve_inner", "splits", "subspaces", "to_seq", "triangle_from_ses",
    "truncate_above", "truncate_below", "truncation_inclusion",
    "truncation_projection", "truncation_triangle", "validate",
    "verify_certificate", "zero_element", "zero_hat", "zero_seq",
]
