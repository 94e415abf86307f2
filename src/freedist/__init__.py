"""Exact invariants of generic rank-l free distributions.

A frame of l polynomial vector fields whose pairwise brackets complete it
to a full tangent frame determines a canonical connection; this package
computes that connection's coefficients and curvature through homogeneity
two in exact arithmetic over Q(sqrt(2)), decides flatness, evaluates the
obstruction to extending the geometry spinorially, and exposes the graded
algebra, harmonic cochain spaces, and Pfaffian cone that support those
computations.
"""

from .algebra import (ALGEBRA_CHECKS, AlgebraElement, Chain, EVEN,
                      GradedAlgebra, ODD, algebra, algebra_battery, basis,
                      bracket, codifferential, commutator_operator,
                      commutator_operator_closed_form, differential,
                      embed_alpha, kappa11_normality_test, pairing, phi,
                      phi_extension)
from .cohomology import HarmonicSpace, harmonic_h1_scan, harmonic_space
from .errors import (DegenerateFrameError, FreeDistError,
                     NotFreeDistributionError, ParseError, UnsupportedError,
                     UnsupportedFrameError)
from .geometry import (Coframe, DifferentialForm, Frame, StructureFunctions,
                       VectorField, build_frame, check_nondegenerate,
                       dual_coframe, frame_keys, lie_bracket,
                       structure_functions)
from .normalization import (AnalysisReport, ConnectionData, CurvatureReport,
                            analyze, curvature_chain,
                            extension_normality_report, flatness_test,
                            report_from_json, report_to_json, solve_degree1,
                            solve_degree2)
from .parsing import (parse_expression, parse_frame_file, parse_scalar,
                      parse_vector_field)
from .polynomials import Chart, Polynomial, chart
from .scalars import ExactScalar
from .spinorial import (SkewMatrix, SpinorIdentification, list_inclusions,
                        null_cone_member, pfaffian, pfaffian_quadratic_form,
                        quadratic_form_signature, skew_to_tangent,
                        tangent_to_skew)

__version__ = "0.1.0"

__all__ = [
    "ALGEBRA_CHECKS", "AlgebraElement", "AnalysisReport", "Chain", "Chart",
    "Coframe", "ConnectionData", "CurvatureReport", "DegenerateFrameError",
    "DifferentialForm", "EVEN", "ExactScalar", "Frame", "FreeDistError",
    "GradedAlgebra", "HarmonicSpace", "NotFreeDistributionError", "ODD",
    "ParseError", "Polynomial", "SkewMatrix", "SpinorIdentification",
    "StructureFunctions", "UnsupportedError", "UnsupportedFrameError",
    "VectorField", "algebra", "algebra_battery", "analyze", "basis",
    "bracket", "build_frame", "chart", "check_nondegenerate",
    "codifferential", "commutator_operator",
    "commutator_operator_closed_form", "curvature_chain", "differential",
    "dual_coframe", "embed_alpha", "extension_normality_report",
    "flatness_test", "frame_keys", "harmonic_h1_scan", "harmonic_space",
    "kappa11_normality_test", "lie_bracket", "list_inclusions",
    "null_cone_member", "pairing", "parse_expression", "parse_frame_file",
    "parse_scalar", "parse_vector_field", "pfaffian",
    "pfaffian_quadratic_form", "phi", "phi_extension",
    "quadratic_form_signature", "report_from_json", "report_to_json",
    "skew_to_tangent", "solve_degree1", "solve_degree2",
    "structure_functions", "tangent_to_skew",
]
