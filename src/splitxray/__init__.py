"""splitxray: a numerical laboratory for the circle X-ray transform on the
Grassmannian of 2-planes in R^4, its ultrahyperbolic integrability, the
twistor contour transform, and split self-dual gauge fields."""

from .fields import (HarmonicPolynomial, HomogeneousFunction,
                     basis_to_degree_minus_2, harmonic_basis,
                     weight_transform_residual)
from .geometry import (Frame, chart_from_plane, incidence_residual, is_real,
                       pi_project, plane_distance, plane_from_chart,
                       plucker_embed, quadric_residual)
from .instanton import (Connection, GaugeMap, connection_preset,
                        constant_gauge, curvature, gauge_transform, hodge_star,
                        scalar_phase, selfdual_residual, two_form_norm)
from .inversion import (DesignMatrix, InjectivityReport, ReconstructionReport,
                        design_matrix, injectivity_report, reconstruct,
                        sample_frames, sampled_design, save_design_matrix,
                        transform_basis)
from .operators import (box_diag, chart_to_diag, coupled_box, diag_to_chart,
                        dn_residual, john_operator)
from .penrose import (PoleProximityError, PoleSafetyReport,
                      TwistorRationalFunction, contour_chart_field,
                      contour_transform, elementary_state, pole_safety,
                      wedge_pairing)
from .poly import Poly4, exponents_of_degree
from .xray import (QuadratureSpec, equivariance_residual, moment_chart_field,
                   random_gl2, random_sl4, xray_chart_field, xray_moments,
                   xray_transform)

__version__ = "0.1.0"
